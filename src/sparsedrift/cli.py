"""Command-line entry point.

Subcommands: simulate, estimate, cv, support-recovery, dimension-sweep,
rate-study, verify, constants.  Shared flags: --config <path>,
--set key=value (dotted paths, repeatable), --seed, --jobs, --out.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import apply_overrides, load_config, validate_config
from .errors import (
    ConfigError,
    DiagonalizationFailed,
    NumericDegeneracy,
    SimulationDiverged,
    UnstableMatrix,
)
from . import experiments
from .simulate import Trajectory, trajectory_from_binary, trajectory_from_csv

_NUMERIC_FAILURES = (
    SimulationDiverged,
    NumericDegeneracy,
    UnstableMatrix,
    DiagonalizationFailed,
    np.linalg.LinAlgError,
)

_KIND_BY_COMMAND = {
    "simulate": "simulate",
    "estimate": "estimate-single",
    "cv": "cv",
    "support-recovery": "support-recovery",
    "dimension-sweep": "dimension-sweep",
    "rate-study": "rate-study",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsedrift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "simulate",
        "estimate",
        "cv",
        "support-recovery",
        "dimension-sweep",
        "rate-study",
        "verify",
        "constants",
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON config file")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (dotted path); value parsed as JSON",
        )
        cmd.add_argument("--seed", type=int, default=None, help="override the master seed")
        cmd.add_argument("--jobs", type=int, default=None, help="worker processes")
        cmd.add_argument("--out", default=None, help="output directory")
        if name == "estimate":
            cmd.add_argument(
                "--trajectory",
                default=None,
                help="estimate from this trajectory file (.csv or .bin) instead of simulating",
            )
    return parser


def _resolve_config(args) -> dict:
    raw = load_config(args.config)
    raw = apply_overrides(raw, args.set)
    if args.command == "verify":
        if raw.get("experiment") not in ("verify-sets", "verify-concentration"):
            raw["experiment"] = "verify-sets"
    elif args.command == "constants":
        raw.setdefault("experiment", "estimate-single")
    else:
        raw["experiment"] = _KIND_BY_COMMAND[args.command]
    if args.seed is not None:
        raw["seed"] = args.seed
    raw.setdefault("seed", 0)
    if args.jobs is not None:
        raw["jobs"] = args.jobs
    return validate_config(raw)


def _read_trajectory(path: str, d: int) -> Trajectory:
    """The trajectory in ``path`` (.bin or .csv); a malformed file or another d is a ConfigError."""
    try:
        traj = trajectory_from_binary(path) if path.endswith(".bin") else trajectory_from_csv(path)
    except ValueError as exc:
        raise ConfigError(f"trajectory file {path}: {exc}") from exc
    if traj.d != d:
        raise ConfigError(f"trajectory file {path} has dimension {traj.d}, model.d is {d}")
    return traj


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        out_dir = args.out or cfg.get("output_dir") or f"{args.command}-out"
        jobs = cfg.get("jobs", 1)
        if args.command == "constants":
            pairs = experiments.run_constants(cfg, args.out or cfg.get("output_dir"))
            for name, value in pairs:
                print(f"{name} = {value!r}")
            return 0
        if args.command == "simulate":
            files = experiments.run_simulate(cfg, out_dir)
        elif args.command == "estimate":
            traj = None
            if args.trajectory:
                traj = _read_trajectory(args.trajectory, cfg["model"]["d"])
            files = experiments.run_estimate_single(cfg, out_dir, trajectory=traj)
        elif args.command == "cv":
            files = experiments.run_cv(cfg, out_dir)
        elif args.command == "support-recovery":
            files = experiments.run_support_recovery(cfg, out_dir, jobs=jobs)
        elif args.command == "dimension-sweep":
            files = experiments.run_dimension_sweep(cfg, out_dir, jobs=jobs)
        elif args.command == "rate-study":
            files = experiments.run_rate_study(cfg, out_dir, jobs=jobs)
        elif args.command == "verify":
            files = experiments.run_verifications(cfg, out_dir, jobs=jobs)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command}")
        for name in files:
            print(f"{out_dir}/{name}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
