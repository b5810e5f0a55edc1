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

from .config import apply_overrides, check_kind, check_steps, fit_folds, load_config, validate_config
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

# command -> (experiment kind, runner); ``verify`` also accepts the verify-concentration
# kind, and ``constants`` keeps a configured kind but needs what estimate-single needs
_COMMANDS = {
    "simulate": ("simulate", experiments.run_simulate),
    "estimate": ("estimate-single", experiments.run_estimate_single),
    "cv": ("cv", experiments.run_cv),
    "support-recovery": ("support-recovery", experiments.run_support_recovery),
    "dimension-sweep": ("dimension-sweep", experiments.run_dimension_sweep),
    "rate-study": ("rate-study", experiments.run_rate_study),
    "verify": ("verify-sets", experiments.run_verifications),
    "constants": ("estimate-single", experiments.run_constants),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsedrift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
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
    kind = _COMMANDS[args.command][0]
    if args.command == "constants":
        raw.setdefault("experiment", kind)
    elif not (args.command == "verify" and raw.get("experiment") == "verify-concentration"):
        raw["experiment"] = kind
    if args.seed is not None:
        raw["seed"] = args.seed
    raw.setdefault("seed", 0)
    if args.jobs is not None:
        raw["jobs"] = args.jobs
    cfg = validate_config(raw)
    if args.command == "constants":
        check_kind(cfg, kind)
    return cfg


def _read_trajectory(path: str, cfg: dict) -> Trajectory:
    """The trajectory in ``path`` (.bin or .csv) to fit under ``cfg``.

    An unreadable or malformed file, another d than model.d, or fewer steps
    than the fit's CV folds is a ConfigError naming the file.
    """
    try:
        traj = trajectory_from_binary(path) if path.endswith(".bin") else trajectory_from_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"trajectory file {path}: {exc}") from exc
    d = cfg["model"]["d"]
    if traj.d != d:
        raise ConfigError(f"trajectory file {path} has dimension {traj.d}, model.d is {d}")
    check_steps(traj.n, fit_folds(cfg["estimation"]), f"trajectory file {path}", "its path")
    return traj


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        runner = _COMMANDS[args.command][1]
        if args.command == "constants":
            for name, value in runner(cfg, args.out or cfg.get("output_dir")):
                print(f"{name} = {value!r}")
            return 0
        out_dir = args.out or cfg.get("output_dir") or f"{args.command}-out"
        extra = {}
        if args.command == "estimate" and args.trajectory:
            extra["trajectory"] = _read_trajectory(args.trajectory, cfg)
        files = runner(cfg, out_dir, **extra)
        for name in files:
            print(f"{out_dir}/{name}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_FAILURES as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
