"""Benchmark workloads and the correctness gate of their outputs.

Each workload is one public experiment runner (``sparsedrift.experiments``)
at an acceptance-criterion config with fewer replications.  Its config is a
pure function of a seed; a benchmark run derives one such seed per execution
from its ``--seed``.

* ``cosine-cv``: support recovery at the criterion-06 config.  CV fold paths
  plus the refit are about 90% of the work, and the numerically singular
  cosine Gram produces unconverged solves.
* ``ou-rate``: rate study on the criterion-08 interaction model at T=100 and
  T=1600.  At T=1600 the streamed exact-OU stepping dominates; at T=100 the
  row-Lasso CV over one shared Gram does.
* ``verify-audit``: event-set and oracle audit at the criterion-10 config,
  plus the criterion-09 linear concentration block and an OU concentration
  block on a 64-dimensional stable matrix, whose Lyapunov solves dominate
  memory.  It exercises the theory layer and the recording samplers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

_CRITERION_08_DIAG = [1.0, 1.5, 2.0, 2.5, 3.0]


def execution_seed(seed: int, index: int) -> int:
    """Config seed of input ``index`` of a run with benchmark seed ``seed``; input 0 uses ``seed``."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


def _cosine_cv(seed: int) -> dict:
    return {
        "experiment": "support-recovery",
        "seed": seed,
        "replications": 1,
        "model": {"family": "cosine", "d": 10, "p": 30, "sparsity_fraction": 0.7},
        "sampling": {"T": 7.0, "delta_n": 0.01, "substeps": 10},
        "estimation": {"lambda_grid": {"num": 20, "ratio": 1e-3}, "cv_folds": 5},
    }


def _ou_rate(seed: int) -> dict:
    return {
        "experiment": "rate-study",
        "seed": seed,
        "replications": 8,
        "t_grid": [100.0, 1600.0],
        "model": {"family": "ou-linear", "d": 5, "A0_diag": _CRITERION_08_DIAG},
        "sampling": {"delta_over_t": 10.0},
        "estimation": {"lambda_grid": {"num": 20, "ratio": 1e-3}, "cv_folds": 5},
    }


def stable_matrix(seed: int, d: int, margin: float = 0.3) -> np.ndarray:
    """Dense random matrix whose eigenvalue real parts are all >= margin."""
    a = np.random.default_rng(seed).normal(size=(d, d)) / math.sqrt(d)
    return a + (margin - min(np.linalg.eigvals(a).real.min(), 0.0)) * np.eye(d)


def _verify_audit(seed: int) -> dict:
    return {
        "experiment": "verify-sets",
        "seed": seed,
        "model": {"family": "ou-linear", "d": 5, "A0_diag": _CRITERION_08_DIAG},
        "sampling": {"T": 10.0, "delta_n": 0.01, "substeps": 2},
        "audit": {
            "epsilon": 0.1,
            "gamma": 1.0,
            "c_b": 1.0,
            "reps": 100,
            "budget": 64,
            "concentration_linear": {
                "A0": [[1.0, 0.2], [0.0, 1.0]],
                "n": 400,
                "delta_n": 0.02,
                "r_grid": [0.05, 0.1, 0.25, 0.5, 1.0, 2.0],
                "reps": 200,
            },
            "concentration_ou": {
                "A0": stable_matrix(seed, 64).tolist(),
                "n": 500,
                "delta_n": 0.1,
                "x_grid": [0.02, 0.05, 0.1, 0.2, 0.5],
                "reps": 200,
            },
        },
    }


# ---------------------------------------------------------------------------
# Expected tables
# ---------------------------------------------------------------------------

# columns that hold words; every other field must parse as a finite number
_TEXT_COLUMNS = {"estimator", "regime_tag", "quantity", "name"}


def _cosine_tables(cfg: dict) -> dict[str, int]:
    p, reps = cfg["model"]["p"], cfg["replications"]
    tables = {"replications.csv": 2 * reps, "summary.csv": 2}
    tables.update({f"coefficients_{k}.csv": p for k in ("true", "mle", "lasso")})
    return tables


def _ou_tables(cfg: dict) -> dict[str, int]:
    points = len(cfg["t_grid"])
    return {"rates.csv": points, "replications.csv": points * cfg["replications"], "fit.csv": 1}


def _verify_tables(cfg: dict) -> dict[str, int]:
    audit = cfg["audit"]
    return {
        "events.csv": audit["reps"],
        "oracle.csv": audit["reps"],
        "event_summary.csv": 5,
        "constants.csv": 16,
        "concentration_linear.csv": len(audit["concentration_linear"]["r_grid"]),
        "concentration_ou.csv": len(audit["concentration_ou"]["x_grid"]),
    }


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_tables(out_dir: str, expected: dict[str, int]) -> list[str]:
    """Problems with the tables and manifest in ``out_dir``; empty when complete and finite."""
    problems = []
    for name, rows_expected in sorted(expected.items()):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: missing")
            continue
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            problems.append(f"{name}: empty")
            continue
        header, body = rows[0], rows[1:]
        if len(body) != rows_expected:
            problems.append(f"{name}: {len(body)} rows, expected {rows_expected}")
        for i, row in enumerate(body, start=2):
            if len(row) != len(header):
                problems.append(f"{name}:{i}: {len(row)} fields, expected {len(header)}")
                continue
            for col, field in zip(header, row):
                if col in _TEXT_COLUMNS:
                    continue
                try:
                    value = float(field)
                except ValueError:
                    problems.append(f"{name}:{i}: {col}={field!r} is not a number")
                    continue
                if not math.isfinite(value):
                    problems.append(f"{name}:{i}: {col}={field} is not finite")
    problems += _check_manifest(out_dir, expected)
    return problems


def _check_manifest(out_dir: str, expected: dict[str, int]) -> list[str]:
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path) as fh:
            files = json.load(fh)["files"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest.json: unreadable ({exc})"]
    problems = [f"manifest.json: does not list {name}" for name in sorted(expected) if name not in files]
    for name, digest in sorted(files.items()):
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                actual = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            problems.append(f"manifest.json: lists missing file {name}")
            continue
        if actual != digest:
            problems.append(f"manifest.json: hash mismatch for {name}")
    return problems


def identical_tables(dir_a: str, dir_b: str, expected: dict[str, int]) -> list[str]:
    """Names of the expected CSVs whose bytes differ between two output directories."""
    differ = []
    for name in sorted(expected):
        try:
            with open(os.path.join(dir_a, name), "rb") as fa:
                with open(os.path.join(dir_b, name), "rb") as fb:
                    same = fa.read() == fb.read()
        except OSError:
            same = False
        if not same:
            differ.append(name)
    return differ


# ---------------------------------------------------------------------------
# Criterion directions: (problems, report lines) over the run's distinct inputs
# ---------------------------------------------------------------------------


def _cosine_direction(out_dirs: list[str], cfgs: list[dict]) -> tuple[list[str], list[str]]:
    """Lasso beats MLE on median l2 over all replications of the run; F1 is reported.

    Criterion 06 also asks for a higher median F1, over 20 replications.  At
    the ten or so replications of a run a correct program misses it now and
    then (seed 306 has Lasso's F1 below the MLE's in 5 of 8 replications), so
    the F1 comparison is reported, not gated.
    """
    f1: dict[str, list[float]] = {"lasso": [], "mle": []}
    l2: dict[str, list[float]] = {"lasso": [], "mle": []}
    below = 0
    for out in out_dirs:
        by_rep: dict[str, dict[str, float]] = {}
        for row in read_csv(os.path.join(out, "replications.csv")):
            f1[row["estimator"]].append(float(row["f1"]))
            l2[row["estimator"]].append(float(row["l2_error"]))
            by_rep.setdefault(row["replication"], {})[row["estimator"]] = float(row["f1"])
        below += sum(rep["lasso"] < rep["mle"] for rep in by_rep.values())
    med_l2 = {est: statistics.median(v) for est, v in l2.items()}
    med_f1 = {est: statistics.median(v) for est, v in f1.items()}
    problems = []
    if not med_l2["lasso"] < med_l2["mle"]:
        problems.append(f"median l2 lasso {med_l2['lasso']:.4g} >= mle {med_l2['mle']:.4g}")
    notes = [
        f"median l2 lasso {med_l2['lasso']:.4g} < mle {med_l2['mle']:.4g} (gated)",
        f"median f1 lasso {med_f1['lasso']:.4f}, mle {med_f1['mle']:.4f}; lasso below mle in "
        f"{below} of {len(f1['lasso'])} replications (reported, not gated)",
    ]
    return problems, notes


def _ou_direction(out_dirs: list[str], cfgs: list[dict]) -> tuple[list[str], list[str]]:
    """The fitted log-log slope of the l2 error against T is negative for every input."""
    slopes = [float(read_csv(os.path.join(out, "fit.csv"))[0]["slope"]) for out in out_dirs]
    problems = [f"input {i}: slope {s:.4f} is not negative" for i, s in enumerate(slopes) if not s < 0]
    return problems, [f"slopes {min(slopes):.4f} .. {max(slopes):.4f} < 0 (gated)"]


def _verify_direction(out_dirs: list[str], cfgs: list[dict]) -> tuple[list[str], list[str]]:
    """Event-T and oracle frequencies meet the criterion-10 targets (3 standard errors)."""
    problems = []
    lowest: dict[str, tuple[float, float]] = {}
    for i, (out, cfg) in enumerate(zip(out_dirs, cfgs)):
        reps, eps = cfg["audit"]["reps"], cfg["audit"]["epsilon"]
        rows = read_csv(os.path.join(out, "event_summary.csv"))
        summary = {r["quantity"]: float(r["frequency"]) for r in rows}
        targets = {
            "T": 1 - eps - 3 * math.sqrt((1 - eps) * eps / reps),
            "oracle": 1 - 3 * eps - 3 * math.sqrt((1 - 3 * eps) * 3 * eps / reps),
        }
        for quantity, target in targets.items():
            if not summary[quantity] >= target:
                problems.append(f"input {i}: P({quantity}) {summary[quantity]:.3f} < {target:.3f}")
            if quantity not in lowest or summary[quantity] < lowest[quantity][0]:
                lowest[quantity] = (summary[quantity], target)
    notes = [f"lowest P({q}) {f:.3f} >= target {t:.3f} (gated)" for q, (f, t) in lowest.items()]
    return problems, notes


def _cosine_replications(cfg: dict) -> int:
    return cfg["replications"]


def _ou_replications(cfg: dict) -> int:
    return cfg["replications"] * len(cfg["t_grid"])


def _verify_replications(cfg: dict) -> int:
    audit = cfg["audit"]
    return audit["reps"] + audit["concentration_linear"]["reps"] + audit["concentration_ou"]["reps"]


@dataclass(frozen=True)
class Workload:
    name: str
    criterion_seed: int  # the acceptance criterion's seed, the default --seed
    runner: str  # attribute of sparsedrift.experiments
    config: Callable[[int], dict]
    tables: Callable[[dict], dict[str, int]]
    replications: Callable[[dict], int]
    # (problems, report lines) for the criterion's direction over the run's inputs
    direction: Callable[[list[str], list[dict]], tuple[list[str], list[str]]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cosine-cv", 2024, "run_support_recovery",
            _cosine_cv, _cosine_tables, _cosine_replications, _cosine_direction,
        ),
        Workload(
            "ou-rate", 31415, "run_rate_study",
            _ou_rate, _ou_tables, _ou_replications, _ou_direction,
        ),
        Workload(
            "verify-audit", 4321, "run_verifications",
            _verify_audit, _verify_tables, _verify_replications, _verify_direction,
        ),
    )
}


def unconverged_refits(out_dirs: list[str]) -> tuple[int, int]:
    """(unconverged, total) Lasso refits in replications tables that report convergence."""
    rows = []
    for out in out_dirs:
        path = os.path.join(out, "replications.csv")
        if os.path.exists(path):
            rows += [r for r in read_csv(path) if r.get("estimator") == "lasso" and "converged" in r]
    return sum(r["converged"] == "0" for r in rows), len(rows)
