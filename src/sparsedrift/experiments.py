"""Configuration-driven experiment runners.

Each runner takes a validated config (see ``config``), fans replications out
to a worker pool, and emits CSV tables, static SVG figures, and a manifest
JSON with content hashes of every emitted file.  A table is a list of dict
rows, most of them returned by the workers; its columns are the keys of its
rows, in order.  Every runner takes its drift problem from ``_problem`` and
samples its paths through ``_path``.

Each replication draws all its randomness from Philox streams keyed by the
master seed XOR a replication key: r for support recovery and ``verify``
event sets, i * reps + r at the i-th p of a dimension sweep, t_index * reps
+ r at a rate-study horizon, 1_000_000 ^ r and 2_000_000 ^ r in the linear
and OU concentration audits; single-shot runs use the seed itself.  Outputs
are therefore identical for any ``--jobs`` value and across re-runs, but two
seeds whose XOR is below the key range share streams, permuted.  Wall-clock
timings go to a separate ``timings.txt`` kept out of the deterministic tables.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import rng
from .config import check_steps, config_matrix, fit_folds, interaction_matrix, steps_from_sampling
from .errors import ConfigError
from .estimate import (
    GramBlockSums,
    GramSystem,
    _BlockSums,
    build_gram,
    cross_validate,
    default_lambda_grid,
    gram_blocks,
    lasso_path,
    mle_solve,
)
from .metrics import error_norms, rate_fit, support_score
from .model import COSINE, DriftBasis, cosine_basis, generate_sparse_param, ou_linear_basis
from .simulate import (
    NoiseRecord,
    OUModel,
    RecordFlags,
    Trajectory,
    _ou_transition,
    _step_chunks,
    ou_spectral_constants,
    simulate_linear,
    simulate_ou_exact,
    trajectory_to_binary,
    trajectory_to_csv,
)
from .theory import (
    TuningConstants,
    concentration_audit_linear,
    concentration_audit_ou,
    event_statistics,
    linear_audit_lengths,
    oracle_check,
    rate_regime,
    tuning_constants_linear,
    tuning_constants_ou,
    cosine_constants,
    estimate_second_moment,
)

# Replication-id offsets keep sub-experiments of one run on disjoint streams.
_CONC_LINEAR_OFFSET = 1_000_000
_CONC_OU_OFFSET = 2_000_000

# Fixed design values (README, "Fixed values"): cosine paths start at X_0 = 0
# and drop their first ceil(0.1 n) steps; the MLE support counts |theta| > 0.5;
# the linear concentration audit's functional is f(x) = clip(x_1, -10, 10).
_X0 = 0.0
_BURN_IN_FRACTION = 0.1
_MLE_THRESHOLD = 0.5
_CONC_LINEAR_CLIP = 10.0


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _median(values: Sequence[float]) -> float:
    """The sorted-middle median (np.median's value; it would import numpy.ma into the run)."""
    ordered = sorted(float(v) for v in values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Comma-separated, '.' decimal, header row, LF line endings."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: str, cfg: dict, files: list[str], warnings: list[str]) -> str:
    manifest = {
        "config": cfg,
        "files": {name: _sha256(os.path.join(out_dir, name)) for name in sorted(files)},
        "warnings": warnings,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


class _Outputs:
    """One run's output directory: files registered in write order, warnings, the manifest."""

    def __init__(self, out_dir: str):
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:  # a file at the path or above it, or no permission
            raise ConfigError(f"cannot create the output directory: {exc.strerror}", path=out_dir) from exc
        self.out_dir = out_dir
        self.files: list[str] = []
        self.warnings: list[str] = []

    def path(self, name: str) -> str:
        """Path of ``name`` in the directory, registered as written; the caller writes it."""
        self.files.append(name)
        return os.path.join(self.out_dir, name)

    def csv(self, name: str, rows: Sequence[dict]) -> None:
        """Table ``name``; the header is the first row's keys, which every row must repeat in order."""
        header = list(rows[0])
        for row in rows:
            if list(row) != header:
                raise ValueError(f"{name}: row columns {list(row)} differ from the header {header}")
        write_csv(self.path(name), header, [row.values() for row in rows])

    def text(self, name: str, text: str) -> None:
        with open(self.path(name), "w", newline="") as fh:
            fh.write(text)

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)
        print(f"warning: {msg}", file=sys.stderr)

    def close(self, cfg: dict) -> list[str]:
        """Write ``manifest.json``; the files written, in order, manifest last."""
        write_manifest(self.out_dir, cfg, self.files, self.warnings)
        return self.files + ["manifest.json"]


def _progress(done: int, total: int, label: str) -> None:
    if sys.stderr.isatty():
        end = "\n" if done == total else ""
        print(f"\r{label}: {done}/{total}", end=end, file=sys.stderr, flush=True)


def run_replications(worker: Callable[[dict], dict], payloads: list[dict], jobs: int, label: str) -> list:
    """Ordered replication results; parallel and serial runs are identical."""
    if jobs <= 1 or len(payloads) <= 1:
        out = []
        for i, payload in enumerate(payloads):
            out.append(worker(payload))
            _progress(i + 1, len(payloads), label)
        return out
    from concurrent.futures import ProcessPoolExecutor  # 8-12 ms of imports no serial run needs

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        out = list(pool.map(worker, payloads, chunksize=1))
    _progress(len(payloads), len(payloads), label)
    return out


def _cost_warning(cfg: dict, step_evals: float, out: _Outputs) -> None:
    budget = cfg["cost_budget"]
    if step_evals > budget:
        out.warn(
            f"projected cost {step_evals:.3g} fine-step evaluations exceeds budget {budget:.3g}"
        )


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _lambda_grid(est: dict, full: GramSystem) -> np.ndarray:
    grid_cfg = est["lambda_grid"]
    if isinstance(grid_cfg, list):
        return np.sort(np.asarray(grid_cfg, dtype=float))[::-1]
    return default_lambda_grid(full, num=grid_cfg["num"], ratio=grid_cfg["ratio"])


class _Problem(NamedTuple):
    """A drift problem: the true parameter's nonzero count s, the basis and theta0."""

    s: int
    basis: DriftBasis
    theta0: np.ndarray


def _problem(model: dict, seed: int) -> _Problem:
    """The model's drift problem; a cosine theta0 comes from the PARAM stream of ``seed``.

    Replication ``rep`` of a run with master seed ``seed`` passes ``seed ^ rep``.
    An ou-linear theta0 is vec(A), column-major, and s = nnz(A).  The cosine
    anchor defaults to the nonzero fraction, at least 0.01; drift slope 3 * anchor.
    Tying the anchor to the nonzero count instead pins the state into a
    window a few hundredths wide, under which no estimator can separate the
    oscillatory terms; the fraction reading keeps the design identifiable.
    """
    if model["family"] == COSINE:
        p, fraction = model["p"], model["sparsity_fraction"]
        s_anchor = model.get("s_anchor", max(1.0 - fraction, 1e-2))
        theta0 = generate_sparse_param(
            p, fraction, rng.stream(seed, rng.PARAM), low=model["nonzero_low"], high=model["nonzero_high"]
        )
        return _Problem(int(round((1.0 - fraction) * p)), cosine_basis(model["d"], p, s_anchor), theta0)
    a_mat = interaction_matrix(model)
    return _Problem(int(np.count_nonzero(a_mat)), ou_linear_basis(model["d"]), a_mat.flatten(order="F"))


def _drift_matrix(problem: _Problem) -> np.ndarray:
    """The interaction matrix A of an ou-linear problem from theta0 = vec(A), C-ordered like the config's."""
    d = problem.basis.d
    return np.ascontiguousarray(problem.theta0.reshape(d, d, order="F"))


def _path(
    problem: _Problem, n: int, delta_n: float, substeps: int, seed: int, record: RecordFlags | None = None
) -> tuple[Trajectory, NoiseRecord | None]:
    """The problem's path of n steps of delta_n, noise from the PATH stream of ``seed``, and its record.

    A cosine path starts at X_0 = 0 and is Euler-stepped ``substeps`` times a
    step; its first ceil(0.1 n) steps are dropped.  An exact OU path starts
    from the stationary law and is sub-stepped only for a ``record``: the law
    of an unrecorded exact path does not depend on ``substeps``.
    """
    if problem.basis.family == COSINE:
        burn_in = math.ceil(_BURN_IN_FRACTION * n)
        return simulate_linear(problem.basis, problem.theta0, _X0, n, delta_n, substeps, seed, record, burn_in)
    substeps = substeps if record else 1
    return simulate_ou_exact(_drift_matrix(problem), n, delta_n, seed, substeps=substeps, record=record)


def _sample_sd(values: np.ndarray) -> float:
    """Sample standard deviation; 0.0 for a single value, whose ddof=1 estimate is undefined."""
    return values.std(ddof=1) if values.size > 1 else 0.0


def _solver_warnings(counts: Sequence[Sequence[int]], out: _Outputs) -> None:
    """Warn of uncertified fits; one ``counts`` row per fit or point.

    A row is (CV fold fits not certified, CV fold fits, refits unconverged, refits).
    """
    cv_uncertified, cv_fits, refits_unconverged, refits = np.sum(counts, axis=0, dtype=int).tolist()
    for bad, total, what in (
        (cv_uncertified, cv_fits, "CV fold fits not KKT-certified"),
        (refits_unconverged, refits, "Lasso refits unconverged"),
    ):
        if bad:
            out.warn(f"{bad} of {total} {what}")


def _fit_lasso(blocks: GramBlockSums, est: dict) -> dict:
    """The Lasso refit on the whole of ``blocks`` at the configured lambda, else the CV lambda.

    The CV runs over ``blocks`` on a grid set by the full system.  Also
    returns that system, the fit's ``_solver_warnings`` counts (no fold fits
    without CV) and the ``cv`` and ``refit`` seconds.
    """
    gram = blocks.system()
    t0 = time.perf_counter()
    if est["lambda"] is not None:
        lam, cv_uncertified, cv_fits = float(est["lambda"]), 0, 0
    else:
        cv = cross_validate(blocks, _lambda_grid(est, gram), **est["solver"])
        lam, cv_uncertified, cv_fits = cv.lambda_star, cv.uncertified, cv.fold_fits
    t1 = time.perf_counter()
    lasso = lasso_path(gram, [lam], **est["solver"])[0]
    return {
        "gram": gram,
        "lambda": lam,
        "lasso": lasso,
        "solver_counts": (cv_uncertified, cv_fits, int(not lasso.converged), 1),
        "seconds": {"cv": t1 - t0, "refit": time.perf_counter() - t1},
    }


def _fit_lasso_and_mle(traj, basis, est: dict) -> dict:
    t0 = time.perf_counter()
    # one pass of the basis over the path: the CV blocks, whose sum is the full system
    blocks = gram_blocks(traj, basis, fit_folds(est))
    gram_seconds = time.perf_counter() - t0
    fits = _fit_lasso(blocks, est)
    fits["mle"] = mle_solve(fits["gram"])
    fits["seconds"] = {"gram": gram_seconds, **fits["seconds"]}
    return fits


def _estimator_rows(fits: dict, theta0: np.ndarray) -> list[dict]:
    """The Lasso's and the MLE's rows of ``fits`` scored against theta0; the MLE support is |theta| > 0.5."""
    rows = []
    for name, lam, tau in (("lasso", fits["lambda"], 0.0), ("mle", 0.0, _MLE_THRESHOLD)):
        result = fits[name]
        err = error_norms(result.theta_hat, theta0)
        score = support_score(result.theta_hat, theta0, tau)
        rows.append(
            {
                "estimator": name,
                "lambda": lam,
                "l1_error": err.l1,
                "l2_error": err.l2,
                "precision": score.precision,
                "recall": score.recall,
                "f1": score.f1,
                "sweeps": result.sweeps_used,
                "kkt_residual": result.kkt_residual,
                "converged": bool(result.converged),
                "support_threshold": tau,
            }
        )
    return rows


def _vector_rows(vec: np.ndarray) -> list[dict]:
    """An (index, value) row per entry of ``vec``."""
    return [{"index": i, "value": float(v)} for i, v in enumerate(vec)]


# ---------------------------------------------------------------------------
# Support recovery (coefficient heatmap experiment)
# ---------------------------------------------------------------------------


def _cosine_fine_steps(sampling: dict, folds: int) -> int:
    """Fine steps of one cosine path: its n steps and their ceil(0.1 n) burn-in, ``substeps`` each."""
    n, _ = steps_from_sampling(sampling, folds)
    return (n + math.ceil(_BURN_IN_FRACTION * n)) * sampling["substeps"]


def _support_recovery_rep(payload: dict) -> dict:
    cfg = payload["cfg"]
    rep = payload["rep"]
    t0 = time.perf_counter()
    rep_seed = cfg["seed"] ^ rep
    problem = _problem(cfg["model"], rep_seed)
    _, basis, theta0 = problem
    n, delta_n = steps_from_sampling(cfg["sampling"])
    t_sim = time.perf_counter()
    traj, _ = _path(problem, n, delta_n, cfg["sampling"]["substeps"], rep_seed)
    t_sim = time.perf_counter() - t_sim
    fits = _fit_lasso_and_mle(traj, basis, cfg["estimation"])
    return {
        "rows": [{"replication": rep, **row} for row in _estimator_rows(fits, theta0)],
        "theta": {"true": theta0, "mle": fits["mle"].theta_hat, "lasso": fits["lasso"].theta_hat},
        "wall": time.perf_counter() - t0,
        "seconds": {"simulate": t_sim, **fits["seconds"]},
        "solver_counts": fits["solver_counts"],
    }


def _write_timings(out: _Outputs, labelled: Sequence[tuple[str, dict]]) -> None:
    """``timings.txt``: wall and per-stage seconds of each labelled result."""
    lines = []
    for label, res in labelled:
        stages = ", ".join(f"{name} {sec:.3f} s" for name, sec in res["seconds"].items())
        lines.append(f"{label}: {res['wall']:.3f} s ({stages})\n")
    out.text("timings.txt", "".join(lines))


def run_support_recovery(cfg: dict, out_dir: str, jobs: int | None = None) -> list[str]:
    from . import svgplot

    jobs = jobs or cfg["jobs"]
    reps = cfg["replications"]
    path_steps = _cosine_fine_steps(cfg["sampling"], fit_folds(cfg["estimation"]))
    out = _Outputs(out_dir)
    _cost_warning(cfg, reps * path_steps * cfg["model"]["d"], out)

    payloads = [{"cfg": cfg, "rep": r} for r in range(reps)]
    results = run_replications(_support_recovery_rep, payloads, jobs, "support-recovery")
    _solver_warnings([res["solver_counts"] for res in results], out)

    rows = [row for res in results for row in res["rows"]]
    out.csv("replications.csv", rows)
    summary = []
    for name in ("lasso", "mle"):
        mine = [row for row in rows if row["estimator"] == name]
        summary.append(
            {
                "estimator": name,
                "median_f1": _median([row["f1"] for row in mine]),
                "median_l1": _median([row["l1_error"] for row in mine]),
                "median_l2": _median([row["l2_error"] for row in mine]),
                "reps": reps,
            }
        )
    out.csv("summary.csv", summary)

    theta = results[0]["theta"]
    vmax = max(float(np.max(np.abs(vec))) for vec in theta.values())
    for name, vec in theta.items():
        out.csv(f"coefficients_{name}.csv", _vector_rows(vec))
        out.text(
            f"heatmap_{name}.svg",
            svgplot.heatmap_svg(np.asarray(vec)[None, :], title=name, vmax=vmax),
        )

    _write_timings(out, [(f"rep {pl['rep']}", res) for pl, res in zip(payloads, results)])
    return out.close(cfg)


# ---------------------------------------------------------------------------
# Dimension sweep
# ---------------------------------------------------------------------------


def run_dimension_sweep(cfg: dict, out_dir: str, jobs: int | None = None) -> list[str]:
    from . import svgplot

    jobs = jobs or cfg["jobs"]
    reps = cfg["replications"]
    p_grid = cfg["p_grid"]
    path_steps = _cosine_fine_steps(cfg["sampling"], fit_folds(cfg["estimation"]))
    out = _Outputs(out_dir)
    _cost_warning(cfg, len(p_grid) * reps * path_steps * cfg["model"]["d"], out)

    payloads = [
        {"cfg": {**cfg, "model": {**cfg["model"], "p": p}}, "rep": i * reps + r, "p": p}
        for i, p in enumerate(p_grid)
        for r in range(reps)
    ]
    results = run_replications(_support_recovery_rep, payloads, jobs, "dimension-sweep")
    _solver_warnings([res["solver_counts"] for res in results], out)

    rows = [{"p": pl["p"], **row} for pl, res in zip(payloads, results) for row in res["rows"]]
    out.csv("replications.csv", rows)
    sweep = []
    for p in p_grid:
        for name in ("lasso", "mle"):
            mine = [row for row in rows if row["p"] == p and row["estimator"] == name]
            l1 = np.array([row["l1_error"] for row in mine])
            l2 = np.array([row["l2_error"] for row in mine])
            sweep.append(
                {
                    "p": p,
                    "estimator": name,
                    "mean_l1": l1.mean(),
                    "sd_l1": _sample_sd(l1),
                    "mean_l2": l2.mean(),
                    "sd_l2": _sample_sd(l2),
                    "reps": len(mine),
                }
            )
    out.csv("sweep.csv", sweep)

    xs = np.array(p_grid, dtype=float)
    for norm in ("l1", "l2"):
        series = []
        for name in ("lasso", "mle"):
            mine = [row for row in sweep if row["estimator"] == name]
            series.append((name, [row[f"mean_{norm}"] for row in mine], [row[f"sd_{norm}"] for row in mine]))
        out.text(
            f"errors_{norm}.svg",
            svgplot.line_chart_svg(
                xs,
                series,
                title=f"mean {norm} error vs p (+- 1 sd)",
                xlabel="p",
                ylabel=f"{norm} error",
            ),
        )

    _write_timings(out, [(f"p {pl['p']} rep {pl['rep']}", res) for pl, res in zip(payloads, results)])
    return out.close(cfg)


# ---------------------------------------------------------------------------
# Rate study (interaction-matrix model, streaming Gram accumulation)
# ---------------------------------------------------------------------------


def _ou_block_sums_batch(
    a_mat: np.ndarray,
    n: int,
    delta_n: float,
    folds: int,
    rep_seeds: Sequence[int],
) -> list[GramBlockSums]:
    """The ou-linear basis' per-block contrast sums of each replication's exact OU path.

    The replications, one per PATH stream key in ``rep_seeds``, are stepped
    together by ``simulate._step_chunks``, whose consumer is the block
    accumulator of ``gram_blocks``; each chunk's states are dropped once
    summed, so memory does not grow with the horizon.
    """
    basis = ou_linear_basis(a_mat.shape[0])
    sums = _BlockSums(basis, n, folds, len(rep_seeds), delta_n)
    _step_chunks(_ou_transition(a_mat, delta_n), rep_seeds, n, sums.add)
    return sums.result()


def _rate_steps(sampling: dict, t_horizon: float) -> tuple[int, float]:
    """(n, delta_n) of the rate study at horizon T; the step is ``delta_over_t / T`` when set, else ``delta_n``."""
    if "delta_over_t" in sampling:
        delta_n = sampling["delta_over_t"] / t_horizon
    else:
        delta_n = sampling["delta_n"]
    return int(round(t_horizon / delta_n)), delta_n


def _rate_point_worker(payload: dict) -> dict:
    cfg = payload["cfg"]
    t_horizon = payload["T"]
    n, delta_n = _rate_steps(cfg["sampling"], t_horizon)
    problem = _problem(cfg["model"], cfg["seed"])
    reps = cfg["replications"]
    seeds = [cfg["seed"] ^ (payload["t_index"] * reps + r) for r in range(reps)]
    est = cfg["estimation"]

    t0 = time.perf_counter()
    replications = _ou_block_sums_batch(_drift_matrix(problem), n, delta_n, fit_folds(est), seeds)
    seconds = {"simulate": time.perf_counter() - t0, "cv": 0.0, "refit": 0.0}
    rows = []
    solver_counts = np.zeros(4, dtype=int)
    for r, blocks in enumerate(replications):
        fit = _fit_lasso(blocks, est)
        seconds["cv"] += fit["seconds"]["cv"]
        seconds["refit"] += fit["seconds"]["refit"]
        lasso = fit["lasso"]
        err = error_norms(lasso.theta_hat, problem.theta0)
        rows.append(
            {
                "T": t_horizon,
                "replication": r,
                "lambda": fit["lambda"],
                "l1_error": err.l1,
                "l2_error": err.l2,
                "sweeps": lasso.sweeps_used,
                "kkt_residual": lasso.kkt_residual,
                "converged": bool(lasso.converged),
            }
        )
        solver_counts += fit["solver_counts"]
    l1 = np.array([row["l1_error"] for row in rows])
    l2 = np.array([row["l2_error"] for row in rows])
    regime = rate_regime(problem.basis.d, n, delta_n)
    return {
        "wall": time.perf_counter() - t0,
        "seconds": seconds,
        "solver_counts": solver_counts.tolist(),
        "rows": rows,
        "rate": {
            "T": t_horizon,
            "delta_n": delta_n,
            "n": n,
            "mean_l1": l1.mean(),
            "mean_l2": l2.mean(),
            "sd_l2": _sample_sd(l2),
            "reps": len(rows),
            "regime_value": regime.value,
            "regime_tag": regime.tag,
        },
    }


def run_rate_study(cfg: dict, out_dir: str, jobs: int | None = None) -> list[str]:
    from . import svgplot

    jobs = jobs or cfg["jobs"]
    t_grid = sorted(cfg["t_grid"])
    reps = cfg["replications"]
    total_steps = 0.0
    for t_h in t_grid:
        n, delta_n = _rate_steps(cfg["sampling"], t_h)
        check_steps(n, fit_folds(cfg["estimation"]), "t_grid", f"T = {t_h!r}")
        total_steps += reps * t_h / delta_n
    out = _Outputs(out_dir)
    _cost_warning(cfg, total_steps * cfg["model"]["d"], out)

    payloads = [{"cfg": cfg, "T": t_h, "t_index": i} for i, t_h in enumerate(t_grid)]
    points = run_replications(_rate_point_worker, payloads, jobs, "rate-study")
    _solver_warnings([pt["solver_counts"] for pt in points], out)

    rates = [pt["rate"] for pt in points]
    regime_warning = any(row["regime_tag"] != "martingale-dominated" for row in rates)
    if regime_warning:
        out.warn("rate-study points are not martingale-dominated; slope may be regime-contaminated")
    out.csv("rates.csv", rates)
    out.csv("replications.csv", [row for pt in points for row in pt["rows"]])

    fit = rate_fit([(row["T"], float(row["mean_l2"])) for row in rates])
    out.csv("fit.csv", [{**dataclasses.asdict(fit), "regime_warning": regime_warning}])

    out.text(
        "rate.svg",
        svgplot.line_chart_svg(
            np.array([row["T"] for row in rates], dtype=float),
            [("mean l2 error", np.array([row["mean_l2"] for row in rates], dtype=float), None)],
            title=f"error vs horizon (log-log slope {fit.slope:.3f})",
            xlabel="T",
            ylabel="mean l2 error",
            log_x=True,
            log_y=True,
        ),
    )

    _write_timings(out, [(f"T {pt['rate']['T']:g}", pt) for pt in points])
    return out.close(cfg)


# ---------------------------------------------------------------------------
# Event-set and bound verification
# ---------------------------------------------------------------------------


def _check_k(audit: dict, bound: float, name: str) -> None:
    """A configured k must satisfy k^2 < ``bound``, the restricted-eigenvalue constant ``name``."""
    k = audit["k"]
    if k is not None and k**2 >= bound:
        raise ConfigError(f"need k^2 < {name}, got k^2 = {k**2!r}, {name} = {bound!r}", path="audit.k")


def _ou_tuning_constants(audit: dict, ou: OUModel, n: int, s: int, delta_n: float) -> TuningConstants:
    """``tuning_constants_ou`` on the audit block; a k with k^2 >= l_min is a ConfigError."""
    _check_k(audit, ou.l_min, "l_min")
    return tuning_constants_ou(
        ou,
        n=n,
        s=s,
        delta_n=delta_n,
        epsilon=audit["epsilon"],
        gamma=audit["gamma"],
        k=audit["k"],
        c_b_ou=audit["c_b"],
    )


def _verify_rep(payload: dict) -> dict:
    cfg = payload["cfg"]
    rep = payload["rep"]
    lam = payload["lambda"]
    k_const = payload["k"]
    gamma = cfg["audit"]["gamma"]
    rep_seed = cfg["seed"] ^ rep
    problem = _problem(cfg["model"], rep_seed)
    s, basis, theta0 = problem
    n, delta_n = steps_from_sampling(cfg["sampling"])
    record = RecordFlags(noise=True, fine=True)

    t0 = time.perf_counter()
    traj, rec = _path(problem, n, delta_n, cfg["sampling"]["substeps"], rep_seed, record)
    t1 = time.perf_counter()
    gram = build_gram(traj, basis)  # shared by the event statistics and the oracle fit
    stats = event_statistics(
        traj, rec, basis, theta0, s, gamma, cfg["audit"]["budget"], rep_seed, lam=lam, k=k_const, gram=gram
    )
    t2 = time.perf_counter()
    lhs, rhs, holds = oracle_check(gram, theta0, lam, k_const, gamma, s, **cfg["estimation"]["solver"])
    t3 = time.perf_counter()
    return {
        "wall": t3 - t0,
        "seconds": {"simulate": t1 - t0, "events": t2 - t1, "oracle": t3 - t2},
        "events": {"replication": rep, **dataclasses.asdict(stats)},
        "oracle": {"replication": rep, "lhs": lhs, "rhs": rhs, "holds": bool(holds)},
    }


def run_verifications(cfg: dict, out_dir: str, jobs: int | None = None) -> list[str]:
    jobs = jobs or cfg["jobs"]
    audit = cfg["audit"]
    seed = cfg["seed"]
    verify_sets = cfg["experiment"] == "verify-sets"
    conc_lin = audit.get("concentration_linear")
    conc_ou = audit.get("concentration_ou")

    # every input is checked, and the fine steps of all parts projected, before any part runs
    steps = 0
    if verify_sets:
        problem = _problem(cfg["model"], seed)
        ou = ou_spectral_constants(_drift_matrix(problem))
        n, delta_n = steps_from_sampling(cfg["sampling"])
        tc = _ou_tuning_constants(audit, ou, n, problem.s, delta_n)
        lam = cfg["estimation"]["lambda"] or tc.lambda_max
        reps = audit["reps"]
        steps += reps * n * cfg["sampling"]["substeps"] * problem.basis.d
    if conc_lin is not None:
        a_lin = config_matrix(conc_lin, "audit.concentration_linear")
        m_const = float(np.linalg.eigvalsh(0.5 * (a_lin + a_lin.T)).min())
        if m_const <= 0:
            raise ConfigError("must have a positive-definite symmetric part", path="audit.concentration_linear.A0")
        burn, calib = linear_audit_lengths(conc_lin["n"])  # one calibration run, then reps audited runs
        steps += (burn + calib + conc_lin["reps"] * (burn + conc_lin["n"])) * a_lin.shape[0]
    if conc_ou is not None:
        ou_conc = ou_spectral_constants(config_matrix(conc_ou, "audit.concentration_ou"))
        steps += conc_ou["reps"] * conc_ou["n"] * ou_conc.d
    out = _Outputs(out_dir)
    _cost_warning(cfg, steps, out)

    if verify_sets:
        payloads = [{"cfg": cfg, "rep": r, "lambda": lam, "k": tc.k} for r in range(reps)]
        results = run_replications(_verify_rep, payloads, jobs, "verify-sets")
        events = [res["events"] for res in results]
        out.csv("events.csv", events)
        undecided = sum(not row["Tpp_certified"] for row in events)
        if undecided:
            out.warn(f"{undecided} of {reps} replications: T'' undecided (k_lower < k <= k_hat)")
        oracle = [res["oracle"] for res in results]
        out.csv("oracle.csv", oracle)

        eps = audit["epsilon"]
        triple = [row["holds_T"] and row["holds_Tp"] and row["holds_Tpp"] for row in events]
        out.csv(
            "event_summary.csv",
            [
                {"quantity": quantity, "frequency": float(np.mean(holds)), "target": target, "reps": reps}
                for quantity, holds, target in (
                    ("T", [row["holds_T"] for row in events], 1.0 - eps),
                    ("Tp", [row["holds_Tp"] for row in events], 1.0 - eps),
                    ("Tpp", [row["holds_Tpp"] for row in events], 1.0 - eps),
                    ("triple", triple, 1.0 - 3.0 * eps),
                    ("oracle", [row["holds"] for row in oracle], 1.0 - 3.0 * eps),
                )
            ],
        )

        pairs = [
            ("lambda_1_ou", tc.lambda_1),
            ("lambda_2_ou", tc.lambda_2),
            ("t_1_ou", tc.t_1),
            ("lambda_used", lam),
            ("epsilon", eps),
            ("gamma", audit["gamma"]),
            ("k", tc.k),
            ("c_b_ou", audit["c_b"]),
            ("s", problem.s),
            ("n", n),
            ("delta_n", delta_n),
            ("m_frak", ou.m_frak),
            ("p_frak", ou.p_frak),
            ("l_min", ou.l_min),
            ("l_max", ou.l_max),
            ("a_frak", ou.a_frak),
        ]
        out.csv("constants.csv", [{"name": name, "value": value} for name, value in pairs])

        _write_timings(out, [(f"rep {pl['rep']}", res) for pl, res in zip(payloads, results)])

    if conc_lin is not None:
        def f_clip(x: np.ndarray) -> np.ndarray:
            return np.clip(x[:, 0], -_CONC_LINEAR_CLIP, _CONC_LINEAR_CLIP)

        table = concentration_audit_linear(
            ou_linear_basis(a_lin.shape[0]),
            a_lin.flatten(order="F"),
            L=float(np.linalg.norm(a_lin, 2)),
            M=m_const,
            f=f_clip,
            f_lip=1.0,
            r_grid=conc_lin["r_grid"],
            n=conc_lin["n"],
            delta_n=conc_lin["delta_n"],
            reps=conc_lin["reps"],
            seed=seed ^ _CONC_LINEAR_OFFSET,
        )
        out.csv("concentration_linear.csv", list(table.rows()))

    if conc_ou is not None:
        table = concentration_audit_ou(
            ou_conc,
            n=conc_ou["n"],
            delta_n=conc_ou["delta_n"],
            x_grid=conc_ou["x_grid"],
            reps=conc_ou["reps"],
            seed=seed ^ _CONC_OU_OFFSET,
        )
        out.csv("concentration_ou.csv", list(table.rows()))
    return out.close(cfg)


# ---------------------------------------------------------------------------
# Single-shot runs (simulate / estimate / cv / constants)
# ---------------------------------------------------------------------------


def _single_trajectory(cfg: dict, folds: int = 1) -> tuple[Trajectory, _Problem]:
    """The run's one path and its problem; a fit with ``folds`` CV blocks will use it."""
    problem = _problem(cfg["model"], cfg["seed"])
    n, delta_n = steps_from_sampling(cfg["sampling"], folds)
    traj, _ = _path(problem, n, delta_n, cfg["sampling"]["substeps"], cfg["seed"])
    return traj, problem


def run_simulate(cfg: dict, out_dir: str) -> list[str]:
    out = _Outputs(out_dir)
    traj, problem = _single_trajectory(cfg)
    trajectory_to_csv(traj, out.path("trajectory.csv"))
    trajectory_to_binary(traj, out.path("trajectory.bin"))
    out.csv("theta0.csv", _vector_rows(problem.theta0))
    return out.close(cfg)


def run_estimate_single(cfg: dict, out_dir: str, trajectory: Trajectory | None = None) -> list[str]:
    if trajectory is None:
        traj, (_, basis, theta0) = _single_trajectory(cfg, fit_folds(cfg["estimation"]))
    else:
        traj, theta0 = trajectory, None
        basis = _problem(cfg["model"], cfg["seed"]).basis
    out = _Outputs(out_dir)
    fits = _fit_lasso_and_mle(traj, basis, cfg["estimation"])
    _solver_warnings([fits["solver_counts"]], out)
    for name in ("lasso", "mle"):
        result = fits[name]
        out.csv(f"estimate_{name}.csv", _vector_rows(result.theta_hat))
        out.text(
            f"estimate_{name}.json",
            json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n",
        )
    if theta0 is not None:
        columns = ("estimator", "lambda", "l1_error", "l2_error", "f1")
        out.csv("summary.csv", [{key: row[key] for key in columns} for row in _estimator_rows(fits, theta0)])
    return out.close(cfg)


def run_cv(cfg: dict, out_dir: str) -> list[str]:
    est = cfg["estimation"]
    traj, problem = _single_trajectory(cfg, est["cv_folds"])
    out = _Outputs(out_dir)
    blocks = gram_blocks(traj, problem.basis, est["cv_folds"])
    cv = cross_validate(blocks, _lambda_grid(est, blocks.system()), **est["solver"])
    _solver_warnings([(cv.uncertified, cv.fold_fits, 0, 0)], out)
    rows = []
    for i, lam in enumerate(cv.lambdas):
        folds = {f"fold_{k}": float(v) for k, v in enumerate(cv.fold_scores[:, i])}
        rows.append({"lambda": float(lam), "mean_score": float(cv.mean_scores[i]), **folds})
    out.csv("cv.csv", rows)
    out.csv("cv_selected.csv", [{"lambda_star": cv.lambda_star, "short_blocks": cv.short_blocks}])
    return out.close(cfg)


def run_constants(cfg: dict, out_dir: str | None) -> list[tuple[str, float]]:
    """Evaluate the tuning thresholds for the configured model; optionally emit CSV.

    ``cfg`` must hold what an estimate-single run needs (``config.check_kind``).
    """
    model, audit, sampling, seed = cfg["model"], cfg["audit"], cfg["sampling"], cfg["seed"]
    n, delta_n = steps_from_sampling(sampling)
    if model["family"] == COSINE:
        _check_k(audit, audit["l"], "audit.l")
        problem = _problem(model, seed)
        s, basis, theta0 = problem
        if "second_moment" in audit:
            second_moment = audit["second_moment"]
        else:  # calibrated on a path of at least 1000 steps, on the linear audit's streams
            calib, _ = _path(problem, max(n, 1000), delta_n, sampling["substeps"], seed ^ _CONC_LINEAR_OFFSET)
            second_moment = estimate_second_moment(calib)
        mc = cosine_constants(
            basis,
            theta0,
            delta_n,
            second_moment=second_moment,
            M=audit["M"],
            C_b=audit["c_b"],
            l=audit["l"],
            k=audit["k"],
            gamma=audit["gamma"],
        )
        tc = tuning_constants_linear(
            mc, d=basis.d, p=basis.p, n=n, s=max(s, 1), delta_n=delta_n, epsilon=audit["epsilon"]
        )
        pairs = [
            ("lambda_11", tc.lambda_11),
            ("lambda_12", tc.lambda_12),
            ("lambda_1", tc.lambda_1),
            ("lambda_2", tc.lambda_2),
            ("t_1", tc.t_1),
            ("lambda_max", tc.lambda_max),
            ("L", mc.L),
            ("M", mc.M),
            ("R", mc.R),
            ("H_dn", mc.H_dn),
            ("K_dn", mc.K_dn),
            ("C_b", mc.C_b),
            ("l", mc.l),
            ("k", mc.k),
            ("gamma", mc.gamma),
            ("second_moment", second_moment),
            ("epsilon", audit["epsilon"]),
            ("s", float(max(s, 1))),
            ("n", float(n)),
            ("delta_n", delta_n),
        ]
    else:
        problem = _problem(model, seed)
        ou = ou_spectral_constants(_drift_matrix(problem))
        tc = _ou_tuning_constants(audit, ou, n, problem.s, delta_n)
        pairs = [
            ("lambda_1_ou", tc.lambda_1),
            ("lambda_2_ou", tc.lambda_2),
            ("t_1_ou", tc.t_1),
            ("lambda_max", tc.lambda_max),
            ("beta", tc.beta),
            ("log_alpha", tc.log_alpha),
            ("m_frak", ou.m_frak),
            ("p_frak", ou.p_frak),
            ("l_min", ou.l_min),
            ("l_max", ou.l_max),
            ("a_frak", ou.a_frak),
            ("k", tc.k),
            ("gamma", audit["gamma"]),
            ("c_b_ou", audit["c_b"]),
            ("epsilon", audit["epsilon"]),
            ("s", float(problem.s)),
            ("n", float(n)),
            ("delta_n", delta_n),
        ]
    if out_dir is not None:
        out = _Outputs(out_dir)
        out.csv("constants.csv", [{"name": name, "value": value} for name, value in pairs])
        out.close(cfg)
    return pairs
