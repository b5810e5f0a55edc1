"""Configuration-driven experiment runners.

Each runner takes a validated config (see ``config``), fans replications out
to a worker pool, and emits CSV tables, static SVG figures, and a manifest
JSON with content hashes of every emitted file.  Replication r draws all its
randomness from Philox streams keyed by seed ^ r, so outputs are identical
for any ``--jobs`` value and across re-runs; wall-clock timings go to a
separate ``timings.txt`` kept out of the deterministic tables.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, Sequence

import numpy as np

from . import rng
from .config import check_steps, fit_folds, interaction_matrix, steps_from_sampling
from .errors import ConfigError
from .estimate import (
    GramBlockSums,
    GramSystem,
    LassoConfig,
    build_gram,
    cross_validate,
    default_lambda_grid,
    gram_blocks,
    lasso_path,
    mle_solve,
)
from .metrics import error_norms, rate_fit, support_score
from .model import DriftBasis, cosine_basis, generate_sparse_param, ou_linear_basis
from .simulate import (
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
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.files: list[str] = []
        self.warnings: list[str] = []

    def path(self, name: str) -> str:
        """Path of ``name`` in the directory, registered as written; the caller writes it."""
        self.files.append(name)
        return os.path.join(self.out_dir, name)

    def csv(self, name: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        write_csv(self.path(name), header, rows)

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


def _cosine_setup(model: dict, p: int) -> tuple[int, float]:
    """(s, s_anchor) for the cosine family at parameter dimension p.

    Default anchor: the nonzero fraction, giving drift slope 3 * fraction.
    Tying the anchor to the nonzero count instead pins the state into a
    window a few hundredths wide, under which no estimator can separate the
    oscillatory terms; the fraction reading keeps the design identifiable.
    """
    s = int(round((1.0 - model["sparsity_fraction"]) * p))
    s_anchor = model.get("s_anchor", max(1.0 - model["sparsity_fraction"], 1e-2))
    return s, s_anchor


def _cosine_problem(model: dict, seed: int) -> tuple[int, DriftBasis, np.ndarray]:
    """(s, basis, theta0) of the cosine family; theta0 comes from the PARAM stream of ``seed``.

    Replication ``rep`` of a run with master seed ``seed`` passes ``seed ^ rep``.
    """
    p = model["p"]
    s, s_anchor = _cosine_setup(model, p)
    theta0 = generate_sparse_param(
        p,
        model["sparsity_fraction"],
        rng.stream(seed, rng.PARAM),
        low=model["nonzero_low"],
        high=model["nonzero_high"],
    )
    return s, cosine_basis(model["d"], p, s_anchor), theta0


def _cosine_trajectory(
    basis: DriftBasis, theta0: np.ndarray, sampling: dict, seed: int
) -> Trajectory:
    """The sampled Euler path after its burn-in; noise from the PATH stream of ``seed``."""
    n, delta_n = steps_from_sampling(sampling)
    traj, _ = simulate_linear(
        basis,
        theta0,
        _X0,
        n,
        delta_n,
        substeps=sampling["substeps"],
        seed=seed,
        burn_in=math.ceil(_BURN_IN_FRACTION * n),
    )
    return traj


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
    solver = LassoConfig(**est["solver"])
    t0 = time.perf_counter()
    if est["lambda"] is not None:
        lam, cv_uncertified, cv_fits = float(est["lambda"]), 0, 0
    else:
        cv = cross_validate(blocks, _lambda_grid(est, gram), solver)
        lam, cv_uncertified, cv_fits = cv.lambda_star, cv.uncertified, cv.fold_fits
    t1 = time.perf_counter()
    lasso = lasso_path(gram, [lam], solver)[0]
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


# ---------------------------------------------------------------------------
# Support recovery (coefficient heatmap experiment)
# ---------------------------------------------------------------------------


def _support_recovery_rep(payload: dict) -> dict:
    cfg = payload["cfg"]
    rep = payload["rep"]
    t0 = time.perf_counter()
    rep_seed = cfg["seed"] ^ rep
    _, basis, theta0 = _cosine_problem(cfg["model"], rep_seed)
    t_sim = time.perf_counter()
    traj = _cosine_trajectory(basis, theta0, cfg["sampling"], rep_seed)
    t_sim = time.perf_counter() - t_sim
    fits = _fit_lasso_and_mle(traj, basis, cfg["estimation"])
    out = {
        "rep": rep,
        "lambda": fits["lambda"],
        "wall": time.perf_counter() - t0,
        "seconds": {"simulate": t_sim, **fits["seconds"]},
        "solver_counts": fits["solver_counts"],
    }
    for name, result, tau in (("lasso", fits["lasso"], 0.0), ("mle", fits["mle"], _MLE_THRESHOLD)):
        err = error_norms(result.theta_hat, theta0)
        score = support_score(result.theta_hat, theta0, tau)
        out[name] = {
            "theta": [float(v) for v in result.theta_hat],
            "l1": err.l1,
            "l2": err.l2,
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
            "sweeps": result.sweeps_used,
            "kkt": result.kkt_residual,
            "converged": bool(result.converged),
            "tau": tau,
        }
    out["theta0"] = [float(v) for v in theta0]
    return out


_REPLICATION_HEADER = [
    "replication",
    "estimator",
    "lambda",
    "l1_error",
    "l2_error",
    "precision",
    "recall",
    "f1",
    "sweeps",
    "kkt_residual",
    "converged",
    "support_threshold",
]


def _replication_rows(results: list[dict]) -> list[tuple]:
    rows = []
    for res in results:
        for name in ("lasso", "mle"):
            est = res[name]
            rows.append(
                (
                    res["rep"],
                    name,
                    res["lambda"] if name == "lasso" else 0.0,
                    est["l1"],
                    est["l2"],
                    est["precision"],
                    est["recall"],
                    est["f1"],
                    est["sweeps"],
                    est["kkt"],
                    est["converged"],
                    est["tau"],
                )
            )
    return rows


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
    n, _ = steps_from_sampling(cfg["sampling"], fit_folds(cfg["estimation"]))
    out = _Outputs(out_dir)
    _cost_warning(cfg, reps * n * cfg["sampling"]["substeps"] * cfg["model"]["d"] * 1.2, out)

    payloads = [{"cfg": cfg, "rep": r} for r in range(reps)]
    results = run_replications(_support_recovery_rep, payloads, jobs, "support-recovery")
    _solver_warnings([res["solver_counts"] for res in results], out)

    out.csv("replications.csv", _REPLICATION_HEADER, _replication_rows(results))

    meds = {}
    for name in ("lasso", "mle"):
        meds[name] = {
            key: _median([res[name][key] for res in results])
            for key in ("f1", "l1", "l2")
        }
    out.csv(
        "summary.csv",
        ["estimator", "median_f1", "median_l1", "median_l2", "reps"],
        [(name, meds[name]["f1"], meds[name]["l1"], meds[name]["l2"], reps) for name in ("lasso", "mle")],
    )

    first = results[0]
    coeff = {
        "true": first["theta0"],
        "mle": first["mle"]["theta"],
        "lasso": first["lasso"]["theta"],
    }
    vmax = max(max(abs(v) for v in vec) for vec in coeff.values())
    for name, vec in coeff.items():
        out.csv(
            f"coefficients_{name}.csv",
            ["index", "value"],
            [(i, v) for i, v in enumerate(vec)],
        )
        out.text(
            f"heatmap_{name}.svg",
            svgplot.heatmap_svg(np.asarray(vec)[None, :], title=name, vmax=vmax),
        )

    _write_timings(out, [(f"rep {res['rep']}", res) for res in results])
    return out.close(cfg)


# ---------------------------------------------------------------------------
# Dimension sweep
# ---------------------------------------------------------------------------


def _dimension_rep(payload: dict) -> dict:
    cfg = dict(payload["cfg"])
    model = dict(cfg["model"])
    model["p"] = payload["p"]
    cfg["model"] = model
    out = _support_recovery_rep({"cfg": cfg, "rep": payload["rep"]})
    out["p"] = payload["p"]
    return out


def run_dimension_sweep(cfg: dict, out_dir: str, jobs: int | None = None) -> list[str]:
    from . import svgplot

    jobs = jobs or cfg["jobs"]
    reps = cfg["replications"]
    p_grid = cfg["p_grid"]
    n, _ = steps_from_sampling(cfg["sampling"], fit_folds(cfg["estimation"]))
    out = _Outputs(out_dir)
    _cost_warning(
        cfg,
        len(p_grid) * reps * n * cfg["sampling"]["substeps"] * cfg["model"]["d"] * 1.2,
        out,
    )

    payloads = [
        {"cfg": cfg, "rep": i * reps + r, "p": p}
        for i, p in enumerate(p_grid)
        for r in range(reps)
    ]
    results = run_replications(_dimension_rep, payloads, jobs, "dimension-sweep")
    _solver_warnings([res["solver_counts"] for res in results], out)

    out.csv(
        "replications.csv",
        ["p"] + _REPLICATION_HEADER,
        [
            (res["p"],) + row
            for res in results
            for row in _replication_rows([res])
        ],
    )

    sweep_rows = []
    stats = {}
    for p in p_grid:
        batch = [res for res in results if res["p"] == p]
        for name in ("lasso", "mle"):
            l1 = np.array([res[name]["l1"] for res in batch])
            l2 = np.array([res[name]["l2"] for res in batch])
            stats[(p, name)] = (l1.mean(), _sample_sd(l1), l2.mean(), _sample_sd(l2))
            sweep_rows.append((p, name, *stats[(p, name)], len(batch)))
    out.csv(
        "sweep.csv",
        ["p", "estimator", "mean_l1", "sd_l1", "mean_l2", "sd_l2", "reps"],
        sweep_rows,
    )

    xs = np.array(p_grid, dtype=float)
    for norm_idx, norm_name in ((0, "l1"), (2, "l2")):
        series = []
        for name in ("lasso", "mle"):
            mean = [stats[(p, name)][norm_idx] for p in p_grid]
            sd = [stats[(p, name)][norm_idx + 1] for p in p_grid]
            series.append((name, mean, sd))
        out.text(
            f"errors_{norm_name}.svg",
            svgplot.line_chart_svg(
                xs,
                series,
                title=f"mean {norm_name} error vs p (+- 1 sd)",
                xlabel="p",
                ylabel=f"{norm_name} error",
            ),
        )

    _write_timings(out, [(f"p {res['p']} rep {res['rep']}", res) for res in results])
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

    Per block k the stream accumulates C_k = sum X X^T, cross_k[c, j] =
    sum X^c DX^j and sum ||DX||^2.  The ou-linear basis (theta = vec(A)) has
    phi_gram[k] = C_k (x) I_d, phi_dx[k][c*d + j] = cross_k[c, j] and no phi_0,
    so its Gram and linear entries are exactly those sums.  The replications
    are stepped together by ``simulate._step_chunks`` and each chunk's states
    are dropped once summed, so memory does not grow with the horizon.
    """
    if not 1 <= folds <= n:
        raise ValueError("folds must be in [1, n]")
    d = a_mat.shape[0]
    n_reps = len(rep_seeds)
    step = _ou_transition(a_mat, delta_n)

    sizes = [n // folds + (k < n % folds) for k in range(folds)]  # np.array_split's sizes
    cuts = np.cumsum([0] + sizes)

    c_sum = np.zeros((n_reps, folds, d, d))
    cross_sum = np.zeros((n_reps, folds, d, d))
    dxsq_sum = np.zeros((n_reps, folds, d))

    def add_blocks(start: int, path: np.ndarray) -> None:
        length = path.shape[1] - 1
        k0 = int(np.searchsorted(cuts, start, side="right")) - 1
        k1 = int(np.searchsorted(cuts, start + length - 1, side="right")) - 1
        for k in range(k0, k1 + 1):
            lo = max(start, cuts[k]) - start
            hi = min(start + length, cuts[k + 1]) - start
            xb = path[:, lo:hi]
            db = path[:, lo + 1 : hi + 1] - xb
            xb_t = xb.transpose(0, 2, 1)
            c_sum[:, k] += xb_t @ xb
            cross_sum[:, k] += xb_t @ db
            dxsq_sum[:, k] += np.einsum("rtd,rtd->rd", db, db)

    gens = [rng.stream(s, rng.PATH) for s in rep_seeds]
    _step_chunks(step, gens, step.stationary_start(gens), n, add_blocks)
    phi_gram = np.zeros((n_reps, folds, d, d, d, d))
    for r in range(d):
        phi_gram[:, :, :, r, :, r] = c_sum  # entry (c*d + r, c'*d + r) holds C[c, c']
    zeros = np.zeros(folds)
    return [
        GramBlockSums(
            phi_gram=phi_gram[i].reshape(folds, d * d, d * d),
            phi_dx=cross_sum[i].reshape(folds, d * d),
            phi_phi0=np.zeros((folds, d * d)),
            dx_sq=dxsq_sum[i].sum(axis=1),
            phi0_dx=zeros,
            phi0_sq=zeros,
            counts=np.asarray(sizes),
            delta_n=delta_n,
        )
        for i in range(n_reps)
    ]


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
    a_mat = interaction_matrix(cfg["model"])
    d = a_mat.shape[0]
    reps = cfg["replications"]
    seeds = [cfg["seed"] ^ (payload["t_index"] * reps + r) for r in range(reps)]
    est = cfg["estimation"]

    t0 = time.perf_counter()
    replications = _ou_block_sums_batch(a_mat, n, delta_n, fit_folds(est), seeds)
    seconds = {"simulate": time.perf_counter() - t0, "cv": 0.0, "refit": 0.0}
    vec_true = a_mat.flatten(order="F")
    rows = []
    solver_counts = np.zeros(4, dtype=int)
    for r, blocks in enumerate(replications):
        fit = _fit_lasso(blocks, est)
        seconds["cv"] += fit["seconds"]["cv"]
        seconds["refit"] += fit["seconds"]["refit"]
        err = error_norms(fit["lasso"].theta_hat, vec_true)
        rows.append({"rep": r, "lambda": fit["lambda"], "l1": err.l1, "l2": err.l2})
        solver_counts += fit["solver_counts"]
    regime = rate_regime(d, n, delta_n)
    return {
        "wall": time.perf_counter() - t0,
        "seconds": seconds,
        "solver_counts": solver_counts.tolist(),
        "T": t_horizon,
        "delta_n": delta_n,
        "n": n,
        "rows": rows,
        "regime_value": regime.value,
        "regime_tag": regime.tag,
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

    rate_rows = []
    rep_rows = []
    fit_points = []
    regime_warning = False
    for pt in points:
        l2 = np.array([row["l2"] for row in pt["rows"]])
        l1 = np.array([row["l1"] for row in pt["rows"]])
        rate_rows.append(
            (
                pt["T"],
                pt["delta_n"],
                pt["n"],
                l1.mean(),
                l2.mean(),
                _sample_sd(l2),
                len(pt["rows"]),
                pt["regime_value"],
                pt["regime_tag"],
            )
        )
        for row in pt["rows"]:
            rep_rows.append((pt["T"], row["rep"], row["lambda"], row["l1"], row["l2"]))
        fit_points.append((pt["T"], float(l2.mean())))
        if pt["regime_tag"] != "martingale-dominated":
            regime_warning = True
    if regime_warning:
        out.warn("rate-study points are not martingale-dominated; slope may be regime-contaminated")

    out.csv(
        "rates.csv",
        ["T", "delta_n", "n", "mean_l1", "mean_l2", "sd_l2", "reps", "regime_value", "regime_tag"],
        rate_rows,
    )
    out.csv(
        "replications.csv",
        ["T", "replication", "lambda", "l1_error", "l2_error"],
        rep_rows,
    )

    fit = rate_fit(fit_points)
    out.csv(
        "fit.csv",
        ["slope", "intercept", "r2", "regime_warning"],
        [(fit.slope, fit.intercept, fit.r2, regime_warning)],
    )

    xs = np.array([p[0] for p in fit_points], dtype=float)
    means = np.array([p[1] for p in fit_points], dtype=float)
    out.text(
        "rate.svg",
        svgplot.line_chart_svg(
            xs,
            [("mean l2 error", means, None)],
            title=f"error vs horizon (log-log slope {fit.slope:.3f})",
            xlabel="T",
            ylabel="mean l2 error",
            log_x=True,
            log_y=True,
        ),
    )

    _write_timings(out, [(f"T {pt['T']:g}", pt) for pt in points])
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
    a_mat = np.asarray(payload["a_mat"], dtype=float)
    lam = payload["lambda"]
    k_const = payload["k"]
    gamma = cfg["audit"]["gamma"]
    budget = cfg["audit"]["budget"]
    s = int(np.count_nonzero(a_mat))
    d = a_mat.shape[0]
    sampling = cfg["sampling"]
    n, delta_n = steps_from_sampling(sampling)
    seed = cfg["seed"]

    t0 = time.perf_counter()
    traj, rec = simulate_ou_exact(
        a_mat,
        n,
        delta_n,
        seed=seed ^ rep,
        substeps=sampling["substeps"],
        record=RecordFlags(noise=True, fine=True),
    )
    t1 = time.perf_counter()
    basis = ou_linear_basis(d)
    theta0 = a_mat.flatten(order="F")
    gram = build_gram(traj, basis)  # shared by the event statistics and the oracle fit
    stats = event_statistics(
        traj, rec, basis, theta0, s, gamma, budget, seed ^ rep, lam=lam, k=k_const, gram=gram
    )
    t2 = time.perf_counter()
    lhs, rhs, holds = oracle_check(
        gram, theta0, lam, k_const, gamma, s, LassoConfig(**cfg["estimation"]["solver"])
    )
    t3 = time.perf_counter()
    return {
        "rep": rep,
        "wall": t3 - t0,
        "seconds": {"simulate": t1 - t0, "events": t2 - t1, "oracle": t3 - t2},
        "stat_T": stats.stat_T,
        "stat_Tp": stats.stat_Tp,
        "k_hat": stats.k_hat,
        "k_lower": stats.k_lower,
        "holds_T": stats.holds_T,
        "holds_Tp": stats.holds_Tp,
        "holds_Tpp": stats.holds_Tpp,
        "Tpp_certified": stats.Tpp_certified,
        "oracle_lhs": lhs,
        "oracle_rhs": rhs,
        "oracle_holds": bool(holds),
    }


def run_verifications(cfg: dict, out_dir: str, jobs: int | None = None) -> list[str]:
    out = _Outputs(out_dir)
    jobs = jobs or cfg["jobs"]
    audit = cfg["audit"]
    seed = cfg["seed"]

    if cfg["experiment"] == "verify-sets":
        a_mat = interaction_matrix(cfg["model"])
        ou = ou_spectral_constants(a_mat)
        s = int(np.count_nonzero(a_mat))
        n, delta_n = steps_from_sampling(cfg["sampling"])
        tc = _ou_tuning_constants(audit, ou, n, s, delta_n)
        lam = cfg["estimation"]["lambda"] or tc.lambda_max
        reps = audit["reps"]
        _cost_warning(cfg, reps * n * cfg["sampling"]["substeps"] * a_mat.shape[0], out)

        payloads = [
            {"cfg": cfg, "rep": r, "a_mat": a_mat.tolist(), "lambda": lam, "k": tc.k}
            for r in range(reps)
        ]
        results = run_replications(_verify_rep, payloads, jobs, "verify-sets")

        out.csv(
            "events.csv",
            [
                "replication", "stat_T", "stat_Tp", "k_hat", "k_lower",
                "holds_T", "holds_Tp", "holds_Tpp", "Tpp_certified",
            ],
            [
                (
                    res["rep"],
                    res["stat_T"],
                    res["stat_Tp"],
                    res["k_hat"],
                    res["k_lower"],
                    res["holds_T"],
                    res["holds_Tp"],
                    res["holds_Tpp"],
                    res["Tpp_certified"],
                )
                for res in results
            ],
        )
        undecided = sum(not res["Tpp_certified"] for res in results)
        if undecided:
            out.warn(f"{undecided} of {reps} replications: T'' undecided (k_lower < k <= k_hat)")

        out.csv(
            "oracle.csv",
            ["replication", "lhs", "rhs", "holds"],
            [(res["rep"], res["oracle_lhs"], res["oracle_rhs"], res["oracle_holds"]) for res in results],
        )

        freq = {
            key: float(np.mean([res[key] for res in results]))
            for key in ("holds_T", "holds_Tp", "holds_Tpp", "oracle_holds")
        }
        triple = float(
            np.mean(
                [res["holds_T"] and res["holds_Tp"] and res["holds_Tpp"] for res in results]
            )
        )
        eps = audit["epsilon"]
        out.csv(
            "event_summary.csv",
            ["quantity", "frequency", "target", "reps"],
            [
                ("T", freq["holds_T"], 1.0 - eps, reps),
                ("Tp", freq["holds_Tp"], 1.0 - eps, reps),
                ("Tpp", freq["holds_Tpp"], 1.0 - eps, reps),
                ("triple", triple, 1.0 - 3.0 * eps, reps),
                ("oracle", freq["oracle_holds"], 1.0 - 3.0 * eps, reps),
            ],
        )

        out.csv(
            "constants.csv",
            ["name", "value"],
            [
                ("lambda_1_ou", tc.lambda_1),
                ("lambda_2_ou", tc.lambda_2),
                ("t_1_ou", tc.t_1),
                ("lambda_used", lam),
                ("epsilon", eps),
                ("gamma", audit["gamma"]),
                ("k", tc.k),
                ("c_b_ou", audit["c_b"]),
                ("s", s),
                ("n", n),
                ("delta_n", delta_n),
                ("m_frak", ou.m_frak),
                ("p_frak", ou.p_frak),
                ("l_min", ou.l_min),
                ("l_max", ou.l_max),
                ("a_frak", ou.a_frak),
            ],
        )

        _write_timings(out, [(f"rep {res['rep']}", res) for res in results])

    conc_lin = audit.get("concentration_linear")
    if conc_lin is not None:
        a_lin = np.asarray(conc_lin["A0"], dtype=float)
        d_lin = a_lin.shape[0]
        basis = ou_linear_basis(d_lin)
        theta0 = a_lin.flatten(order="F")
        sym = 0.5 * (a_lin + a_lin.T)
        m_const = float(np.linalg.eigvalsh(sym).min())
        if m_const <= 0:
            raise ConfigError("concentration_linear.A0 must have positive-definite symmetric part")
        l_const = float(np.linalg.norm(a_lin, 2))

        def f_clip(x: np.ndarray) -> np.ndarray:
            return np.clip(x[:, 0], -_CONC_LINEAR_CLIP, _CONC_LINEAR_CLIP)

        table = concentration_audit_linear(
            basis,
            theta0,
            L=l_const,
            M=m_const,
            f=f_clip,
            f_lip=1.0,
            r_grid=conc_lin["r_grid"],
            n=conc_lin["n"],
            delta_n=conc_lin["delta_n"],
            reps=conc_lin["reps"],
            seed=seed ^ _CONC_LINEAR_OFFSET,
        )
        out.csv(
            "concentration_linear.csv",
            ["r_or_x", "empirical", "bound", "se", "reps"],
            list(table.rows()),
        )

    conc_ou = audit.get("concentration_ou")
    if conc_ou is not None:
        if "A0" in conc_ou:
            a_ou = np.asarray(conc_ou["A0"], dtype=float)
        else:
            a_ou = np.diag(np.asarray(conc_ou["A0_diag"], dtype=float))
        table = concentration_audit_ou(
            ou_spectral_constants(a_ou),
            n=conc_ou["n"],
            delta_n=conc_ou["delta_n"],
            x_grid=conc_ou["x_grid"],
            reps=conc_ou["reps"],
            seed=seed ^ _CONC_OU_OFFSET,
        )
        out.csv(
            "concentration_ou.csv",
            ["r_or_x", "empirical", "bound", "se", "reps"],
            list(table.rows()),
        )

    if cfg["experiment"] == "verify-concentration" and not out.files:
        raise ConfigError(
            "verify-concentration needs audit.concentration_linear or audit.concentration_ou",
            path="audit",
        )
    return out.close(cfg)


# ---------------------------------------------------------------------------
# Single-shot runs (simulate / estimate / cv / constants)
# ---------------------------------------------------------------------------


def _family_problem(model: dict, seed: int) -> tuple[DriftBasis, np.ndarray]:
    """(basis, theta0) of the model's family; a cosine theta0 comes from the PARAM stream of ``seed``."""
    if model["family"] == "cosine":
        _, basis, theta0 = _cosine_problem(model, seed)
        return basis, theta0
    return ou_linear_basis(model["d"]), interaction_matrix(model).flatten(order="F")


def _single_trajectory(cfg: dict, folds: int = 1) -> tuple[Trajectory, np.ndarray, DriftBasis]:
    """The run's one path, its theta0 and basis; a fit with ``folds`` CV blocks will use it."""
    model, sampling, seed = cfg["model"], cfg["sampling"], cfg["seed"]
    n, delta_n = steps_from_sampling(sampling, folds)
    basis, theta0 = _family_problem(model, seed)
    if model["family"] == "cosine":
        traj = _cosine_trajectory(basis, theta0, sampling, seed)
    else:
        traj = simulate_ou_exact(interaction_matrix(model), n, delta_n, seed=seed)
    return traj, theta0, basis


def run_simulate(cfg: dict, out_dir: str) -> list[str]:
    out = _Outputs(out_dir)
    traj, theta0, _ = _single_trajectory(cfg)
    trajectory_to_csv(traj, out.path("trajectory.csv"))
    trajectory_to_binary(traj, out.path("trajectory.bin"))
    out.csv(
        "theta0.csv",
        ["index", "value"],
        [(i, float(v)) for i, v in enumerate(theta0)],
    )
    return out.close(cfg)


def run_estimate_single(cfg: dict, out_dir: str, trajectory: Trajectory | None = None) -> list[str]:
    if trajectory is None:
        traj, theta0, basis = _single_trajectory(cfg, fit_folds(cfg["estimation"]))
    else:
        traj, theta0 = trajectory, None
        basis, _ = _family_problem(cfg["model"], cfg["seed"])
    out = _Outputs(out_dir)
    fits = _fit_lasso_and_mle(traj, basis, cfg["estimation"])
    _solver_warnings([fits["solver_counts"]], out)
    for name in ("lasso", "mle"):
        result = fits[name]
        out.csv(
            f"estimate_{name}.csv",
            ["index", "value"],
            [(i, float(v)) for i, v in enumerate(result.theta_hat)],
        )
        out.text(
            f"estimate_{name}.json",
            json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n",
        )
    if theta0 is not None:
        rows = []
        for name in ("lasso", "mle"):
            err = error_norms(fits[name].theta_hat, theta0)
            tau = 0.0 if name == "lasso" else _MLE_THRESHOLD
            score = support_score(fits[name].theta_hat, theta0, tau)
            rows.append((name, fits["lambda"] if name == "lasso" else 0.0, err.l1, err.l2, score.f1))
        out.csv(
            "summary.csv",
            ["estimator", "lambda", "l1_error", "l2_error", "f1"],
            rows,
        )
    return out.close(cfg)


def run_cv(cfg: dict, out_dir: str) -> list[str]:
    est = cfg["estimation"]
    traj, _, basis = _single_trajectory(cfg, est["cv_folds"])
    out = _Outputs(out_dir)
    blocks = gram_blocks(traj, basis, est["cv_folds"])
    cv = cross_validate(blocks, _lambda_grid(est, blocks.system()), LassoConfig(**est["solver"]))
    _solver_warnings([(cv.uncertified, cv.fold_fits, 0, 0)], out)
    rows = []
    for i, lam in enumerate(cv.lambdas):
        rows.append((float(lam), float(cv.mean_scores[i]), *[float(v) for v in cv.fold_scores[:, i]]))
    folds = cv.fold_scores.shape[0]
    out.csv(
        "cv.csv",
        ["lambda", "mean_score"] + [f"fold_{k}" for k in range(folds)],
        rows,
    )
    out.csv(
        "cv_selected.csv",
        ["lambda_star", "short_blocks"],
        [(cv.lambda_star, cv.short_blocks)],
    )
    return out.close(cfg)


def run_constants(cfg: dict, out_dir: str | None) -> list[tuple[str, float]]:
    """Evaluate the tuning thresholds for the configured model; optionally emit CSV."""
    model = cfg["model"]
    audit = cfg["audit"]
    sampling = cfg["sampling"]
    n, delta_n = steps_from_sampling(sampling)
    seed = cfg["seed"]
    if model["family"] == "cosine":
        _check_k(audit, audit["l"], "audit.l")
        if "p" not in model:  # a dimension-sweep config gives p_grid instead
            raise ConfigError("constants need a single cosine dimension p", path="model.p")
        p = model["p"]
        s, basis, theta0 = _cosine_problem(model, seed)
        if "second_moment" in audit:
            second_moment = audit["second_moment"]
        else:
            calib, _ = simulate_linear(
                basis,
                theta0,
                _X0,
                max(n, 1000),
                delta_n,
                substeps=sampling["substeps"],
                seed=seed ^ _CONC_LINEAR_OFFSET,
                burn_in=math.ceil(_BURN_IN_FRACTION * max(n, 1000)),
            )
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
            mc, d=model["d"], p=p, n=n, s=max(s, 1), delta_n=delta_n, epsilon=audit["epsilon"]
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
        a_mat = interaction_matrix(model)
        ou = ou_spectral_constants(a_mat)
        s = int(np.count_nonzero(a_mat))
        tc = _ou_tuning_constants(audit, ou, n, s, delta_n)
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
            ("s", float(s)),
            ("n", float(n)),
            ("delta_n", delta_n),
        ]
    if out_dir is not None:
        out = _Outputs(out_dir)
        out.csv("constants.csv", ["name", "value"], pairs)
        out.close(cfg)
    return pairs
