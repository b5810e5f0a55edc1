"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.  Tolerances are fixed here, not calibrated.
"""

import csv
import json
import math
import time

import numpy as np

from conftest import (
    brute_force_lasso,
    ou_row_fit,
    quadrature_exp_integral,
    random_pd_gram,
    random_stable_matrix,
    within_kkt_tol,
)
from sparsedrift.estimate import build_gram, lasso_path, mle_solve
from sparsedrift.experiments import (
    run_dimension_sweep,
    run_rate_study,
    run_support_recovery,
    run_verifications,
)
from sparsedrift.model import cosine_basis, generate_sparse_param, ou_linear_basis
from sparsedrift import rng
from sparsedrift.simulate import (
    simulate_linear,
    simulate_ou_exact,
    stationary_covariance,
    transition_covariance,
)
from sparsedrift.theory import concentration_audit_linear, concentration_audit_ou
from sparsedrift.config import validate_config


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {label}: {detail} -> {status}")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _solver_instances(count: int = 200):
    """Random small Gram systems built from n=50 simulated trajectories."""
    gen = np.random.default_rng(101)
    out = []
    for i in range(count):
        p = int(gen.integers(1, 4))
        basis = cosine_basis(2, p, 0.5)
        theta0 = np.zeros(p)
        theta0[gen.integers(0, p)] = gen.uniform(1.0, 3.0)
        traj, _ = simulate_linear(basis, theta0, 0.0, 50, 0.1, substeps=2, seed=5000 + i)
        gs = build_gram(traj, basis)
        lam = float(gen.uniform(0.0, 1.1) * np.max(np.abs(gs.linear)))
        out.append((gs, lam))
    return out


def test_criterion_01_solver_matches_brute_force():
    start = time.perf_counter()
    worst = 0.0
    certified = True  # every fit's KKT residual within the bound at tol 1e-12
    for gs, lam in _solver_instances(200):
        bf = brute_force_lasso(gs, lam)
        res = lasso_path(gs, [lam])[0]
        worst = max(worst, float(np.max(np.abs(bf - res.theta_hat))))
        certified &= within_kkt_tol(gs, res.kkt_residual, 1e-12)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    _report(1, "solver-vs-brute-force", ok, f"max coord diff {worst:.2e}, {elapsed:.1f} s for 200 instances")
    assert worst < 1e-6
    assert elapsed < 10.0
    assert certified


def test_criterion_02_kkt_certification():
    gen = np.random.default_rng(102)
    kkt_ok = True
    worst_ratio = 0.0
    for gs, lam in _solver_instances(60):
        res = lasso_path(gs, [lam])[0]
        if res.converged:
            bound = 10 * 1e-9 * max(1.0, float(np.max(np.abs(gs.linear))))  # the solver's fixed tol
            worst_ratio = max(worst_ratio, res.kkt_residual / bound)
            kkt_ok &= res.kkt_residual <= bound
    null_ok = True
    mle_gap = 0.0
    mle_certified = True  # every lambda = 0 fit's KKT residual within the bound at tol 1e-12
    for _ in range(25):
        gs = random_pd_gram(gen, 6)
        lam_max = float(np.max(np.abs(gs.linear)))
        null_ok &= bool(np.all(lasso_path(gs, [lam_max])[0].theta_hat == 0.0))
        lam0 = lasso_path(gs, [0.0])[0]
        mle_certified &= within_kkt_tol(gs, lam0.kkt_residual, 1e-12)
        gap = np.max(np.abs(lam0.theta_hat - mle_solve(gs).theta_hat))
        mle_gap = max(mle_gap, float(gap))
    ok = kkt_ok and null_ok and mle_gap < 1e-8
    _report(2, "kkt-certification", ok,
            f"max kkt/bound {worst_ratio:.3f}, null-threshold ok {null_ok}, lam0-vs-mle {mle_gap:.2e}")
    assert kkt_ok and null_ok
    assert mle_gap < 1e-8
    assert mle_certified


def test_criterion_03_l1_path_monotone():
    # Monotonicity is a property of minimizers, so every instance must have
    # one at each grid point: synthetic PD systems plus data-built Grams with
    # a small ridge (a raw near-singular Gram makes tiny-lambda problems
    # unbounded below, i.e. no minimizer to compare).
    from sparsedrift.estimate import GramSystem

    gen = np.random.default_rng(103)
    worst_rise = -np.inf
    for i in range(50):
        if i % 2 == 0:
            gs = random_pd_gram(gen, int(gen.integers(3, 10)))
        else:
            basis = cosine_basis(2, 6, 0.7)
            theta0 = generate_sparse_param(6, 0.5, rng.stream(200 + i, rng.PARAM))
            traj, _ = simulate_linear(basis, theta0, 0.0, 80, 0.1, substeps=2, seed=200 + i)
            raw = build_gram(traj, basis)
            ridge = 1e-3 * float(np.max(np.linalg.eigvalsh(raw.gram)))
            gs = GramSystem(
                gram=raw.gram + ridge * np.eye(raw.p),
                linear=raw.linear,
                constant=raw.constant,
                delta_n=raw.delta_n,
            )
        lam_max = max(float(np.max(np.abs(gs.linear))), 1e-6)
        grid = np.geomspace(lam_max * 1.05, lam_max * 1e-3, 30)
        norms = [float(np.sum(np.abs(r.theta_hat))) for r in lasso_path(gs, grid)]
        # smaller lambda can only grow the l1 norm: no drop beyond slack
        worst_rise = max(worst_rise, float(np.max(-np.diff(norms))))
    ok = worst_rise <= 1e-9
    _report(3, "l1-path-monotonicity", ok,
            f"worst l1 drop as lambda decreases {worst_rise:.2e}")
    assert worst_rise <= 1e-9


def test_criterion_04_ou_machinery():
    gen = np.random.default_rng(104)
    worst_resid = 0.0
    for i in range(100):
        d = int(gen.integers(1, 21))
        a_mat = random_stable_matrix(gen, d)
        c = stationary_covariance(a_mat)
        worst_resid = max(worst_resid, float(np.max(np.abs(a_mat @ c + c @ a_mat.T - np.eye(d)))))
    identity_gap = float(np.max(np.abs(stationary_covariance(0.5 * np.eye(4)) - np.eye(4))))
    trans_gap = 0.0
    for dt in (0.1, 0.4):
        a_mat = random_stable_matrix(gen, 3)
        sigma = transition_covariance(a_mat, dt)
        oracle = quadrature_exp_integral(a_mat, upper=dt, panel=0.05)
        trans_gap = max(trans_gap, float(np.max(np.abs(sigma - oracle))))

    a_mat = np.array([[1.0, 0.8, 0.0], [0.0, 1.5, 0.5], [0.0, 0.0, 2.0]])
    traj, _ = simulate_ou_exact(a_mat, 1_000_000, 0.05, seed=7)
    x = traj.states[:-1]
    c_emp = x.T @ x / x.shape[0]
    c_inf = stationary_covariance(a_mat)
    prods = np.einsum("ti,tj->tij", x, x)
    batch = prods.reshape(1000, -1, 3, 3).mean(axis=1)
    se = batch.std(axis=0, ddof=1) / math.sqrt(batch.shape[0])
    cov_ok = bool(np.all(np.abs(c_emp - c_inf) <= 3 * se))

    ok = worst_resid <= 1e-10 and identity_gap <= 1e-12 and trans_gap <= 1e-8 and cov_ok
    _report(4, "ou-machinery", ok,
            f"lyapunov resid {worst_resid:.2e}, identity gap {identity_gap:.2e}, "
            f"transition-vs-quadrature {trans_gap:.2e}, sampler cov within 3 se {cov_ok}")
    assert worst_resid <= 1e-10
    assert identity_gap <= 1e-12
    assert trans_gap <= 1e-8
    assert cov_ok


def test_criterion_05_formulation_equivalence():
    gen = np.random.default_rng(105)
    worst = 0.0
    certified = True  # every stacked fit's KKT residual within the bound at tol 1e-12
    for i in range(20):
        d = int(gen.integers(2, 4))
        a_mat = random_stable_matrix(gen, d)
        traj, _ = simulate_ou_exact(a_mat, 300, 0.05, seed=400 + i)
        lam = float(gen.uniform(0.01, 0.2))
        rowwise = ou_row_fit(traj, lam, kkt_tol=1e-12).flatten(order="F")
        gram = build_gram(traj, ou_linear_basis(d))
        stacked = lasso_path(gram, [lam])[0]
        certified &= within_kkt_tol(gram, stacked.kkt_residual, 1e-12)
        worst = max(worst, float(np.max(np.abs(rowwise - stacked.theta_hat))))
    ok = worst <= 1e-9
    _report(5, "ou-vs-stacked-equivalence", ok, f"max |vec difference| {worst:.2e} over 20 instances")
    assert worst <= 1e-9
    assert certified


def test_criterion_06_support_recovery_protocol(tmp_path):
    cfg = validate_config({
        "experiment": "support-recovery",
        "seed": 2024,
        "replications": 20,
        "model": {"family": "cosine", "d": 10, "p": 30, "sparsity_fraction": 0.7},
        "sampling": {"T": 7.0, "delta_n": 0.01, "substeps": 10},
        "estimation": {"lambda_grid": {"num": 20, "ratio": 1e-3}, "cv_folds": 5},
    })
    start = time.perf_counter()
    run_support_recovery(cfg, str(tmp_path))
    elapsed = time.perf_counter() - start
    summary = {row["estimator"]: row for row in _read_csv(tmp_path / "summary.csv")}
    lasso_f1 = float(summary["lasso"]["median_f1"])
    mle_f1 = float(summary["mle"]["median_f1"])
    lasso_l2 = float(summary["lasso"]["median_l2"])
    mle_l2 = float(summary["mle"]["median_l2"])
    ok = lasso_f1 > mle_f1 and lasso_l2 < mle_l2 and elapsed <= 600.0
    _report(6, "support-recovery", ok,
            f"median f1 lasso {lasso_f1:.3f} vs mle {mle_f1:.3f}; "
            f"median l2 lasso {lasso_l2:.2f} vs mle {mle_l2:.2f}; {elapsed:.0f} s")
    assert lasso_f1 > mle_f1
    assert lasso_l2 < mle_l2
    assert elapsed <= 600.0


def test_criterion_07_dimension_sweep(tmp_path):
    cfg = validate_config({
        "experiment": "dimension-sweep",
        "seed": 777,
        "replications": 30,
        "p_grid": [10, 20, 30, 40, 50],
        "model": {"family": "cosine", "d": 10, "sparsity_fraction": 0.8},
        "sampling": {"T": 5.0, "delta_n": 0.01, "substeps": 10},
        "estimation": {"lambda_grid": {"num": 20, "ratio": 1e-3}, "cv_folds": 5},
    })
    start = time.perf_counter()
    run_dimension_sweep(cfg, str(tmp_path))
    elapsed = time.perf_counter() - start
    rows = _read_csv(tmp_path / "sweep.csv")
    by_p = {}
    for row in rows:
        by_p.setdefault(int(row["p"]), {})[row["estimator"]] = row
    ok = True
    for p, ests in sorted(by_p.items()):
        for norm in ("mean_l1", "mean_l2"):
            ok &= float(ests["lasso"][norm]) <= float(ests["mle"][norm])
    ok &= elapsed <= 1800.0
    detail = "; ".join(
        f"p={p}: l2 {float(e['lasso']['mean_l2']):.2f}/{float(e['mle']['mean_l2']):.1f}"
        for p, e in sorted(by_p.items())
    )
    _report(7, "dimension-sweep", ok, f"lasso/mle mean l2 {detail}; {elapsed:.0f} s")
    for p, ests in by_p.items():
        assert float(ests["lasso"]["mean_l1"]) <= float(ests["mle"]["mean_l1"]), p
        assert float(ests["lasso"]["mean_l2"]) <= float(ests["mle"]["mean_l2"]), p
    assert elapsed <= 1800.0


def test_criterion_08_rate_regime(tmp_path):
    cfg = validate_config({
        "experiment": "rate-study",
        "seed": 31415,
        "replications": 50,
        "t_grid": [100.0, 200.0, 400.0, 800.0, 1600.0],
        "model": {"family": "ou-linear", "d": 5, "A0_diag": [1.0, 1.5, 2.0, 2.5, 3.0]},
        "sampling": {"delta_over_t": 10.0},
        "estimation": {"lambda_grid": {"num": 20, "ratio": 1e-3}, "cv_folds": 5},
    })
    run_rate_study(cfg, str(tmp_path))
    fit = _read_csv(tmp_path / "fit.csv")[0]
    slope = float(fit["slope"])
    r2 = float(fit["r2"])
    ok = -0.65 <= slope <= -0.35
    _report(8, "rate-regime", ok, f"log-log slope {slope:.3f} (r2 {r2:.3f})")
    assert -0.65 <= slope <= -0.35


def test_criterion_09_concentration_audits():
    # additive-functional tail bound for a stable linear drift
    a_mat = np.array([[1.0, 0.2], [0.0, 1.0]])
    basis = ou_linear_basis(2)
    theta0 = a_mat.flatten(order="F")
    m_const = float(np.linalg.eigvalsh(0.5 * (a_mat + a_mat.T)).min())
    l_const = float(np.linalg.norm(a_mat, 2))
    n_lin, dn_lin = 400, 0.02
    r_grid = np.array([0.05, 0.1, 0.25, 0.5, 1.0, 2.0])
    lin = concentration_audit_linear(
        basis, theta0, L=l_const, M=m_const,
        f=lambda x: np.clip(x[:, 0], -10, 10), f_lip=1.0,
        r_grid=r_grid, n=n_lin, delta_n=dn_lin, reps=10_000, seed=909,
    )
    lin_holds = bool(np.all(lin.empirical <= lin.bound + 3 * lin.se))
    lin_formula = np.exp(
        -(r_grid**2) * n_lin * (1 - np.exp(-m_const * dn_lin)) ** 2
        / (64 * 2 * 1.0 * dn_lin * np.exp(4 * l_const * dn_lin))
    )
    lin_recompute = float(np.max(np.abs(lin.bound - lin_formula) / lin_formula))

    # quadratic-form tail bound for the stationary interaction-matrix model
    from sparsedrift.simulate import ou_spectral_constants

    ou = ou_spectral_constants(np.diag([1.0, 2.0, 3.0]))
    n_ou, dn_ou = 5000, 0.1  # n * delta_n = 500
    x_grid = np.array([0.02, 0.05, 0.1, 0.2, 0.5])
    ou_table = concentration_audit_ou(
        ou, n=n_ou, delta_n=dn_ou, x_grid=x_grid, reps=10_000, seed=910
    )
    ou_holds = bool(np.all(ou_table.empirical <= ou_table.bound + 3 * ou_table.se))
    ou_formula = 2 * np.exp(
        -n_ou * dn_ou * (ou.m_frak / (8 * ou.p_frak * ou.l_max) * x_grid**2 / (x_grid + ou.l_max))
    )
    ou_recompute = float(np.max(np.abs(ou_table.bound - ou_formula) / ou_formula))

    ok = lin_holds and ou_holds and lin_recompute <= 1e-14 and ou_recompute <= 1e-14
    _report(9, "concentration-audits", ok,
            f"linear holds {lin_holds} (recompute {lin_recompute:.1e}); "
            f"ou holds {ou_holds} (recompute {ou_recompute:.1e}); 1e4 reps each")
    assert lin_holds and ou_holds
    assert lin_recompute <= 1e-14
    assert ou_recompute <= 1e-14


def test_criterion_10_event_sets_and_oracle(tmp_path):
    reps = 200
    eps = 0.1
    cfg = validate_config({
        "experiment": "verify-sets",
        "seed": 4321,
        "model": {"family": "ou-linear", "d": 5, "A0_diag": [1.0, 1.5, 2.0, 2.5, 3.0]},
        "sampling": {"T": 10.0, "delta_n": 0.01, "substeps": 2},
        "audit": {"epsilon": eps, "gamma": 1.0, "c_b": 1.0, "reps": reps, "budget": 64},
    })
    run_verifications(cfg, str(tmp_path))
    summary = {row["quantity"]: row for row in _read_csv(tmp_path / "event_summary.csv")}
    freq_t = float(summary["T"]["frequency"])
    freq_oracle = float(summary["oracle"]["frequency"])
    se_t = math.sqrt((1 - eps) * eps / reps)
    se_oracle = math.sqrt((1 - 3 * eps) * 3 * eps / reps)
    t_target = 1 - eps - 3 * se_t
    oracle_target = 1 - 3 * eps - 3 * se_oracle
    ok = freq_t >= t_target and freq_oracle >= oracle_target
    _report(10, "event-sets-and-oracle", ok,
            f"P(T) {freq_t:.3f} >= {t_target:.3f}; P(oracle) {freq_oracle:.3f} >= {oracle_target:.3f}"
            f" ({reps} reps, formula lambda)")
    assert freq_t >= t_target
    assert freq_oracle >= oracle_target


def test_criterion_11_reproducibility(tmp_path):
    base = {
        "experiment": "support-recovery",
        "seed": 606,
        "replications": 3,
        "model": {"family": "cosine", "d": 3, "p": 6, "sparsity_fraction": 0.5},
        "sampling": {"T": 2.0, "delta_n": 0.02, "substeps": 3},
        "estimation": {"lambda_grid": {"num": 8, "ratio": 0.02}, "cv_folds": 3},
    }
    cfg = validate_config(json.loads(json.dumps(base)))
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    run_support_recovery(cfg, str(dirs[0]), jobs=1)
    run_support_recovery(cfg, str(dirs[1]), jobs=1)
    run_support_recovery(cfg, str(dirs[2]), jobs=2)
    identical = True
    for name in ("replications.csv", "summary.csv", "coefficients_true.csv",
                 "coefficients_mle.csv", "coefficients_lasso.csv"):
        ref = (dirs[0] / name).read_bytes()
        identical &= (dirs[1] / name).read_bytes() == ref
        identical &= (dirs[2] / name).read_bytes() == ref
    _report(11, "reproducibility", identical,
            "CSV outputs byte-identical across re-runs and --jobs 1/2")
    assert identical
