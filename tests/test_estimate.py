import tracemalloc

import numpy as np
import pytest

from conftest import (
    brute_force_lasso,
    ou_row_blocks,
    ou_row_fit,
    random_pd_gram,
    reference_cd,
    reference_gram_sums,
    within_kkt_tol,
)
from sparsedrift.estimate import (
    GramSystem,
    LassoPath,
    build_gram,
    cross_validate,
    default_lambda_grid,
    gram_blocks,
    kkt_residual,
    lasso_path,
    mle_solve,
    select_lambda_descending,
)
from sparsedrift.model import DriftBasis, cosine_basis, generate_sparse_param, ou_linear_basis
from sparsedrift import estimate, experiments, rng, simulate
from sparsedrift.config import validate_config
from sparsedrift.simulate import RecordFlags, Trajectory, simulate_linear, simulate_ou_exact
from sparsedrift.theory import event_statistics


def _criterion_06_basis_and_path(seed: int = 2024):
    """The cosine basis (d=10, p=30) and one T=7 path of the criterion-06 protocol."""
    cfg = validate_config({
        "experiment": "support-recovery",
        "seed": seed,
        "replications": 1,
        "model": {"family": "cosine", "d": 10, "p": 30, "sparsity_fraction": 0.7},
        "sampling": {"T": 7.0, "delta_n": 0.01, "substeps": 10},
    })
    _, basis, theta0 = experiments._problem(cfg["model"], seed)
    traj, _ = simulate_linear(basis, theta0, 0.0, 700, 0.01, substeps=10, seed=seed, burn_in=70)
    return basis, traj


def _criterion_08_blocks(seed: int, folds: int = 5):
    """The ou-linear block sums (d=5, p=25) of a criterion-08 replication at T=100 (delta_n = 0.1)."""
    a_mat = np.diag([1.0, 1.5, 2.0, 2.5, 3.0])
    return experiments._ou_block_sums_batch(a_mat, 1000, 0.1, folds, [seed])[0]


# ---------------------------------------------------------------------------
# Gram assembly
# ---------------------------------------------------------------------------


def test_build_gram_constant_field_closed_form():
    # ou-linear closed form: G = C_hat (x) I_d with C_hat = X^T X / n over the left
    # endpoints, and linear[c*d + r] = (2/n) sum_i X^c DX^r (phi_0 = 0)
    gen = np.random.default_rng(0)
    states = gen.normal(size=(11, 3))
    traj = Trajectory(states=states, delta_n=0.1)
    gs = build_gram(traj, ou_linear_basis(3))
    x, dx = states[:-1], np.diff(states, axis=0)
    np.testing.assert_allclose(gs.gram, np.kron(x.T @ x / traj.n, np.eye(3)), rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(gs.linear, 2.0 / traj.n * (x.T @ dx).ravel(), rtol=1e-12, atol=1e-15)


def test_build_gram_zero_states_cosine():
    basis = cosine_basis(4, 3, 1.0)
    traj = Trajectory(states=np.zeros((9, 4)), delta_n=0.05)
    gs = build_gram(traj, basis)
    assert np.allclose(gs.gram, 4.0)  # cos(0)^2 summed over d coordinates
    assert np.allclose(gs.linear, 0.0)  # phi0(0) = 0 and zero increments


def test_gram_quadratic_identity_many_thetas():
    gen = rng.stream(1, rng.PARAM)
    theta0 = generate_sparse_param(8, 0.5, gen)
    basis = cosine_basis(3, 8, 0.4)
    traj, _ = simulate_linear(basis, theta0, 0.0, 120, 0.02, substeps=4, seed=1)
    gs = build_gram(traj, basis)
    drift_of = basis.drift_fn
    dx = traj.increments()
    check = np.random.default_rng(2)
    for _ in range(100):
        th = check.normal(size=8) * check.uniform(0.1, 4.0)
        direct = float(np.sum(np.square(dx + traj.delta_n * drift_of(th)(traj.states[:-1]))) / traj.T)
        assert gs.contrast_value(th) == pytest.approx(direct, rel=1e-10)


def test_gram_quadratic_identity_protocol_scale():
    # d=10, p=30, T=7 instance: quadratic form vs direct summation
    gen = rng.stream(5, rng.PARAM)
    theta0 = generate_sparse_param(30, 0.7, gen)
    basis = cosine_basis(10, 30, 0.3)
    traj, _ = simulate_linear(basis, theta0, 0.0, 700, 0.01, substeps=5, seed=5, burn_in=70)
    gs = build_gram(traj, basis)
    dx = traj.increments()
    check = np.random.default_rng(6)
    for _ in range(10):
        th = check.normal(size=30)
        direct = float(
            np.sum(np.square(dx + traj.delta_n * basis.drift_fn(th)(traj.states[:-1]))) / traj.T
        )
        assert gs.contrast_value(th) == pytest.approx(direct, rel=1e-10)
    # the true parameter's contrast in particular
    direct0 = float(
        np.sum(np.square(dx + traj.delta_n * basis.drift_fn(theta0)(traj.states[:-1]))) / traj.T
    )
    assert gs.contrast_value(theta0) == pytest.approx(direct0, rel=1e-10)


@pytest.mark.parametrize("family", ["cosine", "ou-linear"])
def test_every_block_union_system_is_the_contrast_over_its_increments(family):
    # the CV's held-out blocks, its training unions and the full path: each
    # system's (c, l, G) is ||DX + Dn b_theta(X)||^2 / (m Dn) summed over the union
    folds, n, delta_n = 5, 303, 0.02
    if family == "cosine":
        basis = cosine_basis(3, 8, 0.4)
        theta0 = generate_sparse_param(8, 0.5, rng.stream(1, rng.PARAM))
    else:
        basis = ou_linear_basis(2)
        theta0 = np.array([[1.0, 0.4], [0.0, 2.0]]).flatten(order="F")
    traj, _ = simulate_linear(basis, theta0, 0.0, n, delta_n, substeps=2, seed=3)
    sums = gram_blocks(traj, basis, folds)
    x, dx = traj.states[:-1], traj.increments()
    parts = np.array_split(np.arange(n), folds)
    unions = [[k] for k in range(folds)] + [[j for j in range(folds) if j != k] for k in range(folds)]
    check = np.random.default_rng(4)
    for th in check.normal(size=(5, basis.p)) * 2.0:
        residual = np.sum(np.square(dx + delta_n * basis.drift_fn(th)(x)), axis=1)
        for blocks in unions + [None]:
            idx = np.arange(n) if blocks is None else np.concatenate([parts[k] for k in blocks])
            direct = float(np.sum(residual[idx]) / (idx.size * delta_n))
            assert sums.system(blocks).contrast_value(th) == pytest.approx(direct, rel=1e-10), blocks


def test_response_is_formed_in_the_increments():
    # y is formed in the increments; the ou-linear y is DX itself, untouched
    gen = np.random.default_rng(5)
    x, dx = gen.normal(size=(2, 7, 3)), gen.normal(size=(2, 7, 3))
    kept = dx.copy()
    y = ou_linear_basis(3).response(x, dx, 0.1)
    assert y is dx
    np.testing.assert_array_equal(y, kept)
    cosine = cosine_basis(3, 4, 0.5)
    y = cosine.response(x, dx, 0.1)
    assert y is dx
    np.testing.assert_allclose(y, kept + 0.1 * cosine.phi0_batch(x), rtol=1e-15)


def test_contrast_value_of_stacked_thetas_is_one_value_per_row():
    basis, traj = _criterion_06_basis_and_path()
    cosine = build_gram(traj, basis)
    ou = _criterion_08_blocks(31415).system()
    check = np.random.default_rng(3)
    for gs in (cosine, ou):
        thetas = check.normal(size=(25, gs.p)) * check.uniform(0.01, 10.0, size=(25, 1))
        thetas[3] = 0.0
        stacked = gs.contrast_value(thetas)
        assert stacked.shape == (25,)
        for th, value in zip(thetas, stacked):
            direct = gs.constant + gs.linear @ th + gs.delta_n * th @ gs.gram @ th
            assert value == pytest.approx(direct, rel=1e-12)
            assert value == pytest.approx(gs.contrast_value(th), rel=1e-12)


def test_gram_psd_and_symmetric():
    gen = rng.stream(7, rng.PARAM)
    theta0 = generate_sparse_param(6, 0.5, gen)
    basis = cosine_basis(2, 6, 0.4)
    traj, _ = simulate_linear(basis, theta0, 0.0, 60, 0.05, substeps=2, seed=3)
    gs = build_gram(traj, basis)
    assert np.max(np.abs(gs.gram - gs.gram.T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(gs.gram)) >= -1e-10


def test_gram_blocks_merge_equals_full():
    basis = cosine_basis(2, 4, 0.5)
    traj, _ = simulate_linear(basis, np.array([2.0, 0.0, 0.0, 2.5]), 0.0, 50, 0.05, seed=9)
    full = build_gram(traj, basis)
    blocks = gram_blocks(traj, basis, 5)
    merged = blocks.system()
    assert np.max(np.abs(full.gram - merged.gram)) < 1e-12
    assert np.max(np.abs(full.linear - merged.linear)) < 1e-12
    assert full.constant == pytest.approx(merged.constant, rel=1e-12)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def test_lasso_null_solution_threshold():
    gen = np.random.default_rng(21)
    for _ in range(10):
        gs = random_pd_gram(gen, 5)
        lam = float(np.max(np.abs(gs.linear)))
        res = lasso_path(gs, [lam])[0]
        assert np.all(res.theta_hat == 0.0)
        assert res.converged


def test_lasso_zero_lambda_matches_mle():
    gen = np.random.default_rng(22)
    for _ in range(10):
        gs = random_pd_gram(gen, 6)
        res = lasso_path(gs, [0.0])[0]
        assert within_kkt_tol(gs, res.kkt_residual, 1e-12)
        mle = mle_solve(gs)
        assert np.max(np.abs(res.theta_hat - mle.theta_hat)) < 1e-8


def test_lasso_matches_brute_force_p2():
    gen = np.random.default_rng(23)
    for _ in range(20):
        gs = random_pd_gram(gen, 2)
        lam = float(gen.uniform(0.05, 1.0))
        bf = brute_force_lasso(gs, lam)
        res = lasso_path(gs, [lam])[0]
        assert within_kkt_tol(gs, res.kkt_residual, 1e-12)
        assert np.max(np.abs(bf - res.theta_hat)) < 1e-6


def test_lasso_kkt_certificate():
    gen = np.random.default_rng(24)
    for _ in range(20):
        gs = random_pd_gram(gen, 7)
        lam = float(gen.uniform(0.0, 1.0))
        res = lasso_path(gs, [lam])[0]
        assert res.converged
        assert res.kkt_residual <= 10 * 1e-9 * max(1.0, np.max(np.abs(gs.linear)))  # the solver's fixed tol


def test_kkt_residual_batched_rows_equal_single_rows_and_skip_pinned_columns():
    gen = np.random.default_rng(26)
    for _ in range(10):
        p = int(gen.integers(2, 12))
        b = gen.normal(size=(2 * p, p))
        g = b.T @ b / (2 * p) + 0.1 * np.eye(p)
        g[:, 0] = g[0, :] = 0.0  # coordinate 0 is pinned
        linear = gen.normal(size=p)
        linear[0] = 100.0  # a violation there would dominate every residual
        gs = GramSystem(gram=g, linear=linear, constant=0.0, delta_n=0.5)
        live = GramSystem(gram=g[1:, 1:], linear=linear[1:], constant=0.0, delta_n=0.5)
        thetas = gen.normal(size=(15, p)) * (gen.uniform(size=(15, p)) < 0.6)
        thetas[:, 0] = 0.0
        lams = gen.uniform(0.0, 2.0, size=15)
        batched = kkt_residual(gs, thetas, lams)
        assert batched.shape == (15,)
        for th, lam, res in zip(thetas, lams, batched):
            assert kkt_residual(gs, th, lam) == res  # bitwise, whatever the batch
            assert res == kkt_residual(gs, th[None], [lam])[0]
            assert res == pytest.approx(kkt_residual(live, th[1:], lam), rel=1e-12, abs=1e-15)
            assert res < 100.0


def test_lasso_rejects_nan_and_negative_lambda():
    gs = random_pd_gram(np.random.default_rng(0), 3)
    with pytest.raises(ValueError):
        lasso_path(gs, [-0.1])
    with pytest.raises(ValueError):
        lasso_path(gs, [float("nan")])
    with pytest.raises(ValueError):
        lasso_path(gs, [0.1], max_sweeps=0)
    with pytest.raises(ValueError):
        GramSystem(gram=np.full((2, 2), np.nan), linear=np.zeros(2), constant=0.0, delta_n=0.1)


def test_lasso_pinned_zero_columns():
    g = np.diag([1.0, 0.0, 2.0])
    gs = GramSystem(gram=g, linear=np.array([-1.0, 0.3, -2.0]), constant=0.0, delta_n=0.5)
    res = lasso_path(gs, [0.1])[0]
    assert res.pinned == (1,)
    assert res.theta_hat[1] == 0.0
    assert res.converged


def test_lasso_nonconvergence_flagged_not_raised():
    gen = np.random.default_rng(25)
    gs = random_pd_gram(gen, 8)
    res = lasso_path(gs, [0.01], max_sweeps=2)[0]
    assert res.sweeps_used == 2
    assert not within_kkt_tol(gs, res.kkt_residual, 1e-15)
    assert not res.converged


def test_mle_identity_example():
    gs = GramSystem(gram=np.eye(3), linear=np.array([-2.0, 0.0, 0.0]), constant=0.0, delta_n=1.0)
    res = mle_solve(gs)
    assert np.allclose(res.theta_hat, [1.0, 0.0, 0.0], atol=1e-12)
    assert not res.rank_deficient


def test_mle_singular_consistent_system():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])
    gs = GramSystem(gram=g, linear=np.array([-2.0, -2.0]), constant=0.0, delta_n=0.5)
    res = mle_solve(gs)
    resid = 2 * gs.delta_n * (g @ res.theta_hat) + gs.linear
    assert np.max(np.abs(resid)) < 1e-8
    assert res.rank_deficient
    # minimum-norm solution of theta_1 + theta_2 = 2
    assert np.allclose(res.theta_hat, [1.0, 1.0], atol=1e-10)


# ---------------------------------------------------------------------------
# Brute force oracle
# ---------------------------------------------------------------------------


def _grid_refine_oracle(gs: GramSystem, lam: float) -> np.ndarray:
    """Iteratively refined grid search down to step <= 1e-4 on [-5, 5]^p."""
    lo = np.full(gs.p, -5.0)
    hi = np.full(gs.p, 5.0)
    pts = 21
    for _ in range(7):
        axes = [np.linspace(lo[j], hi[j], pts) for j in range(gs.p)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(gs.p, -1).T
        vals = (
            gs.constant
            + mesh @ gs.linear
            + gs.delta_n * np.einsum("ij,jk,ik->i", mesh, gs.gram, mesh)
            + lam * np.sum(np.abs(mesh), axis=1)
        )
        best = mesh[np.argmin(vals)]
        step = (hi - lo) / (pts - 1)
        lo = np.maximum(best - step, -5.0)
        hi = np.minimum(best + step, 5.0)
    assert np.max((hi - lo) / (pts - 1)) <= 1e-4
    return best


def test_brute_force_scalar_closed_form():
    gs = GramSystem(gram=np.array([[1.0]]), linear=np.array([-4.0]), constant=0.0, delta_n=1.0)
    assert brute_force_lasso(gs, 2.0)[0] == pytest.approx(1.0, abs=1e-12)
    # lambda = 0 reduces to least squares
    assert brute_force_lasso(gs, 0.0)[0] == pytest.approx(2.0, abs=1e-12)


def test_brute_force_rejects_large_p():
    gs = random_pd_gram(np.random.default_rng(1), 4)
    with pytest.raises(ValueError):
        brute_force_lasso(gs, 0.1)


def test_brute_force_matches_refined_grid_search():
    gen = np.random.default_rng(27)
    checked = 0
    while checked < 200:
        p = int(gen.integers(2, 4))
        gs = random_pd_gram(gen, p)
        lam = float(gen.uniform(0.05, 1.0))
        if np.max(np.abs(np.linalg.solve(2 * gs.delta_n * gs.gram, -gs.linear))) > 4.0:
            continue  # keep the optimum inside the search box
        bf = brute_force_lasso(gs, lam)
        oracle = _grid_refine_oracle(gs, lam)
        assert np.max(np.abs(bf - oracle)) < 2e-4
        checked += 1


# ---------------------------------------------------------------------------
# Path
# ---------------------------------------------------------------------------


def test_path_starts_at_zero_above_threshold():
    gs = random_pd_gram(np.random.default_rng(28), 5)
    lam_max = float(np.max(np.abs(gs.linear)))
    grid = np.geomspace(lam_max * 1.01, lam_max * 0.01, 10)
    path = lasso_path(gs, grid)
    assert np.all(path[0].theta_hat == 0.0)


def test_path_l1_monotone_and_matches_cold():
    gen = np.random.default_rng(29)
    for _ in range(5):
        gs = random_pd_gram(gen, 6)
        grid = default_lambda_grid(gs, num=12, ratio=0.01)
        path = lasso_path(gs, grid)
        norms = [np.sum(np.abs(r.theta_hat)) for r in path]
        assert np.all(np.diff(norms) >= -1e-9)
        for idx in (0, len(grid) - 1):
            cold = reference_cd(gs, float(grid[idx]))
            assert np.max(np.abs(path[idx].theta_hat - cold)) < 1e-8


def test_single_point_path_is_bitwise_its_point_on_a_longer_grid():
    # what lets a refit at lambda_star equal the point that CV scored
    gen = np.random.default_rng(29)
    for _ in range(30):
        gs = random_pd_gram(gen, int(gen.integers(2, 12)))
        grid = default_lambda_grid(gs, num=20, ratio=1e-3)
        for lam, on_grid in zip(grid, lasso_path(gs, grid)):
            alone = lasso_path(gs, [lam])[0]
            assert np.array_equal(alone.theta_hat, on_grid.theta_hat)
            assert (alone.sweeps_used, alone.kkt_residual) == (on_grid.sweeps_used, on_grid.kkt_residual)


def test_lasso_path_is_a_sequence_of_its_rows():
    gs = random_pd_gram(np.random.default_rng(33), 6)
    grid = default_lambda_grid(gs, num=9, ratio=1e-2)
    path = lasso_path(gs, grid)
    assert isinstance(path, LassoPath)
    assert len(path) == 9 and path.theta.shape == (9, 6)
    np.testing.assert_array_equal(path.lambdas, grid)
    points = list(path)
    assert len(points) == 9
    for i, res in enumerate(points):
        for got in (res, path[i], path[i - 9]):
            assert np.array_equal(got.theta_hat, path.theta[i])
            assert got.lam == path.lambdas[i]
            assert got.sweeps_used == path.sweeps_used[i]
            assert got.kkt_residual == path.kkt_residual[i]
            assert got.converged == path.converged[i]
    with pytest.raises(IndexError):
        path[9]
    with pytest.raises(IndexError):
        path[-10]
    for name in ("lambdas", "theta", "sweeps_used", "kkt_residual", "converged"):
        with pytest.raises(ValueError):
            getattr(path, name)[0] = 0


def test_path_requires_descending_grid():
    gs = random_pd_gram(np.random.default_rng(30), 3)
    with pytest.raises(ValueError):
        lasso_path(gs, [0.1, 0.2])
    with pytest.raises(ValueError):
        lasso_path(gs, [0.1, -0.2])
    with pytest.raises(ValueError):
        lasso_path(gs, [np.nan])


def test_path_matches_brute_force_small_p():
    gen = np.random.default_rng(31)
    for _ in range(60):
        gs = random_pd_gram(gen, int(gen.integers(1, 4)))
        grid = default_lambda_grid(gs, num=10, ratio=1e-2)
        for res in lasso_path(gs, grid):
            assert res.converged
            assert np.max(np.abs(res.theta_hat - brute_force_lasso(gs, res.lam))) <= 1e-6


def test_path_matches_tight_coordinate_descent_on_pd_grams():
    gen = np.random.default_rng(32)
    for _ in range(10):
        gs = random_pd_gram(gen, int(gen.integers(4, 12)))
        grid = default_lambda_grid(gs, num=12, ratio=1e-3)
        for res in lasso_path(gs, grid):
            cd = reference_cd(gs, res.lam, tol=1e-12)
            assert np.max(np.abs(res.theta_hat - cd)) <= 1e-8


def test_path_on_singular_cosine_gram_is_certified_and_no_worse_than_cd():
    basis, traj = _criterion_06_basis_and_path()
    gs = build_gram(traj, basis)
    eig = np.linalg.eigvalsh(gs.gram)
    assert abs(eig[0]) < 1e-12 * eig[-1]  # numerically singular
    grid = default_lambda_grid(gs, num=20, ratio=1e-3)
    path = lasso_path(gs, grid)
    assert all(res.converged for res in path)
    for res in path[::4]:
        cd = gs.objective(reference_cd(gs, res.lam, tol=1e-9), res.lam)
        assert gs.objective(res.theta_hat, res.lam) <= cd + 1e-12 * abs(cd)


def test_path_tie_at_lambda_max_resolved_by_dropping_against_sign():
    # both correlations equal lambda_max; with both active, coordinate 0 would
    # move against its sign, so the repair keeps only coordinate 1
    gs = GramSystem(gram=[[1.0, 0.5], [0.5, 0.3]], linear=[-1.0, -1.0], constant=0.0, delta_n=0.5)
    grid = np.geomspace(1.0, 1e-3, 10)
    path = lasso_path(gs, grid)
    assert all(res.converged for res in path)
    assert path[1].theta_hat[0] == 0.0 and path[1].theta_hat[1] > 0.0
    for res in path:
        assert np.max(np.abs(res.theta_hat - brute_force_lasso(gs, res.lam))) <= 1e-9


def test_path_with_duplicated_column_is_certified_and_deterministic():
    gen = np.random.default_rng(33)
    x = gen.normal(size=(40, 4))
    x = np.column_stack((x, x[:, 1]))  # column 4 duplicates column 1
    y = x[:, :4] @ np.array([1.5, -2.0, 0.0, 0.7]) + 0.1 * gen.normal(size=40)
    gs = GramSystem(gram=x.T @ x / 40, linear=-2.0 * x.T @ y / 40, constant=float(y @ y / 40), delta_n=1.0)
    grid = default_lambda_grid(gs, num=15, ratio=1e-4)
    first, second = lasso_path(gs, grid), lasso_path(gs, grid)
    assert all(res.converged for res in first)
    for a, b in zip(first, second):
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert (a.kkt_residual, a.sweeps_used) == (b.kkt_residual, b.sweeps_used)


def _ou_gram(d: int, seed: int, n: int = 2000) -> GramSystem:
    """The ou-linear Gram C (x) I_d of an exact OU path with a dense stable A."""
    gen = np.random.default_rng(seed)
    a_mat = np.diag(gen.uniform(1.0, 3.0, size=d)) + 0.3 * gen.normal(size=(d, d)) / np.sqrt(d)
    a_mat += (0.3 - min(np.linalg.eigvals(a_mat).real.min(), 0.0)) * np.eye(d)
    return build_gram(simulate_ou_exact(a_mat, n, 0.05, seed=seed)[0], ou_linear_basis(d))


def _scattered_blocks_gram(gen) -> GramSystem:
    """A Gram of interleaved components of sizes 3, 1, 4 and 2 and one pinned coordinate (p = 11)."""
    members = [[0, 4, 9], [1], [2, 5, 6, 10], [3, 8]]  # coordinate 7 is pinned
    g = np.zeros((11, 11))
    for mem in members:
        b = gen.normal(size=(2 * len(mem), len(mem)))
        g[np.ix_(mem, mem)] = b.T @ b / (2 * len(mem)) + 0.1 * np.eye(len(mem))
    return GramSystem(gram=g, linear=gen.normal(size=11), constant=0.0, delta_n=0.5)


def _alone(gs: GramSystem, mem) -> GramSystem:
    """The component ``mem`` of ``gs`` as its own system."""
    return GramSystem(gram=gs.gram[np.ix_(mem, mem)], linear=gs.linear[mem], constant=0.0, delta_n=gs.delta_n)


def test_gram_components_of_kron_dense_pinned_and_padded_grams():
    d = 4
    members = estimate._gram_components(_ou_gram(d, 40, n=300))
    np.testing.assert_array_equal(members, np.arange(d * d).reshape(d, d).T)  # row r of A: r, r + d, ...
    dense = random_pd_gram(np.random.default_rng(41), 6)
    np.testing.assert_array_equal(estimate._gram_components(dense), [np.arange(6)])
    coupled = GramSystem(gram=[[1.0, 0.0, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, 2.0]], linear=[1.0, 2.0, 3.0],
                         constant=0.0, delta_n=1.0)
    np.testing.assert_array_equal(estimate._gram_components(coupled), [[0, 2]])
    diagonal = GramSystem(gram=np.diag([1.0, 0.0, 2.0]), linear=[1.0, 2.0, 3.0], constant=0.0, delta_n=1.0)
    np.testing.assert_array_equal(estimate._gram_components(diagonal), [[0], [2]])
    scattered = _scattered_blocks_gram(np.random.default_rng(42))
    np.testing.assert_array_equal(
        estimate._gram_components(scattered), [[0, 4, 9, 11], [1, 11, 11, 11], [2, 5, 6, 10], [3, 8, 11, 11]]
    )


def test_all_pinned_gram_has_no_components_and_a_zero_path():
    gs = GramSystem(gram=np.zeros((3, 3)), linear=[1.0, -2.0, 0.5], constant=0.0, delta_n=1.0)
    assert estimate._gram_components(gs).shape == (0, 0)
    path = lasso_path(gs, [1.0, 0.1, 0.0])
    assert path.pinned == (0, 1, 2)
    assert np.all(path.theta == 0.0) and np.all(path.sweeps_used == 0) and path.converged.all()


@pytest.mark.parametrize("case", ["ou-linear", "scattered"])
def test_each_component_is_bitwise_that_component_solved_alone(case):
    gs = _ou_gram(5, 43) if case == "ou-linear" else _scattered_blocks_gram(np.random.default_rng(44))
    grid = default_lambda_grid(gs, num=20, ratio=1e-3)
    for max_sweeps in (estimate._MAX_SWEEPS, 2):
        path = lasso_path(gs, grid, max_sweeps=max_sweeps)
        assert path.converged.all() or max_sweeps == 2
        sweeps = np.zeros(grid.size, dtype=int)
        for mem in estimate._gram_components(gs):
            mem = mem[mem < gs.p]
            alone = lasso_path(_alone(gs, mem), grid, max_sweeps=max_sweeps)
            assert path.theta[:, mem].tobytes() == alone.theta.tobytes()
            assert alone.sweeps_used.max() <= max_sweeps  # the cap is per component
            sweeps += alone.sweeps_used
        np.testing.assert_array_equal(path.sweeps_used, sweeps)  # the components' knots, summed
        assert np.all(path.theta[:, list(path.pinned)] == 0.0)


def test_capped_path_caps_each_component_not_the_sum():
    d = 5
    gs = _ou_gram(d, 45)
    grid = default_lambda_grid(gs, num=20, ratio=1e-3)
    full = lasso_path(gs, grid)
    capped = lasso_path(gs, grid, max_sweeps=2)
    assert full.sweeps_used[-1] > 2 * d  # every component needs more than 2 knots
    assert capped.sweeps_used[-1] == 2 * d
    assert not capped.converged[-1]


def test_ou_linear_path_solves_no_block_wider_than_d(monkeypatch):
    d = 8
    gs = _ou_gram(d, 46)
    widths = []
    lstsq = np.linalg.lstsq

    def recording(a, b, rcond=None):
        widths.append(a.shape[1])
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    path = lasso_path(gs, default_lambda_grid(gs, num=20, ratio=1e-3))
    assert path.converged.all()
    assert max(widths) == d  # the full rows of A are reached, and no solve spans two of them
    assert len(widths) >= path.sweeps_used[-1]


# ---------------------------------------------------------------------------
# Interaction-matrix estimation
# ---------------------------------------------------------------------------


def test_ou_covariance_examples():
    x = np.array([2.0, -1.0])
    traj = Trajectory(states=np.vstack([x, np.zeros(2)]), delta_n=0.1)
    left = traj.states[:-1]
    assert np.allclose(left.T @ left / traj.n, np.outer(x, x))
    e1 = np.zeros((6, 3))
    e1[:, 0] = 1.0
    traj2 = Trajectory(states=e1, delta_n=0.1)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    left = traj2.states[:-1]
    assert np.allclose(left.T @ left / traj2.n, expected)


def test_ou_covariance_long_run_near_stationary():
    a_mat = np.diag([1.0, 2.0])
    traj, _ = simulate_ou_exact(a_mat, 50_000, 0.05, seed=31)
    x = traj.states[:-1]
    c_emp = x.T @ x / x.shape[0]
    c_inf = np.diag([0.5, 0.25])
    prods = np.einsum("ti,tj->tij", x, x)
    batch = prods[: 100 * (x.shape[0] // 100)].reshape(100, -1, 2, 2).mean(axis=1)
    se = batch.std(axis=0, ddof=1) / np.sqrt(batch.shape[0])
    assert np.all(np.abs(c_emp - c_inf) <= 3 * se + 1e-12)
    # the ou-linear Gram is C_T (x) I_d on the column-major vec(A)
    gram = build_gram(traj, ou_linear_basis(2)).gram
    np.testing.assert_allclose(gram, np.kron(c_emp, np.eye(2)), rtol=1e-12, atol=1e-15)


def test_ou_row_fits_zero_at_large_lambda():
    traj, _ = simulate_ou_exact(np.diag([1.0, 2.0]), 200, 0.05, seed=32)
    rows = ou_row_blocks(traj, 1)
    lam = max(float(np.max(np.abs(b.system().linear))) for b in rows)
    assert np.all(ou_row_fit(traj, lam) == 0.0)


def test_ou_row_fit_scalar_regression_oracle():
    traj, _ = simulate_ou_exact(np.array([[0.5]]), 10_000, 0.05, seed=33)
    a_hat = ou_row_fit(traj, 0.0, kkt_tol=1e-12)
    # unpenalized row problem reduces to scalar least squares
    x = traj.states[:-1, 0]
    dx = np.diff(traj.states[:, 0])
    direct = -np.sum(x * dx) / (traj.delta_n * np.sum(x * x))
    assert a_hat[0, 0] == pytest.approx(direct, abs=1e-9)
    # asymptotic sd of the drift estimator is sqrt(2 a / T)
    se = np.sqrt(2 * 0.5 / traj.T)
    assert abs(a_hat[0, 0] - 0.5) <= 3 * se


def test_ou_row_fits_equal_stacked_basis_solution():
    gen = np.random.default_rng(34)
    for trial, d in enumerate((2, 3, 6, 10)):
        a_mat = np.diag(gen.uniform(0.5, 2.0, size=d)) + 0.2 * gen.normal(size=(d, d))
        a_mat += (0.3 - min(np.linalg.eigvals(a_mat).real.min(), 0.0)) * np.eye(d)
        traj, _ = simulate_ou_exact(a_mat, 400, 0.05, seed=35 + trial)
        lam = 0.05
        rowwise = ou_row_fit(traj, lam, kkt_tol=1e-12)
        gram = build_gram(traj, ou_linear_basis(d))
        stacked = lasso_path(gram, [lam])[0]
        assert within_kkt_tol(gram, stacked.kkt_residual, 1e-12)
        assert np.max(np.abs(rowwise.flatten(order="F") - stacked.theta_hat)) < 1e-9


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


def _per_point_cv(problems, grid, max_sweeps=estimate._MAX_SWEEPS):
    """Reference CV scorer: one contrast_value and one converged flag per path point."""
    folds = problems[0].n_blocks
    scores = np.zeros((folds, len(grid)))
    uncertified = 0
    for k in range(folds):
        train = [j for j in range(folds) if j != k]
        for blocks in problems:
            test = blocks.system([k])
            for i, res in enumerate(lasso_path(blocks.system(train), grid, max_sweeps=max_sweeps)):
                scores[k, i] += test.contrast_value(res.theta_hat)
                uncertified += not res.converged
    return scores, uncertified


def test_cv_matches_per_point_reference_on_protocol_blocks():
    basis, traj = _criterion_06_basis_and_path()
    cosine = gram_blocks(traj, basis, 5)
    cases = [cosine] + [_criterion_08_blocks(31415 ^ r) for r in range(3)]
    for blocks in cases:
        grid = default_lambda_grid(blocks.system(), num=20, ratio=1e-3)
        cv = cross_validate(blocks, grid)
        scores, uncertified = _per_point_cv([blocks], grid)
        np.testing.assert_allclose(cv.fold_scores, scores, rtol=1e-12, atol=0.0)
        assert cv.lambda_star == select_lambda_descending(grid, scores.mean(axis=0))
        assert cv.fold_fits == scores.size
        assert cv.uncertified == uncertified
    # a knot cap leaves fold fits uncertified; both scorers count the same ones
    grid = default_lambda_grid(cosine.system(), num=20, ratio=1e-3)
    cv = cross_validate(cosine, grid, max_sweeps=3)
    _, uncertified = _per_point_cv([cosine], grid, max_sweeps=3)
    assert cv.uncertified == uncertified > 0


def test_select_lambda_descending_equals_the_first_minimum_loop():
    def first_minimum(lambdas, scores):  # the reference: a strict < scan keeps the earliest, larger lambda
        best = 0
        for i in range(1, lambdas.size):
            if scores[i] < scores[best]:
                best = i
        return float(lambdas[best])

    gen = np.random.default_rng(46)
    for _ in range(200):
        size = int(gen.integers(1, 12))
        lambdas = np.sort(gen.uniform(0.01, 1.0, size))[::-1]
        scores = gen.integers(0, 4, size).astype(float)  # few values: ties are common
        assert select_lambda_descending(lambdas, scores) == first_minimum(lambdas, scores)


def test_cv_single_element_grid():
    basis = cosine_basis(2, 3, 0.5)
    traj, _ = simulate_linear(basis, np.array([2.0, 0.0, 0.0]), 0.0, 60, 0.05, seed=36)
    cv = cross_validate(gram_blocks(traj, basis, 3), [0.37])
    assert cv.lambda_star == 0.37


def test_cv_short_block_warning_flag():
    basis = cosine_basis(2, 8, 0.5)
    traj, _ = simulate_linear(basis, np.zeros(8), 0.0, 20, 0.05, seed=37)
    cv = cross_validate(gram_blocks(traj, basis, 4), [0.5, 0.1])
    assert cv.short_blocks


def test_cv_pure_noise_prefers_largest_lambda():
    noise_basis = ou_linear_basis(2)  # theta = 0: pure Brownian increments
    fit_basis = cosine_basis(2, 6, 0.5)
    wins = 0
    for rep in range(50):
        traj, _ = simulate_linear(noise_basis, np.zeros(4), 0.0, 200, 0.5, substeps=1, seed=1000 + rep)
        gs = build_gram(traj, fit_basis)
        lam_max = float(np.max(np.abs(gs.linear)))
        grid = np.geomspace(1.5 * lam_max, 0.05 * lam_max, 6)
        cv = cross_validate(gram_blocks(traj, fit_basis, 5), grid, max_sweeps=500)
        wins += cv.lambda_star == cv.lambdas[0]
    assert wins >= 40  # sparsest model wins on noise in >= 80% of runs


def test_cv_rejects_bad_inputs():
    basis = cosine_basis(2, 3, 0.5)
    traj, _ = simulate_linear(basis, np.zeros(3), 0.0, 30, 0.05, seed=38)
    with pytest.raises(ValueError):
        cross_validate(gram_blocks(traj, basis, 1), [0.1])
    with pytest.raises(ValueError):
        cross_validate(gram_blocks(traj, basis, 3), [])
    with pytest.raises(ValueError):
        cross_validate(gram_blocks(traj, basis, 3), [0.0, 0.1])


def test_cv_over_ou_row_blocks_matches_stacked_basis():
    # the stacked ou-linear CV scores each fold as the sum of the d row problems' scores
    d, folds = 3, 4
    a_mat = np.diag([1.0, 1.5, 2.0]) + 0.3 * np.eye(d, k=1)
    traj, _ = simulate_ou_exact(a_mat, 2000, 0.02, seed=39)
    row_blocks = ou_row_blocks(traj, folds)
    stacked = gram_blocks(traj, ou_linear_basis(d), folds)
    grid = default_lambda_grid(stacked.system(), num=8, ratio=0.01)
    row_max = max(float(np.max(np.abs(b.system().linear))) for b in row_blocks)
    assert grid[0] == pytest.approx(row_max, rel=1e-12)
    cv = cross_validate(stacked, grid)
    scores, _ = _per_point_cv(row_blocks, grid)
    np.testing.assert_allclose(cv.fold_scores, scores, rtol=1e-12)
    assert cv.lambda_star == select_lambda_descending(grid, scores.mean(axis=0))


def test_streamed_ou_block_sums_match_stored_path():
    a_mat = np.array([[1.0, 0.4], [0.0, 2.0]])
    n, delta_n, folds, seed = 5000, 0.05, 3, 41
    # the chunks of 2048 steps end inside the blocks of 1667, 1667 and 1666 steps
    assert simulate._chunk_steps(1, 2) == 2048
    (got,) = experiments._ou_block_sums_batch(a_mat, n, delta_n, folds, [seed])
    want = gram_blocks(simulate_ou_exact(a_mat, n, delta_n, seed=seed)[0], ou_linear_basis(2), folds)
    for name in ("phi_gram", "phi_y", "y_sq"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * np.max(np.abs(b), initial=0.0), name
    np.testing.assert_array_equal(got.counts, want.counts)
    assert got.delta_n == want.delta_n


def test_ou_linear_sums_never_evaluate_the_basis_tensor(monkeypatch):
    # the ou-linear sums come from the state moments; the cosine Gram
    # evaluates phi_batch once per chunk of at most 4096 rows of each block
    evaluated = []
    phi_batch, phi0_batch = DriftBasis.phi_batch, DriftBasis.phi0_batch

    def guarded(self, states):
        if self.family == "ou-linear":
            raise AssertionError("the ou-linear basis tensor was evaluated")
        evaluated.append(len(states))
        return phi_batch(self, states)

    def guarded_phi0(self, states):
        if self.family == "ou-linear":
            raise AssertionError("the ou-linear response evaluated phi_0")
        return phi0_batch(self, states)

    monkeypatch.setattr(DriftBasis, "phi_batch", guarded)
    monkeypatch.setattr(DriftBasis, "phi0_batch", guarded_phi0)
    a_mat = np.array([[1.0, 0.4], [0.0, 2.0]])
    basis, theta = ou_linear_basis(2), a_mat.flatten(order="F")
    traj, rec = simulate_linear(
        basis, theta, np.zeros(2), 60, 0.05, substeps=2, seed=3, record=RecordFlags(noise=True, fine=True)
    )
    gram = build_gram(traj, basis)
    blocks = gram_blocks(traj, basis, 5).phi_gram.reshape(5, 2, 2, 2, 2)  # (k, c, r, c', r')
    assert not blocks[:, :, 0, :, 1].any() and not blocks[:, :, 1, :, 0].any()  # exact zeros off C (x) I
    event_statistics(traj, rec, basis, theta, s=3, gamma=1.0, budget=4, seed=3, lam=1.0, k=0.1, gram=gram)
    assert len(experiments._ou_block_sums_batch(a_mat, 60, 0.05, 5, [3, 4])) == 2
    assert evaluated == []

    states = np.cumsum(np.random.default_rng(8).normal(scale=0.1, size=(9001, 2)), axis=0)
    gram_blocks(Trajectory(states=states, delta_n=0.01), cosine_basis(2, 3, 0.5), 2)
    assert evaluated == [4096, 404, 4096, 404]


def test_streamed_ou_block_sums_reject_folds_outside_one_to_n():
    a_mat = np.diag([1.0, 2.0])
    for folds in (0, 5):
        with pytest.raises(ValueError, match=r"must be in \[1, n\]"):
            experiments._ou_block_sums_batch(a_mat, 4, 0.1, folds, [3])
    assert len(experiments._ou_block_sums_batch(a_mat, 4, 0.1, 4, [3, 4])) == 2


@pytest.mark.parametrize(
    "estimation, folds", [({"lambda": 0.01}, 1), ({"cv_folds": 5}, 5)], ids=["fixed", "cv"]
)
def test_rate_point_sums_one_block_per_fit_fold(monkeypatch, estimation, folds):
    # a fixed lambda fits the whole path: one block, even where n < cv_folds
    seen = []
    streamed = experiments._ou_block_sums_batch

    def spy(a_mat, n, delta_n, folds, rep_seeds):
        seen.append(folds)
        return streamed(a_mat, n, delta_n, folds, rep_seeds)

    monkeypatch.setattr(experiments, "_ou_block_sums_batch", spy)
    cfg = validate_config({
        "experiment": "rate-study",
        "seed": 11,
        "replications": 2,
        "t_grid": [4.0, 20.0],
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"delta_over_t": 10.0},
        "estimation": estimation,
    })
    t_horizon = 4.0 if folds == 1 else 20.0  # n = 2 at T = 4, n = 40 at T = 20
    point = experiments._rate_point_worker({"cfg": cfg, "T": t_horizon, "t_index": 0})
    assert seen == [folds]
    assert len(point["rows"]) == 2
    assert point["solver_counts"][1] == (0 if folds == 1 else 2 * 5 * 20)


def test_streamed_ou_block_sums_memory_does_not_grow_with_horizon():
    a_mat = np.array([[1.0, 0.4, 0.0], [0.0, 2.0, 0.3], [0.0, 0.0, 1.5]])

    def peak(n):
        tracemalloc.start()
        try:
            experiments._ou_block_sums_batch(a_mat, n, 0.01, 5, [3, 4])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(20_000), peak(200_000)
    assert long <= 1.2 * short, (short, long)


@pytest.mark.parametrize("family", ["cosine", "ou-linear"])
@pytest.mark.parametrize("n_blocks", [1, 5])
def test_gram_blocks_match_the_einsum_reference(family, n_blocks):
    # the BLAS products over the flattened tensor agree with whole-block
    # einsum contractions; n = 4500 spans two chunks of the accumulation
    gen = np.random.default_rng(7)
    basis = cosine_basis(3, 7, 0.5) if family == "cosine" else ou_linear_basis(3)
    n = 4500
    states = np.cumsum(gen.normal(scale=0.1, size=(n + 1, basis.d)), axis=0)
    sums = gram_blocks(Trajectory(states=states, delta_n=0.01), basis, n_blocks)
    want_sums = reference_gram_sums(states, basis, n_blocks, 0.01)
    for got, want in zip((sums.phi_gram, sums.phi_y, sums.y_sq), want_sums):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
