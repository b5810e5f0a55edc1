import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import quadrature_exp_integral, random_stable_matrix, small_linear_drift
import sparsedrift
from sparsedrift import simulate
from sparsedrift.errors import (
    DiagonalizationFailed,
    NumericDegeneracy,
    SimulationDiverged,
    UnstableMatrix,
)
from sparsedrift.model import cosine_basis, generate_sparse_param, ou_linear_basis
from sparsedrift import rng
from sparsedrift.simulate import (
    LYAPUNOV_TOL,
    RecordFlags,
    Trajectory,
    _EulerStep,
    _chunk_steps,
    _expm,
    _sym_sqrt,
    ou_propagate,
    ou_spectral_constants,
    simulate_linear,
    simulate_ou_exact,
    stationary_covariance,
    trajectory_from_binary,
    trajectory_from_csv,
    trajectory_to_binary,
    trajectory_to_csv,
    transition_covariance,
)


def test_zero_drift_gives_brownian_partial_sums():
    traj, rec = simulate_linear(
        ou_linear_basis(3), np.zeros(9), 0.0, 30, 0.05, substeps=4, seed=7,
        record=RecordFlags(noise=True),
    )
    sums = np.cumsum(rec.coarse_dw, axis=0)
    assert np.max(np.abs(traj.states[1:] - sums)) < 1e-12
    assert np.all(traj.states[0] == 0.0)


def test_same_seed_bitwise_identical():
    basis = cosine_basis(2, 3, 1.0)
    theta = np.array([2.0, 0.0, 2.5])
    a, _ = simulate_linear(basis, theta, 0.1, 40, 0.02, substeps=3, seed=123)
    b, _ = simulate_linear(basis, theta, 0.1, 40, 0.02, substeps=3, seed=123)
    assert np.array_equal(a.states, b.states)


@pytest.mark.parametrize("seed", [-1, rng.SEED_MAX + 1, 2**64 + 1])
def test_stream_rejects_a_seed_outside_the_key_range(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        rng.stream(seed, rng.PATH)


def test_only_the_stepping_driver_keys_path_streams():
    # every path's stream is built, and its start drawn, in simulate._step_chunks
    package = pathlib.Path(simulate.__file__).parent
    naming = sorted(path.name for path in package.glob("*.py") if "rng.PATH" in path.read_text())
    assert naming == ["simulate.py"]


def test_protocol_scale_trajectory_mean_reverting():
    gen = rng.stream(2, rng.PARAM)
    theta0 = generate_sparse_param(30, 0.7, gen)
    basis = cosine_basis(10, 30, 0.3)
    traj, _ = simulate_linear(basis, theta0, 0.0, 700, 0.01, substeps=5, seed=2, burn_in=70)
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(traj.states.mean(axis=0))) < 2.0
    assert np.max(np.abs(traj.states)) < 10.0


def test_blowup_raises_with_step_index():
    # b(x) = -2 x: each step doubles the state
    with pytest.raises(SimulationDiverged) as err:
        simulate_linear(ou_linear_basis(1), np.array([-2.0]), 3.0, 200, 0.5, substeps=1, seed=0)
    assert err.value.step >= 1


def test_noise_record_consistent_with_fine_path():
    basis = cosine_basis(2, 3, 0.8)
    theta = np.array([2.2, 0.0, 2.9])
    m = 5
    traj, rec = simulate_linear(
        basis, theta, 0.0, 25, 0.05, substeps=m, seed=11,
        record=RecordFlags(noise=True, fine=True),
    )
    drift = basis.drift_fn(theta)
    delta = traj.delta_n / m
    # invert the Euler step to recover each fine Brownian increment
    for i in range(traj.n):
        implied = np.zeros(2)
        for k in range(m):
            x = rec.fine_states[i, k]
            implied += rec.fine_states[i, k + 1] - x + drift(x) * delta
        assert np.max(np.abs(implied - rec.coarse_dw[i])) < 1e-12
    assert np.max(np.abs(rec.fine_states[:, -1] - traj.states[1:])) == 0.0
    assert np.max(np.abs(rec.fine_states[:, 0] - traj.states[:-1])) == 0.0


def test_refinement_gap_shrinks_with_substeps():
    basis = cosine_basis(2, 3, 1.0)
    theta = np.array([2.0, 2.5, 0.0])
    n, delta_n = 20, 0.05
    m_fine = 8
    delta = delta_n / m_fine
    gen = rng.stream(5, rng.PATH)
    incr = math.sqrt(delta) * gen.standard_normal((n * m_fine, 2))

    def terminal(level: int) -> np.ndarray:
        agg = incr.reshape(1, -1, level, 2).sum(axis=2)
        path = np.empty((1, agg.shape[1] + 1, 2))
        _EulerStep(basis.drift_fn(theta), delta * level, np.zeros(2)).advance(np.zeros((1, 2)), agg, path)
        return path[0, -1]

    x2, x4, x8 = terminal(4), terminal(2), terminal(1)  # m = 2, 4, 8
    gap_coarse = np.linalg.norm(x2 - x4)
    gap_fine = np.linalg.norm(x4 - x8)
    assert gap_coarse >= 1.5 * gap_fine


def _euler_reference(drift, x0: np.ndarray, delta: float, noise: np.ndarray):
    """Plain per-step Euler loop on standard normals: the fine path, or the first step over the limit."""
    x = x0.copy()
    path = [x]
    for k in range(noise.shape[0]):
        x = x - drift(x) * delta + math.sqrt(delta) * noise[k]
        if np.max(np.abs(x)) > simulate.BLOWUP_LIMIT:
            return k + 1
        path.append(x)
    return np.array(path)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("family", ["cosine", "ou-linear"])
@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("burn", [0, 6])
def test_simulate_linear_is_bitwise_the_reference_loop(family, m, burn):
    basis, theta = small_linear_drift(family)
    n, delta_n, seed, d = 12, 0.05, 4, basis.d
    traj, rec = simulate_linear(
        basis, theta, 0.3, n, delta_n, substeps=m, seed=seed, burn_in=burn,
        record=RecordFlags(noise=True, fine=True),
    )
    bare, _ = simulate_linear(basis, theta, 0.3, n, delta_n, substeps=m, seed=seed, burn_in=burn)

    delta = delta_n / m
    noise = rng.stream(seed, rng.PATH).standard_normal(((burn + n) * m, d))
    path = _euler_reference(basis.drift_fn(theta), np.full(d, 0.3), delta, noise)[burn * m :]
    coarse_dw = np.zeros((n, d))
    for i in range(n):
        for k in range(m):
            coarse_dw[i] += math.sqrt(delta) * noise[(burn + i) * m + k]

    assert _bitwise_equal(traj.states, path[::m])
    assert _bitwise_equal(bare.states, path[::m])
    assert _bitwise_equal(rec.fine_states, np.stack([path[i * m : i * m + m + 1] for i in range(n)]))
    assert _bitwise_equal(rec.coarse_dw, coarse_dw)


def test_divergence_step_counts_from_the_first_burn_in_step():
    # b(x) = -20 x: each fine step of 0.05 doubles the state
    basis = ou_linear_basis(1)
    theta, m, burn, n, delta_n, seed = np.array([-20.0]), 2, 3, 50, 0.1, 0
    noise = rng.stream(seed, rng.PATH).standard_normal(((burn + n) * m, 1))
    first = _euler_reference(basis.drift_fn(theta), np.full(1, 1.2), delta_n / m, noise)
    assert isinstance(first, int) and first > burn * m  # diverges after the burn-in
    with pytest.raises(SimulationDiverged) as err:
        simulate_linear(basis, theta, 1.2, n, delta_n, substeps=m, seed=seed, burn_in=burn)
    assert err.value.step == first


def test_divergence_past_the_first_chunk_reports_the_reference_step():
    # b(x) = -0.1 x: each step of 0.05 grows the state by 0.5%, past the limit after ~3700 steps
    basis, theta, n, delta_n, seed = ou_linear_basis(1), np.array([-0.1]), 6000, 0.05, 3
    noise = rng.stream(seed, rng.PATH).standard_normal((n, 1))
    first = _euler_reference(basis.drift_fn(theta), np.full(1, 1.0), delta_n, noise)
    assert isinstance(first, int) and first > _chunk_steps(1, 1)
    with pytest.raises(SimulationDiverged) as err:
        simulate_linear(basis, theta, 1.0, n, delta_n, substeps=1, seed=seed)
    assert err.value.step == first


@pytest.mark.parametrize("x0", [np.nan, np.inf])
def test_non_finite_start_diverges_at_the_first_step(x0):
    basis, theta = small_linear_drift("cosine")
    with pytest.raises(SimulationDiverged) as err:
        simulate_linear(basis, theta, x0, 3000, 0.01, substeps=2, seed=1)
    assert err.value.step == 1


def test_simulate_linear_memory_does_not_grow_with_horizon():
    # only the n+1 observed states grow with n; at 500 substeps they are a
    # 500th of the fine path, which is stepped in chunks and dropped
    basis, theta = ou_linear_basis(1), np.array([1.0])

    def peak(n):
        tracemalloc.start()
        try:
            simulate_linear(basis, theta, 0.0, n, 0.5, substeps=500, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(20), peak(200)
    assert long <= 1.2 * short, (short, long)


def test_stationary_covariance_scalar_and_diagonal():
    assert np.allclose(stationary_covariance(0.5 * np.eye(3)), np.eye(3), atol=1e-12)
    c = stationary_covariance(np.diag([1.0, 2.0]))
    assert np.allclose(c, np.diag([0.5, 0.25]), atol=1e-12)


def test_stationary_covariance_matches_quadrature():
    gen = np.random.default_rng(9)
    a_mat = random_stable_matrix(gen, 4)
    c = stationary_covariance(a_mat)
    oracle = quadrature_exp_integral(a_mat)
    assert np.max(np.abs(c - oracle)) < 1e-6


def test_stationary_covariance_lyapunov_residual():
    gen = np.random.default_rng(10)
    for d in (2, 5, 12):
        a_mat = random_stable_matrix(gen, d)
        c = stationary_covariance(a_mat)
        assert np.max(np.abs(a_mat @ c + c @ a_mat.T - np.eye(d))) <= 1e-10
        assert np.min(np.linalg.eigvalsh(c)) > 0


def test_stationary_covariance_rejects_unstable():
    with pytest.raises(UnstableMatrix):
        stationary_covariance(np.diag([1.0, -0.2]))


# scipy serves the tests as an oracle only; the package itself imports none of it
_ORACLE_MATRICES = {
    "diagonal": lambda: np.diag([0.5, 1.0, 4.0]),
    "dense-nonnormal": lambda: _dense_nonnormal(),
    "defective": lambda: np.array([[1.0, 100.0], [0.0, 1.0]]),
    "d64": lambda: random_stable_matrix(np.random.default_rng(64), 64),
}


@pytest.mark.parametrize("a_kind", ["zero", *_ORACLE_MATRICES])
@pytest.mark.parametrize("dt", [1e-3, 0.1, 10.0])
def test_expm_matches_scipy(a_kind, dt):
    a_mat = np.zeros((4, 4)) if a_kind == "zero" else _ORACLE_MATRICES[a_kind]()
    got = _expm(-a_mat * dt)
    want = scipy.linalg.expm(-a_mat * dt)
    if a_kind == "zero":
        assert np.max(np.abs(got - np.eye(4))) <= 1e-12
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("a_kind", list(_ORACLE_MATRICES))
def test_stationary_covariance_matches_scipy(a_kind):
    a_mat = _ORACLE_MATRICES[a_kind]()
    d = a_mat.shape[0]
    got = stationary_covariance(a_mat)
    want = scipy.linalg.solve_continuous_lyapunov(a_mat, np.eye(d))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()
    assert np.max(np.abs(a_mat @ got + got @ a_mat.T - np.eye(d))) <= LYAPUNOV_TOL


def test_sign_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(simulate, "SIGN_MAX_ITER", 1)
    with pytest.raises(NumericDegeneracy, match="did not converge in 1 iterations"):
        stationary_covariance(_ORACLE_MATRICES["d64"]())


def test_package_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparsedrift.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, sparsedrift, sparsedrift.cli, sparsedrift.experiments; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_transition_covariance_limits():
    sigma_inf = transition_covariance(0.5 * np.eye(2), 100.0)
    assert np.max(np.abs(sigma_inf - np.eye(2))) < 1e-8
    sigma_small = transition_covariance(0.5 * np.eye(2), 0.01)
    expected = (1.0 - math.exp(-0.01)) * np.eye(2)
    assert np.max(np.abs(sigma_small - expected)) < 1e-12


def test_transition_covariance_matches_quadrature():
    gen = np.random.default_rng(12)
    a_mat = random_stable_matrix(gen, 3)
    sigma = transition_covariance(a_mat, 0.2)
    oracle = quadrature_exp_integral(a_mat, upper=0.2, panel=0.05)
    assert np.max(np.abs(sigma - oracle)) < 1e-8


def test_ou_exact_scalar_moments():
    traj, _ = simulate_ou_exact(np.array([[0.5]]), 200_000, 0.05, seed=4)
    x = traj.states[:, 0]
    batches = x[: 200 * (x.size // 200)].reshape(200, -1).var(axis=1)
    se = batches.std(ddof=1) / math.sqrt(batches.size)
    assert abs(x.var() - 1.0) <= 3 * se
    lag1 = np.mean(x[:-1] * x[1:])
    expected = math.exp(-0.5 * 0.05)
    assert abs(lag1 - expected) < 0.02


def test_ou_exact_diagonal_matches_scalar_recursion():
    a_vals = np.array([0.5, 1.5])
    n, dt = 500, 0.05
    traj, _ = simulate_ou_exact(np.diag(a_vals), n, dt, seed=20)
    gen = rng.stream(20, rng.PATH)
    x = np.sqrt(1.0 / (2 * a_vals)) * gen.standard_normal(2)  # sqrt(C_inf) z, the stationary start
    assert np.max(np.abs(x - traj.states[0])) < 1e-12
    z = gen.standard_normal((n, 2))
    coef = np.exp(-a_vals * dt)
    scale = np.sqrt((1.0 - np.exp(-2 * a_vals * dt)) / (2 * a_vals))
    for k in range(n):
        x = coef * x + scale * z[k]
        assert np.max(np.abs(x - traj.states[k + 1])) < 1e-12


def test_ou_exact_covariance_nonnormal():
    a_mat = np.array([[1.0, 0.8, 0.0], [0.0, 1.5, 0.5], [0.0, 0.0, 2.0]])
    traj, _ = simulate_ou_exact(a_mat, 100_000, 0.05, seed=13)
    x = traj.states[:-1]
    c_emp = x.T @ x / x.shape[0]
    c_inf = stationary_covariance(a_mat)
    prods = np.einsum("ti,tj->tij", x, x)
    batch = prods[: 100 * (x.shape[0] // 100)].reshape(100, -1, 3, 3).mean(axis=1)
    se = batch.std(axis=0, ddof=1) / math.sqrt(batch.shape[0])
    assert np.all(np.abs(c_emp - c_inf) <= 3 * se + 1e-12)


def test_ou_spectral_constants_examples():
    m = ou_spectral_constants(np.diag([1.0, 3.0]))
    assert m.m_frak == pytest.approx(1.0)
    assert m.p_frak == pytest.approx(1.0)
    assert np.allclose(m.c_inf, np.diag([0.5, 1.0 / 6.0]), atol=1e-12)
    assert m.l_min == pytest.approx(1.0 / 6.0)
    assert m.l_max == pytest.approx(0.5)
    assert m.a_frak == pytest.approx(0.5)

    ident = ou_spectral_constants(np.eye(2))
    assert ident.m_frak == pytest.approx(1.0)
    assert ident.l_min == pytest.approx(0.5)
    assert ident.l_max == pytest.approx(0.5)
    assert ident.a_frak == pytest.approx(0.5)

    # eigenvalues of [[1,-2],[2,1]] are 1 +- 2i (characteristic polynomial)
    rot = ou_spectral_constants(np.array([[1.0, -2.0], [2.0, 1.0]]))
    assert rot.m_frak == pytest.approx(1.0, abs=1e-12)
    assert rot.p_frak == pytest.approx(1.0, abs=1e-9)


def test_ou_spectral_constants_rejects_defective():
    with pytest.raises(DiagonalizationFailed):
        ou_spectral_constants(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_ou_exact_path_invariant_to_instrumentation():
    a_mat = np.array([[1.0, 0.3], [0.0, 1.5]])
    plain, _ = simulate_ou_exact(a_mat, 100, 0.05, seed=9, substeps=2)
    inst, rec = simulate_ou_exact(
        a_mat, 100, 0.05, seed=9, substeps=2, record=RecordFlags(noise=True, fine=True)
    )
    assert np.array_equal(plain.states, inst.states)
    assert rec.coarse_dw.shape == (100, 2)
    assert rec.fine_states.shape == (100, 3, 2)


def test_ou_transition_is_built_once_per_matrix_and_step(monkeypatch):
    solves = []
    original = simulate.stationary_covariance
    monkeypatch.setattr(simulate, "stationary_covariance", lambda a: solves.append(1) or original(a))
    a_mat = _dense_nonnormal()
    for seed in range(20):
        simulate_ou_exact(a_mat, 10, 0.05, seed=seed)
    assert len(solves) == 1
    # the recorded sampler builds the conditional law from the cached transition
    simulate_ou_exact(a_mat, 10, 0.05, seed=0, record=RecordFlags(noise=True))
    assert len(solves) == 1
    simulate_ou_exact(a_mat, 10, 0.1, seed=0)
    assert len(solves) == 2


def test_ou_transition_factors_are_read_only():
    step = simulate._ou_transition(_dense_nonnormal(), 0.05)
    for arr in step:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_ou_path_from_a_cache_hit_is_bitwise_a_fresh_build():
    a_mat = _dense_nonnormal()
    flags = RecordFlags(noise=True, fine=True)
    simulate_ou_exact(a_mat, 30, 0.1, seed=4, substeps=3, record=flags)
    hit = simulate_ou_exact(a_mat, 30, 0.1, seed=5, substeps=3, record=flags)
    simulate._cached_transition.cache_clear()
    fresh = simulate_ou_exact(a_mat, 30, 0.1, seed=5, substeps=3, record=flags)
    assert hit[0].states.tobytes() == fresh[0].states.tobytes()
    assert hit[1].coarse_dw.tobytes() == fresh[1].coarse_dw.tobytes()
    assert hit[1].fine_states.tobytes() == fresh[1].fine_states.tobytes()


def test_unstable_matrix_raises_on_every_call():
    unstable = np.diag([1.0, -0.2])
    for _ in range(3):
        with pytest.raises(UnstableMatrix):
            simulate_ou_exact(unstable, 10, 0.05, seed=0)
    simulate_ou_exact(np.diag([1.0, 0.2]), 10, 0.05, seed=0)  # a cached stable model changes nothing
    with pytest.raises(UnstableMatrix):
        simulate_ou_exact(unstable, 10, 0.05, seed=0)
    with pytest.raises(ValueError, match="finite"):
        simulate_ou_exact(np.diag([1.0, np.nan]), 10, 0.05, seed=0)


def _step_recursion(decay, x0, eta):
    """Reference for ou_propagate: one step of x <- decay x + eta_t at a time."""
    out = np.empty(eta.shape[:-2] + (eta.shape[-2] + 1, eta.shape[-1]))
    out[..., 0, :] = x = x0
    for t in range(eta.shape[-2]):
        x = x @ decay.T + eta[..., t, :]
        out[..., t + 1, :] = x
    return out


def _dense_nonnormal():
    a_mat = np.array([[1.0, -2.0, 0.5], [2.0, 1.0, 3.0], [0.2, -0.4, 1.5]])
    eigs = np.linalg.eigvals(a_mat)
    assert eigs.real.min() > 0 and np.abs(eigs.imag).max() > 1.0
    assert not np.allclose(a_mat @ a_mat.T, a_mat.T @ a_mat)
    return a_mat


@pytest.mark.parametrize("a_kind", ["diagonal", "dense-nonnormal", "d64"])
@pytest.mark.parametrize("length", [1, 97, 50, 400])  # 97 is prime; 50 = 6*8 + 2 with B = 8
@pytest.mark.parametrize("batch", [(), (3,), (8,)])  # d64 at batch 8 steps the plain recursion
def test_ou_propagate_matches_step_recursion(a_kind, length, batch):
    gen = np.random.default_rng(length)
    a_mat = {
        "diagonal": lambda: np.diag([0.5, 1.0, 4.0]),
        "dense-nonnormal": _dense_nonnormal,
        "d64": lambda: random_stable_matrix(gen, 64),
    }[a_kind]()
    d = a_mat.shape[0]
    decay = scipy.linalg.expm(-0.05 * a_mat)
    x0 = gen.normal(size=batch + (d,))
    eta = gen.normal(size=batch + (length, d))
    want = _step_recursion(decay, x0, eta)
    got = ou_propagate(decay, x0, eta.copy())
    assert got.shape == batch + (length + 1, d)
    assert np.array_equal(got[..., 0, :], x0)
    # entries near zero carry the rounding of their larger neighbours
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_ou_exact_fine_states_bracket_coarse_states():
    a_mat = _dense_nonnormal()
    n, delta_n, m, seed = 40, 0.1, 3, 17
    traj, rec = simulate_ou_exact(
        a_mat, n, delta_n, seed=seed, substeps=m, record=RecordFlags(noise=True, fine=True)
    )
    assert np.array_equal(rec.fine_states[:, 0], traj.states[:-1])
    assert np.array_equal(rec.fine_states[:, -1], traj.states[1:])

    # the fine Brownian increments, drawn as simulate_ou_exact documents: eta
    # from the path stream after the initial state, DW | eta from the auxiliary one
    d, dt = 3, delta_n / m
    step = simulate._ou_transition(a_mat, dt)  # the cached factors the sampler used
    decay, sigma = step.decay, step.sigma
    gen = rng.stream(seed, rng.PATH)
    gen.standard_normal(d)
    eta = gen.standard_normal((n * m, d)) @ _sym_sqrt(sigma).T
    psi = np.linalg.solve(a_mat, np.eye(d) - decay)
    b_cond = np.linalg.solve(sigma, psi).T
    aux = rng.stream(seed, rng.NOISE_AUX).standard_normal((n * m, d))
    dw_fine = eta @ b_cond.T + aux @ _sym_sqrt(dt * np.eye(d) - b_cond @ psi).T
    coarse = np.zeros((n, d))
    for step in range(n * m):
        coarse[step // m] += dw_fine[step]
    np.testing.assert_array_equal(rec.coarse_dw, coarse)


def test_trajectory_roundtrip_csv_binary(tmp_path):
    traj, _ = simulate_ou_exact(np.diag([1.0, 2.0]), 25, 0.1, seed=3)
    csv_path = tmp_path / "t.csv"
    bin_path = tmp_path / "t.bin"
    trajectory_to_csv(traj, str(csv_path))
    trajectory_to_binary(traj, str(bin_path))
    back_csv = trajectory_from_csv(str(csv_path))
    back_bin = trajectory_from_binary(str(bin_path))
    assert np.array_equal(back_csv.states, traj.states)
    assert back_csv.delta_n == traj.delta_n
    assert np.array_equal(back_bin.states, traj.states)
    assert back_bin.delta_n == traj.delta_n
    assert back_bin.seed == 3
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x_1,x_2"


def test_trajectory_invariants():
    traj = Trajectory(states=np.zeros((5, 2)), delta_n=0.25)
    assert traj.n == 4
    assert traj.T == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(traj.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        Trajectory(states=np.array([[np.inf, 0.0], [0.0, 0.0]]), delta_n=0.1)
