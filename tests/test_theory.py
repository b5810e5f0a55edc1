import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import cone_membership, ou_oracle_lhs, random_stable_matrix, small_linear_drift
from sparsedrift.errors import InstrumentationRequired
from sparsedrift.estimate import GramSystem, build_gram
from sparsedrift.model import cosine_basis, generate_sparse_param, ou_linear_basis
from sparsedrift import rng, simulate, theory
from sparsedrift.simulate import (
    NoiseRecord,
    OUModel,
    RecordFlags,
    ou_spectral_constants,
    simulate_linear,
    simulate_ou_exact,
)
from sparsedrift.theory import (
    ModelConstants,
    concentration_audit_linear,
    concentration_audit_ou,
    cone_lower_bound,
    cone_restricted_min,
    cosine_constants,
    estimate_second_moment,
    event_statistics,
    h0,
    oracle_check,
    ou_tail_bound,
    rate_regime,
    tuning_constants_linear,
    tuning_constants_ou,
    _lambda11,
    _lambda1_ou,
)

mpmath.mp.dps = 50


# ---------------------------------------------------------------------------
# Tuning constants
# ---------------------------------------------------------------------------


def test_lambda11_unit_inputs():
    # unit construction: all factors one except the leading 23
    assert _lambda11(1, 1.0, 1.0, 1, 1.0) == pytest.approx(23.0, rel=1e-15)


def test_lambda2_unit_construction():
    # p=1 and eps=1/e make the log factor exactly one
    mc = ModelConstants(L=1, M=1, R=1, H_dn=1, K_dn=1, C_b=1, l=1, gamma=1)
    tc = tuning_constants_linear(mc, d=1, p=1, n=5, s=1, delta_n=1.0, epsilon=1.0 / math.e)
    assert tc.lambda_2 == pytest.approx(8.0 * math.e, rel=1e-14)


def test_lambda1_ou_unit_construction():
    assert _lambda1_ou(1.0, 1.0, 32, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_beta_gamma_four():
    ou = ou_spectral_constants(np.diag([1.0, 2.0]))
    tc = tuning_constants_ou(ou, n=100, s=2, delta_n=0.1, epsilon=0.1, gamma=4.0)
    assert tc.beta == pytest.approx(324.0, rel=1e-15)


def _mp_linear_constants(d, p, n, s, delta_n, eps, mc):
    log1 = mpmath.log(2 * p) + mpmath.log(2 / mpmath.mpf(eps))
    lam11 = 23 * mpmath.sqrt(d * mc.R * mpmath.mpf(delta_n) / n * log1)
    lam12 = 7 * (d**2 * mc.H_dn * mpmath.mpf(delta_n) / n**3 * log1**3) ** mpmath.mpf("0.25")
    lam2 = (
        8
        * mpmath.e
        * mpmath.sqrt(mc.C_b)
        * s
        * d
        * mpmath.mpf(delta_n) ** mpmath.mpf("1.5")
        * mpmath.sqrt(mpmath.log(p) + mpmath.log(1 / mpmath.mpf(eps)))
    )
    log_alpha = 2 * s * mpmath.log(21) + 2 * s * min(
        mpmath.log(p), 1 + mpmath.log(p) - mpmath.log(2 * s)
    )
    t1 = (
        324
        * d
        * mc.K_dn
        * (5 + 4 / mpmath.mpf(mc.gamma)) ** 4
        / (mc.l - mpmath.mpf(mc.k) ** 2) ** 2
        * (mpmath.log(2 / mpmath.mpf(eps)) + log_alpha)
    )
    return lam11, lam12, lam2, t1


def test_linear_constants_match_high_precision_evaluation():
    mc = ModelConstants(L=1.0, M=1.0, R=1.0, H_dn=1.0, K_dn=1.0, C_b=1.0, l=1.0, k=0.5, gamma=1.0)
    tc = tuning_constants_linear(mc, d=10, p=30, n=700, s=9, delta_n=0.01, epsilon=0.1)
    lam11, lam12, lam2, t1 = _mp_linear_constants(10, 30, 700, 9, 0.01, 0.1, mc)
    assert tc.lambda_11 == pytest.approx(float(lam11), rel=1e-12)
    assert tc.lambda_12 == pytest.approx(float(lam12), rel=1e-12)
    assert tc.lambda_1 == pytest.approx(float(max(lam11, lam12)), rel=1e-12)
    assert tc.lambda_2 == pytest.approx(float(lam2), rel=1e-12)
    assert tc.t_1 == pytest.approx(float(t1), rel=1e-12)
    assert all(np.isfinite([tc.lambda_1, tc.lambda_2, tc.t_1]))


def test_ou_constants_match_high_precision_evaluation():
    ou = ou_spectral_constants(np.diag([1.0, 1.5, 2.0, 2.5, 3.0]))
    k = math.sqrt(ou.l_min) / 2.0
    tc = tuning_constants_ou(ou, n=1000, s=5, delta_n=0.01, epsilon=0.1, gamma=1.0, k=k)
    d, s, n, eps = 5, 5, 1000, mpmath.mpf("0.1")
    var_term = mpmath.mpf(ou.a_frak) + mpmath.mpf(ou.l_min) - mpmath.mpf(k) ** 2
    lam1 = mpmath.sqrt(32 * mpmath.mpf("0.01") * var_term * (mpmath.log(d**2) + mpmath.log(2 / eps)) / n)
    lam2 = (
        8 * mpmath.e * d * mpmath.mpf("0.01") ** mpmath.mpf("1.5")
        * mpmath.sqrt(mpmath.log(d**2) + mpmath.log(1 / eps))
    )
    beta = 9 * (5 + 4) ** 2
    gap = mpmath.mpf(ou.l_min) - mpmath.mpf(k) ** 2
    log_alpha = 2 * s * mpmath.log(21) + mpmath.log(2 * d) + min(
        4 * s * mpmath.log(d), 2 * s * (1 + 2 * mpmath.log(d) - mpmath.log(2 * s))
    )
    t1 = (
        8 * mpmath.mpf(ou.p_frak) * mpmath.mpf(ou.l_max) * beta
        * (gap + beta * mpmath.mpf(ou.l_max))
        / (mpmath.mpf(ou.m_frak) * gap**2)
        * (log_alpha + mpmath.log(1 / eps))
    )
    assert tc.lambda_1 == pytest.approx(float(lam1), rel=1e-12)
    assert tc.lambda_2 == pytest.approx(float(lam2), rel=1e-12)
    assert tc.t_1 == pytest.approx(float(t1), rel=1e-12)


def test_constants_are_pure():
    mc = ModelConstants(L=2.0, M=0.5, R=1.2, H_dn=3.0, K_dn=2.0, C_b=1.0, l=0.8, gamma=2.0)
    a = tuning_constants_linear(mc, d=4, p=12, n=300, s=3, delta_n=0.05, epsilon=0.2)
    b = tuning_constants_linear(mc, d=4, p=12, n=300, s=3, delta_n=0.05, epsilon=0.2)
    assert (a.lambda_1, a.lambda_2, a.t_1) == (b.lambda_1, b.lambda_2, b.t_1)


def test_constants_monotonicity():
    mc = ModelConstants(L=1, M=1, R=1, H_dn=1, K_dn=1, C_b=1, l=1.0, k=0.5, gamma=1.0)
    base = tuning_constants_linear(mc, d=4, p=20, n=500, s=3, delta_n=0.02, epsilon=0.1)
    more_d = tuning_constants_linear(mc, d=8, p=20, n=500, s=3, delta_n=0.02, epsilon=0.1)
    more_p = tuning_constants_linear(mc, d=4, p=40, n=500, s=3, delta_n=0.02, epsilon=0.1)
    finer = tuning_constants_linear(mc, d=4, p=20, n=500, s=3, delta_n=0.01, epsilon=0.1)
    assert more_d.lambda_11 > base.lambda_11
    assert more_p.lambda_11 > base.lambda_11
    assert finer.lambda_11 < base.lambda_11  # increasing in delta_n
    assert more_d.lambda_2 > base.lambda_2
    assert more_d.t_1 > base.t_1
    mc_r2 = ModelConstants(L=1, M=1, R=2, H_dn=1, K_dn=1, C_b=1, l=1.0, k=0.5, gamma=1.0)
    assert tuning_constants_linear(mc_r2, d=4, p=20, n=500, s=3, delta_n=0.02, epsilon=0.1).lambda_11 > base.lambda_11
    mc_tight = ModelConstants(L=1, M=1, R=1, H_dn=1, K_dn=1, C_b=1, l=1.0, k=0.9, gamma=1.0)
    assert tuning_constants_linear(mc_tight, d=4, p=20, n=500, s=3, delta_n=0.02, epsilon=0.1).t_1 > base.t_1
    more_s = tuning_constants_linear(mc, d=4, p=20, n=500, s=6, delta_n=0.02, epsilon=0.1)
    assert more_s.lambda_2 > base.lambda_2


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        ModelConstants(L=1, M=1, R=1, H_dn=1, K_dn=1, C_b=1, l=1.0, k=1.2, gamma=1.0)
    mc = ModelConstants(L=1, M=1, R=1, H_dn=1, K_dn=1)
    with pytest.raises(ValueError):
        tuning_constants_linear(mc, d=2, p=4, n=10, s=1, delta_n=0.1, epsilon=1.5)
    ou = ou_spectral_constants(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        tuning_constants_ou(ou, n=100, s=1, delta_n=0.1, epsilon=0.1, k=math.sqrt(ou.l_min))


def test_model_constants_default_k():
    mc = ModelConstants(L=1, M=1, R=1, H_dn=1, K_dn=1, l=4.0)
    assert mc.k == pytest.approx(1.0)


def test_cosine_constants_derivation():
    basis = cosine_basis(3, 4, 0.5)
    theta0 = np.array([2.0, 0.0, 0.0, 3.0])
    mc = cosine_constants(basis, theta0, 0.05, second_moment=0.4, M=1.0)
    # drift Lipschitz bound: 3*0.5 + 2*2 + 3*5
    assert mc.L == pytest.approx(1.5 + 2.0 * 2.0 + 3.0 * 5.0)
    assert mc.R == pytest.approx(2.0 * (1.0 + 0.4))
    tilde_lip = 5.0  # max_j (j+1)
    expected_h = 32 * 0.05**2 * math.exp(4 * mc.L * 0.05) * tilde_lip**2 / (1 - math.exp(-0.05)) ** 2
    assert mc.H_dn == pytest.approx(expected_h, rel=1e-12)


# ---------------------------------------------------------------------------
# H0
# ---------------------------------------------------------------------------


def _toy_ou(m=8.0, p0=1.0, lmin=1.0, lmax=1.0, a=1.0):
    return OUModel(A=np.eye(2), c_inf=np.eye(2), m_frak=m, p_frak=p0, l_min=lmin, l_max=lmax, a_frak=a)


def test_h0_exact_example():
    assert h0(1.0, _toy_ou()) == pytest.approx(0.5, abs=1e-15)


def test_h0_small_x_limit():
    ou = _toy_ou(m=3.0, p0=2.0, lmax=0.7)
    x = 1e-6
    limit = ou.m_frak / (8 * ou.p_frak * ou.l_max**2)
    assert h0(x, ou) / x**2 == pytest.approx(limit, rel=1e-4)


def test_h0_matches_high_precision_and_shape():
    gen = np.random.default_rng(40)
    ou = ou_spectral_constants(random_stable_matrix(gen, 3))
    xs = np.linspace(0.05, 3.0, 40)
    vals = h0(xs, ou)
    for x, v in zip(xs, vals):
        ref = (
            mpmath.mpf(ou.m_frak)
            / (8 * mpmath.mpf(ou.p_frak) * mpmath.mpf(ou.l_max))
            * mpmath.mpf(x) ** 2
            / (mpmath.mpf(x) + mpmath.mpf(ou.l_max))
        )
        assert v == pytest.approx(float(ref), rel=1e-14)
    assert np.all(np.diff(vals) > 0)  # strictly increasing
    assert np.all(np.diff(vals, 2) > -1e-12)  # convex beyond the origin
    with pytest.raises(ValueError):
        h0(0.0, ou)


# ---------------------------------------------------------------------------
# Event statistics
# ---------------------------------------------------------------------------


def test_event_statistics_zero_cases():
    a_mat = np.diag([1.0, 2.0])
    traj, rec = simulate_ou_exact(
        a_mat, 50, 0.05, seed=41, substeps=2, record=RecordFlags(noise=True, fine=True)
    )
    basis = ou_linear_basis(2)
    gram = build_gram(traj, basis)
    # zero drift parameter makes the discretization statistic vanish exactly
    st = event_statistics(
        traj, rec, basis, np.zeros(4), s=2, gamma=1.0, budget=16, seed=41, lam=1.0, k=0.1, gram=gram
    )
    assert st.stat_Tp == 0.0
    # zero recorded noise makes the martingale statistic vanish exactly
    zero_rec = NoiseRecord(
        coarse_dw=np.zeros_like(rec.coarse_dw), fine_states=rec.fine_states, substeps=rec.substeps
    )
    st2 = event_statistics(
        traj, zero_rec, basis, np.zeros(4), s=2, gamma=1.0, budget=16, seed=41, lam=1.0, k=0.1, gram=gram
    )
    assert st2.stat_T == 0.0


def test_event_statistics_requires_instrumentation():
    a_mat = np.diag([1.0, 2.0])
    traj, _ = simulate_ou_exact(a_mat, 30, 0.05, seed=42)
    basis = ou_linear_basis(2)
    gram = build_gram(traj, basis)
    # no record; a fine sub-path without increments; increments without the fine sub-path
    _, fine_only = simulate_ou_exact(a_mat, 30, 0.05, seed=42, record=RecordFlags(fine=True))
    _, noise_only = simulate_ou_exact(a_mat, 30, 0.05, seed=42, record=RecordFlags(noise=True))
    for rec in (None, fine_only, noise_only):
        with pytest.raises(InstrumentationRequired):
            event_statistics(
                traj, rec, basis, np.zeros(4), s=1, gamma=1.0, budget=8, seed=0, lam=1.0, k=0.1, gram=gram
            )


def test_event_statistics_flags_and_khat_bound():
    a_mat = np.diag([1.0, 1.5, 2.0])
    traj, rec = simulate_ou_exact(
        a_mat, 400, 0.02, seed=43, substeps=2, record=RecordFlags(noise=True, fine=True)
    )
    basis = ou_linear_basis(3)
    gram = build_gram(traj, basis)
    st = event_statistics(
        traj, rec, basis, a_mat.flatten(order="F"), s=3, gamma=1.0, budget=32, seed=43,
        lam=1.0, k=0.05, gram=gram,
    )
    assert st.holds_T is True and st.holds_Tp is True
    assert st.holds_Tpp is True and st.Tpp_certified is True
    eig = np.linalg.eigvalsh(gram.gram)
    assert st.k_hat**2 <= eig[-1] + 1e-12
    assert st.k_lower == math.sqrt(max(eig[0], 0.0))
    assert 0.05 <= st.k_lower <= st.k_hat


def test_event_statistics_uncertified_tpp_when_bracket_straddles_k():
    # G = diag(1, 1, 1, 0): e_4 lies in the cone, so the cone infimum is 0 and
    # T'' fails; 4 sampled directions (C(4, 2) = 6 supports exceed the budget)
    # miss e_4 and bound it from above by a positive k_hat
    traj, rec = simulate_ou_exact(
        np.diag([1.0, 2.0]), 30, 0.05, seed=42, record=RecordFlags(noise=True, fine=True)
    )
    basis = ou_linear_basis(2)
    gram = GramSystem(np.diag([1.0, 1.0, 1.0, 0.0]), np.zeros(4), 0.0, traj.delta_n)
    k_hat = cone_restricted_min(gram.gram, s=1, gamma=1.0, budget=4, seed=3)

    def stats_at(k):
        return event_statistics(
            traj, rec, basis, np.zeros(4), s=1, gamma=1.0, budget=4, seed=3, lam=1.0, k=k, gram=gram
        )

    st = stats_at(k_hat)
    assert st.k_lower == 0.0 < st.k_hat == k_hat
    assert st.holds_Tpp is False and st.Tpp_certified is False
    # a k above k_hat is decided: the sampled direction certifies the failure
    st = stats_at(2.0 * k_hat)
    assert st.holds_Tpp is False and st.Tpp_certified is True


@pytest.mark.parametrize("family", ["cosine", "ou-linear"])
def test_event_statistics_match_the_einsum_reference(family):
    # n = 10000 spans two chunks of the accumulation at p = 7
    basis, theta = small_linear_drift(family)
    n, delta_n, m = 10000, 0.01, 2
    traj, rec = simulate_linear(
        basis, theta, np.zeros(3), n, delta_n, substeps=m, seed=45,
        record=RecordFlags(noise=True, fine=True),
    )
    st = event_statistics(
        traj, rec, basis, theta, s=2, gamma=1.0, budget=4, seed=45, lam=1.0, k=0.1, gram=build_gram(traj, basis)
    )

    phi = basis.phi_batch(traj.states[:-1])
    drift = basis.drift_fn(theta)
    left = rec.fine_states[:, :-1]
    b_fine = drift(left.reshape(-1, 3)).reshape(left.shape)
    integral = (delta_n / m) * (b_fine - drift(traj.states[:-1])[:, None, :]).sum(axis=1)
    for got, noise in ((st.stat_T, rec.coarse_dw), (st.stat_Tp, integral)):
        want = np.max(np.abs(np.einsum("idp,id->p", phi, noise))) / n
        assert abs(got - want) <= 1e-12 * want


def test_cone_restricted_min_exact_enumeration():
    g = np.diag([1.0, 2.0, 3.0, 0.09])
    k_hat = cone_restricted_min(g, s=1, gamma=1.0, budget=200, seed=7)
    # supports of size 2 include {0, 3}: min restricted eigenvalue 0.09
    assert k_hat <= math.sqrt(0.09) + 1e-12
    assert k_hat >= 0.0
    again = cone_restricted_min(g, s=1, gamma=1.0, budget=200, seed=7)
    assert k_hat == again  # deterministic per seed


@pytest.mark.parametrize("p, s, gamma", [(25, 5, 1.0), (30, 3, 0.5), (7, 1, 4.0), (6, 6, 1.0)])
def test_cone_directions_lie_in_the_cone_with_spill_below_c(p, s, gamma):
    c = 3.0 + 4.0 / gamma
    u, core = theory._cone_directions(p, s, c, 512, seed=11)
    assert len(u) == 512  # the construction never leaves the cone
    assert np.all(core.sum(axis=1) == min(s, p))
    assert all(cone_membership(row, s, c) for row in u)
    mag = np.abs(u)
    spill = np.where(core, 0.0, mag).sum(axis=1) / (c * np.where(core, mag, 0.0).sum(axis=1))
    assert np.all((spill >= 0.0) & (spill < 1.0))
    if s < p:
        assert spill.max() > 0.9 and spill.min() < 0.1  # w spreads over [0, 1)


def test_cone_directions_core_is_a_uniform_subset():
    p, s, rows = 12, 4, 8192
    _, core = theory._cone_directions(p, s, 7.0, rows, seed=5)
    q = s / p
    se = math.sqrt(q * (1.0 - q) / rows)
    assert np.all(np.abs(core.mean(axis=0) - q) <= 4.0 * se)


def test_cone_sampler_is_deterministic_per_seed():
    a = rng.stream(9, rng.PARAM).standard_normal((40, 20))
    g = a.T @ a / 40.0
    first = cone_restricted_min(g, s=3, gamma=1.0, budget=64, seed=21)
    assert cone_restricted_min(g, s=3, gamma=1.0, budget=64, seed=21) == first
    assert cone_restricted_min(g, s=3, gamma=1.0, budget=64, seed=22) != first
    u21, _ = theory._cone_directions(20, 3, 7.0, 64, seed=21)
    np.testing.assert_array_equal(theory._cone_directions(20, 3, 7.0, 64, seed=21)[0], u21)
    assert not np.array_equal(theory._cone_directions(20, 3, 7.0, 64, seed=22)[0], u21)


def test_cone_lower_bound_never_exceeds_sampled_upper_bound():
    gen = rng.stream(13, rng.PARAM)
    for trial in range(20):
        p = int(gen.integers(3, 30))
        s = int(gen.integers(1, p))
        a = gen.standard_normal((int(gen.integers(2, 2 * p)), p))
        g = a.T @ a / a.shape[0]
        assert cone_lower_bound(g) <= cone_restricted_min(g, s, 1.0, 64, seed=trial)
    # a cosine Gram of 3 observations in d=2 has rank <= 6 < p = 10
    basis = cosine_basis(2, 10, 0.5)
    theta0 = generate_sparse_param(10, 0.5, rng.stream(14, rng.PARAM))
    traj, _ = simulate_linear(basis, theta0, 0.0, 3, 0.1, seed=15)
    g = build_gram(traj, basis).gram
    assert np.linalg.matrix_rank(g) <= 6
    k_lower = cone_lower_bound(g)
    assert k_lower < 1e-6
    assert k_lower <= cone_restricted_min(g, 3, 1.0, 64, seed=16)


def test_stat_tp_quadrature_converges_in_substeps():
    gen = rng.stream(3, rng.PARAM)
    theta0 = generate_sparse_param(4, 0.5, gen)
    basis = cosine_basis(2, 4, 0.5)
    traj, rec8 = simulate_linear(
        basis, theta0, 0.0, 40, 0.1, substeps=8, seed=44, record=RecordFlags(noise=True, fine=True)
    )

    gram = build_gram(traj, basis)

    def stat_at(stride: int) -> float:
        sub = NoiseRecord(
            coarse_dw=rec8.coarse_dw,
            fine_states=rec8.fine_states[:, ::stride, :],
            substeps=8 // stride,
        )
        return event_statistics(
            traj, sub, basis, theta0, s=2, gamma=1.0, budget=4, seed=44, lam=1.0, k=0.1, gram=gram
        ).stat_Tp

    s8, s4, s2 = stat_at(1), stat_at(2), stat_at(4)
    assert abs(s2 - s4) >= 1.5 * abs(s4 - s8)


def test_martingale_event_frequency_linear_family():
    # the noise event stat_T <= lambda_1/4 holds in >= 1-eps of replications
    # when lambda_1 comes from the threshold formula
    d, p, n, dn, eps, reps = 3, 8, 300, 0.02, 0.1, 100
    basis = cosine_basis(d, p, 0.4)
    theta0 = generate_sparse_param(p, 0.5, rng.stream(60, rng.PARAM))
    calib, _ = simulate_linear(basis, theta0, 0.0, n, dn, substeps=2, seed=61, burn_in=30)
    mc = cosine_constants(
        basis, theta0, dn, second_moment=estimate_second_moment(calib), M=1.0
    )
    tc = tuning_constants_linear(mc, d=d, p=p, n=n, s=4, delta_n=dn, epsilon=eps)
    holds = 0
    for rep in range(reps):
        traj, rec = simulate_linear(
            basis, theta0, 0.0, n, dn, substeps=2, seed=62 ^ rep, burn_in=30,
            record=RecordFlags(noise=True, fine=True),
        )
        st = event_statistics(
            traj, rec, basis, theta0, s=4, gamma=1.0, budget=4, seed=62 ^ rep,
            lam=tc.lambda_1, k=tc.k, gram=build_gram(traj, basis),
        )
        holds += st.holds_T
    se = math.sqrt(eps * (1 - eps) / reps)
    assert holds / reps >= 1 - eps - 3 * se


# ---------------------------------------------------------------------------
# Concentration audits
# ---------------------------------------------------------------------------


def test_linear_audit_table_properties():
    a_mat = np.array([[1.0, 0.2], [0.0, 1.0]])
    basis = ou_linear_basis(2)
    theta0 = a_mat.flatten(order="F")
    m_const = float(np.linalg.eigvalsh(0.5 * (a_mat + a_mat.T)).min())
    l_const = float(np.linalg.norm(a_mat, 2))
    r_grid = [0.0, 0.25, 0.5, 1.0, 2.0]
    table = concentration_audit_linear(
        basis, theta0, L=l_const, M=m_const,
        f=lambda x: np.clip(x[:, 0], -10, 10), f_lip=1.0,
        r_grid=r_grid, n=300, delta_n=0.02, reps=400, seed=45,
    )
    assert table.bound[0] == 1.0  # r = 0 row
    assert np.all(np.diff(table.bound) < 0)  # strictly decreasing in r
    assert np.all((table.empirical >= 0) & (table.empirical <= 1))
    # bound column recomputation from the formula
    for r, b in zip(table.x, table.bound):
        ref = math.exp(
            -(r**2) * 300 * (1 - math.exp(-m_const * 0.02)) ** 2
            / (64 * 2 * 1.0 * 0.02 * math.exp(4 * l_const * 0.02))
        )
        assert b == pytest.approx(ref, rel=1e-14, abs=1e-300)
    assert np.all(table.empirical <= table.bound + 3 * table.se)


def test_batched_f_average_calls_f_once_per_chunk_and_equals_the_per_step_sum(monkeypatch):
    basis, theta = small_linear_drift("cosine")
    n, delta_n, m, burn, seed, reps = 30, 0.05, 3, 4, 23, [0, 5, 9]
    monkeypatch.setattr(simulate, "_chunk_steps", lambda batch, d: 7)  # 13 chunks of 2 or 3 observed steps
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.tanh(x).sum(axis=1)

    got = theory._batched_euler_f_average(basis, theta, np.full(basis.d, 0.2), n, delta_n, m, burn, f, reps, seed)
    assert len(calls) == -(-n * m // 7) and all(shape[0] in (2 * len(reps), 3 * len(reps)) for shape in calls)
    # reference: one call of f per observed step, each added to the running sum in time order
    for r, value in zip(reps, got):
        traj, _ = simulate_linear(basis, theta, 0.2, n, delta_n, substeps=m, seed=seed ^ r, burn_in=burn)
        acc = np.zeros(1)
        for x in traj.states[1:]:
            np.add(acc, np.tanh(x[None, :]).sum(axis=1), out=acc)
        assert (acc / n).tobytes() == np.array([value]).tobytes()


@pytest.mark.parametrize("family", ["cosine", "ou-linear"])
def test_batched_f_average_is_bitwise_each_replication_alone(family):
    basis, theta = small_linear_drift(family)
    f = lambda x: np.tanh(x).sum(axis=1)
    n, delta_n, m, burn, seed = 30, 0.05, 3, 4, 17
    args = (basis, theta, np.full(basis.d, 0.2), n, delta_n, m, burn, f)
    together = theory._batched_euler_f_average(*args, list(range(20)), seed)
    alone = np.concatenate([theory._batched_euler_f_average(*args, [r], seed) for r in range(20)])
    assert together.tobytes() == alone.tobytes()
    # and each is the average of f over the observed states of simulate_linear's path
    for r in (0, 13):
        traj, _ = simulate_linear(basis, theta, 0.2, n, delta_n, substeps=m, seed=seed ^ r, burn_in=burn)
        acc = np.zeros(1)
        for x in traj.states[1:]:
            acc += f(x[None, :])
        assert (acc / n).tobytes() == alone[r : r + 1].tobytes()


def test_ou_audit_bound_anchor_points():
    ou = ou_spectral_constants(np.diag([1.0, 2.0, 3.0]))
    n, delta_n = 1000, 0.1
    # x solving n*Dn*H0(x) = ln 2 gives bound exactly 1
    c = ou.m_frak / (8 * ou.p_frak * ou.l_max)
    t = n * delta_n * c
    x_one = (math.log(2) + math.sqrt(math.log(2) ** 2 + 4 * t * math.log(2) * ou.l_max)) / (2 * t)
    assert ou_tail_bound(x_one, n, delta_n, ou) == pytest.approx(1.0, rel=1e-12)
    assert ou_tail_bound(50.0, n, delta_n, ou) < 1e-200


def test_ou_audit_table():
    ou = ou_spectral_constants(np.diag([1.0, 2.0, 3.0]))
    table = concentration_audit_ou(
        ou, n=1000, delta_n=0.1, x_grid=[0.05, 0.1, 0.2, 0.5], reps=300, seed=46
    )
    assert np.all(table.empirical <= table.bound + 3 * table.se)
    for x, b in zip(table.x, table.bound):
        ref = 2 * math.exp(-1000 * 0.1 * (ou.m_frak / (8 * ou.p_frak * ou.l_max) * x**2 / (x + ou.l_max)))
        assert b == pytest.approx(ref, rel=1e-14)
    with pytest.raises(ValueError):
        concentration_audit_ou(ou, n=100, delta_n=0.1, x_grid=[0.1], reps=50, seed=0)


def test_linear_audit_memory_does_not_grow_with_horizon():
    basis = ou_linear_basis(2)
    theta0 = np.array([1.0, 0.0, 0.2, 1.0])

    def peak(n):
        tracemalloc.start()
        try:
            concentration_audit_linear(
                basis, theta0, L=1.1, M=0.9, f=lambda x: np.clip(x[:, 0], -10, 10), f_lip=1.0,
                r_grid=[0.1, 0.5], n=n, delta_n=0.02, reps=20, seed=8, calibration_steps=5000,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the short horizon already spans more than one chunk of the 20 replications
    assert simulate._chunk_steps(20, 2) < 3000
    short, long = peak(3000), peak(30_000)
    assert long <= 1.2 * short, (short, long)


def test_ou_audit_memory_does_not_grow_with_horizon():
    ou = ou_spectral_constants(random_stable_matrix(np.random.default_rng(3), 4))

    def peak(n):
        tracemalloc.start()
        try:
            concentration_audit_ou(ou, n=n, delta_n=0.1, x_grid=[0.1, 0.5], reps=100, seed=7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the short horizon already spans more than one chunk of the 100 replications
    assert simulate._chunk_steps(100, 4) < 2000
    short, long = peak(2000), peak(20_000)
    assert long <= 1.2 * short, (short, long)


# ---------------------------------------------------------------------------
# Oracle check and rate regimes
# ---------------------------------------------------------------------------


def test_oracle_check_trivial_holds():
    basis = cosine_basis(2, 3, 0.5)
    theta0 = np.zeros(3)
    for r in range(20):
        traj, _ = simulate_linear(basis, theta0, 0.0, 40, 0.05, substeps=10, seed=47 ^ r)
        lhs, rhs, holds = oracle_check(build_gram(traj, basis), theta0, 50.0, 0.5, 1.0, 1)
        # theta0 = 0 and lambda above threshold: the fit is zero, so lhs = 0
        assert lhs == 0.0 and rhs > 0.0 and holds


def test_oracle_check_holds_on_small_ou():
    a_mat = np.diag([1.0, 2.0])
    ou = ou_spectral_constants(a_mat)
    k = math.sqrt(ou.l_min) / 2
    basis = ou_linear_basis(2)
    for r in range(20):
        traj, _ = simulate_ou_exact(a_mat, 200, 0.05, seed=48 ^ r)
        gram = build_gram(traj, basis)
        lhs, rhs, holds = oracle_check(gram, a_mat.flatten(order="F"), 0.5, k, 1.0, 2)
        assert holds
        assert lhs == pytest.approx(ou_oracle_lhs(traj, a_mat, 0.5)[0], rel=1e-12)


def test_rate_regime_examples():
    r = rate_regime(5, 1000, 0.1)
    assert r.value == pytest.approx(25 * 1000 * 0.01) and r.tag == "discretization-dominated"
    r = rate_regime(1, 100, 0.001)
    assert r.value == pytest.approx(1e-4) and r.tag == "martingale-dominated"
    assert rate_regime(1, 10, 0.1).tag == "boundary"
    with pytest.raises(ValueError):
        rate_regime(0, 10, 0.1)
