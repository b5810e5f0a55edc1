"""Tuning thresholds, event-set statistics, and Monte Carlo bound audits.

The estimation guarantees hold on the intersection of three events computed
from an instrumented trajectory:

* the martingale event  -- || (1/n) sum_i Phi(X_{t_{i-1}})^T DW_i ||_inf
  is dominated by lambda/4 (statistic ``stat_T``);
* the discretization event -- the same functional with DW_i replaced by the
  within-interval drift increment integral is dominated by lambda/4
  (statistic ``stat_Tp``, evaluated by left-endpoint quadrature on the
  recorded fine sub-path);
* the compatibility event -- the empirical norm dominates the Euclidean norm
  on the near-sparse cone C(s, 3 + 4/gamma) with constant k.  The cone
  infimum is NP-hard to compute, so it is bracketed: ``k_lower`` =
  sqrt(lambda_min(G)) from below, certified, and ``k_hat`` from above, the
  least Rayleigh quotient over a batch of sampled cone directions.  The event
  is declared to hold only when ``k_lower >= k``.

``tuning_constants_linear`` / ``tuning_constants_ou`` evaluate the
closed-form thresholds lambda_1, lambda_2, T_1 under which those events hold
with probability >= 1 - epsilon each; the concentration audits check the
corresponding tail bounds by simulation, and ``oracle_check`` tests the
prediction-error bound of one Lasso fit on a replication's Gram system, for
either drift family.  All combinatorial terms are evaluated in log space, so
the constants stay finite for any (p, s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import rng
from .errors import InstrumentationRequired
from .model import DriftBasis
from .simulate import NoiseRecord, OUModel, Trajectory, _EulerStep, _ou_transition, _step_chunks
from .estimate import GramSystem, lasso_path


# ---------------------------------------------------------------------------
# Model constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelConstants:
    """Inputs to the linear-model thresholds.

    L        Lipschitz bound of the drift at the true parameter.
    M        monotonicity constant: <b(x)-b(y), x-y> >= M ||x-y||^2.
    R        moment-growth constant 2 max_j C_j^2 (1 + max_k E|X^k|^2).
    H_dn     martingale-variance constant (per-coordinate Lipschitz norms of
             ||phi_j||^2 enter squared).
    K_dn     compatibility constant (operator norm of the pairwise Lipschitz
             matrix of <phi_i, phi_j> enters squared).
    C_b      discretization constant; not derivable numerically, defaults 1.
    l        restricted-eigenvalue lower bound on the cone.
    k        norm-equivalence constant, defaults sqrt(l)/2; must satisfy k^2 < l.
    gamma    cone parameter (> 0, arbitrary).
    """

    L: float
    M: float
    R: float
    H_dn: float
    K_dn: float
    C_b: float = 1.0
    l: float = 1.0
    k: float | None = None
    gamma: float = 1.0

    def __post_init__(self):
        if self.k is None:
            object.__setattr__(self, "k", math.sqrt(self.l) / 2.0)
        for name in ("L", "M", "R", "H_dn", "K_dn", "C_b", "l", "k", "gamma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.k**2 >= self.l:
            raise ValueError("need k^2 < l")


def h_delta_constant(delta_n: float, L: float, M: float, tilde_lip: float) -> float:
    """32 Dn^2 e^{4 L Dn} tilde_lip^2 / (1 - e^{-M Dn})^2."""
    return 32.0 * delta_n**2 * math.exp(4.0 * L * delta_n) * tilde_lip**2 / (
        1.0 - math.exp(-M * delta_n)
    ) ** 2


def k_delta_constant(delta_n: float, L: float, M: float, pair_lip_op: float) -> float:
    """16 Dn^2 e^{4 L Dn} ||M_Lip||_op^2 / (1 - e^{-M Dn})^2."""
    return 16.0 * delta_n**2 * math.exp(4.0 * L * delta_n) * pair_lip_op**2 / (
        1.0 - math.exp(-M * delta_n)
    ) ** 2


def estimate_second_moment(trajectory: Trajectory) -> float:
    """max_k of the empirical second moment of coordinate k (left endpoints)."""
    return float(np.max(np.mean(trajectory.states[:-1] ** 2, axis=0)))


def cosine_constants(
    basis: DriftBasis,
    theta0: np.ndarray,
    delta_n: float,
    second_moment: float,
    M: float,
    C_b: float = 1.0,
    l: float = 1.0,
    k: float | None = None,
    gamma: float = 1.0,
) -> ModelConstants:
    """ModelConstants for the cosine family from its declared Lipschitz data.

    The per-coordinate Lipschitz norm of ||phi_j||^2 is j+1 (derivative bound
    of cos^2), hence tilde_lip = p+1 over j = 1..p; the pairwise constants
    are L_i + L_j since each component is bounded by 1.  The monotonicity
    constant M cannot be read off the basis and must be supplied.
    """
    lips = basis.lipschitz_constants()
    drift_lip = float(lips[0] + np.sum(np.abs(theta0) * lips[1:]))
    tilde_lip = float(lips[1:].max())
    pair = lips[1:, None] + lips[None, 1:]
    pair_op = float(np.linalg.norm(pair, 2))
    moment_r = 2.0 * 1.0 * (1.0 + second_moment)  # C_j = 1 for j >= 1
    return ModelConstants(
        L=drift_lip,
        M=M,
        R=moment_r,
        H_dn=h_delta_constant(delta_n, drift_lip, M, tilde_lip),
        K_dn=k_delta_constant(delta_n, drift_lip, M, pair_op),
        C_b=C_b,
        l=l,
        k=k,
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# Tuning constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuningConstants:
    """Threshold bundle for either drift family; lambda_1 = max of its parts."""

    lambda_1: float
    lambda_2: float
    t_1: float
    epsilon: float
    gamma: float
    k: float
    lambda_11: float | None = None
    lambda_12: float | None = None
    beta: float | None = None
    log_alpha: float | None = None

    def __post_init__(self):
        for name in ("lambda_1", "lambda_2", "t_1"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def lambda_max(self) -> float:
        return max(self.lambda_1, self.lambda_2)


def _lambda11(d: int, R: float, delta_n: float, n: int, log_term: float) -> float:
    return 23.0 * math.sqrt(d * R * delta_n / n * log_term)


def _lambda12(d: int, H_dn: float, delta_n: float, n: int, log_term: float) -> float:
    return 7.0 * (d**2 * H_dn * delta_n / n**3 * log_term**3) ** 0.25


def _lambda2(s: int, d: int, delta_n: float, C_b: float, log_term: float) -> float:
    return 8.0 * math.e * math.sqrt(C_b) * s * d * delta_n**1.5 * math.sqrt(log_term)


def _t1_linear(
    d: int, K_dn: float, gamma: float, l: float, k: float, log_sum: float
) -> float:
    return 324.0 * d * K_dn * (5.0 + 4.0 / gamma) ** 4 / (l - k**2) ** 2 * log_sum


def _log_alpha_linear(p: int, s: int) -> float:
    # ln(21^{2s} (p^{2s} ^ (e p / 2s)^{2s})) with ^ the minimum, in log space
    return 2.0 * s * math.log(21.0) + 2.0 * s * min(
        math.log(p), 1.0 + math.log(p) - math.log(2.0 * s)
    )


def tuning_constants_linear(
    mc: ModelConstants,
    *,
    d: int,
    p: int,
    n: int,
    s: int,
    delta_n: float,
    epsilon: float,
) -> TuningConstants:
    """Thresholds for the general linear drift at confidence 1 - epsilon per event."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if min(d, p, n, s) < 1 or delta_n <= 0:
        raise ValueError("dimensions must be positive")
    log1 = math.log(2.0 * p) + math.log(2.0 / epsilon)
    lam11 = _lambda11(d, mc.R, delta_n, n, log1)
    lam12 = _lambda12(d, mc.H_dn, delta_n, n, log1)
    lam2 = _lambda2(s, d, delta_n, mc.C_b, math.log(p) + math.log(1.0 / epsilon))
    log_sum = math.log(2.0 / epsilon) + _log_alpha_linear(p, s)
    t1 = _t1_linear(d, mc.K_dn, mc.gamma, mc.l, mc.k, log_sum)
    return TuningConstants(
        lambda_1=max(lam11, lam12),
        lambda_2=lam2,
        t_1=t1,
        epsilon=epsilon,
        gamma=mc.gamma,
        k=mc.k,
        lambda_11=lam11,
        lambda_12=lam12,
    )


def _lambda1_ou(delta_n: float, variance_term: float, n: int, log_term: float) -> float:
    return math.sqrt(32.0 * delta_n * variance_term * log_term / n)


def _lambda2_ou(d: int, delta_n: float, C_b: float, log_term: float) -> float:
    return 8.0 * math.e * math.sqrt(C_b) * d * delta_n**1.5 * math.sqrt(log_term)


def _log_alpha_ou(d: int, s: int) -> float:
    # ln(21^{2s} 2d (d^{4s} ^ (e d^2 / 2s)^{2s})), minimum taken in log space
    return (
        2.0 * s * math.log(21.0)
        + math.log(2.0 * d)
        + min(4.0 * s * math.log(d), 2.0 * s * (1.0 + 2.0 * math.log(d) - math.log(2.0 * s)))
    )


def _t1_ou(ou: OUModel, k: float, beta: float, log_sum: float) -> float:
    gap = ou.l_min - k**2
    return (
        8.0
        * ou.p_frak
        * ou.l_max
        * beta
        * (gap + beta * ou.l_max)
        / (ou.m_frak * gap**2)
        * log_sum
    )


def tuning_constants_ou(
    ou: OUModel,
    *,
    n: int,
    s: int,
    delta_n: float,
    epsilon: float,
    gamma: float = 1.0,
    k: float | None = None,
    c_b_ou: float = 1.0,
) -> TuningConstants:
    """Thresholds for the interaction-matrix model at confidence 1 - epsilon per event."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if n < 1 or s < 1 or delta_n <= 0 or gamma <= 0 or c_b_ou <= 0:
        raise ValueError("invalid inputs")
    if k is None:
        k = math.sqrt(ou.l_min) / 2.0
    if k**2 >= ou.l_min:
        raise ValueError("need k^2 < l_min")
    d = ou.d
    log1 = math.log(d**2) + math.log(2.0 / epsilon)
    lam1 = _lambda1_ou(delta_n, ou.a_frak + ou.l_min - k**2, n, log1)
    lam2 = _lambda2_ou(d, delta_n, c_b_ou, math.log(d**2) + math.log(1.0 / epsilon))
    beta = 9.0 * (5.0 + 4.0 / gamma) ** 2
    log_alpha = _log_alpha_ou(d, s)
    t1 = _t1_ou(ou, k, beta, log_alpha + math.log(1.0 / epsilon))
    return TuningConstants(
        lambda_1=lam1,
        lambda_2=lam2,
        t_1=t1,
        epsilon=epsilon,
        gamma=gamma,
        k=k,
        beta=beta,
        log_alpha=log_alpha,
    )


def h0(x, ou: OUModel):
    """Tail-rate function m/(8 p0 lmax) * x^2/(x + lmax); increasing in x."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be strictly positive")
    out = ou.m_frak / (8.0 * ou.p_frak * ou.l_max) * x**2 / (x + ou.l_max)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Event statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventStatistics:
    stat_T: float
    stat_Tp: float
    k_hat: float
    k_lower: float
    holds_T: bool
    holds_Tp: bool
    holds_Tpp: bool
    Tpp_certified: bool


def _cone_directions(
    p: int, s: int, c: float, budget: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``budget`` directions of C(s, c) from one batched draw, and each row's core mask.

    Row i takes a uniform s-subset core (its s smallest of p uniforms) holding
    standard normals, and off-core normals scaled so that ||u_rest||_1 =
    w_i c ||u_core||_1 with w_i uniform on [0, 1).  Rows that are zero or fail
    the cone check ||u||_1 <= (1 + c) (sum of the s largest |u_j|) are dropped,
    which can only weaken the sampled upper bound.
    """
    gen = rng.stream(seed, rng.CONE)
    r = min(s, p)
    keys = gen.random((budget, p))
    z = gen.standard_normal((budget, p))
    w = gen.random(budget)
    core = keys <= np.partition(keys, r - 1, axis=1)[:, r - 1 : r]
    mag = np.abs(z)
    core_l1 = np.where(core, mag, 0.0).sum(axis=1)
    rest_l1 = mag.sum(axis=1) - core_l1
    scale = np.divide(w * c * core_l1, rest_l1, out=np.zeros(budget), where=rest_l1 > 0)
    u = np.where(core, z, z * scale[:, None])
    mag = np.abs(u)
    l1 = mag.sum(axis=1)
    top = np.partition(mag, p - r, axis=1)[:, p - r :].sum(axis=1)
    keep = (l1 > 0) & (l1 <= (1.0 + c) * top)
    return u[keep], core[keep]


def cone_restricted_min(
    gram_matrix: np.ndarray,
    s: int,
    gamma: float,
    budget: int,
    seed: int,
) -> float:
    """Upper bound on inf over C(s, 3+4/gamma) of u^T G u / ||u||^2 (as sqrt).

    The minimum of the Rayleigh quotients of ``budget`` cone directions drawn
    in one batch from the stream (seed, CONE), and of the exact minimum
    restricted eigenvalues over all supports of size 2s when their count fits
    in the budget (2s-sparse vectors lie in the cone since c >= 3).  The exact
    cone infimum is NP-hard; every value returned is attained by a cone
    direction, hence certified from above.  ``cone_lower_bound`` gives the
    matching certified bound from below.
    """
    g = np.asarray(gram_matrix, dtype=float)
    p = g.shape[0]
    best = np.inf
    r = min(2 * s, p)
    if math.comb(p, r) <= budget:
        idx = np.array(list(combinations(range(p), r)))
        best = float(np.linalg.eigvalsh(g[idx[:, :, None], idx[:, None, :]])[:, 0].min())
    u, _ = _cone_directions(p, s, 3.0 + 4.0 / gamma, budget, seed)
    if len(u):
        quotients = np.einsum("bi,bi->b", u @ g, u) / np.einsum("bi,bi->b", u, u)
        best = min(best, float(quotients.min()))
    return math.sqrt(max(best, 0.0))


def cone_lower_bound(gram_matrix: np.ndarray) -> float:
    """sqrt(max(lambda_min(G), 0)): a certified lower bound on the cone infimum.

    Every direction, in the cone or not, has u^T G u >= lambda_min(G) ||u||^2.
    For the OU basis G = C_hat (x) I_d, so this is sqrt(lambda_min(C_hat)).
    """
    return math.sqrt(max(float(np.linalg.eigvalsh(np.asarray(gram_matrix, dtype=float))[0]), 0.0))


def event_statistics(
    trajectory: Trajectory,
    noise: NoiseRecord | None,
    basis: DriftBasis,
    theta0: np.ndarray,
    s: int,
    gamma: float,
    budget: int,
    seed: int,
    *,
    lam: float,
    k: float,
    gram: GramSystem,
) -> EventStatistics:
    """Event-set statistics of an instrumented trajectory and its Gram system ``gram``.

    Requires the recorded coarse Brownian increments and the fine sub-path;
    the discretization statistic is a left-endpoint quadrature on the fine
    sub-path (O(delta) error).  The events T and T' hold when their
    statistics are at most lam / 4.

    The cone infimum kappa of the Gram is bracketed: ``k_lower`` =
    sqrt(max(lambda_min(G), 0)) <= kappa <= ``k_hat``, the sampled upper bound
    of ``cone_restricted_min`` (``budget`` directions in one batched draw).
    ``holds_Tpp`` is the certified ``k_lower >= k``; ``Tpp_certified`` says
    whether the bracket decides the event (``k_lower >= k`` or ``k_hat < k``),
    and is False when k_lower < k <= k_hat.
    """
    if noise is None or not np.all(np.isfinite(noise.coarse_dw)):
        raise InstrumentationRequired("coarse Brownian increments were not recorded")
    if noise.fine_states is None:
        raise InstrumentationRequired("fine sub-path was not recorded")
    n = trajectory.n
    states = trajectory.states[:-1]
    drift = basis.drift_fn(theta0)
    fine = noise.fine_states[:, :-1, :]  # m left endpoints per interval
    b_fine = drift(fine.reshape(-1, basis.d)).reshape(fine.shape)
    integral = (trajectory.delta_n / noise.substeps) * (b_fine - drift(states)[:, None, :]).sum(axis=1)
    acc_t, acc_tp = np.zeros(basis.p), np.zeros(basis.p)
    basis.add_sums(states, (noise.coarse_dw, integral), None, (acc_t, acc_tp))

    stat_t = float(np.max(np.abs(acc_t)) / n)
    stat_tp = float(np.max(np.abs(acc_tp)) / n)
    k_hat = cone_restricted_min(gram.gram, s, gamma, budget, seed)
    k_lower = cone_lower_bound(gram.gram)
    return EventStatistics(
        stat_T=stat_t,
        stat_Tp=stat_tp,
        k_hat=k_hat,
        k_lower=k_lower,
        holds_T=bool(stat_t <= lam / 4.0),
        holds_Tp=bool(stat_tp <= lam / 4.0),
        holds_Tpp=bool(k_lower >= k),
        Tpp_certified=bool(k_lower >= k or k_hat < k),
    )


# ---------------------------------------------------------------------------
# Concentration audits
# ---------------------------------------------------------------------------

N_DIRECTIONS = 16  # unit directions of the OU audit (README, "Fixed values")


@dataclass(frozen=True)
class AuditTable:
    """Tail-audit table; one row per grid point."""

    x: np.ndarray
    empirical: np.ndarray
    bound: np.ndarray
    se: np.ndarray
    reps: int

    def __post_init__(self):
        for name in ("x", "empirical", "bound", "se"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def rows(self):
        for i in range(self.x.size):
            yield {
                "r_or_x": float(self.x[i]),
                "empirical": float(self.empirical[i]),
                "bound": float(self.bound[i]),
                "se": float(self.se[i]),
                "reps": self.reps,
            }


def linear_tail_bound(
    r, n: int, delta_n: float, d: int, f_lip: float, L: float, M: float
):
    """exp(-r^2 n (1-e^{-M Dn})^2 / (64 d f_lip^2 Dn e^{4 L Dn}))."""
    r = np.asarray(r, dtype=float)
    num = r**2 * n * (1.0 - np.exp(-M * delta_n)) ** 2
    den = 64.0 * d * f_lip**2 * delta_n * np.exp(4.0 * L * delta_n)
    out = np.exp(-num / den)
    return float(out) if out.ndim == 0 else out


def ou_tail_bound(x, n: int, delta_n: float, ou: OUModel):
    """2 exp(-n Dn H0(x)), the small-step form of the quadratic tail bound."""
    return 2.0 * np.exp(-n * delta_n * h0(x, ou))


def _batched_euler_f_average(
    basis: DriftBasis,
    theta: np.ndarray,
    x0: np.ndarray | float,
    n: int,
    delta_n: float,
    substeps: int,
    burn_in: int,
    f: Callable[[np.ndarray], np.ndarray],
    rep_ids: Sequence[int],
    seed: int,
) -> np.ndarray:
    """(1/n) sum_{i=1..n} f(X_{t_i}) per replication, batched across reps.

    Each replication draws its noise from its own Philox stream keyed by
    seed ^ rep, so results do not depend on how reps are grouped.
    """
    m = substeps
    acc = np.zeros(len(rep_ids))

    def add_observed(start: int, states: np.ndarray) -> None:
        # states[:, j] is fine step start + j after the burn-in; steps m, 2m, ..., n*m are observed
        observed = states[:, 1 + (-start - 1) % m :: m]
        values = f(observed.reshape(-1, basis.d)).reshape(observed.shape[:2])
        # one call of f per chunk; the running sum still adds the steps one at a time, in time order
        acc[:] = np.add.accumulate(np.column_stack((acc, values)), axis=1)[:, -1]

    update = _EulerStep(basis.drift_fn(theta), delta_n / m, np.full(basis.d, x0, dtype=float))
    _step_chunks(update, [seed ^ r for r in rep_ids], n * m, add_observed, burn_in=burn_in * m)
    return acc / n


def linear_audit_lengths(n: int, burn_in: int | None = None, calibration_steps: int | None = None) -> tuple[int, int]:
    """(burn-in, calibration steps) of ``concentration_audit_linear``: by default ceil(0.1 n), max(4 n, 5000)."""
    return (math.ceil(0.1 * n) if burn_in is None else burn_in), (calibration_steps or max(4 * n, 5000))


def concentration_audit_linear(
    basis: DriftBasis,
    theta0: np.ndarray,
    L: float,
    M: float,
    f: Callable[[np.ndarray], np.ndarray],
    f_lip: float,
    r_grid: Sequence[float],
    n: int,
    delta_n: float,
    reps: int,
    seed: int,
    substeps: int = 1,
    burn_in: int | None = None,
    x0: float = 0.0,
    calibration_steps: int | None = None,
) -> AuditTable:
    """Audit the additive-functional tail bound by Monte Carlo.

    ``f`` maps a batch of states (m, d) to (m,), row by row (it is called
    once per chunk of the stepped paths), and must be 1-Lipschitz after
    dividing by ``f_lip``.  The unknown mean of f is estimated from one long
    calibration run on a dedicated stream (replication id ``reps``); each
    audited replication then contributes the exceedance indicator of its
    trajectory average over each r in the grid.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    burn_in, calib_n = linear_audit_lengths(n, burn_in, calibration_steps)
    mean_est = float(
        _batched_euler_f_average(
            basis, theta0, x0, calib_n, delta_n, substeps, burn_in, f, [reps], seed
        )[0]
    )
    averages = _batched_euler_f_average(
        basis, theta0, x0, n, delta_n, substeps, burn_in, f, list(range(reps)), seed
    )
    deviations = averages - mean_est
    empirical = np.array([np.mean(deviations > r) for r in r_grid])
    bound = linear_tail_bound(r_grid, n, delta_n, basis.d, f_lip, L, M)
    se = np.sqrt(empirical * (1.0 - empirical) / reps)
    return AuditTable(x=r_grid, empirical=empirical, bound=bound, se=se, reps=reps)


def concentration_audit_ou(
    ou: OUModel,
    n: int,
    delta_n: float,
    x_grid: Sequence[float],
    reps: int,
    seed: int,
) -> AuditTable:
    """Audit P(|v^T (C_T - C_inf) v| > x) <= 2 exp(-n Dn H0(x)) by Monte Carlo.

    ``N_DIRECTIONS`` unit directions v are sampled uniformly once; the
    reported empirical column is the max over directions of the
    per-direction exceedance frequency, with its binomial standard error.
    """
    if reps < 100:
        raise ValueError("need at least 100 replications")
    x_grid = np.asarray(x_grid, dtype=float)
    d = ou.d
    dir_gen = rng.stream(seed, rng.DIRECTIONS)
    v = dir_gen.standard_normal((N_DIRECTIONS, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    targets = np.einsum("vd,de,ve->v", v, ou.c_inf, v)

    moments = np.zeros((reps, N_DIRECTIONS))

    def add_moments(start: int, states: np.ndarray) -> None:
        # (v^T x_t)^2 summed over x_0..x_{n-1}, the states that start a step
        proj = states[:, :-1] @ v.T
        np.add(moments, np.einsum("rtv,rtv->rv", proj, proj), out=moments)

    _step_chunks(_ou_transition(ou.A, delta_n), [seed ^ r for r in range(reps)], n, add_moments)
    deviations = np.abs(moments / n - targets)

    exceed = deviations[:, :, None] > x_grid[None, None, :]  # (reps, v, x)
    freq = exceed.mean(axis=0)  # (v, x)
    empirical = freq.max(axis=0)
    se = np.sqrt(empirical * (1.0 - empirical) / reps)
    bound = ou_tail_bound(x_grid, n, delta_n, ou)
    return AuditTable(x=x_grid, empirical=empirical, bound=bound, se=se, reps=reps)


# ---------------------------------------------------------------------------
# Oracle inequality audit
# ---------------------------------------------------------------------------


def oracle_bound(lam: float, s: int, gamma: float, k: float, delta_n: float) -> float:
    """4 lambda^2 s (2+gamma)^2 / (k^2 gamma Dn^2), the prediction-error bound at theta0."""
    return 4.0 * lam**2 * s * (2.0 + gamma) ** 2 / (k**2 * gamma * delta_n**2)


def oracle_check(
    gram: GramSystem, theta0: np.ndarray, lam: float, k: float, gamma: float, s: int
) -> tuple[float, float, bool]:
    """(lhs, rhs, holds) of the oracle inequality for the Lasso fit on ``gram``.

    lhs is the empirical-norm prediction error e^T G e of e = theta_hat -
    theta0, for any linear drift.  For the ou-linear basis G = C_T (x) I_d,
    so lhs = tr((A_hat - A) C_T (A_hat - A)^T).  The fit is
    ``lasso_path(gram, [lam])[0]``.
    """
    err = lasso_path(gram, [lam])[0].theta_hat - theta0
    lhs = float(err @ gram.gram @ err)
    rhs = oracle_bound(lam, s, gamma, k, gram.delta_n)
    return lhs, rhs, lhs <= rhs


# ---------------------------------------------------------------------------
# Rate regimes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateRegime:
    value: float
    tag: str  # discretization-dominated | martingale-dominated | boundary


def rate_regime(d: int, n: int, delta_n: float) -> RateRegime:
    """Which error source dominates the OU rate study's convergence rate at these sizes.

    The split is driven by d^2 n Dn^2: large values mean the discretization
    bias dominates, small values mean the martingale fluctuation does; within
    a factor 10 of 1 is tagged boundary.
    """
    if min(d, n) < 1 or delta_n <= 0:
        raise ValueError("inputs must be positive")
    value = d**2 * n * delta_n**2
    if value > 10.0:
        tag = "discretization-dominated"
    elif value < 0.1:
        tag = "martingale-dominated"
    else:
        tag = "boundary"
    return RateRegime(value=float(value), tag=tag)
