"""Trajectory samplers and Ornstein-Uhlenbeck stationary structure.

One Euler stepper and one exact-OU sampler:

* ``_euler_steps`` -- the Euler-Maruyama recursion for dX = -b_theta(X) dt + dW,
  stepped in place over a buffer of Brownian increments for a batch of
  paths, with the blow-up check.  ``simulate_linear`` runs it on one path at
  a fine step delta = Delta_n / m observed every m sub-steps, optionally
  recording the coarse Brownian increments and the fine sub-path that the
  theory audits need; the linear concentration audit runs it on a batch of
  replications.
* ``simulate_ou_exact`` -- exact Gaussian transitions X_{i+1} = e^{-A Dt} X_i
  + eta_i with eta_i ~ N(0, Sigma_Dt), so rate-regime audits see no
  integrator bias.  All innovations are drawn at once and the fine path is
  stepped by ``ou_propagate``, a blocked scan of the linear recursion with
  about 2 sqrt(L) Python iterations for L steps (the rate study's streamed
  block sums use it chunk by chunk); the observed states and the fine
  sub-path are both read off that one fine path.  When Brownian increments
  are requested they are drawn from the exact joint law of (DW, eta); the
  state path itself is unchanged by instrumentation.

One transition per (A, Dt): ``_ou_transition`` validates A on every call but
builds e^{-A Dt}, the square roots of Sigma_Dt and C_inf (and, for recorded
noise, the conditional-law factors) only once per matrix and step, in a small
memoised cache of read-only arrays.  The exact sampler, the rate study's block
sums and the OU concentration audit all read it, so a Monte Carlo loop over
replications of one model makes one Lyapunov solve, not one per replication.

The OU case needs two dense routines, both numpy-only so that importing the
package loads no scipy module:

* the transition e^{-A Dt}, from scaling and squaring with the [13/13] Pade
  approximant (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4), "The scaling
  and squaring method for the matrix exponential revisited");
* the stationary covariance C of dX = -A X dt + dW, which solves
  A C + C A^T = I, from the Newton iteration for the matrix sign function
  with determinant scaling (Roberts 1980, Int. J. Control 32(4); Byers 1987,
  Linear Algebra Appl. 85): O(d^3) per step, quadratic convergence (7-8
  steps on the test matrices up to d=200), at most ``SIGN_MAX_ITER`` steps.
  Every solution is checked against the Lyapunov residual.

Everything is deterministic per (config, seed): noise comes from counter-based
Philox streams keyed by seed and purpose, see ``rng``.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import (
    DiagonalizationFailed,
    NumericDegeneracy,
    SimulationDiverged,
    UnstableMatrix,
)
from .model import DriftBasis

BLOWUP_LIMIT = 1e8
LYAPUNOV_TOL = 1e-10
SIGN_MAX_ITER = 50  # the sign iteration takes 7-8 steps; the cap only stops a stall

# [13/13] Pade coefficients and the 1-norm bound theta_13 below which the
# approximant is accurate to double precision (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


@dataclass(frozen=True)
class Trajectory:
    """Discretely observed path: states X_{t_0}..X_{t_n}, step delta_n."""

    states: np.ndarray  # (n+1, d)
    delta_n: float
    seed: int | None = None

    def __post_init__(self):
        states = np.array(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 2:
            raise ValueError("states must be an (n+1) x d array with n >= 1")
        if not np.all(np.isfinite(states)):
            raise ValueError("states must be finite")
        if not (math.isfinite(self.delta_n) and self.delta_n > 0):
            raise ValueError(f"delta_n must be positive and finite, got {self.delta_n!r}")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return self.states.shape[0] - 1

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def T(self) -> float:
        return self.n * self.delta_n

    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.delta_n

    def increments(self) -> np.ndarray:
        return np.diff(self.states, axis=0)


@dataclass(frozen=True)
class NoiseRecord:
    """Brownian increments per coarse interval and optional fine sub-path.

    ``coarse_dw[i]`` aggregates the interval [t_i, t_{i+1}]; when present,
    ``fine_states[i]`` holds the m+1 states of that interval at sub-step
    delta_n / m (both endpoints included).
    """

    coarse_dw: np.ndarray  # (n, d)
    fine_states: np.ndarray | None = None  # (n, m+1, d)
    substeps: int = 1

    def __post_init__(self):
        dw = np.array(self.coarse_dw, dtype=float)
        dw.setflags(write=False)
        object.__setattr__(self, "coarse_dw", dw)
        if self.fine_states is not None:
            fine = np.array(self.fine_states, dtype=float)
            fine.setflags(write=False)
            object.__setattr__(self, "fine_states", fine)


@dataclass(frozen=True)
class RecordFlags:
    noise: bool = False
    fine: bool = False

    def __bool__(self) -> bool:
        return self.noise or self.fine


@dataclass(frozen=True)
class OUModel:
    """Interaction matrix with its spectral constants and stationary covariance.

    m_frak: smallest real part among eigenvalues of A.
    p_frak: ||P||_op ||P^-1||_op for the unit-column eigenvector matrix P.
    l_min, l_max: extreme eigenvalues of the stationary covariance.
    a_frak: largest diagonal entry of the stationary covariance.
    """

    A: np.ndarray
    c_inf: np.ndarray
    m_frak: float
    p_frak: float
    l_min: float
    l_max: float
    a_frak: float

    def __post_init__(self):
        for name in ("A", "c_inf"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return self.A.shape[0]


# ---------------------------------------------------------------------------
# Linear-drift Euler sampler
# ---------------------------------------------------------------------------


def _euler_steps(basis: DriftBasis, theta: np.ndarray, delta: float, path: np.ndarray) -> np.ndarray:
    """Euler recursion x_k = x_{k-1} - b_theta(x_{k-1}) delta + path_k, in place.

    ``path`` (..., L+1, d) holds x_0 in row 0 and in row k the Brownian
    increment of step k, already scaled by sqrt(delta); each row is
    overwritten by its state, so the noise and the path share one buffer,
    and ``path`` is returned.  Leading batch axes step independent paths
    together, each bitwise equal to its path stepped alone.  Raises
    ``SimulationDiverged(k)`` at the first step k where some |x| exceeds
    ``BLOWUP_LIMIT``.
    """
    drift = basis.drift_fn(np.asarray(theta, float))
    steps = np.moveaxis(path, -2, 0)  # steps[k] is state k of every path
    x = np.ascontiguousarray(steps[0])
    for k in range(1, steps.shape[0]):
        x = x - drift(x) * delta + steps[k]
        if np.max(np.abs(x)) > BLOWUP_LIMIT:
            raise SimulationDiverged(k)
        steps[k] = x
    return path


def _noise_record(
    fine: np.ndarray, coarse_dw: np.ndarray | None, n: int, m: int, keep_fine: bool
) -> NoiseRecord:
    """NoiseRecord of a fine path (n*m+1, d); fine_states[i] = fine[i*m : i*m+m+1].

    Unrecorded increments (``coarse_dw`` None) read NaN.
    """
    d = fine.shape[-1]
    if coarse_dw is None:
        coarse_dw = np.full((n, d), np.nan)
    fine_states = None
    if keep_fine:
        fine_states = np.empty((n, m + 1, d))
        fine_states[:, :m] = fine[:-1].reshape(n, m, d)
        fine_states[:, m] = fine[m::m]
    return NoiseRecord(coarse_dw=coarse_dw, fine_states=fine_states, substeps=m)


def simulate_linear(
    basis: DriftBasis,
    theta0: np.ndarray,
    x0: np.ndarray | float,
    n: int,
    delta_n: float,
    substeps: int = 10,
    seed: int = 0,
    record: RecordFlags | None = None,
    burn_in: int = 0,
) -> tuple[Trajectory, NoiseRecord | None]:
    """Euler-Maruyama path of dX = -b_theta0(X) dt + dW observed every substep block.

    ``burn_in`` coarse steps are simulated and discarded before recording
    starts; the returned trajectory then has n+1 states.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if delta_n <= 0:
        raise ValueError("delta_n must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    record = record or RecordFlags()

    d = basis.d
    m = substeps
    delta = delta_n / m
    path = np.empty(((burn_in + n) * m + 1, d))
    path[0] = x0
    rng.stream(seed, rng.PATH).standard_normal(out=path[1:])
    path[1:] *= np.sqrt(delta)
    coarse_dw = None
    if record.noise:
        # summed in step order, before the stepper overwrites them
        blocks = path[burn_in * m + 1 :].reshape(n, m, d)
        coarse_dw = blocks[:, 0].copy()
        for k in range(1, m):
            coarse_dw += blocks[:, k]
    fine = _euler_steps(basis, theta0, delta, path)[burn_in * m :]

    traj = Trajectory(states=fine[::m], delta_n=delta_n, seed=seed)
    if not record:
        return traj, None
    return traj, _noise_record(fine, coarse_dw, n, m, record.fine)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck machinery
# ---------------------------------------------------------------------------


def _check_stable(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must be finite")
    eigs = np.linalg.eigvals(A)
    if np.min(eigs.real) <= 0:
        raise UnstableMatrix(
            f"spectral abscissa check failed: min real part {np.min(eigs.real):.3e} <= 0"
        )
    return A


def _expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential: [13/13] Pade approximant of mat / 2^s, squared s times."""
    norm = np.linalg.norm(mat, 1)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    m1 = mat / 2.0**s
    m2 = m1 @ m1
    m4 = m2 @ m2
    m6 = m4 @ m2
    b = _PADE13
    eye = np.eye(mat.shape[0])
    u = m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2) + b[7] * m6 + b[5] * m4 + b[3] * m2
    u = m1 @ (u + b[1] * eye)
    v = m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + b[6] * m6 + b[4] * m4 + b[2] * m2
    v = v + b[0] * eye
    out = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        out = out @ out
    return out


def _lyapunov_sign(A: np.ndarray) -> np.ndarray:
    """X with A X + X A^T = I for stable A, by the scaled sign-function iteration.

    E_0 = A, X_0 = I; each step scales by c = |det E|^{-1/d}, then sets
    E <- (cE + E^-1/c)/2 and X <- (cX + E^-1 X E^-T/c)/2.  E tends to the
    identity and X to 2 X_sol.
    """
    d = A.shape[0]
    e, x = A, np.eye(d)
    for _ in range(SIGN_MAX_ITER):
        e_inv = np.linalg.inv(e)
        c = np.exp(-np.linalg.slogdet(e)[1] / d)
        x = 0.5 * (c * x + e_inv @ x @ e_inv.T / c)
        e_next = 0.5 * (c * e + e_inv / c)
        done = np.linalg.norm(e_next - e, 1) <= 1e-14 * np.linalg.norm(e_next, 1)
        e = e_next
        if done:
            return 0.5 * x
    raise NumericDegeneracy(f"Lyapunov sign iteration did not converge in {SIGN_MAX_ITER} iterations")


def stationary_covariance(A: np.ndarray) -> np.ndarray:
    """Solve A C + C A^T = I for the stationary covariance of dX = -A X dt + dW."""
    A = _check_stable(A)
    d = A.shape[0]
    c = _lyapunov_sign(A)
    c = 0.5 * (c + c.T)
    residual = np.max(np.abs(A @ c + c @ A.T - np.eye(d)))
    if residual > LYAPUNOV_TOL:
        raise NumericDegeneracy(f"Lyapunov residual {residual:.3e} exceeds {LYAPUNOV_TOL}")
    return c


def _ou_step(A: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e^{-A dt}, Sigma_dt, C_inf) for the exact transition over a step dt.

    Sigma_dt = C_inf - e^{-A dt} C_inf e^{-A^T dt}; tends to C_inf as
    dt -> infinity and to dt * I as dt -> 0.
    """
    A = np.asarray(A, dtype=float)
    c_inf = stationary_covariance(A)  # rejects non-square, non-finite and unstable A
    decay = _expm(-A * dt)
    sigma = c_inf - decay @ c_inf @ decay.T
    sigma = 0.5 * (sigma + sigma.T)
    return decay, sigma, c_inf


def transition_covariance(A: np.ndarray, dt: float) -> np.ndarray:
    """Covariance Sigma_dt of the exact OU transition over a step of length dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    _, sigma, _ = _ou_step(A, dt)
    w = np.linalg.eigvalsh(sigma)
    if w.min() < -1e-10:
        raise NumericDegeneracy(f"transition covariance indefinite: min eigenvalue {w.min():.3e}")
    return sigma


def _sym_sqrt(mat: np.ndarray, tol: float = -1e-10) -> np.ndarray:
    """Symmetric square root via eigendecomposition; rejects real indefiniteness."""
    mat = 0.5 * (mat + mat.T)
    w, u = np.linalg.eigh(mat)
    if w.min() < tol * max(1.0, abs(w.max())):
        raise NumericDegeneracy(f"matrix not PSD within tolerance: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.T


class _OUTransition(NamedTuple):
    """Read-only factors of the exact OU transition over one step dt.

    ``b_cond`` and ``sqrt_cond`` give the conditional law DW | eta ~
    N(b_cond eta, sqrt_cond sqrt_cond^T); they are None unless requested.
    """

    decay: np.ndarray  # e^{-A dt}
    sigma: np.ndarray  # Sigma_dt
    sqrt_sigma: np.ndarray
    sqrt_cinf: np.ndarray
    b_cond: np.ndarray | None = None
    sqrt_cond: np.ndarray | None = None


def _ou_transition(A: np.ndarray, dt: float, noise: bool = False) -> _OUTransition:
    """The transition factors of (A, dt), built once and memoised.

    ``A`` is validated on every call; only the factors are cached, keyed on
    the validated matrix's bytes and shape and on dt.  With ``noise`` the
    conditional-law factors are added on top of the cached plain transition,
    so no Lyapunov solve is repeated.
    """
    A = _check_stable(A)
    return _cached_transition(A.tobytes(), A.shape, float(dt), bool(noise))


@functools.lru_cache(maxsize=16)
def _cached_transition(a_bytes: bytes, shape: tuple[int, int], dt: float, noise: bool) -> _OUTransition:
    if noise:
        base = _cached_transition(a_bytes, shape, dt, False)
        A = np.frombuffer(a_bytes).reshape(shape)
        d = shape[0]
        # DW | eta ~ N(B eta, dt I - B Psi) with Psi = A^{-1}(I - e^{-A dt}), B = Psi^T Sigma^{-1}
        psi = np.linalg.solve(A, np.eye(d) - base.decay)
        b_cond = np.linalg.solve(base.sigma, psi).T
        factors = base._replace(b_cond=b_cond, sqrt_cond=_sym_sqrt(dt * np.eye(d) - b_cond @ psi))
    else:
        decay, sigma, c_inf = _ou_step(np.frombuffer(a_bytes).reshape(shape), dt)
        factors = _OUTransition(decay, sigma, _sym_sqrt(sigma), _sym_sqrt(c_inf))
    for arr in factors:
        if arr is not None:
            arr.setflags(write=False)
    return factors


def ou_propagate(decay: np.ndarray, x0: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """States x_0..x_L of x_{t+1} = decay x_t + eta_t for x0 (..., d), eta (..., L, d).

    A two-level blocked scan with block size B = ceil(sqrt(L)): B vectorised
    steps give every block's partial sums from a zero start, written over
    ``eta`` (the call consumes it); L/B steps carry the block-start states
    with decay^B; one matmul against the stacked powers decay^1..decay^B adds
    each block's start state to its states.  That is about 2 sqrt(L) Python
    iterations instead of L, and agrees with the step-by-step recursion to
    rounding.  Returns an array of shape (..., L+1, d).
    """
    decay = np.asarray(decay, dtype=float)
    eta = np.asarray(eta, dtype=float)
    *batch, length, d = eta.shape
    size = int(np.ceil(np.sqrt(length)))
    n_full, rest = divmod(length, size)
    full = eta[..., : n_full * size, :].reshape(*batch, n_full, size, d)
    tail = eta[..., n_full * size :, :]
    step = decay.T
    for j in range(1, size):
        full[..., j, :] += full[..., j - 1, :] @ step
        if j < rest:
            tail[..., j, :] += tail[..., j - 1, :] @ step

    # powers[:, j*d:(j+1)*d] = (decay^{j+1})^T, so a row state times it gives
    # the row states decay^{j+1} x for j = 0..B-1 side by side
    powers = np.empty((d, size * d))
    powers[:, :d] = step
    for j in range(1, size):
        powers[:, j * d : (j + 1) * d] = powers[:, (j - 1) * d : j * d] @ step
    jump = powers[:, (size - 1) * d :]

    starts = np.empty((*batch, n_full + 1, d))
    starts[..., 0, :] = x0
    for b in range(n_full):
        starts[..., b + 1, :] = starts[..., b, :] @ jump + full[..., b, -1, :]

    out = np.empty((*batch, length + 1, d))
    out[..., 0, :] = x0
    body = out[..., 1 : 1 + n_full * size, :].reshape(*batch, n_full, size * d)
    np.matmul(starts[..., :n_full, :], powers, out=body)
    body += full.reshape(*batch, n_full, size * d)
    if rest:
        last = out[..., 1 + n_full * size :, :].reshape(*batch, rest * d)
        np.matmul(starts[..., n_full, :], powers[:, : rest * d], out=last)
        last += tail.reshape(*batch, rest * d)
    return out


def simulate_ou_exact(
    A: np.ndarray,
    n: int,
    delta_n: float,
    seed: int = 0,
    stationary_init: bool = True,
    *,
    substeps: int = 1,
    record: RecordFlags | None = None,
) -> Trajectory | tuple[Trajectory, NoiseRecord]:
    """Exact OU path; returns (Trajectory, NoiseRecord) when record flags are set.

    The innovation eta_i is drawn via the symmetric square root of Sigma.
    With ``record.noise`` the Brownian increment of each fine step is sampled
    from its exact conditional law given eta (cross-covariance
    Psi = A^{-1}(I - e^{-A dt})), using a separate auxiliary stream, so the
    state path is bitwise-identical with and without instrumentation.  The
    transition factors come from the per-(A, dt) cache of ``_ou_transition``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta_n <= 0:
        raise ValueError("delta_n must be positive")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    m = substeps
    dt = delta_n / m
    record = record or RecordFlags()
    step = _ou_transition(A, dt, record.noise)  # validates A on every call
    d = step.decay.shape[0]

    gen = rng.stream(seed, rng.PATH)
    if stationary_init:
        x = step.sqrt_cinf @ gen.standard_normal(d)
    else:
        x = np.zeros(d)

    eta = gen.standard_normal((n * m, d)) @ step.sqrt_sigma.T

    coarse_dw = None
    if record.noise:
        aux = rng.stream(seed, rng.NOISE_AUX)
        dw_fine = eta @ step.b_cond.T + aux.standard_normal((n * m, d)) @ step.sqrt_cond.T
        coarse_dw = dw_fine.reshape(n, m, d).sum(axis=1)

    fine = ou_propagate(step.decay, x, eta)  # the n*m+1 fine states; eta is spent
    traj = Trajectory(states=fine[::m], delta_n=delta_n, seed=seed)
    if not record:
        return traj
    return traj, _noise_record(fine, coarse_dw, n, m, record.fine)


def ou_spectral_constants(A: np.ndarray) -> OUModel:
    """Diagonalize A and collect the constants the OU bounds depend on."""
    A = np.asarray(A, dtype=float)
    eigvals, eigvecs = np.linalg.eig(A)
    cond = np.linalg.cond(eigvecs)
    if not np.isfinite(cond) or cond > 1e12:
        raise DiagonalizationFailed(
            f"eigenvector matrix condition {cond:.3e} exceeds 1e12; A is (near) defective"
        )
    m_frak = float(np.min(eigvals.real))
    if m_frak <= 0:
        raise UnstableMatrix(f"minimum eigenvalue real part {m_frak:.3e} <= 0")
    p_frak = float(np.linalg.norm(eigvecs, 2) * np.linalg.norm(np.linalg.inv(eigvecs), 2))
    c_inf = stationary_covariance(A)
    cov_eigs = np.linalg.eigvalsh(c_inf)
    return OUModel(
        A=A,
        c_inf=c_inf,
        m_frak=m_frak,
        p_frak=p_frak,
        l_min=float(cov_eigs.min()),
        l_max=float(cov_eigs.max()),
        a_frak=float(np.max(np.diag(c_inf))),
    )


# ---------------------------------------------------------------------------
# Trajectory import/export
# ---------------------------------------------------------------------------

_BINARY_MAGIC = b"SDTJ"
# Little-endian layout: magic, u64 n_states, u64 d, f64 delta_n, i64 seed
# (-1 when unknown), then n_states*d row-major f64 states.
_HEADER = struct.Struct("<4sQQdq")


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """CSV with header t,x_1..x_d, one row per observation time, LF endings."""
    cols = ",".join(f"x_{j + 1}" for j in range(traj.d))
    times = traj.times()
    with open(path, "w", newline="") as fh:
        fh.write(f"t,{cols}\n")
        for i in range(traj.n + 1):
            row = ",".join(repr(float(v)) for v in traj.states[i])
            fh.write(f"{repr(float(times[i]))},{row}\n")


def trajectory_from_csv(path: str) -> Trajectory:
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    if data.ndim == 1:
        data = data.reshape(1, -1)
    if data.shape[1] < 2:
        raise ValueError("trajectory file needs a time column and at least one state column")
    times = data[:, 0]
    if len(times) < 2:
        raise ValueError("trajectory file must contain at least two observations")
    delta = float(times[1] - times[0])
    if delta <= 0 or np.max(np.abs(np.diff(times) - delta)) > 1e-9 * max(delta, 1.0):
        raise ValueError("observation times must be uniformly spaced")
    return Trajectory(states=data[:, 1:], delta_n=delta, seed=None)


def trajectory_to_binary(traj: Trajectory, path: str) -> None:
    seed = -1 if traj.seed is None else int(traj.seed)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_BINARY_MAGIC, traj.n + 1, traj.d, traj.delta_n, seed))
        fh.write(np.ascontiguousarray(traj.states, dtype="<f8").tobytes())


def trajectory_from_binary(path: str) -> Trajectory:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError("truncated trajectory header")
        magic, n_states, d, delta_n, seed = _HEADER.unpack(head)
        if magic != _BINARY_MAGIC:
            raise ValueError("not a trajectory container")
        size = int(n_states) * int(d) * 8
        raw = fh.read(size)
    if len(raw) < size:
        raise ValueError(f"truncated trajectory: header declares {n_states} x {d} states")
    states = np.frombuffer(raw, dtype="<f8").reshape(int(n_states), int(d))
    return Trajectory(states=states, delta_n=delta_n, seed=None if seed < 0 else int(seed))
