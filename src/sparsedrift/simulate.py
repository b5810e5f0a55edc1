"""Trajectory samplers and Ornstein-Uhlenbeck stationary structure.

One driver, ``_step_chunks``, steps every path: it takes one stream key per
replication, builds each replication's PATH stream, draws its start state
through the update and steps the batch in time chunks, whose length follows
from batch * d so that memory does not grow with the horizon.  Per chunk it
draws each replication's normals from its own stream, scales them, advances
with the family's update -- ``_EulerStep`` (Euler-Maruyama for dX =
-b_theta(X) dt + dW from a fixed start) or ``_OUTransition`` (exact X_{i+1} =
e^{-A Dt} X_i + eta_i, eta_i ~ N(0, Sigma_Dt), through ``ou_propagate``, from
the stationary law) -- checks once for blow-up and hands the states to a
consumer: the observed path of ``simulate_linear`` or ``simulate_ou_exact``
with an optional noise record, the rate study's block sums, or a
concentration audit's running average.

One transition per (A, Dt): ``_ou_transition`` validates A on every call but
builds e^{-A Dt} and the square roots of Sigma_Dt and C_inf only once per
matrix and step, in a small memoised cache of read-only arrays.  A Monte
Carlo loop over replications of one model therefore makes one Lyapunov
solve, not one per replication.

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
import os
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# The chunked stepping driver and the linear-drift sampler
# ---------------------------------------------------------------------------


def _chunk_steps(batch: int, d: int) -> int:
    """Steps per chunk: at most 2048, and at most 2^19 noise values (4 MiB) across the batch."""
    return max(1, min(2048, 2**19 // (batch * d)))


def _recurse(g: Callable, x0: np.ndarray, eta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes x_0..x_L of x_{t+1} = g(x_t) + eta_t, one step at a time, into ``out`` (..., L+1, d)."""
    out[..., 0, :] = x = x0
    for t in range(eta.shape[-2]):
        out[..., t + 1, :] = x = g(x) + eta[..., t, :]  # g reads a contiguous x, not a row of out
    return out


class _EulerStep(NamedTuple):
    """Euler-Maruyama update x <- x - b(x) delta + sqrt(delta) z from the start x0 (d,)."""

    drift: Callable[[np.ndarray], np.ndarray]
    delta: float
    x0: np.ndarray

    def start(self, gens: Sequence[np.random.Generator]) -> np.ndarray:
        """x0 for each generator, drawing nothing: shape (len(gens), d)."""
        return np.tile(self.x0, (len(gens), 1))

    def scale(self, z: np.ndarray) -> None:
        z *= math.sqrt(self.delta)

    def advance(self, x: np.ndarray, eta: np.ndarray, out: np.ndarray) -> None:
        _recurse(lambda x: x - self.drift(x) * self.delta, x, eta, out)


def _step_chunks(
    update: _EulerStep | _OUTransition,
    keys: Sequence[int],
    n_steps: int,
    consume: Callable[[int, np.ndarray], None],
    noise_out: np.ndarray | None = None,
    burn_in: int = 0,
) -> None:
    """Step one path per stream key through ``burn_in`` + ``n_steps`` steps of ``update``.

    Replication r draws from the PATH stream of ``keys[r]``: first its start
    state, through ``update.start``, then per chunk its normals, into one
    buffer shared by the batch (batch, d); ``update.scale`` turns them into
    the step's noise eta in place and ``update.advance`` steps the chunk.
    The burn-in steps are dropped; after them ``consume(start, states)`` sees
    each chunk's states (batch, L+1, d), row 0 being the state after
    ``start`` kept steps, and ``noise_out`` (batch, n_steps, d), when given,
    receives the noise eta.
    Raises ``SimulationDiverged(k)`` at the first step k, counted from the
    first burn-in step, where some coordinate is non-finite or beyond
    ``BLOWUP_LIMIT``; the check runs once per chunk.
    """
    gens = [rng.stream(key, rng.PATH) for key in keys]
    x = update.start(gens)
    batch, d = x.shape
    chunk = _chunk_steps(batch, d)
    length = min(chunk, max(burn_in, n_steps))  # the longest chunk; every chunk reuses the two buffers
    noise, path = np.empty(batch * length * d), np.empty(batch * (length + 1) * d)
    bounds = [*range(0, burn_in, chunk), *range(burn_in, burn_in + n_steps, chunk), burn_in + n_steps]
    for lo, hi in zip(bounds, bounds[1:]):
        eta = noise[: batch * (hi - lo) * d].reshape(batch, hi - lo, d)
        for gen, block in zip(gens, eta):  # as gen.standard_normal((hi - lo, d)) would draw it
            gen.standard_normal(out=block)
        update.scale(eta)
        if noise_out is not None and lo >= burn_in:
            noise_out[:, lo - burn_in : hi - burn_in] = eta
        states = path[: batch * (hi - lo + 1) * d].reshape(batch, hi - lo + 1, d)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging chunk runs to its end
            update.advance(x, eta, states)
        steps = states[:, 1:]
        if not (-BLOWUP_LIMIT <= steps.min() and steps.max() <= BLOWUP_LIMIT):  # NaN fails both
            bad = ~(np.abs(steps) <= BLOWUP_LIMIT)
            raise SimulationDiverged(lo + 1 + int(np.argmax(bad.any(axis=(0, 2)))))
        if lo >= burn_in:
            consume(lo - burn_in, states)
        x = states[:, -1].copy()


def _check_sampling(n: int, delta_n: float, substeps: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta_n <= 0:
        raise ValueError("delta_n must be positive")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")


def _one_path(
    update: _EulerStep | _OUTransition, d: int, n: int, m: int, delta_n: float, seed: int,
    record: RecordFlags, burn_in: int = 0, dw_of: Callable = lambda eta: eta,
) -> tuple[Trajectory, NoiseRecord | None]:
    """The path of stream key ``seed`` in R^d, stepped through n*m fine steps and observed every m-th.

    Returns the Trajectory and, when ``record`` asks, its NoiseRecord: the
    fine sub-path with ``record.fine``, and with ``record.noise`` the coarse
    sums of the fine Brownian increments ``dw_of(eta)`` of the noise draws
    eta (n*m, d).  Unrecorded increments read NaN.
    """
    stride = 1 if record.fine else m
    kept = np.empty((n * m // stride + 1, d))
    eta = np.empty((n * m, d)) if record.noise else None

    def take_states(start: int, states: np.ndarray) -> None:
        first = -start % stride  # the chunk's first kept row
        rows = states[0, first::stride]
        kept[(start + first) // stride :][: len(rows)] = rows

    _step_chunks(update, [seed], n * m, take_states, None if eta is None else eta[None], burn_in)
    traj = Trajectory(states=kept[:: m // stride], delta_n=delta_n, seed=seed)
    if not record:
        return traj, None
    coarse_dw = np.full((n, d), np.nan) if eta is None else dw_of(eta).reshape(n, m, d).sum(axis=1)
    fine_states = sliding_window_view(kept, (m + 1, d))[::m, 0] if record.fine else None
    return traj, NoiseRecord(coarse_dw=coarse_dw, fine_states=fine_states, substeps=m)


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
    _check_sampling(n, delta_n, substeps)
    update = _EulerStep(basis.drift_fn(theta0), delta_n / substeps, np.full(basis.d, x0, dtype=float))
    record = record or RecordFlags()
    return _one_path(update, basis.d, n, substeps, delta_n, seed, record, burn_in * substeps)


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
    """Read-only factors of the exact OU transition over one step dt."""

    decay: np.ndarray  # e^{-A dt}
    sigma: np.ndarray  # Sigma_dt
    sqrt_sigma: np.ndarray
    sqrt_cinf: np.ndarray

    def start(self, gens: Sequence[np.random.Generator]) -> np.ndarray:
        """One stationary state sqrt(C_inf) z per generator, z drawn from it: shape (len(gens), d)."""
        return np.stack([gen.standard_normal(len(self.decay)) for gen in gens]) @ self.sqrt_cinf.T

    def scale(self, z: np.ndarray) -> None:
        np.matmul(z, self.sqrt_sigma.T, out=z)

    def advance(self, x: np.ndarray, eta: np.ndarray, out: np.ndarray) -> None:
        ou_propagate(self.decay, x, eta, out)


def _ou_transition(A: np.ndarray, dt: float) -> _OUTransition:
    """The transition factors of (A, dt), built once and memoised.

    ``A`` is validated on every call; only the factors are cached, keyed on
    the validated matrix's bytes and shape and on dt.
    """
    A = _check_stable(A)
    return _cached_transition(A.tobytes(), A.shape, float(dt))


@functools.lru_cache(maxsize=16)
def _cached_transition(a_bytes: bytes, shape: tuple[int, int], dt: float) -> _OUTransition:
    decay, sigma, c_inf = _ou_step(np.frombuffer(a_bytes).reshape(shape), dt)
    factors = _OUTransition(decay, sigma, _sym_sqrt(sigma), _sym_sqrt(c_inf))
    for arr in factors:
        arr.setflags(write=False)
    return factors


def ou_propagate(
    decay: np.ndarray, x0: np.ndarray, eta: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """States x_0..x_L of x_{t+1} = decay x_t + eta_t for x0 (..., d), eta (..., L, d).

    Written to ``out`` (..., L+1, d) when given, else to a new array, and
    returned.  Where the batch's per-step product is large (batch * d^2 >=
    2^15: one step's matmul outweighs a Python iteration) the recursion is
    stepped as written.  Otherwise a two-level blocked scan with block size
    B = ceil(sqrt(L)): B vectorised steps give every block's partial sums
    from a zero start, written over ``eta`` (the call consumes it); L/B steps
    carry the block-start states with decay^B; one matmul against the
    stacked powers decay^1..decay^B adds each block's start state to its
    states.  That is about 2 sqrt(L) Python iterations instead of L, and
    agrees with the step-by-step recursion to rounding.
    """
    *batch, length, d = eta.shape
    step = decay.T
    out = np.empty((*batch, length + 1, d)) if out is None else out
    if math.prod(batch) * d * d >= 2**15:
        return _recurse(lambda x: x @ step, x0, eta, out)

    size = int(np.ceil(np.sqrt(length)))
    n_full, rest = divmod(length, size)
    full = eta[..., : n_full * size, :].reshape(*batch, n_full, size, d)
    tail = eta[..., n_full * size :, :]
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
    *,
    substeps: int = 1,
    record: RecordFlags | None = None,
) -> tuple[Trajectory, NoiseRecord | None]:
    """Exact OU path from the stationary law and its NoiseRecord, None unless record flags are set.

    The initial state and the innovations eta_i are drawn via the symmetric
    square roots of C_inf and Sigma.  With ``record.noise`` the Brownian
    increment of each fine step is sampled from its exact conditional law
    given eta (cross-covariance Psi = A^{-1}(I - e^{-A dt})), using a
    separate auxiliary stream, so the state path is bitwise-identical with
    and without instrumentation.  The transition factors come from the
    per-(A, dt) cache of ``_ou_transition``; the conditional law needs only
    A, e^{-A dt}, Sigma and dt, so a recorded call adds no Lyapunov solve.
    """
    _check_sampling(n, delta_n, substeps)
    dt = delta_n / substeps
    step = _ou_transition(A, dt)  # validates A on every call
    d = len(step.decay)

    def brownian(eta: np.ndarray) -> np.ndarray:
        # DW | eta ~ N(B eta, dt I - B Psi) with Psi = A^{-1}(I - e^{-A dt}), B = Psi^T Sigma^{-1}
        psi = np.linalg.solve(np.asarray(A, dtype=float), np.eye(d) - step.decay)
        b_cond = np.linalg.solve(step.sigma, psi).T
        sqrt_cond = _sym_sqrt(dt * np.eye(d) - b_cond @ psi)
        aux = rng.stream(seed, rng.NOISE_AUX).standard_normal(eta.shape)
        return eta @ b_cond.T + aux @ sqrt_cond.T

    return _one_path(step, d, n, substeps, delta_n, seed, record or RecordFlags(), dw_of=brownian)


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
        if size > os.fstat(fh.fileno()).st_size - _HEADER.size:  # checked before reading: size may be huge
            raise ValueError(f"truncated trajectory: header declares {n_states} x {d} states")
        raw = fh.read(size)
    states = np.frombuffer(raw, dtype="<f8").reshape(int(n_states), int(d))
    return Trajectory(states=states, delta_n=delta_n, seed=None if seed < 0 else int(seed))
