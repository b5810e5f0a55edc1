"""Penalized estimation of the drift parameter from a discretized contrast.

For the linear-in-parameter drift the contrast

    R(theta) = (1/T) sum_i || DX_i + Delta_n * b_theta(X_{t_{i-1}}) ||^2

is an explicit quadratic

    R(theta) = c + l . theta + Delta_n * theta^T G theta,

with G the Gram matrix of the basis fields under the empirical norm
||f||_D^2 = (1/n) sum_i ||f(X_{t_{i-1}})||^2.  It fits the basis to the
response y_i = DX_i + Delta_n * phi_0(X_{t_{i-1}}), so one accumulator keeps
sum Phi^T Phi, sum Phi^T y and sum ||y||^2 per time block, from a stored path
(``gram_blocks``) or chunk by chunk as paths are stepped; the basis forms y
and the sums (``DriftBasis.response`` and ``add_sums``).  Once
(c, l, G) are assembled, estimation is pure linear algebra:

* ``lasso_path``  -- exact homotopy (LARS-Lasso) path of R(theta) +
  lambda ||theta||_1 over a descending lambda grid, returned as a
  ``LassoPath`` of arrays (theta is grid x p) and KKT-certified at every grid
  point by one ``kkt_residual`` call over the stacked solutions, whose rows do
  not depend on the grid; it serves the CV fold fits, the refits and, on a
  one-point grid ``[lambda]``, every single-lambda fit (``path[0]``).
* ``mle_solve``   -- minimum-norm solution of the stationarity system
  2 Delta_n G theta = -l via a rank-revealing factorization.
* ``cross_validate`` -- blocked, time-ordered K-fold selection of lambda
  over one problem's per-block sums, scored by the unpenalized contrast on
  the held-out block, one quadratic form over the whole grid per fold.

The interaction matrix A of an OU drift is the fit theta = vec(A) on the
basis e_r x_c (phi_0 = 0), whose Gram is C (x) I_d with C the empirical
covariance; both drift families fit through the same ``GramBlockSums``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import DriftBasis
from .simulate import Trajectory


@dataclass(frozen=True)
class GramSystem:
    """Quadratic representation (c, l, G) of the discretized contrast."""

    gram: np.ndarray  # (p, p)
    linear: np.ndarray  # (p,)
    constant: float
    delta_n: float

    def __post_init__(self):
        g = np.array(self.gram, dtype=float)
        l = np.array(self.linear, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or l.shape != (g.shape[0],):
            raise ValueError("gram must be p x p and linear of length p")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(l)) and np.isfinite(self.constant)):
            raise ValueError("Gram system entries must be finite")
        if self.delta_n <= 0:
            raise ValueError("delta_n must be positive")
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
        l.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "linear", l)

    @property
    def p(self) -> int:
        return self.gram.shape[0]

    def contrast_value(self, theta: np.ndarray) -> float | np.ndarray:
        """R(theta); a stacked theta (L, p) gives the L values, one per row."""
        theta = np.asarray(theta, dtype=float)
        rows = np.atleast_2d(theta)
        quad = np.einsum("ip,ip->i", rows @ self.gram, rows)
        values = self.constant + rows @ self.linear + self.delta_n * quad
        return values if theta.ndim == 2 else float(values[0])

    def objective(self, theta: np.ndarray, lam: float) -> float:
        return self.contrast_value(theta) + lam * float(np.sum(np.abs(theta)))


@dataclass(frozen=True)
class GramBlockSums:
    """Per-block sums of Phi and the response y = DX + Dn phi_0(X); R = sum ||y + Dn Phi theta||^2 / (m Dn)."""

    phi_gram: np.ndarray  # (K, p, p)  sum Phi_i^T Phi_i
    phi_y: np.ndarray  # (K, p)        sum Phi_i^T y_i
    y_sq: np.ndarray  # (K,)           sum ||y_i||^2
    counts: np.ndarray  # (K,)
    delta_n: float

    @property
    def n_blocks(self) -> int:
        return self.counts.shape[0]

    def system(self, blocks: Sequence[int] | None = None) -> GramSystem:
        idx = np.arange(self.n_blocks) if blocks is None else np.asarray(blocks, dtype=int)
        m = int(self.counts[idx].sum())
        if m < 1:
            raise ValueError("selected blocks contain no increments")
        gram = self.phi_gram[idx].sum(axis=0) / m
        linear = 2.0 * self.phi_y[idx].sum(axis=0) / m
        constant = self.y_sq[idx].sum() / (m * self.delta_n)
        return GramSystem(gram=gram, linear=linear, constant=float(constant), delta_n=self.delta_n)


class _BlockSums:
    """Per-block contrast sums of a batch of paths, fed chunk by chunk in time order.

    ``add(start, states)`` takes a chunk's states (batch, L+1, d), row 0
    being the state after ``start`` increments, cuts it at the block
    boundaries (np.array_split's sizes) and adds each piece's sums to its
    block; ``result()`` gives one ``GramBlockSums`` per path.
    """

    def __init__(self, basis: DriftBasis, n: int, n_blocks: int, batch: int, delta_n: float):
        if not 1 <= n_blocks <= n:
            raise ValueError("n_blocks must be in [1, n]")
        self.basis, self.batch, self.delta_n = basis, batch, delta_n
        self.counts = np.array([n // n_blocks + (k < n % n_blocks) for k in range(n_blocks)])
        self.cuts = np.concatenate(([0], np.cumsum(self.counts)))
        p = basis.p  # GramBlockSums' sum fields, in order: phi_gram, phi_y, y_sq
        self.sums = [np.zeros((batch, n_blocks) + shape) for shape in ((p, p), (p,), ())]

    def add(self, start: int, states: np.ndarray) -> None:
        phi_gram, phi_y, y_sq = self.sums
        end, cuts = start + states.shape[1] - 1, self.cuts
        for k in np.flatnonzero((cuts[:-1] < end) & (cuts[1:] > start)):  # the blocks the chunk meets
            lo, hi = max(start, cuts[k]) - start, min(end, cuts[k + 1]) - start
            x = states[:, lo:hi]
            y = self.basis.response(x, states[:, lo + 1 : hi + 1] - x, self.delta_n)
            self.basis.add_sums(x, [y], phi_gram[:, k], [phi_y[:, k]])
            y_sq[:, k] += np.sum(np.square(y, out=y), axis=(1, 2))  # squared in place: no copy per chunk

    def result(self) -> list[GramBlockSums]:
        sums, counts, dn = self.sums, self.counts, self.delta_n
        return [GramBlockSums(*(s[i] for s in sums), counts, dn) for i in range(self.batch)]


def gram_blocks(trajectory: Trajectory, basis: DriftBasis, n_blocks: int = 1) -> GramBlockSums:
    """Contrast sums over ``n_blocks`` contiguous blocks of the stored path's time axis.

    The blocks have np.array_split's sizes; ``basis.response`` forms each
    block's response y and ``basis.add_sums`` its Gram and cross sums.
    """
    if trajectory.d != basis.d:
        raise ValueError(f"trajectory dimension {trajectory.d} != basis dimension {basis.d}")
    if trajectory.n < 2:
        raise ValueError("need at least 2 increments")
    sums = _BlockSums(basis, trajectory.n, n_blocks, 1, trajectory.delta_n)
    sums.add(0, trajectory.states[None])
    return sums.result()[0]


def build_gram(trajectory: Trajectory, basis: DriftBasis) -> GramSystem:
    """Exact quadratic representation of the contrast for the whole trajectory."""
    return gram_blocks(trajectory, basis, 1).system()


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LassoConfig:
    tol: float = 1e-9  # converged iff the KKT residual is <= 10 * tol * max(1, ||l||_inf)
    max_sweeps: int = 10000  # cap on the homotopy knots passed
    snap: float = 1e-12  # magnitudes below this become exact zeros

    def __post_init__(self):
        if self.tol <= 0 or self.max_sweeps < 1 or self.snap < 0:
            raise ValueError("invalid solver configuration")


@dataclass(frozen=True)
class EstimationResult:
    theta_hat: np.ndarray
    lam: float
    sweeps_used: int
    kkt_residual: float
    converged: bool
    pinned: tuple[int, ...] = ()
    rank_deficient: bool = False

    def __post_init__(self):
        th = np.array(self.theta_hat, dtype=float)
        th.setflags(write=False)
        object.__setattr__(self, "theta_hat", th)

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "kkt_residual": self.kkt_residual,
            "sweeps": self.sweeps_used,
            "converged": self.converged,
            "rank_deficient": self.rank_deficient,
            "theta": [float(v) for v in self.theta_hat],
        }


def kkt_residual(
    gram: GramSystem, theta: np.ndarray, lam: float | np.ndarray
) -> float | np.ndarray:
    """Max violation of the subgradient conditions at theta.

    For theta_j != 0 the stationarity term l_j + 2 Dn (G theta)_j + lam sign
    must vanish; for theta_j = 0 the gradient must stay within [-lam, lam].
    Coordinates with a zero Gram column are skipped (they are pinned).

    A stacked theta (L, p) with lam (L,) gives the L residuals.  Each row's
    G theta is an einsum over that row alone (not a BLAS matmul, whose
    blocking depends on L), so a row's residual is bitwise the same in any
    batch and in the one-dimensional form.
    """
    g = gram.gram
    theta = np.asarray(theta, dtype=float)
    rows = np.atleast_2d(theta)
    lam_col = np.asarray(lam, dtype=float).reshape(-1, 1)
    grad = gram.linear + 2.0 * gram.delta_n * np.einsum("ip,qp->iq", rows, g)
    violation = np.where(
        rows != 0.0,
        np.abs(grad + lam_col * np.sign(rows)),
        np.maximum(np.abs(grad) - lam_col, 0.0),
    )
    res = np.max(violation[:, np.diag(g) != 0.0], axis=1, initial=0.0)
    return res if theta.ndim == 2 else float(res[0])


def mle_solve(gram: GramSystem) -> EstimationResult:
    """Minimum-norm solution of 2 Dn G theta = -l (singular values < 1e-10 max dropped).

    Degenerate systems never raise; they yield the minimum-norm solution with
    the rank flag set.  ``converged`` reports whether the stationarity system
    was actually solved to tolerance, which truncation can prevent.
    """
    lhs = 2.0 * gram.delta_n * gram.gram
    theta, _, rank, _ = np.linalg.lstsq(lhs, -gram.linear, rcond=1e-10)
    res = kkt_residual(gram, theta, 0.0)
    bound = 10.0 * LassoConfig().tol * max(1.0, float(np.max(np.abs(gram.linear))) if gram.p else 1.0)
    return EstimationResult(
        theta_hat=theta,
        lam=0.0,
        sweeps_used=0,
        kkt_residual=res,
        converged=res <= bound,
        rank_deficient=bool(rank < gram.p),
    )


# Fixed homotopy tolerances, so that every path is deterministic.
_RCOND = 1e-10  # relative singular-value cut of the minimum-norm active-block solve
_TIE = 1e-12  # slack (relative to lambda_max) at which a correlation is tied with lambda
_RATE = 1e-9  # rate margin below which a tied coordinate moves parallel to the boundary
_ZERO = 1e-12  # relative magnitude below which an active coordinate counts as zero


@dataclass(frozen=True)
class LassoPath:
    """Solutions along a penalty grid, one row per grid point (all arrays read-only).

    Indexing gives the point as an ``EstimationResult`` (a slice gives a list
    of them), so ``path[0]``, ``path[-1]`` and iteration serve callers that
    want one fit at a time.
    """

    lambdas: np.ndarray  # (L,)
    theta: np.ndarray  # (L, p)
    sweeps_used: np.ndarray  # (L,) homotopy knots passed
    kkt_residual: np.ndarray  # (L,)
    converged: np.ndarray  # (L,) KKT-certified
    pinned: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("lambdas", "theta", "sweeps_used", "kkt_residual", "converged"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return self.lambdas.size

    def __getitem__(self, i: int | slice) -> EstimationResult | list[EstimationResult]:
        i = range(len(self))[i]
        if isinstance(i, range):
            return [self[j] for j in i]
        return EstimationResult(
            theta_hat=self.theta[i],
            lam=float(self.lambdas[i]),
            sweeps_used=int(self.sweeps_used[i]),
            kkt_residual=float(self.kkt_residual[i]),
            converged=bool(self.converged[i]),
            pinned=self.pinned,
        )


def lasso_path(
    gram: GramSystem,
    lambda_grid: Sequence[float],
    config: LassoConfig | None = None,
) -> LassoPath:
    """Exact solutions along a strictly descending penalty grid from one homotopy.

    The solution is piecewise linear in lambda (Osborne, Presnell & Turlach
    2000; Efron et al. 2004).  Starting from theta = 0 at lambda_max =
    max |l_j|, each segment keeps an active set A with signs s_A fixed and
    solves Q_AA theta_A = -l_A - lambda s_A, Q = 2 Dn G, from scratch at its
    knot: the minimum-norm least-squares solution with a fixed singular-value
    cut, which picks one solution when the active block is singular
    (Tibshirani 2013, "The lasso problem and uniqueness").  A segment ends
    where an inactive correlation reaches lambda (the coordinate joins) or an
    active coordinate reaches zero (it leaves); grid points are read off the
    segment that contains them.

    Before each segment the active set is made direction-consistent, one
    coordinate at a time, lowest index first: a tied inactive coordinate whose
    correlation would outgrow lambda joins, and a zero-valued active
    coordinate that would move against its sign leaves.  At most 2p changes
    are made per knot and the direction is re-solved after each, so the set
    and its solve always agree.  ``config.max_sweeps`` caps the number of
    knots.

    Each grid point's solution is written into its row of ``theta``; the
    snap and one ``kkt_residual`` call then run over the stacked rows.  The
    returned ``LassoPath`` gives per point the knots passed
    (``sweeps_used``), the KKT residual and ``converged``, true iff that
    residual is within 10 * tol * max(1, ||l||_inf).

    The knots do not depend on the grid and each row's KKT residual does not
    depend on the other rows, so a grid point's result is bitwise the same on
    any grid that contains it; ``lasso_path(gram, [lam])[0]`` is the
    single-lambda fit.
    """
    config = config or LassoConfig()
    grid = np.array(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) >= 0):
        raise ValueError("lambda grid must be strictly descending")
    if not np.all(np.isfinite(grid)) or grid[-1] < 0:
        raise ValueError("lambda grid must be finite and nonnegative")
    l = gram.linear
    q = 2.0 * gram.delta_n * gram.gram
    p = gram.p
    free = np.diag(gram.gram) != 0.0
    pinned = tuple(int(j) for j in np.flatnonzero(~free))
    kkt_bound = 10.0 * config.tol * max(1.0, float(np.max(np.abs(l))) if p else 1.0)
    lam_max = float(np.max(np.abs(l[free]), initial=0.0))
    tie = _TIE * max(lam_max, np.finfo(float).tiny)

    active: list[int] = []  # kept ascending, so the solve sees one column order
    signs = np.zeros(p)

    def direction() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, a, b) with theta_A(lambda) = a + lambda b on the current segment."""
        idx = np.array(active, dtype=int)
        if idx.size == 0:
            return idx, np.zeros(0), np.zeros(0)
        rhs = -np.column_stack((l[idx], signs[idx]))
        sol = np.linalg.lstsq(q[np.ix_(idx, idx)], rhs, rcond=_RCOND)[0]
        return idx, sol[:, 0], sol[:, 1]

    def toggle(j: int, sign: float) -> None:
        if j in active:
            active.remove(j)
        else:
            active.append(j)
            active.sort()
            signs[j] = sign

    def consistent_direction(lam: float) -> tuple[np.ndarray, ...]:
        """(A, a, b, c, v) after the repairs: c are the correlations at lam, v = dc/dlambda."""
        changes = 0
        while True:
            idx, a, b = direction()
            theta_a = a + lam * b
            c = -(l + q[:, idx] @ theta_a)
            v = -(q[:, idx] @ b)
            zero = np.abs(theta_a) <= _ZERO * max(1.0, float(np.max(np.abs(theta_a), initial=0.0)))
            against = signs[idx] * b > _RATE * float(np.max(np.abs(b), initial=0.0))
            tied = free & (lam - np.abs(c) <= tie) & (np.sign(c) * v < 1.0 - _RATE)
            tied[idx] = False
            candidates = idx[zero & against].tolist() + np.flatnonzero(tied).tolist()
            if not candidates or changes == 2 * p:
                return idx, a, b, c, v
            j = min(candidates)
            toggle(j, np.sign(c[j]))
            changes += 1

    theta = np.zeros((grid.size, p))
    sweeps = np.zeros(grid.size, dtype=int)
    gi = int(np.sum(grid >= lam_max))  # these points keep the null solution
    lam = lam_max
    knots = 0
    while gi < grid.size:
        idx, a, b, c, v = consistent_direction(lam)
        # the next knot: the largest lambda' < lambda where a coordinate joins or leaves
        step = np.full(p, np.inf)
        join = np.zeros(p)
        if knots < config.max_sweeps:
            theta_a = a + lam * b
            with np.errstate(divide="ignore", invalid="ignore"):
                for sigma in (1.0, -1.0):
                    slack = lam - sigma * c
                    rate = 1.0 - sigma * v
                    hit = free & (slack > tie) & (rate > 0.0)
                    hit[idx] = False
                    cand = np.where(hit, slack / rate, np.inf)
                    better = cand < step
                    step[better] = cand[better]
                    join[better] = sigma
                leaving = (signs[idx] * theta_a > 0.0) & (signs[idx] * b > 0.0)
                step[idx] = np.where(leaving, theta_a / b, np.inf)
        j = int(np.argmin(step))
        lam_next = lam - step[j]
        end = gi + int(np.sum(grid[gi:] >= lam_next))
        theta[gi:end, idx] = a + grid[gi:end, None] * b
        sweeps[gi:end] = knots
        gi = end
        if gi == grid.size:
            break
        lam = lam_next
        knots += 1
        toggle(j, join[j])
    theta[np.abs(theta) < config.snap] = 0.0
    res = kkt_residual(gram, theta, grid)
    return LassoPath(
        lambdas=grid,
        theta=theta,
        sweeps_used=sweeps,
        kkt_residual=res,
        converged=res <= kkt_bound,
        pinned=pinned,
    )


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CVResult:
    lambda_star: float
    lambdas: np.ndarray  # descending
    fold_scores: np.ndarray  # (K, L)
    mean_scores: np.ndarray  # (L,)
    short_blocks: bool
    fold_fits: int = 0  # fold-grid solutions made: K * L
    uncertified: int = 0  # of those, the ones not KKT-certified

    def __post_init__(self):
        for name in ("lambdas", "fold_scores", "mean_scores"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def select_lambda_descending(lambdas: np.ndarray, mean_scores: np.ndarray) -> float:
    """Grid argmin of the mean score; ties resolved toward the larger lambda."""
    best = 0
    for i in range(1, lambdas.size):
        if mean_scores[i] < mean_scores[best]:
            best = i
    return float(lambdas[best])


def cross_validate(
    blocks: GramBlockSums,
    lambda_grid: Sequence[float],
    config: LassoConfig | None = None,
) -> CVResult:
    """Blocked K-fold selection of the penalty weight.

    The K blocks are contiguous stretches of the time axis.  Each fold fits
    the union of the other blocks along the descending grid and scores it by
    the unpenalized contrast of the held-out block, evaluated over the whole
    grid at once from the path's stacked solutions.  Time ordering is never
    shuffled.
    """
    folds = blocks.n_blocks
    if folds < 2:
        raise ValueError("cross-validation needs at least 2 blocks")
    # sort and drop adjacent repeats: np.unique would import numpy.ma into the run
    grid = np.sort(np.asarray(lambda_grid, dtype=float), axis=None)[::-1]
    grid = grid[np.append(True, grid[1:] != grid[:-1])] if grid.size else grid
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("lambda grid must be nonempty and strictly positive")

    fold_scores = np.zeros((folds, grid.size))
    uncertified = 0
    for k in range(folds):
        path = lasso_path(blocks.system([j for j in range(folds) if j != k]), grid, config)
        fold_scores[k] = blocks.system([k]).contrast_value(path.theta)
        uncertified += int((~path.converged).sum())
    mean_scores = fold_scores.mean(axis=0)
    return CVResult(
        lambda_star=select_lambda_descending(grid, mean_scores),
        lambdas=grid,
        fold_scores=fold_scores,
        mean_scores=mean_scores,
        short_blocks=bool(np.min(blocks.counts) < blocks.phi_gram.shape[1]),
        fold_fits=fold_scores.size,
        uncertified=uncertified,
    )


def default_lambda_grid(gram: GramSystem, num: int, ratio: float) -> np.ndarray:
    """Descending geometric grid from the null-solution threshold ||l||_inf down."""
    lam_max = float(np.max(np.abs(gram.linear)))
    if lam_max <= 0:
        lam_max = 1.0
    return np.geomspace(lam_max, lam_max * ratio, num)
