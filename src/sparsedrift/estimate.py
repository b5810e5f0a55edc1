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
  lambda ||theta||_1 over a descending lambda grid, one homotopy per
  connected component of G != 0 (the objective separates over them; C (x) I_d
  has d, a dense Gram one), all components stepped in lockstep; returned as a
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


# Fixed solver tolerances, so that every fit is deterministic.
_TOL = 1e-9  # a fit is converged iff its KKT residual is <= 10 * _TOL * max(1, ||l||_inf)
_SNAP = 1e-12  # homotopy magnitudes below this become exact zeros
_RCOND = 1e-10  # relative singular-value cut of the minimum-norm solves
_TIE = 1e-12  # slack (relative to lambda_max) at which a correlation is tied with lambda
_RATE = 1e-9  # rate margin below which a tied coordinate moves parallel to the boundary
_ZERO = 1e-12  # relative magnitude below which an active coordinate counts as zero
_MAX_SWEEPS = 10000  # default cap on the homotopy knots of each Gram component (estimation.solver)


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


def _kkt_bound(gram: GramSystem) -> float:
    """The KKT residual within which a fit on ``gram`` is converged: 10 * _TOL * max(1, ||l||_inf)."""
    return 10.0 * _TOL * max(1.0, float(np.max(np.abs(gram.linear), initial=0.0)))


def mle_solve(gram: GramSystem) -> EstimationResult:
    """Minimum-norm solution of 2 Dn G theta = -l (singular values < ``_RCOND`` max dropped).

    Degenerate systems never raise; they yield the minimum-norm solution with
    the rank flag set.  ``converged`` reports whether the stationarity system
    was actually solved to tolerance, which truncation can prevent.
    """
    lhs = 2.0 * gram.delta_n * gram.gram
    theta, _, rank, _ = np.linalg.lstsq(lhs, -gram.linear, rcond=_RCOND)
    res = kkt_residual(gram, theta, 0.0)
    return EstimationResult(
        theta_hat=theta,
        lam=0.0,
        sweeps_used=0,
        kkt_residual=res,
        converged=res <= _kkt_bound(gram),
        rank_deficient=bool(rank < gram.p),
    )


@dataclass(frozen=True)
class LassoPath:
    """Solutions along a penalty grid, one row per grid point (all arrays read-only).

    Indexing gives the point as an ``EstimationResult`` (a slice gives a list
    of them), so ``path[0]``, ``path[-1]`` and iteration serve callers that
    want one fit at a time.
    """

    lambdas: np.ndarray  # (L,)
    theta: np.ndarray  # (L, p)
    sweeps_used: np.ndarray  # (L,) homotopy knots passed, summed over the Gram components
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


def _gram_components(gram: GramSystem) -> np.ndarray:
    """Members (K, m) of the connected components of G != 0 among the free coordinates.

    Row k lists component k ascending, padded with p up to the largest size
    m, and the rows are ordered by their first member: C (x) I_d gives d
    components of d coordinates, a dense Gram one, a Gram with every
    coordinate pinned none.  Each coordinate takes the least label among its
    neighbours, then the label of that label (pointer jumping), until no
    label changes.
    """
    free = np.flatnonzero(np.diag(gram.gram) != 0.0)
    adjacent = gram.gram[np.ix_(free, free)] != 0.0
    label = np.arange(free.size)
    while True:  # label[i] <= i is always a member of i's component
        new = np.min(np.where(adjacent, label, free.size), axis=1, initial=free.size)
        new = new[new]
        if np.array_equal(new, label):  # neighbours share a label: the component's first member
            break
        label = new
    roots = np.flatnonzero(label == np.arange(free.size))
    comp = np.searchsorted(roots, label)
    sizes = np.bincount(comp, minlength=roots.size)
    order = np.argsort(comp, kind="stable")
    members = np.full((roots.size, sizes.max(initial=0)), gram.p)
    members[comp[order], np.arange(free.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)] = free[order]
    return members


def lasso_path(gram: GramSystem, lambda_grid: Sequence[float], *, max_sweeps: int = _MAX_SWEEPS) -> LassoPath:
    """Exact solutions along a strictly descending penalty grid from one homotopy per Gram component.

    The solution is piecewise linear in lambda (Osborne, Presnell & Turlach
    2000; Efron et al. 2004).  The objective separates over the connected
    components of G != 0 among the free coordinates (``_gram_components``;
    C (x) I_d has d of them), so each component runs its own homotopy, with
    its own lambda_max, tie slack, knots and repairs.  Starting from
    theta = 0 at the component's lambda_max = max |l_j|, each segment keeps
    an active set A with signs s_A fixed and solves
    Q_AA theta_A = -l_A - lambda s_A, Q = 2 Dn G, from scratch at its knot:
    the minimum-norm least-squares solution with a fixed singular-value cut,
    which picks one solution when the active block is singular (Tibshirani
    2013, "The lasso problem and uniqueness").  A segment ends where an
    inactive correlation reaches lambda (the coordinate joins) or an active
    coordinate reaches zero (it leaves); grid points are read off the
    segment that contains them.

    Before each segment the active set is made direction-consistent, one
    coordinate at a time, lowest index first: a tied inactive coordinate whose
    correlation would outgrow lambda joins, and a zero-valued active
    coordinate that would move against its sign leaves.  At most twice the
    component's size changes are made per knot and the direction is
    re-solved after each, so the set and its solve always agree.

    The components advance in lockstep, one knot each per pass: only the
    active-block solves and the correlations they give run per component;
    the repair candidates, the join and leave steps and the grid read-off run
    as arrays over (component, coordinate).  Each component's columns are
    bitwise those of that component solved alone.  ``max_sweeps`` (at least
    1) caps each component's knots, and ``sweeps_used`` is the sum over the
    components of the knots passed at each grid point; a one-component Gram
    (a dense one) is a single homotopy.  A grid at or above every
    component's lambda_max keeps the null solution without finding the
    components.

    Each grid point's solution is written into its row of ``theta``; the
    snap (magnitudes below ``_SNAP`` become 0) and one ``kkt_residual`` call
    over the full system then run over the stacked rows (the off-component
    Gram entries are exact zeros).  The returned ``LassoPath`` gives per
    point ``sweeps_used``, the KKT residual and ``converged``, true iff that
    residual is within 10 * _TOL * max(1, ||l||_inf).

    The knots do not depend on the grid and each row's KKT residual does not
    depend on the other rows, so a grid point's result is bitwise the same on
    any grid that contains it; ``lasso_path(gram, [lam])[0]`` is the
    single-lambda fit.
    """
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps!r}")
    grid = np.array(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) >= 0):
        raise ValueError("lambda grid must be strictly descending")
    if not np.all(np.isfinite(grid)) or grid[-1] < 0:
        raise ValueError("lambda grid must be finite and nonnegative")
    l = gram.linear
    p = gram.p
    free = np.diag(gram.gram) != 0.0
    pinned = tuple(int(j) for j in np.flatnonzero(~free))
    if grid[-1] < np.max(np.abs(l[free]), initial=0.0):
        theta, sweeps = _lockstep_homotopy(gram, _gram_components(gram), grid, max_sweeps)
        theta[np.abs(theta) < _SNAP] = 0.0
    else:  # every point keeps the null solution
        theta, sweeps = np.zeros((grid.size, p)), np.zeros(grid.size, dtype=int)
    res = kkt_residual(gram, theta, grid)
    return LassoPath(
        lambdas=grid,
        theta=theta,
        sweeps_used=sweeps,
        kkt_residual=res,
        converged=res <= _kkt_bound(gram),
        pinned=pinned,
    )


def _lockstep_homotopy(
    gram: GramSystem, members: np.ndarray, grid: np.ndarray, max_knots: int
) -> tuple[np.ndarray, np.ndarray]:
    """(theta (L, p), knots (L,) summed over the components): ``lasso_path``'s homotopies in lockstep.

    The state is kept as arrays over (component, slot) in ``members``'
    layout; a padding slot is never valid, active or a candidate, and a
    finished component's state is not read again.  Lambda and the tie
    slack are kept per slot, so the elementwise steps do not broadcast.
    """
    n_comp, width = members.shape
    valid = members < gram.p
    sizes = valid.sum(axis=1)
    q = [2.0 * gram.delta_n * gram.gram[np.ix_(mem[:n], mem[:n])] for mem, n in zip(members, sizes.tolist())]
    rhs = np.zeros((2, n_comp, width))  # (l_j, s_j) per slot: the solve's right-hand side is -rhs[:, A].T
    lin, signs = rhs
    lin[:] = np.append(gram.linear, 0.0)[members]
    ab = np.zeros((2, n_comp, width))  # theta_j(lambda) = a_j + lambda b_j on the segment, 0 off A
    a, b = ab
    c, v = -lin, np.zeros((n_comp, width))  # the correlations at lambda and dc/dlambda
    lam = np.repeat(np.abs(lin).max(axis=1, keepdims=True), width, axis=1)  # from each lambda_max
    tie = np.where(valid, _TIE * np.maximum(lam, np.finfo(float).tiny), np.inf)  # a padding slot never joins
    descent = -grid  # ascending: searchsorted(descent, -x, "right") counts the points at or above x
    gi = np.searchsorted(descent, -lam[:, 0], side="right")  # points read off; above lambda_max, the null one
    knots = np.zeros(n_comp, dtype=int)
    active = np.zeros((n_comp, width), dtype=bool)
    segment_ab = np.zeros((2, n_comp, grid.size, width))  # (a, b) of the segment each point is read off
    segment_knots = np.zeros((n_comp, grid.size), dtype=int)
    points, slots = np.arange(grid.size), np.arange(width)
    running = gi < grid.size
    resolve = np.zeros(n_comp, dtype=bool)  # whose active set changed since its last solve
    cap = 2 * sizes  # repairs per knot
    while running.any():
        changes = np.where(running, 0, cap)  # a finished component makes no repairs
        while True:  # the repairs, one coordinate per component and round
            for k in np.flatnonzero(resolve).tolist():
                idx = np.flatnonzero(active[k])
                ab[:, k] = 0.0
                if idx.size == 0:
                    c[k], v[k] = -lin[k], 0.0
                    continue
                sol = np.linalg.lstsq(q[k][idx[:, None], idx], -rhs[:, k, idx].T, rcond=_RCOND)[0]
                ab[:, k, idx] = sol.T
                cols = q[k][:, idx]
                n = len(cols)
                c[k, :n] = -(lin[k, :n] + cols @ (sol[:, 0] + lam[k, 0] * sol[:, 1]))
                v[k, :n] = -(cols @ sol[:, 1])
            theta_a = a + lam * b
            size_a = np.abs(theta_a)
            zero = size_a <= _ZERO * np.maximum(1.0, size_a.max(axis=1, keepdims=True))
            against = signs * b > _RATE * np.abs(b).max(axis=1, keepdims=True)
            tied = (lam - np.abs(c) <= tie) & (np.sign(c) * v < 1.0 - _RATE)
            candidate = np.where(active, zero & against, tied & valid)
            resolve = candidate.any(axis=1) & (changes < cap)
            if not resolve.any():
                break
            rows = np.flatnonzero(resolve)
            j = candidate[rows].argmax(axis=1)  # the lowest index
            active[rows, j] ^= True
            signs[rows, j] = np.sign(c[rows, j])
            changes[rows] += 1
        # each component's next knot: the largest lambda' < lambda where a coordinate joins or leaves
        inactive = ~active
        slack, rate = lam - c, 1.0 - v  # joining with sign +1
        join_up = np.divide(slack, rate, out=np.full_like(lam, np.inf), where=(slack > tie) & (rate > 0.0) & inactive)
        slack, rate = lam + c, 1.0 + v  # joining with sign -1
        join_down = np.divide(slack, rate, out=np.full_like(lam, np.inf), where=(slack > tie) & (rate > 0.0) & inactive)
        step = np.minimum(join_up, join_down)
        np.divide(theta_a, b, out=step, where=(signs * theta_a > 0.0) & (signs * b > 0.0))  # leaving; 0 off A
        step[knots >= max_knots] = np.inf
        j = step.argmin(axis=1)
        lam_next = lam[:, 0] - step.min(axis=1)
        tail = points >= gi[:, None]  # later segments overwrite the points past this one
        np.copyto(segment_ab, ab[:, :, None], where=tail[:, :, None])
        np.copyto(segment_knots, knots[:, None], where=tail)
        gi = np.maximum(gi, np.searchsorted(descent, -lam_next, side="right"))  # a finished one keeps L
        running = resolve = gi < grid.size
        np.copyto(lam, lam_next[:, None], where=running[:, None])
        knots += 1
        knot = slots == j[:, None]  # the slot that joins or leaves
        active ^= knot
        np.copyto(signs, np.where(join_up <= join_down, 1.0, -1.0), where=knot)
    theta = np.zeros((grid.size, gram.p))
    values = segment_ab[0] + grid[:, None] * segment_ab[1]  # (K, L, m)
    theta[:, members[valid]] = values.transpose(1, 0, 2)[:, valid]
    return theta, segment_knots.sum(axis=0)


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
    """Grid argmin of the mean score; ties resolved toward the larger lambda (the first minimum)."""
    return float(lambdas[np.argmin(mean_scores)])


def cross_validate(
    blocks: GramBlockSums, lambda_grid: Sequence[float], *, max_sweeps: int = _MAX_SWEEPS
) -> CVResult:
    """Blocked K-fold selection of the penalty weight.

    The K blocks are contiguous stretches of the time axis.  Each fold fits
    the union of the other blocks along the descending grid and scores it by
    the unpenalized contrast of the held-out block, evaluated over the whole
    grid at once from the path's stacked solutions.  Time ordering is never
    shuffled.  ``max_sweeps`` caps the fold fits' knots as in ``lasso_path``.
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
        path = lasso_path(blocks.system([j for j in range(folds) if j != k]), grid, max_sweeps=max_sweeps)
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
