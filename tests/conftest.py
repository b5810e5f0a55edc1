"""Shared helpers: stable matrices, PD Gram systems, small drift models, quadrature, the cone check, and test oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from sparsedrift import rng as streams
from sparsedrift import simulate
from sparsedrift.estimate import GramBlockSums, GramSystem, lasso_path
from sparsedrift.model import DriftBasis, cosine_basis, generate_sparse_param, ou_linear_basis


@pytest.fixture(autouse=True)
def _empty_transition_cache():
    """Start every test with no memoised OU transition, so a patched Lyapunov solver is reached."""
    simulate._cached_transition.cache_clear()


def random_stable_matrix(rng: np.random.Generator, d: int, margin: float = 0.3) -> np.ndarray:
    """Random matrix with all eigenvalue real parts >= margin."""
    a = rng.normal(size=(d, d)) / np.sqrt(d)
    shift = margin - min(np.linalg.eigvals(a).real.min(), 0.0)
    return a + shift * np.eye(d)


def random_pd_gram(rng: np.random.Generator, p: int, delta_n: float | None = None) -> GramSystem:
    """Well-conditioned random Gram system (min eigenvalue >= 0.1)."""
    b = rng.normal(size=(2 * p, p))
    g = b.T @ b / (2 * p) + 0.1 * np.eye(p)
    return GramSystem(
        gram=g,
        linear=rng.normal(size=p),
        constant=float(rng.normal()),
        delta_n=delta_n if delta_n is not None else float(rng.uniform(0.3, 1.0)),
    )


def small_linear_drift(family: str) -> tuple[DriftBasis, np.ndarray]:
    """(basis, theta) at d=3: a sparse cosine drift (p=7) or a stable ou-linear drift."""
    if family == "cosine":
        return cosine_basis(3, 7, 0.5), generate_sparse_param(7, 0.6, streams.stream(1, streams.PARAM))
    return ou_linear_basis(3), (np.eye(3) + 0.2 * np.arange(9).reshape(3, 3) / 9).flatten(order="F")


def largest_magnitude_indices(x: np.ndarray, s: int) -> np.ndarray:
    """Indices of the s largest-magnitude entries; ties go to the lowest index."""
    x = np.asarray(x, dtype=float)
    order = np.lexsort((np.arange(x.size), -np.abs(x)))
    return order[: min(s, x.size)]


def cone_membership(x: np.ndarray, s: int, c: float) -> bool:
    """Whether the l1 mass of x is dominated by its s largest entries.

    Membership test: ||x||_1 <= (1 + c) ||x restricted to its s largest
    magnitudes||_1.  Both sides are 1-homogeneous so the answer is invariant
    under positive scaling of x.  The zero vector is excluded by definition.
    Reference for the cone directions of ``theory._cone_directions``.
    """
    x = np.asarray(x, dtype=float)
    if s < 1:
        raise ValueError("s must be >= 1")
    if c <= 0:
        raise ValueError("c must be > 0")
    if not np.any(x != 0):
        raise ValueError("the cone excludes the zero vector")
    top = largest_magnitude_indices(x, s)
    return bool(np.sum(np.abs(x)) <= (1.0 + c) * np.sum(np.abs(x[top])))


def reference_cd(gs: GramSystem, lam: float, tol: float = 1e-12, max_sweeps: int = 100_000) -> np.ndarray:
    """Plain cyclic coordinate descent on c + l.theta + Dn theta^T G theta + lam ||theta||_1.

    Independent oracle for the homotopy path.  Each sweep visits every
    coordinate with a nonzero Gram diagonal in index order and moves it to its
    exact soft-threshold minimizer; the sweeps stop once none moves by more
    than tol.  Coordinates with a zero diagonal stay at zero.
    """
    q = 2.0 * gs.delta_n * gs.gram
    theta = np.zeros(gs.p)
    free = np.flatnonzero(np.diag(q) != 0.0)
    for _ in range(max_sweeps):
        move = 0.0
        for j in free:
            z = -(gs.linear[j] + q[j] @ theta - q[j, j] * theta[j])
            new = np.sign(z) * max(abs(z) - lam, 0.0) / q[j, j]
            move = max(move, abs(new - theta[j]))
            theta[j] = new
        if move <= tol:
            return theta
    raise RuntimeError("reference coordinate descent did not converge")


def brute_force_lasso(gram: GramSystem, lam: float) -> np.ndarray:
    """Enumerate all 3^p sign patterns (p <= 3) and return the feasible optimum.

    Test oracle: for each pattern the restricted stationarity system is
    solved, sign consistency and the zero-coordinate subgradient bounds are
    checked, and the objective-minimal feasible solution wins.
    """
    p = gram.p
    if p > 3:
        raise ValueError("brute force oracle is limited to p <= 3")
    g = gram.gram
    l = gram.linear
    dn = gram.delta_n
    best = None
    best_obj = np.inf
    patterns = np.stack(np.meshgrid(*([[-1, 0, 1]] * p), indexing="ij")).reshape(p, -1).T
    for sigma in patterns:
        theta = np.zeros(p)
        active = np.flatnonzero(sigma != 0)
        if active.size:
            lhs = 2.0 * dn * g[np.ix_(active, active)]
            rhs = -l[active] - lam * sigma[active]
            sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
            theta[active] = sol
            if np.any(sigma[active] * sol < -1e-12):
                continue
        grad = l + 2.0 * dn * (g @ theta)
        zero = np.flatnonzero(sigma == 0)
        if np.any(np.abs(grad[zero]) > lam + 1e-9):
            continue
        obj = gram.objective(theta, lam)
        if obj < best_obj:
            best_obj = obj
            best = theta
    if best is None:
        raise RuntimeError("no feasible sign pattern found (non-convex input?)")
    return best


def reference_gram_sums(
    states: np.ndarray, basis: DriftBasis, n_blocks: int, delta_n: float
) -> tuple[np.ndarray, ...]:
    """(phi_gram, phi_y, y_sq) per block by einsum over the (i, d, p) basis tensor.

    y = DX + delta_n * phi_0(X) from ``phi0_batch``.  Independent of the
    chunking and of the BLAS products ``gram_blocks`` uses: each block's
    tensor is contracted whole.
    """
    y = np.diff(states, axis=0) + delta_n * basis.phi0_batch(states[:-1])
    out = ([], [], [])
    for idx in np.array_split(np.arange(y.shape[0]), n_blocks):
        phi = basis.phi_batch(states[idx])
        out[0].append(np.einsum("idp,idq->pq", phi, phi))
        out[1].append(np.einsum("idp,id->p", phi, y[idx]))
        out[2].append(np.einsum("id,id->", y[idx], y[idx]))
    return tuple(np.array(part) for part in out)


def ou_row_blocks(traj, n_blocks: int) -> list[GramBlockSums]:
    """The interaction matrix's per-block sums of a stored OU path as d independent row problems.

    Row r's contrast is (1/T) sum_i (DX_i^r + Dn a_r . X_{t_{i-1}})^2, so every
    row has the empirical covariance sums X X^T as its Gram and no phi_0, and
    stacking the row fits reproduces the ou-linear basis fit.  Reference for
    the stacked basis, whose Gram is C (x) I_d.
    """
    x = traj.states[:-1]
    dx = traj.increments()
    parts = np.array_split(np.arange(traj.n), n_blocks)
    x_gram = np.stack([x[idx].T @ x[idx] for idx in parts])
    cross = np.stack([x[idx].T @ dx[idx] for idx in parts])  # [k][c, r]: sum X^c DX^r
    dx_sq = np.stack([np.sum(dx[idx] ** 2, axis=0) for idx in parts])
    counts = np.array([idx.size for idx in parts])
    return [
        GramBlockSums(
            phi_gram=x_gram, phi_y=cross[:, :, r], y_sq=dx_sq[:, r], counts=counts, delta_n=traj.delta_n
        )
        for r in range(traj.d)
    ]


def within_kkt_tol(gram: GramSystem, residual: float, tol: float) -> bool:
    """Whether a fit's KKT residual on ``gram`` is within 10 * tol * max(1, ||l||_inf), the solver's bound at ``tol``."""
    return residual <= 10.0 * tol * max(1.0, float(np.max(np.abs(gram.linear), initial=0.0)))


def ou_row_fit(traj, lam: float, kkt_tol: float | None = None) -> np.ndarray:
    """A_hat from the d row-wise Lasso fits at lam, one per row system of ``ou_row_blocks``.

    With ``kkt_tol`` set, every row fit must be ``within_kkt_tol`` at that tol.
    """
    rows = []
    for blocks in ou_row_blocks(traj, 1):
        gram = blocks.system()
        fit = lasso_path(gram, [lam])[0]
        assert kkt_tol is None or within_kkt_tol(gram, fit.kkt_residual, kkt_tol)
        rows.append(fit.theta_hat)
    return np.vstack(rows)


def ou_oracle_lhs(traj, a_mat: np.ndarray, lam: float) -> tuple[float, np.ndarray]:
    """(tr((A_hat - A) C_T (A_hat - A)^T), A_hat) from the row-wise fit, C_T = X^T X / n inline.

    Reference for the oracle inequality's lhs on the interaction matrix,
    independent of the stacked ou-linear Gram the package fits on.
    """
    a_hat = ou_row_fit(traj, lam)
    x = traj.states[:-1]
    err = a_hat - a_mat
    return float(np.trace(err @ (x.T @ x / x.shape[0]) @ err.T)), a_hat


def _panel_integral(a_mat: np.ndarray, s0: float, s1: float) -> np.ndarray:
    nodes, weights = np.polynomial.legendre.leggauss(12)
    mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
    total = np.zeros_like(a_mat)
    for x, w in zip(nodes, weights):
        e = scipy.linalg.expm(-a_mat * (mid + half * x))
        total += w * half * (e @ e.T)
    return total


def quadrature_exp_integral(
    a_mat: np.ndarray, upper: float | None = None, panel: float = 0.25
) -> np.ndarray:
    """Composite Gauss-Legendre quadrature of int_0^upper e^{-sA} e^{-sA^T} ds.

    For upper=None the integral is truncated once the integrand norm falls
    below 1e-14.  Independent oracle for the Lyapunov/transition solvers.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    total = np.zeros_like(a_mat)
    if upper is not None:
        n_panels = max(1, math.ceil(upper / panel))
        edges = np.linspace(0.0, upper, n_panels + 1)
        for s0, s1 in zip(edges[:-1], edges[1:]):
            total += _panel_integral(a_mat, s0, s1)
        return total
    s0 = 0.0
    while True:
        total += _panel_integral(a_mat, s0, s0 + panel)
        s0 += panel
        tail = scipy.linalg.expm(-a_mat * s0)
        if np.max(np.abs(tail @ tail.T)) < 1e-14:
            return total
