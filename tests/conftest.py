"""Shared helpers: random stable matrices, PD Gram systems, small drift models, quadrature and Lasso oracles."""

import math

import numpy as np
import scipy.linalg

from sparsedrift import rng as streams
from sparsedrift.estimate import GramSystem
from sparsedrift.model import DriftBasis, cosine_basis, generate_sparse_param, ou_linear_basis


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
        return cosine_basis(3, 7, 0.5), generate_sparse_param(7, 0.6, streams.stream(1, streams.PARAM)).values
    return ou_linear_basis(3), (np.eye(3) + 0.2 * np.arange(9).reshape(3, 3) / 9).flatten(order="F")


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
