"""Drift families for the diffusion dX_t = -b(X_t) dt + dW_t.

The drift is linear in the unknown parameter,

    b_theta(x) = phi_0(x) + sum_j theta_j phi_j(x),    j = 1..p,

with three built-in families:

* ``cosine``    -- phi_0(x) = 3 * s_anchor * x and phi_j(x) = cos((j+1) x)
                   applied componentwise.  The anchor slope makes the process
                   mean-reverting; the oscillatory terms carry the unknowns.
* ``ou-linear`` -- p = d^2 and phi_{(r,c)}(x) = e_r * x_c, so b_theta(x) = A x
                   where A is theta reshaped column-major.  phi_0 = 0.
* ``custom``    -- user-supplied vector fields with declared Lipschitz
                   constants (they are never inferred).

Also here: the near-sparse cone membership test and the sparsity counter used
throughout the estimation and audit layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

COSINE = "cosine"
OU_LINEAR = "ou-linear"
CUSTOM = "custom"

VectorField = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DriftBasis:
    """Family {phi_0, ..., phi_p} of vector fields R^d -> R^d.

    Immutable after construction; safe to share across replications.
    """

    d: int
    p: int
    family: str
    s_anchor: float | None = None
    fields: tuple[VectorField, ...] | None = None  # custom only, length p+1
    lipschitz: tuple[float, ...] | None = None  # custom only, length p+1

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise ValueError("d and p must be >= 1")
        if self.family == COSINE:
            if self.s_anchor is None or self.s_anchor <= 0:
                raise ValueError("cosine family needs a positive s_anchor")
        elif self.family == OU_LINEAR:
            if self.p != self.d * self.d:
                raise ValueError("ou-linear family requires p == d^2")
        elif self.family == CUSTOM:
            if self.fields is None or len(self.fields) != self.p + 1:
                raise ValueError("custom family needs p+1 vector fields")
            if self.lipschitz is None or len(self.lipschitz) != self.p + 1:
                raise ValueError("custom family must declare p+1 Lipschitz constants")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    # -- single-point evaluation -------------------------------------------

    def phi0(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.family == COSINE:
            return 3.0 * self.s_anchor * x
        if self.family == OU_LINEAR:
            return np.zeros(self.d)
        return np.asarray(self.fields[0](x), dtype=float)

    def phi_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix with phi_j(x) as column j, shape (d, p)."""
        x = np.asarray(x, dtype=float)
        if self.family == COSINE:
            return np.cos(np.outer(x, self._frequencies()))
        if self.family == OU_LINEAR:
            # column c*d + r is e_r * x_c (column-major matrix flattening)
            return np.kron(x.reshape(1, self.d), np.eye(self.d))
        return np.column_stack([np.asarray(f(x), dtype=float) for f in self.fields[1:]])

    # -- batched evaluation -------------------------------------------------

    def phi0_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if self.family == COSINE:
            return 3.0 * self.s_anchor * states
        if self.family == OU_LINEAR:
            return np.zeros_like(states)
        return np.stack([np.asarray(self.fields[0](x), dtype=float) for x in states])

    def phi_batch(self, states: np.ndarray) -> np.ndarray:
        """Stacked basis matrices for many states, shape (m, d, p).

        Row i equals ``phi_matrix(states[i])`` (an ou-linear zero entry may
        differ in sign).  The ou-linear tensor is written into zeros, one
        strided copy of the states per row index, with no outer product.
        """
        states = np.asarray(states, dtype=float)
        m = states.shape[0]
        if self.family == COSINE:
            return np.cos(states[:, :, None] * self._frequencies()[None, None, :])
        if self.family == OU_LINEAR:
            # row r holds x_c in column c*d + r
            out = np.zeros((m, self.d, self.d, self.d))
            for r in range(self.d):
                out[:, r, :, r] = states
            return out.reshape(m, self.d, self.p)
        return np.stack([self.phi_matrix(x) for x in states])

    def drift_fn(self, theta: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Closure computing b_theta for a single state or an (m, d) batch."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError(f"theta must have length {self.p}")
        if self.family == COSINE:
            support = np.flatnonzero(theta)
            freqs = self._frequencies()[support]
            vals = theta[support]
            slope = 3.0 * self.s_anchor

            def b(x: np.ndarray) -> np.ndarray:
                x = np.asarray(x, dtype=float)
                if vals.size == 0:
                    return slope * x
                return slope * x + np.cos(x[..., :, None] * freqs) @ vals

            return b
        if self.family == OU_LINEAR:
            a_mat = theta.reshape(self.d, self.d, order="F")

            def b(x: np.ndarray) -> np.ndarray:
                x = np.asarray(x, dtype=float)
                return x @ a_mat.T

            return b

        def b(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                return self.phi0(x) + self.phi_matrix(x) @ theta
            return np.stack([self.phi0(row) + self.phi_matrix(row) @ theta for row in x])

        return b

    def lipschitz_constants(self) -> np.ndarray:
        """Declared constants L_0..L_p; cos((j+1).) has derivative bound j+1."""
        if self.family == COSINE:
            return np.concatenate(([3.0 * self.s_anchor], self._frequencies()))
        if self.family == OU_LINEAR:
            return np.concatenate(([0.0], np.ones(self.p)))
        return np.asarray(self.lipschitz, dtype=float)

    def _frequencies(self) -> np.ndarray:
        # cos((j+1) x) for j = 1..p
        return np.arange(2, self.p + 2, dtype=float)


def cosine_basis(d: int, p: int, s_anchor: float) -> DriftBasis:
    return DriftBasis(d=d, p=p, family=COSINE, s_anchor=s_anchor)


def ou_linear_basis(d: int) -> DriftBasis:
    return DriftBasis(d=d, p=d * d, family=OU_LINEAR)


@dataclass(frozen=True)
class SparseParam:
    """Parameter vector with an optional declared nonzero count."""

    values: np.ndarray
    declared_sparsity: int | None = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ValueError("parameter values must be finite")
        if self.declared_sparsity is not None:
            nnz = int(np.count_nonzero(vals))
            if nnz != self.declared_sparsity:
                raise ValueError(
                    f"declared sparsity {self.declared_sparsity} but {nnz} nonzero entries"
                )

    @property
    def p(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class OUParam:
    """Interaction matrix of a linear drift b(x) = A x."""

    A: np.ndarray

    def __post_init__(self):
        a = np.array(self.A, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("A must be a square matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("A must have finite entries")
        a.setflags(write=False)
        object.__setattr__(self, "A", a)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def stable(self) -> bool:
        """True when every eigenvalue has strictly positive real part."""
        return bool(np.min(np.linalg.eigvals(self.A).real) > 0)

    def vec(self) -> np.ndarray:
        """Column-stacked flattening, matching the ou-linear basis ordering."""
        return self.A.flatten(order="F")


def eval_drift(basis: DriftBasis, theta: SparseParam | np.ndarray, x: np.ndarray) -> np.ndarray:
    """phi_0(x) + sum_j theta_j phi_j(x)."""
    vals = theta.values if isinstance(theta, SparseParam) else np.asarray(theta, dtype=float)
    if vals.shape != (basis.p,):
        raise ValueError(f"theta must have length {basis.p}, got {vals.shape}")
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.d,):
        raise ValueError(f"x must have length {basis.d}, got {x.shape}")
    return basis.phi0(x) + basis.phi_matrix(x) @ vals


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


def sparsity(theta: np.ndarray, tau: float = 0.0) -> int:
    """Number of entries with |theta_j| > tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return int(np.sum(np.abs(np.asarray(theta, dtype=float)) > tau))


def generate_sparse_param(
    p: int,
    sparsity_fraction: float,
    rng: np.random.Generator,
    low: float = 2.0,
    high: float = 3.0,
) -> SparseParam:
    """Ground truth with round((1-fraction)*p) nonzeros drawn Uniform[low, high].

    ``sparsity_fraction`` is the fraction of zero entries (0.7 means 70%
    zeros).  The support is chosen uniformly at random.
    """
    if not 0.0 <= sparsity_fraction <= 1.0:
        raise ValueError("sparsity_fraction must be in [0, 1]")
    s = int(round((1.0 - sparsity_fraction) * p))
    values = np.zeros(p)
    if s > 0:
        support = rng.choice(p, size=s, replace=False)
        values[support] = rng.uniform(low, high, size=s)
    return SparseParam(values=values, declared_sparsity=s)
