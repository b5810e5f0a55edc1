"""Drift families for the diffusion dX_t = -b(X_t) dt + dW_t.

The drift is linear in the unknown parameter,

    b_theta(x) = phi_0(x) + sum_j theta_j phi_j(x),    j = 1..p,

with two families:

* ``cosine``    -- phi_0(x) = 3 * s_anchor * x and phi_j(x) = cos((j+1) x)
                   applied componentwise.  The anchor slope makes the process
                   mean-reverting; the oscillatory terms carry the unknowns.
* ``ou-linear`` -- p = d^2 and phi_{(r,c)}(x) = e_r * x_c, so b_theta(x) = A x
                   where A is theta reshaped column-major.  phi_0 = 0.

The samplers evaluate the drift through ``drift_fn``; ``response`` forms the
contrast's response y = DX + Dn phi_0(X).  The Gram, cross and event sums go
through ``add_sums``, which evaluates the cosine basis with ``phi_batch``
chunk by chunk and sums the ou-linear basis from the state moments X^T X and
X^T V, with no basis tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

COSINE = "cosine"
OU_LINEAR = "ou-linear"

_CHUNK = 4096  # states per cosine basis evaluation in ``add_sums``


@dataclass(frozen=True)
class DriftBasis:
    """Family {phi_0, ..., phi_p} of vector fields R^d -> R^d.

    Immutable after construction; safe to share across replications.
    """

    d: int
    p: int
    family: str
    s_anchor: float | None = None

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise ValueError("d and p must be >= 1")
        if self.family == COSINE:
            if self.s_anchor is None or self.s_anchor <= 0:
                raise ValueError("cosine family needs a positive s_anchor")
        elif self.family == OU_LINEAR:
            if self.p != self.d * self.d:
                raise ValueError("ou-linear family requires p == d^2")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    # -- evaluation ---------------------------------------------------------

    def phi0_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if self.family == COSINE:
            return 3.0 * self.s_anchor * states
        return np.zeros_like(states)

    def response(self, states: np.ndarray, increments: np.ndarray, delta_n: float) -> np.ndarray:
        """y = DX + Dn phi_0(X), formed in ``increments``; the ou-linear y is ``increments`` untouched."""
        if self.family == COSINE:
            increments += delta_n * self.phi0_batch(states)
        return increments

    def phi_batch(self, states: np.ndarray) -> np.ndarray:
        """Stacked basis matrices for many states, shape (m, d, p).

        Row i has phi_j(states[i]) as column j.  The ou-linear tensor is
        written into zeros, one strided copy of the states per row index,
        with no outer product.
        """
        states = np.asarray(states, dtype=float)
        m = states.shape[0]
        if self.family == COSINE:
            return np.cos(states[:, :, None] * self._frequencies()[None, None, :])
        # row r holds x_c in column c*d + r
        out = np.zeros((m, self.d, self.d, self.d))
        for r in range(self.d):
            out[:, r, :, r] = states
        return out.reshape(m, self.d, self.p)

    def add_sums(
        self,
        states: np.ndarray,
        vectors: Sequence[np.ndarray],
        gram: np.ndarray | None,
        crosses: Sequence[np.ndarray],
    ) -> None:
        """Add sum_i Phi_i^T Phi_i to ``gram`` and sum_i Phi_i^T v_i to ``crosses[j]``, v = ``vectors[j]``.

        Sums over the states (..., L, d) and the aligned vectors (..., L, d),
        one per leading index; ``gram=None`` skips the Gram.  cosine:
        ``phi_batch`` on at most ``_CHUNK`` states at a time, flattened to
        (i*d, p), so each sum is one BLAS product.  ou-linear: no tensor;
        with C = X^T X, entry (c*d + r, c'*d + r) of the Gram gets C[c, c']
        and the rest of ``gram`` is left as it was; (Phi^T v)[c*d + j] =
        sum X^c v^j.
        """
        if self.family == COSINE:
            for lead in np.ndindex(states.shape[:-2]):
                for start in range(0, states.shape[-2], _CHUNK):
                    rows = lead + (slice(start, start + _CHUNK),)
                    flat = self.phi_batch(states[rows]).reshape(-1, self.p)  # (i*d, p)
                    if gram is not None:
                        gram[lead] += flat.T @ flat
                    for v, out in zip(vectors, crosses):
                        out[lead] += v[rows].reshape(-1) @ flat
            return
        d = self.d
        x_t = np.swapaxes(states, -1, -2)
        if gram is not None:
            moments = x_t @ states
            blocks = gram.reshape(gram.shape[:-2] + (d, d, d, d))  # a view: only axes are split
            for r in range(d):
                blocks[..., :, r, :, r] += moments
        for v, out in zip(vectors, crosses):
            out.reshape(out.shape[:-1] + (d, d))[...] += x_t @ v

    def drift_fn(self, theta: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Closure computing b_theta for a single state or an (m, d) batch."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError(f"theta must have length {self.p}")
        d = self.d
        if self.family == COSINE:
            support = np.flatnonzero(theta)
            freqs = self._frequencies()[support]
            vals = theta[support]
            slope = 3.0 * self.s_anchor

            def b(x: np.ndarray) -> np.ndarray:
                x = np.asarray(x, dtype=float)
                if x.shape[-1:] != (d,):
                    raise ValueError(f"state must have length d = {d}")
                if vals.size == 0:
                    return slope * x
                return slope * x + np.cos(x[..., :, None] * freqs) @ vals

            return b
        a_mat = theta.reshape(d, d, order="F")

        def b(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            if x.shape[-1:] != (d,):
                raise ValueError(f"state must have length d = {d}")
            return x @ a_mat.T

        return b

    def lipschitz_constants(self) -> np.ndarray:
        """Declared constants L_0..L_p of the cosine basis; cos((j+1).) has derivative bound j+1."""
        if self.family != COSINE:
            raise ValueError(f"Lipschitz constants are declared for the cosine basis only, not {self.family}")
        return np.concatenate(([3.0 * self.s_anchor], self._frequencies()))

    def _frequencies(self) -> np.ndarray:
        # cos((j+1) x) for j = 1..p
        return np.arange(2, self.p + 2, dtype=float)


def cosine_basis(d: int, p: int, s_anchor: float) -> DriftBasis:
    return DriftBasis(d=d, p=p, family=COSINE, s_anchor=s_anchor)


def ou_linear_basis(d: int) -> DriftBasis:
    return DriftBasis(d=d, p=d * d, family=OU_LINEAR)


def generate_sparse_param(
    p: int,
    sparsity_fraction: float,
    rng: np.random.Generator,
    low: float = 2.0,
    high: float = 3.0,
) -> np.ndarray:
    """Read-only ground truth with round((1-fraction)*p) nonzeros drawn Uniform[low, high].

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
    values.setflags(write=False)
    return values
