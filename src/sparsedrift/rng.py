"""Deterministic random streams built on the counter-based Philox generator.

Replication ``r`` of an experiment with master seed ``s`` draws from the
Philox key ``(s ^ r, purpose)``.  Streams are therefore independent of
execution order and of how replications are distributed across workers, which
is what makes parallel and serial runs byte-identical.  The ``purpose`` tag
keeps distinct uses of the same ``(seed, rep)`` pair (path noise, parameter
generation, cone sampling, ...) on disjoint keys.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1

# Purpose tags; values are arbitrary but frozen.
PATH = 1  # trajectory noise
PARAM = 3  # ground-truth parameter generation
CONE = 4  # cone-direction sampling
DIRECTIONS = 5  # unit vectors for covariance audits
NOISE_AUX = 7  # conditional Brownian increments for instrumented exact samplers


def stream(seed: int, purpose: int, rep: int | None = None) -> Generator:
    """Generator for (seed ^ rep, purpose); ``rep=None`` means experiment level."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    base = seed if rep is None else (seed ^ rep)
    key = np.array([base & _MASK64, purpose & _MASK64], dtype=np.uint64)
    return Generator(Philox(key=key))

