"""Deterministic random streams built on the counter-based Philox generator.

A stream is keyed by ``(seed, purpose)``.  The caller forms the seed: replication
``r`` of an experiment with master seed ``s`` passes the key ``s ^ r``.  Streams
are therefore independent of execution order and of how replications are
distributed across workers, which is what makes parallel and serial runs
byte-identical.  The ``purpose`` tag keeps distinct uses of the same key (path
noise, parameter generation, cone sampling, ...) on disjoint streams.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

# the largest seed: the trajectory container stores a path's seed as an i64
SEED_MAX = 2**63 - 1

# Purpose tags; values are arbitrary but frozen.
PATH = 1  # trajectory noise
PARAM = 3  # ground-truth parameter generation
CONE = 4  # cone-direction sampling
DIRECTIONS = 5  # unit vectors for covariance audits
NOISE_AUX = 7  # conditional Brownian increments for instrumented exact samplers


def stream(seed: int, purpose: int) -> Generator:
    """Generator for the Philox key (seed, purpose); seed in [0, SEED_MAX]."""
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed must be in [0, {SEED_MAX}], got {seed}")
    return Generator(Philox(key=np.array([seed, purpose], dtype=np.uint64)))
