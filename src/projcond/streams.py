"""Reproducible random streams, and the Monte Carlo mean and standard error.

All Monte Carlo entry points take an explicit ``numpy.random.Generator``.
For experiment dispatch we derive child streams from (root seed, label,
index) through a counter-based bit generator (Philox), so results are
independent of execution order and worker count.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def _label_key(label: str) -> int:
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(root_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Child generator keyed by (root_seed, label, index).

    The same triple always yields the same stream, and distinct triples
    yield statistically independent streams.
    """
    seq = np.random.SeedSequence([int(root_seed), _label_key(label), int(index)])
    return np.random.Generator(np.random.Philox(seq))


def mean_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error from the running sums of n
    i.i.d. values and of their squares."""
    mean = total / n
    return mean, math.sqrt(max(total_sq / n - mean**2, 0.0) / n)
