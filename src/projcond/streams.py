"""Reproducible random streams, and the Monte Carlo mean and standard error.

All Monte Carlo entry points take an explicit ``numpy.random.Generator``.
For experiment dispatch we derive child streams from (root seed, label,
index) through a counter-based bit generator (Philox), so results are
independent of execution order and worker count.
"""

from __future__ import annotations

import hashlib

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


CLONE_BATCH = 20000  # samples per batch of the clone loops' mean and SE
DRAW_BLOCK = 2000    # rows per block of draw_ahead; divides CLONE_BATCH


def draw_ahead(draw, n: int):
    """Yield draw(nb) for consecutive blocks of at most DRAW_BLOCK of n rows.

    The next block is drawn on one worker thread while the caller reduces
    the current one (NumPy's generators release the GIL while they fill), so
    the blocks come in the order, and with the bits, of one serial draw.  The
    caller must not use the same generator until the loop ends.  A caller
    that stops early has drawn one extra block; the worker is joined before
    the generator returns or is closed.
    """
    from concurrent.futures import ThreadPoolExecutor

    sizes = [min(DRAW_BLOCK, n - start) for start in range(0, n, DRAW_BLOCK)]
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(draw, sizes[0]) if sizes else None
        for nb in sizes[1:]:
            current = ahead.result()
            ahead = worker.submit(draw, nb)
            yield current
        if ahead is not None:
            yield ahead.result()


def batch_mean_se(n: int, batch: int, draw) -> tuple:
    """Monte Carlo mean and standard error of n i.i.d. values.

    ``draw(nb)`` returns the next nb values along its last axis; the values
    are drawn at most ``batch`` at a time and only their sums and sums of
    squares are kept.  Leading axes hold separate statistics of the same
    draws, and the mean and SE then have their shape (see mean_se).
    """
    total = total_sq = 0.0
    for start in range(0, n, batch):
        vals = draw(min(batch, n - start))
        total = total + np.sum(vals, axis=-1)
        total_sq = total_sq + np.sum(vals**2, axis=-1)
    return mean_se(total, total_sq, n)


def mean_se(total, total_sq, n: int) -> tuple:
    """Mean and standard error of n values from their sum and sum of squares
    (scalars, or arrays of separate statistics).  Each mean is squared as a
    scalar, so a statistic's SE is the same bits in an array or alone."""
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq / n - np.vectorize(pow)(mean, 2), 0.0) / n)
