import copy
import math

import numpy as np
import pytest

from projcond.streams import batch_mean_se


def _two_sum_loop(n, batch, draw):
    """The running-sum loop batch_mean_se replaced, one statistic per row:
    float sums per batch, then the mean and SE of each in Python floats."""
    total = total_sq = 0.0
    for start in range(0, n, batch):
        vals = draw(min(batch, n - start))
        total += vals.sum(axis=-1)
        total_sq += (vals**2).sum(axis=-1)
    out = []
    for t, s in zip(np.atleast_1d(total).tolist(), np.atleast_1d(total_sq).tolist()):
        mean = t / n
        out.append((mean, math.sqrt(max(s / n - mean**2, 0.0) / n)))
    return out


@pytest.mark.parametrize("n, batch, shape", [
    (10_007, 1000, ()),   # n not a multiple of batch
    (300, 4096, ()),      # one batch larger than n
    (1, 50, ()),          # a single value: SE 0
    (25_000, 4096, (3,)),  # three statistics of the same draws
])
def test_batch_mean_se_matches_two_sum_loop(rng_factory, n, batch, shape):
    rng = rng_factory(f"mean-se-{n}-{batch}")
    replay = copy.deepcopy(rng)
    mean, se = batch_mean_se(n, batch, lambda nb: rng.exponential(size=shape + (nb,)) ** 1.5)
    ref = _two_sum_loop(n, batch, lambda nb: replay.exponential(size=shape + (nb,)) ** 1.5)
    assert np.shape(mean) == np.shape(se) == shape
    assert [(float(m), float(s)) for m, s in zip(np.ravel(mean), np.ravel(se))] == ref
    if n == 1:
        assert float(se) == 0.0


def test_batch_mean_se_squares_each_mean_as_a_scalar():
    # two values about a mean whose square m * m and power m ** 2 differ in
    # the last bit on x86-64 glibc: a statistic drawn beside others gets the
    # SE it gets alone, which is the one the scalar formula gave
    m = 0.4846648782067015
    vals = np.array([m - 1e-7, m + 1e-7])
    means, ses = batch_mean_se(2, 2, lambda nb: np.stack([vals, vals, vals]))
    alone = batch_mean_se(2, 2, lambda nb: vals)
    assert (means[1], ses[1]) == alone == _two_sum_loop(2, 2, lambda nb: vals)[0]
