import copy
import math
import threading

import numpy as np
import pytest

from projcond import clones, experiments, linalg, streams
from projcond.streams import CLONE_BATCH, DRAW_BLOCK, batch_mean_se, draw_ahead


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


@pytest.mark.parametrize("n", [1, 1999, 2000, 2001, 50_001])
def test_draw_ahead_equals_one_serial_draw(rng_factory, n):
    # the blocks drawn one ahead on the worker are the rows of one serial
    # draw, bitwise, and leave the generator where that draw leaves it
    rng = rng_factory(f"ahead-{n}")
    ref = copy.deepcopy(rng)
    blocks = list(draw_ahead(lambda m: rng.standard_normal((m, 2, 3)), n))
    assert [len(v) for v in blocks] == [min(DRAW_BLOCK, n - a) for a in range(0, n, DRAW_BLOCK)]
    assert np.array_equal(np.concatenate(blocks), ref.standard_normal((n, 2, 3)))
    assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))


def test_draw_ahead_joins_its_worker(rng_factory):
    rng = rng_factory("ahead-join")
    start = threading.active_count()
    for _ in draw_ahead(rng.standard_normal, 7000):
        assert threading.active_count() == start + 1
    assert threading.active_count() == start
    # a caller that stops early has drawn one block ahead, and closing the
    # loop still joins the worker
    drawn = []
    blocks = draw_ahead(lambda m: drawn.append(m) or rng.standard_normal(m), 7000)
    next(blocks)
    blocks.close()
    assert drawn == [DRAW_BLOCK, DRAW_BLOCK]
    assert threading.active_count() == start


def test_draw_ahead_raises_the_draws_exception():
    def draw(m):
        if m < 2000:
            raise ValueError("bad block")
        return np.zeros(m)

    start = threading.active_count()
    seen = []
    with pytest.raises(ValueError, match="bad block"):
        for v in draw_ahead(draw, 4500):
            seen.append(len(v))
    assert seen == [2000, 2000]
    assert threading.active_count() == start


def _set_block(monkeypatch, block):
    monkeypatch.setattr(streams, "DRAW_BLOCK", block)


def _blocked_results(make):
    out = []
    for p in (1, 2):
        x = np.array([0.6, 0.2][:p])
        for chain in [(0, 2, 4), "alternating"]:
            out.append(clones.gaussian_chain_identity(x, 16, 4, chain, 5_001, make(f"c{p}{chain}")))
    out.append([(r.estimate, r.se) for r in experiments.run_clone_density_check(
        make("dens"), 12, 2, 3, 4_500)])
    tri = linalg.triangular_statistics(14, 2, 3, np.array([1.0, 0.0]), 4_321, make("tri"))
    out.append((tri["s"].tobytes(), tri["t"].tobytes()))
    return out


def test_results_do_not_depend_on_the_draw_block(rng_factory, monkeypatch):
    # with one block per batch the loops draw and reduce as one serial draw
    # did; the per-sample statistics, and so every report, are the same bits
    _set_block(monkeypatch, 2000)
    blocked = _blocked_results(rng_factory)
    _set_block(monkeypatch, 5_001)
    assert _blocked_results(rng_factory) == blocked


def test_draw_block_divides_the_batches():
    assert CLONE_BATCH % DRAW_BLOCK == 0


def test_clone_loops_hold_only_blocks(rng_factory, traced_peak):
    # one (20 000, 4, 60) batch of clones and its temporaries peaked at
    # 116 MB, and the density check's at 26 MB; two 2 000-row blocks and
    # theirs read 16 MB and 5 MB
    clones.log_eta(30, 2, 4)  # loads scipy.special outside the trace
    _, chain = traced_peak(lambda: clones.gaussian_chain_identity(
        [0.5], 60, 4, (0, 2), 100_000, rng_factory("peak-chain")))
    assert chain < 32e6
    _, density = traced_peak(lambda: experiments.run_clone_density_check(
        rng_factory("peak-density"), 30, 2, 4))
    assert density < 12e6
