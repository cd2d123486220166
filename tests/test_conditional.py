import copy
import math
import re
import sys
import threading

import numpy as np
import pytest

from projcond import bounds, conditional as cond, distributions as dist, linalg
from projcond.acceptance import _uniform_fiber_moments
from projcond.errors import DimensionMismatchError, InvalidDimensionError

B2 = np.array([1.0, 2.0]) / math.sqrt(5.0)

# fiber oracle for the iid-uniform law at d = 2, B = (1,2)'/sqrt5, frozen to
# ten digits from a 10^5-point midpoint rule along the fiber, which the
# closed form reproduces; h at x = 0 equals sqrt(2 pi) sqrt(15)/12 exactly
FROZEN_ORACLE = {
    0.0: {"h": 0.8090107969, "mu": (0.0, 0.0), "dnorm": 0.2500000000},
    0.3: {"h": 0.8462478325, "mu": (0.0, 0.3354101966), "dnorm": 0.2797388932},
    -0.8: {"h": 1.0958422798, "mu": (-0.0284017872, -0.8802262974), "dnorm": 0.5138444553},
}


def test_quadrature_oracle_reproduces_frozen_values():
    assert FROZEN_ORACLE[0.0]["h"] == pytest.approx(
        math.sqrt(2 * math.pi) * math.sqrt(15.0) / 12.0, abs=1e-9
    )
    for x, vals in FROZEN_ORACLE.items():
        h, mu, sec = _uniform_fiber_moments(B2, x)
        assert h == pytest.approx(vals["h"], abs=1e-9)
        assert np.allclose(mu, vals["mu"], rtol=0, atol=1e-9)
        delta = sec - (np.eye(2) + np.outer(B2, B2) * (x * x - 1))
        dn = float(np.max(np.abs(np.linalg.eigvalsh(delta))))
        assert dn == pytest.approx(vals["dnorm"], abs=1e-9)


def test_ratio_estimates_match_quadrature(rng_factory):
    spec = dist.iid_marginal("uniform", 2)
    B = linalg.as_stiefel(B2)
    rng = rng_factory("ratio-quad")
    for x, vals in FROZEN_ORACLE.items():
        est = cond.conditional_estimates(spec, B, np.array([x]), 100_000, rng)
        assert abs(est.h_hat - vals["h"]) < 4 * est.h_se
        assert np.all(np.abs(est.mu_hat - vals["mu"]) <= 4 * est.mu_se + 1e-12)
        assert abs(est.delta_op_norm_hat - vals["dnorm"]) < 4 * est.delta_se


def test_gaussian_exactness(rng_factory, monkeypatch):
    # the last two cases have an n that is not a multiple of the 20 jackknife
    # blocks and a chunk smaller than one block, so each block accumulates
    # chunks of unequal size
    rng = rng_factory("gauss-exact")
    for d, x, n, batch in ((15, [0.2, -0.5, 1.0], 3000, 20000),
                           (5, [0.7, -0.3], 2347, 50),
                           (33, [0.7, -0.3], 2347, 50)):
        monkeypatch.setattr(cond, "_RATIO_BATCH", batch)
        B = linalg.haar_stiefel(d, len(x), rng)
        x = np.array(x)
        est = cond._ratio_conditional(dist.gaussian(d), B, x, n, rng)
        assert est.h_hat == 1.0 and est.h_se == 0.0
        assert np.max(np.abs(est.mu_hat - B.entries @ x)) == 0.0
        assert est.delta_op_norm_hat == 0.0
        # jackknife replicates are identical; their mean can differ by one ulp
        assert np.max(est.mu_se) < 1e-14


def test_ratio_engine_matches_plain_reference(rng_factory):
    # the same draws, replayed from a copy of the generator, through a direct
    # float64 evaluation of the control-variate estimator
    d, n = 3, 5003
    x = np.array([0.4])
    rng = rng_factory("ratio-ref")
    B = linalg.haar_stiefel(d, 1, rng)
    replay = copy.deepcopy(rng)
    est = cond.conditional_estimates(dist.iid_marginal("uniform", d), B, x, n, rng)

    b = B.entries
    bx = b @ x
    v = replay.standard_normal((n, d))
    w = bx + v - (v @ b) @ b.T
    inside = np.all(np.abs(w) <= math.sqrt(3.0), axis=1)
    phi = np.exp(-0.5 * np.sum(w * w, axis=1)) / (2.0 * math.pi) ** (d / 2)
    r = np.where(inside, (2.0 * math.sqrt(3.0)) ** -d, 0.0) / phi
    h = r.mean()
    c = (r - h) / (n * h)
    m = (c[:, None] * v).sum(axis=0)
    proj = np.eye(d) - b @ b.T
    m_perp = proj @ m
    second = (c[:, None, None] * v[:, :, None] * v[:, None, :]).sum(axis=0)
    delta = np.outer(bx, m_perp) + np.outer(m_perp, bx) + proj @ second @ proj
    dnorm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (delta + delta.T)))))

    assert 0.0 < h and dnorm > 0.0
    assert abs(est.h_hat - h) <= 1e-12 * h
    assert np.linalg.norm(est.mu_hat - (bx + m_perp)) <= 1e-12 * np.linalg.norm(bx + m_perp)
    assert abs(est.delta_op_norm_hat - dnorm) <= 1e-12 * dnorm


@pytest.mark.parametrize("n", [0, 1])
def test_ratio_engine_refuses_fewer_than_two_draws(rng_factory, n):
    # a leave-one-block-out fit needs two draws; the refusal comes before
    # any draw, so the generator is not advanced
    rng = rng_factory("ratio-small-n")
    B = linalg.haar_stiefel(3, 1, rng)
    replay = copy.deepcopy(rng)
    with pytest.raises(InvalidDimensionError, match="n >= 2"):
        cond.conditional_estimates(dist.iid_marginal("uniform", 3), B, np.array([0.4]), n, rng)
    assert np.array_equal(rng.random(4), replay.random(4))


def test_h_normalization_over_projections(rng_factory):
    # E_{x ~ N(0, I_p)} h(x|B) = 1 for every law
    rng = rng_factory("h-norm")
    d, p = 6, 1
    for spec in (dist.iid_marginal("uniform", d), dist.iid_marginal("exponential", d)):
        B = linalg.haar_stiefel(d, p, rng)
        vals = []
        for _ in range(200):
            x = rng.standard_normal(p)
            est = cond.conditional_estimates(spec, B, x, 2000, rng)
            vals.append(est.h_hat)
        vals = np.array(vals)
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 4 * se, spec.label


def test_axis_aligned_conditional_linearity(rng_factory):
    # with B = coordinate axes and independent coordinates, mu = Bx exactly
    rng = rng_factory("axis")
    d, p = 6, 2
    B = linalg.StiefelMatrix(d=d, p=p, entries=np.eye(d)[:, :p])
    spec = dist.iid_marginal("exponential", d)
    x = np.array([0.5, -0.4])
    est = cond.conditional_estimates(spec, B, x, 100_000, rng)
    assert np.linalg.norm(est.mu_hat - B.entries @ x) <= 4 * np.linalg.norm(est.mu_se) + 1e-12


def test_norm_identity_consistency(rng_factory):
    # | ||mu-Bx||^2 - (||mu||^2 - ||x||^2) | <= 2 ||x|| ||B'mu - x||
    rng = rng_factory("norm-id")
    spec = dist.iid_marginal("uniform", 4)
    B = linalg.haar_stiefel(4, 1, rng)
    x = np.array([0.6])
    mu = cond.conditional_estimates(spec, B, x, 100_000, rng).mu_hat
    lhs = abs(np.sum((mu - B.entries @ x) ** 2) - (np.sum(mu**2) - float(x @ x)))
    rhs = 2 * np.linalg.norm(x) * np.linalg.norm(B.entries.T @ mu - x)
    assert lhs <= rhs + 1e-10


def test_kernel_engine_agrees_with_ratio_engine(rng_factory):
    rng = rng_factory("engines")
    d = 8
    spec = dist.iid_marginal("uniform", d)
    B = linalg.haar_stiefel(d, 1, rng)
    x = np.array([0.4])
    est = cond.conditional_estimates(spec, B, x, 200_000, rng)
    pool = cond.build_pool(spec, B, 200_000, rng, bandwidth=0.05)
    # the kernel mean over the window at x, and its sampling noise
    # sqrt(sum_i w_i^2 ||z_i - mu||^2) / sum_i w_i over the 4 000 rows of
    # highest weight
    rows, w = cond._window(pool, x)
    mu_k = w @ pool.z[rows].astype(np.float64) / w.sum()
    near, w_near = cond._nearest(rows, w, 4000)
    resid_sq = np.sum((pool.z[near].astype(np.float64) - mu_k) ** 2, axis=1)
    noise = np.sqrt(w_near**2 @ resid_sq) / w.sum()
    assert np.max(np.abs(est.mu_hat - mu_k)) < 4 * (np.max(est.mu_se) + noise) + 0.02
    assert abs(est.h_hat - cond.kernel_mu_deviation(pool, x)[1]) < 0.05


def test_deviation_probability_gaussian_zero(rng_factory):
    # both deviations are exactly 0 for the Gaussian, so the answer needs
    # no draw: the frequency of a deviation beyond t is 1 for t < 0, else 0
    rng = rng_factory("devp-gauss")
    spec = dist.gaussian(20)
    B = linalg.haar_stiefel(20, 2, rng)
    replay = copy.deepcopy(rng)
    for t, hit in ((0.05, 0.0), (0.0, 0.0), (-1e-12, 1.0)):
        res = cond.deviation_probability(spec, B, t=t, n_outer=100, n_inner=1500, rng=rng)
        assert (res.mean_prob, res.var_prob) == (hit, hit)
    # the generator was not advanced
    assert np.array_equal(rng.random(4), replay.random(4))
    with pytest.raises(InvalidDimensionError):
        cond.deviation_probability(spec, B, t=0.5, n_outer=99, n_inner=1500, rng=rng)


def test_deviation_probability_t_zero_is_one(rng_factory):
    rng = rng_factory("devp-t0")
    spec = dist.iid_marginal("uniform", 16)
    B = linalg.haar_stiefel(16, 1, rng)
    res = cond.deviation_probability(spec, B, t=0.0, n_outer=100, n_inner=20_000, rng=rng)
    assert res.mean_prob == 1.0 and res.var_prob == 1.0


def test_deviation_probability_kernel_small_threshold(rng_factory):
    rng = rng_factory("devp-k")
    spec = dist.iid_marginal("uniform", 32)
    B = linalg.haar_stiefel(32, 1, rng)
    res = cond.deviation_probability(spec, B, t=0.5, n_outer=100, n_inner=50_000, rng=rng)
    assert 0.0 <= res.mean_prob <= 0.1


def test_kernel_delta_norm_reproducible_on_eigsh_path(rng_factory):
    # the iterative eigen-solve runs at every d, and its start vector is fixed
    rng = rng_factory("eigsh-repro")
    for d in (32, 300):
        spec = dist.iid_marginal("uniform", d)
        pool = cond.build_pool(spec, linalg.haar_stiefel(d, 1, rng), 4000, rng)
        x = np.array([0.3])
        first = cond.kernel_delta_norm(pool, x)
        assert all(cond.kernel_delta_norm(pool, x) == first for _ in range(3))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_capped_kernel_rows_are_nearest(rng_factory, p):
    # the window weighs exactly the pool rows within 4 kernel widths of x,
    # bitwise as a scan of the whole pool does, and the capped window holds
    # the cap of them nearest x in projection distance, in pool order
    rng = rng_factory("kernel-cap", p)
    d, cap = 6, 700
    pool = cond.build_pool(dist.iid_marginal("uniform", d), linalg.haar_stiefel(d, p, rng),
                           20_000, rng, bandwidth=0.4)
    for x in (np.array([0.0, 0.0, 0.0]), np.array([-1.3, 0.4, 0.2]),
              np.array([2.2, -0.5, 0.3])):
        x = x[:p]
        h = cond._bandwidth_at(pool, x)
        u = (pool.proj - x) / h
        dist_sq = np.einsum("np,np->n", u, u)
        inside = np.flatnonzero(dist_sq < 16.0)
        rows, w = cond._window(pool, x)
        assert np.array_equal(rows.start + np.flatnonzero(w), inside)
        assert np.array_equal(w[w > 0.0], np.exp(-0.5 * dist_sq[inside]))
        assert inside.shape[0] > cap
        kept, w_kept = cond._nearest(rows, w, cap)
        assert np.array_equal(kept, np.sort(np.argsort(dist_sq)[:cap]))
        assert np.array_equal(w_kept, np.exp(-0.5 * dist_sq[kept]))
        # below the cap the whole disk is kept
        kept, w_kept = cond._nearest(rows, w, inside.shape[0])
        assert np.array_equal(kept, inside) and np.array_equal(w_kept, w[w > 0.0])


@pytest.mark.parametrize("n, kind", [
    (1, "identity"),
    (7, "random"),
    (53, "random"),
    (40, "identity"),
    (53, "cycle"),        # a single n-cycle
    (53, "reversed"),
    (54, "swaps"),        # disjoint 2-cycles
    (400, "random"),
])
def test_take_rows_in_place_equals_gather(rng_factory, n, kind):
    rng = rng_factory("take-rows", n)
    z = rng.standard_normal((n, 3)).astype(np.float32)
    order = {
        "identity": np.arange(n),
        "cycle": np.roll(np.arange(n), 1),
        "reversed": np.arange(n)[::-1],
        "swaps": np.arange(n) ^ 1,
        "random": rng.permutation(n),
    }[kind]
    moved = z.copy()
    cond._take_rows_in_place(moved, order)
    assert np.array_equal(moved, z[order])


def test_take_rows_in_place_holds_one_row(rng_factory, traced_peak):
    # the sort allocates its n placed flags and one held row: a pool-sized
    # sort must not gather a block of rows
    d, n = 512, 6000
    rng = rng_factory("take-rows-memory")
    z = rng.standard_normal((n, d)).astype(np.float32)
    order = rng.permutation(n)
    _, peak = traced_peak(lambda: cond._take_rows_in_place(z, order))
    assert peak <= n + 4 * d * z.itemsize + 4096


@pytest.mark.parametrize("p", [1, 2])
def test_build_pool_sorts_like_a_copy(rng_factory, p):
    # the pool equals one unchunked draw sorted by a copy on the first
    # projected coordinate, whatever the block size, and leaves the
    # generator where that draw leaves it
    rng = rng_factory("pool-sort", p)
    d, n = 5, 2 * cond._BLOCK_ROWS + 1234
    spec = dist.iid_marginal("uniform", d)
    B = linalg.haar_stiefel(d, p, rng)
    ref_rng = copy.deepcopy(rng)
    pool = cond.build_pool(spec, B, n, rng)
    z64 = dist.sample_z(spec, n, ref_rng)
    proj = z64 @ B.entries
    order = np.argsort(proj[:, 0], kind="stable")
    assert np.array_equal(pool.z, z64.astype(np.float32)[order]) and pool.z.flags.c_contiguous
    assert np.array_equal(pool.proj, proj[order])
    assert np.array_equal(rng.random(8), ref_rng.random(8))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("m", [
    cond._BLOCK_ROWS // 3,          # below one block
    2 * cond._BLOCK_ROWS,           # an exact multiple of the block
    cond._BLOCK_ROWS + 517,         # a ragged tail
])
def test_blocked_window_sums_match_float64_reference(rng_factory, p, m):
    # a hand-built sorted pool whose window at x = 0 weighs exactly m rows:
    # the whole band at p = 1, scattered rows of the band at p = 2; the
    # blocked weighted Gram, the mean deviation and the density ratio match
    # one-shot float64 sums, and the eigsh norm matches a float64 eigvalsh
    # of the reference deviation
    rng = rng_factory("window-blocks", 10 * m + p)
    d, n_far = 12, 3000
    radius = np.concatenate([rng.uniform(0.0, 1.9, m), rng.uniform(5.0, 8.0, n_far)])
    direction = rng.standard_normal((m + n_far, p))
    proj = radius[:, None] * direction / np.linalg.norm(direction, axis=1, keepdims=True)
    proj = proj[np.argsort(proj[:, 0])]
    # a non-zero mean and one stretched coordinate keep both references far
    # from zero, so a lost or repeated block shows at rtol 1e-5
    z = (1.0 + rng.standard_normal((m + n_far, d)) * np.r_[2.0, np.ones(d - 1)]).astype(np.float32)
    pool = cond.ForwardPool(b=np.eye(d)[:, :p], z=z, proj=proj, bandwidth=0.5)
    x = np.zeros(p)
    rows, w = cond._window(pool, x)
    inside = rows.start + np.flatnonzero(w)
    w = w[w > 0.0]
    assert w.shape[0] == m and (inside.shape[0] < rows.stop - rows.start) == (p == 2)

    zr = z[inside].astype(np.float64)
    sw = w.sum()
    mu_ref = w @ zr / sw
    dev_ref = np.linalg.norm(mu_ref - pool.b @ (w @ proj[inside] / sw))
    # f_hat(0) / phi_p(0): the (2 pi)^(p/2) factors cancel, and the balloon
    # keeps the bandwidth 0.5 at x = 0
    h_ref = sw / (pool.n * 0.5**p)
    gram_ref = (zr * w[:, None]).T @ zr
    pr = proj[inside]
    shift = np.einsum("n,ni,nj->ij", w, pr, pr) / sw - np.eye(p)
    delta_ref = gram_ref / sw - np.eye(d) - pool.b @ shift @ pool.b.T
    norm_ref = float(np.max(np.abs(np.linalg.eigvalsh(delta_ref))))

    dev, h = cond.kernel_mu_deviation(pool, x)
    assert dev == pytest.approx(dev_ref, rel=1e-5)
    assert h == pytest.approx(h_ref, rel=1e-12)
    assert cond.kernel_delta_norm(pool, x) == pytest.approx(norm_ref, rel=1e-5)


@pytest.mark.parametrize("p", [1, 2])
def test_build_pool_peak_memory_is_one_pool_and_one_chunk(rng_factory, traced_peak, p):
    # a pool of three chunks peaks at the pool plus one float64 chunk, not
    # two chunks while sampling or two pools while sorting
    rng = rng_factory("pool-memory", p)
    d, n = 64, 3 * cond._BLOCK_ROWS
    spec = dist.iid_marginal("uniform", d)
    B = linalg.haar_stiefel(d, p, rng)
    pool, peak = traced_peak(lambda: cond.build_pool(spec, B, n, rng))
    assert pool.z.nbytes == n * d * 4
    assert peak <= 1.1 * (pool.z.nbytes + cond._BLOCK_ROWS * d * 8)


def test_kernel_mu_counts_weighted_rows_not_band_rows():
    # at p = 2 the band |proj_1 - x_1| <= 4h holds five rows, but the 4h disk
    # around x holds one: too little mass for a mean
    from projcond.errors import DegenerateDensityError

    proj = np.array([[-0.1, 9.0], [-0.05, -7.0], [0.0, 0.0], [0.05, 6.0], [0.1, -8.0],
                     [3.0, 0.0], [4.0, 0.0]])
    pool = cond.ForwardPool(b=np.eye(4)[:, :2], z=np.ones((7, 4), dtype=np.float32),
                            proj=proj, bandwidth=0.5)
    x = np.zeros(2)
    rows, w = cond._window(pool, x)
    assert rows.stop - rows.start == 5 and np.count_nonzero(w) == 1
    with pytest.raises(DegenerateDensityError):
        cond.kernel_mu_deviation(pool, x)
    with pytest.raises(DegenerateDensityError):
        cond.kernel_delta_norm(pool, x)


def test_build_pool_rejects_empty_pool(rng_factory):
    rng = rng_factory("empty-pool")
    with pytest.raises(InvalidDimensionError):
        cond.build_pool(dist.gaussian(4), linalg.haar_stiefel(4, 1, rng), 0, rng)


def test_deviation_probability_preconditions(rng_factory):
    rng = rng_factory("devp-pre")
    spec = dist.gaussian(10)
    B = linalg.haar_stiefel(10, 1, rng)
    with pytest.raises(InvalidDimensionError):
        cond.deviation_probability(spec, B, t=0.5, n_outer=10, n_inner=2000, rng=rng)
    with pytest.raises(InvalidDimensionError):
        cond.deviation_probability(spec, B, t=0.5, n_outer=100, n_inner=10, rng=rng)


def test_kernel_estimators_refuse_an_x_of_the_wrong_length(rng_factory):
    # on a p = 2 pool, x = 0.3 was read as (0.3, 0.3) in the window and as
    # ||x||^2 = 0.09 in the bandwidth and the Gaussian reference
    rng = rng_factory("kernel-x-length")
    pool = cond.build_pool(dist.iid_marginal("uniform", 16),
                           linalg.haar_stiefel(16, 2, rng), 20_000, rng)
    for x in (0.3, [0.3], [0.3, 0.3, 0.3]):
        with pytest.raises(DimensionMismatchError):
            cond.kernel_mu_deviation(pool, x)
        with pytest.raises(DimensionMismatchError):
            cond.kernel_delta_norm(pool, x)


_GAMMA = bounds.gamma_constant(1.0, 1.0, "A")
_FRAME_USERS = {
    "build_pool": lambda spec, B, rng: cond.build_pool(spec, B, 2000, rng),
    "deviation_probability": lambda spec, B, rng: cond.deviation_probability(
        spec, B, t=0.5, n_outer=100, n_inner=2000, rng=rng),
    "g_membership": lambda spec, B, rng: cond.g_membership(
        spec, B, tau=0.5, gamma=_GAMMA, n_x=100, n_inner=2000, rng=rng, tau1=3.0),
    "conditional_estimates": lambda spec, B, rng: cond.conditional_estimates(
        spec, B, [0.3], 1000, rng),
}


@pytest.mark.parametrize("name", sorted(_FRAME_USERS))
def test_conditional_layer_refuses_a_frame_of_another_d(rng_factory, name):
    # a frame whose d is not the law's is refused before anything is drawn;
    # NumPy raised a shape error from inside the draws, or, for the
    # Gaussian, an answer came back
    rng = rng_factory("frame-d", sorted(_FRAME_USERS).index(name))
    B = linalg.haar_stiefel(12, 1, rng)
    replay = copy.deepcopy(rng)
    for spec in (dist.iid_marginal("uniform", 10), dist.gaussian(10)):
        with pytest.raises(DimensionMismatchError):
            _FRAME_USERS[name](spec, B, rng)
    assert np.array_equal(rng.random(4), replay.random(4))


def test_ratio_engine_refuses_an_x_of_the_wrong_length(rng_factory):
    rng = rng_factory("ratio-x-length")
    B = linalg.haar_stiefel(6, 2, rng)
    replay = copy.deepcopy(rng)
    for x in ([0.3], [0.3, 0.1, 0.2]):
        with pytest.raises(DimensionMismatchError):
            cond.conditional_estimates(dist.iid_marginal("uniform", 6), B, x, 1000, rng)
    assert np.array_equal(rng.random(4), replay.random(4))


def test_g_membership_regimes(rng_factory):
    rng = rng_factory("gmem")
    gamma = bounds.gamma_constant(1.0, 1.0, "A")
    # a pool below 10^3 rows is refused before either shortcut below
    small = rng_factory("gmem-n-inner")
    B64 = linalg.haar_stiefel(64, 1, small)
    for spec, tau1 in ((dist.iid_marginal("uniform", 64), None), (dist.gaussian(64), 3.0),
                       (dist.iid_marginal("uniform", 64), 3.0)):
        with pytest.raises(InvalidDimensionError, match="n_inner"):
            cond.g_membership(spec, B64, tau=0.5, gamma=gamma, n_x=100, n_inner=999,
                              rng=small, tau1=tau1)
    # M_d <= 1: the good set is everything, and nothing is drawn
    B64 = linalg.haar_stiefel(64, 1, rng)
    replay = copy.deepcopy(rng)
    rep = cond.g_membership(dist.iid_marginal("uniform", 64), B64,
                            tau=0.5, gamma=gamma, n_x=100, n_inner=1000, rng=rng)
    assert np.array_equal(rng.random(4), replay.random(4))
    assert rep.M_d <= 1.0 and rep.member
    # gaussian: the integrand vanishes identically, so nothing is drawn
    B40 = linalg.haar_stiefel(40, 1, rng)
    replay = copy.deepcopy(rng)
    rep_g = cond.g_membership(dist.gaussian(40), B40, tau=0.5, gamma=gamma, n_x=100,
                              n_inner=1500, rng=rng, tau1=3.0)
    assert np.array_equal(rng.random(4), replay.random(4))
    assert rep_g.M_d > 1.0 and rep_g.delta_d > 0.0
    assert (rep_g.integral_hat, rep_g.integral_se, rep_g.member) == (0.0, 0.0, True)
    # a non-Gaussian law takes the kernel engine over n_x drawn x's; tau1 = 3
    # makes M_d > 1
    rep_u = cond.g_membership(dist.iid_marginal("uniform", 64),
                              linalg.haar_stiefel(64, 1, rng),
                              tau=0.5, gamma=gamma, n_x=100, n_inner=40_000, rng=rng,
                              tau1=3.0)
    assert rep_u.M_d > 1.0
    assert rep_u.integral_hat > 0.0 and rep_u.integral_se > 0.0
    assert rep_u.member == (rep_u.integral_hat <= rep_u.delta_d)


def test_g_membership_refuses_nonpositive_tau1(rng_factory):
    # tau1 <= 0 would reach math.sqrt of a negative number in M_d
    rng = rng_factory("gmem-tau1")
    spec = dist.iid_marginal("uniform", 40)
    B = linalg.haar_stiefel(40, 1, rng)
    gamma = bounds.gamma_constant(1.0, 1.0, "A")
    for tau1 in (-1.0, 0.0):
        with pytest.raises(InvalidDimensionError, match="tau1 > 0"):
            cond.g_membership(spec, B, tau=0.5, gamma=gamma, n_x=100, n_inner=1000,
                              rng=rng, tau1=tau1)


def test_balanced_tuning_balances():
    xi1 = 1.0 / 6.0
    tau = 0.4
    t1, t2 = bounds.balanced_tuning(tau, xi1, "A")
    assert t1 + t2 - 3 * xi1 == pytest.approx(-t2 / 2)
    assert t2 / 2 == pytest.approx(tau * xi1)
    t1b, t2b = bounds.balanced_tuning(tau, 0.1, "B")
    assert t1b + t2b - 5 * 0.1 == pytest.approx(-t2b / 4)
    assert t2b / 4 == pytest.approx(tau * 0.1)


def test_every_eigen_solve_goes_through_the_module_eigsh(monkeypatch, rng_factory):
    # perfbench times the eigen-solve by wrapping conditional.eigsh; a
    # kernel_delta_norm that bound the solver under another name would
    # leave that layer at zero
    rng = rng_factory("eigsh-attribute")
    d = 16
    pool = cond.build_pool(dist.iid_marginal("uniform", d), linalg.haar_stiefel(d, 1, rng),
                           4000, rng)
    x = np.array([0.3])
    expected = cond.kernel_delta_norm(pool, x)
    calls = []
    solve = cond.eigsh

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cond, "eigsh", counting)
    assert cond.kernel_delta_norm(pool, x) == expected
    assert len(calls) == 1


def _serial_values(spec, B, n_outer, n_inner, rng, bandwidth=None):
    """The outer points, the pool and the two deviations at each point,
    drawn as deviation_probability draws them and evaluated one point after
    another on the calling thread, with every OpenBLAS held at one thread."""
    xs = dist.sample_z(spec, n_outer, rng) @ B.entries
    pool = cond.build_pool(spec, B, n_pool=n_inner, rng=rng, bandwidth=bandwidth)
    with cond._one_blas_thread(cond._blas_thread_controls()):
        mu = np.array([cond.kernel_mu_deviation(pool, x)[0] for x in xs])
        delta = np.array([cond.kernel_delta_norm(pool, x) for x in xs])
    return xs, mu, delta


def _thresholds(*values):
    """Midpoints between neighbouring sorted values at a few ranks, so every
    threshold leaves some values on each side and none on it."""
    ts = []
    for v in values:
        s = np.sort(v)
        ts += [0.5 * (s[r] + s[r + 1]) for r in (10, 50, 89)]
    return ts


def _record_calls(monkeypatch, name: str, workers: int = 0) -> list:
    """(thread ident, args) of each call of cond.<name> from now on.

    With workers > 0, a thread's first call waits (up to 10 s) until that
    many threads have called.  A worker held in a point takes no other, so
    the executor starts a new worker for the next point, and a loop on that
    many workers shows them all however fast its points are.
    """
    calls = []
    fn = getattr(cond, name)
    seen = threading.Condition()

    def recording(*args):
        me = threading.get_ident()
        with seen:
            first = all(thread != me for thread, _ in calls)
            calls.append((me, args))
            seen.notify_all()
            if first:
                seen.wait_for(lambda: len({thread for thread, _ in calls}) >= workers,
                              timeout=10)
        return fn(*args)

    monkeypatch.setattr(cond, name, recording)
    return calls


@pytest.mark.parametrize("p, d", [(1, 16), (2, 12)])
def test_parallel_outer_loop_equals_serial_loop(rng_factory, monkeypatch, p, d):
    # three shares on any host, more than the cores of a small one, with a
    # short switch interval so the threads interleave often
    rng = rng_factory("devp-parallel", p)
    spec = dist.iid_marginal("uniform", d)
    B = linalg.haar_stiefel(d, p, rng)
    _, mu, delta = _serial_values(spec, B, 100, 6000, copy.deepcopy(rng))
    monkeypatch.setattr(cond.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    parallel = bool(cond._blas_thread_controls())
    calls = _record_calls(monkeypatch, "kernel_delta_norm", workers=3 if parallel else 0)
    start = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in _thresholds(mu, delta):
            calls.clear()
            res = cond.deviation_probability(spec, B, t=t, n_outer=100, n_inner=6000,
                                             rng=copy.deepcopy(rng))
            assert res.mean_prob == np.count_nonzero(mu > t) / 100
            assert res.var_prob == np.count_nonzero(delta > t) / 100
            threads = {thread for thread, _ in calls}
            if parallel:
                assert len(threads) == 3 and threading.get_ident() not in threads
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == start


@pytest.mark.parametrize("p, d", [(1, 16), (2, 12)])
def test_outer_loop_without_blas_control_runs_on_the_calling_thread(rng_factory, monkeypatch,
                                                                    p, d):
    rng = rng_factory("devp-serial", p)
    spec = dist.iid_marginal("uniform", d)
    B = linalg.haar_stiefel(d, p, rng)
    _, mu, delta = _serial_values(spec, B, 100, 6000, copy.deepcopy(rng))
    monkeypatch.setattr(cond, "_blas_thread_controls", lambda: [])
    calls = _record_calls(monkeypatch, "kernel_delta_norm")
    for t in _thresholds(mu, delta):
        res = cond.deviation_probability(spec, B, t=t, n_outer=100, n_inner=6000,
                                         rng=copy.deepcopy(rng))
        assert res.mean_prob == np.count_nonzero(mu > t) / 100
        assert res.var_prob == np.count_nonzero(delta > t) / 100
    assert {thread for thread, _ in calls} == {threading.get_ident()}


class _Interrupt(BaseException):
    """Stands for an interrupt such as KeyboardInterrupt."""


def test_outer_loop_restores_blas_and_thread_counts(rng_factory, monkeypatch):
    import scipy.sparse.linalg  # noqa: F401  (its OpenBLAS is held too)
    from projcond.errors import DegenerateDensityError

    rng = rng_factory("devp-restore")
    spec = dist.iid_marginal("uniform", 16)
    B = linalg.haar_stiefel(16, 1, rng)
    controls = cond._blas_thread_controls()
    saved = [get_fn() for _, get_fn in controls]
    # at two BLAS threads, a hold left at one thread shows on any host
    for set_fn, _ in controls:
        set_fn(2)
    two = [get_fn() for _, get_fn in controls]
    start = threading.active_count()
    try:
        cond.deviation_probability(spec, B, t=0.5, n_outer=100, n_inner=6000, rng=rng)
        assert [get_fn() for _, get_fn in controls] == two
        assert threading.active_count() == start
        # every x fails at this bandwidth; the error names the first one
        xs = dist.sample_z(spec, 100, copy.deepcopy(rng)) @ B.entries
        with pytest.raises(DegenerateDensityError, match=re.escape(f"near x = {xs[0]}") + "$"):
            cond.deviation_probability(spec, B, t=0.5, n_outer=100, n_inner=2000, rng=rng,
                                       bandwidth=1e-9)
        assert [get_fn() for _, get_fn in controls] == two
        assert threading.active_count() == start
        # an interrupt in the first point, on whichever thread runs it,
        # cancels the points not yet started and propagates
        xs = dist.sample_z(spec, 100, copy.deepcopy(rng)) @ B.entries
        calls, mu_deviation = [], cond.kernel_mu_deviation

        def interrupted(pool, x):
            calls.append(1)
            if np.array_equal(x, xs[0]):
                raise _Interrupt
            return mu_deviation(pool, x)

        monkeypatch.setattr(cond, "kernel_mu_deviation", interrupted)
        with pytest.raises(_Interrupt):
            cond.deviation_probability(spec, B, t=0.5, n_outer=100, n_inner=2000, rng=rng)
        assert [get_fn() for _, get_fn in controls] == two
        assert threading.active_count() == start
        assert len(calls) < 100
    finally:
        for (set_fn, _), count in zip(controls, saved):
            set_fn(count)


@pytest.mark.parametrize("serial", [False, True])
def test_outer_loop_raises_the_first_failing_x(rng_factory, monkeypatch, serial):
    # x 5 and x 7 fail: the error is x 5's, as in a serial loop, whichever
    # worker reaches its failure first
    from projcond.errors import DegenerateDensityError

    rng = rng_factory("devp-first-failure")
    spec = dist.iid_marginal("uniform", 16)
    B = linalg.haar_stiefel(16, 1, rng)
    xs = dist.sample_z(spec, 100, copy.deepcopy(rng)) @ B.entries
    monkeypatch.setattr(cond.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    if serial:
        monkeypatch.setattr(cond, "_blas_thread_controls", lambda: [])
    mu_deviation = cond.kernel_mu_deviation

    def failing(pool, x):
        for j in (5, 7):
            if np.array_equal(x, xs[j]):
                raise DegenerateDensityError(f"x {j}")
        return mu_deviation(pool, x)

    monkeypatch.setattr(cond, "kernel_mu_deviation", failing)
    start = threading.active_count()
    with pytest.raises(DegenerateDensityError, match="^x 5$"):
        cond.deviation_probability(spec, B, t=0.5, n_outer=100, n_inner=2000, rng=rng)
    assert threading.active_count() == start


def test_outer_loop_raises_a_workers_base_exception(rng_factory, monkeypatch):
    # an interrupt in a point that a worker thread runs reaches the caller,
    # rather than ending that worker alone and leaving its points uncounted
    rng = rng_factory("devp-worker-interrupt")
    spec = dist.iid_marginal("uniform", 16)
    B = linalg.haar_stiefel(16, 1, rng)
    xs = dist.sample_z(spec, 100, copy.deepcopy(rng)) @ B.entries
    monkeypatch.setattr(cond.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    mu_deviation = cond.kernel_mu_deviation

    def interrupted(pool, x):
        if np.array_equal(x, xs[1]):
            raise _Interrupt
        return mu_deviation(pool, x)

    monkeypatch.setattr(cond, "kernel_mu_deviation", interrupted)
    start = threading.active_count()
    # every deviation exceeds t = -1, so a call that returns reads 1.0
    with pytest.raises(_Interrupt):
        cond.deviation_probability(spec, B, t=-1.0, n_outer=100, n_inner=2000, rng=rng)
    assert threading.active_count() == start


def test_g_membership_runs_its_points_through_the_outer_loop(rng_factory, monkeypatch):
    from projcond.errors import DegenerateDensityError

    rng = rng_factory("gmem-outer-loop")
    spec = dist.iid_marginal("uniform", 16)
    B = linalg.haar_stiefel(16, 1, rng)
    # tau1 = 6 makes M_d > 1 at d = 16
    kwargs = dict(tau=0.5, gamma=bounds.gamma_constant(1.0, 1.0, "A"), n_x=100,
                  n_inner=6000, tau1=6.0)
    monkeypatch.setattr(cond.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    mu_deviation = cond.kernel_mu_deviation
    # the serial loop: without an OpenBLAS control the points run in order
    # on the calling thread
    with monkeypatch.context() as serial:
        serial.setattr(cond, "_blas_thread_controls", lambda: [])
        calls = _record_calls(serial, "kernel_mu_deviation")
        ref = cond.g_membership(spec, B, rng=copy.deepcopy(rng), **kwargs)
    assert {thread for thread, _ in calls} == {threading.get_ident()}
    assert len({id(pool) for _, (pool, _) in calls}) == 1
    xs = [x for _, (_, x) in calls]
    assert ref.M_d > 1.0 and ref.integral_hat > 0.0
    parallel = bool(cond._blas_thread_controls())
    start = threading.active_count()
    with monkeypatch.context() as mapped:
        calls = _record_calls(mapped, "kernel_mu_deviation", workers=3 if parallel else 0)
        res = cond.g_membership(spec, B, rng=copy.deepcopy(rng), **kwargs)
    assert (res.integral_hat, res.integral_se) == (ref.integral_hat, ref.integral_se)
    assert sorted(x.tobytes() for _, (_, x) in calls) == sorted(x.tobytes() for x in xs)
    if parallel:
        assert len({thread for thread, _ in calls}) == 3
    assert threading.active_count() == start

    def failing(pool, x):
        for j in (5, 7):
            if np.array_equal(x, xs[j]):
                raise DegenerateDensityError(f"x {j}")
        return mu_deviation(pool, x)

    monkeypatch.setattr(cond, "kernel_mu_deviation", failing)
    with pytest.raises(DegenerateDensityError, match="^x 5$"):
        cond.g_membership(spec, B, rng=copy.deepcopy(rng), **kwargs)
    assert threading.active_count() == start
