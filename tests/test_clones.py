import math

import numpy as np
import pytest
from scipy import stats

from projcond import clones, linalg
from projcond.errors import InvalidChainError, InvalidDimensionError
from projcond.experiments import run_normalzero_check
from projcond.streams import CLONE_BATCH


def test_clone_projection_identities(rng_factory):
    rng = rng_factory("clone-id")
    B = linalg.haar_stiefel(12, 2, rng)
    x = np.array([0.7, -0.4])
    w = linalg.clone_vectors(B.entries, x, rng.standard_normal((5, 12)))
    assert np.max(np.abs(w @ B.entries - x)) < 1e-10
    resid = w - B.entries @ x
    assert np.max(np.abs(resid - (resid - (resid @ B.entries) @ B.entries.T))) < 1e-10
    z = linalg.clone_vectors(B.entries, np.zeros(2), rng.standard_normal((3, 12)))
    assert np.max(np.abs(z @ B.entries)) < 1e-12


def test_clone_norm_second_moment(rng_factory):
    # E ||W||^2 = ||x||^2 + (d - p)
    d, p, n = 100, 2, 100_000
    rng = rng_factory("clone-norm")
    x = np.array([1.0, 0.0])
    # ||W|| has the same law along every frame, so one frame serves
    b = linalg.haar_stiefel_batch(d, p, 1, rng)[0]
    w = linalg.clone_vectors(b, x, rng.standard_normal((n, d)))
    sq = np.einsum("nd,nd->n", w, w)
    se = sq.std() / math.sqrt(n)
    assert abs(sq.mean() - (1.0 + d - p)) < 4 * se


def test_eta_values_and_bound():
    assert clones.eta_norm_const(10, 0, 2) == 1.0
    ref = 24.0 / (math.sqrt(5.0) * math.gamma(4.5))
    assert clones.eta_norm_const(10, 1, 1) == pytest.approx(ref, rel=1e-12)
    cap = math.exp((1 / 10) * (1 - 1 / 10) ** (-1) * 0.5)
    assert clones.eta_norm_const_bound(10, 1, 1) == pytest.approx(cap, rel=1e-12)
    for d in (10, 50, 200):
        for p in (1, 2, 3):
            for k in (1, 2, 4):
                if k < d - p - 1:
                    assert clones.eta_norm_const(d, p, k) <= clones.eta_norm_const_bound(d, p, k)
    with pytest.raises(InvalidDimensionError):
        clones.eta_norm_const(10, 4, 7)
    with pytest.raises(InvalidDimensionError):
        clones.eta_norm_const_bound(10, 1, 8)


def test_eta_log_domain_large_d():
    # only log-gamma calls: no overflow up to d = 10^6
    val = clones.log_eta(10**6, 3, 4)
    assert np.isfinite(val)


def test_ratio_trivial_and_domain():
    v = clones.log_density_ratio_gram(0.0, np.eye(2), 30, 1)
    assert v.in_domain and v.log_ratio == pytest.approx(clones.log_eta(30, 1, 2))
    # ||x||^2 iota'S^{-1} iota >= d  ->  density zero
    out = clones.log_density_ratio_gram(31.0, np.eye(1), 30, 1)
    assert not out.in_domain and out.log_ratio == -math.inf
    # a repeated vector makes S_k singular
    w = np.vstack([np.eye(6)[0], np.eye(6)[0]])
    sing = clones.log_density_ratio_gram(0.01, w @ w.T / 6, 6, 1)
    assert not sing.in_domain
    with pytest.raises(InvalidDimensionError):  # k = 4 > d - p = 3
        clones.log_density_ratio_gram(0.0, np.eye(4), 4, 1)


def test_ratio_gram_matches_batch(rng_factory):
    # the single-Gram and batched evaluations agree in the domain, outside
    # it (large ||x||) and on a singular Gram (a repeated vector)
    rng = rng_factory("ratio-gram-batch")
    d, p, k = 12, 2, 3
    v = rng.standard_normal((40, k, d))
    v[0, 1] = v[0, 0]
    for x_norm_sq in (0.0, 0.6, 6.0):
        batch = clones.log_density_ratio_batch(x_norm_sq, v, p)
        single = [clones.log_density_ratio_gram(x_norm_sq, w @ w.T / d, d, p) for w in v]
        assert [s.log_ratio for s in single] == pytest.approx(batch.tolist(), rel=1e-12)
        assert [s.in_domain for s in single] == np.isfinite(batch).tolist()
        assert not single[0].in_domain
    assert np.isfinite(clones.log_density_ratio_batch(0.6, v, p)[1:]).all()
    assert not np.isfinite(clones.log_density_ratio_batch(6.0, v, p)).all()


def test_ratio_permutation_invariance(rng_factory):
    rng = rng_factory("ratio-perm")
    w = rng.standard_normal((3, 15))
    xsq = 0.16
    base = clones.log_density_ratio_gram(xsq, w @ w.T / 15, 15, 1).log_ratio
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        gram = w[list(perm)] @ w[list(perm)].T / 15
        val = clones.log_density_ratio_gram(xsq, gram, 15, 1).log_ratio
        assert abs(val - base) < 1e-12


def test_ratio_normalization_mc(rng_factory):
    # a density integrates to one under its reference measure
    rng = rng_factory("ratio-norm")
    d, p, k = 30, 1, 2
    v = rng.standard_normal((50_000, k, d))
    r = np.exp(clones.log_density_ratio_batch(0.25, v, p))
    se = r.std() / math.sqrt(len(r))
    assert abs(r.mean() - 1.0) < 4 * se


def test_radial_law_matches_density(rng_factory):
    # histogram of ||W_1|| against the radial law implied by the ratio
    d, p, k = 4, 1, 1
    x = np.array([0.6])
    n = 1_000_000
    rng = rng_factory("radial")
    # ||W|| has the same law along every frame, so one frame serves
    b = linalg.haar_stiefel_batch(d, p, 1, rng)[0]
    w = linalg.clone_vectors(b, x, rng.standard_normal((n, d)))
    radii = np.linalg.norm(w, axis=1)

    def radial_pdf(r):
        # chi_d radial density times the density ratio at S_1 = r^2/d
        out = np.zeros_like(r)
        for i, ri in enumerate(r):
            val = clones.log_density_ratio_gram(
                float(x @ x), np.array([[ri**2 / d]]), d, p
            )
            if val.in_domain:
                out[i] = math.exp(val.log_ratio) * stats.chi.pdf(ri, df=d)
        return out

    edges = np.linspace(np.quantile(radii, 0.001), np.quantile(radii, 0.999), 51)
    counts, _ = np.histogram(radii, bins=edges)
    probs = np.empty(len(edges) - 1)
    grid_n = 64
    for i in range(len(edges) - 1):
        grid = np.linspace(edges[i], edges[i + 1], grid_n)
        probs[i] = np.trapezoid(radial_pdf(grid), grid)
    inside = counts.sum()
    chi2 = float(np.sum((counts - inside * probs / probs.sum()) ** 2
                        / (inside * probs / probs.sum())))
    crit = stats.chi2.ppf(0.999, df=len(counts) - 1)
    assert chi2 < crit, (chi2, crit)


def test_chain_identities(rng_factory):
    rng = rng_factory("chains")
    x = np.array([0.5])
    est, se = clones.gaussian_chain_identity(x, 50, 2, (0,), 5000, rng)
    assert est == 0.0 and se == 0.0  # normalization chain is exact
    est, se = clones.gaussian_chain_identity(x, 50, 2, (0, 2), 50_000, rng)
    assert abs(est) < 4 * se
    est, se = clones.gaussian_chain_identity(x, 60, 2, "alternating", 50_000, rng)
    assert abs(est) < 4 * se


def test_chain_gate_catches_partial_projection(rng_factory, monkeypatch):
    # clones that project out only p - 1 columns of the frame lose their
    # shared projection x; at p = 1 they are plain Gaussians, so the (0, 2)
    # chain E W_1'W_2 reads 0 instead of ||x||^2
    def failed_rows(i):
        rows = run_normalzero_check(rng_factory("chain-power", i), n=50_000)
        return [r.params for r in rows if not r.passed]

    assert failed_rows(1) == []
    full = linalg.clone_vectors
    monkeypatch.setattr(clones, "clone_vectors", lambda b, x, v: full(b[..., :-1], x[:-1], v))
    assert all(failed_rows(i) for i in (1, 2, 3))


def test_one_frame_per_call(rng_factory, monkeypatch):
    # the identities see W only through W_i'W_j, whose law is free of B, so
    # one Haar frame serves every batch of a call
    sizes = []

    def counting(module):
        draw = module.haar_stiefel_batch

        def wrapped(d, p, n, rng):
            sizes.append(n)
            return draw(d, p, n, rng)
        return wrapped

    monkeypatch.setattr(clones, "haar_stiefel_batch", counting(clones))
    monkeypatch.setattr(linalg, "haar_stiefel_batch", counting(linalg))
    rng = rng_factory("one-frame")
    n = 2 * CLONE_BATCH + 1
    clones.gaussian_chain_identity(np.array([0.5]), 20, 2, (0, 2), n, rng)
    linalg.triangular_statistics(12, 2, 2, np.array([1.0, 0.0]), 1000, rng)
    assert sizes == [1, 1]


def test_chain_validation(rng_factory):
    rng = rng_factory("chain-bad")
    x = np.array([0.5])
    with pytest.raises(InvalidChainError):
        clones.gaussian_chain_identity(x, 50, 4, (0, 1), 1000, rng)  # gap < 2
    with pytest.raises(InvalidChainError):
        clones.gaussian_chain_identity(x, 50, 4, (1, 3), 1000, rng)  # j_0 != 0
    with pytest.raises(InvalidChainError):
        clones.gaussian_chain_identity(x, 50, 4, (0, 6), 1000, rng)  # j_m > k
    with pytest.raises(InvalidChainError):
        clones.gaussian_chain_identity(x, 50, 3, "alternating", 1000, rng)  # odd k
    # p is the length of x: k = 4 fits d - p at p = 1 and not at p = 2
    assert clones.gaussian_chain_identity(x, 5, 4, (0,), 1000, rng) == (0.0, 0.0)
    with pytest.raises(InvalidDimensionError):
        clones.gaussian_chain_identity(np.array([0.5, 0.1]), 5, 4, (0,), 1000, rng)


def test_mutation_hook(monkeypatch):
    base = clones.eta_norm_const(30, 1, 2)
    monkeypatch.setenv("PROJCOND_MUTATE", "eta")
    assert clones.eta_norm_const(30, 1, 2) != base
    monkeypatch.delenv("PROJCOND_MUTATE")
    assert clones.eta_norm_const(30, 1, 2) == base
