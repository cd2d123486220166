import math

import numpy as np
import pytest
from scipy import stats

from projcond import distributions as dist

ALL_SPECS = [
    dist.gaussian(6),
    dist.iid_marginal("uniform", 6),
    dist.iid_marginal("exponential", 6),
    dist.iid_marginal("triangular", 6),
]


def test_gaussian_sampler_marginals(rng_factory):
    spec = dist.gaussian(10)
    z = dist.sample_z(spec, 100_000, rng_factory("gauss-samp"))
    for j in range(10):
        assert stats.kstest(z[:, j], "norm").pvalue > 0.01


def test_uniform_support_exact(rng_factory):
    spec = dist.iid_marginal("uniform", 4)
    z = dist.sample_z(spec, 50_000, rng_factory("unif-supp"))
    assert np.all(np.abs(z) <= math.sqrt(3.0))


@pytest.mark.parametrize("marginal,m3,m4", [
    ("uniform", 0.0, 9.0 / 5.0),
    ("exponential", 2.0, 9.0),
    ("triangular", 0.0, 12.0 / 5.0),
])
def test_marginal_moments_match_mc(rng_factory, marginal, m3, m4):
    spec = dist.iid_marginal(marginal, 1)
    om = dist.moment_oracle(spec)
    assert om.m3 == m3 and om.m4 == m4
    z = dist.sample_z(spec, 1_000_000, rng_factory(f"mom-{marginal}"))[:, 0]
    for power, exact in ((3, m3), (4, m4)):
        vals = z**power
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) < 4 * se
    # Lyapunov: |m3| <= m4^(3/4)
    assert abs(om.m3) <= om.m4 ** 0.75 + 1e-12


def test_gaussian_oracle():
    om = dist.moment_oracle(dist.gaussian(3))
    assert (om.m3, om.m4) == (0.0, 3.0)


def test_standardized_mean_and_covariance(rng_factory):
    n = 100_000
    for spec in ALL_SPECS:
        om = dist.moment_oracle(spec)
        z = dist.sample_z(spec, n, rng_factory(f"std-{spec.label}"))
        assert np.max(np.abs(z.mean(axis=0))) < 4.0 / math.sqrt(n)
        cov = z.T @ z / n - np.outer(z.mean(axis=0), z.mean(axis=0))
        assert np.max(np.abs(cov - np.eye(spec.d))) < 4.0 * math.sqrt(om.m4) / math.sqrt(n)


def test_log_density_values():
    def at(spec, z):
        return float(dist.log_density_batch(spec, np.array([z], dtype=float))[0])

    spec = dist.iid_marginal("uniform", 3)
    assert at(spec, [0, 0, 0]) == pytest.approx(-3 * math.log(2 * math.sqrt(3)))
    assert at(spec, [2, 0, 0]) == -math.inf
    g = dist.gaussian(2)
    assert at(g, [0, 0]) == pytest.approx(-math.log(2 * math.pi))
    e = dist.iid_marginal("exponential", 1)
    assert at(e, [-2]) == -math.inf
    assert at(e, [0.5]) == pytest.approx(-1.5)
    t = dist.iid_marginal("triangular", 1)
    assert at(t, [0]) == pytest.approx(math.log(1 / math.sqrt(6)))


def test_log_density_normalizes(rng_factory):
    # importance-sampling estimate of the total mass against the Gaussian
    for spec in ALL_SPECS:
        rng = rng_factory(f"norm-{spec.label}")
        v = rng.standard_normal((200_000, spec.d))
        log_r = dist.log_density_batch(spec, v) - dist.log_density_batch(dist.gaussian(spec.d), v)
        r = np.exp(log_r)
        se = r.std() / math.sqrt(len(r))
        assert abs(r.mean() - 1.0) <= 4 * se + 1e-12, spec.label


def test_density_bounded_by_sup(rng_factory):
    for spec in ALL_SPECS:
        om = dist.moment_oracle(spec)
        z = dist.sample_z(spec, 10_000, rng_factory(f"sup-{spec.label}"))
        per_coord = dist._marginal_log_density(spec.marginal, z) if spec.marginal else None
        if per_coord is not None:
            assert np.max(per_coord) <= math.log(om.density_sup) + 1e-12
