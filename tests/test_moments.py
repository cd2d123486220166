import copy
import math

import numpy as np
import pytest

from projcond import distributions as dist
from projcond import moments as mo
from projcond.errors import InvalidDimensionError
from projcond.experiments import constants_object
from projcond.streams import batch_mean_se


def test_b1b_targets():
    assert mo.MonomialSpec(pairs=((1, 2), (1, 2))).b1b_target() == 1.0
    assert mo.MonomialSpec(pairs=((1, 2),)).b1b_target() == 0.0
    assert mo.MonomialSpec(pairs=((1, 1), (1, 1))).b1b_target() is None
    assert mo.MonomialSpec(pairs=((1, 2), (1, 2), (1, 2))).b1b_target() is None


def test_constants_ranges():
    with pytest.raises(InvalidDimensionError):
        mo.MomentConditionConstants(epsilon=0.7)
    with pytest.raises(InvalidDimensionError):
        mo.MomentConditionConstants(xi=0.0)
    assert constants_object({}) == mo.MomentConditionConstants()
    assert constants_object({"epsilon": 0.3, "xi": 0.4, "D": 1.2}) == \
        mo.MomentConditionConstants(epsilon=0.3, xi=0.4, D=1.2)


def test_b1a_k1_matches_direct_statistic(rng_factory):
    # for k = 1 the norm is |sqrt(d)(Z'Z/d - 1)|
    d, n = 100, 4000
    spec = dist.iid_marginal("uniform", d)
    est, se = mo.estimate_b1a(spec, 1, n, rng_factory("b1a-k1"))
    z = dist.sample_z(spec, n, rng_factory("b1a-k1-direct"))
    direct = np.abs(math.sqrt(d) * (np.einsum("nd,nd->n", z, z) / d - 1.0)) ** 3.5
    joint = math.sqrt(se**2 + direct.var() / n)
    assert abs(est - direct.mean()) < 4 * joint


def test_b1a_gaussian_stable(rng_factory):
    est, se = mo.estimate_b1a(dist.gaussian(200), 2, 10_000, rng_factory("b1a-g"))
    assert np.isfinite(est) and se / est < 0.1


def test_b1a_dimension_stability(rng_factory):
    # the CLT limit of sqrt(d)(S_1 - 1) has variance m4 - 1: estimates at
    # different d agree within joint error
    ests = {}
    for d in (100, 400):
        ests[d] = mo.estimate_b1a(
            dist.iid_marginal("uniform", d), 1, 20_000, rng_factory(f"b1a-{d}")
        )
    diff = abs(ests[100][0] - ests[400][0])
    joint = math.sqrt(ests[100][1] ** 2 + ests[400][1] ** 2)
    assert diff < 4 * joint + 0.05 * ests[100][0]  # small allowance for O(1/sqrt d) drift


def test_monomial_mean_quadratic_identity(rng_factory):
    mono = mo.MonomialSpec(pairs=((1, 2), (1, 2)))
    for spec in (dist.gaussian(100), dist.iid_marginal("triangular", 100)):
        est, se, target = mo.estimate_monomial_mean(spec, mono, 20_000,
                                                    rng_factory(f"quad-{spec.label}"))
        assert target == 1.0
        assert abs(est - target) < 4 * se


def test_monomial_mean_linear_term(rng_factory):
    mono = mo.MonomialSpec(pairs=((1, 2),))
    est, se, target = mo.estimate_monomial_mean(
        dist.iid_marginal("exponential", 100), mono, 20_000, rng_factory("lin")
    )
    assert target == 0.0 and abs(est) < 4 * se


def test_monomial_mean_quartic_oracle(rng_factory):
    # d^2 E[(S-I)_12^2 (S-I)_13^2] = E||Z||^4 / d^2 = 1 + (m4 - 1)/d
    d = 100
    spec = dist.iid_marginal("uniform", d)
    mono = mo.MonomialSpec(pairs=((1, 2), (1, 2), (1, 3), (1, 3)))
    est, se, target = mo.estimate_monomial_mean(spec, mono, 40_000, rng_factory("quart"))
    oracle = 1.0 + (dist.moment_oracle(spec).m4 - 1.0) / d
    assert target == 1.0  # purely quadratic above the diagonal
    assert abs(est - oracle) < 4 * se


def test_b1b_scale_stability(rng_factory):
    # |d E[(S-I)_12^2] - 1| sqrt(d) stays bounded across d (xi = 1/2 regime)
    mono = mo.MonomialSpec(pairs=((1, 2), (1, 2)))
    spec_raw = {"family": "iid-marginal", "marginal": "uniform"}
    devs, noises = [], []
    for d in (100, 400, 1600):
        spec = dist.DistributionSpec.from_json(dict(spec_raw, d=d))
        est, se, _ = mo.estimate_monomial_mean(spec, mono, 40_000,
                                               rng_factory(f"scale-{d}"))
        devs.append(abs(est - 1.0) * math.sqrt(d))
        noises.append(se * math.sqrt(d))
    assert devs[-1] <= devs[0] + 4 * (noises[0] + noises[-1])


@pytest.mark.parametrize("marginal,analytic_b", [
    ("uniform", 0.0), ("exponential", 4.0), ("triangular", 0.0),
])
def test_prop5_cases(rng_factory, marginal, analytic_b):
    d = 100
    spec = dist.iid_marginal(marginal, d)
    om = dist.moment_oracle(spec)
    res = mo.prop5_special_cases(spec, 50_000, rng_factory(f"p5-{marginal}"))
    assert res.analytic == (om.m4 - 3.0, om.m3**2, (om.m4**2 - 9.0) / d)
    assert res.analytic[1] == analytic_b
    for (est, se), target in zip((res.case_a, res.case_b, res.case_c), res.analytic):
        assert abs(est - target) < 4 * se


def test_prop5_gaussian_all_zero(rng_factory):
    res = mo.prop5_special_cases(dist.gaussian(100), 50_000, rng_factory("p5-g"))
    for (est, se), target in zip((res.case_a, res.case_b, res.case_c), res.analytic):
        assert target == 0.0
        assert abs(est) < 4 * se


def test_gaussian_reference_limit_and_stability(rng_factory):
    # k=1 limit: E|N(0,2)|^3.5 = 2^(7/4) E|N(0,1)|^3.5
    limit = 2.0**1.75 * 2.0**1.75 * math.gamma(2.25) / math.sqrt(math.pi)

    def alpha_star(k, d, n, label):
        return mo.estimate_b1a(dist.gaussian(d), k, n, rng_factory(label))

    a_hi, se_hi = alpha_star(1, 3200, 30_000, "gref-hi")
    assert abs(a_hi - limit) < 4 * se_hi + 0.05 * limit
    a_lo, se_lo = alpha_star(2, 200, 15_000, "gref-a")
    a_mid, se_mid = alpha_star(2, 800, 15_000, "gref-b")
    joint = math.sqrt(se_lo**2 + se_mid**2)
    assert abs(a_lo - a_mid) < 4 * joint + 0.05 * a_lo


def test_monomial_means_close_to_gaussian_reference(rng_factory):
    # |E H - E H*| <= d^(-h/2) (alpha + alpha*) + 8 joint SE for each
    # monomial of degree <= 4 on at most k = 4 vertices
    d, k, n = 100, 4, 20_000
    family = [((1, 2),), ((1, 1),), ((1, 2), (1, 2)), ((1, 2), (2, 3)),
              ((1, 2), (1, 2), (1, 3), (1, 3)), ((1, 2), (3, 4)),
              ((1, 2), (1, 2), (3, 4), (3, 4))]
    spec = dist.iid_marginal("exponential", d)
    gspec = dist.gaussian(d)
    alpha, _ = mo.estimate_b1a(spec, k, 4000, rng_factory("p5i-a"))
    alpha_star, _ = mo.estimate_b1a(gspec, k, 4000, rng_factory("p5i-as"))
    for pairs in family:
        mono = mo.MonomialSpec(pairs=pairs)
        h = mono.degree
        scale = d ** (h / 2.0)
        est, se, _ = mo.estimate_monomial_mean(spec, mono, n, rng_factory("p5i-z"))
        est_g, se_g, _ = mo.estimate_monomial_mean(gspec, mono, n, rng_factory("p5i-v"))
        diff = abs(est - est_g) / scale  # back to the unscaled means
        joint = math.sqrt(se**2 + se_g**2) / scale
        assert diff <= d ** (-h / 2.0) * (alpha + alpha_star) + 8 * joint, mono.pairs


def _prop5_one_shot(spec, d, n, rng):
    """prop5's statistics with each batch's z1 and z2 drawn whole."""

    def draw(nb):
        z1 = dist.sample_z(spec, nb, rng)
        z2 = dist.sample_z(spec, nb, rng)
        q = np.einsum("nd,nd->n", z1, z1)
        t = np.einsum("nd,nd->n", z1, z2)
        return np.stack([(q - d) ** 2 / d - 2.0, t**3 / d,
                         (t**2 - d) ** 2 / d**2 - 2.0 * (1.0 + 3.0 / d)])

    return list(zip(*batch_mean_se(n, mo._BATCH * 8, draw)))


@pytest.mark.parametrize("marginal", ["gaussian", "exponential", "triangular"])
def test_prop5_blocks_equal_one_whole_draw(rng_factory, marginal):
    # a second batch of three whole z2 blocks and a ragged one of 123 rows
    d, n = 7, mo._BATCH * 11 + 123
    spec = dist.gaussian(d) if marginal == "gaussian" else dist.iid_marginal(marginal, d)
    rng = rng_factory("p5-blocks", ("gaussian", "exponential", "triangular").index(marginal))
    ref_rng = copy.deepcopy(rng)
    res = mo.prop5_special_cases(spec, n, rng)
    assert [res.case_a, res.case_b, res.case_c] == _prop5_one_shot(spec, d, n, ref_rng)
    assert np.array_equal(rng.random(8), ref_rng.random(8))


@pytest.mark.parametrize("k", [2, 3])
def test_deviations_blocks_equal_one_whole_draw(rng_factory, k):
    d, nb = 9, 2 * (mo._BATCH // 8) + 37
    spec = dist.iid_marginal("exponential", d)
    rng = rng_factory("dev-blocks", k)
    ref_rng = copy.deepcopy(rng)
    z = dist.sample_z(spec, nb * k, ref_rng).reshape(nb, k, d)
    ref = np.einsum("nkd,nld->nkl", z, z) / d - np.eye(k)
    assert np.array_equal(mo._deviations(spec, k, nb, rng), ref)
    assert np.array_equal(rng.random(8), ref_rng.random(8))


def test_prop5_holds_one_sample_and_one_block(rng_factory, traced_peak):
    # z1 whole, one z2 block and the three statistic rows of one batch: the
    # two whole samples of a batch peaked at 55.3 MB, this reads 30.8 MB
    d, batch = 100, mo._BATCH * 8
    spec = dist.iid_marginal("uniform", d)
    _, peak = traced_peak(lambda: mo.prop5_special_cases(spec, 100_000, rng_factory("p5-peak")))
    assert peak <= 1.1 * 8 * (batch * d + mo._BATCH * d + 3 * batch)


def test_monomial_mean_holds_one_block_of_deviations(rng_factory, traced_peak):
    # a batch of 4 096 deviations from 8 192 vectors peaked at 26.6 MB at
    # d = 400; one eighth of it reads 3.4 MB
    d = 400
    mono = mo.MonomialSpec(pairs=((1, 2), (1, 2)))
    _, peak = traced_peak(lambda: mo.estimate_monomial_mean(
        dist.iid_marginal("uniform", d), mono, 20_000, rng_factory("mono-peak")))
    assert peak < 6e6
