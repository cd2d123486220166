import dataclasses
import math

import pytest

from projcond import bounds
from projcond.errors import InvalidDimensionError
from projcond.moments import MomentConditionConstants

CONS = MomentConditionConstants(epsilon=0.5, xi=0.5, D=1.0)


def test_generic_bound_examples():
    assert bounds.generic_bound(1, 2, 0.5, 1, 1, 1, 100, 0.5, 0.0) == 0.0
    v1 = bounds.generic_bound(1, 2, 0.5, 1.0, 1.0, 1.0, 1e4, 0.5, 1.0)
    direct = math.e * (2 * math.sqrt(math.pi * math.e)) ** 2 * 1e-2
    assert v1 == pytest.approx(direct, rel=1e-12)
    v2 = bounds.generic_bound(1, 2, 0.5, 1.0, 1.0, 1.0, 2e4, 0.5, 1.0)
    assert v2 / v1 == pytest.approx(2.0 ** -0.5, rel=1e-12)
    with pytest.raises(InvalidDimensionError):
        bounds.generic_bound(1, 2, 0.5, 1, 1, 1, 1, 0.5, 1.0)


def test_generic_bound_random_tuples_vs_direct(rng_factory):
    rng = rng_factory("gen-vs-direct")
    for _ in range(20):
        p = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        eps = float(rng.uniform(0, 0.5))
        g = float(rng.uniform(0.5, 2.0))
        m = float(rng.uniform(1.0, 2.5))
        dd = float(rng.uniform(1.0, 2.0))
        d = float(rng.uniform(10, 1e7))
        xi = float(rng.uniform(0.05, 0.5))
        kap = float(rng.uniform(0.5, 3.0))
        val = bounds.generic_bound(p, k, eps, g, m, dd, d, xi, kap)
        ref = (kap * p ** (2 * k + 1 + eps) * math.exp(g * m * m)
               * (2 * dd * math.sqrt(math.pi * math.e)) ** (p * k)
               * d ** (-min(xi, eps / 2 + 0.25, 0.5)))
        assert val == pytest.approx(ref, rel=1e-12)


def test_theorem_bound_worked_example():
    res = bounds.theorem_bound(d=1e6, p=2, t=1.0, tau=0.5, constants=CONS, part="A")
    assert res.xi_eff == pytest.approx(1.0 / 6.0)
    assert res.gamma == pytest.approx(6 + 2 * math.log(2 * math.sqrt(math.pi * math.e)), rel=1e-12)
    first = 10.0**-0.5
    second = res.gamma / 0.5 * 2.0 / (0.5 * math.log(1e6))
    assert res.deviation_bound == pytest.approx(first + second, rel=1e-12)
    assert res.deviation_vacuous  # ~5.8 at desk scale
    res_b = bounds.theorem_bound(d=1e6, p=2, t=1.0, tau=0.5, constants=CONS, part="B")
    assert res_b.xi_eff == pytest.approx(0.6 * res.xi_eff, rel=1e-15)


def test_every_constant_moves_a_bound():
    # each field of the constants, moved within its range, changes the
    # bound of part A or part B: a constant that no bound reads fails here
    moved = {"epsilon": 0.2, "xi": 0.2, "D": 2.0}
    assert sorted(f.name for f in dataclasses.fields(MomentConditionConstants)) == sorted(moved)

    def results(cons):
        return [bounds.theorem_bound(d=1e6, p=2, t=1.0, tau=0.5, constants=cons, part=part)
                for part in "AB"]

    base = results(CONS)
    for name, value in moved.items():
        assert results(dataclasses.replace(CONS, **{name: value})) != base, name


def test_theorem_bound_t_limit():
    res = bounds.theorem_bound(d=1e6, p=2, t=1e15, tau=0.5, constants=CONS, part="A")
    tail = res.gamma / 0.5 * 2 / (3 * res.xi_eff * math.log(1e6))
    assert res.deviation_bound == pytest.approx(tail, rel=1e-9)


def test_theorem_bound_part_b_doubles_nu():
    kw = dict(d=1e6, p=1, t=1.0, tau=0.5, constants=CONS, kappa=1.0, g=1.0)
    res_a = bounds.theorem_bound(part="A", **kw)
    # with matching exponents, part B carries the extra factor of two
    log_nu_b_at_a_exponent = res_a.log_nu_gc_bound + math.log(2.0)
    res_b = bounds.theorem_bound(part="B", **kw)
    assert res_b.log_nu_gc_bound != res_a.log_nu_gc_bound
    assert log_nu_b_at_a_exponent > res_a.log_nu_gc_bound


def test_theorem_bound_monotonicity(rng_factory):
    rng = rng_factory("mono")
    for _ in range(20):
        d = float(rng.uniform(1e5, 1e9))
        tau = float(rng.uniform(0.2, 0.8))
        t = float(rng.uniform(0.5, 2.0))
        base = bounds.theorem_bound(d=d, p=2, t=t, tau=tau, constants=CONS, part="A")
        bigger_t = bounds.theorem_bound(d=d, p=2, t=2 * t, tau=tau, constants=CONS, part="A")
        assert bigger_t.deviation_bound < base.deviation_bound
        bigger_d = bounds.theorem_bound(d=10 * d, p=2, t=t, tau=tau, constants=CONS, part="A")
        assert bigger_d.deviation_bound < base.deviation_bound
        bigger_p = bounds.theorem_bound(d=d, p=3, t=t, tau=tau, constants=CONS, part="A")
        assert bigger_p.deviation_bound > base.deviation_bound


def test_theorem_input_validation():
    with pytest.raises(InvalidDimensionError):
        bounds.theorem_bound(d=10, p=12, t=1.0, tau=0.5, constants=CONS)
    with pytest.raises(InvalidDimensionError):
        bounds.theorem_bound(d=10, p=1, t=1.0, tau=1.5, constants=CONS)
    with pytest.raises(InvalidDimensionError):
        bounds.theorem_bound(d=10, p=1, t=-1.0, tau=0.5, constants=CONS)
    with pytest.raises(InvalidDimensionError):
        bounds.theorem_bound(d=10, p=1, t=1.0, tau=0.5, constants=CONS, part="C")
    # p = 0 would reach math.log(p) in the bound
    with pytest.raises(InvalidDimensionError, match="1 <= p"):
        bounds.theorem_bound(d=1e6, p=0, t=1.0, tau=0.5, constants=CONS)
    # the checks run in a fixed order: part, p, tau, kappa, t
    with pytest.raises(InvalidDimensionError, match="1 <= p"):
        bounds.theorem_bound(d=10, p=12, t=-1.0, tau=1.5, constants=CONS, kappa=-1.0)


def test_scan_constant_p_decreases_to_zero():
    rows = bounds.asymptotic_scan(CONS, 2, [1e6, 1e12, 1e24, 1e48, 1e96], tau=0.5, part="B")
    assert len(rows) == 5 and bounds.bounds_decrease(rows)
    for a, b in zip(rows, rows[1:]):
        assert b.log_deviation_bound < a.log_deviation_bound
        assert b.log_nu_gc_bound < a.log_nu_gc_bound
    assert rows[-1].deviation_bound < 1e-6


def test_scan_matches_theorem_bound():
    # a scan point is the theorem bound at that d, with t = kappa = g = 1
    ds = [1e4, 1e8]
    rows = bounds.asymptotic_scan(CONS, 3, [math.log(d) for d in ds], tau=0.4, part="A")
    for d, r in zip(ds, rows):
        assert r == bounds.theorem_bound(d=d, p=3, t=1.0, tau=0.4, constants=CONS, part="A")
    assert not bounds.bounds_decrease(rows[::-1])


def test_scan_grid_validation():
    with pytest.raises(InvalidDimensionError):
        bounds.asymptotic_scan(CONS, 1, [1e4], tau=0.5, part="A")
    with pytest.raises(InvalidDimensionError):
        bounds.asymptotic_scan(CONS, 1, [1e4, 1e3], tau=0.5, part="A")
    with pytest.raises(InvalidDimensionError, match="part must be"):
        bounds.asymptotic_scan(CONS, 1, [1e3, 1e4], tau=0.5, part="C")
    with pytest.raises(InvalidDimensionError, match="p=0"):
        bounds.asymptotic_scan(CONS, 0, [1e3, 1e4], tau=0.5, part="A")
    with pytest.raises(InvalidDimensionError, match="p=50"):
        bounds.asymptotic_scan(CONS, 50, [math.log(50), 1e4], tau=0.5, part="A")


@pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_scan_refuses_tau_outside_the_open_unit_interval(tau):
    # tau = 0 reached a division by zero, and tau >= 1 the log of 1 - tau
    with pytest.raises(InvalidDimensionError, match="tau must lie in"):
        bounds.asymptotic_scan(CONS, 2, [1e3, 1e4], tau=tau, part="A")


def test_gamma_constant_parts():
    ld = math.log(2 * math.sqrt(math.pi * math.e))
    assert bounds.gamma_constant(1.0, 1.0, "A") == pytest.approx(6 + 2 * ld)
    assert bounds.gamma_constant(1.0, 1.0, "B") == pytest.approx(10 + 4 * ld)
    assert bounds.gamma_constant(100.0, 1.0, "A") == 100.0
    assert bounds.gamma_constant(1.0, 2.0, "B") == pytest.approx(10 + 4 * (ld + math.log(2)))
    # D <= 0 would reach math.log(D)
    for D in (0.0, -2.0):
        with pytest.raises(InvalidDimensionError, match="D > 0"):
            bounds.gamma_constant(1.0, D, "A")


@pytest.mark.parametrize("bound", [
    lambda part: bounds.xi_effective(0.4, 0.3, part),
    lambda part: bounds.gamma_constant(1.0, 1.0, part),
], ids=["xi_effective", "gamma_constant"])
@pytest.mark.parametrize("part", ["C", "a", None])
def test_part_constants_refuse_an_unknown_part(bound, part):
    # the part table was indexed directly, which raised a bare KeyError
    with pytest.raises(InvalidDimensionError, match=r"^part must be 'A' or 'B'$"):
        bound(part)
