import math
from itertools import permutations

import numpy as np
import pytest

from projcond import clones, expansion, experiments, linalg
from projcond.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    OutsideExpansionRegionError,
    ThresholdViolatedError,
)

# calibrated once against dense determinant evaluation; never re-tuned
DET_FIDELITY_D2 = 2.0
# the constant of remainder_diagnostic's bound shape, fixed once on the grid
# of test_remainder_within_bound_shape (largest ratio 0.81); never re-tuned
C_REM = 1.0


def _random_symmetric_direction(rng, k):
    a = rng.standard_normal((k, k))
    a = 0.5 * (a + a.T)
    return a / linalg.spectral_norm(a)


def test_taylor_p1_values():
    assert np.allclose(expansion.taylor_p1(0.0, 3), [1.0, 0, 0, 0])
    assert np.allclose(expansion.taylor_p1(1.0, 2), [1.0, -0.5, 0.125])
    assert expansion.taylor_p1(2.7, 4)[0] == 1.0


def test_taylor_p2_values():
    assert np.allclose(expansion.taylor_p2(2, 2), [1.0, -1.0, 1.0])
    assert expansion.taylor_p2(3, 1)[1] == pytest.approx(-1.5)
    for k in (1, 2, 3, 4):
        coeffs = expansion.taylor_p2(1, k)
        j = np.arange(k + 1)
        assert np.all(np.abs(coeffs) <= 1.0**j + 1e-15)
        coeffs5 = expansion.taylor_p2(5, k)
        assert np.all(np.abs(coeffs5[1:]) <= 5.0 ** j[1:] + 1e-12)


def test_taylor_r1_zero_projection():
    r1 = expansion.taylor_r1(800, 2, 3, 0.0)
    assert np.max(np.abs(r1)) == 0.0


def test_taylor_r1_reconstructs_exact_value():
    d, p, k, xsq = 10_000, 1, 2, 1.0
    p1 = expansion.taylor_p1(xsq, k)
    r1 = expansion.taylor_r1(d, p, k, xsq)
    g1_at_k = math.exp(0.5 * (d - p - k - 1) * math.log1p(-k * xsq / d) + 0.5 * k * xsq)
    assert p1[0] + r1[0] == pytest.approx(g1_at_k, abs=1e-12)


def test_taylor_r1_threshold():
    with pytest.raises(ThresholdViolatedError):
        expansion.taylor_r1(50, 1, 2, 2.0)  # needs d > 4*4*16 = 256


def test_taylor_r1_coefficient_bound():
    # every coefficient is within p M^(2(k+2)) c1(k) / d of zero, where
    # c1(k) = e^gamma(k) - 1 with gamma(k) = max{4k(2+3k)/3, (20/3)k^2}
    for (d, p, k, xsq) in ((1000, 1, 2, 1.0), (5000, 2, 3, 0.49), (400, 1, 1, 0.25)):
        r1 = expansion.taylor_r1(d, p, k, xsq)
        m = max(1.0, math.sqrt(xsq))
        c1 = math.expm1(max(4.0 * k * (2.0 + 3.0 * k) / 3.0, (20.0 / 3.0) * k**2))
        cap = p * m ** (2 * (k + 2)) / d * c1
        assert np.all(np.abs(r1) <= cap)


def test_psi_constant_term_and_invariance(rng_factory):
    x = np.array([0.5])
    ratio0 = clones.log_density_ratio_gram(0.25, np.eye(3), 2000, 1)
    assert expansion.psi_eval(x, np.eye(3), 2000, 1) == pytest.approx(
        math.exp(ratio0.log_ratio), abs=1e-10)
    # Psi(P S P') = Psi(S) for every relabeling P of the k vectors
    rng = rng_factory("psi-relabel")
    for k in (3, 4):
        s = np.eye(k) + 0.02 * _random_symmetric_direction(rng, k)
        vals = [expansion.psi_eval(x, s[np.ix_(perm, perm)], 2000, 1)
                for perm in permutations(range(k))]
        assert max(vals) - min(vals) < 1e-14


def test_psi_is_degree_k_along_rays(rng_factory):
    # t -> Psi_k(I + tA) is a polynomial of degree at most k: the leading
    # coefficient of a degree-(k+1) fit through k + 2 values of t is at
    # rounding level (the ratio's own t^(k+1) coefficient is of order one)
    rng = rng_factory("psi-degree")
    for k in (1, 2, 3, 4):
        for p in (1, 2):
            x = rng.standard_normal(p) * 0.4
            a = _random_symmetric_direction(rng, k)
            t = np.linspace(-0.5, 0.5, k + 2)
            vals = [expansion.psi_eval(x, np.eye(k) + ti * a, 2000, p) for ti in t]
            lead = np.polyfit(t, vals, k + 1)[0]
            assert abs(lead) < 1e-9 * max(np.abs(vals)), (k, p, lead)


def test_exactness_at_identity_grid():
    for d in (300, 1000, 10_000):
        for p in (1, 2):
            for k in (1, 2, 4):
                for xn in (0.0, 0.5, 1.0):
                    x = np.zeros(p)
                    x[0] = xn
                    rem, _ = expansion.remainder_diagnostic(x, np.eye(k), d, p)
                    assert abs(rem) < 1e-10, (d, p, k, xn)


def test_remainder_order_slope():
    # fixed directions A = I and A = (J - I)/(k - 1), both of unit spectral
    # norm: a random direction can be nearly orthogonal to the leading
    # remainder term, and its fitted slope then misses k + 1 on correct code
    eps_grid = np.array([0.02, 0.01, 0.005, 0.0025])
    for k in (1, 2, 4):
        directions = [np.eye(k)]
        if k >= 2:
            directions.append((np.ones((k, k)) - np.eye(k)) / (k - 1))
        for a in directions:
            rems = []
            for eps in eps_grid:
                rem, _ = expansion.remainder_diagnostic(
                    np.array([0.5]), np.eye(k) + eps * a, 10_000, 1
                )
                rems.append(abs(rem))
            slope = np.polyfit(np.log(eps_grid), np.log(rems), 1)[0]
            assert abs(slope - (k + 1)) < 0.3, (k, slope)


def test_remainder_halving_factor(rng_factory):
    rng = rng_factory("halving")
    k = 2
    a = _random_symmetric_direction(rng, k)
    r1, _ = expansion.remainder_diagnostic(np.array([0.5]), np.eye(k) + 0.02 * a, 500, 1)
    r2, _ = expansion.remainder_diagnostic(np.array([0.5]), np.eye(k) + 0.01 * a, 500, 1)
    assert abs(r1 / r2) == pytest.approx(2 ** (k + 1), rel=0.5)


def test_remainder_region_guard():
    with pytest.raises(OutsideExpansionRegionError):
        expansion.remainder_diagnostic(np.array([0.2]), np.eye(2) + 0.5, 1000, 1)


def test_remainder_within_bound_shape():
    # |R - Psi_k| <= C_REM p^(k+1) M^(2(k+2)) e^(k M^2 / 2) ||S - I||^(k+1) on
    # the grids of the exactness and slope tests, away from S = I
    eps_grid = (0.02, 0.01, 0.005, 0.0025)
    for d in (300, 1000, 10_000):
        for p in (1, 2):
            for k in (1, 2, 4):
                directions = [np.eye(k)]
                if k >= 2:
                    directions.append((np.ones((k, k)) - np.eye(k)) / (k - 1))
                for xn in (0.0, 0.5, 1.0):
                    x = np.zeros(p)
                    x[0] = xn
                    for a in directions:
                        for eps in eps_grid:
                            rem, shape = expansion.remainder_diagnostic(
                                x, np.eye(k) + eps * a, d, p)
                            assert abs(rem) <= C_REM * shape, (d, p, k, xn, eps)


def test_psi_threshold_guard():
    with pytest.raises(ThresholdViolatedError):
        expansion.psi_eval(np.array([0.5]), np.eye(2), 10, 1)  # d below 4(k+p+1)M^4
    with pytest.raises(InvalidDimensionError):
        expansion.psi_eval(np.array([0.5]), np.eye(5), 10_000, 1)  # k > 4


def test_expansion_refuses_an_x_of_the_wrong_length():
    # an x of another length than p was read through ||x||^2 alone
    for x, p in ((np.array([0.5, 0.1]), 1), (np.array([0.5]), 2)):
        with pytest.raises(DimensionMismatchError):
            expansion.psi_eval(x, np.eye(2), 2000, p)
        with pytest.raises(DimensionMismatchError):
            expansion.remainder_diagnostic(x, np.eye(2), 2000, p)


def test_neumann_sum_fidelity(rng_factory):
    # |iota'S^{-1}iota - k - sum_j [t^j] iota'(I + tY)^{-1}iota| <= 2k ||S-I||^(k+1)
    rng = rng_factory("neumann")
    for k in (1, 2, 3, 4):
        for _ in range(25):
            a = _random_symmetric_direction(rng, k)
            s = np.eye(k) + rng.uniform(0.005, 0.99 / (2 * k)) * a
            dev = linalg.spectral_norm(s - np.eye(k))
            exact = float(np.ones(k) @ np.linalg.solve(s, np.ones(k))) - k
            approx = float(np.sum(expansion._ray_series(s - np.eye(k))[0]))
            assert abs(exact - approx) <= 2 * k * dev ** (k + 1)


def test_det_expansion_fidelity(rng_factory):
    # |det S^{-p/2} - Q2(S-I)| <= D2 p^(k+1) ||S-I||^(k+1), D2 fixed once, where
    # Q2 is the Taylor polynomial of z^(-p/2) composed with det(I + tY) - 1
    rng = rng_factory("detfid")
    for k in (1, 2, 3, 4):
        for p in (1, 2):
            for _ in range(25):
                a = _random_symmetric_direction(rng, k)
                s = np.eye(k) + rng.uniform(0.01, 0.99 / (p * expansion.default_xi(k))) * a
                dev = linalg.spectral_norm(s - np.eye(k))
                exact = float(np.linalg.det(s)) ** (-p / 2)
                v = expansion._ray_series(s - np.eye(k))[1]
                approx = float(np.sum(expansion._compose(expansion.taylor_p2(p, k), v)))
                assert abs(exact - approx) <= DET_FIDELITY_D2 * p ** (k + 1) * dev ** (k + 1)


def test_expansion_order_gate_catches_truncated_expansion(monkeypatch):
    # criterion 4's slope rows, on correct code and with the series cut one
    # degree short (the remainder is then of order k, not k + 1)
    def slope_rows():
        rows = experiments.run_expansion_order(np.random.default_rng(0))
        return [r for r in rows if r.params.endswith(";slope")]

    assert [r.passed for r in slope_rows()] == [True, True, True]
    full = expansion._psi_series
    monkeypatch.setattr(expansion, "_psi_series", lambda xsq, y, d, p: full(xsq, y, d, p)[:-1])
    assert [r.passed for r in slope_rows()] == [False, False, False]
