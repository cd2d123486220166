"""Closed-form deviation bounds and their asymptotic behaviour.

Everything here is scalar arithmetic, carried out in the log domain by one
evaluator, so that formula-level scans can run at astronomically large
dimensions (a scan holds p fixed and takes log d as the grid variable).  The
multiplicative constants kappa and g are not pinned down by the theory;
defaults of 1 are used and every reported bound is to be read "up to those
constants".  Bounds >= 1 carry no information and are flagged vacuous.
Functions here evaluate and refuse malformed input; judging a scan (do the
bounds fall, and how far) is left to the reports, through bounds_decrease.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError
from .moments import MomentConditionConstants

LOG_2_SQRT_PI_E = math.log(2.0) + 0.5 * (math.log(math.pi) + 1.0)  # log(2 sqrt(pi e))

PART_A = "A"
PART_B = "B"

# what parts A and B differ in: the scale c of xi_eff = min{xi, eps/2 + 1/4, 1/2}/c,
# gamma = max{g, offset + slope log(2 D sqrt(pi e))}, the balanced tau_2 = factor
# tau xi_eff, and the weight of nu(G^c)
_Part = namedtuple("_Part", "scale gamma_offset gamma_slope tau2_factor nu_weight")
_PARTS = {PART_A: _Part(3, 6.0, 2.0, 2.0, 1.0), PART_B: _Part(5, 10.0, 4.0, 4.0, 2.0)}


def _row(part: str) -> _Part:
    """The constants of part A or B; refuses any other part."""
    row = _PARTS.get(part)
    if row is None:
        raise InvalidDimensionError("part must be 'A' or 'B'")
    return row


def _part(tau: float, part: str, p: int = 1, d: float = math.inf) -> _Part:
    """The constants of a part; refuses, in this order, a part other than A
    or B, p outside [1, d) and tau outside (0, 1)."""
    row = _row(part)
    if not 1 <= p < d:
        raise InvalidDimensionError("need 1 <= p < d")
    if not 0.0 < tau < 1.0:
        raise InvalidDimensionError("tau must lie in (0, 1)")
    return row


def xi_effective(xi: float, epsilon: float, part: str) -> float:
    """min{xi, eps/2 + 1/4, 1/2} divided by 3 (part A) or 5 (part B)."""
    return min(xi, epsilon / 2.0 + 0.25, 0.5) / _row(part).scale


def gamma_constant(g: float, D: float, part: str) -> float:
    """Tail constant: max{g, 6 + 2 log(2 D sqrt(pi e))} for part A and
    max{g, 10 + 4 log(2 D sqrt(pi e))} for part B."""
    if not D > 0.0:
        raise InvalidDimensionError("need D > 0")
    row = _row(part)
    return max(g, row.gamma_offset + row.gamma_slope * (LOG_2_SQRT_PI_E + math.log(D)))


def balanced_tuning(tau: float, xi_eff: float, part: str) -> tuple[float, float]:
    """Tuning exponents (tau_1, tau_2) that balance the two bound halves.

    Part A solves tau_1 + tau_2 - 3 xi_1 = -tau_2/2 and tau_2/2 = tau xi_1;
    part B solves tau_1 + tau_2 - 5 xi_2 = -tau_2/4 = -tau xi_2.  Refuses a
    part other than A or B and tau outside (0, 1).
    """
    row = _part(tau, part)
    return row.scale * xi_eff * (1.0 - tau), row.tau2_factor * tau * xi_eff


def generic_bound(
    p: int, k: int, epsilon: float, g: float, M: float, D: float,
    d: float, xi: float, kappa: float,
) -> float:
    """kappa p^(2k+1+eps) e^(g M^2) (2 D sqrt(pi e))^(pk) d^(-min{xi, eps/2+1/4, 1/2})."""
    if d < 2:
        raise InvalidDimensionError("need d >= 2")
    if kappa == 0.0:
        return 0.0
    log_val = (
        math.log(kappa)
        + (2 * k + 1 + epsilon) * math.log(p)
        + g * M**2
        + p * k * (LOG_2_SQRT_PI_E + math.log(D))
        - min(xi, epsilon / 2.0 + 0.25, 0.5) * math.log(d)
    )
    return math.exp(log_val)


@dataclass(frozen=True)
class TheoremBoundResult:
    xi_eff: float
    gamma: float
    deviation_bound: float
    nu_gc_bound: float
    deviation_vacuous: bool
    nu_gc_vacuous: bool
    log_deviation_bound: float
    log_nu_gc_bound: float


def _evaluate(
    log_d: float, p: int, t: float, tau: float,
    constants: MomentConditionConstants, kappa: float, g: float, part: str,
) -> TheoremBoundResult:
    """Both bounds at log d, evaluated in the log domain and exponentiated
    only where exp cannot overflow."""
    xi_eff = xi_effective(constants.xi, constants.epsilon, part)
    gamma = gamma_constant(g, constants.D, part)
    row = _PARTS[part]
    log_first = -tau * xi_eff * log_d - math.log(t)
    log_second = (math.log(gamma) - math.log(1.0 - tau) + math.log(p)
                  - math.log(row.scale * xi_eff * log_d))
    log_dev = float(np.logaddexp(log_first, log_second))
    log_nu = -tau * xi_eff * (1.0 - (gamma / tau) * p / (xi_eff * log_d)) * log_d
    log_nu = log_nu + math.log(kappa) if kappa > 0 else -math.inf
    log_nu += math.log(row.nu_weight)
    return TheoremBoundResult(
        xi_eff=xi_eff,
        gamma=gamma,
        deviation_bound=math.exp(log_dev) if log_dev < 700 else math.inf,
        nu_gc_bound=math.exp(log_nu) if log_nu < 700 else math.inf,
        deviation_vacuous=log_dev >= 0.0,
        nu_gc_vacuous=log_nu >= 0.0,
        log_deviation_bound=log_dev,
        log_nu_gc_bound=log_nu,
    )


def theorem_bound(
    d: float, p: int, t: float, tau: float, constants: MomentConditionConstants,
    kappa: float = 1.0, g: float = 1.0, part: str = PART_A,
) -> TheoremBoundResult:
    """Evaluate the two non-asymptotic bounds for the requested part.

    deviation_bound = (1/t) d^(-tau xi_eff) + gamma/(1-tau) p/(c xi_eff log d)
    and nu_gc_bound = kappa d^(-tau xi_eff (1 - (gamma/tau) p/(xi_eff log d)))
    with c = 3, kappa weight 1 for part A and c = 5, weight 2 for part B.
    """
    _part(tau, part, p, d)
    if kappa < 0.0:
        raise InvalidDimensionError("kappa must be >= 0 (>= 1 for meaningful bounds)")
    if t <= 0.0:
        raise InvalidDimensionError("threshold t must be > 0")
    return _evaluate(math.log(d), p, t, tau, constants, kappa, g, part)


def asymptotic_scan(
    constants: MomentConditionConstants, p: int, log_d_grid, tau: float, part: str,
) -> list[TheoremBoundResult]:
    """Formula-level scan of both bounds at a fixed p along a grid of log d.

    Returns one result per grid point, with the threshold t and the
    constants kappa and g all 1.  The bounds are evaluated in the log
    domain, so the grid may reach log d = 10^6 and beyond.  The scan only
    evaluates; whether the bounds fall (bounds_decrease) and how far is for
    the caller to report.
    """
    _part(tau, part)
    grid = [float(v) for v in log_d_grid]
    if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidDimensionError("log_d_grid must be increasing with >= 2 points")
    if p < 1 or math.log(p) >= grid[0]:
        raise InvalidDimensionError(f"need 1 <= p < d along the grid, got p={p}")
    return [_evaluate(ld, p, 1.0, tau, constants, 1.0, 1.0, part) for ld in grid]


def bounds_decrease(rows: list[TheoremBoundResult]) -> bool:
    """Both log bounds fall strictly from each scan point to the next."""
    return all(b.log_deviation_bound < a.log_deviation_bound
               and b.log_nu_gc_bound < a.log_nu_gc_bound
               for a, b in zip(rows, rows[1:]))
