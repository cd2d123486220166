"""Degree-k polynomial approximation of the clone density ratio.

The ratio factors as R(S) = eta(d,p,k) * g1(iota'S^{-1}iota) * det(S)^{-p/2}.
Its approximant Psi_k is the degree-k Taylor polynomial of R around S = I:
along the ray S(t) = I + tY, Y = S - I, it sums the coefficients of t^0, ...,
t^k in the power series of R(S(t)).  With a_j = iota'Y^j iota and
tau_j = tr(Y^j),

    iota'S(t)^{-1}iota = k + sum_j (-1)^j a_j t^j,
    det S(t) = exp(sum_j (-1)^(j+1) tau_j t^j / j),

and the Taylor polynomials of g1 around k and of z^(-p/2) around 1 are
composed with these series, every product cut at t^k.  The terms above t^k
belong to the order-(k+1) remainder.  Each a_j and tau_j is unchanged when
the k vectors are relabeled, so Psi_k is symmetric by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .clones import log_density_ratio_gram, log_eta
from .errors import (
    InvalidDimensionError,
    OutsideExpansionRegionError,
    ThresholdViolatedError,
)
from .linalg import as_point, spectral_norm

MAX_K = 4


def default_xi(k: int) -> float:
    """Expansion-region constant xi(k); any value > 2k is admissible."""
    return 2.0 * k + 1.0


def taylor_p1(x_norm_sq: float, k: int) -> np.ndarray:
    """Coefficients of p1(y) = 1 + sum_j (-||x||^2/2)^j y^j / j!."""
    if k < 1:
        raise InvalidDimensionError("need k >= 1")
    j = np.arange(k + 1)
    return (-0.5 * x_norm_sq) ** j / np.array([math.factorial(i) for i in j])


def _g1_derivative_at_k(d: int, p: int, k: int, x_norm_sq: float, j: int) -> float:
    """j-th derivative at z = k of g1(z) = (1 - ||x||^2 z/d)^((d-p-k-1)/2) e^(k||x||^2/2)."""
    lead = (-0.5 * x_norm_sq) ** j
    for i in range(j):
        lead *= (d - (p + k + 1 + 2 * i)) / d
    expo = 0.5 * (d - (p + k + 1 + 2 * j)) * math.log1p(-k * x_norm_sq / d)
    return lead * math.exp(expo + 0.5 * k * x_norm_sq)


def taylor_r1(d: int, p: int, k: int, x_norm_sq: float) -> np.ndarray:
    """Coefficients of the O(1/d) correction polynomial r1.

    r1's j-th coefficient is g1^(j)(k)/j! - (-||x||^2/2)^j/j!, so that
    p1 + r1 is the exact k-th order Taylor polynomial of g1 around k.
    """
    if k < 1:
        raise InvalidDimensionError("need k >= 1")
    threshold = 4.0 * (k + p + 1) * max(1.0, x_norm_sq) ** 2
    if d <= threshold:
        raise ThresholdViolatedError(
            f"need d > 4(k+p+1)max(1,||x||^2)^2 = {threshold:.1f}, got d={d}"
        )
    return np.array([_g1_derivative_at_k(d, p, k, x_norm_sq, j) / math.factorial(j)
                     for j in range(k + 1)]) - taylor_p1(x_norm_sq, k)


def taylor_p2(p: int, k: int) -> np.ndarray:
    """Coefficients of the Taylor polynomial of z^(-p/2) around 1.

    The j-th coefficient is (-1/2)^j/j! * prod_{i<j}(p + 2i), bounded in
    absolute value by p^j.
    """
    out = np.ones(k + 1)
    for j in range(1, k + 1):
        out[j] = (-0.5) ** j / math.factorial(j) * math.prod(range(p, p + 2 * j, 2))
    return out


def d_threshold(x_norm_sq: float, k: int, p: int) -> float:
    """max(4(k+p+1)M^4, p^2) with M = max(1, ||x||), which d must exceed."""
    m2 = max(1.0, x_norm_sq)
    return max(4.0 * (k + p + 1) * m2 * m2, float(p**2))


def _check_thresholds(x_norm_sq: float, k: int, p: int, d: int):
    if not 1 <= k <= MAX_K:
        raise InvalidDimensionError(f"need 1 <= k <= {MAX_K}, got k={k}")
    bound = d_threshold(x_norm_sq, k, p)
    if d <= bound:
        raise ThresholdViolatedError(
            f"need d > max(4(k+p+1)M^4, p^2) = {bound:.1f}, got d={d}"
        )


def _compose(coeffs: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] arg^j by Horner's rule, as a power series cut at the
    length of arg, for a series arg without constant term."""
    out = np.zeros(len(arg))
    for c in coeffs[::-1]:
        out = np.convolve(out, arg)[: len(arg)]
        out[0] += c
    return out


def _ray_series(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """iota'(I + tY)^{-1}iota - k and det(I + tY) - 1 as power series in t,
    cut at t^k for a k x k matrix Y."""
    k = y.shape[0]
    j = np.arange(1, k + 1)
    powers = [np.linalg.matrix_power(y, i) for i in j]
    u = np.concatenate(([0.0], (-1.0) ** j * [m.sum() for m in powers]))
    log_det = np.concatenate(([0.0], (-1.0) ** (j + 1) * [np.trace(m) for m in powers] / j))
    exp_minus_1 = np.concatenate(([0.0], 1.0 / np.cumprod(j)))
    return u, _compose(exp_minus_1, log_det)


def _psi_series(x_norm_sq: float, y: np.ndarray, d: int, p: int) -> np.ndarray:
    """Coefficients of t^0, ..., t^k in the series of the ratio over eta,
    g1(iota'S^{-1}iota) det(S)^(-p/2), along S = I + tY."""
    k = y.shape[0]
    u, v = _ray_series(y)
    q1 = _compose(taylor_p1(x_norm_sq, k) + taylor_r1(d, p, k, x_norm_sq), u)
    q2 = _compose(taylor_p2(p, k), v)
    return np.convolve(q1, q2)[: k + 1]


def psi_eval(x, S, d: int, p: int) -> float:
    """The degree-k approximant Psi_k at a Gram matrix S: eta times the
    series of _psi_series at Y = S - I, summed at t = 1."""
    s = np.asarray(S, dtype=float)
    k = s.shape[0]
    x = as_point(x, p)
    xsq = float(x @ x)
    _check_thresholds(xsq, k, p, d)
    return math.exp(log_eta(d, p, k)) * float(np.sum(_psi_series(xsq, s - np.eye(k), d, p)))


def remainder_diagnostic(x, S, d: int, p: int):
    """Exact remainder (density ratio minus approximant) and its bound shape.

    Requires ||S - I|| < 1/(p xi(k)) with xi(k) = default_xi(k); the returned
    shape is p^(k+1) M^(2(k+2)) e^(k M^2 / 2) ||S - I||^(k+1) (unit constant,
    the caller supplies its own multiplicative constant).
    """
    s = np.asarray(S, dtype=float)
    k = s.shape[0]
    xi = default_xi(k)
    dev = spectral_norm(s - np.eye(k))
    if dev >= 1.0 / (p * xi):
        raise OutsideExpansionRegionError(
            f"||S - I|| = {dev:.4f} >= 1/(p xi(k)) = {1.0 / (p * xi):.4f}"
        )
    x = as_point(x, p)
    xsq = float(x @ x)
    ratio = log_density_ratio_gram(xsq, s, d, p)
    value = math.exp(ratio.log_ratio) if ratio.in_domain else 0.0
    remainder = value - psi_eval(x, s, d, p)
    m = max(1.0, math.sqrt(xsq))
    shape = p ** (k + 1) * m ** (2 * (k + 2)) * math.exp(0.5 * k * m**2) * dev ** (k + 1)
    return remainder, shape
