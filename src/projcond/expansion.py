"""Degree-k polynomial approximation of the clone density ratio.

The ratio factors as eta(d,p,k) * g1(iota'S^{-1}iota) * det(S)^{-p/2}.  Both
factors admit Taylor expansions around S = I whose compositions with Neumann
sums (for the inverse) and a triangular product identity (for the
determinant) give a sparse polynomial in the entries of S - I.  Terms above
total degree k belong to the order-(k+1) remainder and are dropped; the
result is symmetrized over relabelings of the k vectors.

Monomials are keyed by sorted tuples of 0-based index pairs (i, j), i <= j,
one pair per factor of the monomial; the empty tuple is the constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .clones import log_density_ratio_gram, log_eta
from .errors import (
    InvalidDimensionError,
    OutsideExpansionRegionError,
    ThresholdViolatedError,
)
from .linalg import spectral_norm

PRUNE_EPS = 1e-14
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
    p1 = taylor_p1(x_norm_sq, k)
    out = np.empty(k + 1)
    for j in range(k + 1):
        out[j] = _g1_derivative_at_k(d, p, k, x_norm_sq, j) / math.factorial(j) - p1[j]
    return out


def taylor_p2(p: int, k: int) -> np.ndarray:
    """Coefficients of the Taylor polynomial of z^(-p/2) around 1.

    The j-th coefficient is (-1/2)^j/j! * prod_{i<j}(p + 2i), bounded in
    absolute value by p^j.
    """
    out = np.empty(k + 1)
    out[0] = 1.0
    for j in range(1, k + 1):
        prod = 1.0
        for i in range(j):
            prod *= p + 2 * i
        out[j] = (-0.5) ** j / math.factorial(j) * prod
    return out


# ---------------------------------------------------------------------------
# sparse polynomial arithmetic over the entries of a symmetric k x k matrix


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


def poly_const(c: float) -> dict:
    return {(): c} if c != 0.0 else {}


def poly_unit(i: int, j: int) -> dict:
    return {(_pair(i, j),): 1.0}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, val in b.items():
        new = out.get(key, 0.0) + val
        if new == 0.0:
            out.pop(key, None)
        else:
            out[key] = new
    return out


def poly_scale(a: dict, c: float) -> dict:
    return {key: c * val for key, val in a.items()} if c != 0.0 else {}


def poly_mul(a: dict, b: dict, max_degree: int) -> dict:
    """Product with total degree capped at max_degree and tiny terms pruned."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if len(ka) + len(kb) > max_degree:
                continue
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, 0.0) + va * vb
    return {k: v for k, v in out.items() if abs(v) > PRUNE_EPS}


def poly_eval(a: dict, y: np.ndarray) -> float:
    total = 0.0
    for key, val in a.items():
        term = val
        for (i, j) in key:
            term *= y[i, j]
        total += term
    return total


def poly_relabel(a: dict, perm: tuple[int, ...]) -> dict:
    out: dict = {}
    for key, val in a.items():
        new_key = tuple(sorted(_pair(perm[i], perm[j]) for (i, j) in key))
        out[new_key] = out.get(new_key, 0.0) + val
    return out


def neumann_sum_poly(k: int) -> dict:
    """sum_{j=1}^k iota'(I - S)^j iota as a polynomial in Y = S - I."""
    y_mat = [[poly_unit(a, b) for b in range(k)] for a in range(k)]
    power = y_mat
    total: dict = {}
    for j in range(1, k + 1):
        if j > 1:
            nxt = [[dict() for _ in range(k)] for _ in range(k)]
            for a in range(k):
                for b in range(k):
                    acc: dict = {}
                    for c in range(k):
                        acc = poly_add(acc, poly_mul(power[a][c], y_mat[c][b], k))
                    nxt[a][b] = acc
            power = nxt
        sign = (-1.0) ** j  # iota'(I-S)^j iota = (-1)^j iota' Y^j iota
        for a in range(k):
            for b in range(k):
                total = poly_add(total, poly_scale(power[a][b], sign))
    return total


def _det_product_poly(k: int) -> dict:
    """prod_i T_i(Y) approximating det S through order k, as a polynomial.

    T_1 = 1 + Y_11 and, for i > 1,
    T_i = 1 + Y_ii - sum_{j=0}^k y_i'(-Y_(<i))^j y_i
    with y_i the column (Y_1i, ..., Y_(i-1)i)'.
    """
    prod = poly_add(poly_const(1.0), poly_unit(0, 0))
    for i in range(1, k):
        t_i = poly_add(poly_const(1.0), poly_unit(i, i))
        col = [poly_unit(a, i) for a in range(i)]
        current = col  # (-Y_<i)^j y_i, starting at j = 0
        for j in range(0, k + 1):
            if j + 2 > k:
                break
            if j > 0:
                nxt = []
                for a in range(i):
                    acc: dict = {}
                    for b in range(i):
                        acc = poly_add(
                            acc, poly_mul(poly_scale(poly_unit(a, b), -1.0), current[b], k)
                        )
                    nxt.append(acc)
                current = nxt
            quad: dict = {}
            for a in range(i):
                quad = poly_add(quad, poly_mul(col[a], current[a], k))
            t_i = poly_add(t_i, poly_scale(quad, -1.0))
        prod = poly_mul(prod, t_i, k)
    return prod


def _compose_univariate(coeffs: np.ndarray, arg: dict, k: int) -> dict:
    """sum_j coeffs[j] * arg^j with total degree capped at k."""
    out = poly_const(float(coeffs[0]))
    power = poly_const(1.0)
    for j in range(1, len(coeffs)):
        power = poly_mul(power, arg, k)
        out = poly_add(out, poly_scale(power, float(coeffs[j])))
    return out


def det_power_poly(p: int, k: int) -> dict:
    """Polynomial approximating det(S)^(-p/2) through total degree k.

    Composes the Taylor polynomial of z^(-p/2) with the triangular product
    expansion of det S; the truncation error is of order ||S - I||^(k+1).
    """
    v = poly_add(_det_product_poly(k), poly_const(-1.0))
    return _compose_univariate(taylor_p2(p, k), v, k)


def _check_thresholds(x_norm_sq: float, k: int, p: int, d: int):
    if not 1 <= k <= MAX_K:
        raise InvalidDimensionError(f"need 1 <= k <= {MAX_K}, got k={k}")
    m4 = max(1.0, x_norm_sq) ** 2
    bound = max(4.0 * (k + p + 1) * m4, float(p**2))
    if d <= bound:
        raise ThresholdViolatedError(
            f"need d > max(4(k+p+1)M^4, p^2) = {bound:.1f}, got d={d}"
        )


def _psi_unsymmetrized(x_norm_sq: float, k: int, p: int, d: int) -> dict:
    q1_coeffs = taylor_p1(x_norm_sq, k) + taylor_r1(d, p, k, x_norm_sq)
    q1 = _compose_univariate(q1_coeffs, neumann_sum_poly(k), k)
    q2 = det_power_poly(p, k)
    eta = math.exp(log_eta(d, p, k))
    return poly_mul(poly_scale(q1, eta), q2, k)


@dataclass
class PolynomialPsi:
    """The symmetrized degree-k polynomial with coefficient map C(H)."""

    k: int
    coeffs: dict

    def evaluate(self, S) -> float:
        s = np.asarray(S, dtype=float)
        return poly_eval(self.coeffs, s - np.eye(self.k))


def psi_poly(x, k: int, p: int, d: int) -> PolynomialPsi:
    """Explicit coefficient map of the symmetrized approximant."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xsq = float(x @ x)
    _check_thresholds(xsq, k, p, d)
    raw = _psi_unsymmetrized(xsq, k, p, d)
    acc: dict = {}
    perms = list(permutations(range(k)))
    for perm in perms:
        acc = poly_add(acc, poly_relabel(raw, perm))
    coeffs = {key: val / len(perms) for key, val in acc.items() if abs(val) > PRUNE_EPS}
    return PolynomialPsi(k=k, coeffs=coeffs)


def psi_eval(x, S, d: int, p: int) -> float:
    """Numeric evaluation of the approximant at a Gram matrix S.

    Evaluates the unsymmetrized polynomial at every relabeling of S and
    averages; agrees with psi_poly(...).evaluate(S) by permutation
    covariance, through an independent code path.
    """
    s = np.asarray(S, dtype=float)
    k = s.shape[0]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xsq = float(x @ x)
    _check_thresholds(xsq, k, p, d)
    raw = _psi_unsymmetrized(xsq, k, p, d)
    eye = np.eye(k)
    vals = []
    for perm in permutations(range(k)):
        idx = np.array(perm)
        s_perm = s[np.ix_(idx, idx)]
        vals.append(poly_eval(raw, s_perm - eye))
    return float(np.mean(vals))


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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xsq = float(x @ x)
    ratio = log_density_ratio_gram(xsq, s, d, p)
    value = math.exp(ratio.log_ratio) if ratio.in_domain else 0.0
    remainder = value - psi_eval(x, s, d, p)
    m = max(1.0, math.sqrt(xsq))
    shape = p ** (k + 1) * m ** (2 * (k + 2)) * math.exp(0.5 * k * m**2) * dev ** (k + 1)
    return remainder, shape
