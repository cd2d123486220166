"""Reference values and noise models the benchmark judges projcond by.

Everything here is computed apart from the program: closed forms derived
from the laws' definitions, scalar arithmetic done directly, and
tolerances taken from a stated noise model.  Statistical tolerances use a
per-check false-alarm rate of ALPHA, so that all the checks of one run
(fewer than 1000) together false-alarm with probability below 1e-3.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

ALPHA = 1e-6
Z_MEAN = float(stats.norm.ppf(1.0 - ALPHA / 2.0))
# the ratio engine's standard errors are delete-one jackknife over 20 blocks
T_JACKKNIFE = float(stats.t.ppf(1.0 - ALPHA / 2.0, 19))

SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

# the kernel engine keeps at most this many points for its weighted Gram
KERNEL_GRAM_CAP = 30000


def within(value: float, target: float, se: float, z: float = Z_MEAN) -> bool:
    return bool(np.isfinite(value) and abs(value - target) <= z * se)


# ---------------------------------------------------------------------------
# marginal laws


# (m3, m4) of each law's standardized marginal, by its prop5 label:
# N(0, 1); uniform on [-sqrt3, sqrt3], m4 = 3^2/5; exponential(1) - 1, whose
# central moments are 2 and 9
MARGINAL_MOMENTS = {"gaussian": (0.0, 3.0), "iid-uniform": (0.0, SQRT3**4 / 5.0),
                    "iid-exponential": (2.0, 9.0)}


def prop5_targets(m3: float, m4: float, d: int) -> tuple[float, float, float]:
    """Var[Z'Z]/d - 2, E[(Z_1'Z_2)^3]/d and Var[(Z_1'Z_2)^2]/d^2 - 2(1 + 3/d)
    for i.i.d. standardized coordinates: m4 - 3, m3^2 and (m4^2 - 9)/d."""
    return m4 - 3.0, m3 * m3, (m4 * m4 - 9.0) / d


def uniform_plane_fiber(a: np.ndarray, v):
    """Mean, variance and length of t on the fiber {a v + t a_perp} of Z1, Z2
    iid uniform on [-sqrt3, sqrt3], for a unit a in the (e1, e2) plane.

    Given a'(Z1, Z2) = v, t is uniform on the segment [lo, hi] that the
    square cuts out of the fiber.  Vectorized over v.
    """
    v = np.asarray(v, dtype=float)
    a_perp = np.array([-a[1], a[0]])
    lo, hi = np.full(v.shape, -np.inf), np.full(v.shape, np.inf)
    for i in range(2):
        if a_perp[i] == 0.0:
            continue
        ends = ((-SQRT3 - a[i] * v) / a_perp[i], (SQRT3 - a[i] * v) / a_perp[i])
        lo, hi = np.maximum(lo, np.minimum(*ends)), np.minimum(hi, np.maximum(*ends))
    return 0.5 * (lo + hi), (hi - lo) ** 2 / 12.0, hi - lo


# ---------------------------------------------------------------------------
# the kernel engine's noise model


def kernel_weights(pool, x: np.ndarray, cap: int | None = None):
    """Indices and weights of the pool points the kernel engine averages at x.

    The documented kernel: Gaussian in (B'Z - x)/h(x) with the balloon
    bandwidth h(x) = h * min(3, exp(|x|^2 / 2p)), cut at four widths; with
    a cap, only the cap nearest points are kept.
    """
    p = pool.proj.shape[1]
    h = pool.bandwidth * min(3.0, math.exp(float(x @ x) / (2.0 * p)))
    u = (pool.proj - x[None, :]) / h
    r2 = np.einsum("np,np->n", u, u)
    idx = np.flatnonzero(r2 <= 16.0)
    if cap is not None and idx.size > cap:
        idx = idx[np.argpartition(r2[idx], cap)[:cap]]
    return idx, np.exp(-0.5 * r2[idx])


def effective_size(w: np.ndarray) -> float:
    return float(np.sum(w)) ** 2 / float(np.sum(w * w))


def uniform_frame_signals(a: np.ndarray, proj: np.ndarray, w: np.ndarray):
    """The smoothed deviations the kernel engine should find, up to noise, on
    the frame B = [a1 e1 + a2 e2, e3, .., e(p+1)] under the iid uniform law,
    from the projections and kernel weights of the points it averages.

    With e = a_perp and E[t | v] = m, Var[t | v] = s2 on the fiber:
    E[Z | B'Z = v] - B v = m e, so the mean deviation is |Ehat_w[m]|; and
    E[ZZ' | v] - I - B(v v' - I)B' = (m^2 + s2 - 1) e e' + e (v m)' B' +
    B (v m) e', whose smoothed operator norm is |c|/2 + sqrt(c^2/4 + |r|^2)
    with c = Ehat_w[m^2 + s2 - 1] and r = Ehat_w[v m].  Both vanish on a
    coordinate frame (m = 0, s2 = 1).
    """
    m, s2, _ = uniform_plane_fiber(a, proj[:, 0])
    sw = float(np.sum(w))
    mean = abs(float(w @ m)) / sw
    c = float(w @ (m * m + s2 - 1.0)) / sw
    r = float(np.linalg.norm((w * m) @ proj)) / sw
    return mean, abs(c) / 2.0 + math.sqrt(c * c / 4.0 + r * r)


def mean_deviation_tolerance(n_eff: float, d: int, p: int) -> float:
    """Bound on the noise in ||mu_hat - B Ehat_w[B'Z]||.

    The noise is the weighted mean of the residuals Z - E[Z|B'Z],
    which are independent given the projections, have conditional variance
    at most 1 in d - p - 1 directions and at most 2 in one more, so that
    n_eff ||dev||^2 is close to chi2 with about d - p + 2 degrees of freedom.
    The bound is 1.25 times its 1 - ALPHA quantile.
    """
    q = float(stats.chi2.ppf(1.0 - ALPHA, d - p + 2))
    return math.sqrt(1.25 * q / n_eff)


def gram_noise_tolerance(n_eff: float, d: int, x: np.ndarray) -> float:
    """Bound on the operator norm of the noise in the weighted Gram.

    The residual part is a weighted sample covariance of d - p coordinates
    with unit variance: its norm is near the Marchenko-Pastur edge
    2 sqrt(g) + g, g = d / n_eff.  The cross term between the projection and
    the residual mean adds about |x| sqrt(g).  The bound is twice their sum.
    """
    g = d / n_eff
    return 2.0 * (2.0 * math.sqrt(g) + g + float(np.linalg.norm(x)) * math.sqrt(g))


# ---------------------------------------------------------------------------
# d = 2 uniform law: the fiber {z : b'z = x} is a segment


def uniform_fiber_moments(b: np.ndarray, x: float):
    """Exact h(x|b), E[Z | b'Z = x] and ||Delta(x|b)|| for Z uniform on the
    square [-sqrt3, sqrt3]^2.

    Given b'Z = x, Z = b x + t b_perp with t uniform on a segment (see
    uniform_plane_fiber); the density of b'Z at x is its length over 12.
    """
    b = np.asarray(b, dtype=float)
    b_perp = np.array([-b[1], b[0]])
    mid, var, length = (float(u) for u in uniform_plane_fiber(b, x))
    phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    h = (length / 12.0) / phi
    mu = b * x + mid * b_perp
    second = np.outer(mu, mu) + var * np.outer(b_perp, b_perp)
    delta = second - (np.eye(2) + (x * x - 1.0) * np.outer(b, b))
    return h, mu, float(np.max(np.abs(np.linalg.eigvalsh(delta))))


# ---------------------------------------------------------------------------
# clones and bounds by direct arithmetic


def log_eta(d: int, p: int, k: int) -> float:
    """log eta(d,p,k) = -(kp/2) log(d/2) + sum_i [lgamma((d-i+1)/2) - lgamma((d-p-i+1)/2)]."""
    return -0.5 * k * p * math.log(d / 2.0) + sum(
        math.lgamma((d - i + 1) / 2.0) - math.lgamma((d - p - i + 1) / 2.0)
        for i in range(1, k + 1)
    )


def _bound_constants(part: str, epsilon: float, xi: float, D: float, g: float):
    """(c, xi_eff, gamma): c = 3 for part A and 5 for part B,
    xi_eff = min(xi, eps/2 + 1/4, 1/2)/c, gamma = max(g, 6 + 2 log(2 D sqrt(pi e)))
    for part A and max(g, 10 + 4 log(2 D sqrt(pi e))) for part B."""
    c = 3.0 if part == "A" else 5.0
    log_c = math.log(2.0 * D * math.sqrt(math.pi * math.e))
    gamma = max(g, 6.0 + 2.0 * log_c) if part == "A" else max(g, 10.0 + 4.0 * log_c)
    return c, min(xi, epsilon / 2.0 + 0.25, 0.5) / c, gamma


def theorem_bounds(d: float, p: int, t: float, tau: float, part: str,
                   epsilon: float = 0.5, xi: float = 0.5, D: float = 1.0,
                   kappa: float = 1.0, g: float = 1.0) -> tuple[float, float]:
    """(deviation bound, nu(G^c) bound), evaluated directly:
    (1/t) d^(-tau xi_eff) + gamma/(1 - tau) p/(c xi_eff log d) and
    kappa d^(-tau xi_eff (1 - (gamma/tau) p/(xi_eff log d))), doubled for part B."""
    c, xi_eff, gamma = _bound_constants(part, epsilon, xi, D, g)
    dev = d ** (-tau * xi_eff) / t + gamma / (1.0 - tau) * p / (c * xi_eff * math.log(d))
    nu = kappa * d ** (-tau * xi_eff * (1.0 - (gamma / tau) * p / (xi_eff * math.log(d))))
    return dev, nu * (2.0 if part == "B" else 1.0)


def bound_logs(log_d: float, p: int, t: float, tau: float, part: str,
               epsilon: float = 0.5, xi: float = 0.5, D: float = 1.0,
               g: float = 1.0) -> tuple[float, float]:
    """The logs of the same two bounds (kappa = 1) at a log d too large for d."""
    c, xi_eff, gamma = _bound_constants(part, epsilon, xi, D, g)
    first = -tau * xi_eff * log_d - math.log(t)
    second = math.log(gamma / (1.0 - tau) * p / (c * xi_eff * log_d))
    top = max(first, second)
    log_dev = top + math.log(math.exp(first - top) + math.exp(second - top))
    log_nu = -tau * xi_eff * (1.0 - (gamma / tau) * p / (xi_eff * log_d)) * log_d
    return log_dev, log_nu + (math.log(2.0) if part == "B" else 0.0)
