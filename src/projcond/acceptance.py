"""The acceptance suite: exact-identity, distributional, order-of-accuracy
and trend checks, each pinned to its tolerance.

The headline closed-form bounds contain constants the theory leaves
implicit, so acceptance never compares Monte Carlo output against them;
every criterion below has an independent oracle (analytic value, closed form,
exact identity, or a trend with joint standard errors).  Each criterion
returns ReportRow records whose uniform pass rule is
|estimate - target| <= 4 se.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds, clones, conditional, distributions, expansion, linalg, moments
from .errors import InvalidDimensionError
from .experiments import (
    ReportRow,
    bool_row,
    exact_row,
    run_bartlett_check,
    run_clone_density_check,
    run_conditional_linearity,
    run_expansion_order,
    run_normalzero_check,
    run_prop5_cases,
)
from .streams import substream

DEFAULT_SEED = 20250808

ALL_SPECS = (
    {"family": "gaussian"},
    {"family": "iid-marginal", "marginal": "uniform"},
    {"family": "iid-marginal", "marginal": "exponential"},
    {"family": "iid-marginal", "marginal": "triangular"},
)


# ---------------------------------------------------------------------------
# criterion implementations


def criterion_01_density_normalization(seed: int) -> list[ReportRow]:
    """Clone density integrates to one under its Gaussian reference."""
    rows = []
    for i, (d, p, k) in enumerate(((30, 1, 1), (30, 1, 2), (50, 2, 2))):
        rows += run_clone_density_check(substream(seed, "c1", i), d=d, p=p, k=k)
    return rows


def criterion_02_eta_bound(seed: int) -> list[ReportRow]:
    """Exact comparison of eta(d,p,k) against its closed-form bound."""
    rows = []
    for d in (10, 50, 200):
        for p in (1, 2, 3):
            for k in (1, 2, 4):
                if not k < d - p - 1:
                    continue
                eta = clones.eta_norm_const(d, p, k)
                cap = clones.eta_norm_const_bound(d, p, k)
                rows.append(bool_row("eta-bound", f"d={d};p={p};k={k};eta={eta:.6f};cap={cap:.6f}",
                                     eta <= cap))
    return rows


def criterion_03_bartlett(seed: int) -> list[ReportRow]:
    return run_bartlett_check(substream(seed, "c3"), d=20, p=2, k=3)


def criterion_04_expansion(seed: int) -> list[ReportRow]:
    return run_expansion_order(substream(seed, "c4"))


def criterion_05_gaussian_zero_cases(seed: int) -> list[ReportRow]:
    """Gaussian law: exact conditional moments and exact clone identities."""
    rng = substream(seed, "c5")
    rows = []
    spec = distributions.gaussian(20)
    B = linalg.haar_stiefel(20, 2, rng)
    x = np.array([0.4, -1.1])
    est = conditional.conditional_estimates(spec, B, x, 5000, rng)
    rows.append(exact_row("gaussian-zero", "h==1", est.h_hat, 1.0, 1e-14))
    rows.append(exact_row("gaussian-zero", "mu==Bx",
                          float(np.max(np.abs(est.mu_hat - B.entries @ x))), 0.0, 1e-12))
    rows.append(exact_row("gaussian-zero", "delta==0", est.delta_op_norm_hat, 0.0, 1e-12))
    rows += run_normalzero_check(substream(seed, "c5-chains"))
    rows += run_normalzero_check(substream(seed, "c5-chains-k2"), k=2,
                                 chains=((0,), (0, 2), "alternating"))
    return rows


def criterion_06_prop5(seed: int) -> list[ReportRow]:
    rows = []
    for i, spec in enumerate(ALL_SPECS[:3]):
        rows += run_prop5_cases(substream(seed, "c6", i), spec=spec)
    return rows


def criterion_07_quadratic_identity(seed: int) -> list[ReportRow]:
    """d E[(S-I)_12^2] = 1 exactly, for every implemented law."""
    rows = []
    mono = moments.MonomialSpec(pairs=((1, 2), (1, 2)))
    for i, spec_raw in enumerate(ALL_SPECS):
        for d in (100, 400):
            spec = distributions.DistributionSpec.from_json(dict(spec_raw, d=d))
            est, se, target = moments.estimate_monomial_mean(
                spec, mono, 20_000, substream(seed, "c7", i * 1000 + d))
            rows.append(ReportRow("quadratic-identity", f"{spec.label};d={d}", est, se, target))
    return rows


def criterion_08_conditional_trend(seed: int) -> list[ReportRow]:
    return run_conditional_linearity(
        substream(seed, "c8"), n_inner={32: 60_000, 128: 100_000, 512: 120_000},
        bandwidths={512: 0.2},
    )


def _uniform_fiber_moments(bvec: np.ndarray, x: float):
    """Deterministic oracle: conditional moments of the iid-uniform law in
    d = 2 given b'Z = x.  The fiber is the segment bx + t b_perp, lo <= t <= hi,
    inside the square, and Z is uniform along it with density 1/12 per unit
    length; so t has mean m = (lo + hi)/2 and variance L^2/12, L = hi - lo."""
    s3 = math.sqrt(3.0)
    b = bvec / np.linalg.norm(bvec)
    bperp = np.array([-b[1], b[0]])
    base = b * x
    lo, hi = -np.inf, np.inf
    for i in range(2):
        if abs(bperp[i]) < 1e-15:
            continue
        a1 = (-s3 - base[i]) / bperp[i]
        a2 = (s3 - base[i]) / bperp[i]
        lo, hi = max(lo, min(a1, a2)), min(hi, max(a1, a2))
    m, length = 0.5 * (lo + hi), hi - lo
    h = math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x) * length / 12.0
    mu = base + m * bperp
    second = np.outer(mu, mu) + (length**2 / 12.0) * np.outer(bperp, bperp)
    return h, mu, second


def criterion_09_quadrature(seed: int) -> list[ReportRow]:
    """Ratio-engine estimates against the d = 2 closed-form fiber oracle."""
    rng = substream(seed, "c9")
    bvec = np.array([1.0, 2.0]) / math.sqrt(5.0)
    B = linalg.as_stiefel(bvec)
    spec = distributions.iid_marginal("uniform", 2)
    rows = []
    for x in (0.0, 0.3, -0.3, 0.8, -0.8):
        h_or, mu_or, sec_or = _uniform_fiber_moments(bvec, x)
        delta_or = sec_or - (np.eye(2) + np.outer(bvec, bvec) * (x * x - 1.0))
        dn_or = linalg.spectral_norm(delta_or)
        est = conditional.conditional_estimates(spec, B, np.array([x]), 100_000, rng)
        rows.append(ReportRow("quadrature", f"x={x};h", est.h_hat, est.h_se, h_or))
        mu_err = float(np.max(np.abs(est.mu_hat - mu_or)))
        rows.append(ReportRow("quadrature", f"x={x};mu(max-coord)", mu_err,
                              float(np.max(est.mu_se)), 0.0))
        rows.append(ReportRow("quadrature", f"x={x};delta-norm",
                              est.delta_op_norm_hat, est.delta_se, dn_or))
    return rows


def _direct_generic_bound(p, k, eps, g, M, D, d, xi, kappa):
    return (kappa * p ** (2 * k + 1 + eps) * math.exp(g * M * M)
            * (2.0 * D * math.sqrt(math.pi * math.e)) ** (p * k)
            * d ** (-min(xi, eps / 2 + 0.25, 0.5)))


def _direct_theorem_bound(d, p, t, tau, eps, xi, D, kappa, g, part):
    scale = 3.0 if part == "A" else 5.0
    xi_eff = min(xi, eps / 2 + 0.25, 0.5) / scale
    ld = 2.0 * D * math.sqrt(math.pi * math.e)
    gamma = max(g, 6.0 + 2.0 * math.log(ld)) if part == "A" else max(g, 10.0 + 4.0 * math.log(ld))
    dev = (1.0 / t) * d ** (-tau * xi_eff) + gamma / (1.0 - tau) * p / (scale * xi_eff * math.log(d))
    try:
        nu = kappa * d ** (-tau * xi_eff * (1.0 - (gamma / tau) * p / (xi_eff * math.log(d))))
    except OverflowError:
        nu = math.inf
    if part == "B":
        nu *= 2.0
    return xi_eff, gamma, dev, nu


def criterion_10_bound_arithmetic(seed: int) -> list[ReportRow]:
    """Log-domain bound evaluation vs direct scalar arithmetic, plus the
    formula-level scan."""
    rng = substream(seed, "c10")
    rows = []
    worst_g = worst_dev = worst_nu = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        eps = float(rng.uniform(0.0, 0.5))
        g = float(rng.uniform(0.5, 3.0))
        M = float(rng.uniform(1.0, 3.0))
        D = float(rng.uniform(1.0, 2.0))
        d = float(rng.uniform(p * p + 10, 1e8))
        xi = float(rng.uniform(0.05, 0.5))
        kappa = float(rng.uniform(0.5, 4.0))
        val = bounds.generic_bound(p, k, eps, g, M, D, d, xi, kappa)
        ref = _direct_generic_bound(p, k, eps, g, M, D, d, xi, kappa)
        worst_g = max(worst_g, abs(val - ref) / ref)
        tau = float(rng.uniform(0.1, 0.9))
        t = float(rng.uniform(0.1, 5.0))
        part = "A" if rng.random() < 0.5 else "B"
        cons = moments.MomentConditionConstants(epsilon=eps, xi=xi, D=D)
        res = bounds.theorem_bound(d=d, p=p, t=t, tau=tau, constants=cons, kappa=kappa, g=g,
                                   part=part)
        xi_ref, gamma_ref, dev_ref, nu_ref = _direct_theorem_bound(
            d, p, t, tau, eps, xi, D, kappa, g, part)
        worst_dev = max(worst_dev, abs(res.deviation_bound - dev_ref) / dev_ref)
        # a reference that overflows must overflow in the log domain too
        if math.isinf(nu_ref):
            nu_err = 0.0 if math.isinf(res.nu_gc_bound) else math.inf
        else:
            nu_err = abs(res.nu_gc_bound - nu_ref) / max(nu_ref, 1e-300)
        worst_nu = max(worst_nu, nu_err)
    rows.append(exact_row("bound-arithmetic", "generic;20-random-tuples;rel", worst_g, 0.0, 1e-12))
    rows.append(exact_row("bound-arithmetic", "deviation;20-random-tuples;rel", worst_dev, 0.0, 1e-12))
    rows.append(exact_row("bound-arithmetic", "nu_gc;20-random-tuples;rel", worst_nu, 0.0, 1e-12))

    cons = moments.MomentConditionConstants(epsilon=0.5, xi=0.5, D=1.0)
    for part in ("A", "B"):
        scan = bounds.asymptotic_scan(cons, 2, [1e3, 1e4, 1e5, 1e6], tau=0.5, part=part)
        final = scan[-1]
        dec = bounds.bounds_decrease(scan)
        rows.append(bool_row("bound-arithmetic",
                             f"scan-part{part};decreasing;final_dev={final.deviation_bound:.3e};"
                             f"final_nu={final.nu_gc_bound:.3e}",
                             dec and final.deviation_bound < 1e-3 and final.nu_gc_bound < 1e-3))
    return rows


CRITERIA = {
    1: ("density normalization: E exp(log ratio) = 1 within 4 SE", criterion_01_density_normalization),
    2: ("eta normalizing constant below its closed-form cap (exact)", criterion_02_eta_bound),
    3: ("triangular coordinates: KS laws, independence, det identity", criterion_03_bartlett),
    4: ("expansion exact at S = I and of order k+1", criterion_04_expansion),
    5: ("Gaussian zero cases: exact moments and chain identities", criterion_05_gaussian_zero_cases),
    6: ("special-case comparison moments vs analytic oracles", criterion_06_prop5),
    7: ("forced identity d E[(S-I)_12^2] = 1 for every law", criterion_07_quadratic_identity),
    8: ("deviation probabilities non-increasing in d", criterion_08_conditional_trend),
    9: ("ratio estimators vs d = 2 exact fiber moments", criterion_09_quadrature),
    10: ("bound arithmetic vs direct evaluation; formula-level scan", criterion_10_bound_arithmetic),
}


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> list[ReportRow]:
    _, fn = CRITERIA[number]
    return fn(seed)


def run_smoke(seed: int = DEFAULT_SEED) -> list[ReportRow]:
    """Fast deterministic checks across all modules (< 1 minute)."""
    rng = substream(seed, "smoke")
    rows = []

    B = linalg.haar_stiefel(30, 3, rng)
    rows.append(exact_row("smoke", "haar;B'B=I",
                          float(np.max(np.abs(B.entries.T @ B.entries - np.eye(3)))), 0.0, 1e-10))
    try:
        linalg.haar_stiefel(3, 3, rng)
        ok = False
    except InvalidDimensionError:
        ok = True
    rows.append(bool_row("smoke", "haar;p>=d rejected", ok))

    x = np.array([0.7, -0.2, 0.1])
    w = linalg.clone_vectors(B.entries, x, rng.standard_normal((4, B.d)))
    rows.append(exact_row("smoke", "clones;B'W=x",
                          float(np.max(np.abs(w @ B.entries - x))), 0.0, 1e-10))
    rows.append(exact_row("smoke", "eta;p=0 -> 1", clones.eta_norm_const(10, 0, 2), 1.0, 1e-14))
    ref = 24.0 / (math.sqrt(5.0) * math.gamma(4.5))
    rows.append(exact_row("smoke", "eta;(10,1,1) closed form",
                          clones.eta_norm_const(10, 1, 1), ref, 1e-12))
    val = clones.log_density_ratio_gram(0.0, np.eye(2), 30, 1)
    rows.append(exact_row("smoke", "ratio;S=I,x=0 -> log eta",
                          val.log_ratio, clones.log_eta(30, 1, 2), 1e-12))
    far = clones.log_density_ratio_gram(40.0, np.eye(2), 30, 1)
    rows.append(bool_row("smoke", "ratio;out of domain -> -inf",
                         (not far.in_domain) and far.log_ratio == -math.inf))

    rows.append(exact_row("smoke", "taylor;p1 at x=0 constant",
                          float(np.max(np.abs(expansion.taylor_p1(0.0, 3)[1:]))), 0.0, 1e-15))
    p1 = expansion.taylor_p1(1.0, 2)
    rows.append(exact_row("smoke", "taylor;p1(k=2,|x|^2=1)",
                          float(np.max(np.abs(p1 - [1.0, -0.5, 0.125]))), 0.0, 1e-15))
    p2 = expansion.taylor_p2(2, 2)
    rows.append(exact_row("smoke", "taylor;p2(p=2,k=2) = (1,-1,1)",
                          float(np.max(np.abs(p2 - [1.0, -1.0, 1.0]))), 0.0, 1e-15))
    rows.append(bool_row("smoke", "taylor;p2(p=1) coeffs within p^j",
                         bool(np.all(np.abs(expansion.taylor_p2(1, 4)) <= 1.0 + 1e-15))))
    r1 = expansion.taylor_r1(500, 1, 2, 0.0)
    rows.append(exact_row("smoke", "taylor;r1 at x=0 vanishes",
                          float(np.max(np.abs(r1))), 0.0, 1e-15))
    rows.append(exact_row("smoke", "psi;x=0,S=I -> eta",
                          expansion.psi_eval(np.zeros(1), np.eye(2), 500, 1),
                          clones.eta_norm_const(500, 1, 2), 1e-12))
    a = substream(seed, "smoke", 1).standard_normal((3, 3))
    s = np.eye(3) + 0.01 * (a + a.T)
    psi = [expansion.psi_eval(np.array([0.5]), s[np.ix_(perm, perm)], 2000, 1)
           for perm in ([0, 1, 2], [2, 0, 1])]
    rows.append(exact_row("smoke", "psi;permutation-invariant coeffs",
                          abs(psi[0] - psi[1]), 0.0, 1e-10))

    spec_u = distributions.iid_marginal("uniform", 3)
    rows.append(exact_row("smoke", "log-density;uniform interior",
                          float(distributions.log_density_batch(spec_u, np.zeros((1, 3)))[0]),
                          -3.0 * math.log(2.0 * math.sqrt(3.0)), 1e-14))
    outside = distributions.log_density_batch(spec_u, np.array([[3.0, 0.0, 0.0]]))[0]
    rows.append(bool_row("smoke", "log-density;outside support -> -inf", outside == -math.inf))
    gspec = distributions.gaussian(2)
    rows.append(exact_row("smoke", "log-density;gaussian origin",
                          float(distributions.log_density_batch(gspec, np.zeros((1, 2)))[0]),
                          -math.log(2.0 * math.pi), 1e-14))
    om = distributions.moment_oracle(spec_u)
    rows.append(exact_row("smoke", "moments;uniform (m3,m4)",
                          abs(om.m3) + abs(om.m4 - 1.8), 0.0, 1e-14))
    z = distributions.sample_z(spec_u, 1000, rng)
    rows.append(bool_row("smoke", "sample;uniform support",
                         bool(np.all(np.abs(z) <= math.sqrt(3.0)))))

    rows.append(exact_row("smoke", "bound;kappa=0", bounds.generic_bound(1, 2, .5, 1, 1, 1, 100, .5, 0.0), 0.0, 1e-300))
    v1 = bounds.generic_bound(2, 2, 0.4, 1.0, 1.2, 1.1, 1e4, 0.3, 1.5)
    v2 = bounds.generic_bound(2, 2, 0.4, 1.0, 1.2, 1.1, 2e4, 0.3, 1.5)
    rows.append(exact_row("smoke", "bound;doubling-d power law", v2 / v1, 2.0 ** -0.3, 1e-12))
    cons = moments.MomentConditionConstants()
    resA = bounds.theorem_bound(d=1e6, p=2, t=1e12, tau=0.5, constants=cons, part="A")
    limit = resA.gamma / 0.5 * 2 / (3 * resA.xi_eff * math.log(1e6))
    rows.append(exact_row("smoke", "bound;t->inf limit", resA.deviation_bound, limit, 1e-10))
    resB = bounds.theorem_bound(d=1e6, p=2, t=1.0, tau=0.5, constants=cons, part="B")
    rows.append(exact_row("smoke", "bound;xi2 = (3/5) xi1", resB.xi_eff, 0.6 * resA.xi_eff, 1e-15))

    gspec20 = distributions.gaussian(20)
    B20 = linalg.haar_stiefel(20, 1, rng)
    est = conditional.conditional_estimates(gspec20, B20, np.array([0.3]), 2000, rng)
    rows.append(exact_row("smoke", "conditional;gaussian h=1", est.h_hat, 1.0, 1e-14))
    rows.append(exact_row("smoke", "conditional;gaussian mu=Bx",
                          float(np.max(np.abs(est.mu_hat - B20.entries[:, 0] * 0.3))), 0.0, 1e-12))
    rep = conditional.g_membership(gspec20, B20, tau=0.5,
                                   gamma=bounds.gamma_constant(1.0, 1.0, "A"),
                                   n_x=100, n_inner=1000, rng=rng)
    rows.append(bool_row("smoke", "membership;M_d<=1 -> member", rep.M_d <= 1.0 and rep.member))

    est0, se0 = clones.gaussian_chain_identity(np.array([0.5]), 30, 2, (0,), 2000, rng)
    rows.append(exact_row("smoke", "chains;m=0 exact", abs(est0) + se0, 0.0, 1e-14))
    return rows
