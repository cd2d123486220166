"""Configuration-driven experiments with structured, reproducible reports.

Every experiment emits ReportRow records with a single uniform pass rule:
|estimate - target| <= 4 * se.  Exact checks encode their tolerance as
se = tol/4; boolean checks use estimate in {0, 1} with se = 0; one-sided
trend checks report the exceedance max(diff, 0) against target 0.  Rows are
byte-reproducible for a fixed (config, seed): per-row wall time is therefore
written as 0 in CSV output, with measured timings kept in the JSON summary.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bounds, clones, conditional, distributions, linalg, moments
from .errors import ConfigError, ConstraintViolatedError, ProjcondError, RankDeficientError
from .expansion import remainder_diagnostic
from .streams import substream

CSV_HEADER = ["experiment", "params", "estimate", "se", "target", "pass", "ms"]


@dataclass
class ReportRow:
    experiment: str
    params: str
    estimate: float
    se: float
    target: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = bool(abs(self.estimate - self.target) <= 4.0 * self.se)

    def csv_fields(self) -> list[str]:
        return [
            self.experiment,
            self.params,
            f"{self.estimate:.12g}",
            f"{self.se:.12g}",
            f"{self.target:.12g}",
            "1" if self.passed else "0",
            "0",
        ]


def exact_row(experiment: str, params: str, value: float, target: float, tol: float) -> ReportRow:
    return ReportRow(experiment, params, value, tol / 4.0, target)


def bool_row(experiment: str, params: str, ok: bool) -> ReportRow:
    return ReportRow(experiment, params, 1.0 if ok else 0.0, 0.0, 1.0)


def info_row(experiment: str, params: str, value: float) -> ReportRow:
    """A report-only observable with no oracle; never fails."""
    return ReportRow(experiment, f"{params};report-only", value, 0.0, value)


def write_csv(rows: list[ReportRow], path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.csv_fields())


def write_summary(summary: dict, path: str):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(cfg: dict, name: str, kind, cond=None, what: str = ""):
    if name not in cfg:
        raise ConfigError(name, "missing")
    val = cfg[name]
    try:
        val = kind(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(name, f"expected {kind.__name__}") from None
    if cond is not None and not cond(val):
        raise ConfigError(name, what or "out of range")
    return val


def _spec_from(cfg: dict, default_d: int | None = None) -> distributions.DistributionSpec:
    raw = cfg.get("spec")
    if raw is None:
        raise ConfigError("spec", "missing distribution spec")
    if "d" not in raw and default_d is not None:
        raw = dict(raw, d=default_d)
    try:
        return distributions.DistributionSpec.from_json(raw)
    except (TypeError, ValueError, ProjcondError) as exc:
        raise ConfigError("spec", str(exc)) from None


def _dims(cfg: dict) -> tuple[int, int, int]:
    d = _require(cfg, "d", int, lambda v: v >= 2, "need d >= 2")
    p = _require(cfg, "p", int, lambda v: 1 <= v < d, "need 1 <= p < d")
    k = _require(cfg, "k", int, lambda v: 1 <= v <= d - p, "need 1 <= k <= d - p")
    return d, p, k


# ---------------------------------------------------------------------------
# experiment implementations


def run_clone_density_check(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    """Importance-sampling normalization: E exp(log ratio) = 1 over Gaussians."""
    d, p, k = _dims(cfg)
    n = int(cfg.get("n", 100_000))
    x_norms = cfg.get("x_norms", [0.0, 0.5])
    rows = []
    for xn in x_norms:
        total = total_sq = 0.0
        done = 0
        while done < n:
            nb = min(20000, n - done)
            v = rng.standard_normal((nb, k, d))
            r = np.exp(clones.log_density_ratio_batch(float(xn) ** 2, v, p))
            total += float(np.sum(r))
            total_sq += float(np.sum(r * r))
            done += nb
        mean = total / n
        se = math.sqrt(max(total_sq / n - mean**2, 0.0) / n)
        rows.append(ReportRow(
            "clone-density-check", f"d={d};p={p};k={k};|x|={xn};n={n}", mean, se, 1.0
        ))
    return rows


def run_bartlett_check(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    d, p, k = _dims(cfg)
    n = int(cfg.get("n", 100_000))
    level = float(cfg.get("level", 0.01))
    x = np.zeros(p)
    x[0] = 1.0
    rep = linalg.bartlett_distribution_check(d, p, k, n, rng, x=x)
    rows = [
        bool_row("bartlett-check",
                 f"d={d};p={p};k={k};n={n};min_pvalue={rep.min_pvalue:.5f};level={level}",
                 rep.min_pvalue > level),
        exact_row("bartlett-check", f"d={d};p={p};k={k};max_abs_corr",
                  rep.max_abs_correlation, 0.0, float(cfg.get("corr_tol", 0.02))),
    ]
    # determinant identity on random frames
    n_frames = int(cfg.get("n_frames", 100))
    worst = 0.0
    for _ in range(n_frames):
        w = rng.standard_normal((k, d)) * math.sqrt(d / 4)
        xx = rng.standard_normal(p) * 0.3
        try:
            B = linalg.stiefel_from_constraints(w, xx)
        except (ConstraintViolatedError, RankDeficientError):
            continue
        fr = linalg.frame_decompose(B, xx, w)
        gram = w @ w.T
        target = 1.0 - float(xx @ xx * np.ones(k) @ np.linalg.solve(gram, np.ones(k)))
        worst = max(worst, abs(fr.det_lambda - target))
    rows.append(exact_row("bartlett-check", f"d={d};p={p};k={k};lambda_det;frames={n_frames}",
                          worst, 0.0, 1e-8))
    return rows


def run_expansion_order(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    d = int(cfg.get("d", 10_000))
    p = int(cfg.get("p", 1))
    ks = [int(v) for v in cfg.get("ks", [1, 2, 4])]
    x_norm = float(cfg.get("x_norm", 0.5))
    eps_grid = [float(v) for v in cfg.get("eps_grid", [0.02, 0.01, 0.005, 0.0025])]
    slope_tol = float(cfg.get("slope_tol", 0.3))
    rows = []
    for k in ks:
        x = np.zeros(p)
        x[0] = x_norm
        rem0, _ = remainder_diagnostic(x, np.eye(k), d, p)
        rows.append(exact_row("expansion-order", f"d={d};p={p};k={k};at-identity",
                              abs(rem0), 0.0, 1e-10))
        # fixed direction A = J/k (all-ones, unit spectral norm): a random
        # direction can be nearly orthogonal to the leading remainder term,
        # and the fitted slope then misses k + 1 on correct code
        a = np.ones((k, k)) / k
        rems = []
        for eps in eps_grid:
            rem, _ = remainder_diagnostic(x, np.eye(k) + eps * a, d, p)
            rems.append(abs(rem))
        slope = float(np.polyfit(np.log(eps_grid), np.log(rems), 1)[0])
        rows.append(ReportRow("expansion-order", f"d={d};p={p};k={k};slope",
                              slope, slope_tol / 4.0, float(k + 1)))
    return rows


def run_moment_conditions(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    """Quadratic-monomial identity d E[(S-I)_12^2] = 1 plus an alpha estimate."""
    spec_raw = cfg.get("spec", {"family": "iid-marginal", "marginal": "uniform"})
    d_list = [int(v) for v in cfg.get("d_list", [100, 400])]
    n_blocks = int(cfg.get("n_blocks", 20_000))
    k = int(cfg.get("k", 2))
    rows = []
    mono = moments.MonomialSpec(pairs=((1, 2), (1, 2)))
    for d in d_list:
        spec = distributions.DistributionSpec.from_json(dict(spec_raw, d=d))
        est, se, target = moments.estimate_monomial_mean(spec, d, mono, n_blocks, rng)
        rows.append(ReportRow("moment-conditions",
                              f"{spec.label};d={d};G=(1,2)^2;n={n_blocks}", est, se, target))
        alpha, alpha_se = moments.estimate_b1a(spec, d, k, 0.5, max(n_blocks // 4, 1000), rng)
        rows.append(info_row("moment-conditions",
                             f"{spec.label};d={d};k={k};alpha_hat={alpha:.4f};se={alpha_se:.4f}",
                             alpha))
        cons = moments.estimated_constants(spec, d, k, max(n_blocks // 4, 1000), rng)
        record = json.dumps(cons.to_json(), sort_keys=True, separators=(",", ":"))
        rows.append(info_row("moment-conditions",
                             f"{spec.label};d={d};constants={record}", cons.alpha))
    return rows


def run_prop5_cases(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    d = int(cfg.get("d", 100))
    n = int(cfg.get("n", 100_000))
    spec = _spec_from(cfg, default_d=d)
    res = moments.prop5_special_cases(spec, d, n, rng)
    rows = []
    for name, (est, se), target in zip(
        ("var_norm", "cube", "var_sq"), (res.case_a, res.case_b, res.case_c), res.analytic
    ):
        rows.append(ReportRow("prop5-cases", f"{spec.label};d={d};case={name};n={n}",
                              est, se, target))
    return rows


def run_conditional_linearity(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    """Deviation probabilities across a d-grid must not increase (mean and
    variance displays), tested pairwise with exceedance rows."""
    spec_raw = cfg.get("spec", {"family": "iid-marginal", "marginal": "uniform"})
    d_list = [int(v) for v in cfg.get("d_list", [32, 128, 512])]
    p = int(cfg.get("p", 1))
    t = float(cfg.get("t", 0.5))
    n_frames = int(cfg.get("n_frames", 20))
    n_outer = int(cfg.get("n_outer", 100))
    pools = cfg.get("n_inner", {})
    bandwidths = cfg.get("bandwidths", {})
    stats = {}
    rows = []
    for d in d_list:
        spec = distributions.DistributionSpec.from_json(dict(spec_raw, d=d))
        n_inner = int(pools.get(str(d), max(60_000, 300 * d)))
        bw = bandwidths.get(str(d))
        per_mean, per_var = [], []
        for rep in range(n_frames):
            B = linalg.haar_stiefel(d, p, rng)
            res = conditional.deviation_probability(
                spec, B, t=t, n_outer=n_outer, n_inner=n_inner, rng=rng,
                bandwidth=bw,
            )
            per_mean.append(res.mean_prob)
            per_var.append(res.var_prob)
        stats[d] = {
            "mean": (float(np.mean(per_mean)), float(np.std(per_mean) / math.sqrt(n_frames))),
            "var": (float(np.mean(per_var)), float(np.std(per_var) / math.sqrt(n_frames))),
        }
        rows.append(info_row("conditional-linearity",
                             f"{spec.label};d={d};t={t};display=mean;prob={stats[d]['mean'][0]:.4f}",
                             stats[d]["mean"][0]))
        rows.append(info_row("conditional-linearity",
                             f"{spec.label};d={d};t={t};display=variance;prob={stats[d]['var'][0]:.4f}",
                             stats[d]["var"][0]))
    for display in ("mean", "var"):
        for d_lo, d_hi in zip(d_list, d_list[1:]):
            (m_lo, s_lo), (m_hi, s_hi) = stats[d_lo][display], stats[d_hi][display]
            joint = math.sqrt(s_lo**2 + s_hi**2)
            exceed = max(m_hi - m_lo, 0.0)
            rows.append(ReportRow(
                "conditional-linearity",
                f"display={display};trend_d={d_lo}->{d_hi}", exceed, joint, 0.0,
            ))
    return rows


def run_g_membership(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    d = int(cfg.get("d", 256))
    p = int(cfg.get("p", 1))
    spec = _spec_from(cfg, default_d=d)
    n_frames = int(cfg.get("n_frames", 10))
    tau = float(cfg.get("tau", 0.5))
    n_x = int(cfg.get("n_x", 100))
    n_inner = int(cfg.get("n_inner", 50_000))
    g = float(cfg.get("g", 1.0))
    D = float(cfg.get("D", 1.0))
    tau1 = cfg.get("tau1")
    gamma = bounds.gamma_constant(g, D, bounds.PART_A)
    members = 0
    rows = []
    m_d = None
    for i in range(n_frames):
        B = linalg.haar_stiefel(d, p, rng)
        rep = conditional.g_membership(
            spec, B, tau=tau, gamma=gamma, n_x=n_x, n_inner=n_inner, rng=rng,
            tau1=None if tau1 is None else float(tau1),
        )
        members += rep.member
        m_d = rep.M_d
        rows.append(info_row(
            "g-membership",
            f"{spec.label};d={d};B={i};integral={rep.integral_hat:.5g};"
            f"se={rep.integral_se:.3g};delta_d={rep.delta_d:.4g};member={int(rep.member)}",
            float(rep.member),
        ))
    frac = members / n_frames
    cons = moments.MomentConditionConstants(D=D)
    nu_bound = bounds.theorem_bound(bounds.TheoremBoundInputs(
        d=d, p=p, t=1.0, tau=tau, constants=cons, g=g, part=bounds.PART_A
    )).nu_gc_bound
    rows.append(info_row(
        "g-membership",
        f"{spec.label};d={d};p={p};M_d={m_d:.4f};member_frac={frac:.3f};nu_gc_bound={nu_bound:.4g}",
        frac,
    ))
    if m_d <= 1.0:
        rows.append(bool_row("g-membership", f"d={d};M_d<=1;all-member", frac == 1.0))
    return rows


def run_theorem_bound(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    part = str(cfg.get("part", "A"))
    d = _require(cfg, "d", float, lambda v: v >= 2, "need d >= 2")
    p = _require(cfg, "p", int, lambda v: 1 <= v < cfg["d"], "need 1 <= p < d")
    t = float(cfg.get("t", 1.0))
    tau = _require(cfg, "tau", float, lambda v: 0 < v < 1, "need tau in (0,1)")
    cons = moments.MomentConditionConstants.from_json(cfg.get("constants", {}))
    inputs = bounds.TheoremBoundInputs(
        d=d, p=p, t=t, tau=tau, constants=cons,
        kappa=float(cfg.get("kappa", 1.0)), g=float(cfg.get("g", 1.0)), part=part,
    )
    res = bounds.theorem_bound(inputs)
    tag = "vacuous" if res.deviation_vacuous else "informative"
    return [
        info_row("theorem-bound",
                 f"part={part};d={d};p={p};t={t};tau={tau};xi_eff={res.xi_eff:.4f};"
                 f"gamma={res.gamma:.4f};{tag}", res.deviation_bound),
        info_row("theorem-bound",
                 f"part={part};d={d};p={p};nu_gc;{'vacuous' if res.nu_gc_vacuous else 'informative'}",
                 res.nu_gc_bound),
    ]


def run_asymptotic_scan(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    grid = [float(v) for v in cfg.get("log_d_grid", [1e3, 1e4, 1e5, 1e6])]
    p = int(cfg.get("p", 2))
    tau = float(cfg.get("tau", 0.5))
    part = str(cfg.get("part", "A"))
    cons = moments.MomentConditionConstants.from_json(cfg.get("constants", {}))
    try:
        rows_scan = bounds.asymptotic_scan(cons, lambda ld: p, grid, tau=tau, part=part)
        ok = True
    except ProjcondError:
        rows_scan = []
        ok = False
    out = [bool_row("asymptotic-scan", f"p={p};part={part};monotone-decreasing", ok)]
    for r in rows_scan:
        out.append(info_row(
            "asymptotic-scan",
            f"log_d={r.log_d:.4g};p={r.p};dev={r.deviation_bound:.4g};nu={r.nu_gc_bound:.4g}",
            r.log_deviation_bound,
        ))
    if rows_scan:
        final = rows_scan[-1]
        out.append(bool_row(
            "asymptotic-scan",
            f"final_log_d={final.log_d:.4g};below-1e-3",
            final.deviation_bound < 1e-3 and final.nu_gc_bound < 1e-3,
        ))
    return out


def run_normalzero_check(cfg: dict, rng: np.random.Generator) -> list[ReportRow]:
    d = int(cfg.get("d", 60))
    p = int(cfg.get("p", 1))
    k = int(cfg.get("k", 4))
    n = int(cfg.get("n", 100_000))
    x_norm = float(cfg.get("x_norm", 0.5))
    x = np.zeros(p)
    x[0] = x_norm
    chain_cfgs = cfg.get("chains")
    if chain_cfgs is None:
        chain_cfgs = [[0], [0, 2], [0, 3], [0, 4], [0, 2, 4], "alternating"]
    rows = []
    for chain in chain_cfgs:
        spec = tuple(chain) if isinstance(chain, (list, tuple)) else str(chain)
        est, se = clones.gaussian_chain_identity(x, d, p, k, spec, n, rng)
        label = "alt" if isinstance(spec, str) else "-".join(map(str, spec))
        rows.append(ReportRow("normalzero-check",
                              f"d={d};p={p};k={k};|x|={x_norm};chain={label};n={n}",
                              est, se if se > 0 else 1e-12, 0.0))
    return rows


EXPERIMENTS = {
    "clone-density-check": run_clone_density_check,
    "bartlett-check": run_bartlett_check,
    "expansion-order": run_expansion_order,
    "moment-conditions": run_moment_conditions,
    "prop5-cases": run_prop5_cases,
    "conditional-linearity": run_conditional_linearity,
    "g-membership": run_g_membership,
    "theorem-bound": run_theorem_bound,
    "asymptotic-scan": run_asymptotic_scan,
    "normalzero-check": run_normalzero_check,
}


def validate_config(cfg: dict):
    kind = cfg.get("experiment")
    if kind not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown kind {kind!r}; choose from {sorted(EXPERIMENTS)}")
    if "d" in cfg:
        d = _require(cfg, "d", int)
        p = 1
        if "p" in cfg:
            p = _require(cfg, "p", int, lambda v: 1 <= v < d, f"need 1 <= p < d = {d}")
        if "k" in cfg:
            _require(cfg, "k", int, lambda v: 1 <= v <= d - p, f"need 1 <= k <= d - p = {d - p}")
    if "n" in cfg:
        _require(cfg, "n", int, lambda v: v >= 1, "need n >= 1")
    if cfg.get("spec") is not None:
        raw = cfg["spec"]
        if not isinstance(raw, dict):
            raise ConfigError("spec", f"expected a JSON object, got {raw!r}")
        if raw.get("family") not in distributions.FAMILIES:
            raise ConfigError("spec.family", f"unknown family {raw.get('family')!r}")


def run_experiment(cfg: dict, seed: int, index: int = 0) -> tuple[list[ReportRow], float]:
    validate_config(cfg)
    kind = cfg["experiment"]
    rng = substream(seed, kind, index)
    t0 = time.perf_counter()
    rows = EXPERIMENTS[kind](cfg, rng)
    return rows, (time.perf_counter() - t0) * 1000.0
