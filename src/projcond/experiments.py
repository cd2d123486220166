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
import inspect
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from . import bounds, clones, conditional, distributions, linalg, moments
from .errors import (
    ConfigError,
    ConstraintViolatedError,
    InvalidChainError,
    ProjcondError,
    RankDeficientError,
)
from .expansion import MAX_K, d_threshold, default_xi, remainder_diagnostic
from .moments import MomentConditionConstants
from .streams import CLONE_BATCH, batch_mean_se, draw_ahead, substream

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


# ---------------------------------------------------------------------------
# the config schema: a runner's keyword parameters are the fields of its
# kind, and each annotation is the cast that reads a field's JSON value


def _json_list(v) -> list:
    if not isinstance(v, list):
        raise TypeError(f"expected a JSON list, got {type(v).__name__}")
    if not v:
        raise ValueError("expected a non-empty list")
    return v


def _integer(v) -> int:
    """int(v), refusing a boolean or a number with a fractional part, which
    int() would read as 1, 0 or a truncated value."""
    if isinstance(v, bool):
        raise TypeError("expected an integer, got a boolean")
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"expected an integer, got {v}")
    return int(v)


def _real(v) -> float:
    """float(v), refusing a boolean, which float() would read as 1.0 or 0.0,
    and a NaN or an infinity, which float() also reads from a string."""
    if isinstance(v, bool):
        raise TypeError("expected a number, got a boolean")
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return x


def int_list(v) -> tuple[int, ...]:
    return tuple(_integer(x) for x in _json_list(v))


def float_list(v) -> tuple[float, ...]:
    return tuple(_real(x) for x in _json_list(v))


def int_by_d(v) -> dict[int, int]:
    """An object keyed by dimension, such as {"512": 120000}."""
    return {_integer(key): _integer(x) for key, x in v.items()}


def float_by_d(v) -> dict[int, float]:
    return {_integer(key): _real(x) for key, x in v.items()}


def optional_float(v) -> float | None:
    return None if v is None else _real(v)


def spec_object(v) -> dict:
    """A distribution-spec object of the keys family and marginal, checked
    with a stand-in d; the runner fills in the experiment's d."""
    if not isinstance(v, dict):
        raise TypeError(f"expected a JSON object, got {type(v).__name__}")
    unknown = sorted(set(v) - {"family", "marginal"})
    if unknown:
        raise ValueError(f"unknown keys {unknown}; a spec holds family and marginal, "
                         "and d is given beside it")
    distributions.DistributionSpec.from_json({"d": 1, **v})
    return v


def constants_object(v) -> MomentConditionConstants:
    """The moment-condition constants of a JSON object; an omitted key keeps
    its default.  Raises ValueError naming an unknown key, and TypeError or
    ValueError naming a key whose value is not a number (a boolean
    included)."""
    known = sorted(f.name for f in fields(MomentConditionConstants))
    values = {}
    for key, value in v.items():
        if key not in known:
            raise ValueError(f"unknown key '{key}'; expected one of {known}")
        try:
            values[key] = _real(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise type(exc)(f"key '{key}': {exc}") from None
    return MomentConditionConstants(**values)


def chain_list(v) -> tuple:
    """Chains, each a list of indices or the keyword "alternating"."""
    return tuple(c if isinstance(c, str) else int_list(c) for c in _json_list(v))


CAST_ERRORS = (TypeError, ValueError, OverflowError, KeyError, AttributeError, ProjcondError)


def _chains_hold(args: dict) -> bool:
    """Every chain passes the rule gaussian_chain_identity applies."""
    try:
        for chain in args["chains"]:
            clones.validate_chain(chain, args["k"])
    except InvalidChainError:
        return False
    return True


def _least_d(args: dict) -> float:
    """d, or the least d of d_list; unbounded in a kind that has neither."""
    return args["d"] if "d" in args else min(args.get("d_list", (math.inf,)))


# field -> (condition on the bound arguments, message), checked after the
# defaults are bound; the least d bounds p and k in the kinds that have a d
# or a d_list
RANGES = {
    # before the expansion-order rules of d and eps_grid, which read ks; d's
    # tests d > p^2 in integers first, so no p beyond a float reaches d_threshold
    "ks": (lambda a: all(1 <= k <= MAX_K for k in a["ks"]), f"need every k in 1..{MAX_K}"),
    "d": (lambda a: a["d"] >= 2 and all(
              a["p"] ** 2 < a["d"] and a["d"] > d_threshold(a["x_norm"] * a["x_norm"], k, a["p"])
              for k in a.get("ks", ())),
          "need d >= 2, and in expansion-order d > max(4(k+p+1)max(1, x_norm^2)^2, p^2) "
          "for every k of ks"),
    # each d of d_list keys its own statistics, and a trend row compares one
    # d with the next larger one
    "d_list": (lambda a: all(x < y for x, y in zip(a["d_list"], a["d_list"][1:])),
               "need strictly increasing values"),
    "p": (lambda a: 1 <= a["p"] < _least_d(a), "need 1 <= p < d for every d"),
    "k": (lambda a: 1 <= a["k"] <= _least_d(a) - a.get("p", 0), "need 1 <= k <= d - p for every d"),
    "n": (lambda a: a["n"] >= 1, "need n >= 1"),
    "n_frames": (lambda a: a["n_frames"] >= 1, "need n_frames >= 1"),
    "n_blocks": (lambda a: a["n_blocks"] >= 1, "need n_blocks >= 1"),
    "tau": (lambda a: 0 < a["tau"] < 1, "need 0 < tau < 1"),
    "eps_grid": (lambda a: len(set(a["eps_grid"])) >= 2 and all(e > 0 for e in a["eps_grid"])
                 and all(max(a["eps_grid"]) * a["p"] * default_xi(k) < 1 for k in a.get("ks", ())),
                 "need at least 2 distinct values, all > 0 and below 1/(p(2k + 1)) for every k of ks"),
    # conditional-linearity keys its pool sizes by d; g-membership's n_inner
    # is one pool size
    "n_inner": (lambda a: (set(a["n_inner"]) <= set(a["d_list"])
                           and all(n >= 1000 for n in a["n_inner"].values()))
                if isinstance(a["n_inner"], dict) else a["n_inner"] >= 1000,
                "need every pool size >= 10^3, and each key, when keyed by d, a d of d_list"),
    "bandwidths": (lambda a: set(a["bandwidths"]) <= set(a["d_list"])
                   and all(h > 0 for h in a["bandwidths"].values()),
                   "need every key to be a d of d_list and every bandwidth > 0"),
    "tau1": (lambda a: a["tau1"] is None or a["tau1"] > 0, "need tau1 > 0"),
    "n_x": (lambda a: a["n_x"] >= 100, "need n_x >= 100"),
    "n_outer": (lambda a: a["n_outer"] >= 100, "need n_outer >= 100"),
    "D": (lambda a: a["D"] >= 1, "need D >= 1"),
    "part": (lambda a: a["part"] in (bounds.PART_A, bounds.PART_B), "need part 'A' or 'B'"),
    # after p's rule, so that log p is defined
    "log_d_grid": (lambda a: len(a["log_d_grid"]) >= 2
                   and all(x < y for x, y in zip(a["log_d_grid"], a["log_d_grid"][1:]))
                   and a["log_d_grid"][0] > math.log(a["p"]),
                   "need at least 2 strictly increasing values, the first > log p"),
    "chains": (_chains_hold, 'need each chain to be "alternating" with k even, or indices '
               "j_0 = 0, j_1, ..., j_m <= k with j_(i-1) + 1 < j_i"),
}


def read_field(name: str, cast, value):
    """cast(value), with any failure reported as a ConfigError naming the
    field; the casts int and float are read as _integer and _real."""
    try:
        return {int: _integer, float: _real}.get(cast, cast)(value)
    except CAST_ERRORS as exc:
        raise ConfigError(name, f"bad value ({type(exc).__name__}: {exc})") from None


def parse_config(fn, cfg: dict) -> dict:
    """The keyword arguments of runner ``fn`` read from a config object.

    Every parameter after ``rng`` is a field: one without a default is
    required, and its annotation is the cast applied to the JSON value.
    Raises ConfigError naming a field that is unknown, missing, fails its
    cast or lies outside RANGES.
    """
    params = list(inspect.signature(fn).parameters.values())[1:]
    casts = get_type_hints(fn)
    known = {prm.name for prm in params}
    for name in cfg:
        if name not in known:
            raise ConfigError(name, "allowed at the top level of a config only"
                              if name in ("experiment", "seed", "out")
                              else f"unknown field; expected one of {sorted(known)}")
    args = {}
    for prm in params:
        if prm.name in cfg:
            args[prm.name] = read_field(prm.name, casts[prm.name], cfg[prm.name])
        elif prm.default is inspect.Parameter.empty:
            raise ConfigError(prm.name, "missing")
        else:
            args[prm.name] = prm.default
    for name, (ok, what) in RANGES.items():
        if name in args and not ok(args):
            raise ConfigError(name, what)
    return args


# ---------------------------------------------------------------------------
# experiment implementations

UNIFORM = {"family": "iid-marginal", "marginal": "uniform"}

# gate tolerances, fixed so that no config can loosen the check it runs
BARTLETT_LEVEL = 0.01     # the least KS p-value of the entries must exceed it
BARTLETT_CORR_TOL = 0.02  # largest allowed |correlation| between the entries
SLOPE_TOL = 0.3           # largest allowed |remainder slope - (k + 1)|


def run_clone_density_check(
    rng: np.random.Generator, d: int, p: int, k: int, n: int = 100_000,
    x_norms: float_list = (0.0, 0.5),
) -> list[ReportRow]:
    """Importance-sampling normalization: E exp(log ratio) = 1 over Gaussians."""
    rows = []
    for xn in x_norms:
        mean, se = batch_mean_se(n, CLONE_BATCH, lambda nb: np.concatenate([
            np.exp(clones.log_density_ratio_batch(xn**2, v, p)) for v in draw_ahead(
                lambda m: rng.standard_normal((m, k, d)), nb)]))
        rows.append(ReportRow(
            "clone-density-check", f"d={d};p={p};k={k};|x|={xn};n={n}", mean, se, 1.0
        ))
    return rows


def run_bartlett_check(
    rng: np.random.Generator, d: int, p: int, k: int, n: int = 100_000,
    n_frames: int = 100,
) -> list[ReportRow]:
    rep = linalg.bartlett_distribution_check(d, p, k, n, rng)
    rows = [
        bool_row("bartlett-check", f"d={d};p={p};k={k};n={n};min_pvalue={rep.min_pvalue:.5f}"
                 f";level={BARTLETT_LEVEL}", rep.min_pvalue > BARTLETT_LEVEL),
        exact_row("bartlett-check", f"d={d};p={p};k={k};max_abs_corr",
                  rep.max_abs_correlation, 0.0, BARTLETT_CORR_TOL),
    ]
    # determinant identity on random frames; infeasible or rank-deficient
    # frames are skipped, and a check that kept no frame fails
    worst = 0.0
    kept = 0
    for _ in range(n_frames):
        w = rng.standard_normal((k, d)) * math.sqrt(d / 4)
        xx = rng.standard_normal(p) * 0.3
        try:
            B = linalg.stiefel_from_constraints(w, xx)
        except (ConstraintViolatedError, RankDeficientError):
            continue
        kept += 1
        lam = linalg.frame_lambda(B, xx, w)
        gram = w @ w.T
        target = 1.0 - float(xx @ xx * np.ones(k) @ np.linalg.solve(gram, np.ones(k)))
        worst = max(worst, abs(float(np.prod(np.diagonal(lam)) ** 2) - target))
    skipped = f";skipped={n_frames - kept}" if kept < n_frames else ""
    rows.append(exact_row("bartlett-check", f"d={d};p={p};k={k};lambda_det;frames={n_frames}{skipped}",
                          worst if kept else math.inf, 0.0, 1e-8))
    return rows


def run_expansion_order(
    rng: np.random.Generator, d: int = 10_000, p: int = 1, ks: int_list = (1, 2, 4),
    x_norm: float = 0.5, eps_grid: float_list = (0.02, 0.01, 0.005, 0.0025),
) -> list[ReportRow]:
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
                              slope, SLOPE_TOL / 4.0, float(k + 1)))
    return rows


def run_moment_conditions(
    rng: np.random.Generator, spec: spec_object = UNIFORM, d_list: int_list = (100, 400),
    n_blocks: int = 20_000, k: int = 2,
) -> list[ReportRow]:
    """Quadratic-monomial identity d E[(S-I)_12^2] = 1 plus an alpha estimate."""
    rows = []
    mono = moments.MonomialSpec(pairs=((1, 2), (1, 2)))
    for d in d_list:
        law = distributions.DistributionSpec.from_json(dict(spec, d=d))
        est, se, target = moments.estimate_monomial_mean(law, mono, n_blocks, rng)
        rows.append(ReportRow("moment-conditions",
                              f"{law.label};d={d};G=(1,2)^2;n={n_blocks}", est, se, target))
        alpha, alpha_se = moments.estimate_b1a(law, k, max(n_blocks // 4, 1000), rng)
        rows.append(info_row("moment-conditions",
                             f"{law.label};d={d};k={k};alpha_hat={alpha:.4f};se={alpha_se:.4f}",
                             alpha))
        # the record perfbench's moment check reads: alpha floored at 1 beside
        # the bound constants at this law; no bound reads alpha
        record = json.dumps({"D": max(1.0, distributions.moment_oracle(law).density_sup),
                             "alpha": max(1.0, alpha), "epsilon": moments.DEFAULT_EPSILON,
                             "xi": moments.DEFAULT_XI},
                            sort_keys=True, separators=(",", ":"))
        rows.append(info_row("moment-conditions",
                             f"{law.label};d={d};constants={record}", max(1.0, alpha)))
    return rows


def run_prop5_cases(
    rng: np.random.Generator, spec: spec_object, d: int = 100, n: int = 100_000,
) -> list[ReportRow]:
    law = distributions.DistributionSpec.from_json(dict(spec, d=d))
    res = moments.prop5_special_cases(law, n, rng)
    rows = []
    for name, (est, se), target in zip(
        ("var_norm", "cube", "var_sq"), (res.case_a, res.case_b, res.case_c), res.analytic
    ):
        rows.append(ReportRow("prop5-cases", f"{law.label};d={d};case={name};n={n}",
                              est, se, target))
    return rows


def run_conditional_linearity(
    rng: np.random.Generator, spec: spec_object = UNIFORM, d_list: int_list = (32, 128, 512),
    p: int = 1, t: float = 0.5, n_frames: int = 20, n_outer: int = 100,
    n_inner: int_by_d = {}, bandwidths: float_by_d = {},
) -> list[ReportRow]:
    """Deviation probabilities across a d-grid must not increase (mean and
    variance displays), tested pairwise with exceedance rows.  n_inner and
    bandwidths are keyed by d; the pool defaults to max(60000, 300 d)."""
    stats = {}
    rows = []
    for d in d_list:
        law = distributions.DistributionSpec.from_json(dict(spec, d=d))
        per_mean, per_var = [], []
        for rep in range(n_frames):
            B = linalg.haar_stiefel(d, p, rng)
            res = conditional.deviation_probability(
                law, B, t=t, n_outer=n_outer, n_inner=n_inner.get(d, max(60_000, 300 * d)),
                rng=rng, bandwidth=bandwidths.get(d),
            )
            per_mean.append(res.mean_prob)
            per_var.append(res.var_prob)
        stats[d] = {
            "mean": (float(np.mean(per_mean)), float(np.std(per_mean) / math.sqrt(n_frames))),
            "var": (float(np.mean(per_var)), float(np.std(per_var) / math.sqrt(n_frames))),
        }
        rows.append(info_row("conditional-linearity",
                             f"{law.label};d={d};t={t};display=mean;prob={stats[d]['mean'][0]:.4f}",
                             stats[d]["mean"][0]))
        rows.append(info_row("conditional-linearity",
                             f"{law.label};d={d};t={t};display=variance;prob={stats[d]['var'][0]:.4f}",
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


def run_g_membership(
    rng: np.random.Generator, spec: spec_object, d: int = 256, p: int = 1, n_frames: int = 10,
    tau: float = 0.5, n_x: int = 100, n_inner: int = 50_000, g: float = 1.0,
    D: float = 1.0, tau1: optional_float = None,
) -> list[ReportRow]:
    law = distributions.DistributionSpec.from_json(dict(spec, d=d))
    gamma = bounds.gamma_constant(g, D, bounds.PART_A)
    members = 0
    rows = []
    m_d = None
    for i in range(n_frames):
        B = linalg.haar_stiefel(d, p, rng)
        rep = conditional.g_membership(
            law, B, tau=tau, gamma=gamma, n_x=n_x, n_inner=n_inner, rng=rng, tau1=tau1,
        )
        members += rep.member
        m_d = rep.M_d
        rows.append(info_row(
            "g-membership",
            f"{law.label};d={d};B={i};integral={rep.integral_hat:.5g};"
            f"se={rep.integral_se:.3g};delta_d={rep.delta_d:.4g};member={int(rep.member)}",
            float(rep.member),
        ))
    frac = members / n_frames
    cons = MomentConditionConstants(D=D)
    nu_bound = bounds.theorem_bound(bounds.TheoremBoundInputs(
        d=d, p=p, t=1.0, tau=tau, constants=cons, g=g, part=bounds.PART_A
    )).nu_gc_bound
    rows.append(info_row(
        "g-membership",
        f"{law.label};d={d};p={p};M_d={m_d:.4f};member_frac={frac:.3f};nu_gc_bound={nu_bound:.4g}",
        frac,
    ))
    if m_d <= 1.0:
        rows.append(bool_row("g-membership", f"d={d};M_d<=1;all-member", frac == 1.0))
    return rows


def run_theorem_bound(
    rng: np.random.Generator, d: float, p: int, tau: float, part: str = "A", t: float = 1.0,
    constants: constants_object = MomentConditionConstants(),
    kappa: float = 1.0, g: float = 1.0,
) -> list[ReportRow]:
    res = bounds.theorem_bound(bounds.TheoremBoundInputs(
        d=d, p=p, t=t, tau=tau, constants=constants, kappa=kappa, g=g, part=part,
    ))
    tag = "vacuous" if res.deviation_vacuous else "informative"
    return [
        info_row("theorem-bound",
                 f"part={part};d={d};p={p};t={t};tau={tau};xi_eff={res.xi_eff:.4f};"
                 f"gamma={res.gamma:.4f};{tag}", res.deviation_bound),
        info_row("theorem-bound",
                 f"part={part};d={d};p={p};nu_gc;{'vacuous' if res.nu_gc_vacuous else 'informative'}",
                 res.nu_gc_bound),
    ]


def run_asymptotic_scan(
    rng: np.random.Generator, log_d_grid: float_list = (1e3, 1e4, 1e5, 1e6), p: int = 2,
    tau: float = 0.5, part: str = "A",
    constants: constants_object = MomentConditionConstants(),
) -> list[ReportRow]:
    scan = bounds.asymptotic_scan(constants, p, log_d_grid, tau=tau, part=part)
    out = [bool_row("asymptotic-scan", f"p={p};part={part};monotone-decreasing",
                    bounds.bounds_decrease(scan))]
    for ld, r in zip(log_d_grid, scan):
        out.append(info_row(
            "asymptotic-scan",
            f"log_d={ld:.4g};p={p};dev={r.deviation_bound:.4g};nu={r.nu_gc_bound:.4g}",
            r.log_deviation_bound,
        ))
    final = scan[-1]
    out.append(bool_row(
        "asymptotic-scan",
        f"final_log_d={log_d_grid[-1]:.4g};below-1e-3",
        final.deviation_bound < 1e-3 and final.nu_gc_bound < 1e-3,
    ))
    return out


def run_normalzero_check(
    rng: np.random.Generator, d: int = 60, p: int = 1, k: int = 4, n: int = 100_000,
    x_norm: float = 0.5,
    chains: chain_list = ((0,), (0, 2), (0, 3), (0, 4), (0, 2, 4), "alternating"),
) -> list[ReportRow]:
    x = np.zeros(p)
    x[0] = x_norm
    rows = []
    for chain in chains:
        est, se = clones.gaussian_chain_identity(x, d, k, chain, n, rng)
        label = "alt" if isinstance(chain, str) else "-".join(map(str, chain))
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


def run_experiment(cfg: dict, seed: int, index: int = 0) -> tuple[list[ReportRow], float]:
    """Run one experiment object: its "experiment" kind and that kind's fields."""
    kind = cfg.get("experiment")
    if not isinstance(kind, str) or kind not in EXPERIMENTS:
        raise ConfigError("experiment", f"unknown kind {kind!r}; choose from {sorted(EXPERIMENTS)}")
    fn = EXPERIMENTS[kind]
    args = parse_config(fn, {name: v for name, v in cfg.items() if name != "experiment"})
    rng = substream(seed, kind, index)
    t0 = time.perf_counter()
    rows = fn(rng, **args)
    return rows, (time.perf_counter() - t0) * 1000.0
