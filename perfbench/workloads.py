"""The benchmark's workloads: rounds of projcond operations and their checks.

A round is a fixed list of operations.  Each operation calls the program,
through `projcond run` (the CLI entry point, in-process) or through a
module's public function, and checks what comes back against oracles.py.
The inputs of a round come from (seed, round index) alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats

from projcond import cli, clones, conditional, distributions, expansion, linalg

import oracles as O


@dataclass
class Op:
    """One operation; ``run`` returns (check label, passed) pairs."""

    name: str
    run: Callable[[], list[tuple[str, bool]]]
    known_fault: bool = False


def round_seed(seed: int, round_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# projcond run, in-process


@dataclass
class CliResult:
    code: int
    stderr: str
    rows: list[dict]
    summary: dict | None


def run_cli(config, out_dir: str, name: str) -> CliResult:
    path = os.path.join(out_dir, name + "-config.json")
    prefix = os.path.join(out_dir, name)
    for ext in (".csv", ".json"):
        if os.path.exists(prefix + ext):
            os.remove(prefix + ext)
    with open(path, "w") as fh:
        json.dump(config, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["run", path, "--out", prefix])
    rows, summary = [], None
    if os.path.exists(prefix + ".csv"):
        with open(prefix + ".csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    if os.path.exists(prefix + ".json"):
        with open(prefix + ".json") as fh:
            summary = json.load(fh)
    return CliResult(code, err.getvalue(), rows, summary)


def value(row: dict, key: str = "estimate") -> float:
    return float(row[key])


def report_checks(res: CliResult, n_rows: int) -> list[tuple[str, bool]]:
    """What projcond's README promises of every report, recomputed from its fields."""
    failures = sum(row["pass"] == "0" for row in res.rows)
    flags_ok = all(
        (abs(value(r) - value(r, "target")) <= 4.0 * value(r, "se")) == (r["pass"] == "1")
        for r in res.rows
    )
    return [
        ("report rows", len(res.rows) == n_rows),
        ("report header", bool(res.rows) and list(res.rows[0]) == [
            "experiment", "params", "estimate", "se", "target", "pass", "ms"]),
        ("pass flags recomputable", flags_ok),
        ("summary counts", res.summary is not None and res.summary["rows"] == n_rows
         and res.summary["failures"] == failures),
        ("exit code", res.code == (0 if failures == 0 else 1)),
    ]


# ---------------------------------------------------------------------------
# kernel workloads: Haar frames through projcond run, closed-form frames direct

UNIFORM = {"family": "iid-marginal", "marginal": "uniform"}


def _probability_rows_ok(rows: list[dict], d_list: list[int], n_outer: int):
    """Deviation frequencies lie on the 1/n_outer lattice in [0, 1], and each
    one-frame trend row is the exceedance of its two frequencies."""
    probs = {r["params"]: value(r) for r in rows[: 2 * len(d_list)]}
    lattice = all(0.0 <= p <= 1.0 and abs(p * n_outer - round(p * n_outer)) < 1e-9
                  for p in probs.values())
    trend_ok = True
    for display, tag in (("mean", "mean"), ("var", "variance")):
        for d_lo, d_hi in zip(d_list, d_list[1:]):
            lo = next(v for k, v in probs.items() if f";d={d_lo};" in k and f"display={tag};" in k)
            hi = next(v for k, v in probs.items() if f";d={d_hi};" in k and f"display={tag};" in k)
            params = f"display={display};trend_d={d_lo}->{d_hi}"
            row = next(r for r in rows if r["params"] == params)
            trend_ok &= abs(value(row) - max(hi - lo, 0.0)) <= 1e-12 and value(row, "se") == 0.0
    return [("probabilities on the 1/n_outer lattice", lattice),
            ("trend rows are exceedances", trend_ok)]


def haar_frames_op(cfg_seed: int, p: int, d_list: list[int], pools: dict, bandwidths: dict,
                   out_dir: str) -> Op:
    cfg = {
        "seed": cfg_seed, "experiment": "conditional-linearity", "spec": UNIFORM,
        "d_list": d_list, "p": p, "t": 0.5, "n_frames": 1, "n_outer": 100,
        "n_inner": {str(d): n for d, n in pools.items()},
        "bandwidths": {str(d): bw for d, bw in bandwidths.items()},
    }

    def run():
        res = run_cli(cfg, out_dir, f"haar-p{p}")
        checks = report_checks(res, 2 * len(d_list) + 2 * (len(d_list) - 1))
        if checks[0][1]:
            checks += _probability_rows_ok(res.rows, d_list, cfg["n_outer"])
        return checks

    return Op(f"haar-frames-p{p}", run)


# direction of a closed-form frame's first column in the (e1, e2) plane
FRAME_DIRECTIONS = {
    "coordinate": np.array([1.0, 0.0]),
    "diagonal": np.array([1.0, 1.0]) / math.sqrt(2.0),
    "tilted": np.array([1.0, 2.0]) / math.sqrt(5.0),
}


def closed_form_frame(d: int, p: int, a: np.ndarray) -> np.ndarray:
    """[a1 e1 + a2 e2, e3, .., e(p+1)]."""
    B = np.zeros((d, p))
    B[:2, 0] = a
    B[np.arange(2, p + 1), np.arange(1, p)] = 1.0
    return B


def closed_form_frame_op(d: int, p: int, n_pool: int, bandwidth, kind: str,
                         xs: list[np.ndarray], rng: np.random.Generator) -> Op:
    """Kernel estimates on a frame whose exact deviations are known.

    On a coordinate frame both exact deviations are zero for any iid law.
    On the diagonal frame under the uniform law E[Z | B'Z] = B B'Z, and the
    second moment deviates only along (e1 - e2)/sqrt2; on the tilted frame
    both deviate (oracles.uniform_frame_signals).  The kernel engine
    compares against smoothed targets, so the reference is the exact
    deviation averaged with the engine's own weights, and the estimate must
    lie within oracles' noise model of it on either side.
    """
    spec = distributions.iid_marginal("uniform", d)
    a = FRAME_DIRECTIONS[kind]
    B = closed_form_frame(d, p, a)

    def run():
        pool = conditional.build_pool(spec, B, n_pool, rng, bandwidth=bandwidth)
        checks = []
        for x in xs:
            dev, _ = conditional.kernel_mu_deviation(pool, x)
            norm = conditional.kernel_delta_norm(pool, x)
            idx, w = O.kernel_weights(pool, x)
            mean_signal, _ = O.uniform_frame_signals(a, pool.proj[idx], w)
            idx, w_cap = O.kernel_weights(pool, x, O.KERNEL_GRAM_CAP)
            _, gram_signal = O.uniform_frame_signals(a, pool.proj[idx], w_cap)
            mean_tol = O.mean_deviation_tolerance(O.effective_size(w), d, p)
            gram_tol = O.gram_noise_tolerance(O.effective_size(w_cap), d, x)
            checks.append((f"mean deviation at x={x.tolist()}",
                           abs(dev - mean_signal) <= mean_tol))
            checks.append((f"variance deviation at x={x.tolist()}",
                           abs(norm - gram_signal) <= gram_tol))
        return checks

    return Op(f"{kind}-frame-p{p}-d{d}", run)


class KernelWorkload:
    """projcond run's conditional-linearity on one Haar frame per d, plus
    closed-form frames at the same d, pool size and bandwidth."""

    def __init__(self, p: int, pools: dict, bandwidths: dict, xs: list, seed: int, out_dir: str):
        self.p, self.pools, self.bandwidths, self.xs = p, pools, bandwidths, xs
        self.seed, self.out_dir = seed, out_dir

    def ops(self, round_index: int) -> list[Op]:
        s = round_seed(self.seed, round_index)
        d_list = sorted(self.pools)
        ops = [haar_frames_op(s, self.p, d_list, self.pools, self.bandwidths, self.out_dir)]
        for i, d in enumerate(d_list):
            for j, kind in enumerate(FRAME_DIRECTIONS):
                rng = np.random.default_rng([s, i, j])
                ops.append(closed_form_frame_op(d, self.p, self.pools[d], self.bandwidths.get(d),
                                                kind, self.xs, rng))
        return ops


# ---------------------------------------------------------------------------
# exact identities

# criterion 1's clone densities, plus (30, 2, 4), where log eta = -0.50 is
# large enough that a 5% error in it moves E ratio by 12 standard errors
DENSITY_DIMS = [(30, 1, 1), (30, 1, 2), (50, 2, 2), (30, 2, 4)]
PROP5_SPECS = [{"family": "gaussian"}, UNIFORM,
               {"family": "iid-marginal", "marginal": "exponential"}]
# rows of the experiments list: density 8, bartlett 3, expansion 6, chains 6,
# prop5 9, moments 6, linearity 2, two theorem bounds 2 + 2, scan 6
EXACT_ROWS = 50


def _rows_of(rows: list[dict], experiment: str, marker: str = "") -> list[dict]:
    return [r for r in rows if r["experiment"] == experiment and marker in r["params"]]


def _z_checks(label: str, rows: list[dict], target: float, z: float = O.Z_MEAN):
    return [(f"{label}: {r['params']}", O.within(value(r), target, value(r, "se"), z))
            for r in rows]


class ExactIdentities:
    """One projcond run over the exact-identity experiment kinds, direct
    ratio-engine, Bartlett, expansion and eta checks, and the malformed
    configs the CLI must reject.  Sizes are those of the acceptance
    criteria (projcond/acceptance.py) or the experiments' defaults."""

    D_PROP5 = 100
    BARTLETT_N = 100_000

    def __init__(self, seed: int, out_dir: str):
        self.seed, self.out_dir = seed, out_dir

    def experiments(self) -> list[dict]:
        return [
            *({"experiment": "clone-density-check", "d": d, "p": p, "k": k, "n": 100_000,
               "x_norms": [0.0, 0.5]} for d, p, k in DENSITY_DIMS),
            {"experiment": "bartlett-check", "d": 20, "p": 2, "k": 3, "n": self.BARTLETT_N,
             "n_frames": 100},
            {"experiment": "expansion-order", "d": 10_000, "p": 1, "ks": [1, 2, 4]},
            {"experiment": "normalzero-check", "d": 60, "p": 1, "k": 4, "n": 100_000,
             "x_norm": 0.5},
            *({"experiment": "prop5-cases", "spec": spec, "d": self.D_PROP5, "n": 100_000}
              for spec in PROP5_SPECS),
            {"experiment": "moment-conditions", "spec": UNIFORM},
            # the ratio engine at 100 outer points x 20 000 draws
            {"experiment": "conditional-linearity", "spec": {"family": "gaussian"},
             "d_list": [32], "p": 1, "t": 0.5, "n_frames": 1, "n_outer": 100,
             "n_inner": {"32": 20_000}},
            {"experiment": "theorem-bound", "part": "A", "d": 1e6, "p": 2, "t": 1.0, "tau": 0.5},
            {"experiment": "theorem-bound", "part": "B", "d": 1e6, "p": 2, "t": 1.0, "tau": 0.5},
            {"experiment": "asymptotic-scan", "p": 2, "part": "A", "tau": 0.5,
             "log_d_grid": [1e3, 1e4, 1e5, 1e6]},
        ]

    def ops(self, round_index: int) -> list[Op]:
        s = round_seed(self.seed, round_index)
        state: dict = {}

        def run_all():
            res = run_cli({"seed": s, "experiments": self.experiments()}, self.out_dir, "exact")
            state["rows"] = res.rows
            return report_checks(res, EXACT_ROWS)

        def rows(experiment, marker=""):
            return _rows_of(state["rows"], experiment, marker)

        def rng(i):
            return np.random.default_rng([s, i])

        ops = [Op("run-experiments", run_all)]
        ops += [Op(name, lambda fn=fn: fn(rows)) for name, fn in (
            ("clone-density", _check_density),
            ("bartlett", lambda r: _check_bartlett(r, self.BARTLETT_N)),
            ("expansion-at-identity", _check_expansion_rows),
            ("chain-identities", _check_chains),
            ("prop5", lambda r: _check_prop5(r, self.D_PROP5)),
            ("quadratic-identity", _check_moments),
            ("gaussian-deviation-zero", _check_gaussian_linearity),
            ("theorem-bound", _check_theorem_bounds),
            ("asymptotic-scan", _check_scan),
        )]
        ops += [
            Op("ratio-gaussian-exact", lambda: _ratio_gaussian(rng(1))),
            Op("ratio-uniform-fiber", lambda: _ratio_uniform_fiber(rng(2))),
            Op("triangular-ks", lambda: _triangular_ks(rng(3), self.BARTLETT_N)),
            Op("expansion-slope", _expansion_slopes),
            Op("eta-closed-form", _eta_closed_form),
        ]
        ops += [Op(f"malformed-{name}", lambda cfg=cfg, name=name, field=field:
                   _malformed(cfg, field, self.out_dir, name), known_fault=True)
                for name, cfg, field in MALFORMED]
        return ops


def _check_density(rows):
    r = rows("clone-density-check")
    return [("two rows per (d, p, k)", len(r) == 2 * len(DENSITY_DIMS)),
            ("target is 1", all(value(x, "target") == 1.0 for x in r)),
            *_z_checks("E ratio = 1", r, 1.0)]


def _check_bartlett(rows, n):
    corr = rows("bartlett-check", "max_abs_corr")
    det = rows("bartlett-check", "lambda_det")
    # 15 pairwise correlations of independent streams, each about N(0, 1/n)
    z = float(stats.norm.ppf(1.0 - O.ALPHA / 30.0))
    return [("rows", len(corr) == 1 and len(det) == 1),
            ("independence", len(corr) == 1 and value(corr[0]) <= z / math.sqrt(n)),
            ("determinant identity", len(det) == 1 and value(det[0]) <= 1e-8)]


def _check_expansion_rows(rows):
    r = rows("expansion-order", "at-identity")
    return [("three ks", len(r) == 3)] + [
        (f"remainder 0 at S=I: {x['params']}", abs(value(x)) <= 1e-10) for x in r]


def _check_chains(rows):
    r = rows("normalzero-check")
    # products of inner products have heavier tails than a normal mean
    return [("six chains", len(r) == 6)] + _z_checks("identity = 0", r, 0.0, z=6.0)


def _check_prop5(rows, d):
    r = rows("prop5-cases")
    checks = [("three cases per law", len(r) == 3 * len(PROP5_SPECS))]
    for i, row in enumerate(r):
        label = row["params"].split(";", 1)[0]
        target = O.prop5_targets(*O.MARGINAL_MOMENTS[label], d)[i % 3]
        checks.append((f"closed-form target {row['params']}",
                       abs(value(row, "target") - target) <= 1e-12))
        checks.append((f"estimate {row['params']}", O.within(value(row), target, value(row, "se"))))
    return checks


def _check_moments(rows):
    r = rows("moment-conditions", "G=(1,2)^2")
    info = rows("moment-conditions", "constants=")
    records = [json.loads(x["params"].split("constants=", 1)[1].rsplit(";", 1)[0])
               for x in info]
    return [("one monomial row per d", len(r) == 2 and len(records) == 2),
            *((f"d E[(S-I)_12^2] = 1: {x['params']}", value(x, "target") == 1.0
               and O.within(value(x), 1.0, value(x, "se"))) for x in r),
            # uniform density is at most 1/(2 sqrt3) < 1, so D = max(1, sup f) = 1
            *((f"constants {c}", c.get("D") == 1.0 and c.get("alpha", 0.0) >= 1.0)
              for c in records)]


def _check_gaussian_linearity(rows):
    r = rows("conditional-linearity")
    return [("two rows", len(r) == 2),
            ("every deviation frequency is exactly 0", all(value(x) == 0.0 for x in r))]


def _check_theorem_bounds(rows):
    checks = []
    for part in ("A", "B"):
        r = rows("theorem-bound", f"part={part};")
        dev, nu = O.theorem_bounds(1e6, 2, 1.0, 0.5, part)
        checks += [(f"part {part} rows", len(r) == 2),
                   (f"part {part} deviation",
                    len(r) == 2 and math.isclose(value(r[0]), dev, rel_tol=1e-10)),
                   (f"part {part} nu",
                    len(r) == 2 and math.isclose(value(r[1]), nu, rel_tol=1e-10))]
    return checks


def _check_scan(rows):
    r = [x for x in rows("asymptotic-scan") if x["params"].startswith("log_d=")]
    grid = [1e3, 1e4, 1e5, 1e6]
    flags = rows("asymptotic-scan", "monotone") + rows("asymptotic-scan", "below-1e-3")
    expected = [O.bound_logs(ld, 2, 1.0, 0.5, "A")[0] for ld in grid]
    final_below = O.bound_logs(grid[-1], 2, 1.0, 0.5, "A")
    return [("four grid rows", len(r) == 4),
            ("log deviation bounds", len(r) == 4 and all(
                math.isclose(value(x), e, rel_tol=1e-10) for x, e in zip(r, expected))),
            ("flags", len(flags) == 2 and value(flags[0]) == 1.0
             and value(flags[1]) == float(max(final_below) < math.log(1e-3)))]


def _ratio_gaussian(rng):
    """For the Gaussian the control variates make h = 1, mu = Bx and
    Delta = 0 exact, whatever the draws."""
    d = 20
    B = linalg.haar_stiefel(d, 2, rng)
    x = np.array([0.4, -1.1])
    est = conditional.conditional_estimates(distributions.gaussian(d), B, x, 5000, rng)
    return [("h = 1", abs(est.h_hat - 1.0) <= 1e-14),
            ("mu = Bx", float(np.max(np.abs(est.mu_hat - B.entries @ x))) <= 1e-12),
            ("Delta = 0", abs(est.delta_op_norm_hat) <= 1e-12)]


def _ratio_uniform_fiber(rng):
    b = np.array([1.0, 2.0]) / math.sqrt(5.0)
    spec = distributions.iid_marginal("uniform", 2)
    checks = []
    for x in (0.0, 0.3, -0.3, 0.8, -0.8):
        h, mu, delta = O.uniform_fiber_moments(b, x)
        est = conditional.conditional_estimates(spec, b[:, None], np.array([x]), 100_000, rng)
        checks += [
            (f"h at x={x}", O.within(est.h_hat, h, est.h_se)),
            (f"mu at x={x}", all(O.within(m, t, s, O.T_JACKKNIFE)
                                 for m, t, s in zip(est.mu_hat, mu, est.mu_se))),
            (f"Delta at x={x}",
             O.within(est.delta_op_norm_hat, delta, est.delta_se, O.T_JACKKNIFE)),
        ]
    return checks


def _triangular_ks(rng, n):
    """Family-wise KS test of the Bartlett laws of the clone Gram's Cholesky
    factors: s_ij ~ N(0,1), s_jj^2 ~ chi2(d-p-j+1), t_11^2 - |x|^2 ~ chi2(d-p)."""
    d, p, k = 20, 2, 3
    x = np.array([1.0, 0.0])
    tri = linalg.triangular_statistics(d, p, k, x, n, rng)
    s, t = tri["s"], tri["t"]
    pvalues = [stats.kstest(s[:, i, j], "norm").pvalue for j in range(k) for i in range(j)]
    pvalues += [stats.kstest(s[:, j, j] ** 2, "chi2", args=(d - p - j,)).pvalue for j in range(k)]
    pvalues.append(stats.kstest(t[:, 0, 0] ** 2 - x @ x, "chi2", args=(d - p,)).pvalue)
    streams = np.array([s[:, i, j] for j in range(k) for i in range(j + 1)])
    corr = np.corrcoef(streams)
    np.fill_diagonal(corr, 0.0)
    z = float(stats.norm.ppf(1.0 - O.ALPHA / 30.0))
    return [("KS family", min(pvalues) > O.ALPHA),
            ("independence", float(np.max(np.abs(corr))) <= z / math.sqrt(n))]


def _expansion_slopes():
    """The degree-k remainder vanishes at S = I and shrinks like eps^(k+1)
    along S = I + eps A, for fixed directions A = I and A = J - I."""
    d, x = 10_000, np.array([0.5])
    eps = [0.02, 0.01, 0.005, 0.0025]
    checks = []
    for k in (1, 2, 3):
        at_identity, _ = expansion.remainder_diagnostic(x, np.eye(k), d, 1)
        checks.append((f"k={k} remainder 0 at S=I", abs(at_identity) <= 1e-10))
        for name, a in (("I", np.eye(k)), ("J-I", np.ones((k, k)) - np.eye(k))):
            if k == 1 and name == "J-I":
                continue
            a = a / float(np.max(np.abs(np.linalg.eigvalsh(a))))
            rems = [abs(expansion.remainder_diagnostic(x, np.eye(k) + e * a, d, 1)[0]) for e in eps]
            slope = float(np.polyfit(np.log(eps), np.log(rems), 1)[0])
            checks.append((f"k={k} A={name} slope {slope:.3f}", abs(slope - (k + 1)) <= 0.1))
    return checks


def _eta_closed_form():
    checks = []
    for d, p, k in ((10, 1, 1), (30, 1, 2), (50, 2, 2), (200, 3, 4)):
        ref = O.log_eta(d, p, k)
        checks.append((f"log eta({d},{p},{k})", abs(clones.log_eta(d, p, k) - ref) <= 1e-10))
        at_identity = clones.log_density_ratio_gram(0.0, np.eye(k), d, p)
        checks.append((f"log ratio at S=I, x=0 ({d},{p},{k})",
                       at_identity.in_domain and abs(at_identity.log_ratio - ref) <= 1e-10))
    return checks


# Configs the CLI must reject with exit 2, naming the bad field.  They do not
# depend on the seed, so they fail the same way in every round.
MALFORMED = [
    ("d-not-a-number", {"experiment": "clone-density-check", "d": "abc", "p": 1, "k": 1}, "'d'"),
    ("top-level-list", [{"experiment": "theorem-bound", "d": 100, "p": 1, "tau": 0.5}], None),
    ("spec-not-an-object", {"experiment": "prop5-cases", "d": 100, "n": 10_000,
                            "spec": "gaussian"}, "'spec"),
    ("n-zero", {"experiment": "clone-density-check", "d": 30, "p": 1, "k": 1, "n": 0}, "'n'"),
]


def _malformed(cfg, field, out_dir, name):
    res = run_cli(cfg, out_dir, f"malformed-{name}")
    named = "configuration error" in res.stderr and (field is None or field in res.stderr)
    return [("exit 2", res.code == 2), ("field named", named)]


# ---------------------------------------------------------------------------

P1_XS = [np.array([0.0]), np.array([-1.0]), np.array([0.6])]
P2_XS = [np.array([0.0, 0.0]), np.array([-1.0, 0.5])]


def make(name: str, seed: int, out_dir: str):
    if name == "kernel-p1":
        # criterion 8's pool sizes and d = 512 bandwidth; d = 128 takes the
        # dense eigvalsh path and d = 512 the eigsh path
        return KernelWorkload(1, {128: 100_000, 512: 120_000}, {512: 0.2}, P1_XS, seed, out_dir)
    if name == "kernel-p2":
        # the engine's default pools max(60000, 300 d) and bandwidths
        return KernelWorkload(2, {128: 60_000, 384: 115_200}, {}, P2_XS, seed, out_dir)
    if name == "exact-identities":
        return ExactIdentities(seed, out_dir)
    raise ValueError(name)

