"""projcond command line interface.

Subcommands:
  run <config.json>        run one experiment (or an "experiments" list)
  verify --profile smoke|full
  bound --part A|B --d --p --t --tau [--kappa --g --epsilon --xi --D]
  scan <config.json>       run with the kind defaulting to asymptotic-scan

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import acceptance, bounds, moments
from .errors import ConfigError, ProjcondError
from .experiments import ReportRow, read_field, run_experiment, write_csv, write_summary


def _emit(rows: list[ReportRow], timings: dict, out_prefix: str, seed: int) -> int:
    write_csv(rows, out_prefix + ".csv")
    n_fail = sum(not r.passed for r in rows)
    write_summary(
        {
            "seed": seed,
            "rows": len(rows),
            "failures": n_fail,
            "pass": n_fail == 0,
            "timings_ms": timings,
        },
        out_prefix + ".json",
    )
    return 0 if n_fail == 0 else 1


def _cmd_run(args) -> int:
    """``run`` and ``scan``: one experiment object or an "experiments" list,
    with the top-level fields seed and out."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"expected a JSON object, got {type(cfg).__name__}")
    seed = read_field("seed", int, cfg.pop("seed", acceptance.DEFAULT_SEED))
    if seed < 0:
        raise ConfigError("seed", "need seed >= 0")
    out_prefix = read_field("out", str, cfg.pop("out", args.default_out))
    experiments = cfg.pop("experiments", None)
    if experiments is None:
        experiments = [cfg]
    elif not isinstance(experiments, list):
        raise ConfigError("experiments", "expected a JSON list of experiment objects")
    elif cfg:
        raise ConfigError(next(iter(cfg)), "only seed and out may stand beside an experiments list")
    timings: dict = {}
    rows: list[ReportRow] = []
    for i, exp in enumerate(experiments):
        if not isinstance(exp, dict):
            raise ConfigError(f"experiments[{i}]", "expected a JSON object")
        if args.default_kind:
            exp = {"experiment": args.default_kind, **exp}
        exp_rows, ms = run_experiment(exp, seed, index=i)
        timings[f"{i}:{exp['experiment']}"] = round(ms, 3)
        rows.extend(exp_rows)
    return _emit(rows, timings, args.out or out_prefix, seed)


def _cmd_verify(args) -> int:
    seed = args.seed
    out_prefix = args.out or f"projcond-verify-{args.profile}"
    rows: list[ReportRow] = []
    timings: dict = {}
    if args.profile == "smoke":
        t0 = time.perf_counter()
        rows = acceptance.run_smoke(seed)
        timings["smoke"] = round((time.perf_counter() - t0) * 1000.0, 3)
        n_fail = sum(not r.passed for r in rows)
        status = "PASS" if n_fail == 0 else "FAIL"
        print(f"smoke: {status} ({len(rows)} checks, {timings['smoke']/1000:.1f} s)")
    else:
        for num in sorted(acceptance.CRITERIA):
            desc, _ = acceptance.CRITERIA[num]
            t0 = time.perf_counter()
            crit_rows = acceptance.run_criterion(num, seed)
            ms = (time.perf_counter() - t0) * 1000.0
            timings[f"criterion-{num:02d}"] = round(ms, 3)
            ok = all(r.passed for r in crit_rows)
            print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] "
                  f"({ms/1000:.1f} s): {desc}")
            rows.extend(crit_rows)
    return _emit(rows, timings, out_prefix, seed)


def _cmd_bound(args) -> int:
    cons = moments.MomentConditionConstants(
        epsilon=args.epsilon, xi=args.xi, D=args.D, alpha=1.0, beta=1.0
    )
    res = bounds.theorem_bound(bounds.TheoremBoundInputs(
        d=args.d, p=args.p, t=args.t, tau=args.tau, constants=cons,
        kappa=args.kappa, g=args.g, part=args.part,
    ))
    print(f"part {args.part}: xi_eff = {res.xi_eff:.6f}, gamma = {res.gamma:.6f}")
    print(f"deviation bound = {res.deviation_bound:.6g}"
          f"{'  [vacuous]' if res.deviation_vacuous else ''}")
    print(f"nu(G^c) bound   = {res.nu_gc_bound:.6g}"
          f"{'  [vacuous]' if res.nu_gc_vacuous else ''}")
    print("(values are up to the theory's unspecified constants kappa and g)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="projcond")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run, default_kind=None, default_out="projcond-report")

    p_ver = sub.add_parser("verify", help="run the smoke or full acceptance suite")
    p_ver.add_argument("--profile", choices=("smoke", "full"), default="smoke")
    p_ver.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_bound = sub.add_parser("bound", help="evaluate the closed-form bounds")
    p_bound.add_argument("--part", choices=("A", "B"), required=True)
    p_bound.add_argument("--d", type=float, required=True)
    p_bound.add_argument("--p", type=int, required=True)
    p_bound.add_argument("--t", type=float, required=True)
    p_bound.add_argument("--tau", type=float, required=True)
    p_bound.add_argument("--kappa", type=float, default=1.0)
    p_bound.add_argument("--g", type=float, default=1.0)
    p_bound.add_argument("--epsilon", type=float, default=0.5)
    p_bound.add_argument("--xi", type=float, default=0.5)
    p_bound.add_argument("--D", type=float, default=1.0)
    p_bound.set_defaults(func=_cmd_bound)

    p_scan = sub.add_parser("scan", help="formula-level asymptotic scan")
    p_scan.add_argument("config")
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=_cmd_run, default_kind="asymptotic-scan", default_out="projcond-scan")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ProjcondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
