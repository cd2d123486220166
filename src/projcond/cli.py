"""projcond command line interface.

Subcommands:
  run <config.json>        run one experiment (or an "experiments" list)
  verify --profile smoke|full [--seed N]

The closed-form bounds and the asymptotic scan are experiment kinds of
``run`` (theorem-bound, asymptotic-scan), so one config schema reads every
value the CLI takes.

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import acceptance
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


def _seed(value) -> int:
    """The seed of ``run`` and ``verify``: a whole number >= 0."""
    seed = read_field("seed", int, value)
    if seed < 0:
        raise ConfigError("seed", "need seed >= 0")
    return seed


def _out(value) -> str:
    """The report prefix of ``run`` and ``verify``: a non-empty string."""
    if not isinstance(value, str) or not value:
        raise ConfigError("out", f"expected a non-empty string, got {value!r}")
    return value


def _cmd_run(args) -> int:
    """One experiment object or an "experiments" list, with the top-level
    fields seed and out."""
    # only the read is guarded: an error writing a report is not the config's
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        what = f"{type(exc).__name__}: {exc}"
        raise ConfigError("config", f"cannot read {args.config} ({what})") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"expected a JSON object, got {type(cfg).__name__}")
    seed = _seed(cfg.pop("seed", acceptance.DEFAULT_SEED))
    out_prefix = _out(cfg.pop("out", "projcond-report"))
    if args.out is not None:
        out_prefix = _out(args.out)
    for report in (out_prefix + ".csv", out_prefix + ".json"):
        if os.path.abspath(report) == os.path.abspath(args.config):
            raise ConfigError("out", f"the report {report} would overwrite the config being run")
    experiments = cfg.pop("experiments", None)
    if experiments is None:
        experiments = [cfg]
    elif not isinstance(experiments, list) or not experiments:
        raise ConfigError("experiments", "expected a non-empty JSON list of experiment objects")
    elif cfg:
        raise ConfigError(next(iter(cfg)), "only seed and out may stand beside an experiments list")
    timings: dict = {}
    rows: list[ReportRow] = []
    for i, exp in enumerate(experiments):
        if not isinstance(exp, dict):
            raise ConfigError(f"experiments[{i}]", "expected a JSON object")
        exp_rows, ms = run_experiment(exp, seed, index=i)
        timings[f"{i}:{exp['experiment']}"] = round(ms, 3)
        rows.extend(exp_rows)
    return _emit(rows, timings, out_prefix, seed)


def _cmd_verify(args) -> int:
    seed = _seed(args.seed)
    out_prefix = _out(f"projcond-verify-{args.profile}" if args.out is None else args.out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="projcond")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="run the smoke or full acceptance suite")
    p_ver.add_argument("--profile", choices=("smoke", "full"), default="smoke")
    p_ver.add_argument("--seed", default=acceptance.DEFAULT_SEED)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:  # a report path in a missing directory
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ProjcondError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
