"""projcond benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a projcond checkout:

    python3 perfbench/run.py --workload kernel-p1 --seed 1 --seconds 15 --trace 0

The benchmark imports projcond from the checkout's src/ directory.  A run
repeats whole rounds of its workload (perfbench/workloads.py) for as long
as the next round should end within --seconds (at least one round), and
checks every output.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 alternates untraced and traced rounds (at least one of each) and
reports the per-layer metrics, writing the traced rounds' spans to
.bench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import spans

SRC = os.path.join("src", "projcond", "__init__.py")
OUT_DIR = ".bench_out"
WORKLOADS = ("kernel-p1", "kernel-p2", "exact-identities")
SETUP_SAMPLES = 8
# what `projcond run` imports before its first operation
SETUP_CHILD = ("import sys; sys.path.insert(0, 'src'); import projcond.cli; "
               "print('ready', flush=True)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_samples(n: int) -> list[float]:
    """Times of n fresh interpreters, each from spawn until projcond is imported."""
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", SETUP_CHILD], stdout=subprocess.PIPE,
                                 text=True)
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
        finally:
            child.stdout.close()
            child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError("projcond failed to import in a fresh interpreter")
    return samples


def blas_threads():
    """Thread count of the loaded OpenBLAS, if numpy uses one."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0))}


@dataclass
class Round:
    index: int
    wall: float
    cpu: float
    failed: list[str]
    unexpected: list[str]
    tracer: spans.Tracer | None


def run_round(index: int, ops, tracer: spans.Tracer | None) -> Round:
    failed, unexpected = [], []
    cpu0 = sum(os.times()[:2])
    t0 = time.perf_counter()
    for op in ops:
        span = tracer.open(spans.OP_PREFIX + op.name) if tracer else None
        try:
            bad, error = [label for label, ok in op.run() if not ok], None
        except Exception as exc:  # an operation that raises is a failed operation
            bad, error = [], f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.close(span)
        if bad or error:
            failed.append(op.name)
            if not op.known_fault:
                unexpected.append(op.name)
            print(f"perfbench: round {index} {op.name} failed: {error or bad}", file=sys.stderr)
    wall = time.perf_counter() - t0
    return Round(index, wall, sum(os.times()[:2]) - cpu0, failed, unexpected, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(SRC):
        print(f"perfbench: {SRC} not found; run from the root of a projcond checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads
    from projcond import (bounds, cli, clones, conditional, distributions, expansion,
                          experiments, linalg, moments)

    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in (
        bounds, cli, clones, conditional, distributions, expansion, experiments, linalg, moments)}
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    # setup_s is the least of SETUP_SAMPLES interpreter starts, half taken
    # before the rounds and half after: on a shared host one start can take
    # twice as long as another a minute later, and the least is closest to
    # what the import itself costs
    setup = [] if args.trace else setup_samples(SETUP_SAMPLES // 2)

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        ops = workload.ops(len(rounds))
        if args.trace and len(rounds) % 2 == 1:
            tracer = spans.Tracer()
            with spans.Instrumentation(modules, tracer):
                rounds.append(run_round(len(rounds), ops, tracer))
        else:
            rounds.append(run_round(len(rounds), ops, None))
        # start another round only if it should end within --seconds; a
        # traced run needs an untraced round and a traced one
        if (len(rounds) >= 1 + args.trace
                and time.perf_counter() - start + rounds[-1].wall > args.seconds):
            break
    attempted = len(rounds) * len(ops)

    print("perfbench-env " + json.dumps(environment(), sort_keys=True))
    print("perfbench-rounds " + json.dumps([
        {"round": r.index, "traced": r.tracer is not None, "wall_s": r.wall, "cpu_s": r.cpu}
        for r in rounds]))
    if args.trace:
        metrics = layer_metrics(rounds)
        spans.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"),
                          [(r.index, r.tracer) for r in rounds if r.tracer])
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        setup += setup_samples(SETUP_SAMPLES - len(setup))
        metrics = {
            "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
            "setup_s": {"value": min(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not any(r.unexpected for r in rounds), "attempted": attempted,
        "failed": sum(len(r.failed) for r in rounds), "metrics": metrics}))
    return 0


def layer_metrics(rounds: list[Round]) -> dict:
    """Medians over the traced rounds of each layer's self time, counts and
    memory; process CPU time from the untraced rounds."""
    traced = [r for r in rounds if r.tracer]
    plain = [r for r in rounds if not r.tracer]
    self_times = [r.tracer.self_times() for r in traced]

    def median(values):
        return statistics.median(list(values))

    metrics = {}
    for name in list(spans.LAYERS) + ["bench.op"]:
        metrics[f"{name}.s"] = {"value": median(t.get(name, 0.0) for t in self_times),
                                "unit": "s"}
    for name, _ in spans.COUNTERS.values():
        metrics[name] = {"value": median(r.tracer.counts.get(name, 0.0) for r in traced),
                         "unit": "Mvalues" if name.endswith("mvalues") else "count"}
    for name in spans.MEMORY.values():
        metrics[name] = {"value": median(r.tracer.peaks.get(name, 0.0) for r in traced),
                         "unit": "MB"}
    metrics["process.cpu_s"] = {"value": median(r.cpu for r in plain), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": median(r.wall for r in traced) - median(r.wall for r in plain), "unit": "s"}
    # the operation spans cover the round; what they hold outside the named
    # layers is the benchmark's own checks and unwrapped program code
    metrics["trace.outside_layers_share"] = {
        "value": median(t.get("bench.op", 0.0) / r.wall for t, r in zip(self_times, traced)),
        "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
