"""Spans around calls into projcond's layers, recorded from outside the package.

Only traced rounds install these wrappers.  Each wrapper replaces a
function at the module attribute its callers look up (a module's own
global for calls inside that module, ``conditional.eigsh`` for the
eigen-solve, ``clones.haar_stiefel_batch`` for the clone sampler), so the
package itself is not changed.  Spans are kept in memory as
(name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from collections import defaultdict

import numpy as np

OP_PREFIX = "bench.op:"
KERNEL_DELTA = "conditional.kernel_delta_norm"
EIGEN_SOLVE = "conditional.eigen_solve"

# span name -> the module attributes that are wrapped under it
LAYERS = {
    KERNEL_DELTA: ["conditional.kernel_delta_norm"],
    EIGEN_SOLVE: ["conditional.eigsh"],
    "conditional.kernel_mu_deviation": ["conditional.kernel_mu_deviation"],
    "conditional.build_pool": ["conditional.build_pool"],
    "conditional.deviation_probability": ["conditional.deviation_probability"],
    "conditional.ratio_engine": ["conditional._ratio_conditional"],
    "distributions.sample_z": ["distributions.sample_z", "conditional.sample_z",
                               "moments.sample_z"],
    "linalg.haar_stiefel_batch": ["linalg.haar_stiefel_batch", "clones.haar_stiefel_batch"],
    "linalg.triangular_statistics": ["linalg.triangular_statistics"],
    "linalg.bartlett_distribution_check": ["linalg.bartlett_distribution_check"],
    "clones.gaussian_chain_identity": ["clones.gaussian_chain_identity"],
    "clones.log_density_ratio_batch": ["clones.log_density_ratio_batch"],
    "moments.estimate_monomial_mean": ["moments.estimate_monomial_mean"],
    "moments.estimate_b1a": ["moments.estimate_b1a"],
    "moments.prop5_special_cases": ["moments.prop5_special_cases"],
    "expansion.remainder_diagnostic": ["expansion.remainder_diagnostic",
                                       "experiments.remainder_diagnostic"],
    "bounds": ["bounds.theorem_bound", "bounds.asymptotic_scan", "bounds.gamma_constant",
               "bounds.generic_bound"],
    "experiments.run_experiment": ["cli.run_experiment", "experiments.run_experiment"],
    "cli.report_write": ["cli.write_csv", "cli.write_summary"],
}

# span name -> (count metric, amount of work in one call given its arguments)
COUNTERS = {
    KERNEL_DELTA: ("conditional.kernel_points", lambda a: 1),
    "conditional.ratio_engine": ("conditional.ratio_engine.draws", lambda a: a["n"]),
    "distributions.sample_z": ("distributions.sample_z.mvalues",
                               lambda a: a["n"] * a["spec"].d / 1e6),
    "linalg.haar_stiefel_batch": ("linalg.haar_stiefel_batch.frames", lambda a: a["n"]),
    "clones.log_density_ratio_batch": ("clones.log_density_ratio_batch.grams",
                                       lambda a: a["vectors"].shape[0]),
    "expansion.remainder_diagnostic": ("expansion.remainder_diagnostic.calls", lambda a: 1),
}

# span name -> metric of the largest memory peak traced during one call
MEMORY = {"conditional.build_pool": "conditional.build_pool.mb"}


class Tracer:
    """The spans of one round, plus counts and memory peaks."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)
        self.peaks: dict = defaultdict(float)

    def top(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, args, kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def self_times(self) -> dict:
        """Seconds per span name, each span less the time of its children;
        the benchmark's operation spans are pooled as "bench.op"."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            key = "bench.op" if name.startswith(OP_PREFIX) else name
            out[key] += (end - start) - child[i]
        return out


def _wrapper(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)
    signature = inspect.signature(fn)
    memory = MEMORY.get(name)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if counter:
            metric, amount = counter
            tracer.counts[metric] += amount(signature.bind(*args, **kwargs).arguments)
        if not memory:
            return tracer.call(name, fn, args, kwargs)
        tracemalloc.start()
        try:
            return tracer.call(name, fn, args, kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            tracer.peaks[memory] = max(tracer.peaks[memory], peak)

    return wrapped


class Instrumentation:
    """Installs the layer wrappers for a traced round and removes them after."""

    def __init__(self, modules: dict, tracer: Tracer):
        self.modules = modules
        self.tracer = tracer
        self.saved: list[tuple] = []

    def _replace(self, owner, attr: str, new):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        for name, targets in LAYERS.items():
            for target in targets:
                module, attr = target.split(".")
                owner = self.modules[module]
                self._replace(owner, attr, _wrapper(self.tracer, name, getattr(owner, attr)))
        # the dense solve is numpy's eigvalsh; only the calls made by
        # kernel_delta_norm itself belong to the eigen-solve layer
        dense, tracer = np.linalg.eigvalsh, self.tracer

        @functools.wraps(dense)
        def eigvalsh(*args, **kwargs):
            if tracer.top() == KERNEL_DELTA:
                return tracer.call(EIGEN_SOLVE, dense, args, kwargs)
            return dense(*args, **kwargs)

        self._replace(np.linalg, "eigvalsh", eigvalsh)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
        return False


def write_spans(path: str, rounds: list[tuple[int, Tracer]]):
    with open(path, "w") as fh:
        for round_index, tracer in rounds:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"round": round_index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
