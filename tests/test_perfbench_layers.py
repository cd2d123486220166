"""perfbench's traced rounds wrap projcond functions by module attribute
(perfbench/spans.py ``LAYERS``); a renamed or deleted function would stop
``perfbench/run.py --trace 1`` with an AttributeError.  Its kernel
workloads also unpack what the kernel engine returns, so their closed-form
frame operations are run here at a reduced size."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_traced_layer_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [t for group in spans.LAYERS.values() for t in group]
    assert targets
    for target in targets:
        module, attr = target.split(".")
        owner = importlib.import_module(f"projcond.{module}")
        assert callable(getattr(owner, attr, None)), target


@pytest.mark.parametrize("p", [1, 2])
def test_closed_form_frame_ops_pass_at_reduced_size(monkeypatch, p):
    # every frame kind at d = 32 on a 20 000-row pool: a change to the
    # kernel engine's return shape or numbers fails here, not in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    xs = [np.r_[x, np.zeros(p - 1)] for x in (0.0, -1.0, 0.6)]
    for j, kind in enumerate(workloads.FRAME_DIRECTIONS):
        rng = np.random.default_rng([p, j])
        op = workloads.closed_form_frame_op(32, p, 20_000, None, kind, xs, rng)
        checks = op.run()
        assert len(checks) == 2 * len(xs), op.name
        assert all(ok for _, ok in checks), (op.name, checks)
