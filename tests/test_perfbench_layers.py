"""perfbench's traced rounds wrap projcond functions by module attribute
(perfbench/spans.py ``LAYERS``); a renamed or deleted function would stop
``perfbench/run.py --trace 1`` with an AttributeError."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
