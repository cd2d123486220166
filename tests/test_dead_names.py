"""Every public module-level function or class of projcond is reached.

A name counts as reached when the package refers to it (as a name or an
attribute) somewhere outside its own definition and outside the smoke
profile ``acceptance.run_smoke``, when perfbench's traced rounds wrap it
(perfbench/spans.py ``LAYERS``), or when it is on ALLOWED below with the
reason it stays.  Code that only the smoke profile and the unit tests call
checks nothing the criteria and run kinds rely on, so it is deleted or put
into a report instead.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "projcond"
SPANS = ROOT / "perfbench" / "spans.py"

# module.name -> why the name stays although nothing in the package calls it
ALLOWED = {
    "expansion.psi_poly": "the dense reference that test_psi_poly_agrees_with_eval holds psi_eval to",
}

SMOKE = ("acceptance", "run_smoke")


def _referenced(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _layer_targets() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {t for group in spans.LAYERS.values() for t in group}


def _unreached() -> list[str]:
    # (module, top-level statement) -> the names it refers to
    refs = {}
    defs = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for i, stmt in enumerate(tree.body):
            name = getattr(stmt, "name", None)
            if (module, name) == SMOKE:
                continue
            refs[(module, i)] = _referenced(stmt)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not name.startswith("_")):
                defs.append((module, i, name))
    traced = _layer_targets()
    unreached = []
    for module, i, name in defs:
        key = f"{module}.{name}"
        if key in traced:
            continue
        if not any(name in names for where, names in refs.items() if where != (module, i)):
            unreached.append(key)
    return unreached


def test_every_public_name_is_reached():
    # equality, not inclusion: an allowed name that is deleted or comes
    # into use again leaves a stale entry behind
    assert sorted(_unreached()) == sorted(ALLOWED)
