"""Every public module-level function or class of projcond is reached, and so
is every field of its dataclasses and every method of its classes.

A name counts as reached when the package refers to it (as a name or an
attribute) somewhere outside its own definition and outside the smoke
profile ``acceptance.run_smoke``, when perfbench's traced rounds wrap it
(perfbench/spans.py ``LAYERS``), or when it is on ALLOWED below with the
reason it stays.  Code that only the smoke profile and the unit tests call
checks nothing the criteria and run kinds rely on, so it is deleted or put
into a report instead.

A field or property of a ``@dataclass`` class counts as reached when its
name is read as an attribute somewhere in the package or in perfbench,
outside that class's own methods (``__post_init__``, a serializer, an
evaluator) and outside the smoke profile, or when it is on ALLOWED_FIELDS
with the method that carries it.  The match is by name alone, so a field
named like another attribute that is read (``d``, ``p``, ``k``, ``t``, ``T``,
as in ``B.d``, ``inputs.t`` or ``a.T``) always counts as reached: this guard
cannot see such a field go unread.

A method of any class (every function defined in its body whose name is not
a dunder) counts as reached by the same rule: its name is read as an
attribute outside its own class's methods and outside the smoke profile, or
it is on ALLOWED_METHODS with the reason it stays.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "projcond"
BENCH = ROOT / "perfbench"
SPANS = BENCH / "spans.py"

# module.name -> why the name stays although nothing in the package calls it
ALLOWED = {}

# module.Class.field -> why the field stays although only its own class's
# methods read it
_ROW = "a report column, which ReportRow.csv_fields writes"
ALLOWED_FIELDS = {
    "experiments.ReportRow.experiment": _ROW,
    "experiments.ReportRow.params": _ROW,
    "experiments.ReportRow.estimate": _ROW,
    "experiments.ReportRow.se": _ROW,
    "experiments.ReportRow.target": _ROW,
}

# module.Class.method -> why the method stays although only its own class's
# methods, the smoke profile or the unit tests call it
ALLOWED_METHODS = {}

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


def _reads(node: ast.AST) -> set[str]:
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _fields(cls: ast.ClassDef) -> list[str]:
    out = []
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            out.append(item.target.id)
        elif isinstance(item, ast.FunctionDef) and any(
                getattr(dec, "id", None) == "property" for dec in item.decorator_list):
            out.append(item.name)
    return out


def _methods(cls: ast.ClassDef) -> list[str]:
    return [item.name for item in cls.body if isinstance(item, ast.FunctionDef)
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def _unread(members) -> list[str]:
    """module.Class.name for each name of members(cls), over the classes of
    the package, that is read nowhere but in its own class's methods."""
    # attribute name -> where it is read: the (module, class) whose method
    # reads it, or None for any other place
    reads: dict[str, set] = {}
    names = []
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        module = path.stem
        in_src = path.parent == SRC
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if in_src and (module, getattr(stmt, "name", None)) == SMOKE:
                continue
            parts = [(stmt, None)]
            if isinstance(stmt, ast.ClassDef):
                if in_src:
                    names += [(module, stmt.name, m) for m in members(stmt)]
                parts = [(item, (module, stmt.name) if isinstance(item, ast.FunctionDef)
                          else None) for item in stmt.body + stmt.decorator_list + stmt.bases]
            for node, where in parts:
                for attr in _reads(node):
                    reads.setdefault(attr, set()).add(where)
    return [f"{module}.{cls}.{name}" for module, cls, name in names
            if not reads.get(name, set()) - {(module, cls)}]


def test_every_dataclass_field_is_read():
    assert sorted(_unread(lambda cls: _fields(cls) if _is_dataclass(cls) else [])) \
        == sorted(ALLOWED_FIELDS)


def test_every_method_is_called():
    assert sorted(_unread(_methods)) == sorted(ALLOWED_METHODS)
