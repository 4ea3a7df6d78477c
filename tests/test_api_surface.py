"""Every function, method and class defined in src/idop (outside __init__.py)
is named by some code in src/idop (outside __init__.py) or in perfbench/.
A definition that only tests or the export list reach is dead code. Dunders
are exempt: the language calls them. A name in the definition's own body
counts, so an override that calls its base through super() passes.

The other way round, every name that perfbench's tracer wraps must exist, or
every traced benchmark run crashes."""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for p in sorted((ROOT / "src" / "idop").glob("*.py")) if p.name != "__init__.py"]
CORPUS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

# a string constant names something when it is a (dotted) identifier, as in the
# tracer's target table; prose such as docstrings does not count
_NAME_STRING = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _names(node: ast.AST) -> list[str]:
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _NAME_STRING.fullmatch(sub.value):
                out.extend(sub.value.split("."))
    return out


def _unreferenced() -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in CORPUS}
    named = {name for tree in trees.values() for name in _names(tree)}
    flagged = []
    for path in SOURCES:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not (name.startswith("__") and name.endswith("__")) and name not in named:
                flagged.append(f"{path.name}:{node.lineno} {name}")
    return flagged


def test_every_definition_is_named_outside_tests():
    assert _unreferenced() == []


def _perfbench_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_target():
    # on the idop modules already imported, as the traced run does on its own copy
    tracer = _perfbench_tracer()
    modules = {path.split(".")[0] for path, _, _ in tracer.TARGETS}
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"idop.{m}") for m in modules})
    targets, missing = [], []
    for path, attr, _ in tracer.TARGETS:
        owner = lib
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{path}.{attr}")
            continue
        targets.append((owner, attr, owner.__dict__[attr]))
    assert missing == []
    t = tracer.Tracer()
    try:
        t.install(lib)
        assert all(owner.__dict__[attr].__wrapped__ is fn for owner, attr, fn in targets)
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in targets)
