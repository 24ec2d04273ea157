import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python < 3.11
    import tomli as tomllib

import ahmass

ROOT = Path(__file__).resolve().parents[1]


def test_console_scripts_resolve():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_documented_modules_import():
    modules = re.findall(r":mod:`([\w.]+)`", ahmass.__doc__)
    assert modules
    for name in modules:
        importlib.import_module(name)


def unused_imports(source: str) -> list:
    """Module-level imports whose name is never read (``__all__`` exempt)."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_detects_dead_names():
    source = "from __future__ import annotations\nimport os\nfrom typing import List, Dict\n__all__ = ['Dict']\nx: List[int] = []\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_no_unused_module_imports():
    paths = sorted(Path(ahmass.__file__).parent.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {str(path.relative_to(path.parents[1])): unused_imports(path.read_text()) for path in paths}
    assert {name: dead for name, dead in found.items() if dead} == {}


def unreferenced_definitions(sources: dict, corpus: str) -> list:
    """Top-level functions and class methods in ``sources`` (name -> text)
    whose name occurs in ``corpus`` only at its own definitions.

    Dunder methods are exempt: the interpreter calls them.
    """
    defs = {}
    for fname, source in sources.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    defs.setdefault(member.name, []).append(f"{fname}:{member.lineno}")
    counts = Counter(re.findall(r"\w+", corpus))
    dead = []
    for name, where in defs.items():
        if counts[name] <= len(where):
            dead += [f"{name} ({w})" for w in where]
    return sorted(dead)


def test_unreferenced_definitions_detects_dead_names():
    lib = (
        "def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n"
        "    def called(self):\n        pass\n\n    def orphan(self):\n        pass\n"
    )
    caller = "used()\nC().called()\n# used_elsewhere is a different name\n"
    assert unreferenced_definitions({"lib.py": lib}, lib + caller) == ["dead (lib.py:5)", "orphan (lib.py:16)"]


def test_no_unreferenced_definitions():
    package = Path(ahmass.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    corpus = "\n".join(
        path.read_text() for folder in (package, ROOT / "tests", ROOT / "perfbench") for path in sorted(folder.glob("*.py"))
    )
    assert unreferenced_definitions(sources, corpus) == []


def test_tracer_targets_are_distinct_class_or_module_bindings():
    """Every traced target is bound on its own owner, one object per span name.

    The benchmark tracer looks each target up in ``vars(owner)`` and
    rebinds it by identity, so a method inherited from a base class, or
    two span names sharing one function object, would go untraced or
    merge two spans.
    """
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = {}
    for mod_name, attr, span in tracer.TARGETS:
        mod = importlib.import_module(f"ahmass.{mod_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        assert member in vars(owner), attr
        spans.setdefault(span, set()).add(id(vars(owner)[member]))
    names = list(spans)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert not spans[a] & spans[b], (a, b)
