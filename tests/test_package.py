import importlib
import re
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
