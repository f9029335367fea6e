"""Package metadata: what pyproject.toml declares must exist."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_import_to_callables():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target} is not callable"
