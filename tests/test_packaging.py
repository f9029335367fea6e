"""Package metadata: what pyproject.toml declares must match the code."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_console_scripts_import_to_callables():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target} is not callable"


def test_runtime_dependencies_are_the_third_party_imports():
    # every declared dependency is imported somewhere in the package, and
    # every third-party import is declared; imports inside functions count
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    }
    imported = set()
    for path in (ROOT / "src" / "massnls").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"massnls"}
    assert declared == third_party == {"numpy", "scipy"}
