"""Package metadata: what pyproject.toml declares must exist; import cost."""

import importlib
import os
import subprocess
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


def test_import_leaves_sympy_out():
    # sympy serves only conditions.nonlinearity_from_expression and costs
    # about 0.4 s to import; `import massnls` must not pay it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, massnls; print('sympy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"
