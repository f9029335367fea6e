"""Package metadata: what pyproject.toml declares must match the code."""

import ast
import importlib
import os
import re
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


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    # quadrature is imported inside the functions that integrate
    code = ("import sys, massnls; "
            "print(*sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == []


def test_the_solvers_and_the_sub_scan_leave_scipy_interpolate_unloaded():
    # the re-centering of local_minimize and the resampling of the sub scan
    # interpolate by the package's own PCHIP
    code = """
import sys
import numpy as np
import massnls as M
p = M.problem(3, 0.5 * M.thresholds(3, 2.5, 1.0, 1.0).c0, 1.0, 2.5)
g = M.bubble_grid(3, 32, 60.0, barrier_radii=(1.0, 2.0))
init = M.normalize_mass(M.RadialFunction(g, np.exp(-((g.nodes / 3.0) ** 2))), p.c)
valley = M.local_minimize(p, init)
assert valley.converged
M.mountain_pass_path(p, valley.u, M.truncated_instanton(3, 32, g))
M.threshold_scan_subcritical(p, valley.u, [8, 16])
print(*sorted(m for m in sys.modules if m.startswith("scipy.interpolate")))
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == []


def _module_level_imports(tree):
    """Dotted names a module imports outside its functions and classes."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
                yield from (f"{node.module}.{alias.name}" for alias in node.names)
        else:
            stack.extend(ast.iter_child_nodes(node))


def _imports_at_any_depth(tree):
    """Dotted names a module imports anywhere, inside functions too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_manifold_imports_scipy_optimize():
    # at any depth: the cutoff radius is Newton on a positive polynomial and
    # the GN oracle lives in the tests; manifold's module-level brentq goes
    # once its fiber roots take Newton in log t, and this set is then empty
    found = {
        path.name
        for path in (ROOT / "src" / "massnls").rglob("*.py")
        if any(name.split(".")[:2] == ["scipy", "optimize"]
               for name in _imports_at_any_depth(ast.parse(path.read_text())))
    }
    assert found == {"manifold.py"}


def test_only_manifold_imports_scipy_optimize_at_module_level():
    found = {
        path.name
        for path in (ROOT / "src" / "massnls").rglob("*.py")
        if any(name.split(".")[:2] == ["scipy", "optimize"]
               for name in _module_level_imports(ast.parse(path.read_text())))
    }
    assert found == {"manifold.py"}


def test_bubbles_imports_no_scipy_optimize_at_any_depth():
    # the cutoff radius is Newton on a positive polynomial, with no root finder
    tree = ast.parse((ROOT / "src" / "massnls" / "bubbles.py").read_text())
    assert not any(name.split(".")[:2] == ["scipy", "optimize"]
                   for name in _imports_at_any_depth(tree))


def test_no_module_imports_scipy_interpolate():
    # at any depth: PCHIP is `grid._pchip`, and scipy's is its test oracle
    found = {
        path.name
        for path in (ROOT / "src" / "massnls").rglob("*.py")
        if any(name.split(".")[:2] == ["scipy", "interpolate"]
               for name in _imports_at_any_depth(ast.parse(path.read_text())))
    }
    assert found == set()


def test_no_module_imports_scipy_special_at_module_level():
    # bubbles imports betainc inside its core integral; scipy.special comes
    # loaded through manifold's scipy.optimize today, but would cost a
    # process that never takes a core integral its import once that goes
    found = {
        path.name
        for path in (ROOT / "src" / "massnls").rglob("*.py")
        if any(name == "scipy.special" or name.startswith("scipy.special.")
               for name in _module_level_imports(ast.parse(path.read_text())))
    }
    assert found == set()


def _unused_module_level_imports(tree):
    """Names a module binds by a module-level import, never reads and does
    not list in its __all__."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(target for name, target in bound.items()
                  if name not in read and name not in exported)


def test_no_module_keeps_an_unused_module_level_import():
    # the package's __init__ imports only to re-export, so it is left out
    found = {
        path.name: unused
        for path in (ROOT / "src" / "massnls").rglob("*.py")
        if path.name != "__init__.py"
        and (unused := _unused_module_level_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def test_every_name_in_a_modules_all_is_bound():
    modules = [importlib.import_module(f"massnls.{path.stem}")
               for path in (ROOT / "src" / "massnls").glob("*.py") if path.stem != "__init__"]
    unbound = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__
               if not hasattr(mod, name)]
    assert unbound == []


def test_the_package_exports_only_public_names_of_its_modules():
    # massnls/__init__ re-exports; each name it imports from a module is in
    # that module's __all__
    tree = ast.parse((ROOT / "src" / "massnls" / "__init__.py").read_text())
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            public = set(importlib.import_module(f"massnls.{node.module}").__all__)
            stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert stray == []


def test_every_raise_names_a_class_of_the_errors_taxonomy():
    # failures use the taxonomy of errors.py: each raise names one of its
    # classes, called or not, and only a bare raise re-raises what was caught
    public = set(importlib.import_module("massnls.errors").__all__)
    stray = []
    for path in (ROOT / "src" / "massnls").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in public):
                    stray.append(f"{path.name}:{node.lineno}: raise {ast.unparse(exc)}")
    assert stray == []
