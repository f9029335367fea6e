"""The benchmark's span tracer patches names of the package by lookup; every
name it looks up must stay bound where it looks."""

import importlib.util
from pathlib import Path

import scipy.optimize

from massnls import functionals, grid, manifold

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls_cleanly():
    spans = _spans_module()
    before = {
        "brentq": manifold.brentq,
        "fiber_derivative": manifold.fiber_derivative,
        "fiber_energy": manifold.fiber_energy,
        "fiber_second_derivative": manifold.fiber_second_derivative,
        "stiffness": grid.RadialGrid.__dict__["stiffness"],
    }
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # AttributeError if a looked-up name is gone
        # the root finder and the three fiber evaluators are bound in
        # manifold itself, so the wrappers sit in its namespace
        assert manifold.brentq.__wrapped__ is scipy.optimize.brentq
        for name in ("fiber_derivative", "fiber_energy", "fiber_second_derivative"):
            assert getattr(manifold, name).__wrapped__ is getattr(functionals, name)
    finally:
        tracer.uninstall()
    after = {
        "brentq": manifold.brentq,
        "fiber_derivative": manifold.fiber_derivative,
        "fiber_energy": manifold.fiber_energy,
        "fiber_second_derivative": manifold.fiber_second_derivative,
        "stiffness": grid.RadialGrid.__dict__["stiffness"],
    }
    assert after == before
