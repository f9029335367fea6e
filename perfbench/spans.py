"""Span tracing of massnls from outside the package.

Every span comes from a wrapper that the benchmark installs around a public
function, at each place where a caller looks the name up:

* names bound at import (``solvers`` binds ``manifold_projection`` and
  ``fiber_energy``, ``manifold`` binds ``brentq``) are patched in every
  massnls module namespace that holds the original object;
* names imported at call time (``bubbles`` imports ``manifold_projection``,
  ``constants`` imports ``solve_ivp``, ``solvers`` imports ``splu``) are
  patched on the module they are imported from;
* ``RadialGrid.stiffness`` and ``RadialGrid.deriv`` are lazy properties, so
  only the first, building access of each grid is timed.

A span is ``(id, name, op, parent, thread, t0, t1)``.  ``op`` is the id of
the benchmark operation running when the span opened (the loop is closed, so
at most one runs at a time, in any thread).  A span opened in a worker thread
with no open span of its own takes the innermost open span of the main thread
as its parent: the scan pool's tasks hang under the scan that started them.
"""

import itertools
import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span and counter collector; patches are undone by uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)  # (op, counter name) -> count
        self.op = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, self.op, parent, threading.get_ident(), t0, t1)
            )

    def count(self, name, k=1):
        with self._lock:
            self.counts[(self.op, name)] += k

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement, modules):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, replacement)

    def wrap(self, name, fn, modules, on_result=None):
        """Span every call of fn made through any of the modules' bindings."""
        tracer = self

        def traced(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(out)
            return out

        traced.__wrapped__ = fn
        self._rebind(fn, traced, modules)

    def count_points(self, counter, mod, attr):
        """Count the t-points passed to mod.attr(nb, p, t, ...)."""
        fn = getattr(mod, attr)
        tracer = self

        def counted(nb, p, t, *args, **kwargs):
            tracer.count(counter, int(np.size(t)))
            return fn(nb, p, t, *args, **kwargs)

        counted.__wrapped__ = fn
        self._set(mod, attr, counted)

    def wrap_lazy_property(self, name, cls, attr):
        """Span the first access of cls.attr on each instance."""
        orig = cls.__dict__[attr]
        built = {}  # id(instance) -> weakref, dropped when it dies
        tracer = self

        def get(obj):
            key = id(obj)
            ref = built.get(key)
            if ref is not None and ref() is obj:
                return orig.__get__(obj, cls)
            built[key] = weakref.ref(obj, lambda r, key=key: _drop(built, key, r))
            return tracer.call(name, orig.__get__, (obj, cls), {})

        self._set(cls, attr, property(get, doc=orig.__doc__))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)


def _drop(table, key, ref):
    if table.get(key) is ref:
        del table[key]


def _massnls_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "massnls" or n.startswith("massnls.")]


def install(tracer):
    """Patch every traced boundary of the package; see the module docstring."""
    import scipy.integrate
    import scipy.sparse.linalg

    from massnls import bubbles, constants, functionals, grid, manifold, solvers

    mods = _massnls_modules()
    t = tracer
    t.wrap("grid.assembly", grid.make_grid, mods)
    t.wrap("grid.assembly", grid.grid_from_nodes, mods)
    t.wrap_lazy_property("grid.stiffness", grid.RadialGrid, "stiffness")
    t.wrap_lazy_property("grid.deriv", grid.RadialGrid, "deriv")

    t.wrap("constants.gn", constants.gn_ground_state, mods)
    t.wrap("constants.shoot", scipy.integrate.solve_ivp,
           mods + [scipy.integrate])

    t.wrap("functionals.fiber_energy", functionals.fiber_energy, mods)
    t.wrap("functionals.energy_report", functionals.energy_report, mods)

    # point counters sit inside manifold's own bindings, so they see only
    # the fiber evaluations the projection makes
    for attr in ("fiber_derivative", "fiber_energy", "fiber_second_derivative"):
        t.count_points("manifold.fiber_points", manifold, attr)
    t.wrap("manifold.root_find", manifold.brentq, [manifold])
    t.wrap("manifold.projection", manifold.manifold_projection, mods)

    def iterations(report):
        t.count("solvers.iterations", report.iterations)

    t.wrap("solvers.solve", solvers.local_minimize, mods, iterations)
    t.wrap("solvers.solve", solvers.ground_state_minimax, mods, iterations)
    t.wrap("solvers.lu", scipy.sparse.linalg.splu,
           mods + [scipy.sparse.linalg])

    t.wrap("bubbles.scan", bubbles.threshold_scan_subcritical, mods)
    t.wrap("bubbles.scan", bubbles.threshold_scan_critical, mods)
    t.wrap("bubbles.family", bubbles.mass_normalized_instanton, mods)
    t.wrap("bubbles.cutoff_solve", bubbles.solve_cutoff_radius, mods)
    t.wrap("bubbles.superpose", bubbles.superpose, mods)


# ----------------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------------

def _union_length(intervals):
    total = 0.0
    end = -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class SpanIndex:
    """Spans of a run with their children, inclusive and self times."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s[3] is not None:
                self.children[s[3]].append(s)

    def self_time(self, span):
        t0, t1 = span[5], span[6]
        covered = _union_length(
            (max(c[5], t0), min(c[6], t1)) for c in self.children[span[0]]
            if c[6] > t0 and c[5] < t1
        )
        return (t1 - t0) - covered

    def descendants(self, span):
        out, todo = [], list(self.children[span[0]])
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children[s[0]])
        return out


def layer_metrics(tracer, traced_ops):
    """Per-layer metrics of a traced run, per traced op unless noted.

    constants.gn_calls, constants.shots and constants.shoot_s are totals of
    the set-up phase (op id "setup"); everything else is a mean over the
    traced ops.  Returns (metrics, self_times) with self_times mapping span
    name to (inclusive, self) seconds per traced op.
    """
    ops = set(traced_ops)
    n = max(1, len(ops))
    idx = SpanIndex(tracer.spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    selft = defaultdict(float)
    setup_total = defaultdict(float)
    setup_calls = defaultdict(int)
    for s in tracer.spans:
        dur = s[6] - s[5]
        if s[2] == "setup":
            setup_total[s[1]] += dur
            setup_calls[s[1]] += 1
        elif s[2] in ops:
            total[s[1]] += dur
            calls[s[1]] += 1
            selft[s[1]] += idx.self_time(s)

    def count(name):
        return sum(v for (op, c), v in tracer.counts.items()
                   if c == name and op in ops)

    # energy evaluations of the descent: fiber energies and fiber maxima that
    # a solve asks for directly
    evals = sum(
        1 for s in tracer.spans
        if s[2] in ops and s[1] in ("functionals.fiber_energy", "manifold.projection")
        and s[3] in idx.by_id and idx.by_id[s[3]][1] == "solvers.solve"
    )
    iters = count("solvers.iterations")

    busy = wall = 0.0
    threads = []
    for s in tracer.spans:
        if s[2] not in ops or s[1] != "bubbles.scan":
            continue
        inner = idx.descendants(s)
        per_thread = defaultdict(list)
        for d in inner:
            per_thread[d[4]].append((d[5], d[6]))
        busy += sum(_union_length(v) for v in per_thread.values())
        wall += s[6] - s[5]
        threads.append(len(per_thread))

    projections = calls["manifold.projection"]
    m = {
        "grid.builds": calls["grid.assembly"] / n,
        "grid.assembly_s": total["grid.assembly"] / n,
        "grid.stiffness_builds": calls["grid.stiffness"] / n,
        "grid.stiffness_s": total["grid.stiffness"] / n,
        "grid.deriv_builds": calls["grid.deriv"] / n,
        "grid.deriv_s": total["grid.deriv"] / n,
        "constants.gn_calls": setup_calls["constants.gn"],
        "constants.shots": setup_calls["constants.shoot"],
        "constants.shoot_s": setup_total["constants.shoot"],
        "constants.op_shoot_s": total["constants.shoot"] / n,
        "manifold.projections": projections / n,
        "manifold.projection_s": total["manifold.projection"] / n,
        "manifold.root_finds": calls["manifold.root_find"] / n,
        "manifold.fiber_evals_per_projection":
            count("manifold.fiber_points") / projections if projections else 0.0,
        "solvers.solve_s": total["solvers.solve"] / n,
        "solvers.iterations": iters / n,
        "solvers.evals_per_iter": evals / iters if iters else 0.0,
        "solvers.lu_factorizations": calls["solvers.lu"] / n,
        "solvers.lu_s": total["solvers.lu"] / n,
        "functionals.fiber_energy_calls": calls["functionals.fiber_energy"] / n,
        "functionals.fiber_energy_s": total["functionals.fiber_energy"] / n,
        "functionals.energy_report_s": total["functionals.energy_report"] / n,
        "bubbles.scan_s": total["bubbles.scan"] / n,
        "bubbles.family_s": total["bubbles.family"] / n,
        "bubbles.cutoff_solves": calls["bubbles.cutoff_solve"] / n,
        "bubbles.superpose_calls": calls["bubbles.superpose"] / n,
        "bubbles.superpose_s": total["bubbles.superpose"] / n,
        "bubbles.threads": float(np.mean(threads)) if threads else 0.0,
        "bubbles.busy_over_wall": busy / wall if wall else 0.0,
        "trace.op_mean_s": total["op"] / n,
    }
    self_times = {k: (total[k] / n, selft[k] / n) for k in total}
    return m, self_times
