"""The three benchmark workloads: inputs from a seed, set-up, one op, checks.

Each workload drives one path of the paper's numerics through the public
massnls API, and each is chosen so that one layer carries most of its op
time while another layer is idle:

* ``ground``: the minimax ground state for q > 2+4/N.  The fiber root scan
  of the manifold layer and the descent of the solvers layer dominate; the
  constants layer is never called.
* ``valley_path``: the local minimizer and the mountain-pass path for
  q < 2+4/N.  Stiffness rebuilds of the 401 dilated grids dominate; the
  manifold layer is never called.
* ``scan``: single threshold-scan calls, three kinds in turn.  Fresh node
  sets (weights, derivative matrices), the bubble families and the scan
  thread pool; the solvers layer is never called.

Workload objects are made from the seed alone.  ``setup`` computes the
constants and fixtures the workload needs, ``inputs`` yields op inputs
forever, ``run`` is the timed op and ``check`` returns the list of the op's
failed checks (empty when the answer is right).
"""

import numpy as np

import massnls as M

# phi of the ground state at (N, c, mu, q) = (3, 1, 1, 4) from
# concentration_init seed 0, as frozen by the solver tests
ANCHOR_PHI = 4.113000891874706


def _rel(a, b):
    return abs(a - b) / abs(b)


def _latin_hypercube(rng, n, d):
    """n points in [0, 1)^d with exactly one point in each 1/n-slab of every
    coordinate, so even a short run sees the whole range of each input."""
    strata = np.array([rng.permutation(n) for _ in range(d)]).T
    return (strata + rng.random((n, d))) / n


class Ground:
    """One op: ground_state_minimax(p, concentration_init(p, seed=s)).

    Op 0 is the anchor op; the rest sweep (c, mu) over [1, 2]^2 and q over
    {3.5, 4} in Latin hypercube blocks of 32, so every run covers the box
    evenly.  The box stops at 1 because below c*mu ~ 0.5 the solver fails to
    converge from some concentration_init seeds (kkt_residual ~ 1).
    """

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.ceiling = M.sobolev_constant(3).S_pow / 3.0
        self.grad_tol = M.SolveOptions().grad_tol

    def inputs(self):
        yield {"c": 1.0, "mu": 1.0, "q": 4.0, "init_seed": 0, "anchor": True}
        rng = np.random.default_rng(self.seed)
        while True:
            for a, b, k in _latin_hypercube(rng, 32, 3):
                yield {
                    "c": 1.0 + float(a),
                    "mu": 1.0 + float(b),
                    "q": 3.5 if k < 0.5 else 4.0,
                    "init_seed": int(rng.integers(2 ** 31)),
                    "anchor": False,
                }

    def run(self, x):
        p = M.problem(3, x["c"], x["mu"], x["q"])
        return M.ground_state_minimax(p, M.concentration_init(p, seed=x["init_seed"]))

    def check(self, x, rpt):
        er = rpt.energy_report
        c = x["c"]
        fails = []
        if not rpt.converged:
            fails.append("not converged")
        if not er.kkt_residual <= self.grad_tol:
            fails.append(f"kkt_residual {er.kkt_residual:.3g} > {self.grad_tol:g}")
        if not abs(er.mass - c) <= 1e-10 * c:
            fails.append(f"mass {er.mass!r} != c {c!r}")
        if not 0.0 < er.phi < self.ceiling:
            fails.append(f"phi {er.phi!r} outside (0, S^(3/2)/3)")
        if x["anchor"] and not _rel(er.phi, ANCHOR_PHI) <= 1e-9:
            fails.append(f"anchor phi {er.phi!r} != {ANCHOR_PHI!r}")
        return fails


class ValleyPath:
    """One op: local_minimize from a Gaussian on bubble_grid(3, n, 60, (1, 2)),
    then mountain_pass_path against truncated_instanton(3, n, grid).

    N=3, q=2.5, mu=1.  Blocks of six ops take c/c0 from a Latin hypercube on
    [0.3, 0.7] and each n in {32, 64, 128} twice, in seeded order.
    """

    NS = (32, 64, 128)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.c0 = M.thresholds(3, 2.5, 1.0, 1.0).c0
        self.ceiling = M.sobolev_constant(3).S_pow / 3.0

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for a, b in _latin_hypercube(rng, 6, 2):
                yield {"frac": 0.3 + 0.4 * float(a), "n": self.NS[int(3 * b)]}

    def run(self, x):
        n = x["n"]
        p = M.problem(3, x["frac"] * self.c0, 1.0, 2.5)
        g = M.bubble_grid(3, n, 60.0, barrier_radii=(1.0, 2.0))
        init = M.normalize_mass(
            M.RadialFunction(g, np.exp(-((g.nodes / 3.0) ** 2))), p.c
        )
        valley = M.local_minimize(p, init)
        path = M.mountain_pass_path(p, valley.u, M.truncated_instanton(3, n, g))
        return valley, path

    def check(self, x, out):
        valley, path = out
        fails = []
        if not valley.converged:
            fails.append("valley not converged")
        if not path.mass_err_max <= 1e-8:
            fails.append(f"path mass_err_max {path.mass_err_max:.3g} > 1e-8")
        if not path.level_estimate < path.base_level + self.ceiling:
            fails.append("path level not below base_level + S^(3/2)/3")
        if not 0.0 < path.t_at_max < path.t_hat:
            fails.append(f"t_at_max {path.t_at_max!r} outside (0, t_hat)")
        return fails


class Scan:
    """One op: a single threshold-scan call, the three kinds in seeded order.

    * ``sub``: threshold_scan_subcritical, N=3, q=2.5, mu=1, c=c0/2, a
      Gaussian u_c of seeded width in [5, 7], n = 8..256; first pass n=8.
    * ``crit4``: threshold_scan_critical at the mass-critical point N=4, q=3,
      c=1, mu=0.9 alpha(4, 3), n = 8..256; first pass n=32.
    * ``crit3``: threshold_scan_critical far beyond existence, N=3, q=4,
      c=mu=1, n = 2^12..2^16; first pass n=16384.
    """

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        c = 0.5 * M.thresholds(3, 2.5, 1.0, 1.0).c0
        alpha = M.thresholds(4, 3.0, 1.0, 1.0).alpha_Nq
        sigma = rng.uniform(5.0, 7.0)
        g = M.make_grid(3, 60.0, 3000, grading="graded")
        self.u_c = M.normalize_mass(
            M.RadialFunction(g, np.exp(-((g.nodes / sigma) ** 2))), c
        )
        p_sub = M.problem(3, c, 1.0, 2.5)
        small = [8, 16, 32, 64, 128, 256]
        # kind -> (problem, n list, expected threshold, expected first pass)
        self.cases = {
            "sub": (p_sub, small,
                    M.energy(self.u_c, p_sub) + M.sobolev_constant(3).S_pow / 3.0, 8),
            "crit4": (M.problem(4, 1.0, 0.9 * alpha, 3.0), small,
                      M.sobolev_constant(4).S_pow / 4.0, 32),
            "crit3": (M.problem(3, 1.0, 1.0, 4.0), [2 ** k for k in range(12, 17)],
                      M.sobolev_constant(3).S_pow / 3.0, 16384),
        }

    def inputs(self):
        rng = np.random.default_rng(self.seed + 1)
        while True:
            yield from (str(k) for k in rng.permutation(["sub", "crit4", "crit3"]))

    def run(self, kind):
        p, ns, _, _ = self.cases[kind]
        if kind == "sub":
            return M.threshold_scan_subcritical(p, self.u_c, ns)
        return M.threshold_scan_critical(p, ns)

    def check(self, kind, res):
        _, _, threshold, first = self.cases[kind]
        fails = []
        if res.first_pass != first:
            fails.append(f"{kind}: first pass {res.first_pass} != {first}")
        if not _rel(res.threshold, threshold) <= 1e-12:
            fails.append(f"{kind}: threshold {res.threshold!r} != {threshold!r}")
        for r in res.records:
            if r.passed != bool(r.sup_t < r.threshold):
                fails.append(f"{kind}: n={r.n} passed={r.passed} disagrees with sup_t")
        return fails


WORKLOADS = {"ground": Ground, "valley_path": ValleyPath, "scan": Scan}
