"""Tests for the constrained solvers: valley minimization, the minimax
ground state and mountain-pass paths."""

import functools
import json

import numpy as np
import pytest

from massnls import solvers
from massnls.bubbles import bubble_grid, superpose, truncated_instanton
from massnls.constants import sobolev_constant, thresholds
from massnls.errors import HypothesisError, ParameterError, ScanExhaustedError
from massnls.functionals import (
    _GridPass,
    fiber_energy,
    normalize_mass,
    problem,
    stiff_bundle,
)
from massnls.grid import RadialFunction, make_grid, mass
from massnls.manifold import manifold_projection
from massnls.solvers import (
    SolveOptions,
    _kkt_state,
    _newton_step,
    _riesz_solver,
    concentration_init,
    gaussian_valley_init,
    ground_state_minimax,
    local_minimize,
    mountain_pass_path,
)

C0_3_25_1 = 41.61237633847645       # critical mass at (N, q, mu) = (3, 2.5, 1)
C_HALF = 0.5 * C0_3_25_1
RHO0_HALF = 12.162680101829379      # gradient-norm cap rho0 at mass C_HALF
S_POW_3 = sobolev_constant(3).S_pow


@functools.lru_cache(maxsize=None)
def _valley():
    p = problem(3, C_HALF, 1.0, 2.5)
    return p, local_minimize(p, gaussian_valley_init(p))


@functools.lru_cache(maxsize=None)
def _ground(c=1.0, mu=1.0, seed=0):
    p = problem(3, c, mu, 4.0)
    return p, ground_state_minimax(p, concentration_init(p, seed=seed))


@functools.lru_cache(maxsize=None)
def _pass_pieces(n=64):
    """Local minimizer and a truncated bubble sharing one grid."""
    p = problem(3, C_HALF, 1.0, 2.5)
    g = bubble_grid(3, n, 60.0, barrier_radii=(1.0, 2.0))
    init = normalize_mass(RadialFunction(g, np.exp(-((g.nodes / 3.0) ** 2))), p.c)
    return p, local_minimize(p, init), truncated_instanton(3, n, g)


def _stiff_form(u):
    return float(u.values @ (u.grid.stiffness @ u.values))


# ----------------------------------------------------------------------------
# options
# ----------------------------------------------------------------------------

def test_options_defaults():
    o = SolveOptions()
    assert o.max_iters == 2000
    assert o.step0 == 1.0
    assert o.grad_tol == 1e-8


@pytest.mark.parametrize(
    "kw",
    [
        dict(max_iters=0),
        dict(step0=0.0),
        dict(step0=-1.0),
        dict(grad_tol=0.0),
    ],
)
def test_options_reject_bad_fields(kw):
    with pytest.raises(ParameterError):
        SolveOptions(**kw)


# ----------------------------------------------------------------------------
# initializers
# ----------------------------------------------------------------------------

def test_gaussian_init_sits_on_sphere_inside_the_well():
    p = problem(3, C_HALF, 1.0, 2.5)
    init = gaussian_valley_init(p)
    assert mass(init) == pytest.approx(p.c, rel=1e-12)
    assert _stiff_form(init) < RHO0_HALF


def test_gaussian_init_domain_tracks_the_small_mu_spread():
    # the family-optimal width grows as mu shrinks; the box must follow
    r_small = gaussian_valley_init(problem(3, 1.0, 1e-3, 2.5)).grid.nodes[-1]
    r_big = gaussian_valley_init(problem(3, 1.0, 1e-1, 2.5)).grid.nodes[-1]
    assert r_small > 10.0 * r_big


def test_gaussian_init_respects_custom_grid():
    g = make_grid(3, 40.0, 800, grading="graded")
    init = gaussian_valley_init(problem(3, 1.0, 1.0, 2.5), grid=g)
    assert init.grid is g
    assert mass(init) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_init_needs_subcritical_exponent():
    with pytest.raises(HypothesisError):
        gaussian_valley_init(problem(3, 1.0, 1.0, 4.0))


def test_concentration_init_mass_and_seed_variation():
    p = problem(3, 1.0, 1.0, 4.0)
    u0 = concentration_init(p, seed=0)
    u1 = concentration_init(p, seed=1)
    assert mass(u0) == pytest.approx(1.0, rel=1e-12)
    assert mass(u1) == pytest.approx(1.0, rel=1e-12)
    assert not np.allclose(u0.values, u1.values)


# ----------------------------------------------------------------------------
# local minimizer in the gradient-norm well
# ----------------------------------------------------------------------------

def test_valley_minimizer_converges_with_negative_level_and_multiplier():
    p, rpt = _valley()
    er = rpt.energy_report
    assert rpt.converged
    assert rpt.level_name == "local_min"
    assert er.phi == pytest.approx(-1.981625708340378, rel=1e-6)
    assert er.multiplier == pytest.approx(-0.2681194850890754, rel=1e-4)
    assert er.phi < 0.0
    assert er.multiplier < 0.0


def test_valley_minimizer_is_stationary_on_the_sphere():
    p, rpt = _valley()
    er = rpt.energy_report
    assert er.kkt_residual <= 1e-8
    assert abs(er.mass - p.c) <= 1e-10 * p.c
    assert abs(er.pohozaev) < 1e-4


def test_valley_minimizer_stays_interior():
    p, rpt = _valley()
    a = _stiff_form(rpt.u)
    assert a == pytest.approx(2.4229389128638203, rel=1e-6)
    assert a < RHO0_HALF


def test_valley_history_is_monotone_on_accepted_steps():
    _, rpt = _valley()
    phis = np.array([h[0] for h in rpt.history])
    assert np.all(np.diff(phis) <= 0.0)


def test_valley_restart_agreement():
    p, rpt = _valley()
    g = rpt.u.grid
    bent = rpt.u.values * (1.0 + 0.05 * np.cos(g.nodes / 3.0))
    rpt2 = local_minimize(p, normalize_mass(RadialFunction(g, bent), p.c))
    assert rpt2.converged
    assert abs(rpt2.energy_report.phi - rpt.energy_report.phi) <= 2e-8


def test_valley_rejects_supercritical_exponent():
    p = problem(3, 1.0, 1.0, 4.0)
    with pytest.raises(HypothesisError):
        local_minimize(p, concentration_init(p))


def test_valley_rejects_mass_at_or_above_critical():
    p = problem(3, 2.0 * C0_3_25_1, 1.0, 2.5)
    g = make_grid(3, 40.0, 400, grading="graded")
    init = normalize_mass(RadialFunction(g, np.exp(-g.nodes ** 2)), p.c)
    with pytest.raises(HypothesisError, match="critical mass"):
        local_minimize(p, init)


def test_valley_rejects_off_sphere_start():
    p = problem(3, C_HALF, 1.0, 2.5)
    init = gaussian_valley_init(p)
    bad = RadialFunction(init.grid, 2.0 * init.values)
    with pytest.raises(ParameterError, match="off the target sphere"):
        local_minimize(p, bad)


def test_valley_rejects_start_outside_the_well():
    p = problem(3, C_HALF, 1.0, 2.5)
    g = make_grid(3, 40.0, 2000, grading="graded")
    spike = normalize_mass(RadialFunction(g, np.exp(-((g.nodes / 0.05) ** 2))), p.c)
    with pytest.raises(ParameterError, match="start inside"):
        local_minimize(p, spike)


def test_small_mu_levels_follow_the_soliton_dilation_law():
    """Sweep mu over decades at fixed mass: the minimum is negative, climbs
    toward zero monotonically, and successive levels contract by 10^(8/5) --
    the dilation exponent of the pure subcritical soliton at q = 5/2."""
    phis = []
    for mu in (1e-3, 1e-2, 1e-1):
        p = problem(3, 1.0, mu, 2.5)
        rpt = local_minimize(p, gaussian_valley_init(p))
        assert rpt.converged
        er = rpt.energy_report
        assert er.phi < 0.0
        assert er.multiplier < 0.0
        assert er.kkt_residual <= 1e-8
        phis.append(er.phi)
    assert phis[0] > phis[1] > phis[2]
    for lo, hi in zip(phis[1:], phis[:-1]):
        assert lo / hi == pytest.approx(10.0 ** 1.6, rel=1e-6)


# ----------------------------------------------------------------------------
# minimax ground state
# ----------------------------------------------------------------------------

def test_ground_state_level_sits_below_the_bubble_ceiling():
    p, rpt = _ground()
    er = rpt.energy_report
    assert rpt.converged
    assert rpt.level_name == "minimax_ground_state"
    assert er.phi == pytest.approx(4.113000891874706, rel=1e-6)
    assert er.phi < S_POW_3 / 3.0
    assert er.multiplier == pytest.approx(-0.26489928703986004, rel=1e-4)
    assert er.multiplier < 0.0
    assert er.kkt_residual <= 1e-8
    assert abs(er.mass - p.c) <= 1e-10 * p.c


def test_ground_state_satisfies_the_dilation_identity():
    # the identity the solver enforces is the one of its own kinetic form
    p, rpt = _ground()
    g, v = rpt.u.grid, rpt.u.values
    W = g.omega_N * g.weights
    av = np.abs(v)
    a = float(v @ (g.stiffness @ v))
    d = float(W @ av ** p.q)
    b = float(W @ av ** p.two_star)
    assert abs(a - p.mu * p.gamma_q * d - b) <= 1e-6 * a


def test_ground_state_restarts_land_on_one_level():
    levels = [_ground(seed=s)[1].energy_report.phi for s in (0, 1, 2)]
    assert all(_ground(seed=s)[1].converged for s in (0, 1, 2))
    assert max(levels) - min(levels) <= 2e-8


def test_ground_state_level_does_not_increase_with_mass():
    _, r1 = _ground(c=1.0)
    _, r2 = _ground(c=2.0)
    assert r2.converged
    assert r2.energy_report.phi <= r1.energy_report.phi + 1e-8


def test_pure_critical_run_stalls_at_the_bubble_level():
    # with no subcritical term the level is only approached, never attained:
    # the run must report non-convergence, stalled within 5% of S^(3/2)/3
    p, rpt = _ground(mu=0.0)
    assert not rpt.converged
    bound = S_POW_3 / 3.0
    assert rpt.energy_report.phi > bound
    assert abs(rpt.energy_report.phi - bound) <= 0.05 * bound


def test_ground_state_rejects_subcritical_exponent():
    p = problem(3, 1.0, 1.0, 2.5)
    with pytest.raises(HypothesisError):
        ground_state_minimax(p, gaussian_valley_init(p))


def test_ground_state_rejects_large_mu_at_mass_critical_exponent():
    qbar = 2.0 + 4.0 / 3.0
    rep = thresholds(3, qbar, 1.0, 1.0)
    p = problem(3, 1.0, 2.0 * rep.alpha_Nq, qbar)
    g = bubble_grid(3, 12, 30.0, barrier_radii=(1.0, 2.0))
    init = normalize_mass(RadialFunction(g, np.exp(-g.nodes ** 2)), 1.0)
    with pytest.raises(HypothesisError, match="admissible bound"):
        ground_state_minimax(p, init)


def test_ground_state_rejects_off_sphere_start():
    p = problem(3, 1.0, 1.0, 4.0)
    init = concentration_init(p)
    bad = RadialFunction(init.grid, 3.0 * init.values)
    with pytest.raises(ParameterError, match="off the target sphere"):
        ground_state_minimax(p, bad)


def test_known_small_mass_stall_is_reported():
    # a solver failure (other seeds converge at this (c, mu, q)), kept as a
    # regression input: the report must say where the run stopped
    p = problem(3, 0.526, 0.862, 3.5)
    rpt = ground_state_minimax(p, concentration_init(p, seed=179433248))
    assert not rpt.converged
    assert rpt.energy_report.kkt_residual > 1.0
    assert rpt.descent_stop == "stalled"
    assert rpt.newton_stop == "no_descent"


# ----------------------------------------------------------------------------
# stop reasons, work counters and the tridiagonal solves
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("solve", [_ground, _valley])
def test_report_names_stops_and_counts_work(solve):
    _, rpt = solve()
    assert rpt.descent_stop in (
        "tol", "noise_floor", "stalled", "step_underflow", "max_iters"
    )
    assert rpt.newton_stop in (
        "tol", "floor", "lu_failed", "singular_border", "non_finite", "no_descent",
        "max_iters",
    )
    # one value for the start point and one per line-search trial, each
    # trial either accepted or backtracked; one factorization per descent
    # and one per Newton solve
    accepted = rpt.iterations - (rpt.descent_stop != "max_iters")
    assert rpt.value_evals == 1 + accepted + rpt.backtracks
    assert rpt.factorizations == (
        1 + rpt.newton_steps + (rpt.newton_stop not in ("tol", "max_iters"))
    )
    for n in (rpt.iterations, rpt.backtracks, rpt.value_evals, rpt.grad_evals,
              rpt.newton_steps, rpt.factorizations):
        assert type(n) is int


# (problem, initializer, phi, value_evals): phi and the value count frozen
# from the stall rule alone, which ran 25 idle iterations past the Armijo
# noise floor; stopping at the floor must keep phi and use fewer values
_FLOOR_CASES = {
    "ground_q3.5": (lambda: problem(3, 1.5, 1.5, 3.5),
                    lambda p: concentration_init(p, seed=2),
                    3.9519388045093975, 131),
    "valley": (lambda: problem(3, C_HALF, 1.0, 2.5), gaussian_valley_init,
               -1.981625708338877, 128),
}


@pytest.mark.parametrize("case", sorted(_FLOOR_CASES))
def test_descent_stops_at_the_armijo_noise_floor(case):
    make_p, init, phi_stalled, evals_stalled = _FLOOR_CASES[case]
    if case == "valley":
        rpt = _valley()[1]
    else:
        p = make_p()
        rpt = ground_state_minimax(p, init(p))
    assert rpt.converged
    assert rpt.descent_stop == "noise_floor"
    assert rpt.energy_report.phi == pytest.approx(phi_stalled, rel=1e-12)
    # 58 (ground) and 60 (valley) values at the floor stop
    assert rpt.value_evals < evals_stalled


@pytest.mark.parametrize("case", sorted(_FLOOR_CASES))
def test_descent_evaluates_no_trial_below_the_armijo_floor(case, monkeypatch):
    seen = {}
    descend = solvers._descend

    def spy(g, vals, p, opts, eval_fn, **kwargs):
        calls = []

        def counted(v):
            point = eval_fn(v)
            calls.append((v, point))
            return point

        out = descend(g, vals, p, opts, counted, **kwargs)
        seen.update(g=g, cap=kwargs.get("cap"), calls=calls, work=out[3])
        return out

    monkeypatch.setattr(solvers, "_descend", spy)
    make_p, init, _, _ = _FLOOR_CASES[case]
    p = make_p()
    solve = local_minimize if case == "valley" else ground_state_minimax
    solve(p, init(p))
    g, cap, calls, work = seen["g"], seen["cap"], seen["calls"], seen["work"]
    assert work["descent_stop"] == "noise_floor"
    assert len(calls) == work["value_evals"]

    # replay the line search: recover each trial's step from the retracted
    # trial (z is W-orthogonal to the iterate, so <trial, z>_W / <trial, u>_W
    # = -step |z|_W^2 / c) and check that the Armijo test still resolved the
    # demanded decrease when the trial was evaluated
    W = g.omega_N * g.weights
    riesz = _riesz_solver(W, g.stiffness)

    def direction(vals, point):
        dual = point.grad()
        resid = dual - (float(dual @ vals) / p.c) * (W * vals)
        z = riesz(resid)
        z -= (float(W @ (z * vals)) / p.c) * vals
        return z, float(dual @ z)

    vals, point = calls[0]
    z, slope = direction(vals, point)
    for trial, t_point in calls[1:]:
        step = -p.c * float(W @ (trial * z)) / (
            float(W @ (trial * vals)) * float(W @ (z * z))
        )
        demand = point.value - 1e-4 * step * slope
        assert demand < point.value
        if (cap is None or t_point.grad_sq < cap) and t_point.value <= demand:
            vals, point = trial, t_point
            z, slope = direction(vals, point)
            step = min(step * 1.5, 64.0)
        else:
            step *= 0.5
    # the step the descent held when it stopped demands less than one ulp
    assert point.value - 1e-4 * step * slope == point.value


@pytest.mark.parametrize("kw", [{}, {"seed": 1}, {"seed": 2}, {"c": 2.0}])
def test_converged_ground_state_polish_ends_at_tol_or_floor(kw):
    _, rpt = _ground(**kw)
    assert rpt.converged
    assert rpt.newton_stop in ("tol", "floor")
    assert rpt.energy_report.kkt_residual <= SolveOptions().grad_tol


def test_anchor_descent_evaluates_each_point_once(monkeypatch):
    projections = []

    def counted(nb, p):
        projections.append(1)
        return manifold_projection(nb, p)

    monkeypatch.setattr(solvers, "manifold_projection", counted)
    p = problem(3, 1.0, 1.0, 4.0)
    rpt = ground_state_minimax(p, concentration_init(p, seed=0))
    assert rpt.converged
    # one gradient per iterate; the accepted trial is never evaluated again
    assert rpt.grad_evals == rpt.iterations == len(rpt.history)
    accepted = rpt.iterations - (rpt.descent_stop != "max_iters")
    assert rpt.value_evals == 1 + accepted + rpt.backtracks
    # every value is one fiber projection; the re-centering before Newton
    # reuses the final iterate's fiber maximum instead of projecting again
    assert len(projections) == rpt.value_evals


def test_report_as_dict_is_strict_json():
    for _, rpt in (_ground(), _valley()):
        d = rpt.as_dict()
        assert set(d) == set(solvers.SolutionReport.__dataclass_fields__) - {"u"}
        assert d["history"] == [list(row) for row in rpt.history]
        assert d["energy_report"] == rpt.energy_report.as_dict()
        assert json.loads(json.dumps(d, allow_nan=False)) == d


class _CountingStiffness:
    """The stiffness matrix, counting the products K @ v taken with it."""

    def __init__(self, K):
        self.K = K
        self.matvecs = 0

    def __matmul__(self, v):
        self.matvecs += 1
        return self.K @ v

    def diagonal(self, k=0):
        return self.K.diagonal(k)


def test_anchor_descent_takes_one_stiffness_product_per_value(monkeypatch):
    p = problem(3, 1.0, 1.0, 4.0)
    init = concentration_init(p, seed=0)
    K = _CountingStiffness(init.grid.stiffness)
    monkeypatch.setattr(init.grid, "_stiffness", K)
    endgame = {}   # products taken inside the Newton polish and the report

    def counted(name, fn):
        def run(*args, **kwargs):
            before = K.matvecs
            out = fn(*args, **kwargs)
            endgame[name] = K.matvecs - before
            return out
        return run

    monkeypatch.setattr(solvers, "_newton_polish", counted("newton", solvers._newton_polish))
    monkeypatch.setattr(solvers, "_report", counted("report", solvers._report))
    rpt = ground_state_minimax(p, init)
    assert rpt.converged
    # the value, the stiffness form, the gradient and the history row of a
    # point share one product; the Newton endgame and the report take theirs
    assert endgame["newton"] >= 1 and endgame["report"] == 1
    assert K.matvecs - sum(endgame.values()) == rpt.value_evals


def _direct_pieces(v, K, W, p, t):
    """Norms and dilated dual gradient by the textbook formulas in |v|."""
    av = np.abs(v)
    force = (
        p.mu * t ** (p.q * p.gamma_q) * av ** (p.q - 2.0) * v
        + t ** p.two_star * av ** (p.two_star - 2.0) * v
    )
    norms = (float(W @ (v * v)), float(v @ (K @ v)),
             float(W @ av ** p.q), float(W @ av ** p.two_star))
    return norms, t ** 2 * (K @ v) - W * force


def _signed_profile():
    g = make_grid(4, 12.0, 300, "graded")
    vals = np.cos(g.nodes) * np.exp(-((g.nodes / 4.0) ** 2))
    vals[::7] = 0.0
    return RadialFunction(g, vals)


@pytest.mark.parametrize("case", ["anchor_q4", "anchor_q3.5", "valley", "signed_N4"])
def test_grid_pass_matches_the_direct_formulas(case):
    if case.startswith("anchor"):
        p = problem(3, 1.0, 1.0, 4.0 if case == "anchor_q4" else 3.5)
        u = concentration_init(p, seed=0)
    elif case == "valley":
        p = problem(3, C_HALF, 1.0, 2.5)
        u = gaussian_valley_init(p)
    else:
        p = problem(4, 1.0, 1.0, 3.0)
        u = _signed_profile()
        assert np.any(u.values < 0.0) and np.any(u.values == 0.0)
    g, v = u.grid, u.values
    W = g.omega_N * g.weights
    gp = _GridPass(g, v, p)
    for t in (1.0, 0.7):
        norms, grad = _direct_pieces(v, g.stiffness, W, p, t)
        assert np.max(np.abs(gp.gradient(p, t) - grad)) <= 1e-13 * np.max(np.abs(grad))
    nb = gp.bundle
    for got, ref in zip((nb.mass, nb.grad_sq, nb.lq, nb.lcrit), norms):
        assert got == pytest.approx(ref, rel=1e-13)
    # the gradient at t = 1 is the energy gradient the Newton endgame uses
    assert np.array_equal(gp.gradient(p), _kkt_state(g, W, v, p)[0])


def _small_state():
    p = problem(3, 1.0, 1.0, 4.0)
    g = make_grid(3, 10.0, 40, "graded")
    W = g.omega_N * g.weights
    u = normalize_mass(RadialFunction(g, np.exp(-((g.nodes / 2.0) ** 2))), p.c)
    return p, g, W, u.values


def test_riesz_solve_matches_dense_solve():
    p, g, W, vals = _small_state()
    _, _, resid, _ = _kkt_state(g, W, vals, p)
    z = _riesz_solver(W, g.stiffness)(resid)
    ref = np.linalg.solve(np.diag(W) + g.stiffness.toarray(), resid)
    assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_bordered_newton_step_matches_dense_kkt_solve():
    p, g, W, vals = _small_state()
    _, lam, resid, _ = _kkt_state(g, W, vals, p)
    du, dlam, reason = _newton_step(g, W, vals, p, lam, resid)
    assert reason is None
    av = np.abs(vals)
    fprime = (
        p.mu * (p.q - 1.0) * av ** (p.q - 2.0)
        + (p.two_star - 1.0) * av ** (p.two_star - 2.0)
    )
    n = vals.size
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = g.stiffness.toarray() - np.diag(W * (fprime + lam))
    A[:n, n] = -W * vals
    A[n, :n] = W * vals
    ref = np.linalg.solve(A, np.append(-resid, 0.0))
    assert np.max(np.abs(du - ref[:n])) <= 1e-10 * np.max(np.abs(ref[:n]))
    assert dlam == pytest.approx(ref[n], rel=1e-10)


# ----------------------------------------------------------------------------
# mountain-pass path
# ----------------------------------------------------------------------------

def test_path_starts_at_the_minimizer_exactly():
    p, rpt, U = _pass_pieces()
    mp = mountain_pass_path(p, rpt.u, U)
    assert mp.t_grid[0] == 0.0
    assert mp.energies[0] == mp.base_level
    # base level is the stiffness-form energy of u_minus
    W = rpt.u.grid.omega_N * rpt.u.grid.weights
    av = np.abs(rpt.u.values)
    phi_stiff = (
        0.5 * _stiff_form(rpt.u)
        - (p.mu / p.q) * float(W @ av ** p.q)
        - float(W @ av ** p.two_star) / p.two_star
    )
    assert mp.base_level == pytest.approx(phi_stiff, rel=1e-12)


def test_path_maximum_stays_below_the_pass_ceiling():
    p, rpt, U = _pass_pieces()
    mp = mountain_pass_path(p, rpt.u, U)
    assert mp.level_estimate < mp.base_level + S_POW_3 / 3.0
    assert 0.0 < mp.t_at_max < mp.t_hat
    assert mp.energies[mp.t_grid == mp.t_hat][0] < 2.0 * mp.base_level
    assert mp.mass_err_max <= 1e-8


def test_path_ceiling_margin_shrinks_as_the_bubble_sharpens():
    margins = []
    for n in (16, 64):
        p, rpt, U = _pass_pieces(n)
        mp = mountain_pass_path(p, rpt.u, U)
        margins.append(mp.base_level + S_POW_3 / 3.0 - mp.level_estimate)
    assert margins[0] > margins[1] > 0.0


def test_path_prepends_zero_to_a_custom_grid():
    p, rpt, U = _pass_pieces()
    mp = mountain_pass_path(p, rpt.u, U, t_grid=np.geomspace(1e-2, 1e3, 80))
    assert mp.t_grid[0] == 0.0
    assert mp.t_grid.size == 81


def test_path_that_never_drops_is_reported_as_exhausted():
    p, rpt, U = _pass_pieces()
    with pytest.raises(ScanExhaustedError, match="extend the t-grid"):
        mountain_pass_path(p, rpt.u, U, t_grid=np.geomspace(1e-3, 1.0, 50))


def test_path_matches_the_explicit_superposition():
    # the cross-term route against W_t built on its own dilated grid
    p, rpt, U = _pass_pieces()
    mp = mountain_pass_path(p, rpt.u, U, t_grid=np.geomspace(1e-3, 1e3, 40))
    ref, scale = [], []
    for t in mp.t_grid:
        w = superpose(rpt.u, U, float(t), c=p.c)
        nb = stiff_bundle(w.grid, w.values, p)
        ref.append(fiber_energy(nb, p, 1.0))
        scale.append(nb.grad_sq / 2.0 + p.mu * nb.lq / p.q + nb.lcrit / p.two_star)
    ref, scale = np.array(ref), np.array(scale)
    assert np.all(np.abs(mp.energies - ref) <= 1e-10 * scale)
    k = int(np.argmax(ref))
    assert mp.t_at_max == mp.t_grid[k]
    assert mp.t_hat == mp.t_grid[np.flatnonzero(ref < 2.0 * ref[0])[0]]
    assert mp.level_estimate == pytest.approx(ref[k], rel=1e-9)


def test_path_rejects_profiles_on_different_grids():
    p, rpt, _ = _pass_pieces()
    g = bubble_grid(3, 32, 60.0, barrier_radii=(1.0, 2.0))
    with pytest.raises(ParameterError, match="one grid"):
        mountain_pass_path(p, rpt.u, truncated_instanton(3, 32, g))


def test_path_rejects_off_sphere_minimizer():
    p, rpt, U = _pass_pieces()
    bad = RadialFunction(rpt.u.grid, 1.01 * rpt.u.values)
    with pytest.raises(ParameterError, match="off the target sphere"):
        mountain_pass_path(p, bad, U)


@pytest.mark.parametrize("t_grid", [[-1.0, 1.0], [np.nan, 1.0]])
def test_path_rejects_bad_weights(t_grid):
    p, rpt, U = _pass_pieces()
    with pytest.raises(ParameterError, match="nonnegative"):
        mountain_pass_path(p, rpt.u, U, t_grid=t_grid)


def test_path_requires_subcritical_exponent():
    p, rpt, U = _pass_pieces()
    p_bad = problem(3, p.c, 1.0, 4.0)
    with pytest.raises(HypothesisError):
        mountain_pass_path(p_bad, rpt.u, U)

