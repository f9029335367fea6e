"""Constrained descent on the mass sphere: the local minimizer and the
minimax ground state through the dilation-fiber envelopes, and the dilation
mountain-pass path.

Both solvers descend an envelope Psi(u) = Phi(u_t(u)), t(u) a critical point
of u's dilation fiber t -> Phi(t^(N/2) u(t.)): its minimum (on P+) for the
local minimizer, its maximum (on P-) for the ground state.  The envelope
theorem gives the gradient at fixed t(u), and the dilation direction drops
out.  A trial without such a fiber point is valued +inf and rejected.  The
final iterate is re-centered on its fiber point and polished by Newton.

The descents retract to the sphere by exact mass renormalization after every
step, so the constraint is satisfied to roundoff at each iterate.  Search
directions are Sobolev-preconditioned projected gradients (an H^1 Riesz
solve per step -- one tridiagonal back-substitution), with Armijo
backtracking on top: the critical term makes any fixed step blow up once
the profile starts to concentrate.  Each descent point is evaluated in one
pass over the grid (`functionals._GridPass`: one stiffness stencil and the
force powers, shared by the value, the gradient and the history row).

Each phase stops when its own test stops carrying information.  The descent
hands over to a bordered Newton polish as soon as the Armijo decrease it
would demand is below one ulp of the value ("noise_floor"), and Newton stops
when a full step fails to lower a residual already at the stopping tolerance
("floor").  Every SolutionReport says why the descent and the Newton endgame
stopped and counts the work they did.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs

from .constants import thresholds
from .errors import (
    HypothesisError,
    NoCriticalPointError,
    NumericalError,
    ParameterError,
    ScanExhaustedError,
    _integer,
    _plain,
    _positive,
)
from .functionals import (
    _check_mass,
    _check_mu_below_alpha,
    _GridPass,
    _tangential_residual,
    energy_report,
    fiber_energy,
    fiber_scale,
    normalize_mass,
)
from .grid import RadialFunction, _dot, make_grid, mass
from .manifold import _fiber_minimum, manifold_projection
from .bubbles import _T_GRID, _build_cross, _sup_over_t, bubble_grid, truncated_instanton

__all__ = [
    "SolveOptions",
    "SolutionReport",
    "local_minimize",
    "ground_state_minimax",
    "gaussian_valley_init",
    "concentration_init",
    "MountainPassReport",
    "mountain_pass_path",
]


# ----------------------------------------------------------------------------
# options / reports
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 2000
    step0: float = 1.0
    grad_tol: float = 1e-8

    def __post_init__(self):
        _integer("max_iters", self.max_iters, 1)
        _positive("step0", self.step0)
        _positive("grad_tol", self.grad_tol)


@dataclass
class SolutionReport:
    u: RadialFunction
    energy_report: object
    level_name: str            # "local_min" | "minimax_ground_state"
    iterations: int            # descent iterations
    converged: bool
    history: list              # per-iteration (Psi, projected-grad norm, grad_sq)
    descent_stop: str          # "tol": residual <= grad_tol
                               # | "noise_floor": Armijo decrease below one ulp
                               # | "stalled": 25 iterations without progress
                               # | "step_underflow": 60 halvings, no step taken
                               # | "fiber_edge": either of the two above after a
                               #   trial without a fiber point (valued +inf)
                               # | "max_iters"
    newton_stop: str           # "tol": residual <= grad_tol / 10
                               # | "floor": full step failed at residual <= grad_tol
                               # | "no_descent": 8 damped steps failed above it
                               # | "lu_failed" | "singular_border" | "non_finite"
                               # | "max_iters"
    backtracks: int            # descent trials rejected (Armijo test or no fiber point)
    value_evals: int           # descent evaluator values (start point + trials)
    grad_evals: int            # descent evaluator gradients (one per iterate)
    newton_steps: int          # accepted Newton steps
    factorizations: int        # tridiagonal factorizations, descent and Newton

    def as_dict(self):
        """Every field but the profile u as strict-JSON data."""
        return _plain(self, skip=("u",))


# ----------------------------------------------------------------------------
# shared descent machinery
# ----------------------------------------------------------------------------

def _retract(W, vals, c):
    m = _dot(W, vals * vals)
    if m <= 0.0:
        raise ParameterError("iterate collapsed to the zero profile")
    return vals * np.sqrt(c / m)


def _riesz_solver(W, K):
    """Solve (diag(W) + K) z = b, the H^1 Gram system of the descent.

    K = (main, off) is the grid's tridiagonal P1 stiffness and the Gram
    matrix is SPD, so it is factored once as L D L^T (LAPACK dpttrf on the
    diagonals W + main and off) and each right-hand side costs one O(M)
    back-substitution (dpttrs).
    """
    main, off = K
    d, e, info = dpttrf(W + main, off)
    if info != 0:
        raise NumericalError(f"H^1 Gram matrix not positive definite (dpttrf info {info})")

    def solve(b):
        z, info = dpttrs(d, e, b)
        if info != 0:
            raise NumericalError(f"dpttrs failed with info {info}")
        return z

    return solve


class _Point(NamedTuple):
    """One evaluated descent point."""

    value: float        # the envelope value; +inf without a fiber point
    grad: Callable      # grad() -> the dual gradient at the point
    grad_sq: float      # its stiffness form v K v
    t: float            # its fiber critical point


def _descend(g, vals, p, opts, eval_fn):
    """Sobolev-preconditioned projected descent on the mass sphere.

    eval_fn(vals) -> _Point.  An evaluator makes one `_GridPass` over the
    grid: the value, the stiffness form and the gradient closure all read
    the same K v and force powers, so a point costs one stiffness stencil
    however much of it the descent uses.  Line-search trials need only the
    value; the accepted trial's point is carried into the next iteration,
    so every iterate costs one gradient, and the history row takes its
    stiffness form from the bundle.

    The raw Euclidean gradient of the discrete energy is useless as a search
    direction on graded grids (the weighted-L^2 representation blows up like
    1/weight near the origin and the stiffness part imposes a dr_min^2 step
    ceiling), so the direction solves (M_w + K) z = dual - lambda_hat M_w u
    -- the H^1 Riesz representative of the tangentially projected gradient,
    with M_w + K factored once per descent (`_riesz_solver`).  The slope along
    -z is exactly -(resid' A^-1 resid) < 0, so Armijo backtracking always
    terminates.  A trial valued +inf fails the Armijo test like any other
    and is counted as a backtrack.

    Stopping.  "tol" when the weighted-L^2 projected-gradient norm (the
    residual energy_report carries) reaches opts.grad_tol.  "noise_floor"
    as soon as the Armijo decrease 1e-4 * step * slope is below one ulp of
    the value (val - 1e-4 * step * slope == val): from there the test could
    only compare rounding, so the descent hands over to Newton without
    evaluating the trial.  This is how a converging run usually ends.
    "stalled" after 25 iterations in which the residual norm did not fall
    1% below its best while the demanded decrease is still above that
    floor: a real stall (the pure-critical run, small c * mu).
    "step_underflow" when 60 halvings find no acceptable step, "max_iters".
    Either of the two line-search stops is reported as "fiber_edge" instead
    when that iteration rejected a trial valued +inf: the step shrank at the
    edge of the envelope's domain (for the fiber minimum, where it merges
    with the fiber maximum), not at a rounding floor of the value.

    Returns (vals, point, history, work): point is the _Point of the final
    vals, and work holds the descent's share of the SolutionReport fields --
    iterations, descent_stop, backtracks, value_evals, grad_evals and
    factorizations.
    """
    W = g.omega_N * g.weights
    c = p.c
    vals = _retract(W, vals, c)
    riesz = _riesz_solver(W, g.stiffness)
    step = opts.step0
    history = []
    best = np.inf
    stale = 0
    it = 0
    stop = "max_iters"
    backtracks = grad_evals = 0
    value_evals = 1
    point = eval_fn(vals)
    for it in range(1, opts.max_iters + 1):
        val = point.value
        dual = point.grad()
        grad_evals += 1
        _, resid, pnorm = _tangential_residual(dual, vals, W, c)
        history.append((val, pnorm, point.grad_sq))
        if pnorm <= opts.grad_tol:
            stop = "tol"
            break
        if pnorm < 0.99 * best:
            best = pnorm
            stale = 0
        else:
            stale += 1
            if stale >= 25:
                stop = "stalled"  # flatlined: hand over to the Newton endgame
                break
        z = riesz(resid)
        z -= (_dot(W, z * vals) / c) * vals
        slope = _dot(dual, z)   # equals resid' A^-1 resid: strictly positive
        edge = False
        for _ in range(60):
            armijo = val - 1e-4 * step * slope
            if armijo == val:
                # the required decrease is below one ulp of val: the Armijo
                # test would compare rounding only
                stop = "noise_floor"
                break
            trial = _retract(W, vals - step * z, c)
            t_point = eval_fn(trial)
            value_evals += 1
            if t_point.value <= armijo:
                break
            edge = edge or t_point.value == np.inf
            backtracks += 1
            step *= 0.5
        else:
            stop = "step_underflow"
        if edge and stop in ("noise_floor", "step_underflow"):
            # the step was halved away on trials without a fiber point
            stop = "fiber_edge"
        if stop != "max_iters":
            break
        vals, point = trial, t_point
        step = min(step * 1.5, 64.0)
    work = dict(
        iterations=it, descent_stop=stop, backtracks=backtracks,
        value_evals=value_evals, grad_evals=grad_evals, factorizations=1,
    )
    return vals, point, history, work


def _kkt_state(g, W, vals, p):
    """(dual, lam, resid, pnorm, gp): the energy's dual gradient at vals, the
    multiplier, the tangential residual, its L^2_h norm and their pass."""
    gp = _GridPass(g, vals, p, W)
    dual = gp.gradient(p)
    return (dual, *_tangential_residual(dual, vals, W, p.c), gp)


def _newton_step(g, gp, p, lam, resid):
    """One bordered Newton step on the constrained Euler-Lagrange system.

    Solves [[J, -W u], [(W u)', 0]] (du, dlam) = (-resid, 0) with
    J = K - diag(W (f'(u) + lam)) by one tridiagonal LAPACK solve (dgtsv on
    K's off diagonal and main - W (f'(u) + lam)) with the two right-hand
    sides -resid and W u.  f'(u) = mu (q-1) f_q + (2*-1) f_c takes the
    force powers of the pass gp at u.  Returns
    (du, dlam, None), or (None, None, reason) with reason one of
    "lu_failed" (J exactly singular), "non_finite" or "singular_border".
    """
    fprime = p.mu * (p.q - 1.0) * gp.fq + (p.two_star - 1.0) * gp.fc
    main, off = g.stiffness
    wu = gp.W * gp.v
    *_, x, info = dgtsv(off, main - gp.W * (fprime + lam), off,
                        np.column_stack([-resid, wu]))
    if info != 0:
        return None, None, "lu_failed"
    if not np.all(np.isfinite(x)):
        return None, None, "non_finite"
    du0, du1 = x[:, 0], x[:, 1]
    denom = _dot(wu, du1)
    if denom == 0.0:
        return None, None, "singular_border"
    dlam = -_dot(wu, du0) / denom
    return du0 + dlam * du1, dlam, None


def _newton_polish(g, vals, p, grad_tol):
    """Bordered Newton on the constrained Euler-Lagrange system.

    Armijo descent cannot certify progress once energy decrements drop under
    the evaluation noise floor (one ulp of the value), which happens around
    projected-gradient norms of 1e-5; the descent stops there
    ("noise_floor") and the endgame is run on the residual itself.  Newton
    steps solve the KKT linearization with the mass constraint bordered in
    (`_newton_step`) and aim at grad_tol / 10.

    Stopping.  "tol" at that target, "max_iters" after 40 steps.  The L^2_h
    residual has a roundoff floor of its own (a few 1e-9 on the benchmark
    grids, rising like h^-2 under refinement), so once the residual is at or
    below grad_tol a full step that fails to lower it ends the polish
    ("floor"): halving a step into the noise cannot help.  Above grad_tol a
    failed step is halved up to 7 times, and "no_descent" means none of the
    8 lowered the residual.
    "lu_failed", "singular_border" and "non_finite" come from
    `_newton_step`.

    Guard: a result whose energy Phi exceeds Phi at the start beyond the
    evaluation noise has left the basin, and the start is returned instead.
    Both values come from `_kkt_state`'s passes.  It compares Phi, not the
    envelope, whose minimum may sit below the discrete critical level.

    Returns (vals, work): work holds newton_stop, newton_steps (accepted)
    and factorizations.
    """
    W = g.omega_N * g.weights
    tol = 0.1 * grad_tol
    _, lam, resid, pnorm, gp = _kkt_state(g, W, vals, p)
    start, phi0 = vals, fiber_energy(gp.bundle, p, 1.0)
    stop = "max_iters"
    steps = factorizations = 0
    for _ in range(40):
        if pnorm <= tol:
            break
        du, _, reason = _newton_step(g, gp, p, lam, resid)
        factorizations += 1
        if reason is not None:
            stop = reason
            break

        scale = 1.0
        for _ in range(8):
            trial = _retract(W, vals + scale * du, p.c)
            t_state = _kkt_state(g, W, trial, p)
            if t_state[3] < pnorm:
                vals = trial
                _, lam, resid, pnorm, gp = t_state
                break
            if pnorm <= grad_tol:
                # the full step did not lower a residual already at the
                # stopping tolerance: what is left is roundoff
                stop = "floor"
                break
            scale *= 0.5
        else:
            stop = "no_descent"
        if stop != "max_iters":
            break
        steps += 1
    if pnorm <= tol:
        stop = "tol"
    if fiber_energy(gp.bundle, p, 1.0) > phi0 + 1e-12 + 1e-9 * abs(phi0):
        vals = start
    work = dict(newton_stop=stop, newton_steps=steps, factorizations=factorizations)
    return vals, work


def _on_sphere(p, init):
    """(grid, W, vals) of an init on the mass sphere to 1e-6, retracted."""
    _check_mass(init, p, "initializer")
    g = init.grid
    W = g.omega_N * g.weights
    return g, W, _retract(W, np.asarray(init.values, dtype=float), p.c)


def _envelope_solve(g, W, vals, p, opts, fiber_point, level_name):
    """Descend Psi(u) = Phi(u_t(u)), t(u) = fiber_point(nb, p).t (value +inf
    when it returns None), re-center on t and polish.  The re-centering is an
    interpolated dilation that only shapes Newton's initial guess; the grid
    never changes, so restarts converge to the grid's one critical point."""
    def eval_fn(v):
        gp = _GridPass(g, v, p, W)
        nb = gp.bundle
        pt = fiber_point(nb, p)
        if pt is None:
            return _Point(np.inf, None, nb.grad_sq, np.nan)
        return _Point(pt.value, lambda: gp.gradient(p, pt.t), nb.grad_sq, pt.t)

    vals, last, history, descent = _descend(g, vals, p, opts, eval_fn)
    if abs(last.t - 1.0) > 1e-12:
        vals = fiber_scale(RadialFunction(g, vals), last.t).values
        vals = _retract(W, np.asarray(vals, dtype=float), p.c)
    vals, newton = _newton_polish(g, vals, p, opts.grad_tol)
    return _report(RadialFunction(g, vals), p, opts, level_name, history, descent, newton)


def _report(u, p, opts, level_name, history, descent, newton):
    erep = energy_report(u, p)
    converged = bool(
        erep.kkt_residual <= opts.grad_tol
        and abs(erep.mass - p.c) <= 1e-10 * p.c
    )
    work = {**descent, **newton,
            "factorizations": descent["factorizations"] + newton["factorizations"]}
    return SolutionReport(
        u, erep, level_name, converged=converged, history=history, **work
    )


# ----------------------------------------------------------------------------
# initializers
# ----------------------------------------------------------------------------

def _gaussian_family_energy(p, sig):
    """Energy of the mass-c Gaussian A exp(-(r/sigma)^2), in closed form.

    Every norm of a Gaussian is explicit: ||u||_p^p = A^p pi^(N/2)
    (sigma^2/p)^(N/2) and ||grad u||^2 = N c / sigma^2 at mass c, so the
    energy restricted to the family is a cheap scalar function of sigma.
    """
    a2 = p.c * (2.0 / np.pi) ** (p.N / 2.0) * sig ** (-float(p.N))
    lq = a2 ** (p.q / 2.0) * np.pi ** (p.N / 2.0) * (sig * sig / p.q) ** (p.N / 2.0)
    lcrit = (
        a2 ** (p.two_star / 2.0)
        * np.pi ** (p.N / 2.0)
        * (sig * sig / p.two_star) ** (p.N / 2.0)
    )
    return 0.5 * p.N * p.c / sig ** 2 - (p.mu / p.q) * lq - lcrit / p.two_star


def gaussian_valley_init(p, grid=None):
    """Mass-c Gaussian at the width that minimizes energy within the family.

    The width is found by scanning the closed-form family energy over a log
    grid of sigma, floored at sigma^2 = 2 N c / rho0(c) so the profile sits
    strictly inside the gradient-norm well (||grad||^2 = N c / sigma^2 <=
    rho0/2).  Starting at the family optimum matters for small mu: the true
    minimizer spreads like a negative power of mu, and descent from an
    O(1)-width start crawls along the near-flat dilation direction for
    thousands of iterations.  The default domain scales with the chosen
    width -- a box that clips the profile manufactures a spurious
    positive-multiplier state.
    """
    rep = thresholds(p.N, p.q, p.mu, p.c)
    if rep.rho0 is None:
        raise HypothesisError("the Gaussian valley initializer needs q < 2+4/N")
    sig_floor = np.sqrt(2.0 * p.N * p.c / rep.rho0)
    sig_scan = np.geomspace(sig_floor, 1e7 * sig_floor, 6000)
    sigma = float(sig_scan[np.argmin(_gaussian_family_energy(p, sig_scan))])
    if grid is None:
        grid = make_grid(p.N, max(50.0, 15.0 * sigma), 2500, grading="graded")
    u = RadialFunction(grid, np.exp(-((grid.nodes / sigma) ** 2)))
    return normalize_mass(u, p.c)


def concentration_init(p, grid=None, seed=0):
    """Truncated instanton blended with a Gaussian, then mass-normalized.

    The instanton part probes the concentration regime, the Gaussian the
    spread regime; the seed varies the blend weight and the Gaussian width
    so that restarts explore genuinely different basins of attraction.  The
    instanton has concentration n = 12.
    """
    n = 12
    if grid is None:
        grid = bubble_grid(p.N, n, 30.0, barrier_radii=(1.0, 2.0))
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.3, 3.0)
    sigma = rng.uniform(1.0, 4.0)
    U = truncated_instanton(p.N, n, grid)
    bump = np.exp(-((grid.nodes / sigma) ** 2))
    vals = U.values / np.sqrt(mass(U)) + beta * bump / np.sqrt(
        mass(RadialFunction(grid, bump))
    )
    return normalize_mass(RadialFunction(grid, vals), p.c)


# ----------------------------------------------------------------------------
# local minimizer in V(c)
# ----------------------------------------------------------------------------

def local_minimize(p, init, opts=None):
    """The local minimum inside V(c), by descent of the fiber-minimum envelope.

    V(c) is the part of the mass sphere with ||grad u||^2 < rho0(c).  The
    level descended is Psi+(u) = Phi(u_t+), t+ the local minimum of u's
    dilation fiber, so the near-flat dilation direction never slows the
    descent; a trial whose fiber has no minimum is rejected.  The start must
    lie in V(c) (else ParameterError) and have a fiber minimum (else
    NoCriticalPointError).  The converged profile has negative energy and a
    negative multiplier.
    """
    opts = SolveOptions() if opts is None else opts
    if not p.mass_subcritical:
        raise HypothesisError("local_minimize requires q < 2 + 4/N")
    rep = thresholds(p.N, p.q, p.mu, p.c)
    if p.c >= rep.c0:
        raise HypothesisError(
            f"mass c = {p.c:g} is not below the critical mass c0 = {rep.c0:g}; "
            "the local-minimization zone is empty"
        )
    g, W, vals = _on_sphere(p, init)
    nb = _GridPass(g, vals, p, W).bundle
    if nb.grad_sq >= rep.rho0:
        raise ParameterError(
            f"initializer has ||grad||^2 = {nb.grad_sq:g} >= rho0 = {rep.rho0:g}; "
            "start inside V(c)"
        )
    if _fiber_minimum(nb, p) is None:
        raise NoCriticalPointError(
            "the initializer's dilation fiber has no local minimum, so it has "
            f"no P+ point to descend from (c = {p.c:g}, c0 = {rep.c0:g})"
        )
    return _envelope_solve(g, W, vals, p, opts, _fiber_minimum, "local_min")


# ----------------------------------------------------------------------------
# minimax ground state
# ----------------------------------------------------------------------------

def ground_state_minimax(p, init, opts=None):
    """Descend the fiber-maximum envelope over the mass sphere.

    The level minimized is Psi(u) = max_t Phi(t^(N/2) u(t.)), computed in
    closed form from the norm bundle (`manifold_projection`); its gradient
    follows from the envelope theorem with the fiber maximum t*(u) held
    fixed.  Psi is invariant along fibers, so the iterate stays on the
    initializer's grid throughout.

    At mu = 0 no minimizer exists (the level is only approached along
    concentrating bubbles), so the run is expected to stall above the
    stopping tolerance with the level creeping down toward S^(N/2)/N; the
    report then carries converged=False.
    """
    opts = SolveOptions() if opts is None else opts
    if p.mass_subcritical:
        raise HypothesisError("ground_state_minimax requires q >= 2 + 4/N")
    _check_mu_below_alpha(p)
    g, W, vals = _on_sphere(p, init)
    # manifold_projection's failures propagate
    return _envelope_solve(g, W, vals, p, opts, manifold_projection, "minimax_ground_state")


# ----------------------------------------------------------------------------
# mountain-pass path
# ----------------------------------------------------------------------------

@dataclass
class MountainPassReport:
    t_grid: np.ndarray         # the coarse weights, 0 first
    energies: np.ndarray       # Phi on t_grid
    base_level: float          # Phi at the t=0 endpoint (the local minimizer)
    level_estimate: float      # sup over the path, refined in log t: upper estimate of the pass
    t_at_max: float            # the t of that sup
    t_hat: float               # first t_grid weight past the sup with Phi < 2 * base_level
    mass_err_max: float

    def as_dict(self):
        """Every field as strict-JSON data: the arrays as lists, a NaN as None."""
        return _plain(self)


def mountain_pass_path(p, u_minus, bubble, t_grid=None):
    """The dilation path t -> W_t from the local minimizer toward collapse.

    W_t is the mass-c dilation of u_minus + t * bubble (see `superpose`).
    u_minus must lie on the mass sphere (to 1e-6 relative), so the path
    starts at u_minus, exactly when its mass is c to roundoff.  The path's
    sup, level_estimate at t_at_max, is an upper estimate of the
    mountain-pass level.  t_hat, the first weight past it with energy below
    twice the (negative) base level, is the admissible endpoint for the
    minimax class.

    The sup is the subcritical scan's `bubbles._sup_over_t`: the energies on
    the coarse weights t_grid by the cross-term route (`_build_cross`), then
    Newton in log t between the neighbours of their argmax.  energies is the
    coarse curve, and mass_err_max the largest relative gap on it between
    the quadratic mass that sets the dilation and the direct quadrature of
    (u_minus + t * bubble)^2.  t_grid defaults to 0 and the 25 weights of
    `bubbles._T_GRID`.  One passed in must be a nonempty 1-D array of
    finite, nonnegative and strictly increasing weights; 0 is prepended
    when it does not start there.  A sup with no later weight below
    2 * base raises ScanExhaustedError, one at or before the first positive
    weight NumericalError.
    """
    if not p.mass_subcritical:
        raise HypothesisError("the mountain-pass path lives below q = 2 + 4/N")
    _check_mass(u_minus, p, "u_minus")
    if t_grid is None:
        t_grid = np.concatenate([[0.0], _T_GRID])
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if t_grid.ndim != 1 or t_grid.size == 0:
            raise ParameterError(
                f"t_grid must be a nonempty 1-D array of weights, got shape {t_grid.shape}"
            )
        if not (np.all(np.isfinite(t_grid) & (t_grid >= 0.0)) and np.all(np.diff(t_grid) > 0.0)):
            raise ParameterError(
                "superposition weights must be finite, nonnegative and strictly increasing")
        if t_grid[0] != 0.0:
            t_grid = np.concatenate([[0.0], t_grid])

    nb, energies, k, (_, level, t_max, _) = _sup_over_t(
        p, _build_cross(p, u_minus, bubble, c=p.c), t_grid)
    base = float(energies[0])
    below = k + 1 + np.flatnonzero(energies[k + 1:] < 2.0 * base)
    if below.size == 0:
        k_min = int(np.argmin(energies))
        raise ScanExhaustedError(
            f"no path point past the maximum is below 2*base = {2.0 * base:.6g} (minimum "
            f"{energies[k_min]:.6g} at t = {t_grid[k_min]:.4g}) -- extend the t-grid upward")
    if math.isnan(level):
        raise NumericalError(f"the path energy peaks at t = {t_grid[k]:g}, not past the first "
                             f"positive weight; no interior maximum -- extend the t-grid downward")
    return MountainPassReport(
        t_grid=t_grid,
        energies=energies,
        base_level=base,
        level_estimate=level,
        t_at_max=t_max,
        t_hat=float(t_grid[below[0]]),
        mass_err_max=float(np.max(np.abs(nb.mass - p.c))) / p.c,
    )
