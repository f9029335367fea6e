"""Constrained descent on the mass sphere: the local minimizer inside the
gradient-norm well, the minimax ground state through the fiber-maximum
envelope, and the dilation mountain-pass path.

All solvers retract to the sphere by exact mass renormalization after every
step, so the constraint is satisfied to roundoff at each iterate.  Search
directions are Sobolev-preconditioned projected gradients (an H^1 Riesz
solve per step -- one tridiagonal back-substitution), with Armijo
backtracking on top: the critical term makes any fixed step blow up once
the profile starts to concentrate.
"""

from dataclasses import dataclass

import numpy as np

from .constants import thresholds
from .errors import (
    HypothesisError,
    ParameterError,
    ScanExhaustedError,
)
from .functionals import (
    _check_mu_below_alpha,
    _energy_gradient,
    energy_report,
    fiber_energy,
    fiber_scale,
    normalize_mass,
    stiff_bundle,
)
from .grid import RadialFunction, make_grid, mass
from .manifold import manifold_projection
from .bubbles import _build_cross, _superposition_bundle, bubble_grid, truncated_instanton

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
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.step0 > 0.0 or not self.grad_tol > 0.0:
            raise ParameterError("step0 and grad_tol must be positive")


@dataclass
class SolutionReport:
    u: RadialFunction
    energy_report: object
    level_name: str            # "local_min" | "minimax_ground_state"
    iterations: int
    converged: bool
    history: list              # per-iteration (phi, projected-grad norm, grad_sq)


# ----------------------------------------------------------------------------
# shared descent machinery
# ----------------------------------------------------------------------------

def _retract(W, vals, c):
    m = float(W @ (vals * vals))
    if m <= 0.0:
        raise ParameterError("iterate collapsed to the zero profile")
    return vals * np.sqrt(c / m)


def _descend(g, vals, p, opts, eval_fn, cap=None, value_progress=True):
    """Sobolev-preconditioned projected descent on the mass sphere.

    eval_fn(vals) -> (value, dual gradient).  The raw Euclidean gradient of
    the discrete energy is useless as a search direction on graded grids
    (the weighted-L^2 representation blows up like 1/weight near the origin
    and the stiffness part imposes a dr_min^2 step ceiling), so the
    direction solves (M_w + K) z = dual - lambda_hat M_w u -- the H^1 Riesz
    representative of the tangentially projected gradient.  The slope along
    -z is exactly -(resid' A^-1 resid) < 0, so Armijo backtracking always
    terminates.  cap, when given, is an upper bound on the stiffness form;
    violating trials are rejected with a halved step, never projected back.
    Stopping tests the weighted-L^2 projected-gradient norm (the same
    residual energy_report carries).  Returns (vals, iters, hit_tol, history).

    value_progress widens the stagnation test: a monotone value decrease
    counts as progress even while the residual norm stalls.  That is right
    for minimizing a functional bounded below on the feasible set (the slow
    spreading crawl of the valley minimizer), and wrong for the fiber-
    maximum envelope, whose infimum over the whole sphere is a degenerate
    spreading limit -- there the residual plateau is the stopping signal.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    W = g.omega_N * g.weights
    c = p.c
    vals = _retract(W, vals, c)
    lu = splu((diags(W) + g.stiffness).tocsc())
    step = opts.step0
    history = []
    hit_tol = False
    best = np.inf
    best_val = np.inf
    stale = 0
    it = 0
    for it in range(1, opts.max_iters + 1):
        val, dual = eval_fn(vals)
        lam = float(dual @ vals) / c
        resid = dual - lam * (W * vals)
        pnorm = float(np.sqrt(resid @ (resid / W)))
        history.append((val, pnorm, float(vals @ (g.stiffness @ vals))))
        if pnorm <= opts.grad_tol:
            hit_tol = True
            break
        # progress = the residual shrank 1%, or (when value progress counts)
        # the value moved by more than the evaluation noise floor
        improved = pnorm < 0.99 * best
        if value_progress and val < best_val - (1e-12 + 1e-9 * abs(best_val)):
            improved = True
        best_val = min(best_val, val)
        if improved:
            best = min(best, pnorm)
            stale = 0
        else:
            stale += 1
            if stale >= 25:
                break  # flatlined: hand over to the Newton endgame
        z = lu.solve(resid)
        z -= (float(W @ (z * vals)) / c) * vals
        slope = float(dual @ z)   # equals resid' A^-1 resid: strictly positive
        accepted = False
        for _ in range(60):
            trial = _retract(W, vals - step * z, c)
            if cap is not None and float(trial @ (g.stiffness @ trial)) >= cap:
                step *= 0.5
                continue
            if eval_fn(trial)[0] <= val - 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # step underflow: at the quadrature floor, report honestly
        vals = trial
        step = min(step * 1.5, 64.0)
    return vals, it, hit_tol, history


def _kkt_state(g, W, vals, p):
    dual = _energy_gradient(RadialFunction(g, vals), p)
    lam = float(dual @ vals) / p.c
    resid = dual - lam * (W * vals)
    return dual, lam, resid, float(np.sqrt(resid @ (resid / W)))


def _newton_polish(g, vals, p, tol, max_iters=40):
    """Bordered Newton on the constrained Euler-Lagrange system.

    Armijo descent cannot certify progress once energy decrements drop under
    the evaluation noise floor (~1e-12 absolute), which happens around
    projected-gradient norms of 1e-5; the endgame is therefore run on the
    residual itself.  Newton steps solve the KKT linearization with the mass
    constraint bordered in (two tridiagonal solves per step) and are damped
    whenever the residual norm fails to drop.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    W = g.omega_N * g.weights
    dual, lam, resid, pnorm = _kkt_state(g, W, vals, p)
    for _ in range(max_iters):
        if pnorm <= tol:
            break
        av = np.abs(vals)
        fprime = (
            p.mu * (p.q - 1.0) * av ** (p.q - 2.0)
            + (p.two_star - 1.0) * av ** (p.two_star - 2.0)
        )
        J = g.stiffness - diags(W * (fprime + lam))
        try:
            lu = splu(J.tocsc())
            du0 = lu.solve(-resid)
            du1 = lu.solve(W * vals)
        except RuntimeError:
            break
        wu = W * vals
        denom = float(wu @ du1)
        if denom == 0.0 or not np.all(np.isfinite(du0)) or not np.all(np.isfinite(du1)):
            break
        dlam = -float(wu @ du0) / denom
        du = du0 + dlam * du1

        improved = False
        scale = 1.0
        for _ in range(8):
            trial = _retract(W, vals + scale * du, p.c)
            t_dual, t_lam, t_resid, t_pnorm = _kkt_state(g, W, trial, p)
            if t_pnorm < pnorm:
                vals = trial
                dual, lam, resid, pnorm = t_dual, t_lam, t_resid, t_pnorm
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
    return vals, pnorm


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


def concentration_init(p, grid=None, seed=0, n=12):
    """Truncated instanton blended with a Gaussian, then mass-normalized.

    The instanton part probes the concentration regime, the Gaussian the
    spread regime; the seed varies the blend weight and the Gaussian width
    so that restarts explore genuinely different basins of attraction.
    """
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
    """Projected-gradient descent for the local minimum inside V(c).

    V(c) is the part of the mass sphere with ||grad u||^2 < rho0(c); the
    minimum there is interior, so trial steps that would cross the cap are
    rejected with a halved step rather than projected back.  The converged
    profile has negative energy and a negative multiplier.
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
    cap = rep.rho0

    g = init.grid
    if abs(mass(init) - p.c) > 1e-6 * p.c:
        raise ParameterError(
            f"initializer mass {mass(init):g} is off the target sphere c = {p.c:g}"
        )
    W = g.omega_N * g.weights
    vals = _retract(W, np.asarray(init.values, dtype=float), p.c)
    a0 = float(vals @ (g.stiffness @ vals))
    if a0 >= cap:
        raise ParameterError(
            f"initializer has ||grad||^2 = {a0:g} >= cap {cap:g}; start inside V(c)"
        )

    def eval_fn(v):
        u = RadialFunction(g, v)
        nb = stiff_bundle(g, v, p)
        return fiber_energy(nb, p, 1.0), _energy_gradient(u, p)

    vals, iters, hit_tol, history = _descend(g, vals, p, opts, eval_fn, cap=cap)
    # Newton endgame, guarded: for a minimization run the polish must not buy
    # a smaller residual at the price of leaving the basin (jumping to some
    # higher critical point), so candidates that raise the energy beyond the
    # evaluation noise are discarded.
    val_pre = eval_fn(vals)[0]
    cand, _ = _newton_polish(g, vals, p, 0.1 * opts.grad_tol)
    if eval_fn(cand)[0] <= val_pre + 1e-12 + 1e-9 * abs(val_pre):
        vals = cand
    u = RadialFunction(g, vals)
    erep = energy_report(u, p)
    converged = bool(
        erep.kkt_residual <= opts.grad_tol
        and abs(erep.mass - p.c) <= 1e-10 * p.c
    )
    return SolutionReport(u, erep, "local_min", iters, converged, history)


# ----------------------------------------------------------------------------
# minimax ground state
# ----------------------------------------------------------------------------

def ground_state_minimax(p, init, opts=None):
    """Descend the fiber-maximum envelope over the mass sphere.

    The level minimized is Psi(u) = max_t Phi(t^(N/2) u(t.)), computed in
    closed form from the norm bundle; its gradient follows from the envelope
    theorem with the fiber maximum t*(u) held fixed.  Psi is invariant along
    fibers, so the iterate stays on the initializer's grid throughout.  Once
    the descent flattens, the iterate is re-centered on its fiber maximum
    (an interpolated dilation -- only the quality of the Newton initial
    guess depends on it) and handed to the Euler-Lagrange polish.  The grid
    never changes, so independent restarts converge to the one discrete
    critical point of the grid, not to grid-shifted copies of it.

    At mu = 0 no minimizer exists (the level is only approached along
    concentrating bubbles), so the run is expected to stall above the
    stopping tolerance with the level creeping down toward S^(N/2)/N; the
    report then carries converged=False.
    """
    opts = SolveOptions() if opts is None else opts
    if p.mass_subcritical:
        raise HypothesisError("ground_state_minimax requires q >= 2 + 4/N")
    _check_mu_below_alpha(p)
    g = init.grid
    if abs(mass(init) - p.c) > 1e-6 * p.c:
        raise ParameterError(
            f"initializer mass {mass(init):g} is off the target sphere c = {p.c:g}"
        )
    W = g.omega_N * g.weights
    vals = _retract(W, np.asarray(init.values, dtype=float), p.c)

    def eval_fn(v):
        nb = stiff_bundle(g, v, p)
        pt = manifold_projection(nb, p)   # projection failures propagate
        ts = pt.t
        force = (
            p.mu * ts ** (p.q * p.gamma_q) * np.abs(v) ** (p.q - 2.0) * v
            + ts ** p.two_star * np.abs(v) ** (p.two_star - 2.0) * v
        )
        dual = ts ** 2 * (g.stiffness @ v) - W * force
        return pt.value, dual

    vals, iters, hit_tol, history = _descend(
        g, vals, p, opts, eval_fn, value_progress=False
    )

    # re-center on the fiber maximum (Newton initial guess only), then
    # refine on the plain Euler-Lagrange system at fixed grid
    pt = manifold_projection(stiff_bundle(g, vals, p), p)
    if abs(pt.t - 1.0) > 1e-12:
        vals = fiber_scale(RadialFunction(g, vals), pt.t).values
        vals = _retract(W, np.asarray(vals, dtype=float), p.c)
    vals, _ = _newton_polish(g, vals, p, 0.1 * opts.grad_tol)
    u = RadialFunction(g, vals)
    erep = energy_report(u, p)
    converged = bool(
        erep.kkt_residual <= opts.grad_tol
        and abs(erep.mass - p.c) <= 1e-10 * p.c
    )
    return SolutionReport(u, erep, "minimax_ground_state", iters, converged, history)


# ----------------------------------------------------------------------------
# mountain-pass path
# ----------------------------------------------------------------------------

@dataclass
class MountainPassReport:
    t_grid: np.ndarray
    energies: np.ndarray
    base_level: float          # Phi at the t=0 endpoint (the local minimizer)
    level_estimate: float      # max over the path: upper estimate of the pass
    t_at_max: float
    t_hat: float               # first t with Phi < 2 * base_level
    mass_err_max: float


def mountain_pass_path(p, u_minus, bubble, t_grid=None):
    """The dilation path t -> W_t from the local minimizer toward collapse.

    W_t is the mass-c dilation of u_minus + t * bubble (see `superpose`).
    u_minus must lie on the mass sphere (to 1e-6 relative), so the path
    starts at u_minus, exactly when its mass is c to roundoff.  The path
    maximum is an upper estimate of the mountain-pass level, and t_hat
    marks where the energy first drops below twice the (negative) base
    level -- the admissible endpoint for the minimax class.

    The energies take the cross-term route: the mass and stiffness form of
    u_minus + t * bubble are quadratic in t, so one pass over the shared
    grid (two sparse matvecs) fixes them for every t, and the dilation laws
    carry the norms over to W_t without building it.  Each t then costs
    O(M) vector work; no grid or stiffness matrix is built.  mass_err_max
    is the largest relative gap between the quadratic mass that sets the
    dilation and the direct quadrature of (u_minus + t * bubble)^2.
    """
    if not p.mass_subcritical:
        raise HypothesisError("the mountain-pass path lives below q = 2 + 4/N")
    if abs(mass(u_minus) - p.c) > 1e-6 * p.c:
        raise ParameterError(
            f"u_minus mass {mass(u_minus):g} is off the target sphere c = {p.c:g}"
        )
    if t_grid is None:
        t_grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 400)])
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if not np.all(t_grid >= 0.0):
            raise ParameterError("superposition weights must be nonnegative")
        if t_grid[0] != 0.0:
            t_grid = np.concatenate([[0.0], t_grid])

    cross = _build_cross(p, u_minus, bubble, c=p.c)
    energies = np.empty_like(t_grid)
    mass_err = 0.0
    for k, t in enumerate(t_grid):
        nb = _superposition_bundle(p, cross, float(t))
        energies[k] = fiber_energy(nb, p, 1.0)
        mass_err = max(mass_err, abs(nb.mass - p.c) / p.c)

    base = float(energies[0])
    below = np.flatnonzero(energies < 2.0 * base)
    if below.size == 0:
        k_min = int(np.argmin(energies))
        raise ScanExhaustedError(
            f"no path point has energy below 2*base = {2.0 * base:.6g}; "
            f"the path minimum is {energies[k_min]:.6g} at t = {t_grid[k_min]:.4g} "
            f"-- extend the t-grid upward"
        )
    k_max = int(np.argmax(energies))
    return MountainPassReport(
        t_grid=t_grid,
        energies=energies,
        base_level=base,
        level_estimate=float(energies[k_max]),
        t_at_max=float(t_grid[k_max]),
        t_hat=float(t_grid[below[0]]),
        mass_err_max=float(mass_err),
    )

