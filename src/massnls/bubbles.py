"""Instanton-based test-function families and energy-threshold scans.

Two explicit radial families built from the Aubin–Talenti profile with
amplitude A_N = [N(N-2)]^((N-2)/4):

* the truncated family (parameter n): instanton core A_N (n/(1+n^2 r^2))^((N-2)/2)
  on [0,1), matched linear cutoff A_N (n/(1+n^2))^((N-2)/2) (2-r) on [1,2),
  zero beyond;

* the mass-normalized family (parameters n, c): same core up to r = n^(2/3),
  then a linear ramp down to zero at a radius R_n > n^(2/3) chosen so the
  total mass is exactly c.

All four norms of both families have closed forms obtained by splitting core
(substitution s = n r) from annulus (polynomial moments); these model values
are computed here independently of the grid quadrature and the two routes
are compared in the tests.  The superposition W(t) dilates u + t*U by the
factor tau = ||u + t U||_2 / sqrt(c), which restores mass c while leaving
the gradient and critical norms invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from .constants import instanton_amplitude, sobolev_constant
from .errors import (
    BracketError,
    HypothesisError,
    NoCriticalPointError,
    ParameterError,
    ResolutionError,
)
from .functionals import (
    NormBundle,
    _check_mu_below_alpha,
    _GridPass,
    energy,
    fiber_energy,
    problem,
    stiff_bundle,
)
from .grid import (
    RadialFunction,
    RadialGrid,
    grid_from_nodes,
    mass,
    pchip_resample,
    sphere_area,
)
from .manifold import manifold_projection

__all__ = [
    "truncated_instanton",
    "mass_normalized_instanton",
    "solve_cutoff_radius",
    "cutoff_radius_asymptote",
    "core_mass",
    "normalized_family_min_n",
    "bubble_grid",
    "instanton_asymptotics",
    "AsymptoticsRow",
    "AsymptoticsTable",
    "truncated_norms_model",
    "normalized_norms_model",
    "superpose",
    "ScanRecord",
    "ScanResult",
    "threshold_scan_subcritical",
    "threshold_scan_critical",
]


# ----------------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------------

def bubble_grid(N, n, R_max, barrier_radii=(), core_intervals=1200, per_decade=800):
    """A grid resolving both the 1/n concentration core and the far field.

    Uniform spacing 2/(n*core_intervals) on [0, 2/n], geometric spacing with
    `per_decade` nodes per decade beyond, with the requested kink radii
    inserted as exact nodes/barriers.
    """
    if n < 1:
        raise ParameterError(f"concentration parameter must be >= 1, got {n}")
    r_core = 2.0 / n
    if R_max <= r_core:
        raise ParameterError(f"R_max = {R_max} does not cover the core 2/n")
    nodes = [np.linspace(0.0, r_core, core_intervals + 1)]
    decades = np.log10(R_max / r_core)
    m_geo = max(8, int(np.ceil(decades * per_decade)))
    nodes.append(np.geomspace(r_core, R_max, m_geo + 1)[1:])
    grid_nodes = np.unique(np.concatenate(nodes))
    # insert kink radii as exact nodes, evicting any non-kink node that
    # would leave a degenerate cell next to them
    for rb in barrier_radii:
        if not (0.0 < rb < R_max):
            raise ParameterError(f"kink radius {rb} outside (0, {R_max})")
        tol = 1e-10 * max(1.0, R_max)
        evict = (np.abs(grid_nodes - rb) <= tol) & (grid_nodes > 0.0) & (grid_nodes < R_max)
        grid_nodes = np.sort(np.append(grid_nodes[~evict], rb))
    return grid_from_nodes(N, grid_nodes, barrier_radii=tuple(sorted(barrier_radii)))


def _check_core_resolution(grid, n):
    sel = grid.nodes <= 1.0 / n
    if np.count_nonzero(sel) < 2:
        raise ResolutionError(
            f"grid has no interior nodes below 1/n = {1.0 / n:g}; "
            f"refusing unresolved bubble (n = {n})"
        )
    idx = np.flatnonzero(grid.nodes <= 1.0 / n)
    spacing = np.diff(grid.nodes[: idx[-1] + 2])
    worst = float(np.max(spacing))
    if worst > 0.1 / n:
        raise ResolutionError(
            f"node spacing {worst:g} near the origin exceeds 0.1/n = {0.1 / n:g} "
            f"(n = {n}); refine the grid"
        )


# ----------------------------------------------------------------------------
# profile evaluation
# ----------------------------------------------------------------------------

def _truncated_values(N, n, r):
    A = instanton_amplitude(N)
    p = (N - 2) / 2.0
    core = A * (n / (1.0 + n ** 2 * r ** 2)) ** p
    edge = A * (n / (1.0 + n ** 2)) ** p
    vals = np.where(r < 1.0, core, np.where(r < 2.0, edge * (2.0 - r), 0.0))
    return vals


def truncated_instanton(N, n, grid):
    """The compactly supported instanton truncation on [0, 2]."""
    if grid.R_max < 2.0 - 1e-12:
        raise ParameterError(
            f"grid ends at {grid.R_max}; the truncated profile extends to r = 2"
        )
    _check_core_resolution(grid, n)
    return RadialFunction(grid, _truncated_values(N, n, grid.nodes))


def _normalized_values(N, n, R_n, r):
    A = instanton_amplitude(N)
    p = (N - 2) / 2.0
    rho = float(n) ** (2.0 / 3.0)
    core = A * (n / (1.0 + n ** 2 * r ** 2)) ** p
    edge = A * (n / (1.0 + n ** 2 * rho ** 2)) ** p
    ramp = edge * (R_n - r) / (R_n - rho)
    return np.where(r < rho, core, np.where(r < R_n, ramp, 0.0))


def _normalized_grid(N, n, R_n, core_intervals=1200, per_decade=2000,
                     annulus_intervals=2400):
    """Grid tailored to the mass-c family: the ramp region gets uniform cells.

    The mass integrand on the ramp is a plain quadratic, so the nodal
    quadrature error there is ~ (N+1)(N+2)/(12 K^2) relative with K uniform
    cells -- a few thousand puts it well below the 1e-8 mass contract.
    Geometric cells would concentrate where nothing happens and leave the
    heavy r^(N-1) weight near R_n under-resolved.
    """
    rho = float(n) ** (2.0 / 3.0)
    r_core = 2.0 / n
    parts = [np.linspace(0.0, r_core, core_intervals + 1)]
    decades = np.log10(rho / r_core)
    m_geo = max(8, int(np.ceil(decades * per_decade)))
    parts.append(np.geomspace(r_core, rho, m_geo + 1)[1:])
    parts.append(np.linspace(rho, R_n, annulus_intervals + 1)[1:])
    nodes = np.unique(np.concatenate(parts))
    return grid_from_nodes(N, nodes, barrier_radii=(rho,))


def mass_normalized_instanton(N, c, n, grid=None):
    """The mass-c family: instanton core to n^(2/3), linear ramp to R_n.

    When no grid is passed one is built to cover [0, R_n] with the matching
    radius as an exact kink node.  The cutoff radius itself is available
    from solve_cutoff_radius(N, c, n).
    """
    R_n = solve_cutoff_radius(N, c, n)
    rho = float(n) ** (2.0 / 3.0)
    if grid is None:
        grid = _normalized_grid(N, n, R_n)
    else:
        if grid.R_max < R_n - 1e-12:
            raise ParameterError(
                f"grid ends at {grid.R_max} but the ramp reaches R_n = {R_n}"
            )
        _check_core_resolution(grid, n)
    u = RadialFunction(grid, _normalized_values(N, n, R_n, grid.nodes))
    got = mass(u)
    if abs(got - c) > 1e-8 * c:
        raise ResolutionError(
            f"quadrature mass {got!r} misses the target {c!r} beyond 1e-8 "
            f"relative (n = {n}); the grid under-resolves the profile"
        )
    return u


# ----------------------------------------------------------------------------
# closed-form norm models
# ----------------------------------------------------------------------------

def _xi_mass(N, x):
    """xi(x) = int_0^x s^(N-1) (1+s^2)^(2-N) ds (mass core integral)."""
    if N == 3:
        return x - np.arctan(x)
    if N == 4:
        return 0.5 * (np.log1p(x ** 2) + 1.0 / (1.0 + x ** 2) - 1.0)
    val, _ = quad(lambda s: s ** (N - 1) * (1.0 + s * s) ** (2 - N), 0.0, x,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def _tail_grad(N, x):
    """int_x^inf s^(N+1) (1+s^2)^(-N) ds.

    Mapped through w = 1/s onto the finite interval (0, 1/x]; the direct
    infinite-interval rule loses the tiny result to roundoff at large x.
    """
    val, _ = quad(lambda w: w ** (N - 3) * (1.0 + w * w) ** (-N), 0.0, 1.0 / x,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def _tail_crit(N, x):
    """int_x^inf s^(N-1) (1+s^2)^(-N) ds, mapped like _tail_grad."""
    val, _ = quad(lambda w: w ** (N - 1) * (1.0 + w * w) ** (-N), 0.0, 1.0 / x,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def _core_q(N, q, x):
    """int_0^x s^(N-1) (1+s^2)^(-q(N-2)/2) ds."""
    e = q * (N - 2) / 2.0
    val, _ = quad(lambda s: s ** (N - 1) * (1.0 + s * s) ** (-e), 0.0, x,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def _annulus_power(N, k, a, R):
    """int_a^R (R-r)^k r^(N-1) dr for any k > -1.

    Substituting x = R - r and expanding (R-x)^(N-1) binomially gives a
    finite sum in powers of the annulus width.  Unlike the naive expansion
    in powers of R this stays accurate when R - a << R, which is exactly
    where the cutoff-radius root finder probes.
    """
    w = R - a
    if w <= 0.0:
        return 0.0
    total = 0.0
    for i in range(N):
        total += comb(N - 1, i) * (-1.0) ** i * R ** (N - 1 - i) * w ** i / (k + i + 1.0)
    return w ** (k + 1.0) * total


def truncated_norms_model(N, n, q):
    """Exact (mass, grad_sq, lcrit, lq) of the truncated family.

    Core pieces reduce to one-dimensional integrals in s = n r; annulus
    pieces are polynomial moments.  The gradient and critical norms are
    assembled as S^(N/2) plus small corrections so no cancellation occurs.
    """
    A = instanton_amplitude(N)
    om = sphere_area(N)
    sob = sobolev_constant(N)
    two_star = 2.0 * N / (N - 2.0)
    edge2 = (n / (1.0 + n ** 2)) ** (N - 2)

    mass_v = om * A ** 2 * (_xi_mass(N, n) / n ** 2 + edge2 * _annulus_power(N, 2, 1.0, 2.0))
    grad_v = sob.S_pow + om * A ** 2 * (
        -((N - 2) ** 2) * _tail_grad(N, n) + edge2 * (2 ** N - 1) / N
    )
    crit_v = sob.S_pow + om * (
        -(A ** two_star) * _tail_crit(N, n)
        + A ** two_star * edge2 ** (N / (N - 2.0)) * _annulus_power(N, two_star, 1.0, 2.0)
    )
    lq_v = om * A ** q * (
        n ** (-(2.0 * N - (N - 2.0) * q) / 2.0) * _core_q(N, q, n)
        + edge2 ** (q / 2.0) * _annulus_power(N, q, 1.0, 2.0)
    )
    return mass_v, grad_v, crit_v, lq_v


def _normalized_mass_model(N, n, R):
    A = instanton_amplitude(N)
    om = sphere_area(N)
    rho = float(n) ** (2.0 / 3.0)
    edge2 = (n / (1.0 + (n * rho) ** 2)) ** (N - 2)
    core = om * A ** 2 * _xi_mass(N, n * rho) / n ** 2
    ann = om * A ** 2 * edge2 * _annulus_power(N, 2, rho, R) / (R - rho) ** 2
    return core + ann


def normalized_norms_model(N, c, n):
    """Exact norms of the mass-c family member with concentration n.

    Returns a dict with the solved cutoff radius ``R_n``, the floats
    ``mass``, ``grad_sq`` and ``lcrit``, and a callable ``lq(q)`` giving
    ||u||_q^q.
    """
    A = instanton_amplitude(N)
    om = sphere_area(N)
    sob = sobolev_constant(N)
    two_star = 2.0 * N / (N - 2.0)
    R = solve_cutoff_radius(N, c, n)
    rho = float(n) ** (2.0 / 3.0)
    x = n * rho
    edge2 = (n / (1.0 + x ** 2)) ** (N - 2)

    grad_v = sob.S_pow + om * A ** 2 * (
        -((N - 2) ** 2) * _tail_grad(N, x)
        + edge2 * (R ** N - rho ** N) / (N * (R - rho) ** 2)
    )
    crit_v = sob.S_pow + om * A ** two_star * (
        -_tail_crit(N, x)
        + edge2 ** (N / (N - 2.0)) * _annulus_power(N, two_star, rho, R) / (R - rho) ** two_star
    )

    def lq_model(q):
        return om * A ** q * (
            n ** (-(2.0 * N - (N - 2.0) * q) / 2.0) * _core_q(N, q, x)
            + edge2 ** (q / 2.0) * _annulus_power(N, q, rho, R) / (R - rho) ** q
        )

    return {
        "R_n": R,
        "mass": _normalized_mass_model(N, n, R),
        "grad_sq": grad_v,
        "lcrit": crit_v,
        "lq": lq_model,
    }


# ----------------------------------------------------------------------------
# cutoff radius
# ----------------------------------------------------------------------------

def cutoff_radius_asymptote(N, c, n):
    """Large-n model R_n ~ [N(N+1)(N+2) c / (2 omega_N A_N^2)]^(1/N) n^(7(N-2)/3N)."""
    A = instanton_amplitude(N)
    om = sphere_area(N)
    const = (N * (N + 1) * (N + 2) * c / (2.0 * om * A ** 2)) ** (1.0 / N)
    return const * float(n) ** (7.0 * (N - 2) / (3.0 * N))


def core_mass(N, n):
    """Mass carried by the instanton core alone, out to r = n^(2/3)."""
    A = instanton_amplitude(N)
    om = sphere_area(N)
    return om * A ** 2 * _xi_mass(N, float(n) ** (5.0 / 3.0)) / float(n) ** 2


def normalized_family_min_n(N, c):
    """Smallest n for which the mass-c ramped family exists.

    The ramp only ever adds mass, so a cutoff radius exists iff the core
    mass is strictly below c.  For N = 3 the core decays like n^(-1/3)
    with a large constant, so this bound is far from trivial: c = 1 needs
    n in the tens of thousands.
    """
    if c <= 0.0:
        raise ParameterError(f"target mass must be positive, got {c}")
    for n in range(1, 9):
        if core_mass(N, n) < c:
            return n
    lo, hi = 8, 16
    while core_mass(N, hi) >= c:
        lo, hi = hi, hi * 2
        if hi > 2 ** 60:
            raise BracketError(f"no admissible n below 2^60 for c = {c}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if core_mass(N, mid) < c:
            hi = mid
        else:
            lo = mid
    return hi


def solve_cutoff_radius(N, c, n):
    """Radius R_n > n^(2/3) at which the ramped profile carries mass c.

    Solves the closed-form mass equation by bracketed root finding.  The
    ramp contributes strictly positive mass, so no cutoff exists when the
    core alone already reaches c; that case raises BracketError rather
    than returning a spurious near-degenerate root.
    """
    if c <= 0.0:
        raise ParameterError(f"target mass must be positive, got {c}")
    rho = float(n) ** (2.0 / 3.0)
    core = core_mass(N, n)
    if core >= c:
        raise BracketError(
            f"instanton core out to n^(2/3) already carries mass {core:.6g} "
            f">= c = {c:g} at n = {n}; no cutoff radius exists "
            f"(smallest admissible n is {normalized_family_min_n(N, c)})"
        )
    f = lambda R: _normalized_mass_model(N, n, R) - c
    lo = rho * (1.0 + 1e-6)
    shrink = 0
    while f(lo) >= 0.0 and shrink < 4:
        lo = rho * (1.0 + (lo / rho - 1.0) * 1e-3)
        shrink += 1
    hi = max(cutoff_radius_asymptote(N, c, n), 2.0 * rho)
    grow = 0
    while f(hi) < 0.0 and grow < 60:
        hi *= 2.0
        grow += 1
    flo, fhi = f(lo), f(hi)
    if flo >= 0.0 or fhi < 0.0:
        raise BracketError(
            f"no sign change for the mass equation on [{lo:g}, {hi:g}]: "
            f"endpoint residuals ({flo:g}, {fhi:g}); n = {n}, c = {c}"
        )
    return float(brentq(f, lo, hi, xtol=1e-13 * hi, rtol=4 * np.finfo(float).eps))


# ----------------------------------------------------------------------------
# asymptotic tables
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticsRow:
    n: int
    mass: float
    grad_sq: float
    lcrit: float
    lq: float
    mass_model: float
    grad_model: float
    crit_model: float
    lq_model: float


@dataclass
class AsymptoticsTable:
    N: int
    q: float
    rows: list
    slopes: dict = field(default_factory=dict)
    model_slopes: dict = field(default_factory=dict)

    def max_model_mismatch(self):
        worst = 0.0
        for r in self.rows:
            for got, want in (
                (r.mass, r.mass_model),
                (r.grad_sq, r.grad_model),
                (r.lcrit, r.crit_model),
                (r.lq, r.lq_model),
            ):
                worst = max(worst, abs(got - want) / max(1e-300, abs(want)))
        return worst


def _fit_slope(ns, ys):
    ns = np.asarray(ns, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = ys > 0.0
    if np.count_nonzero(good) < 2:
        return float("nan")
    coef = np.polyfit(np.log(ns[good]), np.log(ys[good]), 1)
    return float(coef[0])


def instanton_asymptotics(N, q, n_list, grid=None):
    """Norm table of the truncated family with log-log decay slopes.

    Each row carries both the grid-quadrature norms and the closed-form
    model values.  Slopes are least-squares fits over n_list with the
    smallest n discarded (pre-asymptotic), for the quantities
    mass, |grad_sq - S^(N/2)|, |lcrit - S^(N/2)|, lq.
    """
    n_list = sorted(int(n) for n in n_list)
    if grid is None:
        grid = bubble_grid(N, max(n_list), 2.0, barrier_radii=(1.0,))
    p = problem(N, 1.0, 1.0, q)
    sob = sobolev_constant(N)

    def row(n):
        u = truncated_instanton(N, n, grid)
        nb = stiff_bundle(u.grid, u.values, p)
        m_m, g_m, c_m, q_m = truncated_norms_model(N, n, q)
        return AsymptoticsRow(n, nb.mass, nb.grad_sq, nb.lcrit, nb.lq, m_m, g_m, c_m, q_m)

    rows = [row(n) for n in n_list]

    table = AsymptoticsTable(N, q, rows)
    ns = [r.n for r in rows][1:]
    table.slopes = {
        "mass": _fit_slope(ns, [r.mass for r in rows][1:]),
        "grad_dev": _fit_slope(ns, [abs(r.grad_sq - sob.S_pow) for r in rows][1:]),
        "crit_dev": _fit_slope(ns, [abs(r.lcrit - sob.S_pow) for r in rows][1:]),
        "lq": _fit_slope(ns, [r.lq for r in rows][1:]),
    }
    table.model_slopes = {
        "mass": _fit_slope(ns, [r.mass_model for r in rows][1:]),
        "grad_dev": _fit_slope(ns, [abs(r.grad_model - sob.S_pow) for r in rows][1:]),
        "crit_dev": _fit_slope(ns, [abs(r.crit_model - sob.S_pow) for r in rows][1:]),
        "lq": _fit_slope(ns, [r.lq_model for r in rows][1:]),
    }
    return table


# ----------------------------------------------------------------------------
# superposition
# ----------------------------------------------------------------------------

def superpose(u_c, U_n, t, c=None):
    """W(t): the mass-restoring dilation of u_c + t U_n, built explicitly.

    tau = ||u_c + t U_n||_2 / sqrt(c); W(x) = tau^((N-2)/2) (u_c + t U_n)(tau x).
    This dilation leaves the gradient and critical norms of the sum invariant
    and rescales the mass back to c.  Both profiles must live on one grid.

    The dilation is applied to the *grid*, not the samples: W is returned on
    a fresh grid with nodes r/tau, where its values are known in closed form.
    Quadrature weights and the Dirichlet form are homogeneous in the node
    positions, so the discrete mass of W is exactly c and no interpolation
    error enters.  Every norm of W then costs a new grid (and, for the
    kinetic term, a new stiffness matrix), so the subcritical scan and the
    mountain-pass path use the cross-term route (`_build_cross`,
    `_superposition_bundle`) instead; this construction is the reference
    that route is tested against.
    """
    if t < 0.0:
        raise ParameterError(f"superposition weight must be nonnegative, got {t}")
    if not u_c.grid.same_layout(U_n.grid):
        raise ParameterError("superpose needs both profiles on one grid")
    if c is None:
        c = mass(u_c)
    v = u_c.values + t * U_n.values
    vsum = RadialFunction(u_c.grid, v)
    tau = np.sqrt(mass(vsum) / c)
    if abs(tau - 1.0) < 1e-12:
        return vsum
    g = u_c.grid
    scaled = RadialGrid(
        g.N,
        g.nodes / tau,
        g.weights / tau ** g.N,
        tuple(b / tau for b in g.barriers),
    )
    return RadialFunction(scaled, tau ** ((g.N - 2) / 2.0) * v)


def _build_cross(p, u_c, U_n, c):
    """The pieces of u_c + t U_n that the superposition norms need at every t.

    Mass and stiffness form are quadratic in t, so three coefficients each
    (two sparse matvecs, six dot products on the shared grid) fix them for
    every t.  The Lebesgue norms are not polynomial in t; the "lebesgue"
    callable takes them, with the direct mass, in one O(M) `_GridPass`
    without the stiffness per t.
    c is the target mass of W(t).
    """
    if not u_c.grid.same_layout(U_n.grid):
        raise ParameterError("the superposition needs both profiles on one grid")
    g = u_c.grid
    W = g.omega_N * g.weights
    u, U = u_c.values, U_n.values
    Ku = g.stiffness @ u

    def lebesgue(t):
        nb = _GridPass(g, u + t * U, p, W, stiffness=False).bundle
        return nb.mass, nb.lq, nb.lcrit

    return {
        "c": float(c),
        "m_a": float(W @ (u * u)),
        "m_x": float(W @ (u * U)),
        "m_b": float(W @ (U * U)),
        "g_a": float(u @ Ku),
        "g_x": float(U @ Ku),
        "g_b": float(U @ (g.stiffness @ U)),
        "lebesgue": lebesgue,
    }


def _superposition_bundle(p, cross, t):
    """Norms of W(t) from the `_build_cross` pieces, by the exact dilation laws.

    With v = u_c + t U_n and m(t) its quadratic mass, tau^2 = m(t)/c; the
    gradient and critical norms of W(t) are those of v and
    ||W(t)||_q^q = tau^(((N-2)q-2N)/2) ||v||_q^q.  The mass returned is the
    discrete mass of W(t), c (W @ v^2) / m(t): it differs from c only by
    the roundoff of the quadratic expansion.
    """
    m_v = cross["m_a"] + 2.0 * t * cross["m_x"] + t * t * cross["m_b"]
    g_v = cross["g_a"] + 2.0 * t * cross["g_x"] + t * t * cross["g_b"]
    m_d, lq_v, lc_v = cross["lebesgue"](t)
    tau2 = m_v / cross["c"]
    # exponent of tau in the q-norm law: ((N-2) q - 2 N)/2
    e_q = ((p.N - 2) * p.q - 2.0 * p.N) / 2.0
    return NormBundle(cross["c"] * m_d / m_v, g_v, tau2 ** (e_q / 2.0) * lq_v, lc_v)


# ----------------------------------------------------------------------------
# threshold scans
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRecord:
    n: int
    mass: float
    grad_sq: float
    lcrit: float
    lq: float
    sup_t: float
    threshold: float
    passed: bool
    t_at_sup: float
    note: str = ""


@dataclass
class ScanResult:
    records: list
    threshold: float
    first_pass: int | None

    def passing(self):
        return [r.n for r in self.records if r.passed]


# coarse grid of superposition weights; the sup over t is refined from its
# argmax in s = log t
_T_GRID = np.geomspace(1e-3, 1e3, 25)


def threshold_scan_subcritical(p, u_c, n_list):
    """Mountain-pass threshold scan for the mass-subcritical regime.

    For each n the truncated bubble U_n is superposed with the valley
    profile u_c, which must lie on the mass sphere c = p.c (to 1e-6
    relative).  W(t) is the mass-c dilation of u_c + t U_n, and the sup
    over t of its energy is compared against Phi(u_c) + S^(N/2)/N.  The sup
    is taken on 25 log-spaced weights in [1e-3, 1e3], then refined by one
    bounded Brent maximization in s = log t over the two cells around the
    grid argmax.  An n whose grid argmax is an end of that range has no
    interior maximum in it and gives a diagnostic non-passing row (sup_t
    NaN, the reason in `note`).  Records are returned in n order together
    with the first passing n (if any).
    """
    if not p.mass_subcritical:
        raise HypothesisError("the superposition scan applies below q = 2+4/N")
    if abs(mass(u_c) - p.c) > 1e-6 * p.c:
        raise ParameterError(f"u_c mass {mass(u_c):g} is off the target sphere c = {p.c:g}")
    sob = sobolev_constant(p.N)
    m_c = energy(u_c, p)
    threshold = m_c + sob.S_pow / p.N
    n_list = sorted(int(n) for n in n_list)
    s_grid = np.log(_T_GRID)
    nan = float("nan")

    def record(n):
        R_max = max(u_c.grid.R_max, 2.0)
        g = bubble_grid(p.N, n, R_max, barrier_radii=(1.0, 2.0))
        uc_g = pchip_resample(u_c, g)
        U = truncated_instanton(p.N, n, g)
        cross = _build_cross(p, uc_g, U, c=p.c)

        def phi(t):
            nb = _superposition_bundle(p, cross, t)
            return float(fiber_energy(nb, p, 1.0))

        vals = [phi(t) for t in _T_GRID]
        k = int(np.argmax(vals))
        if k in (0, len(_T_GRID) - 1):
            return ScanRecord(
                n, nan, nan, nan, nan, nan, threshold, False, nan,
                note=f"the energy of W(t) peaks at the end t = {_T_GRID[k]:g} of "
                f"[{_T_GRID[0]:g}, {_T_GRID[-1]:g}]; no interior maximum",
            )
        res = minimize_scalar(
            lambda s: -phi(np.exp(s)), bounds=(s_grid[k - 1], s_grid[k + 1]),
            method="bounded", options={"xatol": 1e-10},
        )
        t_best, sup_v = float(np.exp(res.x)), -float(res.fun)
        if vals[k] > sup_v:
            t_best, sup_v = float(_T_GRID[k]), vals[k]
        nb = _superposition_bundle(p, cross, t_best)
        return ScanRecord(
            n, float(nb.mass), float(nb.grad_sq), float(nb.lcrit), float(nb.lq),
            sup_v, threshold, bool(sup_v < threshold), t_best,
        )

    records = [record(n) for n in n_list]
    first = next((r.n for r in records if r.passed), None)
    return ScanResult(records, threshold, first)


def threshold_scan_critical(p, n_list):
    """Dilation threshold scan for q >= 2+4/N using the mass-c family.

    For each n the sup over dilations of the fiber energy of the mass-c
    bubble, its exact fiber maximum, is compared against S^(N/2)/N.  An n
    where the family does not exist or its fiber has no maximum gives a
    diagnostic non-passing row (sup_t NaN, the reason in `note`).
    """
    if p.mass_subcritical:
        raise HypothesisError("the dilation scan applies at and above q = 2+4/N")
    _check_mu_below_alpha(p)
    sob = sobolev_constant(p.N)
    threshold = sob.S_pow / p.N
    n_list = sorted(int(n) for n in n_list)
    nan = float("nan")

    def record(n):
        try:
            u = mass_normalized_instanton(p.N, p.c, n)
        except BracketError as exc:
            # the family does not exist at this n (core mass >= c);
            # report a diagnostic non-passing row instead of aborting the scan
            return ScanRecord(n, nan, nan, nan, nan, nan, threshold, False, nan,
                              note=str(exc))
        nb = stiff_bundle(u.grid, u.values, p)
        try:
            pt = manifold_projection(nb, p)
        except NoCriticalPointError as exc:
            return ScanRecord(
                n, float(nb.mass), float(nb.grad_sq), float(nb.lcrit), float(nb.lq),
                nan, threshold, False, nan, note=str(exc),
            )
        return ScanRecord(
            n, float(nb.mass), float(nb.grad_sq), float(nb.lcrit), float(nb.lq),
            float(pt.value), threshold, bool(pt.value < threshold), float(pt.t),
        )

    records = [record(n) for n in n_list]
    first = next((r.n for r in records if r.passed), None)
    return ScanResult(records, threshold, first)
