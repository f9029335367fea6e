"""Instanton-based test-function families and energy-threshold scans.

Both families are one ramped profile built from the Aubin–Talenti bubble
with amplitude A_N = [N(N-2)]^((N-2)/4) and concentration n: the instanton
core A_N (n/(1+n^2 r^2))^((N-2)/2) on [0, rho), then a linear ramp from its
value at the kink rho down to zero at the support end R, zero beyond.

* the truncated family (parameter n) has rho = 1 and R = 2;

* the mass-normalized family (parameters n, c) has rho = n^(2/3) and the
  R_n > rho at which the total mass is exactly c.

All four norms of the ramped profile have closed forms obtained by
splitting core (substitution s = n r) from ramp.  Each core piece is an
incomplete beta function of s^2/(1+s^2), evaluated directly or through its
complement so that no tail is lost to rounding; the N = 3, 4 mass is
elementary, and only the L^q core at N = 3, q <= 3, which diverges with
its cutoff, is integrated by quadrature.  Each ramp norm is a
polynomial in the ramp width w = R - rho with positive coefficients, so it
is summed without cancellation however narrow or wide the ramp, and the
mass equation that fixes R_n has one root that Newton reaches from above.
These model values are computed here independently of the grid quadrature
and the two routes are compared in the tests.  The superposition W(t) dilates
u + t*U by the factor tau = ||u + t U||_2 / sqrt(c), which restores mass c
while leaving the gradient and critical norms invariant.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .constants import instanton_amplitude, sobolev_constant
from .errors import (
    BracketError,
    ConvergenceError,
    HypothesisError,
    NoCriticalPointError,
    ParameterError,
    ResolutionError,
    _integer,
    _plain,
    _positive,
    _real,
)
from .functionals import (
    NormBundle,
    _check_mass,
    _check_mu_below_alpha,
    energy,
    fiber_energy,
)
from .grid import (
    RadialFunction,
    RadialGrid,
    _dot,
    _pchip,
    _row_dots,
    _stiff_apply,
    grid_from_nodes,
    mass,
    sphere_area,
)
from .manifold import manifold_projection

__all__ = [
    "truncated_instanton",
    "mass_normalized_instanton",
    "solve_cutoff_radius",
    "core_mass",
    "normalized_family_min_n",
    "bubble_grid",
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

def _core_nodes(n, r_end, per_decade):
    """1200 uniform cells on the core [0, 2/n], then geometric spacing with
    `per_decade` nodes per decade out to r_end, as a list of node arrays for
    the caller's one concatenation."""
    r_core = 2.0 / n
    m_geo = max(8, int(np.ceil(np.log10(r_end / r_core) * per_decade)))
    return [np.linspace(0.0, r_core, 1201), np.geomspace(r_core, r_end, m_geo + 1)[1:]]


# The memo of `bubble_grid` keeps the last _GRID_MEMO_SIZE grids asked for.
# The traffic it serves: a subcritical scan asks for one grid per n (at most
# 6 distinct on the benchmark's n = 8..256), a valley-path op for one of 3
# (n = 32, 64, 128, the same keys as the scan's), `concentration_init` for 1.
# Those grids have 3,000-4,300 nodes and hold 100-140 KB with their
# stiffness, 170-240 KB once the derivative is built too, so a full memo
# stays under 2 MB.
_GRID_MEMO_SIZE = 8


def bubble_grid(N, n, R_max, barrier_radii=()):
    """A grid resolving both the 1/n concentration core and the far field.

    Uniform spacing 2/(1200 n) on [0, 2/n], geometric spacing with 800
    nodes per decade beyond, with the requested kink radii inserted as
    exact nodes/barriers.

    The grid is shared and immutable: arguments that agree as floats (n as
    64, 64.0 or np.int64(64); barrier radii in any order or container) give
    the same RadialGrid object while it stays among the last
    `_GRID_MEMO_SIZE` grids asked for, so its stiffness is built once.
    The arguments are checked before the memo is consulted.
    """
    N = _integer("dimension N", N, 3)
    n = _real("concentration parameter n", n)
    R_max = _real("R_max", R_max)
    if not n >= 1:
        raise ParameterError(f"concentration parameter must be >= 1, got {n}")
    if not R_max > 2.0 / n:
        raise ParameterError(f"R_max = {R_max} does not cover the core 2/n")
    barriers = sorted(_real("kink radius", rb) for rb in barrier_radii)
    if barriers and not 0.0 < barriers[0] <= barriers[-1] < R_max:
        raise ParameterError(f"kink radii {barriers} are not all inside (0, {R_max})")
    return _bubble_grid(N, n, R_max, tuple(barriers))


@functools.lru_cache(maxsize=_GRID_MEMO_SIZE)
def _bubble_grid(N, n, R_max, barriers):
    """`bubble_grid` on checked float arguments, barriers sorted, memoized."""
    grid_nodes = np.concatenate(_core_nodes(n, R_max, per_decade=800))
    # insert kink radii as exact nodes, evicting any non-kink node that
    # would leave a degenerate cell next to them
    tol = 1e-10 * max(1.0, R_max)
    for rb in barriers:
        evict = (np.abs(grid_nodes - rb) <= tol) & (grid_nodes > 0.0) & (grid_nodes < R_max)
        grid_nodes = np.sort(np.append(grid_nodes[~evict], rb))
    return grid_from_nodes(N, grid_nodes, barrier_radii=barriers)


def _normalized_grid(N, n, R_n):
    """Grid tailored to the mass-c family: the ramp region gets uniform cells.

    The core nodes are those of `bubble_grid` with 2000 geometric nodes per
    decade out to the kink n^(2/3).  The mass integrand on the ramp is a
    plain quadratic, so the nodal quadrature error there is
    ~ (N+1)(N+2)/(12 K^2) relative with K uniform cells -- the 2400 used
    here put it well below the 1e-8 mass contract.  Geometric cells would
    concentrate where nothing happens and leave the heavy r^(N-1) weight
    near R_n under-resolved.
    """
    rho = float(n) ** (2.0 / 3.0)
    r_core = 2.0 / n
    if not r_core < rho:
        raise ParameterError(
            f"the core 2/n = {r_core:g} reaches the kink n^(2/3) = {rho:g} "
            f"(n = {n}); the mass-c family grid needs n >= 2"
        )
    nodes = np.concatenate(
        _core_nodes(n, rho, per_decade=2000) + [np.linspace(rho, R_n, 2401)[1:]]
    )
    return grid_from_nodes(N, nodes, barrier_radii=(rho,))


# ----------------------------------------------------------------------------
# the ramped profile
# ----------------------------------------------------------------------------

def _integer_n(n):
    """n as an int, or ParameterError unless it is an integer >= 1."""
    if isinstance(n, numbers.Real) and math.isfinite(n) and n == int(n) >= 1:
        return int(n)
    raise ParameterError(f"concentration n must be an integer >= 1, got {n!r}")


def _ramped_values(N, n, rho, R, r):
    """Instanton core on [0, rho), linear ramp to zero on [rho, R), zero beyond."""
    A = instanton_amplitude(N)
    p = (N - 2) / 2.0
    core = A * (n / (1.0 + n ** 2 * r ** 2)) ** p
    edge = A * (n / (1.0 + n ** 2 * rho ** 2)) ** p
    ramp = edge * (R - r) / (R - rho)
    return np.where(r < rho, core, np.where(r < R, ramp, 0.0))


def _ramped_instanton(N, n, rho, R, grid):
    """The ramped profile on a grid that reaches R and resolves the 1/n core."""
    if grid.R_max < R - 1e-12:
        raise ParameterError(f"grid ends at {grid.R_max} but the profile reaches r = {R}")
    k = int(np.searchsorted(grid.nodes, 1.0 / n, side="right"))  # nodes <= 1/n
    if k < 2:
        raise ResolutionError(
            f"grid has no interior nodes below 1/n = {1.0 / n:g}; "
            f"refusing unresolved bubble (n = {n})"
        )
    worst = float(np.max(np.diff(grid.nodes[: k + 1])))
    if worst > 0.1 / n:
        raise ResolutionError(
            f"node spacing {worst:g} near the origin exceeds 0.1/n = {0.1 / n:g} "
            f"(n = {n}); refine the grid"
        )
    return RadialFunction(grid, _ramped_values(N, n, rho, R, grid.nodes))


def truncated_instanton(N, n, grid):
    """The compactly supported instanton truncation: kink 1, support [0, 2]."""
    _integer("dimension N", N, 3)
    _positive("concentration n", n)
    return _ramped_instanton(N, n, 1.0, 2.0, grid)


def mass_normalized_instanton(N, c, n, grid=None):
    """The mass-c family: instanton core to n^(2/3), linear ramp to R_n.

    When no grid is passed one is built to cover [0, R_n] with the matching
    radius as an exact kink node.  The cutoff radius itself is available
    from solve_cutoff_radius(N, c, n).
    """
    R_n = solve_cutoff_radius(N, c, n)
    if grid is None:
        grid = _normalized_grid(N, n, R_n)
    u = _ramped_instanton(N, n, float(n) ** (2.0 / 3.0), R_n, grid)
    got = mass(u)
    if abs(got - c) > 1e-8 * c:
        raise ResolutionError(
            f"quadrature mass {got!r} misses the target {c!r} beyond 1e-8 "
            f"relative (n = {n}); the grid under-resolves the profile"
        )
    return u


# ----------------------------------------------------------------------------
# closed-form norm model
# ----------------------------------------------------------------------------

def _core_integral(m, e, x):
    """J(m, e, x) = int_0^x s^m (1+s^2)^(-e) ds.

    With a = (m+1)/2 and b = e - a > 0, the substitution u = s^2/(1+s^2)
    makes J an incomplete beta function: J = B(a, b) I_u(a, b)/2 at
    u = x^2/(1+x^2).  For x > 1 the complement I_u(a, b) = 1 - I_v(b, a)
    at v = 1/(1+x^2) is used instead, so 1 - u, which carries the tail
    int_x^inf, is never rounded.  Through s = 1/w that tail is
    J(2e - m - 2, e, 1/x), a finite interval.

    b <= 0 occurs only for the L^q core at N = 3, q <= 3.  There J diverges
    as x -> inf, B(a, b) is undefined, and the recurrence that raises e
    until b > 0 cancels near q = 3 (it loses 1.2e-9 relative at
    q = 3 - 1e-6, x = 1).  So that case is integrated: [0, min(x, 1)]
    directly and [1, x] in y = log s, where the integrand stays smooth
    however far x reaches; one rule over [0, x] misses the peak near s = 1
    at large x.
    """
    a = (m + 1) / 2.0
    b = e - a
    if b > 0.0:
        from scipy.special import beta, betainc

        x2 = x * x
        if x > 1.0:
            return 0.5 * float(beta(a, b)) * (1.0 - float(betainc(b, a, 1.0 / (1.0 + x2))))
        return 0.5 * float(beta(a, b)) * float(betainc(a, b, x2 / (1.0 + x2)))

    from scipy.integrate import quad

    def integral(g, a, b):
        return quad(g, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    val = integral(lambda s: s ** m * (1.0 + s * s) ** (-e), 0.0, min(x, 1.0))
    if x > 1.0:
        val += integral(lambda y: math.exp((m + 1) * y) * (1.0 + math.exp(2.0 * y)) ** (-e),
                        0.0, math.log(x))
    return val


def _xi_mass(N, x):
    """xi(x) = int_0^x s^(N-1) (1+s^2)^(2-N) ds (mass core integral)."""
    if N == 3:
        return x - np.arctan(x)
    if N == 4:
        return 0.5 * (np.log1p(x ** 2) + 1.0 / (1.0 + x ** 2) - 1.0)
    return _core_integral(N - 1, N - 2, x)


def _edge_sq(N, n, rho):
    """(u(rho)/A_N)^2 = (n/(1+(n rho)^2))^(N-2), the squared kink value."""
    return (n / (1.0 + (n * rho) ** 2)) ** (N - 2)


def _core_mass(N, n, x):
    """Mass of the instanton core out to r = x/n.  n is taken as a float, so
    an integer n of any type cannot wrap in n^2."""
    return sphere_area(N) * instanton_amplitude(N) ** 2 * _xi_mass(N, x) / float(n) ** 2


def _ramp_coeffs(N, rho, k):
    """c_j with int_rho^R ((R-r)/w)^k r^(N-1) dr = sum_j c_j w^(j+1), w = R - rho.

    Substituting y = r - rho and expanding (rho+y)^(N-1) binomially gives
    c_j = C(N-1, j) rho^(N-1-j) B(j+1, k+1), every one positive, with
    B(1, k+1) = 1/(k+1) and B(j+1, k+1) = B(j, k+1) j/(k+j+1).
    """
    coeffs, b = [], 1.0 / (k + 1.0)
    for j in range(N):
        coeffs.append(math.comb(N - 1, j) * rho ** (N - 1 - j) * b)
        b *= (j + 1) / (k + j + 2.0)
    return coeffs


def _ramp_poly(coeffs, w):
    """P(w) = sum_j coeffs[j] w^(j+1) and P'(w) by Horner; with positive
    coefficients no term cancels."""
    p = dp = 0.0
    for a in reversed(coeffs):
        dp = dp * w + p
        p = p * w + a
    return p * w, p + w * dp


def _ramp_moment(N, n, rho, R, k):
    """omega_N int_rho^R u^k r^(N-1) dr over the ramp of the ramped profile."""
    return (sphere_area(N) * instanton_amplitude(N) ** k * _edge_sq(N, n, rho) ** (k / 2.0)
            * _ramp_poly(_ramp_coeffs(N, rho, k), R - rho)[0])


def _ramped_norms(N, n, rho, R):
    """Exact (mass, grad_sq, lcrit, lq) of the ramped profile, lq(q) a callable.

    Core pieces are incomplete beta functions in s = n r (`_core_integral`);
    ramp pieces are positive polynomials in the ramp width R - rho
    (`_ramp_coeffs`).  The gradient and critical norms are assembled
    as S^(N/2) minus the core's tail plus the ramp, so no cancellation
    occurs.
    """
    A = instanton_amplitude(N)
    om = sphere_area(N)
    S_pow = sobolev_constant(N).S_pow
    two_star = 2.0 * N / (N - 2.0)
    x = n * rho

    mass_v = _core_mass(N, n, x) + _ramp_moment(N, n, rho, R, 2)
    # core tails: int_x^inf s^(N+1) (1+s^2)^(-N) ds, then with s^(N-1)
    grad_v = (S_pow - om * A ** 2 * (N - 2) ** 2 * _core_integral(N - 3, N, 1.0 / x)
              + A ** 2 * _edge_sq(N, n, rho) / (R - rho) ** 2 * _ramp_moment(N, n, rho, R, 0))
    crit_v = (S_pow - om * A ** two_star * _core_integral(N - 1, N, 1.0 / x)
              + _ramp_moment(N, n, rho, R, two_star))

    def lq_model(q):
        return (om * A ** q * n ** (-(2.0 * N - (N - 2.0) * q) / 2.0)
                * _core_integral(N - 1, q * (N - 2) / 2.0, x)
                + _ramp_moment(N, n, rho, R, q))

    return mass_v, grad_v, crit_v, lq_model


def truncated_norms_model(N, n, q):
    """Exact (mass, grad_sq, lcrit, lq) of the truncated family."""
    _integer("dimension N", N, 3)
    _positive("concentration n", n)
    mass_v, grad_v, crit_v, lq_model = _ramped_norms(N, n, 1.0, 2.0)
    return mass_v, grad_v, crit_v, lq_model(q)


def normalized_norms_model(N, c, n):
    """Exact norms of the mass-c family member with concentration n.

    Returns a dict with the solved cutoff radius ``R_n``, the floats
    ``mass``, ``grad_sq`` and ``lcrit``, and a callable ``lq(q)`` giving
    ||u||_q^q.  These are the continuum norms of the profile, and the rows
    of `threshold_scan_critical` are built from them.  The P1 norms of
    `mass_normalized_instanton` on its grid are a discretization of these
    values with an order-2 error; the tests hold that route as the oracle.
    Raises BracketError, through `solve_cutoff_radius`, when the family
    does not exist at n.
    """
    R = solve_cutoff_radius(N, c, n)
    mass_v, grad_v, crit_v, lq_model = _ramped_norms(N, n, float(n) ** (2.0 / 3.0), R)
    return {"R_n": R, "mass": mass_v, "grad_sq": grad_v, "lcrit": crit_v, "lq": lq_model}


# ----------------------------------------------------------------------------
# cutoff radius
# ----------------------------------------------------------------------------

def _kink_core(N, n):
    """The kink rho = n^(2/3) and the core mass out to it, at x = n rho: the
    one value by which `core_mass`, the existence bound, `solve_cutoff_radius`
    and the critical scan decide whether the family exists at n."""
    n = float(n)
    rho = n ** (2.0 / 3.0)
    return rho, float(_core_mass(N, n, n * rho))


def core_mass(N, n):
    """Mass carried by the instanton core alone, out to r = n^(2/3)."""
    _integer("dimension N", N, 3)
    _positive("concentration n", n)
    return _kink_core(N, n)[1]


def normalized_family_min_n(N, c):
    """Smallest n for which the mass-c ramped family exists.

    The ramp only ever adds mass, so a cutoff radius exists iff the core
    mass is strictly below c.  For N = 3 the core decays like n^(-1/3)
    with a large constant, so this bound is far from trivial: c = 1 needs
    n in the tens of thousands.
    """
    _integer("dimension N", N, 3)
    _positive("target mass c", c)
    for n in range(1, 9):
        if _kink_core(N, n)[1] < c:
            return n
    lo, hi = 8, 16
    while _kink_core(N, hi)[1] >= c:
        lo, hi = hi, hi * 2
        if hi > 2 ** 60:
            raise BracketError(f"no admissible n below 2^60 for c = {c}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _kink_core(N, mid)[1] < c:
            hi = mid
        else:
            lo = mid
    return hi


def _no_cutoff(c, n, core, min_n):
    """Why the mass-c family does not exist at n, whose core carries `core`."""
    return (f"instanton core out to n^(2/3) already carries mass {core:.6g} "
            f">= c = {c:g} at n = {n}; no cutoff radius exists "
            f"(smallest admissible n is {min_n})")


# Newton steps of the cutoff solve: 2-7 were taken over N = 3..12, c from
# 1e-2 to 1e6 and every admissible power-of-two n up to 2^30
_NEWTON_STEPS = 20


def solve_cutoff_radius(N, c, n):
    """Radius R_n > n^(2/3) at which the ramped profile carries mass c.

    The ramp's mass is P(w) = sum_j a_j w^(j+1) in the ramp width
    w = R - n^(2/3), with every a_j > 0 (`_ramp_coeffs`).  So P is convex
    and increasing from P(0) = 0, and core + P(w) = c has exactly one root
    when the core alone carries less than c; no bracket is needed.  Each
    single-term root (target/a_j)^(1/(j+1)) lies above that root, and
    Newton from the smallest of them decreases monotonically to it; a step
    that no longer lowers w by more than 4 ulps ends it.  When the core
    already reaches c no cutoff exists, and that case raises BracketError
    rather than returning a spurious near-degenerate root.
    """
    _integer("dimension N", N, 3)
    _positive("target mass c", c)
    _positive("concentration n", n)
    rho, core = _kink_core(N, n)
    if core >= c:
        raise BracketError(_no_cutoff(c, n, core, normalized_family_min_n(N, c)))
    coeffs = _ramp_coeffs(N, rho, 2)
    target = (c - core) / (sphere_area(N) * instanton_amplitude(N) ** 2 * _edge_sq(N, n, rho))
    w = min((target / a) ** (1.0 / (j + 1)) for j, a in enumerate(coeffs))
    for _ in range(_NEWTON_STEPS):
        P, dP = _ramp_poly(coeffs, w)
        step = (P - target) / dP
        w -= step
        if step <= 4.0 * math.ulp(w):
            return rho + w
    raise ConvergenceError(
        f"cutoff radius: Newton took {_NEWTON_STEPS} steps without settling "
        f"(n = {n}, c = {c}, w = {w!r})"
    )


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
    kinetic term, a new stiffness form), so the subcritical scan and the
    mountain-pass path use the cross-term route (`_build_cross`,
    `_superposition_bundle`) instead, which takes all their weights in one
    blocked pass over the bubble's support; this construction is the
    reference that route is tested against.
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


# elements of one block of rows u_c + t U_n on the bubble's support: the block
# and the force power built from it (256 KB each) stay in a core's L2 cache
_BLOCK = 2 ** 15


def _build_cross(p, u_c, U_n, c):
    """The pieces of u_c + t U_n that the superposition norms need at every t.

    Mass and stiffness form are quadratic in t, so three coefficients each
    (two stiffness stencils, six dot products on the shared grid) fix them for
    every t.  The Lebesgue norms are not polynomial in t; the "lebesgue"
    callable takes them, with the direct mass, by quadrature.  Off the
    support of U_n the sum is u_c at every t, so those nodes are summed once
    here; on the support "lebesgue" forms one row u_c + t U_n per weight, in
    blocks of at most `_BLOCK` elements, and reduces each row with three
    dot products against the nodal volume weights (`grid._row_dots`, on one
    core).  A row's sums do not depend on the other rows of its block (a
    matrix-vector product would not), so the norms at a weight are the
    same to the last bit whether it comes alone or in an array.  It
    takes a scalar t (a block of one row, three floats back) or an array of
    weights (three arrays of its shape).  c is the target mass of W(t).

    The "lebesgue_dt" callable serves the Newton refinement of the sup over
    t.  At a scalar t it forms the one row v = u_c + t U_n on the support
    and one power |v|^(s-2) per exponent s in (q, 2*), and returns the five
    floats ||v||_q^q, d/dt ||v||_q^q, d^2/dt^2 ||v||_q^q,
    d/dt ||v||_{2*}^{2*}, d^2/dt^2 ||v||_{2*}^{2*}, from the sums
    sum W |v|^(s-2) {v^2, v U_n, U_n^2} times 1, s and s(s-1).  Off the
    support the norms do not move with t.
    """
    if not u_c.grid.same_layout(U_n.grid):
        raise ParameterError("the superposition needs both profiles on one grid")
    g = u_c.grid
    W = g.omega_N * g.weights
    u, U = u_c.values, U_n.values
    Ku = _stiff_apply(g.stiffness, u)
    e_q, e_c = (p.q - 2.0) / 2.0, (p.two_star - 2.0) / 2.0

    on = U != 0.0
    u_s, U_s, W_s = u[on], U[on], W[on]
    w2 = u[~on] ** 2
    W_o = W[~on]
    fixed = np.array([_dot(W_o, w2), _dot(W_o, w2 ** e_q * w2), _dot(W_o, w2 ** e_c * w2)])
    rows = max(1, _BLOCK // max(1, u_s.size))

    def lebesgue(t):
        t = np.asarray(t, dtype=float)
        ts = t.reshape(-1)
        sums = np.empty((3, ts.size))
        v2_buf = np.empty((min(rows, ts.size), u_s.size))
        f_buf = np.empty_like(v2_buf)
        for k in range(0, ts.size, rows):
            tk = ts[k:k + rows, None]
            v2, f = v2_buf[:tk.size], f_buf[:tk.size]
            np.multiply(tk, U_s, out=v2)
            v2 += u_s
            v2 *= v2
            sums[0, k:k + rows] = _row_dots(v2, W_s)
            for i, e in ((1, e_q), (2, e_c)):
                np.power(v2, e, out=f)
                f *= v2
                sums[i, k:k + rows] = _row_dots(f, W_s)
        sums += fixed[:, None]
        if t.ndim == 0:
            return tuple(float(s[0]) for s in sums)
        return tuple(s.reshape(t.shape) for s in sums)

    WU_s = W_s * U_s
    WU2_s = WU_s * U_s
    q, two_star = p.q, p.two_star

    def lebesgue_dt(t):
        v = t * U_s
        v += u_s
        v2 = v * v
        vWU = v * WU_s
        pw_q, pw_c = v2 ** e_q, v2 ** e_c
        return (fixed[1] + _dot(pw_q * v2, W_s),
                q * _dot(pw_q, vWU), q * (q - 1.0) * _dot(pw_q, WU2_s),
                two_star * _dot(pw_c, vWU), two_star * (two_star - 1.0) * _dot(pw_c, WU2_s))

    return {
        "c": float(c),
        "m_a": _dot(W, u * u),
        "m_x": _dot(W, u * U),
        "m_b": _dot(W, U * U),
        "g_a": _dot(u, Ku),
        "g_x": _dot(U, Ku),
        "g_b": _dot(U, _stiff_apply(g.stiffness, U)),
        "lebesgue": lebesgue,
        "lebesgue_dt": lebesgue_dt,
    }


def _superposition_bundle(p, cross, t):
    """Norms of W(t) from the `_build_cross` pieces, by the exact dilation laws.

    With v = u_c + t U_n and m(t) its quadratic mass, tau^2 = m(t)/c; the
    gradient and critical norms of W(t) are those of v and
    ||W(t)||_q^q = tau^(((N-2)q-2N)/2) ||v||_q^q.  The mass returned is the
    discrete mass of W(t), c (W @ v^2) / m(t): it differs from c only by
    the roundoff of the quadratic expansion.  t is a scalar weight (float
    fields) or an array of weights (array fields of its shape, one
    `lebesgue` call for all of them).
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
    """One n of a threshold scan: the norms of the tested profile, the sup of
    its energy, the threshold and the verdict sup_t < threshold.

    A subcritical row carries the P1 norms of W(t_at_sup) on its bubble
    grid.  A critical row carries the continuum norms of the mass-c family
    member (`normalized_norms_model`), and t_at_sup is the dilation of its
    fiber maximum.  A diagnostic row has sup_t and t_at_sup NaN (and its
    norms NaN when the profile does not exist) and the reason in note.
    """

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

    def as_dict(self):
        """Records, threshold and first passing n as strict-JSON data."""
        return _plain(self)


def _scan(n_list, threshold, row):
    """Records in increasing n and the first passing n.

    row(n) gives (bundle, sup_t, t_at_sup, note).  A diagnostic row has
    sup_t and t_at_sup NaN, the reason in note, and bundle None when the
    profile has no norms; it never passes.
    """
    records = []
    for n in sorted(_integer_n(n) for n in n_list):
        nb, sup_t, t_at_sup, note = row(n)
        norms = (np.nan,) * 4 if nb is None else (nb.mass, nb.grad_sq, nb.lcrit, nb.lq)
        records.append(ScanRecord(
            n, *(float(v) for v in norms), float(sup_t), threshold,
            bool(sup_t < threshold), float(t_at_sup), note,
        ))
    return ScanResult(records, threshold, next((r.n for r in records if r.passed), None))


# coarse grid of superposition weights; the sup over t is refined from its
# argmax in s = log t, to a last Newton step (or bracket) of at most _XATOL
_T_GRID = np.geomspace(1e-3, 1e3, 25)
_XATOL = 1e-10


def _log_t_slopes(p, cross, s):
    """dPhi/ds and d^2Phi/ds^2 of Phi(W(t)) at t = e^s.

    Phi(W(t)) = g(t)/2 - (mu/q) T(t) ||v||_q^q - ||v||_{2*}^{2*}/2* with the
    quadratics m(t), g(t) of `_build_cross`, v = u_c + t U_n and the tau-law
    T(t) = (m(t)/c)^e, e = ((N-2) q - 2 N)/4, of `_superposition_bundle`;
    the chain rule in t, then d/ds = t d/dt.
    """
    t = math.exp(s)
    c = cross["c"]
    e = ((p.N - 2) * p.q - 2.0 * p.N) / 4.0
    a = (cross["m_a"] + 2.0 * t * cross["m_x"] + t * t * cross["m_b"]) / c
    a1 = 2.0 * (cross["m_x"] + t * cross["m_b"]) / (c * a)  # a'/a
    a2 = 2.0 * cross["m_b"] / (c * a)  # a''/a
    T = a ** e
    T1 = e * T * a1
    T2 = e * T * ((e - 1.0) * a1 * a1 + a2)
    lq, dq, d2q, dc, d2c = cross["lebesgue_dt"](t)
    k = p.mu / p.q
    phi1 = cross["g_x"] + t * cross["g_b"] - k * (T1 * lq + T * dq) - dc / p.two_star
    phi2 = cross["g_b"] - k * (T2 * lq + 2.0 * T1 * dq + T * d2q) - d2c / p.two_star
    return t * phi1, t * phi1 + t * t * phi2


def _argmax_in_log_t(p, cross, lo, s, hi):
    """The maximizer of Phi(W(e^s)) on the bracket [lo, hi], from s inside it.

    Safeguarded Newton: each pass moves the bracket end on the uphill side
    of dPhi/ds to s, then takes the Newton step when d^2Phi/ds^2 < 0 and the
    step lands inside the bracket, and bisects otherwise.  It stops at a
    Newton step of at most _XATOL (returning the stepped point) or a bracket
    no wider than _XATOL.
    """
    while hi - lo > _XATOL:
        d1, d2 = _log_t_slopes(p, cross, s)
        if d1 == 0.0:
            return s
        if d1 > 0.0:
            lo = s
        else:
            hi = s
        step = -d1 / d2 if d2 < 0.0 else math.nan
        if lo < s + step < hi:
            if abs(step) <= _XATOL:
                return s + step
            s += step
        else:
            s = 0.5 * (lo + hi)
    return s


def _sup_over_t(p, cross, t_grid):
    """The sup over t of Phi(W(t)) from the coarse weights t_grid.

    The energies on t_grid are one array call of the cross-term route.  Their
    argmax k is refined by Newton in log t between its two neighbours
    (`_argmax_in_log_t`), and the larger of the grid and refined values is
    kept.  Returns the coarse bundle, its energies, k and the sup as a
    `_scan` row, a diagnostic one when k is an end of the positive weights.
    """
    coarse = _superposition_bundle(p, cross, t_grid)
    vals = fiber_energy(coarse, p, 1.0)
    k = int(np.argmax(vals))
    if not 0 < k < len(t_grid) - 1 or t_grid[k - 1] == 0.0:
        return coarse, vals, k, (None, np.nan, np.nan, (
            f"the energy of W(t) peaks at the end t = {t_grid[k]:g} of "
            f"[{t_grid[0]:g}, {t_grid[-1]:g}]; no interior maximum"))
    t_best = float(np.exp(_argmax_in_log_t(p, cross, *np.log(t_grid[k - 1:k + 2]))))
    nb = _superposition_bundle(p, cross, t_best)
    sup_v = float(fiber_energy(nb, p, 1.0))
    if vals[k] > sup_v:
        # a scalar bundle at the grid point, not a row of the array one:
        # numpy may round an array power differently from a scalar one
        t_best, sup_v = float(t_grid[k]), float(vals[k])
        nb = _superposition_bundle(p, cross, t_best)
    return coarse, vals, k, (nb, sup_v, t_best, "")


def threshold_scan_subcritical(p, u_c, n_list):
    """Mountain-pass threshold scan for the mass-subcritical regime.

    For each n the truncated bubble U_n is superposed with the valley
    profile u_c, which must lie on the mass sphere c = p.c (to 1e-6
    relative).  W(t) is the mass-c dilation of u_c + t U_n, and the sup
    over t of its energy is compared against Phi(u_c) + S^(N/2)/N.  u_c is
    interpolated once (PCHIP) and resampled onto each bubble grid.  The sup
    is `_sup_over_t`, shared with `mountain_pass_path`, on the 25 weights
    `_T_GRID` in [1e-3, 1e3].  An n whose grid argmax is an end of that
    range gives a diagnostic non-passing row (sup_t NaN, the reason in
    `note`).  Records are returned in n order with the first passing n.
    """
    if not p.mass_subcritical:
        raise HypothesisError("the superposition scan applies below q = 2+4/N")
    _check_mass(u_c, p, "u_c")
    threshold = energy(u_c, p) + sobolev_constant(p.N).S_pow / p.N
    resample = _pchip(u_c.grid.nodes, u_c.values)

    def row(n):
        R_max = max(u_c.grid.R_max, 2.0)
        g = bubble_grid(p.N, n, R_max, barrier_radii=(1.0, 2.0))
        uc_g = RadialFunction(g, resample(g.nodes))
        U = truncated_instanton(p.N, n, g)
        return _sup_over_t(p, _build_cross(p, uc_g, U, c=p.c), _T_GRID)[3]

    return _scan(n_list, threshold, row)


def threshold_scan_critical(p, n_list):
    """Dilation threshold scan for q >= 2+4/N using the mass-c family.

    For each n the sup over dilations of the fiber energy of the mass-c
    bubble, its exact fiber maximum, is compared against S^(N/2)/N.  The
    row's norms are the continuum norms of the family member, in closed
    form from `normalized_norms_model`, so no grid is built.  The P1 route
    (`mass_normalized_instanton` on its own grid, then `stiff_bundle`)
    overestimates grad_sq by an order-2 discretization error that can
    exceed the margin at large n; the tests keep it as the oracle.  An n
    where the family does not exist or its fiber has no maximum gives a
    diagnostic non-passing row (sup_t NaN, the reason in `note`).  The
    first such row of a call finds the smallest admissible n for its note,
    and the later ones reuse it.
    """
    if p.mass_subcritical:
        raise HypothesisError("the dilation scan applies at and above q = 2+4/N")
    _check_mu_below_alpha(p)
    min_n = None

    def row(n):
        nonlocal min_n
        core = _kink_core(p.N, n)[1]
        if core >= p.c:
            # the family does not exist at this n; the note is the text of
            # the BracketError that solve_cutoff_radius raises there
            if min_n is None:
                min_n = normalized_family_min_n(p.N, p.c)
            return None, np.nan, np.nan, _no_cutoff(p.c, n, core, min_n)
        mod = normalized_norms_model(p.N, p.c, n)
        nb = NormBundle(mod["mass"], mod["grad_sq"], mod["lq"](p.q), mod["lcrit"])
        try:
            pt = manifold_projection(nb, p)
        except NoCriticalPointError as exc:
            return nb, np.nan, np.nan, str(exc)
        return nb, pt.value, pt.t, ""

    return _scan(n_list, sobolev_constant(p.N).S_pow / p.N, row)
