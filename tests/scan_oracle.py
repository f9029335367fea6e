"""The scans' pieces by independent routes: the tests' oracles.

`threshold_scan_critical` takes each row's norms from the closed-form
`normalized_norms_model`.  Here the same row is built the P1 way: the
mass-c family member on a grid (its own `_normalized_grid` unless one is
passed), its `stiff_bundle`, then the fiber maximum.  The two routes
differ by the grid's order-2 discretization error.  The cutoff radius is
also found by a bracketed `brentq`, whose bracket reaches past the large-n
asymptote of R_n, and `pchip_resample` moves a profile onto another grid
as the subcritical scan moves u_c onto each bubble grid.
"""

import numpy as np

from massnls import bubbles as B
from massnls.constants import instanton_amplitude, sobolev_constant
from massnls.errors import BracketError, NoCriticalPointError
from massnls.functionals import stiff_bundle
from massnls.grid import RadialFunction, _pchip, sphere_area
from massnls.manifold import manifold_projection


def grid_row(p, n, grid=None):
    """(bundle, sup_t, t_at_sup, note) of the critical scan at n, from the
    P1 norms of the family member on a grid."""
    try:
        u = B.mass_normalized_instanton(p.N, p.c, n, grid)
    except BracketError as exc:
        return None, np.nan, np.nan, str(exc)
    nb = stiff_bundle(u.grid, u.values, p)
    try:
        pt = manifold_projection(nb, p)
    except NoCriticalPointError as exc:
        return nb, np.nan, np.nan, str(exc)
    return nb, pt.value, pt.t, ""


def grid_scan(p, n_list):
    """`threshold_scan_critical` with every row by the grid route."""
    return B._scan(n_list, sobolev_constant(p.N).S_pow / p.N, lambda n: grid_row(p, n))


def pchip_resample(u, target_grid):
    """Monotone-cubic resampling of u onto another grid (zero outside)."""
    return RadialFunction(target_grid, _pchip(u.grid.nodes, u.values)(target_grid.nodes))


def cutoff_radius_asymptote(N, c, n):
    """Large-n model R_n ~ [N(N+1)(N+2) c / (2 omega_N A_N^2)]^(1/N) n^(7(N-2)/3N)."""
    const = (N * (N + 1) * (N + 2) * c
             / (2.0 * sphere_area(N) * instanton_amplitude(N) ** 2)) ** (1.0 / N)
    return const * float(n) ** (7.0 * (N - 2) / (3.0 * N))


def cutoff_radius_by_brentq(N, c, n):
    """R_n by a hand-built bracket and `brentq` on the closed-form mass
    equation core + ramp(R) = c: the oracle of `solve_cutoff_radius`."""
    from scipy.optimize import brentq

    rho = float(n) ** (2.0 / 3.0)
    core = B._core_mass(N, n, n * rho)
    if core >= c:
        raise BracketError(f"no cutoff radius exists at n = {n} (core mass {core:g} >= c = {c:g})")
    f = lambda R: core + B._ramp_moment(N, n, rho, R, 2) - c
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
    if f(lo) >= 0.0 or f(hi) < 0.0:
        raise BracketError(f"no sign change for the mass equation on [{lo:g}, {hi:g}]")
    return float(brentq(f, lo, hi, xtol=1e-13 * hi, rtol=4 * np.finfo(float).eps))
