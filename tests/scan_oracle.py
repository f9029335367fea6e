"""The critical scan's rows by the grid route: the tests' oracle.

`threshold_scan_critical` takes each row's norms from the closed-form
`normalized_norms_model`.  Here the same row is built the P1 way: the
mass-c family member on a grid (its own `_normalized_grid` unless one is
passed), its `stiff_bundle`, then the fiber maximum.  The two routes
differ by the grid's order-2 discretization error.
"""

import numpy as np

from massnls import bubbles as B
from massnls.constants import sobolev_constant
from massnls.errors import BracketError, NoCriticalPointError
from massnls.functionals import stiff_bundle
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
    hi = max(B.cutoff_radius_asymptote(N, c, n), 2.0 * rho)
    grow = 0
    while f(hi) < 0.0 and grow < 60:
        hi *= 2.0
        grow += 1
    if f(lo) >= 0.0 or f(hi) < 0.0:
        raise BracketError(f"no sign change for the mass equation on [{lo:g}, {hi:g}]")
    return float(brentq(f, lo, hi, xtol=1e-13 * hi, rtol=4 * np.finfo(float).eps))
