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
