"""The grid operators as scipy.sparse CSR matrices: the tests' oracles.

The package applies `RadialGrid.stiffness` and `RadialGrid.deriv` as
stencils over plain arrays.  These helpers put the same coefficients into
CSR matrices, whose products the stencils reproduce to the last bit.
"""

import numpy as np
from scipy.sparse import csr_matrix, diags


def stiffness_csr(g):
    """The P1 stiffness form of grid g as a tridiagonal CSR matrix."""
    main, off = g.stiffness
    return diags([off, main, off], [-1, 0, 1], format="csr")


def deriv_csr(g):
    """The 3-point derivative of grid g as a CSR matrix from COO triplets;
    the one-sided end rows take columns 0..2 and n-3..n-1."""
    D = g.deriv
    n = len(D)
    cols = np.clip(np.arange(n) - 1, 0, n - 3)[:, None] + np.arange(3)
    rows = np.repeat(np.arange(n), 3)
    return csr_matrix((D.ravel(), (rows, cols.ravel())), shape=(n, n))
