"""Radial grids, quadrature, norms and finite differences on B(0, R_max).

Radial profiles on R^N are stored as nodal values u_i ~ u(r_i) on a strictly
increasing node set 0 = r_0 < r_1 < ... < r_M = R_max.  Integrals of radial
integrands reduce to one dimension,

    int_{R^N} v(|x|) dx  =  omega_N * int_0^{R_max} r^(N-1) v(r) dr,

with omega_N = |S^(N-1)| the surface measure of the unit sphere.

Quadrature design.  Cells are processed in pairs: on each pair of adjacent
cells [r_a, r_b] + [r_b, r_c] the three nodal weights are the analytic
moments of the local quadratic Lagrange basis,

    w_j = int_a^c  r^(N-1) l_j(r) dr,

so the rule is exact on quadratics -- in particular the ball volume
int 1 = omega_N R^N / N is reproduced up to the rounding of the moments,
and the rule is ~4th order on smooth integrands.  The moments are taken in
the offset from the pair's left node, which keeps them free of cancellation
far from the origin.
Whenever a pair produces a negative weight it is degraded to per-cell
linear ("hat") weights, which are integrals of nonnegative functions and
therefore always nonnegative.  The pair touching r = 0 always degrades this
way: the parabolic weight at r = 0 is negative exactly when
r_1/r_2 < N/(N+2), which holds for uniform and origin-graded spacings
alike.  The stored nodal weights absorb the r^(N-1) volume factor.

Grids may carry "barriers": radii at which the profile is allowed to have a
kink (piecewise definitions).  Cell pairing never straddles a barrier, so the
quadratic model is only ever fitted to smooth pieces.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "make_grid",
    "grid_from_nodes",
    "integrate",
    "norms",
    "grad_norm_sq",
    "mass",
    "pchip_resample",
    "tail_fraction",
    "write_csv",
    "read_csv",
    "sphere_area",
]


def sphere_area(N):
    """Surface measure omega_N of the unit sphere S^(N-1) in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def _check_dimension(N):
    if not isinstance(N, (int, np.integer)) or N < 3:
        raise ParameterError(f"dimension must be an integer >= 3, got {N!r}")
    return int(N)


# ----------------------------------------------------------------------------
# weight construction
# ----------------------------------------------------------------------------

def _moments(N, a, h):
    """m_k = int_0^h s^k (a + s)^(N-1) ds for k = 0, 1, 2, in the offset s.

    A generator, so a caller that needs only m0 (the stiffness) pays for m0
    alone.  Expanding (a + s)^(N-1) binomially makes every term positive, so
    each moment is accurate to a few eps however far [a, a + h] lies from
    the origin; forming c^p - a^p in the global radius instead would cancel.
    """
    a_pow = [1.0]
    for _ in range(N - 1):
        a_pow.append(a_pow[-1] * a)
    h_pow = [h]  # h_pow[i] = h^(i+1)
    for _ in range(N + 1):
        h_pow.append(h_pow[-1] * h)
    return (
        sum(a_pow[N - 1 - j] * h_pow[j + k] * (math.comb(N - 1, j) / (j + k + 1))
            for j in range(N))
        for k in range(3)
    )


def _pair_weights(N, a, b, c):
    """Exact-moment weights of the quadratic rule on the cell pair [a, c]."""
    d, h = b - a, c - a
    m0, m1, m2 = _moments(N, a, h)
    # the Lagrange basis at the local nodes 0, d, h
    wa = (m2 - (d + h) * m1 + d * h * m0) / (d * h)
    wb = (m2 - h * m1) / (d * (d - h))
    wc = (m2 - d * m1) / (h * (h - d))
    return wa, wb, wc


def _hat_weights(N, a, b):
    """Exact-moment weights of the linear rule on the single cell [a, b]."""
    h = b - a
    m0, m1, _ = _moments(N, a, h)
    # int (h - s)/h (a + s)^(N-1) ds  and  int s/h (a + s)^(N-1) ds
    return m0 - m1 / h, m1 / h


def _volume_weights(N, nodes, group_bounds):
    """Nodal weights w with sum_i w_i v_i ~ int_0^R r^(N-1) v(r) dr.

    ``group_bounds`` is the increasing list of node indices delimiting the
    smooth groups (always starts at 0 and ends at M).  Pairing never depends
    on the weights: pairs start at g0, g0+2, ... and a group with an odd
    number of cells ends in one hat cell, so every node receives at most two
    contributions and the order of the sums does not matter.
    """
    w = np.zeros_like(nodes)
    for g0, g1 in zip(group_bounds[:-1], group_bounds[1:]):
        k = np.arange(g0, g1 - 1, 2)
        a, b, c = nodes[k], nodes[k + 1], nodes[k + 2]
        wa, wb, wc = _pair_weights(N, a, b, c)
        # a negative parabolic weight degrades the pair to hat weights on
        # both of its cells
        bad = (wa < 0.0) | (wb < 0.0) | (wc < 0.0)
        ha0, hb0 = _hat_weights(N, a[bad], b[bad])
        ha1, hb1 = _hat_weights(N, b[bad], c[bad])
        wa[bad], wb[bad], wc[bad] = ha0, hb0 + ha1, hb1
        w[k] += wa
        w[k + 1] += wb
        w[k + 2] += wc
        if (g1 - g0) % 2:
            ha, hb = _hat_weights(N, nodes[g1 - 1], nodes[g1])
            w[g1 - 1] += ha
            w[g1] += hb
    return w


# ----------------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------------

def _derivative_matrix(nodes):
    """Sparse 3-point derivative matrix (2nd order, one-sided at endpoints)."""
    from scipy.sparse import csr_matrix

    n = len(nodes)
    h = np.diff(nodes)
    h1, h2 = h[:-1], h[1:]
    vals = np.empty((n, 3))
    cols = np.empty((n, 3), dtype=np.intp)

    a1, a2 = h[0], h[1]
    vals[0] = (
        -(2 * a1 + a2) / (a1 * (a1 + a2)),
        (a1 + a2) / (a1 * a2),
        -a1 / (a2 * (a1 + a2)),
    )
    cols[0] = (0, 1, 2)

    vals[1:-1, 0] = -h2 / (h1 * (h1 + h2))
    vals[1:-1, 1] = (h2 - h1) / (h1 * h2)
    vals[1:-1, 2] = h1 / (h2 * (h1 + h2))
    cols[1:-1] = np.arange(n - 2)[:, None] + np.arange(3)

    g1, g2 = h[-2], h[-1]
    vals[-1] = (
        g2 / (g1 * (g1 + g2)),
        -(g1 + g2) / (g1 * g2),
        (2 * g2 + g1) / (g2 * (g1 + g2)),
    )
    cols[-1] = (n - 3, n - 2, n - 1)

    rows = np.repeat(np.arange(n), 3)
    return csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(n, n))


# ----------------------------------------------------------------------------
# grid / function containers
# ----------------------------------------------------------------------------

@dataclass
class RadialGrid:
    """Nodes and quadrature weights on [0, R_max] for dimension N.

    Treat instances as immutable; the arrays are marked read-only.
    ``weights`` are the nodal volume weights *without* the omega_N factor:
    integrate(v) = omega_N * weights @ v.
    """

    N: int
    nodes: np.ndarray
    weights: np.ndarray
    barriers: tuple = ()
    _deriv: object = field(default=None, repr=False, compare=False)
    _stiffness: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.N = _check_dimension(self.N)
        self.nodes = np.ascontiguousarray(self.nodes, dtype=float)
        self.weights = np.ascontiguousarray(self.weights, dtype=float)
        if self.nodes.ndim != 1 or len(self.nodes) < 5:
            raise ParameterError("grid needs at least 5 nodes")
        if self.nodes[0] != 0.0:
            raise ParameterError("first node must be r = 0")
        if not np.all(np.diff(self.nodes) > 0.0):
            raise ParameterError("nodes must be strictly increasing")
        if self.weights.shape != self.nodes.shape:
            raise ParameterError("weights/nodes shape mismatch")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def R_max(self):
        return float(self.nodes[-1])

    @property
    def M(self):
        """Number of cells (nodes are indexed 0..M)."""
        return len(self.nodes) - 1

    @property
    def omega_N(self):
        return sphere_area(self.N)

    @property
    def deriv(self):
        """Lazily built sparse finite-difference derivative operator."""
        if self._deriv is None:
            self._deriv = _derivative_matrix(self.nodes)
        return self._deriv

    @property
    def stiffness(self):
        """Sparse piecewise-linear Dirichlet form: u @ (stiffness @ u) is the
        exact H^1 seminorm (times omega_N) of the P1 interpolant of u.

        Unlike the centered-difference `deriv` route this form is positive
        semidefinite with kernel = constants only, so it is safe inside
        minimization loops (no grid-scale oscillation escapes it); use it
        wherever the kinetic term appears in an energy being *optimized*.
        """
        if self._stiffness is None:
            from scipy.sparse import diags

            dr = np.diff(self.nodes)
            # omega_N * int_cell r^(N-1) dr / dr^2, per cell
            cell_m0 = next(_moments(self.N, self.nodes[:-1], dr))
            kappa = self.omega_N * cell_m0 / (dr * dr)
            main = np.zeros(len(self.nodes))
            main[:-1] += kappa
            main[1:] += kappa
            self._stiffness = diags([-kappa, main, -kappa], [-1, 0, 1], format="csr")
        return self._stiffness

    def same_layout(self, other):
        return (
            self.N == other.N
            and len(self.nodes) == len(other.nodes)
            and np.array_equal(self.nodes, other.nodes)
        )


@dataclass
class RadialFunction:
    """Nodal values of a radial profile on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise ParameterError(
                f"values shape {self.values.shape} does not match grid "
                f"with {len(self.grid.nodes)} nodes"
            )

    def with_values(self, values):
        return RadialFunction(self.grid, values)


def make_grid(N, R_max, M, grading="uniform", strength=2.0):
    """Construct a grid on [0, R_max] with M cells.

    grading="uniform" places nodes at R*i/M; grading="graded" at
    R*(i/M)**strength, clustering nodes near the origin for strength > 1.
    """
    N = _check_dimension(N)
    if not R_max > 0.0:
        raise ParameterError(f"R_max must be positive, got {R_max}")
    if not isinstance(M, (int, np.integer)) or M < 4:
        raise ParameterError(f"M must be an integer >= 4, got {M!r}")
    x = np.linspace(0.0, 1.0, M + 1)
    if grading == "uniform":
        nodes = R_max * x
    elif grading == "graded":
        if not strength >= 1.0:
            raise ParameterError("grading strength must be >= 1")
        nodes = R_max * x ** strength
    else:
        raise ParameterError(f"unknown grading {grading!r}")
    nodes[-1] = R_max
    w = _volume_weights(N, nodes, [0, M])
    return RadialGrid(N, nodes, w)


def grid_from_nodes(N, nodes, barrier_radii=()):
    """Grid over an explicit node set, optionally with kink barriers.

    Every barrier radius must coincide with a node; cell pairing for the
    quadrature weights is broken there.
    """
    N = _check_dimension(N)
    nodes = np.ascontiguousarray(nodes, dtype=float)
    M = len(nodes) - 1
    bounds = [0]
    for rb in sorted(barrier_radii):
        j = int(np.argmin(np.abs(nodes - rb)))
        if abs(nodes[j] - rb) > 1e-12 * max(1.0, nodes[-1]):
            raise ParameterError(f"barrier radius {rb} is not a grid node")
        if 0 < j < M:
            bounds.append(j)
    bounds.append(M)
    bounds = sorted(set(bounds))
    w = _volume_weights(N, nodes, bounds)
    return RadialGrid(N, nodes, w, barriers=tuple(nodes[j] for j in bounds[1:-1]))


# ----------------------------------------------------------------------------
# quadrature, norms, derivatives
# ----------------------------------------------------------------------------

def integrate(u):
    """int_{R^N} u(|x|) dx by the grid's quadrature rule."""
    g = u.grid
    return g.omega_N * float(g.weights @ u.values)


def norms(u, s):
    """The s-th power of the Lebesgue norm, ||u||_s^s = integrate(|u|^s)."""
    if not s > 0:
        raise ParameterError(f"norm exponent must be positive, got {s}")
    g = u.grid
    return g.omega_N * float(g.weights @ np.abs(u.values) ** s)


def mass(u):
    """||u||_2^2 (the conserved mass)."""
    return norms(u, 2)


def grad_norm_sq(u):
    """||grad u||_2^2 via 3-point finite differences of the nodal values.

    For radial u the full gradient has modulus |u'(r)|, so the H^1 seminorm
    reduces to omega_N * int r^(N-1) u'(r)^2 dr.
    """
    g = u.grid
    du = g.deriv @ u.values
    return g.omega_N * float(g.weights @ (du * du))


def tail_fraction(u, s=2):
    """Fraction of ||u||_s^s carried by the outer 5% of the radial extent.

    Truncation diagnostic: values well above ~1e-6 indicate the profile is
    not compactly contained in the computational ball.
    """
    g = u.grid
    total = g.weights @ np.abs(u.values) ** s
    if total <= 0.0:
        return 0.0
    sel = g.nodes >= 0.95 * g.R_max
    return float((g.weights[sel] @ np.abs(u.values[sel]) ** s) / total)


def _pchip_values(nodes, values, radii):
    """Monotone-cubic interpolant of (nodes, values) at radii, zero outside."""
    from scipy.interpolate import PchipInterpolator

    # flat zero tails trip harmless overflow warnings in the slope formula
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        interp = PchipInterpolator(nodes, values, extrapolate=False)
    vals = interp(radii)
    return np.where(np.isnan(vals), 0.0, vals)


def pchip_resample(u, target_grid):
    """Monotone-cubic resampling of u onto another grid (zero outside)."""
    return RadialFunction(
        target_grid, _pchip_values(u.grid.nodes, u.values, target_grid.nodes)
    )


# ----------------------------------------------------------------------------
# CSV I/O
# ----------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"#\s*N=(?P<N>\d+)\s+R_max=(?P<R>[-+0-9.eE]+)\s+M=(?P<M>\d+)"
    r"(?:\s+barriers=(?P<B>[-+0-9.eE]+(?:,[-+0-9.eE]+)*))?\s*$"
)


def write_csv(u, path):
    """Two-column (r, value) CSV with the one-line grid header.

    The header carries the grid's kink barriers, when it has any, so that
    read_csv pairs the quadrature cells exactly as the original grid did.
    """
    g = u.grid
    header = f"# N={g.N} R_max={g.R_max:.17g} M={g.M}"
    if g.barriers:
        header += " barriers=" + ",".join(f"{b:.17g}" for b in g.barriers)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r, v in zip(g.nodes, u.values):
            fh.write(f"{r:.17g},{v:.17g}\n")


def read_csv(path):
    """Inverse of write_csv; the grid is rebuilt from the stored nodes and
    barriers (a header without barriers gives a grid without them)."""
    with open(path) as fh:
        header = fh.readline().strip()
        m = _HEADER_RE.match(header)
        if not m:
            raise ParameterError(
                f"{path}: missing or malformed header line {header!r}"
            )
        N = int(m.group("N"))
        R = float(m.group("R"))
        M = int(m.group("M"))
        barriers = m.group("B")
        barriers = [float(b) for b in barriers.split(",")] if barriers else []
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ParameterError(f"{path}: expected two columns, got {data.shape[1]}")
    nodes, vals = data[:, 0], data[:, 1]
    if len(nodes) != M + 1:
        raise ParameterError(
            f"{path}: header says M={M} but file has {len(nodes)} rows"
        )
    if abs(nodes[-1] - R) > 1e-12 * max(1.0, R):
        raise ParameterError(f"{path}: last node {nodes[-1]} != R_max {R}")
    return RadialFunction(grid_from_nodes(N, nodes, barriers), vals)
