"""Radial grids, quadrature, norms and the grid operators on B(0, R_max).

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

Grid operators.  The P1 stiffness form (`RadialGrid.stiffness`) and the
3-point derivative (`RadialGrid.deriv`) are stored as plain arrays of their
three diagonals and applied as stencils (`_stiff_apply`, `_deriv_apply`).
Each row adds its products in the order a CSR matrix-vector product over the
same coefficients would, so the stencils reproduce that product to the bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError, _integer, _positive, _real

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "make_grid",
    "grid_from_nodes",
    "integrate",
    "norms",
    "grad_norm_sq",
    "mass",
    "tail_fraction",
    "write_csv",
    "read_csv",
    "sphere_area",
]


def sphere_area(N):
    """Surface measure omega_N of the unit sphere S^(N-1) in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


# ----------------------------------------------------------------------------
# weighted sums
# ----------------------------------------------------------------------------

# OpenBLAS runs ddot (numpy's `@` on two float64 vectors) on its thread pool
# above 10000 elements.  With OpenBLAS 0.3.31 on a 2-vCPU VM, CPU time equals
# wall time at n = 9000 and is twice wall time at n = 12000, for no gain in
# wall time, and the threaded sum rounds differently for each thread count.
_DOT_BLOCK = 8192


def _dot(a, b):
    """sum_i a_i b_i of two 1-D float arrays, on one core.

    Up to `_DOT_BLOCK` elements this is float(a @ b); beyond, the ddots of
    consecutive blocks of `_DOT_BLOCK` elements are added in order, so the
    sum never starts BLAS threads and does not depend on their number.
    """
    n = len(a)
    if n <= _DOT_BLOCK:
        return float(a @ b)
    s = 0.0
    for k in range(0, n, _DOT_BLOCK):
        s += float(a[k:k + _DOT_BLOCK] @ b[k:k + _DOT_BLOCK])
    return s


def _row_dots(a, w):
    """sum_j a_ij w_j for every row i of a 2-D array, on one core.

    One `np.vecdot` (one ddot per row) up to `_DOT_BLOCK` columns; beyond,
    the row sums of consecutive column blocks are added in order, as in
    `_dot`.  A row's sum never depends on the other rows.
    """
    s = np.vecdot(a[:, :_DOT_BLOCK], w[:_DOT_BLOCK])
    for k in range(_DOT_BLOCK, len(w), _DOT_BLOCK):
        s += np.vecdot(a[:, k:k + _DOT_BLOCK], w[k:k + _DOT_BLOCK])
    return s


# ----------------------------------------------------------------------------
# weight construction
# ----------------------------------------------------------------------------

def _moments(N, a, h):
    """m_k = int_0^h s^k (a + s)^(N-1) ds for k = 0, 1, 2, in the offset s.

    A generator that evaluates each moment only when asked, so a caller that
    needs only m0 (the stiffness) pays for m0 alone.  Expanding (a + s)^(N-1)
    binomially gives m_k = sum_j C(N-1, j) a^(N-1-j) h^(j+k+1) / (j+k+1),
    evaluated by nested multiplication, m <- m a + C(N-1, j) h^(j+k+1) / (j+k+1).
    Every term is positive, so each moment is accurate to a few eps however
    far [a, a + h] lies from the origin; forming c^p - a^p in the global
    radius instead would cancel.
    """
    for k in range(3):
        hp = h ** (k + 1)
        m = hp / (k + 1)
        for j in range(1, N):
            hp *= h
            m *= a
            m += (math.comb(N - 1, j) / (j + k + 1)) * hp
        yield m


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
    on the weights: pairs start at g0, g0+2, ... in each group and a group
    with an odd number of cells ends in one hat cell.  All groups are done
    in one pass: one pair-weight call over the pair starts of every group
    and one hat call over both cells of every degraded pair.  The odd ends
    take scalar hat calls, because numpy rounds an array power (the h^3 of
    `_moments`) differently from a scalar one in some 5 % of cells; the
    weights then equal those of a group-by-group loop to the bit.  A node
    is the middle of at most one pair, or else the end of at most one pair
    or odd-end cell and the start of at most one pair or odd-end cell, so it
    receives at most two contributions.  Two floats add to the same bits in
    either order, so the order of the scatters does not matter.
    """
    w = np.zeros_like(nodes)
    gb = np.asarray(group_bounds)
    k = np.concatenate([np.arange(g0, g1 - 1, 2) for g0, g1 in zip(gb[:-1], gb[1:])])
    a, b, c = nodes[k], nodes[k + 1], nodes[k + 2]
    # a spacing whose powers under- or overflow leaves non-finite weights,
    # which RadialGrid refuses with a ParameterError
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        wa, wb, wc = _pair_weights(N, a, b, c)
        # a negative parabolic weight degrades the pair to hat weights on
        # both of its cells
        bad = (wa < 0.0) | (wb < 0.0) | (wc < 0.0)
        nbad = int(np.count_nonzero(bad))
        if nbad:
            ha, hb = _hat_weights(N, np.concatenate([a[bad], b[bad]]),
                                  np.concatenate([b[bad], c[bad]]))
            wa[bad], wb[bad], wc[bad] = ha[:nbad], hb[:nbad] + ha[nbad:], hb[nbad:]
        w[k] += wa
        w[k + 1] += wb
        w[k + 2] += wc
        for j in gb[1:][np.diff(gb) % 2 == 1]:
            ha, hb = _hat_weights(N, nodes[j - 1], nodes[j])
            w[j - 1] += ha
            w[j] += hb
    return w


# ----------------------------------------------------------------------------
# the grid operators as stencils
# ----------------------------------------------------------------------------

def _derivative_stencil(nodes):
    """3-point derivative coefficients (2nd order, one-sided at endpoints).

    Row i of the (n, 3) array weighs v[i-1], v[i], v[i+1]; the one-sided
    end rows weigh v[0..2] and v[n-3..n-1].
    """
    h = np.diff(nodes)
    h1, h2 = h[:-1], h[1:]
    vals = np.empty((len(nodes), 3))

    a1, a2 = h[0], h[1]
    vals[0] = (
        -(2 * a1 + a2) / (a1 * (a1 + a2)),
        (a1 + a2) / (a1 * a2),
        -a1 / (a2 * (a1 + a2)),
    )

    vals[1:-1, 0] = -h2 / (h1 * (h1 + h2))
    vals[1:-1, 1] = (h2 - h1) / (h1 * h2)
    vals[1:-1, 2] = h1 / (h2 * (h1 + h2))

    g1, g2 = h[-2], h[-1]
    vals[-1] = (
        g2 / (g1 * (g1 + g2)),
        -(g1 + g2) / (g1 * g2),
        (2 * g2 + g1) / (g2 * (g1 + g2)),
    )
    return vals


def _deriv_apply(D, v):
    """D v for the `RadialGrid.deriv` coefficients D.

    Each row adds its three products left to right, the order of a CSR
    matrix-vector product over the same coefficients, so the result is that
    product to the last bit.
    """
    Dv = np.empty(len(D))
    Dv[1:-1] = D[1:-1, 0] * v[:-2]
    Dv[1:-1] += D[1:-1, 1] * v[1:-1]
    Dv[1:-1] += D[1:-1, 2] * v[2:]
    Dv[0] = D[0, 0] * v[0] + D[0, 1] * v[1] + D[0, 2] * v[2]
    Dv[-1] = D[-1, 0] * v[-3] + D[-1, 1] * v[-2] + D[-1, 2] * v[-1]
    return Dv


def _stiff_apply(K, v):
    """K v for the tridiagonal `RadialGrid.stiffness` K = (main, off).

    Row i is main_i v_i + off_(i-1) v_(i-1) + off_i v_(i+1), added in that
    order.  Floating-point addition is commutative, so this is the CSR
    product of the same tridiagonal (off_(i-1) v_(i-1) + main_i v_i first)
    to the last bit.
    """
    main, off = K
    Kv = main * v
    Kv[1:] += off * v[:-1]
    Kv[:-1] += off * v[1:]
    return Kv


# ----------------------------------------------------------------------------
# grid / function containers
# ----------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Nodes and quadrature weights on [0, R_max] for dimension N.

    Instances are immutable: the dataclass is frozen and the arrays are
    read-only, so one grid can be shared by every caller that asks for the
    same node set (`bubbles.bubble_grid` hands out memoized grids), and the
    lazily built `deriv` and `stiffness` are built once per grid.  Grids
    compare and hash by identity; `same_layout` compares node sets.
    ``weights`` are the nodal volume weights *without* the omega_N factor:
    integrate(v) = omega_N * _dot(weights, v), the single-core weighted sum.
    """

    N: int
    nodes: np.ndarray
    weights: np.ndarray
    barriers: tuple = ()
    _deriv: object = field(default=None, repr=False)
    _stiffness: object = field(default=None, repr=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        object.__setattr__(self, "N", _integer("dimension N", self.N, 3))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or len(nodes) < 5:
            raise ParameterError("grid needs at least 5 nodes")
        if nodes[0] != 0.0:
            raise ParameterError("first node must be r = 0")
        if not np.all(np.diff(nodes) > 0.0):
            raise ParameterError("nodes must be strictly increasing")
        if weights.shape != nodes.shape:
            raise ParameterError("weights/nodes shape mismatch")
        bad = np.count_nonzero(~np.isfinite(weights))
        if bad:
            raise ParameterError(
                f"{bad} of {len(weights)} quadrature weights are not finite; "
                f"the node spacing under- or overflows"
            )
        nodes.setflags(write=False)
        weights.setflags(write=False)

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
        """Lazily built read-only (n, 3) coefficients of the 3-point
        finite-difference derivative; `_deriv_apply` applies them."""
        if self._deriv is None:
            D = _derivative_stencil(self.nodes)
            D.setflags(write=False)
            object.__setattr__(self, "_deriv", D)
        return self._deriv

    @property
    def stiffness(self):
        """Piecewise-linear Dirichlet form as its read-only tridiagonal
        (main, off): u @ _stiff_apply(stiffness, u) is the exact H^1 seminorm
        (times omega_N) of the P1 interpolant of u.  off = -kappa holds the
        cell conductances kappa = omega_N int_cell r^(N-1) dr / dr^2, and the
        main diagonal sums the two kappa beside each node.

        Unlike the centered-difference `deriv` route this form is positive
        semidefinite with kernel = constants only, so it is safe inside
        minimization loops (no grid-scale oscillation escapes it); use it
        wherever the kinetic term appears in an energy being *optimized*.
        """
        if self._stiffness is None:
            dr = np.diff(self.nodes)
            cell_m0 = next(_moments(self.N, self.nodes[:-1], dr))
            kappa = self.omega_N * cell_m0 / (dr * dr)
            main = np.zeros(len(self.nodes))
            main[:-1] += kappa
            main[1:] += kappa
            off = -kappa
            main.setflags(write=False)
            off.setflags(write=False)
            object.__setattr__(self, "_stiffness", (main, off))
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
    N = _integer("dimension N", N, 3)
    _positive("R_max", R_max)
    _integer("M", M, 4)
    _real("grading strength", strength)
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
    N = _integer("dimension N", N, 3)
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
    return g.omega_N * _dot(g.weights, u.values)


def norms(u, s):
    """The s-th power of the Lebesgue norm, ||u||_s^s = integrate(|u|^s)."""
    _positive("norm exponent s", s)
    g = u.grid
    return g.omega_N * _dot(g.weights, np.abs(u.values) ** s)


def mass(u):
    """||u||_2^2 (the conserved mass)."""
    return norms(u, 2)


def grad_norm_sq(u):
    """||grad u||_2^2 via 3-point finite differences of the nodal values.

    For radial u the full gradient has modulus |u'(r)|, so the H^1 seminorm
    reduces to omega_N * int r^(N-1) u'(r)^2 dr.
    """
    g = u.grid
    du = _deriv_apply(g.deriv, u.values)
    return g.omega_N * _dot(g.weights, du * du)


def tail_fraction(u):
    """Fraction of the mass ||u||_2^2 carried by the outer 5% of the radius.

    Truncation diagnostic: values well above ~1e-6 indicate the profile is
    not compactly contained in the computational ball.
    """
    g = u.grid
    total = _dot(g.weights, np.abs(u.values) ** 2)
    if total <= 0.0:
        return 0.0
    sel = g.nodes >= 0.95 * g.R_max
    return _dot(g.weights[sel], np.abs(u.values[sel]) ** 2) / total


def _pchip_end_slope(h0, h1, m0, m1):
    """The one-sided three-point slope at an end of a PCHIP (Moler), set to
    0 or 3 m0 where it would break the shape of the end cell."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(nodes, values):
    """The monotone-cubic (PCHIP) interpolant of (nodes, values) as a
    function of the radii, zero outside [nodes[0], nodes[-1]] and at NaN.

    It is scipy's `PchipInterpolator(nodes, values, extrapolate=False)` with
    NaN mapped to 0, to the bit: the same operations in the same order.
    The slopes are Fritsch-Butland's, a weighted harmonic mean of the two
    cell slopes (0 where they differ in sign or one is 0) with Moler's
    one-sided ends; the cubic Hermite coefficients of cell i are
    c0..c3 (c3 = values[i]), and a radius r in it takes the power sum
    c3 + c2 s + c1 s^2 + c0 s^3 in s = r - nodes[i].  The cell of r has
    nodes[i] <= r < nodes[i+1], the last cell closed.  np.interp on the
    node indices finds it with a search that starts from the previous
    radius's cell, so sorted radii cost O(1) each; the floor of that
    fractional index can round up to i + 1 just below nodes[i+1], and one
    comparison takes it back.

    nodes must be finite and strictly increasing (a grid's nodes), at
    least three.  Non-finite values raise ParameterError, slopes that
    overflow NumericalError, where scipy raises ValueError.
    """
    x = np.ascontiguousarray(nodes, dtype=float)
    y = np.ascontiguousarray(values, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ParameterError("profile values to interpolate must be finite")
    # a zero cell slope (flat zero tails) divides by zero in the harmonic
    # mean, whose value is then not used; a tiny one overflows it, which
    # gives the slope 0 as in scipy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = np.diff(x)
        m = (y[1:] - y[:-1]) / h
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.empty_like(y)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        if not np.all(np.isfinite(d)):
            raise NumericalError("PCHIP slopes of the profile overflow")
        t = (d[:-1] + d[1:] - 2 * m) / h
        c0 = t / h
        c1 = (m - d[:-1]) / h - t
    c2 = d[:-1]
    # scipy's power sum starts from 0.0, which turns a value -0.0 into 0.0
    c3 = 0.0 + y[:-1]
    index = np.arange(len(x), dtype=float)
    last = len(x) - 2

    def evaluate(radii):
        r = np.asarray(radii, dtype=float)
        inside = (r >= x[0]) & (r <= x[-1])
        r = np.where(inside, r, x[0])
        i = np.interp(r, x, index).astype(np.intp)
        i -= x[i] > r
        np.minimum(i, last, out=i)
        s = r - x[i]
        s2 = s * s
        vals = c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)
        return np.where(inside & ~np.isnan(vals), vals, 0.0)

    return evaluate


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
