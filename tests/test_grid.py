"""Quadrature, norm and finite-difference contracts of the radial grid."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from massnls import (
    NumericalError,
    ParameterError,
    RadialFunction,
    RadialGrid,
    grad_norm_sq,
    grid_from_nodes,
    integrate,
    make_grid,
    norms,
    read_csv,
    write_csv,
)
from massnls.bubbles import (
    _normalized_grid,
    bubble_grid,
    mass_normalized_instanton,
    solve_cutoff_radius,
    truncated_instanton,
)
from massnls.functionals import fiber_scale, problem
from massnls.grid import (
    _DOT_BLOCK,
    _deriv_apply,
    _dot,
    _hat_weights,
    _moments,
    _pair_weights,
    _pchip,
    _row_dots,
    _stiff_apply,
    _volume_weights,
    sphere_area,
    tail_fraction,
)
from massnls.solvers import concentration_init

from csr_oracle import deriv_csr, stiffness_csr
from scan_oracle import pchip_resample

GAUSS_3D = math.pi ** 1.5  # int_{R^3} e^{-|x|^2} dx


def test_sphere_area_values():
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-12)
    assert sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-12)
    assert sphere_area(6) == pytest.approx(math.pi ** 3, rel=1e-12)


def test_ball_volume_uniform_n3():
    g = make_grid(3, 1.0, 64)
    vol = integrate(RadialFunction(g, np.ones_like(g.nodes)))
    assert vol == pytest.approx(4 * math.pi / 3, rel=1e-10)


def test_ball_volume_n4():
    g = make_grid(4, 1.0, 64)
    vol = integrate(RadialFunction(g, np.ones_like(g.nodes)))
    assert vol == pytest.approx(math.pi ** 2 / 2, rel=1e-10)


def test_linear_profile_value():
    # v(r) = r on the unit ball in R^3: omega_3/4 = pi
    g = make_grid(3, 1.0, 64)
    assert integrate(RadialFunction(g, g.nodes.copy())) == pytest.approx(
        math.pi, rel=1e-10
    )


def test_gaussian_on_graded_grid():
    g = make_grid(3, 20.0, 4096, grading="graded", strength=2.0)
    val = integrate(RadialFunction(g, np.exp(-(g.nodes ** 2))))
    assert val == pytest.approx(GAUSS_3D, rel=1e-8)


def test_gaussian_mass_fine_grid():
    g = make_grid(3, 20.0, 4096, grading="graded", strength=2.0)
    u = RadialFunction(g, np.exp(-(g.nodes ** 2) / 2))
    assert norms(u, 2) == pytest.approx(GAUSS_3D, rel=1e-8)


def test_halving_reduces_error():
    # order >= 2 demands a factor >= 3 per halving; the pairwise rule is
    # ~4th order, observed ratios are ~16.
    exact = (math.pi / 2) ** 1.5  # ||e^{-r^2}||_2^2 over R^3
    errs = []
    for M in (128, 256, 512):
        g = make_grid(3, 12.0, M, grading="graded", strength=2.0)
        u = RadialFunction(g, np.exp(-(g.nodes ** 2)))
        errs.append(abs(norms(u, 2) - exact))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


@settings(deadline=None, max_examples=40)
@given(
    N=st.integers(min_value=3, max_value=6),
    M=st.integers(min_value=4, max_value=257),
    strength=st.floats(min_value=1.0, max_value=4.0),
    R=st.floats(min_value=0.1, max_value=300.0),
    graded=st.booleans(),
)
def test_weights_nonnegative_and_sum_to_ball(N, M, strength, R, graded):
    g = make_grid(N, R, M, grading="graded" if graded else "uniform",
                  strength=strength)
    assert g.weights.min() >= 0.0
    vol = integrate(RadialFunction(g, np.ones_like(g.nodes)))
    assert vol == pytest.approx(g.omega_N * R ** N / N, rel=1e-10)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    s=st.sampled_from([2.0, 2.5, 4.0, 6.0]),
)
def test_triangle_inequality(seed, s):
    rng = np.random.default_rng(seed)
    g = make_grid(3, 5.0, 48)
    u = rng.normal(size=g.nodes.shape)
    v = rng.normal(size=g.nodes.shape)
    nu = norms(RadialFunction(g, u), s) ** (1 / s)
    nv = norms(RadialFunction(g, v), s) ** (1 / s)
    nuv = norms(RadialFunction(g, u + v), s) ** (1 / s)
    assert nuv <= nu + nv + 1e-12


def test_gradient_of_constant_vanishes():
    g = make_grid(3, 2.0, 64, grading="graded", strength=2.0)
    k = RadialFunction(g, np.full_like(g.nodes, 3.7))
    assert grad_norm_sq(k) <= 1e-12


def test_gradient_shift_invariance():
    g = make_grid(3, 6.0, 128)
    rng = np.random.default_rng(7)
    vals = np.exp(-g.nodes) * (1 + 0.1 * rng.normal(size=g.nodes.shape))
    a = grad_norm_sq(RadialFunction(g, vals))
    b = grad_norm_sq(RadialFunction(g, vals + 11.0))
    assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


def test_gradient_quadratic_profile():
    # u = r^2 on the unit ball in R^3: ||grad u||^2 = 4pi * int 4 r^4 = 16pi/5
    g = make_grid(3, 1.0, 256)
    u = RadialFunction(g, g.nodes ** 2)
    assert grad_norm_sq(u) == pytest.approx(16 * math.pi / 5, rel=1e-8)


def _exact_weights(N, nodes, bounds):
    """The quadrature rule in exact rational arithmetic on the float nodes.

    Returns the weights rounded to floats and the number of degraded pairs.
    """
    x = [Fraction(float(r)) for r in nodes]
    w = [Fraction(0)] * len(x)
    degraded = 0

    def moment(a, c, k):
        return (c ** (N + k) - a ** (N + k)) / (N + k)

    def hat(i):
        a, b = x[i], x[i + 1]
        m0, m1 = moment(a, b, 0), moment(a, b, 1)
        w[i] += (b * m0 - m1) / (b - a)
        w[i + 1] += (m1 - a * m0) / (b - a)

    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        k = g0
        while k + 1 < g1:
            a, b, c = x[k], x[k + 1], x[k + 2]
            m0, m1, m2 = (moment(a, c, j) for j in range(3))
            wa = (m2 - (b + c) * m1 + b * c * m0) / ((a - b) * (a - c))
            wb = (m2 - (a + c) * m1 + a * c * m0) / ((b - a) * (b - c))
            wc = (m2 - (a + b) * m1 + a * b * m0) / ((c - a) * (c - b))
            if min(wa, wb, wc) >= 0:
                w[k] += wa
                w[k + 1] += wb
                w[k + 2] += wc
            else:
                hat(k)
                hat(k + 1)
                degraded += 1
            k += 2
        if k < g1:
            hat(k)
    return np.array([float(v) for v in w]), degraded


def _assert_weights_match_exact(N, nodes, inner=()):
    g = grid_from_nodes(N, nodes, barrier_radii=nodes[list(inner)])
    bounds = [0, *sorted(int(j) for j in inner), len(nodes) - 1]
    exact, n_degraded = _exact_weights(N, nodes, bounds)
    assert np.max(np.abs(g.weights - exact)) <= 1e-9 * np.max(exact)
    return bounds, n_degraded


def test_weights_match_exact_rational_rule():
    # random small grids with 0-2 barriers: odd groups end in a hat cell,
    # and the spacing jumps make some pairs degrade to hat weights
    rng = np.random.default_rng(20260418)
    degraded = odd = 0
    for _ in range(50):
        N = int(rng.integers(3, 7))
        n = int(rng.integers(5, 41))
        nodes = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
        inner = rng.choice(np.arange(1, n - 1), size=int(rng.integers(0, 3)),
                           replace=False)
        bounds, n_degraded = _assert_weights_match_exact(N, nodes, inner)
        degraded += n_degraded > 1  # a degraded pair beyond the one at r = 0
        odd += any((b - a) % 2 for a, b in zip(bounds[:-1], bounds[1:]))
    assert degraded > 0 and odd > 0
    # far field: cells of width ~0.04 at r ~ 900, where moments formed as
    # differences of global powers lose ~7 digits to cancellation
    for N in range(3, 7):
        nodes = np.concatenate([[0.0], 900.0 + np.cumsum(rng.uniform(0.02, 0.06, 40))])
        _assert_weights_match_exact(N, nodes)


def _volume_weights_by_group(N, nodes, group_bounds):
    """The quadrature weights group by group, two hat calls per group and a
    scalar hat at an odd end: the oracle of the one-pass `_volume_weights`."""
    w = np.zeros_like(nodes)
    for g0, g1 in zip(group_bounds[:-1], group_bounds[1:]):
        k = np.arange(g0, g1 - 1, 2)
        a, b, c = nodes[k], nodes[k + 1], nodes[k + 2]
        wa, wb, wc = _pair_weights(N, a, b, c)
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


@pytest.mark.parametrize("kind, N, size", [
    *(("bubble", N, n) for N in range(3, 7) for n in (8, 32, 256)),
    ("normalized", 3, 2 ** 14),
    ("normalized", 3, 2 ** 16),
    *((grading, 3 + M % 4, M) for M in (4, 5, 3000, 3001) for grading in ("uniform", "graded")),
])
def test_volume_weights_equal_the_group_loop_bit_for_bit(kind, N, size):
    # 20 random group layouts per node set: up to five random bounds, each
    # followed by a second one or two nodes on, so one- and two-cell groups
    # occur beside the long ones
    if kind == "bubble":
        nodes = bubble_grid(N, size, 60.0, barrier_radii=(1.0, 2.0)).nodes
    elif kind == "normalized":
        nodes = _normalized_grid(N, size, solve_cutoff_radius(N, 1.0, size)).nodes
    else:
        nodes = make_grid(N, 60.0, size, kind).nodes
    rng = np.random.default_rng(1000 * N + size)
    M = len(nodes) - 1
    for _ in range(20):
        picks = rng.integers(1, M, int(rng.integers(0, 6)))
        picks = np.concatenate([picks, picks + rng.integers(1, 3, picks.size)])
        bounds = [0, *sorted(set(int(j) for j in picks if 0 < j < M)), M]
        want = _volume_weights_by_group(N, nodes, bounds)
        assert np.array_equal(_volume_weights(N, nodes, bounds), want)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_moments_match_exact_binomial_sums(N):
    # a cell at the origin and a far-field cell whose width is 1/60000 of its
    # offset: m_k = int_0^h s^k (a + s)^(N-1) ds in exact rational arithmetic
    a, h = np.array([0.0, 60.0]), np.array([1e-3, 1e-3])
    for k, got in enumerate(_moments(N, a, h)):
        for ai, hi, gi in zip(a, h, got):
            A, H = Fraction(float(ai)), Fraction(float(hi))
            want = sum(math.comb(N - 1, j) * A ** (N - 1 - j) * H ** (j + k + 1) / (j + k + 1)
                       for j in range(N))
            assert abs(Fraction(float(gi)) - want) <= 4 * np.finfo(float).eps * want


def test_barrier_respects_kink():
    # v(r) = max(0, 1 - r) on [0, 2]: int r^2 v^2 over [0,1] = 1/30
    nodes = np.linspace(0.0, 2.0, 129)
    g = grid_from_nodes(3, nodes, barrier_radii=[1.0])
    v = np.clip(1.0 - nodes, 0.0, None)
    val = norms(RadialFunction(g, v), 2)
    # exact on quadratics away from the origin pair, whose hat-weight
    # fallback contributes the only (O(h^5)) defect; the kink itself adds
    # nothing because pairing stops at the barrier
    assert val == pytest.approx(4 * math.pi / 30, rel=1e-7)
    assert g.barriers == (1.0,)


def test_barrier_must_hit_node():
    nodes = np.linspace(0.0, 2.0, 129)
    with pytest.raises(ParameterError):
        grid_from_nodes(3, nodes, barrier_radii=[1.0001])


def test_tail_fraction_diagnostic():
    g = make_grid(3, 20.0, 512, grading="graded", strength=2.0)
    u = RadialFunction(g, np.exp(-(g.nodes ** 2)))
    assert tail_fraction(u) < 1e-12
    one = RadialFunction(make_grid(3, 1.0, 512), np.ones(513))
    # outer 5% of the radius carries ~ 1 - 0.95^3 of the ball volume (the
    # node-based cut makes this approximate; it is a diagnostic, not a norm)
    assert tail_fraction(one) == pytest.approx(1 - 0.95 ** 3, rel=5e-2)


def test_pchip_resample_mass_drift():
    g = make_grid(3, 12.0, 256, grading="graded", strength=2.0)
    u = RadialFunction(g, np.exp(-(g.nodes ** 2) / 2))
    fine = make_grid(3, 12.0, 1024, grading="graded", strength=2.0)
    v = pchip_resample(u, fine)
    assert norms(v, 2) == pytest.approx(norms(u, 2), rel=1e-6)


def _scipy_pchip(nodes, values, radii):
    """The oracle of `grid._pchip`: scipy's PCHIP without extrapolation,
    with NaN mapped to 0."""
    from scipy.interpolate import PchipInterpolator

    # flat zero tails trip harmless divide warnings in scipy's slopes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = PchipInterpolator(nodes, values, extrapolate=False)(radii)
    return np.where(np.isnan(vals), 0.0, vals)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


_PCHIP_GRIDS = {
    "uniform": lambda: make_grid(3, 10.0, 300),
    "graded": lambda: make_grid(4, 60.0, 2500, grading="graded"),
    "bubble": lambda: bubble_grid(3, 64, 60.0, barrier_radii=(1.0, 2.0)),
    "random": lambda: grid_from_nodes(3, np.concatenate(
        [[0.0], np.cumsum(np.random.default_rng(5).exponential(size=400))])),
}


@pytest.mark.parametrize("kind", list(_PCHIP_GRIDS))
def test_pchip_is_scipys_pchip_to_the_bit(kind):
    g = _PCHIP_GRIDS[kind]()
    x, n = g.nodes, len(g.nodes)
    rng = np.random.default_rng(1)
    flat = rng.standard_normal(n)
    flat[: n // 5] = 0.0
    flat[n // 2:] = 0.0
    profiles = {
        "signed": rng.standard_normal(n),
        "oscillating": np.cos(3.0 * x) * np.exp(-0.1 * x),
        "flat zero head and tail": flat,
        # exp(-(r/2)^2) is exactly 0 beyond r ~ 55: a flat zero tail
        "gaussian": np.exp(-((x / 2.0) ** 2)),
        "monotone": np.sqrt(x),
    }
    R = x[-1]
    radii = np.concatenate([
        x,
        np.nextafter(x, -np.inf),      # just below a node, where np.interp's
        np.nextafter(x, np.inf),       # fractional index can round up
        0.5 * (x[1:] + x[:-1]),
        rng.uniform(-0.1 * R, 1.1 * R, 2000),
        [x[0], -0.0, x[-1], -1.0, 2.0 * R, np.nan, np.inf, -np.inf],
    ])
    for name, y in profiles.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            interp = _pchip(x, y)
            got = interp(radii)
        assert np.array_equal(_bits(got), _bits(_scipy_pchip(x, y, radii))), name
        # the re-centering dilations: fiber_scale samples at t r_i
        u = RadialFunction(g, y)
        for t in (0.5, 0.97, 1.0 - 1e-12, 1.0 + 1e-12, 1.03, 2.0):
            want = t ** (g.N / 2.0) * _scipy_pchip(x, y, t * x)
            assert np.array_equal(_bits(fiber_scale(u, t).values), _bits(want)), (name, t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pchip_refuses_non_finite_values(bad):
    g = make_grid(3, 1.0, 16)
    y = np.ones(len(g.nodes))
    y[7] = bad
    with pytest.raises(ParameterError):
        _pchip(g.nodes, y)


def test_pchip_refuses_slopes_that_overflow():
    # the cell slope -2e308/h is -inf, and the end slope 3 m0 overflows
    g = make_grid(3, 1.0, 16)
    y = np.zeros(len(g.nodes))
    y[1:3] = 1e308, -1e308
    with pytest.raises(NumericalError):
        _pchip(g.nodes, y)


def test_grids_compare_and_hash_by_identity():
    g1, g2 = make_grid(3, 1.0, 16), make_grid(3, 1.0, 16)
    assert g1 != g2
    assert not g1 == g2
    assert g1 == g1
    assert g1.same_layout(g2)
    assert {g1, g2, g1} == {g1, g2}
    assert len({g1, g2}) == 2


def test_csv_roundtrip_identical_bytes(tmp_path):
    g = make_grid(3, 7.5, 96, grading="graded", strength=2.0)
    u = RadialFunction(g, np.exp(-g.nodes) * np.cos(g.nodes))
    p1 = tmp_path / "u.csv"
    p2 = tmp_path / "u2.csv"
    write_csv(u, p1)
    v = read_csv(p1)
    write_csv(v, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert norms(v, 2) == pytest.approx(norms(u, 2), rel=1e-12)
    assert v.grid.N == 3 and v.grid.M == 96


def test_csv_header_required(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.0,1.0\n0.5,0.7\n1.0,0.1\n")
    with pytest.raises(ParameterError):
        read_csv(p)


@pytest.mark.parametrize("text, match", [
    ("# N=3 R_max=1 M=4\n" + "".join(f"{r},1.0,0.0\n" for r in (0, .25, .5, .75, 1)),
     "two columns"),
    ("# N=3 R_max=1 M=5\n" + "".join(f"{r},1.0\n" for r in (0, .25, .5, .75, 1)), "M=5"),
    ("# N=3 R_max=2 M=4\n" + "".join(f"{r},1.0\n" for r in (0, .25, .5, .75, 1)), "last node"),
], ids=["three_columns", "row_count", "last_node"])
def test_read_csv_refuses_a_body_that_disagrees_with_its_header(tmp_path, text, match):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ParameterError, match=match):
        read_csv(p)


@pytest.mark.parametrize("nodes, weights, match", [
    ([0.0, 1.0, 2.0, 3.0], [1.0] * 4, "at least 5 nodes"),
    ([0.5, 1.0, 2.0, 3.0, 4.0], [1.0] * 5, "first node"),
    ([0.0, 1.0, 1.0, 3.0, 4.0], [1.0] * 5, "strictly increasing"),
    ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0] * 4, "shape mismatch"),
], ids=["four_nodes", "first_node", "repeated_node", "weights_shape"])
def test_radial_grid_refuses_malformed_nodes_and_weights(nodes, weights, match):
    with pytest.raises(ParameterError, match=match):
        RadialGrid(3, nodes, weights)


def test_radial_function_refuses_values_of_another_shape():
    g = make_grid(3, 1.0, 8)
    with pytest.raises(ParameterError, match="does not match"):
        RadialFunction(g, np.ones(8))


@pytest.mark.parametrize("s", [0, -2.0, math.nan, math.inf, "2", True])
def test_norms_reject_an_exponent_that_is_not_positive_and_finite(s):
    # inf returned a number and "2" raised TypeError
    g = make_grid(3, 1.0, 8)
    with pytest.raises(ParameterError, match="norm exponent"):
        norms(RadialFunction(g, np.exp(-g.nodes)), s)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=2, R_max=1.0, M=64),
        dict(N=3, R_max=-1.0, M=64),
        dict(N=3, R_max=1.0, M=3),
        dict(N=3, R_max=1.0, M=64, grading="mystery"),
        dict(N=3, R_max=1.0, M=64, grading="graded", strength=0.5),
        # inf warned in the node arithmetic, then failed the first-node check
        dict(N=3, R_max=math.inf, M=64),
        dict(N=3, R_max=math.nan, M=64),
        # "1" raised TypeError; True and the unused infinite strength were
        # accepted
        dict(N=3, R_max="1", M=16),
        dict(N=3, R_max=True, M=16),
        dict(N=3, R_max=1.0, M=64, strength=math.inf),
    ],
)
def test_make_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ParameterError):
        make_grid(**kwargs)


@pytest.mark.parametrize(
    "grid",
    [
        make_grid(4, 3.0, 200, grading="graded", strength=2.5),
        grid_from_nodes(3, np.linspace(0.0, 2.0, 129), barrier_radii=[0.5, 1.0]),
    ],
    ids=["graded", "barriers"],
)
def test_stiffness_of_the_radius_is_the_ball_volume(grid):
    # u = r is linear, so its P1 interpolant is exact and |grad u| = 1:
    # u K u = omega_N R^N / N
    u = grid.nodes
    want = grid.omega_N * grid.R_max ** grid.N / grid.N
    assert float(u @ (stiffness_csr(grid) @ u)) == pytest.approx(want, rel=1e-12)


def test_derivative_matrix_exact_on_quadratics():
    # the 3-point stencils, one-sided ones included, are exact on r^2
    g = grid_from_nodes(3, 4.0 * np.linspace(0.0, 1.0, 97) ** 1.7)
    du = deriv_csr(g) @ g.nodes ** 2
    np.testing.assert_allclose(du, 2.0 * g.nodes, rtol=1e-10, atol=1e-12)


_OPERATOR_GRIDS = {
    "anchor": lambda: concentration_init(problem(3, 1.0, 1.0, 4.0), seed=0).grid,
    "bubble": lambda: bubble_grid(3, 64, 60, (1, 2)),
    "graded_N4": lambda: make_grid(4, 12, 300, "graded"),
    "crit3": lambda: mass_normalized_instanton(3, 1, 2 ** 16).grid,
}


@pytest.mark.parametrize("case", list(_OPERATOR_GRIDS))
def test_stencils_equal_the_csr_products_bit_for_bit(case):
    # each stencil row adds its products in the CSR product's order
    g = _OPERATOR_GRIDS[case]()
    rng = np.random.default_rng(0)
    signed = rng.standard_normal(len(g.nodes))
    signed[::7] = 0.0
    for v in (signed, np.exp(-g.nodes), g.nodes ** 2):
        assert np.array_equal(_stiff_apply(g.stiffness, v), stiffness_csr(g) @ v)
        assert np.array_equal(_deriv_apply(g.deriv, v), deriv_csr(g) @ v)


def test_grid_operators_are_read_only():
    g = make_grid(3, 1.0, 16)
    main, off = g.stiffness
    for arr, idx in ((main, 0), (off, 0), (g.deriv, (0, 0))):
        with pytest.raises(ValueError, match="read-only"):
            arr[idx] = 1.0


@pytest.mark.parametrize("build", [
    lambda: bubble_grid(3, 1e200, 60.0),
    lambda: make_grid(3, 1e-200, 10),
], ids=["bubble_1e200", "uniform_1e-200"])
def test_grid_with_non_finite_weights_is_refused(build):
    # the node spacing underflows in the weight moments: these returned grids
    # with 33,490 and 11 NaN weights and only a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(ParameterError, match="weights are not finite"):
                build()


@pytest.mark.parametrize("case", ["bubble", "kink"])
def test_csv_roundtrip_keeps_barriers(tmp_path, case):
    if case == "bubble":
        u = truncated_instanton(3, 12, bubble_grid(3, 12, 60, (1, 2)))
    else:
        nodes = np.linspace(0.0, 2.0, 128)
        g = grid_from_nodes(3, nodes, [nodes[63]])
        u = RadialFunction(g, np.clip(nodes[63] - nodes, 0.0, None))
    path = tmp_path / "u.csv"
    write_csv(u, path)
    v = read_csv(path)
    assert v.grid.barriers == u.grid.barriers != ()
    assert np.array_equal(v.grid.weights, u.grid.weights)
    assert np.array_equal(v.values, u.values)


@pytest.mark.parametrize("n", [1, 100, _DOT_BLOCK - 1, _DOT_BLOCK, _DOT_BLOCK + 1, 19054])
def test_dot_is_one_ddot_up_to_the_block_and_exact_beyond(n):
    rng = np.random.default_rng(n)
    a, b = rng.random(n), rng.random(n)
    got = _dot(a, b)
    assert type(got) is float
    if n <= _DOT_BLOCK:
        assert got == float(a @ b)
    else:
        want = math.fsum(a * b)
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("n", [1, 100, _DOT_BLOCK, _DOT_BLOCK + 1, 19054])
def test_row_dots_are_the_dots_of_each_row(n):
    # one ddot per row up to the block, then the blocks of `_dot` in order
    rng = np.random.default_rng(n)
    a, w = rng.random((3, n)), rng.random(n)
    got = _row_dots(a, w)
    assert got.shape == (3,)
    assert [float(x) for x in got] == [_dot(row, w) for row in a]
    if n <= _DOT_BLOCK:
        assert np.array_equal(got, np.vecdot(a, w))
