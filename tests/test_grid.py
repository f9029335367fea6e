"""Quadrature, norm and finite-difference contracts of the radial grid."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from massnls import (
    ParameterError,
    RadialFunction,
    grad_norm_sq,
    grid_from_nodes,
    integrate,
    make_grid,
    norms,
    read_csv,
    write_csv,
)
from massnls.bubbles import bubble_grid, truncated_instanton
from massnls.grid import pchip_resample, sphere_area, tail_fraction

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


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=2, R_max=1.0, M=64),
        dict(N=3, R_max=-1.0, M=64),
        dict(N=3, R_max=1.0, M=3),
        dict(N=3, R_max=1.0, M=64, grading="mystery"),
        dict(N=3, R_max=1.0, M=64, grading="graded", strength=0.5),
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
    assert float(u @ (grid.stiffness @ u)) == pytest.approx(want, rel=1e-12)


def test_derivative_matrix_exact_on_quadratics():
    # the 3-point stencils, one-sided ones included, are exact on r^2
    g = grid_from_nodes(3, 4.0 * np.linspace(0.0, 1.0, 97) ** 1.7)
    du = g.deriv @ g.nodes ** 2
    np.testing.assert_allclose(du, 2.0 * g.nodes, rtol=1e-10, atol=1e-12)


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
