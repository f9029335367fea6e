"""Tests for fiber critical points and the constraint-manifold energy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from massnls.constants import sobolev_constant
from massnls.errors import (
    HypothesisError,
    NoCriticalPointError,
    NumericalError,
    ParameterError,
)
from massnls.grid import RadialFunction, make_grid
from massnls.functionals import (
    NormBundle,
    energy,
    fiber_derivative,
    fiber_energy,
    fiber_scale,
    fiber_second_derivative,
    norm_bundle,
    pohozaev,
    problem,
)
from massnls.manifold import (
    FiberCriticalPoint,
    fiber_critical_points,
    manifold_energy,
    manifold_projection,
)
import massnls.manifold as manifold_mod


def _grid(M=2048, R=20.0):
    return make_grid(3, R, M, grading="graded", strength=2.0)


def _mix(g):
    return RadialFunction(
        g, 1.3 * np.exp(-2.0 * g.nodes ** 2) + 0.4 * np.exp(-0.7 * g.nodes ** 2)
    )


# ----------------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------------

def test_closed_form_at_mass_critical_exponent():
    p = problem(3, 1.0, 1.0, 10.0 / 3.0)
    a, d, b = 2.0, 1.0, 1.0
    t_cf = ((a - p.mu * p.gamma_q * d) / b) ** 0.25  # exponent (N-2)/4 with N=3
    pts = fiber_critical_points((a, d, b), p)
    assert len(pts) == 1
    assert pts[0].second_derivative_sign == "minus"
    assert pts[0].t == pytest.approx(t_cf, rel=1e-12)


def test_root_is_one_when_coefficients_balance():
    p = problem(3, 1.0, 1.0, 10.0 / 3.0)
    d, b = 1.0, 1.0
    a = b + p.mu * p.gamma_q * d  # forces a - mu*gamma*d = b
    pts = fiber_critical_points((a, d, b), p)
    assert pts[0].t == pytest.approx(1.0, rel=1e-12)


def test_closed_form_without_subcritical_term():
    p = problem(3, 1.0, 0.0, 4.0)
    pts = fiber_critical_points((3.0, 0.7, 1.0), p)
    assert len(pts) == 1
    assert pts[0].second_derivative_sign == "minus"
    assert pts[0].t == pytest.approx(3.0 ** 0.25, rel=1e-12)


def test_pure_critical_max_level():
    # norms (1, 0, 1), mu = 0, N = 3: the fiber max is exactly 1/3
    p = problem(3, 1.0, 0.0, 4.0)
    assert manifold_energy((1.0, 0.0, 1.0), p) == pytest.approx(1.0 / 3.0, abs=1e-14)
    # and with both norms at the Sobolev saturation value the level is S^{3/2}/3
    S = sobolev_constant(3).S_pow
    assert manifold_energy((S, 0.0, S), p) == pytest.approx(S / 3.0, rel=1e-14)


# ----------------------------------------------------------------------------
# generic supercritical-exponent behaviour
# ----------------------------------------------------------------------------

def test_unique_maximum_for_supercritical_exponent():
    g = _grid()
    u = _mix(g)
    p = problem(3, 1.0, 1.0, 4.0)
    pts = fiber_critical_points(u, p)
    assert len(pts) == 1
    pt = pts[0]
    assert pt.second_derivative_sign == "minus"
    nb = norm_bundle(u, p)
    # root residual within the advertised band
    qg = p.q * p.gamma_q
    scale = (
        nb.grad_sq * pt.t
        + p.mu * p.gamma_q * nb.lq * pt.t ** (qg - 1.0)
        + nb.lcrit * pt.t ** (p.two_star - 1.0)
    )
    assert abs(fiber_derivative(nb, p, pt.t)) <= 1e-8 * scale


def test_single_crossing_sign_structure():
    g = _grid()
    u = _mix(g)
    p = problem(3, 1.0, 1.0, 4.0)
    nb = norm_bundle(u, p)
    t_u = fiber_critical_points(nb, p)[0].t
    below = np.geomspace(1e-4, t_u * (1.0 - 1e-6), 100)
    above = np.geomspace(t_u * (1.0 + 1e-6), 1e4, 100)
    assert np.all(fiber_derivative(nb, p, below) > 0.0)
    assert np.all(fiber_derivative(nb, p, above) < 0.0)


def test_manifold_energy_matches_brute_force_scan():
    g = _grid()
    u = _mix(g)
    p = problem(3, 1.0, 1.0, 4.0)
    nb = norm_bundle(u, p)
    val = manifold_energy(nb, p)
    ts = np.geomspace(1e-3, 1e3, 100000)
    scan = float(np.max(fiber_energy(nb, p, ts)))
    assert scan <= val + 1e-12 * (1.0 + abs(val))
    assert val - scan <= 1e-8 * (1.0 + abs(val))


def test_projected_profile_sits_on_manifold():
    g = make_grid(3, 20.0, 4096, grading="graded", strength=2.0)
    u = RadialFunction(
        g, 1.3 * np.exp(-2.0 * g.nodes ** 2) + 0.4 * np.exp(-0.7 * g.nodes ** 2)
    )
    p = problem(3, 1.0, 1.0, 4.0)
    pt = manifold_projection(u, p)
    w = fiber_scale(u, pt.t)
    # the scaled profile carries (numerically) zero Pohozaev value ...
    nb_w = norm_bundle(w, p)
    assert abs(pohozaev(w, p)) <= 1e-5 * nb_w.grad_sq
    # ... its own projection is the identity ...
    assert manifold_projection(w, p).t == pytest.approx(1.0, abs=1e-5)
    # ... and its manifold energy is its energy
    assert manifold_energy(w, p) == pytest.approx(energy(w, p), rel=1e-9)


def test_dilation_covariance_exact_bundles():
    p = problem(3, 1.0, 1.0, 4.0)
    nb = NormBundle(1.0, 2.3, 0.8, 1.7)
    t_u = fiber_critical_points(nb, p)[0].t
    for s in (0.5, 2.0, 3.7):
        t_s = fiber_critical_points(nb.scaled(p, s), p)[0].t
        assert t_s == pytest.approx(t_u / s, rel=1e-12)


def test_dilation_covariance_through_resampling():
    g = make_grid(3, 20.0, 4096, grading="graded", strength=2.0)
    u = RadialFunction(
        g, 1.3 * np.exp(-2.0 * g.nodes ** 2) + 0.4 * np.exp(-0.7 * g.nodes ** 2)
    )
    p = problem(3, 1.0, 1.0, 4.0)
    t_u = manifold_projection(u, p).t
    for s in (0.5, 2.0):
        t_s = manifold_projection(fiber_scale(u, s), p).t
        assert t_s == pytest.approx(t_u / s, rel=1e-6)


@given(
    a=st.floats(min_value=1e-2, max_value=1e2),
    d=st.floats(min_value=1e-2, max_value=1e2),
    b=st.floats(min_value=1e-2, max_value=1e2),
    mu=st.floats(min_value=0.0, max_value=5.0),
    q=st.floats(min_value=3.4, max_value=5.9),
)
@example(a=1.0, d=1.0, b=1.0, mu=8.4e-178, q=3.5)  # (k a/A)^(1/e1) overflows
@settings(max_examples=80, deadline=None)
def test_unique_max_property_above_mass_critical(a, d, b, mu, q):
    p = problem(3, 1.0, mu, q)
    nb = NormBundle(1.0, a, d, b)
    pts = fiber_critical_points(nb, p)
    assert len(pts) == 1
    pt = pts[0]
    assert pt.second_derivative_sign == "minus"
    # local max: the fiber energy dips on both sides
    for s in (0.9, 1.1):
        assert fiber_energy(nb, p, pt.t * s) <= pt.value + 1e-12 * (1 + abs(pt.value))


def _root_residual(a, d, b, p, t):
    """|g(t)| over the sum of the absolute sizes of g's three terms."""
    qg = p.q * p.gamma_q
    scale = a * t + p.mu * p.gamma_q * d * t ** (qg - 1.0) + b * t ** (p.two_star - 1.0)
    return abs(fiber_derivative((a, d, b), p, t)) / scale


def test_plus_root_far_below_one():
    # the local minimum sits near t = 1.6e-7
    p = problem(3, 1.0, 1.0, 2.5)
    pts = fiber_critical_points((1.0, 1e-8, 1.0), p)
    assert [pt.second_derivative_sign for pt in pts] == ["plus", "minus"]
    assert pts[0].t < 1e-6 < pts[1].t
    for pt in pts:
        assert _root_residual(1.0, 1e-8, 1.0, p, pt.t) <= 1e-12


def test_unique_root_far_below_one_above_mass_critical():
    # a small gradient norm against a large subcritical term puts the root
    # near t = 6e-16
    p = problem(3, 1.0, 1.0, 3.5)
    pts = fiber_critical_points((0.01, 100.0, 1.0), p)
    assert [pt.second_derivative_sign for pt in pts] == ["minus"]
    assert pts[0].t < 1e-6
    assert _root_residual(0.01, 100.0, 1.0, p, pts[0].t) <= 1e-12


@pytest.mark.parametrize("b", [0.0, 1e-5])
def test_root_near_1e_minus_300_where_g_underflows(b):
    # at q = 4 (e1 = 1) the root solves a = A t, so t = a/A = 1e-300; there
    # both terms of g are subnormal and g itself loses its sign change,
    # while the log-space h keeps full precision
    p = problem(3, 1.0, 1.0, 4.0)
    a, d = 1e-10, 1e290 / (p.mu * p.gamma_q)
    pts = fiber_critical_points((a, d, b), p)
    assert [pt.second_derivative_sign for pt in pts] == ["minus"]
    assert pts[0].t == pytest.approx(a / (p.mu * p.gamma_q * d), rel=1e-12)


# ----------------------------------------------------------------------------
# mass-subcritical exponents: zero / one / two roots
# ----------------------------------------------------------------------------

def test_two_roots_below_mass_critical():
    p = problem(3, 1.0, 1.0, 2.5)
    nb = NormBundle(1.0, 1.0, 0.1, 1.0)
    pts = fiber_critical_points(nb, p)
    assert len(pts) == 2
    t_plus, t_minus = pts
    assert t_plus.t < t_minus.t
    assert t_plus.second_derivative_sign == "plus"
    assert t_minus.second_derivative_sign == "minus"
    assert t_minus.value > t_plus.value
    # classify against second differences of the fiber energy
    for pt, is_min in ((t_plus, True), (t_minus, False)):
        h = 1e-4 * pt.t
        bump = (
            fiber_energy(nb, p, pt.t - h)
            - 2.0 * fiber_energy(nb, p, pt.t)
            + fiber_energy(nb, p, pt.t + h)
        )
        assert (bump > 0.0) == is_min
    # brute-force scan agreement for both branches
    ts = np.geomspace(1e-3, 1e3, 100000)
    vals = fiber_energy(nb, p, ts)
    assert float(np.max(vals)) == pytest.approx(t_minus.value, abs=1e-8)
    left = ts <= t_minus.t
    assert float(np.min(vals[left])) == pytest.approx(t_plus.value, abs=1e-8)


def test_no_roots_when_subcritical_term_dominates():
    p = problem(3, 1.0, 1.0, 2.5)
    assert fiber_critical_points((1.0, 100.0, 1.0), p) == []


def test_degenerate_tangency_classifies_as_zero():
    # tune d so that g and g' vanish together: a double root of the fiber
    # derivative (for a = b = 1, q = 2.5, N = 3 it sits at t = (5/21)^(1/4))
    p = problem(3, 1.0, 1.0, 2.5)
    t_star = (5.0 / 21.0) ** 0.25
    d_star = (t_star - t_star ** 5) * t_star ** 0.25 / 0.3
    nb = NormBundle(1.0, 1.0, d_star, 1.0)
    assert abs(fiber_derivative(nb, p, t_star)) < 1e-13
    assert abs(fiber_second_derivative(nb, p, t_star)) < 1e-12
    assert manifold_mod._classify(nb, p, t_star) == "zero"


def _tangency_d():
    # the d of test_degenerate_tangency_classifies_as_zero
    t_star = (5.0 / 21.0) ** 0.25
    return (t_star - t_star ** 5) * t_star ** 0.25 / 0.3


@pytest.mark.parametrize("rel", [-1e-9, -1e-12, -1e-14, 0.0, 1e-14, 1e-12, 1e-9])
def test_tangency_gives_at_most_one_degenerate_root(rel):
    # the two roots lie within rounding of each other (d at or below the
    # tangency) or do not exist (above it): one degenerate point or none,
    # never a pair and never an error
    p = problem(3, 1.0, 1.0, 2.5)
    nb = NormBundle(1.0, 1.0, _tangency_d() * (1.0 + rel), 1.0)
    pts = fiber_critical_points(nb, p)
    assert [pt.second_derivative_sign for pt in pts] == (["zero"] if rel <= 0 else [])
    if rel == 0.0:
        assert pts[0].t == pytest.approx((5.0 / 21.0) ** 0.25, rel=1e-12)


def test_root_found_when_a_bracket_end_leaves_the_float_range():
    # q within 1e-6 of 2+4/N: the A-term bracket end (k a/A)^(1/e1) lies
    # hundreds of thousands of decades away, the root near t = 1
    p = problem(3, 1.0, 1.0, 10.0 / 3.0 - 1e-6)
    pts = fiber_critical_points((1.0, 1.0, 1.0), p)
    # the 'plus' root sits near t = exp(-3.4e5), beyond the float range
    assert [pt.second_derivative_sign for pt in pts] == ["minus"]
    assert _root_residual(1.0, 1.0, 1.0, p, pts[0].t) <= 1e-12
    p = problem(3, 1.0, 1.0, 10.0 / 3.0 + 1e-6)
    a = 0.9999 * p.gamma_q
    pts = fiber_critical_points((a, 1.0, 1.0), p)
    assert [pt.second_derivative_sign for pt in pts] == ["minus"]
    assert pts[0].t < 1e-20
    assert _root_residual(a, 1.0, 1.0, p, pts[0].t) <= 1e-12


def test_root_beyond_the_float_range_raises():
    # as above with q - (2+4/N) = 1e-9: the root sits near t = exp(-6.7e4)
    p = problem(3, 1.0, 1.0, 10.0 / 3.0 + 1e-9)
    with pytest.raises(NoCriticalPointError, match="floating-point range"):
        fiber_critical_points((0.9999 * p.gamma_q, 1.0, 1.0), p)


# ----------------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------------

def test_no_reaction_terms_raises():
    p = problem(3, 1.0, 1.0, 4.0)
    with pytest.raises(NoCriticalPointError):
        fiber_critical_points((1.0, 0.0, 0.0), p)


def test_dominated_mass_critical_raises():
    p = problem(3, 1.0, 1.0, 10.0 / 3.0)
    # a - mu*gamma_q*d < 0: the fiber derivative is negative everywhere
    with pytest.raises(NoCriticalPointError):
        fiber_critical_points((0.1, 1.0, 1.0), p)


@pytest.mark.parametrize("q", [2.5, 10.0 / 3.0, 4.0])
def test_bad_norms_raise(q):
    p = problem(3, 1.0, 1.0, q)
    with pytest.raises(ParameterError):
        fiber_critical_points((1.0, -0.5, 1.0), p)
    with pytest.raises(NumericalError):
        fiber_critical_points((1.0, 0.5, float("nan")), p)


def test_manifold_energy_rejects_mass_subcritical():
    p = problem(3, 1.0, 1.0, 2.5)
    with pytest.raises(HypothesisError):
        manifold_energy((1.0, 0.1, 1.0), p)
    with pytest.raises(HypothesisError):
        manifold_projection((1.0, 0.1, 1.0), p)


def test_critical_point_record_fields():
    pt = FiberCriticalPoint(1.5, "minus", 0.7)
    assert pt.t == 1.5 and pt.second_derivative_sign == "minus" and pt.value == 0.7
