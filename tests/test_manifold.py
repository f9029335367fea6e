"""Tests for fiber critical points and the constraint-manifold energy."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from massnls.constants import sobolev_constant
from massnls.errors import (
    HypothesisError,
    MassNLSError,
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
    _fiber_minimum,
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
# the fiber minimum on its own
# ----------------------------------------------------------------------------

def _first_plus(nb, p):
    """The 'plus' entry of fiber_critical_points, or None: the fiber minimum
    as the valley descent took it when it solved for every root."""
    return next((pt for pt in fiber_critical_points(nb, p)
                 if pt.second_derivative_sign == "plus"), None)


def _bits(pt):
    return None if pt is None else (pt.t.hex(), pt.second_derivative_sign, pt.value.hex())


# norms over sixty decades and 0.  Beyond about 1e+-30 the 'minus' root can
# lie past t ~ 1e51, where `fiber_critical_points` overflows valuing it in t,
# while the fiber minimum never values that root: there is no oracle there
_NORM = st.one_of(st.just(0.0), st.floats(-30.0, 30.0).map(lambda e: 10.0 ** e))
# q = 2 + f 4/N: f in the bulk, or within 1e-5..1e-11 of 1, where a root
# falls beyond the floating-point range
_FRACTION = st.one_of(st.floats(0.01, 0.99), st.floats(5.0, 11.0).map(lambda k: 1.0 - 10.0 ** -k))


@given(a=_NORM, d=_NORM, b=_NORM, mu=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       N=st.sampled_from([3, 4, 5, 6]), f=_FRACTION)
@example(a=1.0, d=1.0, b=1.0, mu=1.0, N=3, f=0.375)     # two roots, q = 2.5
@example(a=1.0, d=_tangency_d(), b=1.0, mu=1.0, N=3, f=0.375)  # degenerate t*
@example(a=1.0, d=100.0, b=1.0, mu=1.0, N=3, f=0.375)   # no root
@example(a=1.0, d=1.0, b=1.0, mu=0.0, N=3, f=0.375)     # A = 0: one 'minus' root
@example(a=1.0, d=1.0, b=0.0, mu=1.0, N=3, f=0.375)     # b = 0: one 'plus' root
@example(a=0.0, d=1.0, b=1.0, mu=1.0, N=3, f=0.375)     # a = 0: no root
@example(a=1.0, d=1e-8, b=1.0, mu=1.0, N=3, f=0.375)    # 'plus' root near t = 1.6e-7
# the 'plus' root near t = exp(-3.4e5), beyond the floating-point range
@example(a=1.0, d=1.0, b=1.0, mu=1.0, N=3, f=1.0 - 7.5e-7)
@settings(max_examples=300, deadline=None)
def test_fiber_minimum_is_the_plus_point_of_fiber_critical_points(a, d, b, mu, N, f):
    p = problem(N, 1.0, mu, 2.0 + f * 4.0 / N)
    assert p.mass_subcritical
    nb = NormBundle(1.0, a, d, b)
    try:
        want = _bits(_first_plus(nb, p))
    except Exception as exc:
        # the same error, e.g. a NoCriticalPointError where the first root
        # overflows in t
        with pytest.raises(type(exc)) as got:
            _fiber_minimum(nb, p)
        assert str(got.value) == str(exc)
        return
    assert _bits(_fiber_minimum(nb, p)) == want
    assert _bits(_fiber_minimum((a, d, b), p)) == want


def test_fiber_minimum_solves_one_root_where_the_fiber_has_two(monkeypatch):
    p = problem(3, 1.0, 1.0, 2.5)
    nb = NormBundle(1.0, 1.0, 0.1, 1.0)
    calls = []
    original = manifold_mod.brentq

    def brentq(f, s_lo, s_hi, **kwargs):
        calls.append((s_lo, s_hi))
        return original(f, s_lo, s_hi, **kwargs)

    monkeypatch.setattr(manifold_mod, "brentq", brentq)
    assert len(fiber_critical_points(nb, p)) == 2
    assert len(calls) == 2
    calls.clear()
    pt = _fiber_minimum(nb, p)
    assert pt.second_derivative_sign == "plus"
    # one solve, on the left bracket, which ends at t*
    assert len(calls) == 1
    assert math.exp(calls[0][0]) < pt.t < math.exp(calls[0][1])


@pytest.mark.parametrize("norms, error", [
    ((1.0, -0.5, 1.0), ParameterError),
    ((-1.0, 0.5, 1.0), ParameterError),
    ((1.0, 0.5, float("nan")), NumericalError),
    ((float("inf"), 0.5, 1.0), NumericalError),
    ((1.0, 0.0, 0.0), NoCriticalPointError),
])
def test_fiber_minimum_raises_what_fiber_critical_points_raises(norms, error):
    p = problem(3, 1.0, 1.0, 2.5)
    with pytest.raises(error) as want:
        fiber_critical_points(norms, p)
    with pytest.raises(error) as got:
        _fiber_minimum(norms, p)
    assert str(got.value) == str(want.value)


# ----------------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------------

# norms over the whole positive float range, subnormals included, and 0
_ANY_NORM = st.one_of(st.just(0.0), st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e))


@given(a=_ANY_NORM, d=_ANY_NORM, b=_ANY_NORM,
       mu=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
       N=st.sampled_from([3, 4, 5, 6]), f=st.one_of(st.just(1.0), st.floats(0.01, 1.49)))
# a root whose powers of t overflow: near t = 2.7e95, and the P- root near
# t = 3e62 (the P+ root is in range)
@example(a=1e-5, d=1.0, b=0.0, mu=1.0, N=3, f=0.975)
@example(a=1.0, d=1e-3, b=1e-250, mu=1.0, N=3, f=0.375)
@example(a=5e-324, d=1.0, b=1.0, mu=1.0, N=3, f=1.5)       # 0.4 a underflows to 0
@example(a=1.7e308, d=1.0, b=1.7e308, mu=1.0, N=3, f=1.5)  # h overflows at t = e^709
@example(a=1e267, d=0.0, b=1e63, mu=1.0, N=3, f=1.0)       # fiber energy inf - inf
@settings(max_examples=400, deadline=None)
def test_fiber_roots_raise_only_package_errors_and_return_no_nan(a, d, b, mu, N, f):
    # these raised OverflowError, ValueError or returned a NaN energy
    p = problem(N, 1.0, mu, 2.0 + f * 4.0 / N)
    for find in (fiber_critical_points, _fiber_minimum):
        if find is _fiber_minimum and not p.mass_subcritical:
            continue
        try:
            found = find((a, d, b), p)
        except MassNLSError:
            continue
        for pt in found if isinstance(found, list) else filter(None, [found]):
            assert not (math.isnan(pt.t) or math.isnan(pt.value))


def test_an_overflowing_root_is_named():
    p = problem(3, 1.0, 1.0, 3.3)
    with pytest.raises(NoCriticalPointError, match="t = 2.6941e"):
        fiber_critical_points((1e-5, 1.0, 0.0), p)
    # the P- root overflows in its energy, the fiber minimum does not
    p = problem(3, 1.0, 1.0, 2.5)
    with pytest.raises(NoCriticalPointError, match="overflow at t = 3.16"):
        fiber_critical_points((1.0, 1e-3, 1e-250), p)
    assert _fiber_minimum((1.0, 1e-3, 1e-250), p).t < 1.0

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
