"""Tests for the energy/Pohozaev functionals and the dilation fiber algebra."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massnls.errors import HypothesisError, ParameterError
from massnls.grid import RadialFunction, grad_norm_sq, make_grid, mass, norms
from massnls.functionals import (
    EnergyReport,
    GeneralNonlinearity,
    NormBundle,
    coerce_bundle,
    dilation_gap,
    energy,
    energy_report,
    fiber_derivative,
    fiber_energy,
    fiber_scale,
    h_weight,
    kkt_residual,
    lagrange_multiplier,
    norm_bundle,
    normalize_mass,
    pohozaev,
    pohozaev_general,
    power_nonlinearity,
    problem,
)


def _grid(M=2048, R=20.0):
    return make_grid(3, R, M, grading="graded", strength=2.0)


def _gauss(g, amps_widths):
    vals = np.zeros_like(g.nodes)
    for a, w in amps_widths:
        vals = vals + a * np.exp(-w * g.nodes ** 2)
    return RadialFunction(g, vals)


# ----------------------------------------------------------------------------
# parameter validation
# ----------------------------------------------------------------------------

def test_problem_validation():
    p = problem(3, 1.0, 1.0, 4.0)
    assert p.two_star == 6.0
    assert p.q_bar == pytest.approx(10.0 / 3.0, rel=1e-15)
    with pytest.raises(ParameterError):
        problem(3, 0.0, 1.0, 4.0)
    with pytest.raises(ParameterError):
        problem(3, -2.0, 1.0, 4.0)
    with pytest.raises(ParameterError):
        problem(3, 1.0, -0.5, 4.0)
    with pytest.raises(ParameterError):
        problem(3, 1.0, 1.0, 6.0)  # q = 2* not allowed
    with pytest.raises(ParameterError):
        problem(3, 1.0, 1.0, 2.0)
    # the exponent "2.5" and the bool mass were accepted
    for args in ((3, 1.0, 1.0, "2.5"), (3, True, 1.0, 4.0)):
        with pytest.raises(ParameterError):
            problem(*args)


# "1" raised TypeError
@pytest.mark.parametrize("c, mu", [(math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
                                   ("1", 1.0), (1.0, "1")])
def test_problem_rejects_non_finite_mass_or_mu(c, mu):
    with pytest.raises(ParameterError, match="finite"):
        problem(3, c, mu, 4.0)


def test_mass_regime_flags():
    assert problem(3, 1.0, 1.0, 2.5).mass_subcritical
    assert not problem(3, 1.0, 1.0, 4.0).mass_subcritical
    assert problem(3, 1.0, 1.0, 10.0 / 3.0).mass_critical


# ----------------------------------------------------------------------------
# energy / pohozaev
# ----------------------------------------------------------------------------

def test_zero_profile_gives_zero_energy_and_pohozaev():
    g = _grid(M=256)
    u = RadialFunction(g, np.zeros_like(g.nodes))
    p = problem(3, 1.0, 1.0, 4.0)
    assert energy(u, p) == 0.0
    assert pohozaev(u, p) == 0.0


def test_energy_matches_independent_recomputation():
    g = _grid()
    u = _gauss(g, [(1.3, 2.0), (0.4, 0.7)])
    p = problem(3, 1.0, 1.7, 3.1)
    val = energy(u, p)
    # recombine from norms computed directly at the grid level
    a = grad_norm_sq(u)
    d = norms(u, p.q)
    b = norms(u, p.two_star)
    manual = 0.5 * a - (p.mu / p.q) * d - b / p.two_star
    assert val == pytest.approx(manual, abs=1e-14 * max(1.0, abs(manual)))


def test_pohozaev_matches_independent_recomputation():
    g = _grid()
    u = _gauss(g, [(0.9, 1.1)])
    p = problem(3, 1.0, 0.6, 2.8)
    a = grad_norm_sq(u)
    d = norms(u, p.q)
    b = norms(u, p.two_star)
    manual = a - p.mu * p.gamma_q * d - b
    assert pohozaev(u, p) == pytest.approx(manual, abs=1e-14 * max(1.0, abs(manual)))


def test_pohozaev_general_agrees_with_power_path():
    g = _grid(M=512)
    u = _gauss(g, [(1.1, 1.5)])
    p = problem(3, 1.0, 1.3, 2.7)
    P = pohozaev(u, p)
    nl = power_nonlinearity(p)
    assert pohozaev_general(u, nl) == pytest.approx(P, rel=1e-10)
    # drop the closed-form primitive: the quadrature fallback must agree too
    nl_quad = GeneralNonlinearity(nl.f)
    assert pohozaev_general(u, nl_quad) == pytest.approx(P, rel=1e-8)


def test_pohozaev_is_fiber_derivative_at_one():
    g = _grid()
    u = _gauss(g, [(1.2, 1.8), (0.3, 0.4)])
    p = problem(3, 1.0, 2.2, 3.4)
    nb = norm_bundle(u, p)
    P = pohozaev(u, p)
    h = 1e-3
    ts = np.array([1 - 2 * h, 1 - h, 1 + h, 1 + 2 * h])
    fd = float(np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h) @ fiber_energy(nb, p, ts))
    assert abs(fd - P) <= 1e-6 * (1.0 + abs(P))


# ----------------------------------------------------------------------------
# multiplier
# ----------------------------------------------------------------------------

def test_multiplier_worked_example():
    # grad_sq = 1, mu*lq = 0.5, lcrit = 0.25, mass = 1  ->  lambda = 0.25
    p = problem(3, 1.0, 2.0, 2.5)
    nb = NormBundle(mass=1.0, grad_sq=1.0, lq=0.25, lcrit=0.25)
    assert lagrange_multiplier(nb, p) == pytest.approx(0.25, abs=1e-15)


def test_multiplier_constant_profile_is_negative():
    g = _grid(M=256)
    k = 0.05
    u = RadialFunction(g, np.full_like(g.nodes, k))
    p = problem(3, 1.0, 1.0, 2.5)
    lam = lagrange_multiplier(u, p)
    # gradient term vanishes; quadrature is exact on constants
    expected = -p.mu * k ** (p.q - 2.0) - k ** (p.two_star - 2.0)
    assert lam < 0.0
    assert lam == pytest.approx(expected, rel=1e-12)


def test_multiplier_rejects_zero_mass():
    p = problem(3, 1.0, 1.0, 4.0)
    with pytest.raises(ParameterError):
        lagrange_multiplier(NormBundle(0.0, 1.0, 1.0, 1.0), p)


# ----------------------------------------------------------------------------
# fiber scaling
# ----------------------------------------------------------------------------

def test_fiber_scale_identity_at_t_one():
    g = _grid()
    u = _gauss(g, [(1.0, 2.0)])
    ut = fiber_scale(u, 1.0)
    assert np.array_equal(ut.values, u.values)


def test_fiber_scale_preserves_mass():
    g = _grid()
    u = _gauss(g, [(1.0, 2.0)])
    m0 = mass(u)
    for t in (1 / 8, 1 / 2, 1.0, 2.0, 8.0):
        drift = abs(mass(fiber_scale(u, t)) - m0) / m0
        assert drift <= 1e-6, f"t={t}: drift {drift}"


def test_fiber_scale_composition_law():
    g = _grid()
    u = _gauss(g, [(1.0, 2.0)])
    for a, b in [(1.5, 0.8), (0.5, 0.25)]:
        u1 = fiber_scale(fiber_scale(u, a), b)
        u2 = fiber_scale(u, a * b)
        num = np.sqrt(mass(RadialFunction(g, u1.values - u2.values)))
        den = np.sqrt(mass(u2))
        assert num / den <= 1e-6


def test_fiber_scale_rejects_nonpositive_t():
    g = _grid(M=256)
    u = _gauss(g, [(1.0, 2.0)])
    for t in (0.0, -1.0):
        with pytest.raises(ParameterError):
            fiber_scale(u, t)


@pytest.mark.parametrize("t", [math.inf, math.nan, 1e250, 1e308, "2", True])
def test_fiber_scale_rejects_non_finite_t_and_an_overflowing_amplitude(t):
    # at N = 3 the amplitude t^(3/2) overflows from t ~ 3.2e205 on
    g = _grid(M=256)
    u = _gauss(g, [(1.0, 2.0)])
    with pytest.raises(ParameterError):
        fiber_scale(u, t)


def test_fiber_energy_consistent_with_energy_at_t_one():
    g = _grid()
    u = _gauss(g, [(1.3, 2.0), (0.4, 0.7)])
    p = problem(3, 1.0, 1.0, 4.0)
    nb = norm_bundle(u, p)
    assert fiber_energy(nb, p, 1.0) == pytest.approx(energy(u, p), abs=1e-12)


def test_fiber_energy_scalar_oracle():
    # norms (1, 0, 1), N = 3:  t^2/2 - t^6/6, maximum 1/3 at t = 1
    p = problem(3, 1.0, 0.0, 4.0)
    assert fiber_energy((1.0, 0.0, 1.0), p, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    ts = np.geomspace(0.01, 100.0, 20001)
    vals = fiber_energy((1.0, 0.0, 1.0), p, ts)
    assert np.max(vals) <= 1.0 / 3.0 + 1e-12
    assert abs(ts[np.argmax(vals)] - 1.0) < 1e-3
    # and the value goes negative for large t
    assert fiber_energy((1.0, 0.0, 1.0), p, 10.0) < 0.0


def test_fiber_energy_rejects_nonpositive_t():
    p = problem(3, 1.0, 0.0, 4.0)
    with pytest.raises(ParameterError):
        fiber_energy((1.0, 0.0, 1.0), p, 0.0)
    with pytest.raises(ParameterError):
        fiber_derivative((1.0, 0.0, 1.0), p, -2.0)


@pytest.mark.parametrize("fn", [fiber_energy, fiber_derivative])
@pytest.mark.parametrize(
    "t", [float("nan"), np.float64("nan"), np.array([1.0, np.nan]), [np.nan]]
)
def test_fiber_functions_reject_nan_t(fn, t):
    p = problem(3, 1.0, 1.0, 4.0)
    with pytest.raises(ParameterError):
        fn((1.0, 0.5, 1.0), p, t)


# ----------------------------------------------------------------------------
# general nonlinearity bookkeeping
# ----------------------------------------------------------------------------

def test_power_nonlinearity_primitive_pair():
    p = problem(3, 1.0, 1.3, 2.7)
    nl = power_nonlinearity(p)
    assert nl.primitive(0.0) == 0.0
    assert nl.f(0.0) == 0.0
    assert nl.primitive_defect(np.linspace(0.05, 2.0, 25)) < 1e-6


def test_quadrature_primitive_matches_closed_form():
    p = problem(3, 1.0, 0.8, 3.2)
    nl = power_nonlinearity(p)
    nl_quad = GeneralNonlinearity(nl.f)
    ts = np.array([0.1, 0.5, 1.0, 2.0])
    assert np.allclose(nl_quad.primitive(ts), nl.primitive(ts), rtol=1e-9, atol=1e-13)


# ----------------------------------------------------------------------------
# dilation comparison
# ----------------------------------------------------------------------------

def test_h_weight_positive_off_one():
    p = problem(3, 1.0, 1.0, 4.0)
    ts = np.geomspace(0.05, 20.0, 1000)
    hv = h_weight(p, ts)
    assert np.all(hv[np.abs(ts - 1.0) > 1e-12] > 0.0)
    assert h_weight(p, 1.0) == 0.0


@given(
    N=st.integers(min_value=3, max_value=8),
    t=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_h_weight_positive_property(N, t):
    q = 2.0 + 1.0 / N  # any admissible q; h depends only on N
    p = problem(N, 1.0, 1.0, q)
    assert h_weight(p, t) >= 0.0
    if abs(t - 1.0) > 1e-6:
        assert h_weight(p, t) > 0.0


def test_dilation_gap_zero_at_t_one():
    g = _grid()
    u = _gauss(g, [(1.0, 1.5)])
    p = problem(3, 1.0, 1.0, 4.0)
    assert dilation_gap(u, p, 1.0) == 0.0


def test_dilation_gap_vanishes_at_mass_critical_exponent():
    g = _grid()
    u = _gauss(g, [(1.0, 1.5)])
    p = problem(3, 1.0, 1.0, 10.0 / 3.0)
    scale = 1.0 + abs(energy(u, p))
    for t in (0.3, 0.5, 2.0, 5.0):
        assert abs(dilation_gap(u, p, t)) <= 1e-12 * scale


def test_dilation_gap_vanishes_without_subcritical_term():
    g = _grid()
    u = _gauss(g, [(1.0, 1.5)])
    p = problem(3, 1.0, 0.0, 4.0)
    scale = 1.0 + abs(energy(u, p))
    for t in (0.25, 3.0, 8.0):
        assert abs(dilation_gap(u, p, t)) <= 1e-12 * scale


def dilation_gap_closed_form(u, p, t):
    """The defect of the dilation comparison by its algebraic identity
    mu ||u||_q^q psi(t): the oracle of `dilation_gap`."""
    qg = p.q * p.gamma_q
    psi = (t ** qg - 1.0) / p.q + p.gamma_q * (1.0 - t * t) / 2.0
    return p.mu * coerce_bundle(u, p).lq * psi


def test_dilation_gap_nonnegative_and_matches_closed_form():
    g = _grid(M=512)
    p = problem(3, 1.0, 1.0, 4.0)
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = _gauss(
            g,
            [
                (rng.uniform(0.2, 1.0), rng.uniform(0.3, 3.0)),
                (rng.uniform(0.0, 0.5), rng.uniform(0.3, 3.0)),
            ],
        )
        t = float(rng.uniform(0.1, 10.0))
        gap = dilation_gap(u, p, t)
        assert gap >= -1e-10
        cf = dilation_gap_closed_form(u, p, t)
        assert gap == pytest.approx(cf, rel=1e-10, abs=1e-12)


def test_dilation_gap_rejects_mass_subcritical_exponent():
    g = _grid(M=256)
    u = _gauss(g, [(1.0, 1.5)])
    p = problem(3, 1.0, 1.0, 2.5)
    with pytest.raises(HypothesisError):
        dilation_gap(u, p, 2.0)


# ----------------------------------------------------------------------------
# reports and residuals
# ----------------------------------------------------------------------------

def test_energy_report_is_internally_consistent():
    g = _grid()
    u = _gauss(g, [(1.3, 2.0), (0.4, 0.7)])
    p = problem(3, 1.0, 1.0, 4.0)
    rep = energy_report(u, p)
    assert rep.mass > 0.0
    assert min(rep.grad_sq, rep.lq, rep.lcrit) >= 0.0
    recombined = 0.5 * rep.grad_sq - (p.mu / p.q) * rep.lq - rep.lcrit / p.two_star
    assert rep.phi == pytest.approx(recombined, abs=1e-12 * max(1.0, abs(recombined)))
    assert rep.phi == pytest.approx(energy(u, p), abs=1e-14)
    assert rep.pohozaev == pytest.approx(pohozaev(u, p), abs=1e-14)
    assert rep.multiplier == pytest.approx(lagrange_multiplier(u, p), abs=1e-14)
    d = rep.as_dict()
    for key in (
        "phi",
        "pohozaev",
        "multiplier",
        "mass",
        "grad_sq",
        "lq",
        "lcrit",
        "kkt_residual",
    ):
        assert key in d


def test_energy_report_as_dict_is_strict_json():
    g = _grid(M=256)
    rep = energy_report(_gauss(g, [(1.0, 1.5)]), problem(3, 1.0, 1.0, 4.0))
    d = rep.as_dict()
    assert json.loads(json.dumps(d, allow_nan=False)) == d == vars(rep)
    # a non-finite field, such as the multiplier of a zero profile, is None
    bad = EnergyReport(**{**vars(rep), "multiplier": math.nan, "kkt_residual": math.inf})
    d = json.loads(json.dumps(bad.as_dict(), allow_nan=False))
    assert d["multiplier"] is None and d["kkt_residual"] is None and d["phi"] == rep.phi


def test_kkt_residual_basic_properties():
    g = _grid(M=512)
    u = _gauss(g, [(1.0, 1.5)])
    p = problem(3, 1.0, 1.0, 4.0)
    r = kkt_residual(u, p)
    assert np.isfinite(r) and r >= 0.0
    # odd nonlinearity: flipping the sign of u cannot change the residual
    r_flip = kkt_residual(u.with_values(-u.values), p)
    assert r_flip == pytest.approx(r, rel=1e-12)


def test_normalize_mass():
    g = _grid(M=512)
    u = _gauss(g, [(0.7, 1.1)])
    v = normalize_mass(u, 2.5)
    assert mass(v) == pytest.approx(2.5, rel=1e-14)
    with pytest.raises(ParameterError):
        normalize_mass(u.with_values(np.zeros_like(u.values)), 1.0)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf, "1", True])
def test_normalize_mass_rejects_a_target_outside_zero_to_inf(c):
    g = _grid(M=64)
    u = _gauss(g, [(0.7, 1.1)])
    with pytest.raises(ParameterError):
        normalize_mass(u, c)
