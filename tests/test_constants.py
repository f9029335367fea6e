"""Exponent algebra, Sobolev/GN constants (two routes each), thresholds."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from massnls import ParameterError, RadialFunction, grad_norm_sq, make_grid, norms
from massnls import constants
from massnls.constants import (
    _shoot,
    exponents,
    gn_constant,
    gn_ground_state,
    instanton_amplitude,
    sobolev_constant,
    sobolev_constant_closed_form,
    thresholds,
    weinstein_quotient_min,
)

# values frozen from the oracle routes (quadrature / shooting), grid-free
S3 = 5.477904089531
S4 = 10.260398641295
C_3_25 = 0.6943070123
C_3_4 = 0.4492570155
C_4_3 = 0.4201798291
Q0_3_25 = 4.2765416969
Q0_3_4 = 4.3373876800
Q0_4_3 = 8.6719343001


# ----------------------------------------------------------------------------
# exponents
# ----------------------------------------------------------------------------

def test_exponent_values():
    ep = exponents(3, 4.0)
    assert ep.two_star == pytest.approx(6.0, abs=0)
    assert ep.q_bar == pytest.approx(2 + 4 / 3, rel=1e-15)
    assert ep.gamma_q == pytest.approx(0.75, abs=0)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8])
def test_mass_critical_pivot(N):
    # q * gamma_q = 2 exactly at q = q_bar, and gamma_{q_bar} = 2/q_bar
    q_bar = 2 + 4 / N
    ep = exponents(N, q_bar)
    assert ep.q * ep.gamma_q == pytest.approx(2.0, rel=1e-14)
    assert ep.gamma_q == pytest.approx(2 / q_bar, rel=1e-14)


@settings(deadline=None, max_examples=60)
@given(
    N=st.integers(min_value=3, max_value=8),
    frac=st.floats(min_value=1e-3, max_value=1 - 1e-3),
)
def test_gamma_sign_tracks_mass_criticality(N, frac):
    two_star = 2 * N / (N - 2)
    q = 2 + frac * (two_star - 2)
    ep = exponents(N, q)
    assert 0.0 < ep.gamma_q < 1.0
    # q gamma_q - 2 changes sign exactly at q_bar
    assert (q * ep.gamma_q - 2 > 0) == (q > ep.q_bar) or abs(q - ep.q_bar) < 1e-12


@pytest.mark.parametrize("N,q", [(3, 2.0), (3, 6.0), (3, 7.0), (2, 3.0), (3.5, 3.0)])
def test_exponents_reject(N, q):
    with pytest.raises(ParameterError):
        exponents(N, q)


# ----------------------------------------------------------------------------
# Sobolev constant
# ----------------------------------------------------------------------------

def test_sobolev_frozen_values():
    assert sobolev_constant(3).S == pytest.approx(S3, rel=1e-9)
    assert sobolev_constant(4).S == pytest.approx(S4, rel=1e-9)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_sobolev_two_routes_agree(N):
    sc = sobolev_constant(N)
    cf = sobolev_constant_closed_form(N)
    assert sc.S == pytest.approx(cf, rel=1e-6)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_instanton_saturates(N):
    # the bubble turns the Sobolev inequality into an equality and
    # ||grad U||^2 = ||U||_{2*}^{2*} = S^{N/2}
    sc = sobolev_constant(N)
    assert sc.grad_sq == pytest.approx(sc.crit_norm, rel=1e-8)
    assert sc.grad_sq == pytest.approx(sc.S_pow, rel=1e-8)
    two_star = 2 * N / (N - 2)
    lhs = sc.S * sc.crit_norm ** (2 / two_star)
    assert lhs == pytest.approx(sc.grad_sq, rel=1e-8)


def test_instanton_amplitude_value():
    assert instanton_amplitude(3) == pytest.approx(3 ** 0.25, rel=1e-14)
    assert instanton_amplitude(4) == pytest.approx(8 ** 0.5, rel=1e-14)


# ----------------------------------------------------------------------------
# Gagliardo-Nirenberg constant
# ----------------------------------------------------------------------------

def test_gn_frozen_values():
    assert gn_constant(3, 2.5) == pytest.approx(C_3_25, rel=1e-8)
    assert gn_constant(3, 4.0) == pytest.approx(C_3_4, rel=1e-8)
    assert gn_constant(4, 3.0) == pytest.approx(C_4_3, rel=1e-8)


def test_gn_shooting_heights():
    assert gn_ground_state(3, 2.5).height == pytest.approx(Q0_3_25, rel=1e-8)
    assert gn_ground_state(3, 4.0).height == pytest.approx(Q0_3_4, rel=1e-8)
    assert gn_ground_state(4, 3.0).height == pytest.approx(Q0_4_3, rel=1e-8)


def test_gn_memoized():
    a = gn_ground_state(3, 4.0)
    b = gn_ground_state(3, 4.0)
    assert a is b


def test_gn_shot_counter_counts_every_integration(monkeypatch):
    # a fresh cache forces a cold solve; every shot is one solve_ivp call
    monkeypatch.setattr(constants, "_GN_CACHE", {})
    calls = []
    solve_ivp = scipy.integrate.solve_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counted)
    gs = gn_ground_state(3, 2.5)
    assert gs.shots == len(calls)
    # bracketing, at least one bisection step and the final shot
    assert gs.shots > len(gs.history) + 1


@pytest.mark.parametrize("N,q", [(3, 2.5), (4, 3.0), (3, 4.0)])
def test_gn_final_bracket_straddles_the_height(N, q):
    gs = gn_ground_state(N, q)
    lo, hi = gs.bracket
    assert lo < gs.height < hi
    assert hi - lo <= 1e-13 * hi
    # the integrator's verdicts at the bracket ends: overshoot above,
    # no crossing below
    assert _shoot(N, q, hi)[0] == "cross"
    assert _shoot(N, q, lo)[0] != "cross"


def test_gn_two_routes_agree():
    # the remaining parameter pairs are exercised by the acceptance suite
    w = weinstein_quotient_min(3, 2.5)
    assert w == pytest.approx(C_3_25, rel=1e-3)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_gn_inequality_on_trial_profiles(seed):
    # C from the shooting route really is an upper bound for the quotient
    rng = np.random.default_rng(seed)
    g = make_grid(3, 18.0, 512, grading="graded", strength=1.5)
    r = g.nodes
    vals = np.zeros_like(r)
    for _ in range(3):
        amp = rng.uniform(-2, 2)
        width = rng.uniform(0.4, 3.0)
        shift = rng.uniform(0.0, 2.0)
        vals += amp * np.exp(-((r - shift) ** 2) / (2 * width ** 2))
    u = RadialFunction(g, vals)
    a = grad_norm_sq(u)
    m2 = norms(u, 2)
    if a < 1e-12 or m2 < 1e-12:
        return
    for q, C in ((2.5, C_3_25), (4.0, C_3_4)):
        gam = exponents(3, q).gamma_q
        lhs = norms(u, q) ** (1 / q)
        rhs = C * a ** (gam / 2) * m2 ** ((1 - gam) / 2)
        assert lhs <= rhs * (1 + 1e-6)


# ----------------------------------------------------------------------------
# thresholds
# ----------------------------------------------------------------------------

def test_threshold_frozen_values():
    r = thresholds(3, 2.5, 1.0, 1.0)
    assert r.alpha0 == pytest.approx(1.25, abs=0)
    assert r.alpha1 == pytest.approx(1.75, abs=0)
    assert r.alpha2 == pytest.approx(4.0, abs=0)
    assert r.rho0 == pytest.approx(4.42213276, rel=1e-7)
    assert r.c0 == pytest.approx(41.61237634, rel=1e-7)
    assert r.rho0_at_c0 == pytest.approx(15.32401668, rel=1e-7)
    assert r.rho0 > 0 and r.c0 > 0
    assert r.alpha_Nq is None


def _barrier(rho, rep):
    # h(rho) = 1/2 - A rho^(-a0/2) - B rho^(a2/2): the scaled lower bound of
    # the energy at gradient level rho on the mass-c sphere
    A = (rep.mu / rep.q) * rep.C_Nq ** rep.q * rep.c ** (rep.alpha1 / 2)
    B = rep.S ** (-rep.two_star / 2) / rep.two_star
    return 0.5 - A * rho ** (-rep.alpha0 / 2) - B * rho ** (rep.alpha2 / 2)


@pytest.mark.parametrize(
    "N,q,mu,c",
    [(3, 2.5, 1.0, 1.0), (3, 2.5, 0.5, 2.0), (4, 2.5, 1.3, 0.7), (5, 2.2, 2.0, 1.1)],
)
def test_rho0_maximizes_barrier(N, q, mu, c):
    rep = thresholds(N, q, mu, c)
    h0 = _barrier(rep.rho0, rep)
    for delta in (1e-3, 1e-2, 0.1):
        assert h0 >= _barrier(rep.rho0 * (1 + delta), rep)
        assert h0 >= _barrier(rep.rho0 * (1 - delta), rep)
    # stationarity, via the closed-form derivative
    A = (rep.mu / rep.q) * rep.C_Nq ** rep.q * rep.c ** (rep.alpha1 / 2)
    B = rep.S ** (-rep.two_star / 2) / rep.two_star
    dh = (rep.alpha0 / 2) * A * rep.rho0 ** (-rep.alpha0 / 2 - 1) \
        - (rep.alpha2 / 2) * B * rep.rho0 ** (rep.alpha2 / 2 - 1)
    assert abs(dh) <= 1e-10 * max(1.0, abs(h0) / rep.rho0)


@pytest.mark.parametrize(
    "N,q,mu", [(3, 2.5, 1.0), (4, 2.5, 1.3), (5, 2.2, 2.0)]
)
def test_c0_exact_penalty_split(N, q, mu):
    # at c = c0, the two penalty terms of the barrier evaluate exactly to
    # alpha2/(alpha0+alpha2) and alpha0/(alpha0+alpha2)
    rep0 = thresholds(N, q, mu, 1.0)
    rep = thresholds(N, q, mu, rep0.c0)
    A = (rep.mu / rep.q) * rep.C_Nq ** rep.q * rep.c ** (rep.alpha1 / 2)
    B = rep.S ** (-rep.two_star / 2) / rep.two_star
    t_sub = A * rep.rho0 ** (-rep.alpha0 / 2)
    t_crit = B * rep.rho0 ** (rep.alpha2 / 2)
    s = rep.alpha0 + rep.alpha2
    assert t_sub == pytest.approx(rep.alpha2 / s, rel=1e-10)
    assert t_crit == pytest.approx(rep.alpha0 / s, rel=1e-10)
    # consistency of the two exposed conventions
    assert rep.rho0 == pytest.approx(rep0.rho0_at_c0, rel=1e-12)


def test_rho0_monotone_in_mass():
    vals = [thresholds(3, 2.5, 1.0, c).rho0 for c in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_alpha_threshold_cases():
    # supercritical q: +inf; mass-critical: displayed formula; subcritical: None
    assert thresholds(3, 4.0, 1.0, 1.0).alpha_Nq == math.inf
    assert thresholds(3, 2.5, 1.0, 1.0).alpha_Nq is None
    q_bar = 2 + 4 / 3
    rep = thresholds(3, q_bar, 1.0, 1.0)
    assert rep.rho0 is None and rep.c0 is None
    # alpha(N, q_bar) = 1/(2 gamma_qbar c^(2/N) C^q_bar) = q_bar/(4 C^q_bar) at c=1
    expected = q_bar / (4 * rep.C_Nq ** q_bar)
    assert rep.alpha_Nq == pytest.approx(expected, rel=1e-12)
    # and the c-dependence is c^(-2/N)
    rep2 = thresholds(3, q_bar, 1.0, 8.0)
    assert rep2.alpha_Nq == pytest.approx(rep.alpha_Nq / 4.0, rel=1e-12)


def test_alpha_threshold_n4():
    rep = thresholds(4, 3.0, 1.0, 1.0)  # q = q_bar(4)
    assert rep.alpha_Nq == pytest.approx(10.11010493, rel=1e-7)


def test_thresholds_reject_bad_mu_c():
    with pytest.raises(ParameterError):
        thresholds(3, 2.5, 0.0, 1.0)
    with pytest.raises(ParameterError):
        thresholds(3, 2.5, 1.0, -2.0)
