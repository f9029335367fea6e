"""Tests for the instanton families, their norm models, and threshold scans."""

import numpy as np
import pytest
from scipy.integrate import quad

from massnls import bubbles as B
from massnls.constants import instanton_amplitude, sobolev_constant, thresholds
from massnls.errors import (
    BracketError,
    HypothesisError,
    NoCriticalPointError,
    ParameterError,
    ResolutionError,
)
from massnls.functionals import energy, fiber_energy, normalize_mass, problem, stiff_bundle
from massnls.grid import RadialFunction, make_grid, mass, norms, pchip_resample


def _stiff(u):
    return float(u.values @ (u.grid.stiffness @ u.values))


# ----------------------------------------------------------------------------
# profiles
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("N", [3, 4, 5])
def test_truncated_value_at_origin(N):
    n = 16
    g = B.bubble_grid(N, n, 2.0, barrier_radii=(1.0,))
    u = B.truncated_instanton(N, n, g)
    A = instanton_amplitude(N)
    assert u.values[0] == pytest.approx(A * n ** ((N - 2) / 2.0), rel=1e-14)


def test_truncated_continuity_at_matching_radii():
    # the core value at r=1 equals the ramp value there; the ramp hits zero at 2
    N, n = 3, 24
    A = instanton_amplitude(N)
    core_at_1 = A * (n / (1.0 + n ** 2)) ** 0.5
    ramp = B._truncated_values(N, n, np.array([1.0, 2.0, 2.5]))
    assert ramp[0] == pytest.approx(core_at_1 * (2.0 - 1.0), rel=1e-15)
    assert ramp[1] == 0.0
    assert ramp[2] == 0.0


def test_truncated_needs_grid_through_two():
    g = make_grid(3, 1.5, 600)
    with pytest.raises(ParameterError):
        B.truncated_instanton(3, 8, g)


def test_truncated_coarse_grid_rejected():
    g = make_grid(3, 2.5, 120)  # spacing ~0.02 >> 0.1/n at n = 100
    with pytest.raises(ResolutionError):
        B.truncated_instanton(3, 100, g)


def test_normalized_profile_shape():
    N, c, n = 4, 1.0, 64
    u = B.mass_normalized_instanton(N, c, n)
    rho = float(n) ** (2.0 / 3.0)
    R_n = B.solve_cutoff_radius(N, c, n)
    A = instanton_amplitude(N)
    assert u.values[0] == pytest.approx(A * n ** ((N - 2) / 2.0), rel=1e-14)
    # exact node at the matching radius, continuous there
    k = int(np.argmin(np.abs(u.grid.nodes - rho)))
    assert u.grid.nodes[k] == rho
    edge = A * (n / (1.0 + n ** 2 * rho ** 2)) ** ((N - 2) / 2.0)
    assert u.values[k] == pytest.approx(edge * (R_n - rho) / (R_n - rho), rel=1e-14)
    # zero at and beyond the cutoff
    assert np.all(u.values[u.grid.nodes >= R_n - 1e-12] == 0.0)


# ----------------------------------------------------------------------------
# annulus moments
# ----------------------------------------------------------------------------

def test_annulus_moment_matches_quadrature():
    for N, k, a, R in [(3, 2, 1.0, 2.0), (4, 2.5, 1.0, 2.0), (5, 3.75, 0.3, 7.0)]:
        direct = quad(lambda r: (R - r) ** k * r ** (N - 1), a, R,
                      epsabs=0.0, epsrel=1e-13)[0]
        assert B._annulus_power(N, k, a, R) == pytest.approx(direct, rel=1e-10)


def test_annulus_moment_known_value():
    assert B._annulus_power(3, 2, 1.0, 2.0) == pytest.approx(8.0 / 15.0, rel=1e-14)


def test_annulus_moment_narrow_band_stable():
    # width 1e-9 relative: the naive large-R expansion loses everything here
    a = 100.0
    R = a * (1.0 + 1e-9)
    w = R - a
    lead = a ** 3 * w ** 3 / 3.0  # rho^(N-1) w^(k+1)/(k+1) at N=4, k=2
    assert B._annulus_power(4, 2, a, R) == pytest.approx(lead, rel=1e-6)


# ----------------------------------------------------------------------------
# truncated family: dual routes and decay slopes
# ----------------------------------------------------------------------------

def test_truncated_dual_route_agreement():
    for N, q in [(3, 2.5), (4, 3.0)]:
        tab = B.instanton_asymptotics(N, q, [10, 20, 40, 80, 160])
        assert tab.max_model_mismatch() < 2e-5
        for r in tab.rows:
            assert r.mass == pytest.approx(r.mass_model, rel=1e-6)
            assert r.lq == pytest.approx(r.lq_model, rel=1e-6)


def test_truncated_slopes_match_theory_n3():
    tab = B.instanton_asymptotics(3, 2.5, [10, 20, 40, 80, 160])
    theory = {"mass": -1.0, "grad_dev": -1.0, "crit_dev": -3.0, "lq": -1.25}
    for key, want in theory.items():
        assert abs(tab.slopes[key] - want) < 0.3, (key, tab.slopes[key])
        assert abs(tab.model_slopes[key] - want) < 0.3
        assert abs(tab.slopes[key] - tab.model_slopes[key]) < 0.15


def test_truncated_slopes_match_theory_n4():
    tab = B.instanton_asymptotics(4, 3.0, [10, 20, 40, 80, 160])
    # mass picks up a log factor; the fitted slope sits above -2 but within band
    theory = {"mass": -2.0, "grad_dev": -2.0, "crit_dev": -4.0, "lq": -1.0}
    for key, want in theory.items():
        assert abs(tab.slopes[key] - want) < 0.3, (key, tab.slopes[key])
        assert abs(tab.model_slopes[key] - want) < 0.3


def test_truncated_mass_slope_n5():
    tab = B.instanton_asymptotics(5, 3.0, [10, 20, 40, 80, 160])
    assert abs(tab.slopes["mass"] - (-2.0)) < 0.3


# ----------------------------------------------------------------------------
# cutoff radius
# ----------------------------------------------------------------------------

def test_cutoff_solver_back_substitution():
    for N, c, n in [(4, 1.0, 32), (4, 1.0, 256), (3, 100.0, 1000), (5, 1.0, 40)]:
        R = B.solve_cutoff_radius(N, c, n)
        assert R > float(n) ** (2.0 / 3.0)
        assert B._normalized_mass_model(N, n, R) == pytest.approx(c, rel=1e-12)


def test_cutoff_radius_frozen_values():
    assert B.solve_cutoff_radius(3, 100.0, 1000) == pytest.approx(
        1035.0847016788791, rel=1e-9)
    assert B.solve_cutoff_radius(4, 1.0, 64) == pytest.approx(
        84.56175753862293, rel=1e-9)


def test_cutoff_radius_asymptote_ratio():
    # convergence is slow (the matching radius is only n^(-1/9) below R_n for
    # N=3) but by n = 1e3 the ratio is inside 10% once c clears the core mass
    R = B.solve_cutoff_radius(3, 100.0, 1000)
    ratio = R / B.cutoff_radius_asymptote(3, 100.0, 1000)
    assert 0.90 < ratio < 1.10
    R4 = B.solve_cutoff_radius(4, 1.0, 256)
    assert 0.90 < R4 / B.cutoff_radius_asymptote(4, 1.0, 256) < 1.10


def test_cutoff_radius_monotone_in_mass():
    radii = [B.solve_cutoff_radius(4, c, 64) for c in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_cutoff_no_root_is_explicit():
    # at N=3, c=1 the core alone outweighs the target for every n below ~1e4
    with pytest.raises(BracketError, match="no cutoff radius exists"):
        B.solve_cutoff_radius(3, 1.0, 10)
    with pytest.raises(BracketError):
        B.solve_cutoff_radius(3, 1.0, 256)
    assert B.core_mass(3, 10) == pytest.approx(9.765488454473878, rel=1e-12)


def test_normalized_family_existence_bounds():
    assert B.normalized_family_min_n(3, 1.0) == 10312
    assert B.normalized_family_min_n(4, 1.0) == 29
    assert B.normalized_family_min_n(5, 1.0) == 30
    # the bound is sharp: the solve succeeds right at the boundary
    R = B.solve_cutoff_radius(3, 1.0, 10312)
    assert R > 10312.0 ** (2.0 / 3.0)
    with pytest.raises(BracketError):
        B.solve_cutoff_radius(3, 1.0, 10311)


def test_cutoff_rejects_bad_mass():
    with pytest.raises(ParameterError):
        B.solve_cutoff_radius(3, 0.0, 50)


# ----------------------------------------------------------------------------
# mass-normalized family
# ----------------------------------------------------------------------------

def test_normalized_mass_contract():
    for N, c, n in [(4, 1.0, 32), (4, 1.0, 256), (3, 100.0, 1000)]:
        u = B.mass_normalized_instanton(N, c, n)
        assert abs(mass(u) - c) <= 1e-8 * c


def test_normalized_dual_route_agreement():
    sob = sobolev_constant(4)
    p = problem(4, 1.0, 1.0, 3.0)
    for n in (32, 256):
        u = B.mass_normalized_instanton(4, 1.0, n)
        mod = B.normalized_norms_model(4, 1.0, n)
        nb = stiff_bundle(u.grid, u.values, p)
        assert nb.mass == pytest.approx(mod["mass"], rel=1e-8)
        assert nb.lq == pytest.approx(mod["lq"](3.0), rel=1e-8)
        # the gradient/critical deviations from S^(N/2) sit at or below the
        # quadrature floor for large n, so agreement is asserted on the norm
        # scale rather than the deviation scale
        assert abs(nb.grad_sq - mod["grad_sq"]) < 2e-5 * sob.S_pow
        assert abs(nb.lcrit - mod["lcrit"]) < 1e-7 * sob.S_pow


def test_normalized_model_deviation_slopes():
    def fit(ns, ys):
        ns, ys = np.asarray(ns, float), np.asarray(ys, float)
        return float(np.polyfit(np.log(ns), np.log(ys), 1)[0])

    for N, c, ns, want_grad in [
        (4, 1.0, [64, 128, 256], -14.0 * 2 / (3 * 4)),
        (3, 100.0, [500, 1000, 2000], -14.0 / 9.0),
    ]:
        sob = sobolev_constant(N)
        gdev, cdev = [], []
        for n in ns:
            mod = B.normalized_norms_model(N, c, n)
            gdev.append(abs(mod["grad_sq"] - sob.S_pow))
            cdev.append(abs(mod["lcrit"] - sob.S_pow))
        assert abs(fit(ns, gdev) - want_grad) < 0.3
        assert abs(fit(ns, cdev) - (-14.0 / 3.0)) < 0.3


def test_normalized_rejects_small_custom_grid():
    R_n = B.solve_cutoff_radius(4, 1.0, 64)
    g = B.bubble_grid(4, 64, 0.5 * R_n, barrier_radii=(64.0 ** (2.0 / 3.0),))
    with pytest.raises(ParameterError):
        B.mass_normalized_instanton(4, 1.0, 64, grid=g)


# ----------------------------------------------------------------------------
# superposition
# ----------------------------------------------------------------------------

def _scan_inputs(c=2.0, n=16):
    g = B.bubble_grid(3, n, 40.0, barrier_radii=(1.0, 2.0))
    u_c = normalize_mass(RadialFunction(g, np.exp(-(g.nodes / 3.0) ** 2)), c)
    U = B.truncated_instanton(3, n, g)
    return g, u_c, U


def test_superpose_identity_at_zero_weight():
    _, u_c, U = _scan_inputs()
    W = B.superpose(u_c, U, 0.0, c=2.0)
    assert np.array_equal(W.values, u_c.values)


def test_superpose_restores_mass_exactly():
    _, u_c, U = _scan_inputs()
    for t in (0.3, 1.0, 4.0, 40.0):
        W = B.superpose(u_c, U, t, c=2.0)
        assert abs(mass(W) - 2.0) <= 1e-12 * 2.0


def test_superpose_leaves_gradient_and_critical_invariant():
    g, u_c, U = _scan_inputs()
    for t in (0.3, 1.0, 4.0):
        W = B.superpose(u_c, U, t, c=2.0)
        v = RadialFunction(g, u_c.values + t * U.values)
        assert _stiff(W) == pytest.approx(_stiff(v), rel=1e-10)
        assert norms(W, 6.0) == pytest.approx(norms(v, 6.0), rel=1e-12)


def test_superpose_bundle_matches_direct_norms():
    # the scan fast path (cross terms + exact dilation laws) against the
    # honestly constructed profile
    g, u_c, U = _scan_inputs()
    p = problem(3, 2.0, 1.0, 2.5)
    cross = B._build_cross(p, u_c, U, c=2.0)
    for t in (0.1, 1.0, 7.0):
        nb = B._superposition_bundle(p, cross, t)
        W = B.superpose(u_c, U, t, c=2.0)
        assert nb.mass == pytest.approx(mass(W), rel=1e-10)
        assert nb.grad_sq == pytest.approx(_stiff(W), rel=1e-10)
        assert nb.lq == pytest.approx(norms(W, 2.5), rel=1e-10)
        assert nb.lcrit == pytest.approx(norms(W, 6.0), rel=1e-10)


def test_superpose_rejects_bad_input():
    g, u_c, U = _scan_inputs()
    with pytest.raises(ParameterError):
        B.superpose(u_c, U, -0.5)
    other = make_grid(3, 40.0, 500)
    with pytest.raises(ParameterError):
        B.superpose(u_c, RadialFunction(other, np.zeros(other.M + 1)), 1.0)


# ----------------------------------------------------------------------------
# threshold scans
# ----------------------------------------------------------------------------

C0_3_25_1 = 41.61237633847645  # c0(N=3, q=2.5, mu=1)


def _valley(c):
    g = make_grid(3, 60.0, 3000, grading="graded")
    return normalize_mass(RadialFunction(g, np.exp(-(g.nodes / 6.0) ** 2)), c)


def test_subcritical_scan_finds_passing_n():
    c = 0.5 * C0_3_25_1
    p = problem(3, c, 1.0, 2.5)
    u_c = _valley(c)
    m_c = energy(u_c, p)
    assert m_c < 0.0
    res = B.threshold_scan_subcritical(p, u_c, [8, 16, 32, 64, 128, 256])
    assert res.first_pass == 8
    assert res.threshold == pytest.approx(m_c + sobolev_constant(3).S_pow / 3.0, rel=1e-12)
    for r in res.records:
        assert r.passed
        assert m_c < r.sup_t < res.threshold
        assert 0.0 < r.t_at_sup < 10.0


def test_subcritical_scan_sup_decreases_with_mu():
    c = 0.5 * C0_3_25_1
    u_c = _valley(c)
    sups = []
    for mu in (0.5, 1.0, 2.0):
        res = B.threshold_scan_subcritical(problem(3, c, mu, 2.5), u_c, [32])
        sups.append(res.records[0].sup_t)
    assert sups[0] > sups[1] > sups[2]


def _dense_sup(p, u_c, n, ts):
    # phi(t) on the scan's own grid and cross terms, at the weights ts
    g = B.bubble_grid(3, n, max(u_c.grid.R_max, 2.0), barrier_radii=(1.0, 2.0))
    cross = B._build_cross(p, pchip_resample(u_c, g), B.truncated_instanton(3, n, g), c=p.c)
    return max(fiber_energy(B._superposition_bundle(p, cross, t), p, 1.0) for t in ts)


def test_subcritical_scan_sup_is_the_fiber_maximum():
    c = 0.5 * C0_3_25_1
    p = problem(3, c, 1.0, 2.5)
    u_c = _valley(c)
    r = B.threshold_scan_subcritical(p, u_c, [32]).records[0]
    dense = _dense_sup(p, u_c, 32, np.geomspace(1e-3, 1e3, 2000))
    assert r.sup_t >= dense - 1e-12 * abs(dense)
    # the refinement lands on the maximum, not beside it
    assert r.sup_t == pytest.approx(_dense_sup(p, u_c, 32, [r.t_at_sup]), rel=1e-15)


def test_subcritical_scan_records_lie_on_the_mass_sphere():
    c = 0.5 * C0_3_25_1
    p = problem(3, c, 1.0, 2.5)
    res = B.threshold_scan_subcritical(p, _valley(c), [8, 64, 256])
    for r in res.records:
        assert abs(r.mass - c) <= 1e-12 * c


def test_subcritical_scan_rejects_off_sphere_valley():
    c = 0.5 * C0_3_25_1
    u_c = _valley(c)
    off = RadialFunction(u_c.grid, 1.01 * u_c.values)
    with pytest.raises(ParameterError, match="off the target sphere"):
        B.threshold_scan_subcritical(problem(3, c, 1.0, 2.5), off, [8])


@pytest.mark.parametrize("mu", [0.5, 1.0])
def test_subcritical_scan_row_without_interior_maximum(monkeypatch, mu):
    # a bubble of amplitude 1e-9 matters only at t ~ 1e9, beyond the range of
    # t, so the energy of W(t) peaks at an end of it: t = 1e3 at mu = 0.5,
    # t = 1e-3 at mu = 1
    truncated = B.truncated_instanton
    monkeypatch.setattr(
        B, "truncated_instanton",
        lambda N, n, g: RadialFunction(g, 1e-9 * truncated(N, n, g).values),
    )
    c = 0.5 * C0_3_25_1
    res = B.threshold_scan_subcritical(problem(3, c, mu, 2.5), _valley(c), [32])
    r = res.records[0]
    assert not r.passed
    assert res.first_pass is None
    assert np.isnan(r.sup_t) and np.isnan(r.t_at_sup)
    assert "no interior maximum" in r.note


def test_subcritical_scan_needs_subcritical_exponent():
    p = problem(3, 1.0, 1.0, 4.0)
    u_c = _valley(1.0)
    with pytest.raises(HypothesisError):
        B.threshold_scan_subcritical(p, u_c, [8])


def test_critical_scan_passes_at_mass_critical_exponent():
    alpha = thresholds(4, 3.0, 1.0, 1.0).alpha_Nq
    p = problem(4, 1.0, 0.9 * alpha, 3.0)
    res = B.threshold_scan_critical(p, [8, 16, 32, 64, 128, 256])
    assert res.threshold == pytest.approx(sobolev_constant(4).S_pow / 4.0, rel=1e-12)
    assert res.first_pass == 32
    # the family does not exist below n = 29; those rows are diagnostic
    for r in res.records[:2]:
        assert not r.passed and np.isnan(r.sup_t) and "core" in r.note
    sups = [r.sup_t for r in res.records[2:]]
    assert all(r.passed for r in res.records[2:])
    assert all(s < res.threshold for s in sups)
    assert sups == sorted(sups)  # sup creeps up toward the threshold


def test_critical_scan_empty_verdict_when_family_absent():
    p = problem(3, 1.0, 1.0, 4.0)
    res = B.threshold_scan_critical(p, [8, 16, 32, 64, 128, 256])
    assert res.first_pass is None
    assert res.passing() == []
    assert all(np.isnan(r.sup_t) and r.note for r in res.records)


def test_critical_scan_passes_far_beyond_existence_bound():
    # same parameters as above: the first admissible n is 10312 and the
    # threshold is first beaten near n ~ 1.6e4, with a hair-thin margin
    p = problem(3, 1.0, 1.0, 4.0)
    res = B.threshold_scan_critical(p, [16384])
    (r,) = res.records
    assert r.passed
    assert 0.0 < res.threshold - r.sup_t < 1e-3


def test_critical_scan_mu_zero_never_passes():
    p = problem(4, 1.0, 0.0, 3.0)
    res = B.threshold_scan_critical(p, [32, 64, 128, 256])
    gaps = [r.sup_t - res.threshold for r in res.records]
    assert all(gap > 0.0 for gap in gaps)
    assert gaps == sorted(gaps, reverse=True)  # approaches from above
    assert res.first_pass is None


def test_critical_scan_row_without_fiber_maximum(monkeypatch):
    def no_root(nb, p):
        raise NoCriticalPointError("no root in this test")

    monkeypatch.setattr(B, "manifold_projection", no_root)
    alpha = thresholds(4, 3.0, 1.0, 1.0).alpha_Nq
    res = B.threshold_scan_critical(problem(4, 1.0, 0.9 * alpha, 3.0), [32])
    (r,) = res.records
    assert not r.passed and res.first_pass is None
    assert np.isnan(r.sup_t) and np.isnan(r.t_at_sup)
    assert r.note == "no root in this test"
    assert r.mass == pytest.approx(1.0, rel=1e-10)


def test_critical_scan_guards():
    with pytest.raises(HypothesisError):
        B.threshold_scan_critical(problem(3, 1.0, 1.0, 2.5), [32])
    alpha = thresholds(4, 3.0, 1.0, 1.0).alpha_Nq
    with pytest.raises(HypothesisError):
        B.threshold_scan_critical(problem(4, 1.0, 1.1 * alpha, 3.0), [32])


@pytest.mark.parametrize("N", [3, 4, 5])
def test_pure_critical_fiber_profile(N):
    # t^2/2 - t^(2*)/2* stays in (0, 1/N] up to its zero crossing, peaking
    # at exactly t = 1
    two_star = 2.0 * N / (N - 2.0)
    t_zero = (two_star / 2.0) ** (1.0 / (two_star - 2.0))
    ts = np.linspace(1e-4, t_zero - 1e-9, 20001)
    g = ts ** 2 / 2.0 - ts ** two_star / two_star
    assert np.all(g > 0.0)
    assert np.all(g <= 1.0 / N + 1e-15)
    assert g.max() == pytest.approx(1.0 / N, rel=1e-7)
    assert abs(ts[np.argmax(g)] - 1.0) < 1e-3

