"""Tests for the instanton families, their norm models, and threshold scans."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, asdict, astuple
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import beta

from massnls import bubbles as B
from massnls.constants import instanton_amplitude, sobolev_constant, thresholds
from massnls.errors import (
    BracketError,
    ConvergenceError,
    HypothesisError,
    NoCriticalPointError,
    ParameterError,
    ResolutionError,
)
from massnls.functionals import (
    NormBundle,
    energy,
    fiber_energy,
    normalize_mass,
    problem,
    stiff_bundle,
)
from massnls.grid import (
    RadialFunction,
    grid_from_nodes,
    make_grid,
    mass,
    norms,
    sphere_area,
)
from massnls.manifold import manifold_projection

from csr_oracle import stiffness_csr
from scan_oracle import (
    cutoff_radius_asymptote,
    cutoff_radius_by_brentq,
    grid_row,
    grid_scan,
    pchip_resample,
)


def _stiff(u):
    return float(u.values @ (stiffness_csr(u.grid) @ u.values))


def _child(code, **env):
    """Run code in a fresh interpreter that imports massnls and the test
    oracles from this tree, with env added to its environment only; return
    its stdout as JSON."""
    path = [str(Path(B.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(out.stdout)


# ----------------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("n", [8, 256, 2 ** 16])
def test_normalized_grid_is_the_sorted_union_of_its_pieces(N, n):
    rho, r_core = n ** (2.0 / 3.0), 2.0 / n
    R_n = 2.0 * rho
    m_geo = max(8, int(np.ceil(np.log10(rho / r_core) * 2000)))
    union = np.unique(np.concatenate([
        np.linspace(0.0, r_core, 1201),
        np.geomspace(r_core, rho, m_geo + 1),
        np.linspace(rho, R_n, 2401),
    ]))
    assert np.array_equal(B._normalized_grid(N, n, R_n).nodes, union)


@pytest.mark.parametrize("n", [8, 256, 2 ** 16])
def test_bubble_grid_is_the_sorted_union_of_its_pieces(n):
    r_core = 2.0 / n
    m_geo = max(8, int(np.ceil(np.log10(60.0 / r_core) * 800)))
    nodes = np.unique(np.concatenate([
        np.linspace(0.0, r_core, 1201), np.geomspace(r_core, 60.0, m_geo + 1),
    ]))
    for rb in (1.0, 2.0):
        evict = (np.abs(nodes - rb) <= 60e-10) & (nodes > 0.0) & (nodes < 60.0)
        nodes = np.sort(np.append(nodes[~evict], rb))
    assert np.array_equal(B.bubble_grid(3, n, 60, (1, 2)).nodes, nodes)


# the non-finite ones raised ValueError, ZeroDivisionError or OverflowError;
# then n < 1, R_max below the core 2/n and R_max below the kink radius 1
@pytest.mark.parametrize("n, R_max", [(math.nan, 60.0), (math.inf, 60.0),
                                      (8, math.inf), (8, math.nan),
                                      (0.5, 60.0), (8, 0.25), (8, 0.9)])
def test_bubble_grid_rejects_non_finite_parameters(n, R_max):
    with pytest.raises(ParameterError):
        B.bubble_grid(3, n, R_max, barrier_radii=(1.0,))


@pytest.mark.parametrize("n, R_max", [("8", 60.0), (None, 60.0), (8, "60"), (8, 60j),
                                      (10 ** 400, 60.0)],
                         ids=["str_n", "none_n", "str_R", "complex_R", "huge_int_n"])
def test_bubble_grid_rejects_non_real_parameters(n, R_max):
    # "8" raised TypeError from math.isfinite and 10**400 OverflowError; the
    # check runs before the memo, so every call raises and nothing is stored
    before = B._bubble_grid.cache_info()
    for _ in range(2):
        with pytest.raises(ParameterError, match="finite real number"):
            B.bubble_grid(3, n, R_max, barrier_radii=[1.0])
    assert B._bubble_grid.cache_info() == before


def test_bubble_grid_is_one_object_for_equal_arguments():
    B._bubble_grid.cache_clear()
    g = B.bubble_grid(3, 64, 60, [1, 2])
    for n in (64, 64.0, np.int64(64)):
        for R_max in (60, 60.0, np.float64(60.0)):
            for barriers in ([1.0, 2.0], (1.0, 2.0), (2.0, 1.0), (np.float64(2.0), 1)):
                assert B.bubble_grid(3, n, R_max, barriers) is g
    assert B.bubble_grid(np.int64(3), 64, 60, (1, 2)) is g
    assert B._bubble_grid.cache_info().misses == 1


def test_bubble_grid_memo_keeps_the_last_grids_only():
    B._bubble_grid.cache_clear()
    bound = B._GRID_MEMO_SIZE
    ns = range(8, 8 + bound + 1)
    grids = [B.bubble_grid(3, n, 2.0, (1.0,)) for n in ns]
    # the last `bound` grids are kept, and a hit evicts nothing
    assert all(B.bubble_grid(3, n, 2.0, (1.0,)) is g for n, g in zip(ns[1:], grids[1:]))
    again = B.bubble_grid(3, ns[0], 2.0, (1.0,))
    assert again is not grids[0]
    assert np.array_equal(again.nodes, grids[0].nodes)
    assert np.array_equal(again.weights, grids[0].weights)
    assert B._bubble_grid.cache_info().currsize == bound


def test_shared_bubble_grid_cannot_be_rebound():
    g = B.bubble_grid(3, 64, 60.0, (1.0, 2.0))
    with pytest.raises(FrozenInstanceError):
        g.N = 4
    with pytest.raises(FrozenInstanceError):
        g.nodes = np.linspace(0.0, 60.0, 100)
    with pytest.raises(ValueError, match="read-only"):
        g.weights[0] = 1.0
    assert B.bubble_grid(3, 64, 60.0, (1.0, 2.0)) is g and g.N == 3


def test_normalized_grid_needs_the_core_inside_the_kink():
    # n = 1: the core 2/n = 2 reaches past the kink n^(2/3) = 1
    with pytest.raises(ParameterError, match="n >= 2"):
        B.mass_normalized_instanton(5, 100.0, 1)


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
    ramp = B._ramped_values(N, n, 1.0, 2.0, np.array([1.0, 2.0, 2.5]))
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
# ramp moments
# ----------------------------------------------------------------------------

def _annulus(N, k, a, R):
    """int_a^R (R-r)^k r^(N-1) dr, from the ramp polynomial in w = R - a."""
    w = R - a
    return w ** k * B._ramp_poly(B._ramp_coeffs(N, a, k), w)[0]


def test_annulus_moment_matches_quadrature():
    for N, k, a, R in [(3, 2, 1.0, 2.0), (4, 2.5, 1.0, 2.0), (5, 3.75, 0.3, 7.0)]:
        direct = quad(lambda r: (R - r) ** k * r ** (N - 1), a, R,
                      epsabs=0.0, epsrel=1e-13)[0]
        assert _annulus(N, k, a, R) == pytest.approx(direct, rel=1e-10)


def test_annulus_moment_known_value():
    assert _annulus(3, 2, 1.0, 2.0) == pytest.approx(8.0 / 15.0, rel=1e-14)


def test_annulus_moment_narrow_band_stable():
    # width 1e-9 relative: the naive large-R expansion loses everything here
    a = 100.0
    R = a * (1.0 + 1e-9)
    w = R - a
    lead = a ** 3 * w ** 3 / 3.0  # rho^(N-1) w^(k+1)/(k+1) at N=4, k=2
    assert _annulus(4, 2, a, R) == pytest.approx(lead, rel=1e-6)


# the kink and support end of the N = 3, c = 1 family at its existence bound
# n = 10312, where the ramp is 7.3e-5 of R wide
_EDGE_RHO, _EDGE_R = 10312.0 ** (2.0 / 3.0), 473.7986111999761


@pytest.mark.parametrize("N, k, a, R", [
    (8, 2, 1.0, 1e4), (5, 4, 0.3, 7.0), (6, 2, 1.0, 1e3),  # wide bands
    (3, 2, 1.0, 2.0), (4, 2, 100.0, 100.0 * (1.0 + 1e-9)), (6, 0, 645.0, 1e4),
    # k = 0 is (R^N - rho^N)/N, the gradient's ramp term up to a factor
    (3, 0, _EDGE_RHO, _EDGE_R), (3, 2, _EDGE_RHO, _EDGE_R),
])
def test_annulus_moment_is_exact_for_integer_powers(N, k, a, R):
    # the exact integral at the float ends: (R-r)^k expanded in powers of r
    a_, R_ = Fraction(a), Fraction(R)
    exact = sum(math.comb(k, i) * (-R_) ** (k - i) * (-1) ** k
                * (R_ ** (N + i) - a_ ** (N + i)) / (N + i) for i in range(k + 1))
    assert abs(Fraction(_annulus(N, k, a, R)) - exact) <= Fraction(1, 10 ** 15) * exact


@pytest.mark.parametrize("N, k, a, R", [
    (5, 10.0 / 3.0, 0.3, 7.0), (8, 8.0 / 3.0, 1.0, 1e4), (5, 10.0 / 3.0, 645.0, 1e4),
    (3, 2.5, 1.0, 1e3), (4, 3.5, 100.0, 100.0 * (1.0 + 1e-9)), (3, 3.5, _EDGE_RHO, _EDGE_R),
])
def test_annulus_moment_is_exact_for_lebesgue_powers(N, k, a, R):
    # k in {q, 2*}: R^(N+k) times the incomplete beta integral over [a/R, 1]
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a_, R_, k_ = mpmath.mpf(a), mpmath.mpf(R), mpmath.mpf(k)
        exact = R_ ** (N + k_) * mpmath.betainc(N, k_ + 1, a_ / R_, 1)
        assert abs(_annulus(N, k, a, R) - exact) <= 1e-15 * exact


# ----------------------------------------------------------------------------
# truncated family: dual routes and decay slopes
# ----------------------------------------------------------------------------

_NS = [10, 20, 40, 80, 160]


def _truncated_norms(N, q):
    """Grid and model (mass, grad_sq, lcrit, lq) of the truncated family at
    each n of _NS as two arrays of rows; the grid ones are the P1 norms
    (`stiff_bundle`) on one bubble grid for the largest n."""
    g = B.bubble_grid(N, max(_NS), 2.0, barrier_radii=(1.0,))
    p = problem(N, 1.0, 1.0, q)
    grid, model = [], []
    for n in _NS:
        nb = stiff_bundle(g, B.truncated_instanton(N, n, g).values, p)
        grid.append((nb.mass, nb.grad_sq, nb.lcrit, nb.lq))
        model.append(B.truncated_norms_model(N, n, q))
    return np.array(grid), np.array(model)


def _decay_slopes(N, rows):
    """Least-squares log-log slopes in n of mass, |grad_sq - S^(N/2)|,
    |lcrit - S^(N/2)| and lq over _NS without its smallest n, which is
    pre-asymptotic."""
    S_pow = sobolev_constant(N).S_pow
    devs = np.abs(rows[1:] - [0.0, S_pow, S_pow, 0.0])
    slopes = np.polyfit(np.log(_NS[1:]), np.log(devs), 1)[0]
    return dict(zip(("mass", "grad_dev", "crit_dev", "lq"), slopes))


def test_truncated_dual_route_agreement():
    for N, q in [(3, 2.5), (4, 3.0)]:
        grid, model = _truncated_norms(N, q)
        assert np.max(np.abs(grid - model) / model) < 2e-5
        for got, want in zip(grid, model):
            assert got[0] == pytest.approx(want[0], rel=1e-6)  # mass
            assert got[3] == pytest.approx(want[3], rel=1e-6)  # lq


def test_truncated_slopes_match_theory_n3():
    grid, model = _truncated_norms(3, 2.5)
    slopes, model_slopes = _decay_slopes(3, grid), _decay_slopes(3, model)
    theory = {"mass": -1.0, "grad_dev": -1.0, "crit_dev": -3.0, "lq": -1.25}
    for key, want in theory.items():
        assert abs(slopes[key] - want) < 0.3, (key, slopes[key])
        assert abs(model_slopes[key] - want) < 0.3
        assert abs(slopes[key] - model_slopes[key]) < 0.15


def test_truncated_slopes_match_theory_n4():
    grid, model = _truncated_norms(4, 3.0)
    slopes, model_slopes = _decay_slopes(4, grid), _decay_slopes(4, model)
    # mass picks up a log factor; the fitted slope sits above -2 but within band
    theory = {"mass": -2.0, "grad_dev": -2.0, "crit_dev": -4.0, "lq": -1.0}
    for key, want in theory.items():
        assert abs(slopes[key] - want) < 0.3, (key, slopes[key])
        assert abs(model_slopes[key] - want) < 0.3


def test_truncated_mass_slope_n5():
    grid, _ = _truncated_norms(5, 3.0)
    assert abs(_decay_slopes(5, grid)["mass"] - (-2.0)) < 0.3


# ----------------------------------------------------------------------------
# cutoff radius
# ----------------------------------------------------------------------------

def test_cutoff_solver_back_substitution():
    for N, c, n in [(4, 1.0, 32), (4, 1.0, 256), (3, 100.0, 1000), (5, 1.0, 40)]:
        R = B.solve_cutoff_radius(N, c, n)
        assert R > float(n) ** (2.0 / 3.0)
        assert B.normalized_norms_model(N, c, n)["mass"] == pytest.approx(c, rel=1e-12)


def test_cutoff_radius_frozen_values():
    assert B.solve_cutoff_radius(3, 100.0, 1000) == pytest.approx(
        1035.0847016788791, rel=1e-9)
    assert B.solve_cutoff_radius(4, 1.0, 64) == pytest.approx(
        84.56175753862293, rel=1e-9)


def test_cutoff_radius_asymptote_ratio():
    # convergence is slow (the matching radius is only n^(-1/9) below R_n for
    # N=3) but by n = 1e3 the ratio is inside 10% once c clears the core mass
    R = B.solve_cutoff_radius(3, 100.0, 1000)
    ratio = R / cutoff_radius_asymptote(3, 100.0, 1000)
    assert 0.90 < ratio < 1.10
    R4 = B.solve_cutoff_radius(4, 1.0, 256)
    assert 0.90 < R4 / cutoff_radius_asymptote(4, 1.0, 256) < 1.10


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


@pytest.mark.parametrize("N", [3, 4])
def test_family_min_n_is_the_least_n_the_cutoff_solve_accepts(N):
    # the core mass at n is the family's boundary mass c; at N = 3 an n^(5/3)
    # core mass rounded above the solve's n * n^(2/3) one, so the bound said
    # 20001 while the solve accepted 20000
    c = B.core_mass(N, 20000)
    assert type(c) is float
    assert B.normalized_family_min_n(N, c) == 20001
    with pytest.raises(BracketError):
        B.solve_cutoff_radius(N, c, 20000)
    assert B.solve_cutoff_radius(N, c, 20001) > 20001.0 ** (2.0 / 3.0)


def test_cutoff_rejects_bad_mass():
    with pytest.raises(ParameterError):
        B.solve_cutoff_radius(3, 0.0, 50)
    # nan and inf used to run the 20 Newton steps into ConvergenceError
    for c in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="target mass"):
            B.solve_cutoff_radius(4, c, 64)


@pytest.mark.parametrize("n", [0, -8, -8.0, math.nan, math.inf, "8", True])
def test_cutoff_rejects_bad_concentration(n):
    # n = 0 divided by zero; n = -8 made the kink n^(2/3) complex; "8"
    # raised TypeError and True was taken as n = 1
    with pytest.raises(ParameterError, match="concentration"):
        B.solve_cutoff_radius(4, 1.0, n)
    with pytest.raises(ParameterError, match="concentration"):
        B.core_mass(4, n)


@pytest.mark.parametrize("n", [0, -8, math.nan, math.inf, "8", True])
def test_truncated_family_rejects_bad_concentration(n):
    # n = -8 returned a negative mass, n = 0 NaN norms
    g = B.bubble_grid(3, 8, 2.0, barrier_radii=(1.0,))
    with pytest.raises(ParameterError, match="concentration"):
        B.truncated_norms_model(3, n, 4.0)
    with pytest.raises(ParameterError, match="concentration"):
        B.truncated_instanton(3, n, g)


@pytest.mark.parametrize("c", [0.0, math.nan, math.inf, "1", True])
def test_family_min_n_rejects_bad_mass(c):
    # nan used to return 16
    with pytest.raises(ParameterError, match="target mass"):
        B.normalized_family_min_n(4, c)


@pytest.mark.parametrize("N", [2, 1, 3.0])
def test_family_functions_reject_bad_dimension(N):
    # N = 2 doubled n to 2^60 and raised BracketError
    with pytest.raises(ParameterError, match="dimension"):
        B.normalized_family_min_n(N, 1.0)
    with pytest.raises(ParameterError, match="dimension"):
        B.solve_cutoff_radius(N, 1.0, 64)


def _cutoff_sweep():
    """(N, c, n) over N = 3..8 and c in {0.5, 1, 100}: the smallest
    admissible n, then every admissible power of two up to 2^22, and 2^24
    at N = 3."""
    cases = []
    for N in range(3, 9):
        for c in (0.5, 1.0, 100.0):
            n0 = max(2, B.normalized_family_min_n(N, c))
            ns = [n0] + [2 ** k for k in range(1, 23) if 2 ** k > n0]
            cases += [(N, c, n) for n in ns + [2 ** 24] * (N == 3)
                      if B.core_mass(N, n) < c]
    return cases


def test_cutoff_radius_matches_the_brentq_oracle():
    cases = _cutoff_sweep()
    assert len(cases) > 300
    for N, c, n in cases:
        R = B.solve_cutoff_radius(N, c, n)
        assert R == pytest.approx(cutoff_radius_by_brentq(N, c, n), rel=1e-12), (N, c, n)


def test_cutoff_radius_carries_the_mass_to_the_last_bits():
    for N, c, n in _cutoff_sweep():
        got = B.normalized_norms_model(N, c, n)["mass"]
        assert abs(got - c) <= 1e-15 * c, (N, c, n, got)


def test_cutoff_newton_that_does_not_settle_raises(monkeypatch):
    # 2-7 steps over N = 3..12; a cap of one step cannot settle
    monkeypatch.setattr(B, "_NEWTON_STEPS", 1)
    with pytest.raises(ConvergenceError, match="Newton"):
        B.solve_cutoff_radius(4, 1.0, 64)


# ----------------------------------------------------------------------------
# mass-normalized family
# ----------------------------------------------------------------------------

def test_normalized_mass_contract():
    for N, c, n in [(4, 1.0, 32), (4, 1.0, 256), (3, 100.0, 1000), (5, 1.0, 2000)]:
        u = B.mass_normalized_instanton(N, c, n)
        assert abs(mass(u) - c) <= 1e-8 * c


@pytest.mark.parametrize("m, e", [(4, 3), (3, 3.0)], ids=["mass_N5", "norm_N4_q3"])
def test_core_integral_and_its_tail_sum_to_the_beta_function(m, e):
    # int_0^inf s^m (1+s^2)^(-e) ds = B((m+1)/2, e - (m+1)/2) / 2, split at
    # an x far beyond the integrand's peak near s = 1
    x = 1e7
    total = B._core_integral(m, e, x) + B._core_integral(2 * e - m - 2, e, 1.0 / x)
    a = (m + 1) / 2.0
    assert total == pytest.approx(0.5 * beta(a, e - a), rel=1e-13)


def _oracle_cases():
    """(m, e, x) of every core integral the mass-c family takes, N = 3..8,
    at x = n^(5/3) for every power of two n up to 2^24: the gradient and
    critical tails at 1/x, the N >= 5 mass, and the L^q core at q = 2+4/N,
    the midpoint of [2+4/N, 2*] and 2* - 0.01."""
    cases = []
    for N in range(3, 9):
        two_star = 2.0 * N / (N - 2.0)
        q_bar = 2.0 + 4.0 / N
        qs = (q_bar, 0.5 * (q_bar + two_star), two_star - 0.01)
        for k in range(25):
            x = float(2 ** k) ** (5.0 / 3.0)
            cases += [(N - 3, N, 1.0 / x), (N - 1, N, 1.0 / x)]
            cases += [(N - 1, q * (N - 2) / 2.0, x) for q in qs]
            if N >= 5:
                cases.append((N - 1, N - 2, x))
    return cases


def test_core_integral_is_the_incomplete_beta_function():
    mpmath = pytest.importorskip("mpmath")
    cases = _oracle_cases()
    assert len(cases) == 6 * 25 * 5 + 4 * 25
    with mpmath.workdps(50):
        for m, e, x in cases:
            a = mpmath.mpf(m + 1) / 2
            x_ = mpmath.mpf(x)
            want = mpmath.betainc(a, mpmath.mpf(e) - a, 0, x_ ** 2 / (1 + x_ ** 2)) / 2
            got = B._core_integral(m, e, x)
            assert abs(got - want) <= 1e-14 * want, (m, e, x)


@pytest.mark.parametrize("q", [2.1, 2.5, 2.99, 3.0])
def test_core_integral_without_a_beta_function(q):
    # N = 3, q <= 3: b = (q - 3)/2 <= 0, so the L^q core grows without bound
    # and takes the quadrature branch
    mpmath = pytest.importorskip("mpmath")
    e = q / 2.0
    for x in (0.01, 1.0, 160.0, 1e7):
        with mpmath.workdps(50):
            cuts = [0] + [mpmath.mpf(10) ** k for k in range(int(math.log10(x)) + 1)
                          if 10 ** k < x] + [mpmath.mpf(x)]
            want = mpmath.quad(lambda s: s ** 2 * (1 + s ** 2) ** (-mpmath.mpf(e)), cuts)
        # quad is asked for 1e-12 relative
        assert abs(B._core_integral(2, e, x) - want) <= 1e-12 * want, x


def test_core_mass_far_out_in_five_dimensions():
    # x = n^(5/3) ~ 3.2e5, where int_x^inf s^4 (1+s^2)^(-3) ds = 1/x to 1e-16
    n = 2000
    x = n ** (5.0 / 3.0)
    want = (sphere_area(5) * instanton_amplitude(5) ** 2
            * (3.0 * np.pi / 16.0 - 1.0 / x) / n ** 2)
    assert B.core_mass(5, n) == pytest.approx(want, rel=1e-13)


# the Python-int 2**40 results at N = 3 as float hex, pinned before n was
# taken as a float in the core mass: (R_n, mass, grad_sq, lcrit, lq(4)) of
# the mass-1 family and (mass, grad_sq, lcrit, lq(4)) of the truncated one
_NORMALIZED_2_40 = ["0x1.2ac978ed266b5p+31", "0x1.0000000000001p+0", "0x1.9a459171d3a07p+3",
                    "0x1.9a459171d3a07p+3", "0x1.d9bdb2e9d68c9p-36"]
_TRUNCATED_2_40 = ["0x1.0afdc3a2c22b3p-35", "0x1.9a459171d7412p+3", "0x1.9a459171d3a07p+3",
                   "0x1.d9bdb2e9d4d80p-36"]


@pytest.mark.parametrize("n", [2 ** 40, np.int64(2 ** 40)], ids=["int", "int64"])
def test_norm_models_take_a_numpy_integer_n_as_its_python_int(n):
    # np.int64(2**40) ** 2 wrapped to 0 and the core mass divided by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mod = B.normalized_norms_model(3, 1.0, n)
        normalized = [mod[k] for k in ("R_n", "mass", "grad_sq", "lcrit")] + [mod["lq"](4.0)]
        truncated = B.truncated_norms_model(3, n, 4.0)
    assert [float(v).hex() for v in normalized] == _NORMALIZED_2_40
    assert [float(v).hex() for v in truncated] == _TRUNCATED_2_40


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


@pytest.mark.parametrize("N", [3, 4, 5])
@pytest.mark.parametrize("q", [2.5, 3.0])
def test_the_two_models_describe_one_family(N, q):
    # at n = 1 the mass-c family has the truncated family's kink n^(2/3) = 1,
    # so the mass of the truncated member puts its cutoff at R = 2
    trunc = B.truncated_norms_model(N, 1, q)
    assert B.solve_cutoff_radius(N, trunc[0], 1) == pytest.approx(2.0, rel=1e-12)
    mod = B.normalized_norms_model(N, trunc[0], 1)
    got = (mod["mass"], mod["grad_sq"], mod["lcrit"], mod["lq"](q))
    assert got == pytest.approx(trunc, rel=1e-12)


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


def _bubbles_on(g):
    """Three second profiles for the cross-term route: the truncated bubble,
    a Gaussian with full support (nothing off the support), and a bump on
    three nodes."""
    few = np.zeros(g.M + 1)
    few[[0, 1, 2]] = (3.0, 2.0, 1.0)
    return {
        "bubble": B.truncated_instanton(3, 16, g),
        "full": RadialFunction(g, np.exp(-(g.nodes / 10.0) ** 2)),
        "few": RadialFunction(g, few),
    }


@pytest.mark.parametrize("kind", ["bubble", "full", "few"])
def test_superposition_bundle_array_matches_scalar_calls(kind):
    g, u_c, _ = _scan_inputs()
    U = _bubbles_on(g)[kind]
    support = np.count_nonzero(U.values)
    p = problem(3, 2.0, 1.0, 2.5)
    cross = B._build_cross(p, u_c, U, c=2.0)
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 400)])
    if kind == "bubble":
        # the array spans several blocks and ends in a partial one
        rows = B._BLOCK // support
        assert ts.size > 3 * rows and ts.size % rows != 0
    else:
        assert support == {"full": g.M + 1, "few": 3}[kind]
    nb = B._superposition_bundle(p, cross, ts)
    W = g.omega_N * g.weights
    for k, t in enumerate(ts):
        one = B._superposition_bundle(p, cross, float(t))
        for name in ("mass", "grad_sq", "lq", "lcrit"):
            assert isinstance(getattr(one, name), float)
            assert getattr(nb, name)[k] == pytest.approx(getattr(one, name), rel=1e-15)
        # the direct quadrature over every node of u_c + t U
        v2 = (u_c.values + t * U.values) ** 2
        m, lq, lc = cross["lebesgue"](float(t))
        assert m == pytest.approx(float(W @ v2), rel=1e-14)
        assert lq == pytest.approx(float(W @ v2 ** 1.25), rel=1e-14)
        assert lc == pytest.approx(float(W @ v2 ** 3), rel=1e-14)


def _differences(f, x, h):
    """First and second derivative of f at x: central differences at steps
    h and h/2, Richardson-extrapolated to O(h^4)."""
    def central(k):
        lo, mid, hi = (np.asarray(f(x + j * k)) for j in (-1, 0, 1))
        return (hi - lo) / (2.0 * k), (hi - 2.0 * mid + lo) / (k * k)

    (a1, a2), (b1, b2) = central(h), central(h / 2.0)
    return (4.0 * b1 - a1) / 3.0, (4.0 * b2 - a2) / 3.0


def test_lebesgue_dt_is_the_derivative_of_the_row_norms():
    # the Newton callable against the array route and its differences
    g, u_c, U = _scan_inputs()
    p = problem(3, 2.0, 1.0, 2.5)
    cross = B._build_cross(p, u_c, U, c=2.0)
    for t in (0.1, 1.0, 7.0):
        lq, dq, d2q, dc, d2c = cross["lebesgue_dt"](t)
        (_, fd_q, fd_c), (_, fd2_q, fd2_c) = _differences(cross["lebesgue"], t, 1e-3 * t)
        assert lq == pytest.approx(cross["lebesgue"](t)[1], rel=1e-14)
        assert dq == pytest.approx(fd_q, rel=1e-8)
        assert dc == pytest.approx(fd_c, rel=1e-8)
        assert d2q == pytest.approx(fd2_q, rel=1e-6)
        assert d2c == pytest.approx(fd2_c, rel=1e-6)


def test_log_t_slopes_are_the_derivatives_of_the_scan_energy():
    g, u_c, U = _scan_inputs()
    p = problem(3, 2.0, 1.0, 2.5)
    cross = B._build_cross(p, u_c, U, c=2.0)

    def phi(s):
        return fiber_energy(B._superposition_bundle(p, cross, math.exp(s)), p, 1.0)

    for s in (-2.0, 0.0, 1.5):
        d1, d2 = B._log_t_slopes(p, cross, s)
        fd1, fd2 = _differences(phi, s, 1e-3)
        assert d1 == pytest.approx(fd1, rel=1e-8)
        assert d2 == pytest.approx(fd2, rel=1e-6)


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


def test_subcritical_scan_is_the_same_from_a_cold_and_a_warm_memo():
    p, u_c = _gaussian_valley(3, 2.5, 6.0)
    ns = [8, 16, 32, 64, 128, 256]
    B._bubble_grid.cache_clear()
    cold = json.dumps(B.threshold_scan_subcritical(p, u_c, ns).as_dict())
    warm = json.dumps(B.threshold_scan_subcritical(p, u_c, ns).as_dict())
    assert B._bubble_grid.cache_info().hits == len(ns)
    assert warm == cold


def _row_cross(p, u_c, n):
    # the cross terms of row n on the scan's own grid
    g = B.bubble_grid(p.N, n, max(u_c.grid.R_max, 2.0), barrier_radii=(1.0, 2.0))
    return B._build_cross(p, pchip_resample(u_c, g), B.truncated_instanton(p.N, n, g), c=p.c)


def _dense_sup(p, u_c, n, ts):
    # phi(t) on the scan's own grid and cross terms, at the weights ts
    cross = _row_cross(p, u_c, n)
    return max(fiber_energy(B._superposition_bundle(p, cross, t), p, 1.0) for t in ts)


def _grid_values(p, cross):
    return fiber_energy(B._superposition_bundle(p, cross, B._T_GRID), p, 1.0)


def _brent_sup(p, cross):
    """The sup over t by bounded Brent in s = log t over the two cells around
    the grid argmax (xatol 1e-10), with the grid point as fallback: the
    reference for the scan's Newton refinement.  Returns (sup, t_at_sup)."""
    vals = _grid_values(p, cross)
    k = int(np.argmax(vals))
    s = np.log(B._T_GRID)
    res = minimize_scalar(
        lambda x: -fiber_energy(B._superposition_bundle(p, cross, math.exp(x)), p, 1.0),
        bounds=(s[k - 1], s[k + 1]), method="bounded", options={"xatol": 1e-10},
    )
    if vals[k] > -res.fun:
        return float(vals[k]), float(B._T_GRID[k])
    return -float(res.fun), math.exp(res.x)


def _gaussian_valley(N, q, sigma):
    # a mass-c Gaussian at c = c0/2, as the benchmark's sub scan takes it
    c = 0.5 * thresholds(N, q, 1.0, 1.0).c0
    g = make_grid(N, 60.0, 3000, grading="graded")
    u_c = normalize_mass(RadialFunction(g, np.exp(-(g.nodes / sigma) ** 2)), c)
    return problem(N, c, 1.0, q), u_c


# the six benchmark rows (sigma = 6, the middle of the benchmark's seeded
# widths), then one row each in N = 4 and 5.  The Brent
# reference stops at about sqrt(eps)|s| in s, not at its xatol, and it keeps
# the largest of its noisy values: at N = 5 its t lies up to 1.5e-8 from the
# stationary point and its sup up to 5e-14 above the Newton sup at some n,
# so those rows take n = 32, where both stay inside the bounds below
@pytest.mark.parametrize("N, q, sigma, ns", [
    (3, 2.5, 6.0, [8, 16, 32, 64, 128, 256]),
    (4, 2.5, 4.0, [32]),
    (5, 2.6, 3.0, [32]),
], ids=["benchmark_N3", "N4", "N5"])
def test_subcritical_scan_newton_sup_matches_bounded_brent(N, q, sigma, ns):
    p, u_c = _gaussian_valley(N, q, sigma)
    for r in B.threshold_scan_subcritical(p, u_c, ns).records:
        cross = _row_cross(p, u_c, r.n)
        sup, t = _brent_sup(p, cross)
        assert r.sup_t == pytest.approx(sup, rel=1e-14)
        assert r.t_at_sup == pytest.approx(t, rel=1e-8)
        # the Newton point is stationary well inside Brent's own tolerance
        d1, d2 = B._log_t_slopes(p, cross, math.log(r.t_at_sup))
        assert d2 < 0.0 and abs(d1 / d2) <= 1e-9


def test_subcritical_scan_sup_by_bisection_alone(monkeypatch):
    # reporting d^2Phi/ds^2 >= 0 at every pass forces the bisection branch
    c = 0.5 * C0_3_25_1
    p = problem(3, c, 1.0, 2.5)
    u_c = _valley(c)
    newton = B.threshold_scan_subcritical(p, u_c, [32]).records[0]
    slopes, passes = B._log_t_slopes, []

    def convex(p, cross, s):
        d1, d2 = slopes(p, cross, s)
        passes.append(s)
        return d1, abs(d2)

    monkeypatch.setattr(B, "_log_t_slopes", convex)
    r = B.threshold_scan_subcritical(p, u_c, [32]).records[0]
    vals = _grid_values(p, _row_cross(p, u_c, 32))
    k = int(np.argmax(vals))
    # halving the two-cell bracket down to _XATOL takes 34 passes
    assert len(passes) == math.ceil(math.log2(2.0 * math.log(1e6) / 24 / B._XATOL))
    assert B._T_GRID[k - 1] < r.t_at_sup < B._T_GRID[k + 1]
    assert r.sup_t >= vals[k]
    assert r.t_at_sup == pytest.approx(newton.t_at_sup, rel=1e-9)


def test_subcritical_scan_keeps_the_grid_value_over_a_lower_refinement(monkeypatch):
    # a refinement that lands below the grid maximum (here the left
    # neighbour of the argmax) gives way to the grid point itself, valued
    # by a scalar bundle
    c = 0.5 * C0_3_25_1
    p = problem(3, c, 1.0, 2.5)
    u_c = _valley(c)
    monkeypatch.setattr(B, "_argmax_in_log_t", lambda p, cross, lo, s, hi: lo)
    r = B.threshold_scan_subcritical(p, u_c, [32]).records[0]
    cross = _row_cross(p, u_c, 32)
    vals = _grid_values(p, cross)
    k = int(np.argmax(vals))
    nb = B._superposition_bundle(p, cross, float(B._T_GRID[k]))
    assert (r.t_at_sup, r.sup_t) == (B._T_GRID[k], vals[k])
    assert (r.mass, r.grad_sq, r.lcrit, r.lq) == (nb.mass, nb.grad_sq, nb.lcrit, nb.lq)


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


def test_critical_scan_does_not_depend_on_the_blas_thread_count():
    # the scan itself builds no grid; its oracle route builds grids of
    # 8017-19054 nodes, past the 10000 elements above which OpenBLAS runs a
    # dot product on its thread pool
    code = """if True:
        import json
        from massnls.functionals import problem
        from scan_oracle import grid_scan
        res = grid_scan(problem(3, 1.0, 1.0, 4.0), [2**14, 2**15, 2**16])
        fields = ("mass", "grad_sq", "lq", "lcrit", "sup_t", "t_at_sup")
        print(json.dumps([[float(getattr(r, f)).hex() for f in fields]
                          for r in res.records]))
    """
    one, two = (_child(code, OPENBLAS_NUM_THREADS=k) for k in ("1", "2"))
    assert one == two
    assert "nan" not in str(one)


def test_path_energies_do_not_depend_on_the_blas_thread_count():
    # the bubble's support here is 15000 nodes, so each row of the cross
    # route's Lebesgue sums is longer than the 10000 elements above which
    # OpenBLAS runs a dot product on its thread pool
    code = """if True:
        import json
        import numpy as np
        from massnls.bubbles import truncated_instanton
        from massnls.functionals import normalize_mass, problem
        from massnls.grid import RadialFunction, make_grid
        from massnls.solvers import mountain_pass_path
        g = make_grid(3, 4.0, 30000)
        p = problem(3, 2.0, 1.0, 2.5)
        u = normalize_mass(RadialFunction(g, np.exp(-(g.nodes / 1.5) ** 2)), p.c)
        U = truncated_instanton(3, 64, g)
        assert np.count_nonzero(U.values) == 15000
        mp = mountain_pass_path(p, u, U, t_grid=np.geomspace(1e-3, 1e3, 400))
        print(json.dumps([float(e).hex() for e in mp.energies]
                         + [float(mp.level_estimate).hex()]))
    """
    one, two = (_child(code, OPENBLAS_NUM_THREADS=k) for k in ("1", "2"))
    assert one == two
    assert len(one) == 402 and "nan" not in str(one)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second core to spill onto")
def test_critical_scan_stays_on_one_core():
    # on the oracle route of the critical scan, whose grids pass OpenBLAS's
    # threading cut: process CPU time counts every thread, so BLAS threads
    # would show as CPU time near twice the wall time
    code = """if True:
        import json, time
        from massnls.functionals import problem
        from scan_oracle import grid_scan
        p, ns = problem(3, 1.0, 1.0, 4.0), [2**k for k in range(12, 17)]
        grid_scan(p, ns)  # warm-up: lazy imports and caches
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(10):
            grid_scan(p, ns)
        print(json.dumps([time.perf_counter() - w0, time.process_time() - c0]))
    """
    wall, cpu = _child(code)
    assert cpu <= 1.25 * wall


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


def _bisected(g):
    """g with every cell halved; its nodes, the kink among them, stay nodes."""
    nodes = np.empty(2 * g.nodes.size - 1)
    nodes[0::2] = g.nodes
    nodes[1::2] = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    return grid_from_nodes(g.N, nodes, barrier_radii=g.barriers)


def _crit4():
    return problem(4, 1.0, 0.9 * thresholds(4, 3.0, 1.0, 1.0).alpha_Nq, 3.0)


def _model_bundle(p, n):
    mod = B.normalized_norms_model(p.N, p.c, n)
    return NormBundle(mod["mass"], mod["grad_sq"], mod["lq"](p.q), mod["lcrit"])


@pytest.mark.parametrize("case", ["crit4", "crit3"])
def test_critical_scan_rows_are_the_limit_of_the_grid_route(case):
    # the grid route's P1 grad_sq converges to the model at order 2: each
    # bisection of every cell of the family grid quarters its gap
    p, n = (_crit4(), 32) if case == "crit4" else (problem(3, 1.0, 1.0, 4.0), 2 ** 14)
    (r,) = B.threshold_scan_critical(p, [n]).records
    model = _model_bundle(p, n)
    g = B._normalized_grid(p.N, n, B.solve_cutoff_radius(p.N, p.c, n))
    gaps = []
    for k in range(3):
        nb, sup_t, _, _ = grid_row(p, n, g)
        gaps.append(nb.grad_sq - model.grad_sq)
        assert sup_t > r.sup_t
        if k == 0:
            # measured: mass 1.3e-11 (crit4) and 6.5e-10 (crit3); lq and
            # lcrit at most 1.5e-11
            assert nb.mass == pytest.approx(model.mass, rel=1e-9, abs=0.0)
            assert nb.lq == pytest.approx(model.lq, rel=2e-11, abs=0.0)
            assert nb.lcrit == pytest.approx(model.lcrit, rel=2e-11, abs=0.0)
        g = _bisected(g)
    assert gaps[0] > 0.0
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.9 <= coarse / fine <= 4.1


def test_critical_scan_passes_where_the_grid_route_fails():
    # the margin S^(3/2)/3 - sup halves with each doubling of n, while the
    # grid route's error in sup stays near 2.2e-6
    p = problem(3, 1.0, 1.0, 4.0)
    ns = [2 ** 22, 2 ** 24]
    res = B.threshold_scan_critical(p, ns)
    assert [r.passed for r in res.records] == [True, True]
    assert all(0.0 < res.threshold - r.sup_t < 2e-6 for r in res.records)
    assert all(r.sup_t > res.threshold for r in grid_scan(p, ns).records)


def test_critical_scan_builds_no_grid(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the critical scan built a grid")

    monkeypatch.setattr(B, "mass_normalized_instanton", no_grid)
    monkeypatch.setattr(B, "_normalized_grid", no_grid)
    p = _crit4()
    res = B.threshold_scan_critical(p, [8, 16, 32, 64, 128, 256])
    assert res.first_pass == 32
    for r in res.records[2:]:
        model = _model_bundle(p, r.n)
        assert (r.mass, r.grad_sq, r.lq, r.lcrit) == astuple(model)
        pt = manifold_projection(model, p)
        assert (r.sup_t, r.t_at_sup) == (pt.value, pt.t)


def test_scan_result_as_dict_is_strict_json():
    res = B.threshold_scan_critical(_crit4(), [8, 16, 32, 64, 128, 256])
    back = json.loads(json.dumps(res.as_dict(), allow_nan=False))
    assert back["threshold"] == res.threshold and back["first_pass"] == 32
    for d, r in zip(back["records"], res.records):
        if r.n < 32:  # the family does not exist: a diagnostic row
            assert d["sup_t"] is None and d["mass"] is None and d["note"] == r.note
        else:
            assert d == asdict(r)


def test_critical_scan_finds_the_existence_bound_once(monkeypatch):
    # crit4's rows n = 8, 16 lack the family; both notes quote the bound
    calls = []
    min_n = B.normalized_family_min_n

    def spy(N, c):
        calls.append((N, c))
        return min_n(N, c)

    monkeypatch.setattr(B, "normalized_family_min_n", spy)
    res = B.threshold_scan_critical(_crit4(), [8, 16, 32, 64, 128, 256])
    assert calls == [(4, 1.0)]
    assert [r.note for r in res.records[:2]] == [
        "instanton core out to n^(2/3) already carries mass 7.32007 >= c = 1 at n = 8; "
        "no cutoff radius exists (smallest admissible n is 29)",
        "instanton core out to n^(2/3) already carries mass 2.54209 >= c = 1 at n = 16; "
        "no cutoff radius exists (smallest admissible n is 29)",
    ]
    for r in res.records[:2]:
        with pytest.raises(BracketError) as exc:
            B.solve_cutoff_radius(4, 1.0, r.n)
        assert r.note == str(exc.value)
    calls.clear()
    assert B.threshold_scan_critical(_crit4(), [32, 64]).first_pass == 32
    assert calls == []


def test_critical_scans_do_not_integrate():
    # every core integral of the benchmark's crit3 and crit4 rows has
    # b = e - (m+1)/2 > 0, so it is an incomplete beta function and
    # scipy.integrate is never imported.  crit4's mu check takes the GN
    # constant, whose shooting imports it; its rows are first run at mu = 0,
    # then at the benchmark's mu with quad disabled.
    code = """if True:
        import json, sys
        import massnls as M
        crit3 = M.threshold_scan_critical(M.problem(3, 1.0, 1.0, 4.0),
                                          [2 ** k for k in range(12, 17)])
        small = [8, 16, 32, 64, 128, 256]
        M.threshold_scan_critical(M.problem(4, 1.0, 0.0, 3.0), small)
        loaded = "scipy.integrate" in sys.modules
        alpha = M.thresholds(4, 3.0, 1.0, 1.0).alpha_Nq
        import scipy.integrate

        def no_quad(*args, **kwargs):
            raise AssertionError("quad was called")

        scipy.integrate.quad = no_quad
        crit4 = M.threshold_scan_critical(M.problem(4, 1.0, 0.9 * alpha, 3.0), small)
        print(json.dumps([loaded, crit3.first_pass, crit4.first_pass]))
    """
    assert _child(code) == [False, 16384, 32]


def test_scans_reject_bad_n():
    # n = 0 divided by zero, n = -8 made a complex kink, and n = 2.5 was
    # scanned as n = 2
    p = _crit4()
    for n in (0, -8, 2.5, math.nan, math.inf, "8"):
        with pytest.raises(ParameterError, match="integer >= 1"):
            B.threshold_scan_critical(p, [32, n])
    with pytest.raises(ParameterError, match="integer >= 1"):
        B.threshold_scan_subcritical(problem(3, 1.0, 1.0, 2.5), _valley(1.0), [8, 2.5])
    assert [r.n for r in B.threshold_scan_critical(p, [64.0, np.int64(32)]).records] == [32, 64]


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

