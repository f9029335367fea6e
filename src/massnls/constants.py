"""Critical exponents and the variational constants of the problem.

Three constants control the existence theory for

    -Delta u + lambda u = mu |u|^(q-2) u + |u|^(2*-2) u,   ||u||_2^2 = c :

* the Sobolev constant S (best constant in S ||u||_{2*}^2 <= ||grad u||_2^2),
  attained by the Aubin-Talenti bubble U(x) = A_N (1+|x|^2)^(-(N-2)/2);
* the Gagliardo-Nirenberg constant C_{N,q} (best constant in
  ||u||_q <= C_{N,q} ||grad u||_2^gamma ||u||_2^(1-gamma), gamma = gamma_q),
  attained by the ground state of -Delta Q + Q = |Q|^(q-2) Q;
* the thresholds rho0(c), c0 (gradient cap / mass cap for the local
  minimization zone when q is mass-subcritical) and alpha(N, q) (the
  mu-smallness threshold in the mass-critical case q = 2 + 4/N).

S is Talenti's closed form S = N(N-2) pi (Gamma(N/2)/Gamma(N))^(2/N); the
tests check it against adaptive quadrature of the bubble's radial integrands.
C_{N,q} is computed by shooting for the ground state Q: each shot
integrates the radial ODE with the DOP853 integrator (rtol 1e-10, atol
1e-13) and returns a 'turn' or 'cross' verdict with a signed miss that is
nearly linear in Q(0) near the height.  Anderson-Bjorck regula falsi on
that miss narrows the bracket of the height to 1e-13 relative, in 13-23
shots for N = 3..6 and q >= 2.1.  The direct minimization of the Weinstein
quotient over grid profiles (`weinstein_quotient_min` in
`tests/test_constants.py`) is the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConvergenceError, ParameterError
from .errors import _integer, _plain, _positive, _real
from .grid import sphere_area

__all__ = [
    "ExponentPack",
    "exponents",
    "instanton_amplitude",
    "SobolevConstant",
    "sobolev_constant",
    "GNGroundState",
    "gn_ground_state",
    "gn_constant",
    "ThresholdReport",
    "thresholds",
]


# ----------------------------------------------------------------------------
# exponents
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentPack:
    N: int
    q: float
    two_star: float        # 2N/(N-2), Sobolev-critical exponent
    q_bar: float           # 2 + 4/N, mass-critical exponent
    gamma_q: float         # N(q-2)/(2q), the dilation weight of ||.||_q


def exponents(N, q):
    """Validated exponent bundle for dimension N and power q in (2, 2*)."""
    N = _integer("dimension N", N, 3)
    two_star = 2.0 * N / (N - 2)
    q = _real("exponent q", q)
    if not (2.0 < q < two_star):
        raise ParameterError(
            f"q must lie strictly between 2 and 2* = {two_star} (N={N}); got {q}"
        )
    q_bar = 2.0 + 4.0 / N
    gamma_q = N * (q - 2.0) / (2.0 * q)
    return ExponentPack(N, q, two_star, q_bar, gamma_q)


def instanton_amplitude(N):
    """A_N = [N(N-2)]^((N-2)/4), normalizing -Delta U = U^(2*-1)."""
    return (N * (N - 2.0)) ** ((N - 2.0) / 4.0)


# ----------------------------------------------------------------------------
# Sobolev constant
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SobolevConstant:
    N: int
    S: float
    S_pow: float        # S^(N/2)
    grad_sq: float      # ||grad U||_2^2  (= S^(N/2))
    crit_norm: float    # ||U||_{2*}^{2*} (= S^(N/2))


def sobolev_constant(N):
    """S by Talenti's closed form; the bubble norms are S^(N/2).

    S = N(N-2) pi (Gamma(N/2)/Gamma(N))^(2/N), and the bubble U attains it:
    ||grad U||_2^2 = ||U||_{2*}^{2*} = S^(N/2).
    """
    N = _integer("dimension N", N, 3)
    S = N * (N - 2.0) * math.pi * (math.gamma(N / 2.0) / math.gamma(float(N))) ** (2.0 / N)
    S_pow = S ** (N / 2.0)
    return SobolevConstant(N, S, S_pow, S_pow, S_pow)


# ----------------------------------------------------------------------------
# Gagliardo-Nirenberg constant via the ground state of -Delta Q + Q = Q^(q-1)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class GNGroundState:
    N: int
    q: float
    C: float            # the GN constant C_{N,q}
    height: float       # Q(0)
    mass: float         # ||Q||_2^2
    grad_sq: float      # ||grad Q||_2^2
    q_norm: float       # ||Q||_q^q
    bracket: tuple      # final (lo, hi): no crossing at lo, a crossing at hi;
                        # hi - lo <= 1e-13 hi, and height is its midpoint
    history: tuple      # ((s, verdict), ...) of the doubling that found the
                        # first bracket; the regula falsi steps are not kept
    shots: int          # _shoot calls: doubling, regula falsi and the final shot


def _shoot(N, q, s):
    """Integrate the radial ground-state ODE from Q(0) = s.

    Returns (verdict, miss, solution) with verdict in {'cross', 'turn', 'decay'}:
    'cross'  -- Q hit zero (s too large),
    'turn'   -- Q' turned positive while Q > 0 (s too small),
    'decay'  -- integrated to r = 40 with Q decayed below 1e-6.
    The signed miss is M(s) = -Q'^2 r^(N-1) at a crossing, +Q^2 r^(N-1) at
    a turning point and sign(Q) Q^2 r^(N-1) at r = 40 when no event fires.
    The factor r^(N-1) cancels the radial prefactor of the growing mode
    e^r r^(-(N-1)/2) that s - Q(0)* excites, so M is close to linear in s
    near the ground-state height Q(0)*: M/(s - Q(0)*) varies by less than
    20 % over |s/Q(0)* - 1| in [1e-12, 1e-4] at (N, q) = (3, 2.5), (4, 3)
    and (5, 2.3).
    State carries running integrals of r^(N-1) Q^2, r^(N-1)|Q|^q,
    r^(N-1) Q'^2 so norms need no post-hoc quadrature.
    """
    # looked up per call and called once per shot, so a wrapper on
    # scipy.integrate.solve_ivp (perfbench/spans.py) counts shots
    from scipy.integrate import solve_ivp

    r0 = 1e-6
    a = (s - s ** (q - 1.0)) / (2.0 * N)
    y0 = [s + a * r0 * r0, 2.0 * a * r0, 0.0, 0.0, 0.0]

    def rhs(r, y):
        Q, Qp = y[0], y[1]
        f = Q - np.sign(Q) * np.abs(Q) ** (q - 1.0)
        rp = r ** (N - 1)
        return [Qp, f - (N - 1.0) * Qp / r, rp * Q * Q,
                rp * np.abs(Q) ** q, rp * Qp * Qp]

    def ev_cross(r, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1.0

    def ev_turn(r, y):
        return y[1]

    ev_turn.terminal = True
    ev_turn.direction = 1.0

    sol = solve_ivp(
        rhs, (r0, 40.0), y0, method="DOP853", rtol=1e-10, atol=1e-13,
        events=(ev_cross, ev_turn), dense_output=False,
    )
    if sol.t_events[0].size:
        Qp = sol.y_events[0][0, 1]
        return "cross", -Qp * Qp * sol.t_events[0][0] ** (N - 1), sol
    if sol.t_events[1].size:
        Q = sol.y_events[1][0, 0]
        return "turn", Q * Q * sol.t_events[1][0] ** (N - 1), sol
    Q = sol.y[0, -1]
    miss = math.copysign(Q * Q * sol.t[-1] ** (N - 1), Q)
    if abs(Q) < 1e-6:
        return "decay", miss, sol
    # did not decay and no event fired before r = 40: treat like a turn
    return "turn", miss, sol


_GN_CACHE: dict = {}


def gn_ground_state(N, q):
    """Shooting solve for the GN optimizer; memoized per (N, q).

    Doubling Q(0) from 2 brackets the height between a shot that does not
    cross zero (`lo`) and one that does (`hi`).  Anderson-Bjorck regula
    falsi on the signed miss of `_shoot` then narrows the bracket to
    hi - lo <= 1e-13 hi, each step kept at least a quarter of that width
    inside the bracket, and one last shot at its midpoint gives the norms.
    """
    key = (N, float(q))
    if key in _GN_CACHE:
        return _GN_CACHE[key]
    ep = exponents(N, q)

    history = []
    s = 1.01
    verdict, f_lo, _ = _shoot(N, q, s)
    history.append((s, verdict))
    if verdict == "cross":
        raise BracketError(
            f"shooting from Q(0)={s} already crosses zero for (N, q)=({N}, {q})"
        )
    lo = s
    s = 2.0
    while True:
        verdict, miss, _ = _shoot(N, q, s)
        history.append((s, verdict))
        if verdict == "cross":
            hi, f_hi = s, miss
            break
        lo, f_lo = s, miss
        s *= 2.0
        if s > 1e7:
            raise BracketError(
                f"no overshoot found up to Q(0)=1e7 for (N, q)=({N}, {q}); "
                f"history={history}"
            )

    # the end replaced last: +1 for lo, -1 for hi (the first cross)
    last = -1
    for steps in range(200):
        if hi - lo <= 1e-13 * hi:
            break
        # the secant root, kept a quarter of the stop width off either end
        # so that a one-sided approach still closes the bracket
        margin = 0.25e-13 * hi
        s = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        s = min(max(s, lo + margin), hi - margin)
        verdict, miss, _ = _shoot(N, q, s)
        if verdict == "cross":
            if last < 0:
                # Anderson-Bjorck: the kept end's miss shrinks by the ratio
                # the replaced end's miss shrank by, or halves
                m = 1.0 - miss / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, last = s, miss, -1
        else:
            if last > 0:
                m = 1.0 - miss / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, last = s, miss, 1
    else:
        raise ConvergenceError(
            f"shooting regula falsi stalled for (N, q)=({N}, {q})", history
        )

    s_star = 0.5 * (lo + hi)
    _, _, sol = _shoot(N, q, s_star)
    omega = sphere_area(N)
    mass_ = omega * sol.y[2, -1]
    q_norm = omega * sol.y[3, -1]
    grad_sq = omega * sol.y[4, -1]
    gam = ep.gamma_q
    C = q_norm ** (1.0 / q) / (grad_sq ** (gam / 2.0) * mass_ ** ((1.0 - gam) / 2.0))
    out = GNGroundState(
        N, float(q), C, s_star, mass_, grad_sq, q_norm, (lo, hi), tuple(history),
        shots=len(history) + steps + 1,
    )
    _GN_CACHE[key] = out
    return out


def gn_constant(N, q):
    """Best constant C_{N,q} in the Gagliardo-Nirenberg inequality."""
    return gn_ground_state(N, q).C


# ----------------------------------------------------------------------------
# thresholds
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    N: int
    q: float
    mu: float
    c: float
    two_star: float
    q_bar: float
    gamma_q: float
    S: float
    C_Nq: float
    A_N: float
    alpha0: float
    alpha1: float
    alpha2: float
    rho0: float | None          # gradient cap at the given mass c (q < q_bar)
    rho0_at_c0: float | None    # same cap evaluated at the critical mass c0
    c0: float | None            # critical mass (q < q_bar)
    alpha_Nq: float | None      # mu-threshold: +inf (q > q_bar), finite (q = q_bar)

    def as_dict(self):
        return _plain(self)


def _rho0(N, q, mu, c, S, C, a0, a1, a2, two_star):
    base = two_star * mu * a0 * C ** q * S ** (two_star / 2.0) / (q * a2)
    return base ** (2.0 / (a2 + a0)) * c ** (a1 / (a0 + a2))


def thresholds(N, q, mu, c):
    """Existence thresholds and the constants entering them.

    For mass-subcritical q (q < 2 + 4/N): rho0 is the gradient cap defining
    the local-minimization zone V(c), the maximizer over rho of the barrier

        f(c, rho) = 1/2 - (mu/q) C^q c^(alpha1/2) rho^(-alpha0/2)
                        - rho^(alpha2/2) / (2* S^(2*/2)),

    which bounds the energy below by rho f(c, rho) at ||grad u||_2^2 = rho
    on the mass-c sphere.  c0 is 2^(N/2) times the largest mass whose
    barrier is positive somewhere: max_rho f(c, rho) = 0 at c = 2^(-N/2) c0,
    while at c0 itself the two penalty terms at rho0(c0) sum to 1, so
    f(c0, rho0) = -1/2.  Both are None for q >= 2 + 4/N.
    alpha_Nq is the mu-threshold of the mass-critical case: None for
    q < q_bar, 1/(2 gamma_q c^(2/N) C^q) at q = q_bar, +inf above.
    """
    ep = exponents(N, q)
    _positive("mu", mu)
    _positive("mass c", c)
    S = sobolev_constant(N).S
    C = gn_constant(N, q)
    A_N = instanton_amplitude(N)
    a0 = 2.0 - N * (q - 2.0) / 2.0
    a1 = (2.0 * N - q * (N - 2.0)) / 2.0
    a2 = 4.0 / (N - 2.0)
    two_star = ep.two_star

    mass_critical = abs(q - ep.q_bar) <= 1e-12
    if a0 > 0.0 and not mass_critical:
        rho0 = _rho0(N, q, mu, c, S, C, a0, a1, a2, two_star)
        c0 = (
            two_star * a0 * S ** (two_star / 2.0) / (a0 + a2)
            * (q * a2 / (two_star * mu * a0 * C ** q * S ** (two_star / 2.0)))
            ** (a2 / (a0 + a2))
        ) ** (N / 2.0)
        rho0_at_c0 = _rho0(N, q, mu, c0, S, C, a0, a1, a2, two_star)
    else:
        rho0 = c0 = rho0_at_c0 = None

    if mass_critical:
        alpha_Nq = 1.0 / (2.0 * ep.gamma_q * c ** (2.0 / N) * C ** q)
    elif q > ep.q_bar:
        alpha_Nq = math.inf
    else:
        alpha_Nq = None

    return ThresholdReport(
        N=N, q=float(q), mu=float(mu), c=float(c),
        two_star=two_star, q_bar=ep.q_bar, gamma_q=ep.gamma_q,
        S=S, C_Nq=C, A_N=A_N,
        alpha0=a0, alpha1=a1, alpha2=a2,
        rho0=rho0, rho0_at_c0=rho0_at_c0, c0=c0, alpha_Nq=alpha_Nq,
    )
