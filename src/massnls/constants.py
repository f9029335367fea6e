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

S is computed by adaptive quadrature of the analytic radial integrands of
the bubble on [0, inf); the closed Gamma-function form is kept as a separate
oracle (`sobolev_constant_closed_form`) and never used in the main path.
C_{N,q} is computed by shooting for the ground state Q: each shot
integrates the radial ODE with the DOP853 integrator (rtol 1e-10, atol
1e-13), and bisection on Q(0) between a 'turn' and a 'cross' verdict
narrows the height to 1e-13 relative.  The direct minimization of the
Weinstein quotient over grid profiles (`weinstein_quotient_min`) is the
independent oracle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConvergenceError, ParameterError
from .grid import make_grid, sphere_area

__all__ = [
    "ExponentPack",
    "exponents",
    "instanton_amplitude",
    "SobolevConstant",
    "sobolev_constant",
    "sobolev_constant_closed_form",
    "GNGroundState",
    "gn_ground_state",
    "gn_constant",
    "weinstein_quotient_min",
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
    if not isinstance(N, (int, np.integer)) or N < 3:
        raise ParameterError(f"dimension must be an integer >= 3, got {N!r}")
    N = int(N)
    two_star = 2.0 * N / (N - 2)
    q = float(q)
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


_SOBOLEV_CACHE: dict = {}
_GN_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def sobolev_constant(N):
    """S and the bubble norms, by quadrature of the radial integrands."""
    if N in _SOBOLEV_CACHE:
        return _SOBOLEV_CACHE[N]
    from scipy.integrate import quad

    exponents(N, 2.0 + 2.0 / N)  # validates N
    two_star = 2.0 * N / (N - 2)
    A = instanton_amplitude(N)
    omega = sphere_area(N)
    # |U'(r)|^2 r^(N-1) = (N-2)^2 A^2 r^(N+1) (1+r^2)^(-N)
    I_grad, err1 = quad(
        lambda r: r ** (N + 1) * (1 + r * r) ** (-N), 0, np.inf,
        epsabs=0.0, epsrel=1e-12, limit=200,
    )
    # |U(r)|^{2*} r^(N-1) = A^{2*} r^(N-1) (1+r^2)^(-N)
    I_crit, err2 = quad(
        lambda r: r ** (N - 1) * (1 + r * r) ** (-N), 0, np.inf,
        epsabs=0.0, epsrel=1e-12, limit=200,
    )
    grad_sq = omega * (N - 2.0) ** 2 * A * A * I_grad
    crit = omega * A ** two_star * I_crit
    S = grad_sq / crit ** (2.0 / two_star)
    out = SobolevConstant(N, S, S ** (N / 2.0), grad_sq, crit)
    with _CACHE_LOCK:
        _SOBOLEV_CACHE[N] = out
    return out


def sobolev_constant_closed_form(N):
    """Talenti's closed form S = N(N-2) pi (Gamma(N/2)/Gamma(N))^(2/N)."""
    return (
        N * (N - 2.0) * math.pi
        * (math.gamma(N / 2.0) / math.gamma(float(N))) ** (2.0 / N)
    )


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
    bracket: tuple      # final shooting bracket (lo, hi)
    history: tuple      # ((s, verdict), ...) from the bracketing phase
    shots: int          # _shoot calls: bracketing, bisection and the final shot


def _shoot(N, q, s, r_end=40.0):
    """Integrate the radial ground-state ODE from Q(0) = s.

    Returns (verdict, solution) with verdict in {'cross', 'turn', 'decay'}:
    'cross'  -- Q hit zero (s too large),
    'turn'   -- Q' turned positive while Q > 0 (s too small),
    'decay'  -- integrated to r_end with Q decayed below 1e-6.
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
        rhs, (r0, r_end), y0, method="DOP853", rtol=1e-10, atol=1e-13,
        events=(ev_cross, ev_turn), dense_output=False,
    )
    if sol.t_events[0].size:
        return "cross", sol
    if sol.t_events[1].size:
        return "turn", sol
    if abs(sol.y[0, -1]) < 1e-6:
        return "decay", sol
    # did not decay and no event fired before r_end: treat like a turn
    return "turn", sol


def gn_ground_state(N, q):
    """Shooting solve for the GN optimizer; memoized per (N, q)."""
    key = (N, float(q))
    if key in _GN_CACHE:
        return _GN_CACHE[key]
    ep = exponents(N, q)

    history = []
    lo, hi = None, None
    s = 1.01
    verdict, _ = _shoot(N, q, s)
    history.append((s, verdict))
    if verdict == "cross":
        raise BracketError(
            f"shooting from Q(0)={s} already crosses zero for (N, q)=({N}, {q})"
        )
    lo = s
    s = 2.0
    while hi is None:
        verdict, _ = _shoot(N, q, s)
        history.append((s, verdict))
        if verdict == "cross":
            hi = s
        else:
            lo = s
            s *= 2.0
            if s > 1e7:
                raise BracketError(
                    f"no overshoot found up to Q(0)=1e7 for (N, q)=({N}, {q}); "
                    f"history={history}"
                )

    for bisections in range(200):
        if hi - lo <= 1e-13 * hi:
            break
        mid = 0.5 * (lo + hi)
        verdict, _ = _shoot(N, q, mid)
        if verdict == "cross":
            hi = mid
        else:
            lo = mid
    else:
        raise ConvergenceError(
            f"shooting bisection stalled for (N, q)=({N}, {q})", history
        )

    s_star = 0.5 * (lo + hi)
    _, sol = _shoot(N, q, s_star)
    omega = sphere_area(N)
    mass_ = omega * sol.y[2, -1]
    q_norm = omega * sol.y[3, -1]
    grad_sq = omega * sol.y[4, -1]
    gam = ep.gamma_q
    C = q_norm ** (1.0 / q) / (grad_sq ** (gam / 2.0) * mass_ ** ((1.0 - gam) / 2.0))
    out = GNGroundState(
        N, float(q), C, s_star, mass_, grad_sq, q_norm, (lo, hi), tuple(history),
        shots=len(history) + bisections + 1,
    )
    with _CACHE_LOCK:
        _GN_CACHE[key] = out
    return out


def gn_constant(N, q):
    """Best constant C_{N,q} in the Gagliardo-Nirenberg inequality."""
    return gn_ground_state(N, q).C


def weinstein_quotient_min(N, q, M=500, R=25.0):
    """Independent estimate of C_{N,q} by direct quotient minimization.

    Minimizes log of the (inverse) Weinstein quotient over nodal profiles on
    a graded grid; never touches the shooting path.  Returns the implied
    C_{N,q} estimate.

    Budget: one L-BFGS-B run from exp(-r/2), stopped at maxiter = maxfun =
    4000.  At (N, q) = (3, 2.5) that reaches 3.7e-6 relative to the shooting
    value in about 1.1 s (2-vCPU VM).  The budget is sized for that pair:
    the landscape is worse conditioned elsewhere, and the same budget leaves
    1.5e-4 at (3, 4) and 3e-2 at (4, 3).
    """
    from scipy.optimize import minimize

    ep = exponents(N, q)
    gam = ep.gamma_q
    g = make_grid(N, R, M, grading="graded", strength=1.5)
    K = g.stiffness  # P1 Dirichlet form: no null modes for the optimizer to hide in
    w = g.omega_N * g.weights

    def fun_and_grad(x):
        Kx = K @ x
        A = float(x @ Kx)
        B2 = float(w @ (x * x))
        absx = np.abs(x)
        Bq = float(w @ absx ** q)
        J = (gam * q / 2.0) * math.log(A) + ((1.0 - gam) * q / 2.0) \
            * math.log(B2) - math.log(Bq)
        gA = 2.0 * Kx
        gB2 = 2.0 * w * x
        gBq = q * w * absx ** (q - 2.0) * x
        grad = (gam * q / 2.0) * gA / A + ((1.0 - gam) * q / 2.0) * gB2 / B2 \
            - gBq / Bq
        # The quotient is exactly invariant under amplitude scaling u -> a u
        # on the fixed grid; pin that flat direction with a penalty that
        # vanishes on the slice B2 = 1 (every amplitude orbit meets it, so
        # the minimum value is untouched).
        lB = math.log(B2)
        J += 0.5 * lB * lB
        grad += lB * gB2 / B2
        return J, grad

    opts = dict(maxiter=4000, maxfun=4000, maxcor=30, ftol=1e-16, gtol=1e-12)
    res = minimize(fun_and_grad, np.exp(-0.5 * g.nodes), jac=True,
                   method="L-BFGS-B", options=opts)
    return math.exp(-float(res.fun) / q)


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
        from dataclasses import asdict

        return asdict(self)


def _rho0(N, q, mu, c, S, C, a0, a1, a2, two_star):
    base = two_star * mu * a0 * C ** q * S ** (two_star / 2.0) / (q * a2)
    return base ** (2.0 / (a2 + a0)) * c ** (a1 / (a0 + a2))


def thresholds(N, q, mu, c):
    """Existence thresholds and the constants entering them.

    For mass-subcritical q (q < 2 + 4/N): rho0 is the gradient cap defining
    the local-minimization zone V(c) and c0 the largest mass for which the
    zone's boundary energy barrier is positive; both are None otherwise.
    alpha_Nq is the mu-threshold of the mass-critical case: None for
    q < q_bar, 1/(2 gamma_q c^(2/N) C^q) at q = q_bar, +inf above.
    """
    ep = exponents(N, q)
    if not mu > 0.0:
        raise ParameterError(f"mu must be positive, got {mu}")
    if not c > 0.0:
        raise ParameterError(f"c must be positive, got {c}")
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
