"""Energy, Pohozaev functionals and the dilation fiber algebra.

Everything here is driven by the four norms of a profile u on the mass
sphere ||u||_2^2 = c:

    a = ||grad u||_2^2,  d = ||u||_q^q,  b = ||u||_{2*}^{2*},  m = ||u||_2^2,

through which the energy and the Pohozaev functional read

    Phi(u) = a/2 - (mu/q) d - b/2*,
    P(u)   = a - mu gamma_q d - b.

The mass-preserving dilation u_t(x) = t^(N/2) u(t x) acts on the norms by
(a, d, b) -> (t^2 a, t^(q gamma_q) d, t^(2*) b), so the energy along a fiber
is the closed-form `fiber_energy` and P(u_t) = t * d/dt [fiber energy].

`dilation_gap` quantifies the defect of the second-order dilation comparison

    Phi(u) >= Phi(u_t) + (1-t^2)/2 P(u) + h(t) ||u||_{2*}^{2*},
    h(t) = (1-t^2)/2 - (1-t^{2*})/2*,

whose exact value is mu ||u||_q^q psi(t) with
psi(t) = (t^{q gamma_q}-1)/q + gamma_q (1-t^2)/2 >= 0 for q >= 2+4/N.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .constants import ExponentPack, exponents, thresholds
from .errors import HypothesisError, ParameterError
from .grid import RadialFunction, _pchip_values, grad_norm_sq, mass, norms, tail_fraction

__all__ = [
    "ProblemParams",
    "problem",
    "NormBundle",
    "norm_bundle",
    "stiff_bundle",
    "energy",
    "pohozaev",
    "lagrange_multiplier",
    "coerce_bundle",
    "fiber_scale",
    "fiber_energy",
    "fiber_derivative",
    "fiber_second_derivative",
    "h_weight",
    "dilation_gap",
    "dilation_gap_closed_form",
    "GeneralNonlinearity",
    "power_nonlinearity",
    "pohozaev_general",
    "EnergyReport",
    "energy_report",
    "kkt_residual",
    "normalize_mass",
]


@dataclass(frozen=True)
class ProblemParams:
    """Parameter pack (N, c, mu, q) of the constrained problem."""

    N: int
    c: float
    mu: float
    q: float
    exps: ExponentPack

    @property
    def two_star(self):
        return self.exps.two_star

    @property
    def q_bar(self):
        return self.exps.q_bar

    @property
    def gamma_q(self):
        return self.exps.gamma_q

    @property
    def mass_subcritical(self):
        return self.q < self.q_bar - 1e-12

    @property
    def mass_critical(self):
        return abs(self.q - self.q_bar) <= 1e-12


def problem(N, c, mu, q):
    ep = exponents(N, q)
    if not c > 0.0:
        raise ParameterError(f"mass c must be positive, got {c}")
    if mu < 0.0:
        raise ParameterError(f"mu must be nonnegative, got {mu}")
    return ProblemParams(ep.N, float(c), float(mu), ep.q, ep)


def _check_mu_below_alpha(p):
    """At q = 2+4/N a positive mu must lie below alpha(N, q); raise otherwise."""
    if p.mu > 0.0 and p.mass_critical:
        alpha = thresholds(p.N, p.q, p.mu, p.c).alpha_Nq
        if p.mu >= alpha:
            raise HypothesisError(
                f"mu = {p.mu} is not below the admissible bound {alpha} "
                f"at the mass-critical exponent"
            )


@dataclass(frozen=True)
class NormBundle:
    mass: float
    grad_sq: float
    lq: float       # ||u||_q^q
    lcrit: float    # ||u||_{2*}^{2*}

    def scaled(self, p, t):
        """Exact transformation under the mass-preserving dilation u -> u_t."""
        return NormBundle(
            self.mass,
            t ** 2 * self.grad_sq,
            t ** (p.q * p.gamma_q) * self.lq,
            t ** p.two_star * self.lcrit,
        )


def norm_bundle(u, p):
    return NormBundle(mass(u), grad_norm_sq(u), norms(u, p.q), norms(u, p.two_star))


def stiff_bundle(grid, vals, p):
    """Norm bundle with the kinetic term in the P1 (stiffness) form.

    This is the form whose exact Euclidean gradient the solvers descend, so
    energies and gradients built on it are consistent to roundoff.  It is
    also the right form for the piecewise bubble families: their kink radii
    sit on grid nodes, so the P1 form never differences across a kink (the
    centered-difference route of `norm_bundle` does, and loses ~4 digits
    on the gradient there).  The norms come from one `_GridPass`; a caller
    that also needs the gradient at vals should keep the pass instead.
    """
    return _GridPass(grid, vals, p).bundle


class _GridPass:
    """The nodal pieces that the energy of a profile and its gradient share.

    One pass over the nodal values v takes v^2, K v (K the P1 stiffness;
    skipped when `stiffness` is False) and the two force powers
    f_q = (v^2)^((q-2)/2) = |v|^(q-2) and f_c = (v^2)^((2*-2)/2).  The norm
    bundle (m = W v^2, a = v K v, ||v||_q^q = W f_q v^2 and
    ||v||_{2*}^{2*} = W f_c v^2; a is NaN without the stiffness) and the
    dilated dual gradient are built from these, so a descent point pays for
    each piece once.  Powers of v^2 rather than of |v| put the integer
    exponents of N = 3 and 4 (f_c = (v^2)^2 and (v^2)^1, and f_q at q = 4)
    on NumPy's own square and identity fast paths.  W, the nodal volume
    weights omega_N * weights, may be passed in by a caller that holds them.
    """

    def __init__(self, grid, v, p, W=None, stiffness=True):
        W = grid.omega_N * grid.weights if W is None else W
        v2 = v * v
        self.W, self.v = W, v
        self.fq = v2 ** ((p.q - 2.0) / 2.0)
        self.fc = v2 ** ((p.two_star - 2.0) / 2.0)
        self.Kv = grid.stiffness @ v if stiffness else None
        self.bundle = NormBundle(
            float(W @ v2),
            float(v @ self.Kv) if stiffness else math.nan,
            float(W @ (self.fq * v2)),
            float(W @ (self.fc * v2)),
        )

    def gradient(self, p, t=1.0):
        """t^2 K v - W (mu t^(q gamma_q) f_q + t^(2*) f_c) v: the dual
        gradient of v -> Phi(v_t) at fixed dilation t.  At t = 1 it is the
        Euclidean gradient of the discrete energy; at the fiber maximum it
        is the envelope-theorem gradient of the fiber-maximum level."""
        force = p.mu * t ** (p.q * p.gamma_q) * self.fq + t ** p.two_star * self.fc
        return t ** 2 * self.Kv - self.W * force * self.v


def coerce_bundle(obj, p=None):
    """Accept a NormBundle, a (grad_sq, lq, lcrit) triple, or a RadialFunction
    (the latter requires p) and return a NormBundle."""
    if isinstance(obj, NormBundle):
        return obj
    if isinstance(obj, RadialFunction):
        if p is None:
            raise ParameterError("norms of a profile need the problem parameters")
        return norm_bundle(obj, p)
    a, d, b = obj
    return NormBundle(1.0, float(a), float(d), float(b))


def _check_t(t):
    """Validate positive dilations; NaN is rejected.  A Python float skips
    the array conversion (the root finders evaluate one point at a time)."""
    if isinstance(t, float):
        if not t > 0.0:
            raise ParameterError("dilation parameter must be positive")
        return float(t)
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ParameterError("dilation parameter must be positive")
    return t if t.ndim else float(t)


# ----------------------------------------------------------------------------
# the two functionals and the multiplier
# ----------------------------------------------------------------------------

def energy(u, p):
    """Phi(u) = 1/2 ||grad u||^2 - (mu/q) ||u||_q^q - (1/2*) ||u||_{2*}^{2*}."""
    nb = norm_bundle(u, p)
    return fiber_energy(nb, p, 1.0)


def pohozaev(u, p):
    """P(u) = ||grad u||^2 - mu gamma_q ||u||_q^q - ||u||_{2*}^{2*}."""
    nb = norm_bundle(u, p)
    return fiber_derivative(nb, p, 1.0)


def lagrange_multiplier(u, p):
    """lambda with -Delta u - mu |u|^(q-2)u - |u|^(2*-2)u = lambda u, tested
    against u: lambda = (||grad u||^2 - mu ||u||_q^q - ||u||_{2*}^{2*}) / ||u||_2^2.
    """
    nb = coerce_bundle(u, p)
    if nb.mass <= 0.0:
        raise ParameterError("multiplier extraction needs positive mass")
    return (nb.grad_sq - p.mu * nb.lq - nb.lcrit) / nb.mass


# ----------------------------------------------------------------------------
# fibers
# ----------------------------------------------------------------------------

def fiber_scale(u, t):
    """The mass-preserving dilation u_t(x) = t^(N/2) u(t x), resampled onto
    u's own grid by monotone cubic interpolation (zero outside the support).
    """
    if not t > 0.0:
        raise ParameterError(f"dilation parameter must be positive, got {t}")
    g = u.grid
    vals = _pchip_values(g.nodes, u.values, t * g.nodes)
    return RadialFunction(g, t ** (g.N / 2.0) * vals)


def fiber_energy(nb, p, t):
    """Phi(u_t) from the norms of u, in closed form.

    `nb` may be a NormBundle or a plain (grad_sq, lq, lcrit) triple; `t` may
    be a scalar or an array of positive dilations.
    """
    nb = coerce_bundle(nb, p)
    t = _check_t(t)
    return (
        0.5 * t ** 2 * nb.grad_sq
        - (p.mu / p.q) * t ** (p.q * p.gamma_q) * nb.lq
        - t ** p.two_star / p.two_star * nb.lcrit
    )


def fiber_derivative(nb, p, t):
    """g(t) = a t - mu gamma_q d t^(q gamma_q - 1) - b t^(2* - 1).

    This is d/dt Phi(u_t); the Pohozaev value of the scaled profile is
    P(u_t) = t * g(t), so critical fibers are exactly the roots of g.
    """
    nb = coerce_bundle(nb, p)
    t = _check_t(t)
    qg = p.q * p.gamma_q
    return (
        nb.grad_sq * t
        - p.mu * p.gamma_q * nb.lq * t ** (qg - 1.0)
        - nb.lcrit * t ** (p.two_star - 1.0)
    )


def fiber_second_derivative(nb, p, t):
    """g'(t): curvature of the fiber energy at dilation t."""
    nb = coerce_bundle(nb, p)
    t = _check_t(t)
    qg = p.q * p.gamma_q
    return (
        nb.grad_sq
        - p.mu * p.gamma_q * (qg - 1.0) * nb.lq * t ** (qg - 2.0)
        - (p.two_star - 1.0) * nb.lcrit * t ** (p.two_star - 2.0)
    )


# ----------------------------------------------------------------------------
# dilation comparison gap
# ----------------------------------------------------------------------------

def h_weight(p, t):
    """h(t) = (1-t^2)/2 - (1-t^{2*})/2*: the coefficient of the critical norm
    in the dilation comparison.  Positive for t != 1, zero at t = 1."""
    t = _check_t(t)
    return (1.0 - t * t) / 2.0 - (1.0 - t ** p.two_star) / p.two_star


def dilation_gap(u, p, t):
    """Defect of the dilation comparison inequality at dilation t.

    Returns Phi(u) - [Phi(u_t) + (1-t^2)/2 P(u) + h(t) ||u||_{2*}^{2*}],
    computed from the norms of u (no resampling enters).  Nonnegative for
    q >= 2+4/N; identically zero at q = 2+4/N and at mu = 0.
    """
    if p.mass_subcritical:
        raise HypothesisError(
            f"dilation comparison needs q >= 2+4/N = {p.q_bar}; got q = {p.q}"
        )
    t = _check_t(t)
    nb = coerce_bundle(u, p)
    return (
        fiber_energy(nb, p, 1.0)
        - fiber_energy(nb, p, t)
        - (1.0 - t * t) / 2.0 * fiber_derivative(nb, p, 1.0)
        - h_weight(p, t) * nb.lcrit
    )


def dilation_gap_closed_form(u, p, t):
    """The same defect via its algebraic identity mu ||u||_q^q psi(t)."""
    t = _check_t(t)
    nb = coerce_bundle(u, p)
    qg = p.q * p.gamma_q
    psi = (t ** qg - 1.0) / p.q + p.gamma_q * (1.0 - t * t) / 2.0
    return p.mu * nb.lq * psi


# ----------------------------------------------------------------------------
# general nonlinearities (for the Pohozaev functional beyond pure powers)
# ----------------------------------------------------------------------------

@dataclass
class GeneralNonlinearity:
    """A nonlinearity f with primitive F (F(0) = 0).

    If F is not supplied it is computed by adaptive quadrature of f, which is
    accurate but slow; supply the closed form when you have it.
    """

    f: callable
    F: callable | None = None
    label: str = ""

    def primitive(self, t):
        if self.F is not None:
            return self.F(t)
        from scipy.integrate import quad

        def single(x):
            val, _ = quad(self.f, 0.0, x, epsabs=1e-13, epsrel=1e-11, limit=100)
            return val

        return np.vectorize(single)(t)

    def primitive_defect(self, ts, rel_step=1e-6):
        """max relative |F' - f| over sample points with |f| above 1e-8.

        Central differences of `primitive`; a well-formed pair returns a
        value below ~1e-6.
        """
        ts = np.asarray(ts, dtype=float)
        h = rel_step * np.maximum(1.0, np.abs(ts))
        fd = (self.primitive(ts + h) - self.primitive(ts - h)) / (2.0 * h)
        fv = self.f(ts)
        keep = np.abs(fv) > 1e-8
        if not np.any(keep):
            return 0.0
        return float(np.max(np.abs(fd[keep] - fv[keep]) / np.abs(fv[keep])))


def power_nonlinearity(p):
    """The problem's own f(t) = mu |t|^(q-2) t + |t|^(2*-2) t.

    The value at t = 0 is taken to be 0 (continuous extension), so q close
    to 2 does not produce spurious infinities.
    """
    mu, q, ts = p.mu, p.q, p.two_star

    def f(t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(at > 0.0, mu * at ** (q - 2.0) * t + at ** (ts - 2.0) * t, 0.0)
        return out if out.ndim else float(out)

    def F(t):
        at = np.abs(np.asarray(t, dtype=float))
        out = mu * at ** q / q + at ** ts / ts
        return out if out.ndim else float(out)

    return GeneralNonlinearity(f, F, label=f"mu|t|^{q - 2}t + |t|^{ts - 2}t")


def pohozaev_general(u, nl, N=None):
    """P(u) = ||grad u||^2 - (N/2) int [f(u) u - 2 F(u)] dx."""
    g = u.grid
    N = g.N if N is None else N
    vals = u.values
    integrand = nl.f(vals) * vals - 2.0 * nl.primitive(vals)
    pot = g.omega_N * float(g.weights @ integrand)
    return grad_norm_sq(u) - 0.5 * N * pot


# ----------------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------------

@dataclass
class EnergyReport:
    mass: float
    grad_sq: float
    lq: float
    lcrit: float
    phi: float
    pohozaev: float
    multiplier: float
    kkt_residual: float
    mass_tail: float        # truncation diagnostic: outer-5% share of the mass

    def as_dict(self):
        return asdict(self)


def kkt_residual(u, p):
    """Size of the constrained Euler-Lagrange residual at u.

    The discrete energy uses the piecewise-linear kinetic form; its gradient,
    represented in the weighted L^2 metric of the grid and projected onto the
    tangent space of the mass sphere, has the L^2_h norm returned here.  At a
    constrained critical point this vanishes (to solver tolerance).
    """
    g = u.grid
    W = g.omega_N * g.weights
    gp = _GridPass(g, u.values, p, W)
    return _tangential_residual(gp.gradient(p), u.values, W, gp.bundle.mass)[2]


def _tangential_residual(dual, v, W, m):
    """The discrete multiplier lam = <dual, v> / m, the tangential residual
    dual - lam W v of a dual gradient at v on the sphere of mass m, and the
    L^2_h norm sqrt(resid' W^-1 resid) of its weighted-L^2 representative.
    """
    lam = float(dual @ v) / m
    resid = dual - lam * (W * v)
    return lam, resid, float(np.sqrt(resid @ (resid / W)))


def normalize_mass(u, c):
    """Rescale amplitudes so that ||u||_2^2 = c (exactly, up to roundoff)."""
    m = mass(u)
    if m <= 0.0:
        raise ParameterError("cannot normalize the zero profile")
    return u.with_values(u.values * np.sqrt(c / m))


def energy_report(u, p):
    nb = norm_bundle(u, p)
    return EnergyReport(
        mass=nb.mass,
        grad_sq=nb.grad_sq,
        lq=nb.lq,
        lcrit=nb.lcrit,
        phi=fiber_energy(nb, p, 1.0),
        pohozaev=fiber_derivative(nb, p, 1.0),
        multiplier=(nb.grad_sq - p.mu * nb.lq - nb.lcrit) / nb.mass,
        kkt_residual=kkt_residual(u, p),
        mass_tail=tail_fraction(u, 2),
    )
