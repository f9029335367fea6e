"""Critical points of the dilation fiber and the Pohozaev-manifold energy.

For a profile u with norms (a, d, b) = (||grad u||^2, ||u||_q^q,
||u||_{2*}^{2*}), the energy along the mass-preserving dilation fiber has
derivative g(t) = a t - mu gamma_q d t^{q gamma_q - 1} - b t^{2* - 1}; roots
of g are exactly the dilations placing u on the constraint manifold
{P = 0}.  On t > 0 they are the roots of

    h(t) = g(t)/t = a - A t^e1 - b t^e2,   A = mu gamma_q d,
    e1 = q gamma_q - 2,  e2 = 2* - 2 > 0,

whose shape is fixed by the sign of e1:

* q = 2+4/N (e1 = 0): h is a - A - b t^e2, one closed-form root when a > A;
* q > 2+4/N (e1 > 0): h falls strictly from a, one root (a strict maximum
  of the fiber energy) when a > 0;
* q < 2+4/N (e1 < 0): h has a single interior maximum at a closed-form t*,
  so there are zero, one (degenerate) or two roots, a local minimum
  followed by a local maximum.

Each root is bracketed in closed form, from the dilations at which one term
of h reaches a fixed multiple of a, and refined by one Brent solve in
s = log t on

    h(e^s)/a = 1 - exp(log(A/a) + e1 s) - exp(log(b/a) + e2 s),

a closure over the precomputed logs of A/a and b/a.  Its terms stay below
a few units on the bracket, so it neither under- nor overflows where g
would (below t ~ 1e-250 the terms of g are subnormal and lose the root's
sign change).  The bracket ends are formed in log space and clamped to the
floating-point range, so there is no search window: roots are found at any
scale that range holds.  The classification of a root (and, below
q = 2+4/N, the sign check at the maximum of h) still evaluates g and g'
in t.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import (
    HypothesisError,
    NoCriticalPointError,
    NumericalError,
    ParameterError,
)
from .functionals import (
    coerce_bundle,
    fiber_derivative,
    fiber_energy,
    fiber_second_derivative,
)

__all__ = [
    "FiberCriticalPoint",
    "fiber_critical_points",
    "manifold_energy",
    "manifold_projection",
]

# log of the largest and the smallest positive normal float
_LOG_MAX = math.log(sys.float_info.max)
_LOG_MIN = math.log(sys.float_info.min)
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class FiberCriticalPoint:
    """A root of the fiber derivative g.

    second_derivative_sign is 'plus' (local minimum of the fiber energy),
    'minus' (local maximum) or 'zero' (degenerate within tolerance).
    value is the fiber energy at t.
    """

    t: float
    second_derivative_sign: str
    value: float


def _second_scale(nb, p, t):
    qg = p.q * p.gamma_q
    return (
        nb.grad_sq
        + p.mu * p.gamma_q * abs(qg - 1.0) * nb.lq * t ** (qg - 2.0)
        + (p.two_star - 1.0) * nb.lcrit * t ** (p.two_star - 2.0)
    )


def _at(fn, nb, p, t):
    """fn(nb, p, t) at a dilation t of the fiber.  A power of t beyond the
    floating-point range raises NoCriticalPointError, a NaN NumericalError."""
    try:
        v = fn(nb, p, t)
    except OverflowError:
        raise NoCriticalPointError(f"fiber terms overflow at t = {t:.6g}") from None
    if math.isnan(v):
        raise NumericalError(f"{fn.__name__} is NaN at the fiber point t = {t:.6g}")
    return v


def _classify(nb, p, t):
    g2 = _at(fiber_second_derivative, nb, p, t)
    scale = _at(_second_scale, nb, p, t)
    if abs(g2) <= 1e-8 * scale:
        return "zero"
    return "plus" if g2 > 0.0 else "minus"


def _exp(log_t):
    """exp(log_t), refusing a dilation outside the normal floating range."""
    if not _LOG_MIN < log_t < _LOG_MAX:
        raise NoCriticalPointError(
            f"fiber critical point at t = exp({log_t:.6g}) lies outside "
            "the floating-point range"
        )
    return math.exp(log_t)


def _log_level(k, a, c, e):
    """log of the t > 0 with c t^e = k a, free of over- and underflow; a
    product k a or c that underflowed to 0 raises NumericalError."""
    ka = k * a
    if ka == 0.0 or c == 0.0:
        raise NumericalError(f"a fiber coefficient product underflowed: {k} * {a} or {c} is 0")
    return (math.log(ka) - math.log(c)) / e


def _log_h(a, A, b, e1, e2):
    """s -> h(e^s)/a = 1 - exp(lA + e1 s) - exp(lb + e2 s), with the logs
    lA = log(A/a) and lb = log(b/a) taken once (-inf for a zero term)."""
    la = math.log(a)
    lA = math.log(A) - la if A > 0.0 else -math.inf
    lb = math.log(b) - la if b > 0.0 else -math.inf
    exp = math.exp
    return lambda s: 1.0 - exp(lA + e1 * s) - exp(lb + e2 * s)


def _brent(h, s_lo, s_hi, sign_lo):
    """The root t = e^s of g with s in [s_lo, s_hi], where g has the sign
    sign_lo at e^s_lo and the opposite sign at e^s_hi; None when that sign
    change lies beyond the floating-point range.  h is the `_log_h` closure,
    which has the sign of g.

    An end beyond the range is clamped to it, and the root is in range only
    if h keeps the sign of that end there.  Brent runs in s = log t, where
    the terms of h are smooth exponentials; in t, a bracket many decades
    wide would cost hundreds of bisections.
    """
    lo, hi = max(s_lo, _LOG_MIN), min(s_hi, _LOG_MAX)
    if lo >= hi:
        return None
    try:
        for s, end, sign in ((lo, s_lo, sign_lo), (hi, s_hi, -sign_lo)):
            if s != end and not sign * h(s) > 0.0:
                return None
        s = brentq(h, lo, hi, xtol=2.0 * _EPS, rtol=4.0 * _EPS)
    except (ValueError, OverflowError) as exc:
        # the bracket has strict signs in exact arithmetic, with margins far
        # above the rounding of h; h overflows only at an end clamped to range
        raise NumericalError(f"the fiber derivative cannot be solved on "
                             f"[exp({lo:.6g}), exp({hi:.6g})]: {exc}") from exc
    return math.exp(s)


def _roots(nb, p):
    """The positive roots of g in increasing t, from closed-form brackets.

    A generator: each root's Brent solve runs only when the caller asks for
    that root, so a caller that stops at the first root below q = 2+4/N
    (the fiber minimum, `_fiber_minimum`) never solves for the second.
    Everything before the first root -- the checks of the coefficients, the
    no-root test, the one-term cases, the degenerate and the underflow
    tests at the maximum of h -- runs on the first request.
    """
    a, b = nb.grad_sq, nb.lcrit
    A = p.mu * p.gamma_q * nb.lq
    e1 = p.q * p.gamma_q - 2.0
    e2 = p.two_star - 2.0
    if not all(map(math.isfinite, (a, A, b))):
        raise NumericalError(
            f"non-finite fiber coefficients (a, A, b) = ({a}, {A}, {b})"
        )
    if min(a, A, b) < 0.0:
        raise ParameterError(
            f"norms must be nonnegative, got (a, A, b) = ({a}, {A}, {b})"
        )
    if A == 0.0 and b == 0.0:
        raise NoCriticalPointError(
            "fiber derivative is linear without reaction terms; no root"
        )

    if p.mass_critical:
        if a <= A or b == 0.0:
            return
        yield _exp(_log_level(1.0, a - A, b, e2))
        return

    if p.q > p.q_bar:
        if a == 0.0:
            return
        terms = [(c, e) for c, e in ((A, e1), (b, e2)) if c > 0.0]
        # at t_lo each of the n terms is at most 0.8a/n, so h >= a/5; at
        # t_hi one term alone is 1.1a, so h <= -a/10: strict signs, with
        # margins far above rounding, on a bracket kept tight for Brent
        s_lo = min(_log_level(0.8 / len(terms), a, c, e) for c, e in terms)
        s_hi = min(_log_level(1.1, a, c, e) for c, e in terms)
        root = _brent(_log_h(a, A, b, e1, e2), s_lo, s_hi, 1.0)
        if root is None:
            raise NoCriticalPointError(
                "the root of the fiber derivative lies beyond the "
                "floating-point range"
            )
        yield root
        return

    # q < 2+4/N: with one term, h is monotone and its root closed form
    if a == 0.0:
        return
    if A == 0.0 or b == 0.0:
        s = _log_level(1.0, a, b, e2) if A == 0.0 else _log_level(1.0, a, A, e1)
        if _LOG_MIN < s < _LOG_MAX:
            yield math.exp(s)
        return
    # with both, h rises from -inf to one maximum at t* and falls back to
    # -inf; there b e2 t*^e2 = A (-e1) t*^e1, so a - h(t*) =
    # A t*^e1 (e2 - e1)/e2, compared with a in log space
    s_star = _log_level(-e1, A, b * e2, e2 - e1)
    log_drop = math.log(A * (e2 - e1) / e2) + e1 * s_star
    if not math.isfinite(log_drop):
        raise NumericalError(f"fiber coefficient products overflow: (a, A, b) = ({a}, {A}, {b})")
    if log_drop > math.log(a):
        return
    if _LOG_MIN < s_star < _LOG_MAX:
        t_star = math.exp(s_star)
        # g'(t*) = h(t*): within the classification tolerance of 0 the two
        # roots merge into one degenerate point
        if _classify(nb, p, t_star) == "zero":
            yield t_star
            return
        if not _at(fiber_derivative, nb, p, t_star) > 0.0:
            raise NumericalError(
                f"fiber derivative underflowed at the maximum of h, t = {t_star:.6g}")
    # at each outer end one term alone is 1.1a, so h <= -a/10
    h = _log_h(a, A, b, e1, e2)
    for s_lo, s_hi, sign_lo in ((_log_level(1.1, a, A, e1), s_star, -1.0),
                                (s_star, _log_level(1.1, a, b, e2), 1.0)):
        root = _brent(h, s_lo, s_hi, sign_lo)
        if root is not None:
            yield root


def fiber_critical_points(u, p):
    """All positive roots of the fiber derivative, in increasing t.

    Accepts a RadialFunction, a NormBundle or a (grad_sq, lq, lcrit) triple.
    Every root is bracketed in closed form and refined to full precision by
    one Brent solve.  There is no search window: roots are found at any
    scale the floating-point range holds.  A root whose fiber terms
    overflow raises NoCriticalPointError, a NaN energy NumericalError.
    For q >= 2+4/N the root is unique and 'minus'; its absence, or a root
    beyond the floating-point range, raises NoCriticalPointError.  For
    q < 2+4/N the list may be empty, contain one degenerate point, or a
    'plus' then a 'minus' point; a root beyond the floating-point range
    cannot be represented and is left out.
    """
    nb = coerce_bundle(u, p)
    roots = list(_roots(nb, p))
    if not roots and not p.mass_subcritical:
        raise NoCriticalPointError(
            "the fiber derivative has no positive root; for q >= 2+4/N this "
            "means the quadratic coefficient is dominated (e.g. mu beyond "
            "the smallness threshold)"
        )
    return [FiberCriticalPoint(r, _classify(nb, p, r), float(_at(fiber_energy, nb, p, r)))
            for r in roots]


def _fiber_minimum(u, p):
    """The fiber's local minimum for q < 2+4/N: the first 'plus' point of
    `fiber_critical_points`, or None when it has none.

    The roots come from `_roots` one at a time and stop at the first 'plus'
    one.  When the fiber has two roots that is the first, the point on P+,
    so its one Brent solve on [t(A t^e1 = 1.1a), t*] is the only one: the
    P- root is solved only if the first root is not a minimum.  Bad norms
    raise what `fiber_critical_points` raises.
    """
    nb = coerce_bundle(u, p)
    for r in _roots(nb, p):
        if _classify(nb, p, r) == "plus":
            return FiberCriticalPoint(r, "plus", float(_at(fiber_energy, nb, p, r)))
    return None


def manifold_projection(u, p):
    """The unique maximal fiber critical point for q >= 2+4/N."""
    if p.mass_subcritical:
        raise HypothesisError(
            "the fiber maximum is only the manifold projection for q >= 2+4/N"
        )
    pts = fiber_critical_points(u, p)
    pt = pts[0]
    if pt.second_derivative_sign == "plus":
        raise NumericalError(
            f"fiber critical point at t = {pt.t} is a minimum; "
            "inconsistent with q >= 2+4/N"
        )
    return pt


def manifold_energy(u, p):
    """max over t > 0 of the fiber energy: the level of u seen from the
    constraint manifold.  Only meaningful for q >= 2+4/N, where the fiber
    has a single interior maximum."""
    return manifold_projection(u, p).value
