"""Numerical audit of a general nonlinearity f against the structural
requirements of the constrained problem: vanishing rates at the origin,
the critical growth ceiling at infinity, the two-sided primitive bracket
0 < (2+4/N) F(t) <= f(t)t < 2* F(t), and the kappa-coercivity ratios that
keep multipliers under control.

Everything is judged from samples, so the verdicts are deliberately
three-valued, and every check is one of three kinds of rule:

  limit claims     a ratio vanishes, or stays bounded, toward 0 or
                   infinity.  Certified only when the sampled trend is
                   monotone across three decades next to the limit and
                   lands beyond a decisive threshold -- below 1e-3 for a
                   vanishing claim, above 1e3 for a divergence; anything
                   softer is inconclusive with the range that was looked
                   at, never silently passed;
  first-witness    a pointwise inequality fails at the first sample where
  fails            it is violated, which becomes the fail's witness point;
  strict margins   a strict inequality that holds at every sample is still
  that collapse    inconclusive when its relative margin shrinks
                   monotonically into the equality regime at a sampled end.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError, _integer, _plain, _real
from .functionals import GeneralNonlinearity

__all__ = [
    "Verdict",
    "ConditionReport",
    "check_conditions",
]

#: magnitude below which a sampled ratio counts as having vanished
VANISH = 1e-3
#: magnitude above which a monotone sampled ratio counts as diverging
DIVERGE = 1e3
#: relative margin under which a strict inequality is equality at roundoff
EQUALITY_EPS = 1e-12


# ----------------------------------------------------------------------------
# report types
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    status: str                       # "pass" | "fail" | "inconclusive"
    detail: str = ""
    witness_t: float | None = None    # present exactly when status == "fail"
    t_range: tuple | None = None      # sampled range behind an inconclusive

    def __post_init__(self):
        if self.status not in ("pass", "fail", "inconclusive"):
            raise ParameterError(f"unknown verdict status {self.status!r}")
        if self.status == "fail" and self.witness_t is None:
            raise ParameterError("a fail verdict must carry a witness point")
        if self.status == "inconclusive" and self.t_range is None:
            raise ParameterError("an inconclusive verdict must carry a range")


@dataclass
class ConditionReport:
    N: int
    kappa_used: float
    C0_estimate: float                 # sampled sup of the pointwise ratio
    verdicts: dict                     # name -> Verdict
    t_samples: np.ndarray
    ratios: dict = field(repr=False)   # name -> array aligned with t_samples

    @property
    def all_pass(self):
        return all(v.status == "pass" for v in self.verdicts.values())

    def as_dict(self):
        return {**_plain(self), "all_pass": self.all_pass}


# ----------------------------------------------------------------------------
# sampled-trend machinery
# ----------------------------------------------------------------------------

def _end_bins(ts_abs, end):
    """Index masks of three sliding decades anchored at the sampled extreme,
    ordered toward the limit end ('small' -> 0, 'large' -> infinity)."""
    if end == "large":
        top = np.max(ts_abs)
        edges = [(top / 1e3, top / 1e2), (top / 1e2, top / 1e1), (top / 1e1, top)]
    else:
        bot = np.min(ts_abs)
        edges = [(bot * 1e2, bot * 1e3), (bot * 1e1, bot * 1e2), (bot, bot * 1e1)]
    bins = []
    for lo, hi in edges:
        m = (ts_abs > lo * (1 - 1e-12)) & (ts_abs <= hi * (1 + 1e-12))
        if not np.any(m):
            return None
        bins.append(m)
    return bins  # ordered so the last bin hugs the limit


def _monotone(reps, direction):
    """Strict decade-over-decade trend; infinities never certify one."""
    with np.errstate(invalid="ignore"):
        d = np.diff(reps)
        if not np.all(np.isfinite(d)):
            return False
        return bool(np.all(d < 0.0)) if direction == "down" else bool(np.all(d > 0.0))


def _limit(ts, vals, end, label, claim):
    """Verdict for |ratio| -> 0 (claim "vanishes") or for
    limsup |ratio| < infinity (claim "bounded") at the given end."""
    ts_abs = np.abs(ts)
    rng = (float(np.min(ts_abs)), float(np.max(ts_abs)))
    bins = _end_bins(ts_abs, end)
    if bins is None:
        return Verdict("inconclusive", f"{label}: too few samples per decade",
                       t_range=rng)
    vals = np.abs(vals)
    reps = np.array([np.max(vals[m]) for m in bins])
    ok = None
    if claim == "vanishes":
        if np.all(reps <= 1e-12):
            ok = "ratio is zero at every sampled scale"
        elif _monotone(reps, "down") and reps[-1] < VANISH:
            ok = f"ratio falls monotonically across three decades to {reps[-1]:.3g}"
    else:
        with np.errstate(invalid="ignore"):
            if (np.all(np.isfinite(reps))
                    and np.all(np.diff(reps) <= reps[:-1] * 1e-9 + 1e-300)):
                ok = ("decade maxima are non-increasing toward the limit "
                      f"(last {reps[-1]:.3g})")
    if ok is not None:
        return Verdict("pass", f"{label}: {ok}")
    if _monotone(reps, "up") and reps[-1] > DIVERGE:
        m = bins[-1]
        return Verdict(
            "fail",
            f"{label}: ratio grows monotonically across three decades "
            f"to {reps[-1]:.3g}",
            witness_t=float(ts_abs[m][np.argmax(vals[m])]),
        )
    target = "the limit" if claim == "vanishes" else "boundedness"
    return Verdict(
        "inconclusive",
        f"{label}: sampled trend does not certify {target} "
        f"(last three decade maxima {reps.tolist()})",
        t_range=rng,
    )


def _first_fail(ts, bad, detail, *quoted):
    """A fail at the first sample where `bad` holds, else None.  The detail
    is formatted with the values of the `quoted` arrays at that sample."""
    if not np.any(bad):
        return None
    k = int(np.argmax(bad))
    return Verdict("fail", detail.format(*(a[k] for a in quoted)),
                   witness_t=float(ts[k]))


def _strict(ts, margins, doubt, ok):
    """Pass with `ok`, unless one of the strict relative margins shrinks
    monotonically into the equality regime at a sampled end; then
    inconclusive with `doubt` over the range of that end's three decades."""
    ts_abs = np.abs(ts)
    for margin in margins:
        for end in ("large", "small"):
            bins = _end_bins(ts_abs, end)
            if bins is None:
                continue
            reps = np.array([np.min(margin[m]) for m in bins])
            if _monotone(reps, "down") and reps[-1] < VANISH:
                lo = min(float(np.min(ts_abs[m])) for m in bins)
                hi = max(float(np.max(ts_abs[m])) for m in bins)
                return Verdict("inconclusive", doubt, t_range=(lo, hi))
    return Verdict("pass", ok)


def _worst(parts):
    """Combine sub-verdicts: any fail wins, then any inconclusive."""
    for v in parts:
        if v.status == "fail":
            return v
    for v in parts:
        if v.status == "inconclusive":
            return v
    return Verdict(
        "pass", "; ".join(v.detail for v in parts if v.detail) or "holds"
    )


# ----------------------------------------------------------------------------
# the audit
# ----------------------------------------------------------------------------

def _default_samples():
    return np.geomspace(1e-6, 1e6, 133)


def _prepare_samples(t_samples):
    if t_samples is None:
        pos = _default_samples()
        return np.sort(np.concatenate([-pos, pos]))
    ts = np.asarray(t_samples, dtype=float).ravel()
    ts = ts[ts != 0.0]
    if ts.size == 0:
        raise ParameterError("t_samples contains no nonzero points")
    if not np.all(np.isfinite(ts)):
        raise ParameterError("t_samples must be finite")
    if not np.any(ts < 0.0):
        ts = np.concatenate([-ts, ts])
    ta = np.abs(ts)
    if np.min(ta) > 1e-6 * (1 + 1e-9) or np.max(ta) < 1e6 * (1 - 1e-9):
        raise ParameterError(
            "t_samples must span at least [1e-6, 1e6] in magnitude; got "
            f"[{np.min(ta):.3g}, {np.max(ta):.3g}]"
        )
    return np.sort(ts)


def check_conditions(f, N, kappa, t_samples=None):
    """Audit a nonlinearity against the admissibility conditions.

    f is a GeneralNonlinearity (callable pair f, F with F(0) = 0).  The
    checks, each reported under its own key:

      F0          f(t)/t -> 0 at the origin and |f(t)|/|t|^(2*-1) stays
                  bounded at infinity;
      F1          f(t)/|t|^(1+4/N) -> 0 at the origin and
                  |f(t)|/|t|^(2*-1) -> 0 at infinity;
      F2          0 < (2+4/N) F(t) <= f(t)t < 2* F(t) at every sample
                  (the upper bracket is strict: sampled equality at
                  roundoff is a fail, a margin that only collapses toward
                  equality at one end is inconclusive);
      F3          limsup of [f(t)t - 2F(t)]^kappa /
                  (t^(2 kappa) [N f(t)t - (2N+4) F(t)]) is finite;
      F3prime     ((f(t)t - 2F(t))/t^2)^kappa <= C0 [N f(t)t - (2N+4)F(t)]
                  pointwise, with C0 estimated as the sampled sup;
      H1_bracket  the sampled ratio f(t)t/F(t) fits strictly between
                  2+4/N and 2* with room to spare on both sides.

    N must be an integer >= 3, kappa a finite real above N/2 and t_samples,
    when given, span at least [1e-6, 1e6] in magnitude (positive-only ones
    are mirrored across 0), else ParameterError.  Non-finite values of f or
    F at a sample raise NumericalError naming the point.
    """
    N = _integer("dimension N", N, 3)
    kappa = _real("kappa", kappa)
    if not kappa > N / 2.0:
        raise ParameterError(f"kappa must exceed N/2 = {N / 2.0}, got {kappa}")
    if not isinstance(f, GeneralNonlinearity):
        f = GeneralNonlinearity(f)

    ts = _prepare_samples(t_samples)
    two_star = 2.0 * N / (N - 2.0)
    q_bar = 2.0 + 4.0 / N

    def _eval(fn, name):
        with np.errstate(all="ignore"):
            arr = np.asarray(fn(ts), dtype=float)
        bad = ~np.isfinite(arr)
        if np.any(bad):
            t_bad = float(ts[bad][0])
            raise NumericalError(
                f"{name}(t) is not finite at sampled point t = {t_bad:.6g}"
            )
        return arr

    fv = _eval(f.f, "f")
    Fv = _eval(f.primitive, "F")

    ta = np.abs(ts)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        small_f0 = fv / ts
        small_f1 = fv / ta ** (1.0 + 4.0 / N)
        growth = np.abs(fv) / ta ** (two_star - 1.0)
        ft = fv * ts
        num = ft - 2.0 * Fv                    # f(t)t - 2F(t)
        den = N * ft - (2.0 * N + 4.0) * Fv    # N f(t)t - (2N+4) F(t)
        bracket = np.where(Fv != 0.0, ft / Fv, np.nan)
        growth_ratio = np.where(
            den > 0.0, num ** kappa / (ta ** (2.0 * kappa) * den), np.inf
        )
        pointwise = np.where(den > 0.0, (num / ts ** 2) ** kappa / den, np.inf)

    ratios = {
        "origin_linear": small_f0,
        "origin_mass_critical": small_f1,
        "critical_growth": growth,
        "primitive_bracket": bracket,
        "kappa_growth": growth_ratio,
        "kappa_pointwise": pointwise,
    }

    verdicts = {}

    # -- F0: zero slope at the origin, critical ceiling at infinity
    verdicts["F0"] = _worst([
        _limit(ts, small_f0, "small", "f(t)/t at 0", "vanishes"),
        _limit(ts, growth, "large", "|f|/|t|^(2*-1) at infinity", "bounded"),
    ])

    # -- F1: mass-critical vanishing at 0, subcritical decay at infinity
    verdicts["F1"] = _worst([
        _limit(ts, small_f1, "small", "f(t)/|t|^(1+4/N) at 0", "vanishes"),
        _limit(ts, growth, "large", "|f|/|t|^(2*-1) at infinity", "vanishes"),
    ])

    # -- F2: 0 < (2+4/N) F <= f t < 2* F
    scale_low = np.abs(ft) + q_bar * np.abs(Fv) + 1e-300
    scale_up = np.abs(ft) + two_star * np.abs(Fv) + 1e-300
    pos_bad = Fv <= 0.0
    low_margin = (ft - q_bar * Fv) / scale_low
    up_margin = (two_star * Fv - ft) / scale_up
    if float(np.median(up_margin)) <= EQUALITY_EPS:
        up_equal = Verdict(
            "fail",
            "upper bracket f(t)t < 2* F(t) holds only with equality "
            "(strictness fails at roundoff)",
            witness_t=float(ts[int(np.argmin(up_margin))]),
        )
    else:
        up_equal = None
    verdicts["F2"] = _worst([
        _first_fail(ts, pos_bad, "positivity 0 < (2+4/N) F(t) fails (F = {:.3g})", Fv)
        or Verdict("pass", "F(t) > 0 at every sample"),
        _first_fail(ts, low_margin < -EQUALITY_EPS,
                    "lower bracket (2+4/N) F(t) <= f(t)t fails")
        or Verdict("pass", "lower bracket holds at every sample"),
        _first_fail(ts, up_margin < -EQUALITY_EPS, "upper bracket f(t)t < 2* F(t) fails")
        or up_equal
        or _strict(ts, [up_margin],
                   "upper bracket margin collapses toward equality at the "
                   "sampled edge; strictness for all t cannot be certified",
                   "upper bracket holds strictly at every sample"),
    ])

    # -- F3 / F3': the kappa-coercivity ratios presuppose f t - 2F >= 0
    if np.any(num < -EQUALITY_EPS * scale_up):
        verdicts["F3"] = verdicts["F3prime"] = Verdict(
            "inconclusive",
            "f(t)t - 2F(t) is negative at sampled points, so the coercivity "
            "ratios are not defined as stated",
            t_range=(float(np.min(ta)), float(np.max(ta))),
        )
        c0 = float("nan")
    else:
        verdicts["F3"] = _limit(ts, growth_ratio, "large",
                                "coercivity ratio at infinity", "bounded")
        valid = den > 0.0
        verdicts["F3prime"] = _first_fail(
            ts, (~valid) & (np.abs(num) > 1e-300),
            "N f(t)t - (2N+4) F(t) is not positive where the left side "
            "is, so no constant C0 can close the pointwise bound",
        ) or _worst([
            _limit(ts, pointwise, "large",
                   "pointwise coercivity ratio at infinity", "bounded"),
            _limit(ts, pointwise, "small",
                   "pointwise coercivity ratio at 0", "bounded"),
        ])
        c0 = float(np.max(pointwise[valid])) if np.any(valid) else float("nan")

    # -- H1-style strict bracket with room on both sides
    gap_lo = (bracket - q_bar) / (two_star - q_bar)
    gap_hi = (two_star - bracket) / (two_star - q_bar)
    verdicts["H1_bracket"] = (
        _first_fail(ts, pos_bad, "ratio f(t)t/F(t) undefined where F(t) <= 0")
        or _first_fail(ts, gap_lo <= EQUALITY_EPS,
                       "no alpha > 2+4/N fits below the sampled ratio f(t)t/F(t)")
        or _first_fail(ts, gap_hi <= EQUALITY_EPS,
                       "no beta < 2* fits above the sampled ratio f(t)t/F(t)")
        or _strict(
            ts, [gap_lo, gap_hi],
            "the sampled ratio f(t)t/F(t) approaches an endpoint of "
            "(2+4/N, 2*); a strict two-sided bracket cannot be certified",
            f"sampled ratio stays in [{float(np.nanmin(bracket)):.6g}, "
            f"{float(np.nanmax(bracket)):.6g}] strictly inside "
            f"({q_bar:.6g}, {two_star:.6g})",
        )
    )

    return ConditionReport(
        N=N,
        kappa_used=kappa,
        C0_estimate=c0,
        verdicts=verdicts,
        t_samples=ts,
        ratios=ratios,
    )

