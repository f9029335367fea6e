"""Numerical audit of a general nonlinearity f against the structural
requirements of the constrained problem: vanishing rates at the origin,
the critical growth ceiling at infinity, the two-sided primitive bracket
0 < (2+4/N) F(t) <= f(t)t < 2* F(t), and the kappa-coercivity ratios that
keep multipliers under control.

Everything is judged from samples, so the verdicts are deliberately
three-valued.  A fail always carries a concrete witness point.  Asymptotic
claims (limits at 0 or infinity, boundedness of a sup) are certified only
when the sampled trend is monotone across three decades next to the limit
and lands beyond a decisive threshold -- below 1e-3 for a vanishing claim,
above 1e3 for a divergence; anything softer is reported inconclusive with
the range that was looked at, never silently passed.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ParameterError
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
        out = {
            "N": self.N,
            "kappa_used": self.kappa_used,
            "C0_estimate": None if np.isnan(self.C0_estimate) else self.C0_estimate,
            "all_pass": self.all_pass,
            "verdicts": {
                k: {
                    "status": v.status,
                    "detail": v.detail,
                    "witness_t": v.witness_t,
                    "t_range": list(v.t_range) if v.t_range is not None else None,
                }
                for k, v in self.verdicts.items()
            },
            "t_samples": self.t_samples.tolist(),
            "ratios": {
                k: [x if np.isfinite(x) else None for x in np.asarray(v)]
                for k, v in self.ratios.items()
            },
        }
        return out


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


def _decade_maxima(ts_abs, vals, end):
    bins = _end_bins(ts_abs, end)
    if bins is None:
        return None, None
    reps = np.array([np.max(vals[m]) for m in bins])
    witnesses = np.array([ts_abs[m][np.argmax(vals[m])] for m in bins])
    return reps, witnesses


def _monotone(reps, direction):
    """Strict decade-over-decade trend; infinities never certify one."""
    with np.errstate(invalid="ignore"):
        d = np.diff(reps)
        if not np.all(np.isfinite(d)):
            return False
        return bool(np.all(d < 0.0)) if direction == "down" else bool(np.all(d > 0.0))


def _limit_vanishes(ts, vals, end, label):
    """Verdict for |ratio| -> 0 at the given end."""
    ts_abs = np.abs(ts)
    reps, wit = _decade_maxima(ts_abs, np.abs(vals), end)
    rng = (float(np.min(ts_abs)), float(np.max(ts_abs)))
    if reps is None:
        return Verdict("inconclusive", f"{label}: too few samples per decade",
                       t_range=rng)
    if np.all(reps <= 1e-12):
        return Verdict("pass", f"{label}: ratio is zero at every sampled scale")
    if _monotone(reps, "down") and reps[-1] < VANISH:
        return Verdict(
            "pass",
            f"{label}: ratio falls monotonically across three decades "
            f"to {reps[-1]:.3g}",
        )
    if _monotone(reps, "up") and reps[-1] > DIVERGE:
        return Verdict(
            "fail",
            f"{label}: ratio grows monotonically across three decades "
            f"to {reps[-1]:.3g}",
            witness_t=float(wit[-1]),
        )
    return Verdict(
        "inconclusive",
        f"{label}: sampled trend does not certify the limit "
        f"(last three decade maxima {reps.tolist()})",
        t_range=rng,
    )


def _limit_bounded(ts, vals, end, label):
    """Verdict for limsup |ratio| < infinity at the given end."""
    ts_abs = np.abs(ts)
    reps, wit = _decade_maxima(ts_abs, np.abs(vals), end)
    rng = (float(np.min(ts_abs)), float(np.max(ts_abs)))
    if reps is None:
        return Verdict("inconclusive", f"{label}: too few samples per decade",
                       t_range=rng)
    with np.errstate(invalid="ignore"):
        flat_or_down = bool(
            np.all(np.isfinite(reps))
            and np.all(np.diff(reps) <= reps[:-1] * 1e-9 + 1e-300)
        )
    if flat_or_down:
        return Verdict(
            "pass",
            f"{label}: decade maxima are non-increasing toward the limit "
            f"(last {reps[-1]:.3g})",
        )
    if _monotone(reps, "up") and reps[-1] > DIVERGE:
        return Verdict(
            "fail",
            f"{label}: ratio grows monotonically across three decades "
            f"to {reps[-1]:.3g}",
            witness_t=float(wit[-1]),
        )
    return Verdict(
        "inconclusive",
        f"{label}: sampled trend does not certify boundedness "
        f"(last three decade maxima {reps.tolist()})",
        t_range=rng,
    )


def _margin_collapses(ts, margin):
    """Whether a strict relative margin shrinks monotonically into the
    equality regime at either sampled end; returns the offending range."""
    ts_abs = np.abs(ts)
    for end in ("large", "small"):
        bins = _end_bins(ts_abs, end)
        if bins is None:
            continue
        reps = np.array([np.min(margin[m]) for m in bins])
        if _monotone(reps, "down") and reps[-1] < VANISH:
            lo = min(float(np.min(ts_abs[m])) for m in bins)
            hi = max(float(np.max(ts_abs[m])) for m in bins)
            return (lo, hi)
    return None


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

    kappa must exceed N/2.  t_samples, when given, must span at least
    [1e-6, 1e6] in magnitude; positive-only samples are mirrored across 0.
    Non-finite values of f or F at a sample raise NumericalError naming
    the point.
    """
    if int(N) != N or N < 3:
        raise ParameterError(f"N must be an integer >= 3, got {N!r}")
    N = int(N)
    kappa = float(kappa)
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
        _limit_vanishes(ts, small_f0, "small", "f(t)/t at 0"),
        _limit_bounded(ts, growth, "large", "|f|/|t|^(2*-1) at infinity"),
    ])

    # -- F1: mass-critical vanishing at 0, subcritical decay at infinity
    verdicts["F1"] = _worst([
        _limit_vanishes(ts, small_f1, "small", "f(t)/|t|^(1+4/N) at 0"),
        _limit_vanishes(ts, growth, "large", "|f|/|t|^(2*-1) at infinity"),
    ])

    # -- F2: 0 < (2+4/N) F <= f t < 2* F
    scale_low = np.abs(ft) + q_bar * np.abs(Fv) + 1e-300
    scale_up = np.abs(ft) + two_star * np.abs(Fv) + 1e-300
    pos_bad = Fv <= 0.0
    if np.any(pos_bad):
        w = float(ts[pos_bad][0])
        pos_v = Verdict(
            "fail", f"positivity 0 < (2+4/N) F(t) fails (F = {Fv[pos_bad][0]:.3g})",
            witness_t=w,
        )
    else:
        pos_v = Verdict("pass", "F(t) > 0 at every sample")

    low_margin = (ft - q_bar * Fv) / scale_low
    low_bad = low_margin < -EQUALITY_EPS
    if np.any(low_bad):
        w = float(ts[low_bad][0])
        low_v = Verdict(
            "fail", "lower bracket (2+4/N) F(t) <= f(t)t fails", witness_t=w
        )
    else:
        low_v = Verdict("pass", "lower bracket holds at every sample")

    up_margin = (two_star * Fv - ft) / scale_up
    up_bad = up_margin < -EQUALITY_EPS
    if np.any(up_bad):
        w = float(ts[up_bad][0])
        up_v = Verdict("fail", "upper bracket f(t)t < 2* F(t) fails", witness_t=w)
    elif float(np.median(up_margin)) <= EQUALITY_EPS:
        k = int(np.argmin(up_margin))
        up_v = Verdict(
            "fail",
            "upper bracket f(t)t < 2* F(t) holds only with equality "
            "(strictness fails at roundoff)",
            witness_t=float(ts[k]),
        )
    else:
        collapse = _margin_collapses(ts, up_margin)
        if collapse is not None:
            up_v = Verdict(
                "inconclusive",
                "upper bracket margin collapses toward equality at the "
                "sampled edge; strictness for all t cannot be certified",
                t_range=collapse,
            )
        else:
            up_v = Verdict("pass", "upper bracket holds strictly at every sample")
    verdicts["F2"] = _worst([pos_v, low_v, up_v])

    # -- F3 / F3': the kappa-coercivity ratios presuppose f t - 2F >= 0
    num_bad = num < -EQUALITY_EPS * scale_up
    if np.any(num_bad):
        rng = (float(np.min(ta)), float(np.max(ta)))
        precond = Verdict(
            "inconclusive",
            "f(t)t - 2F(t) is negative at sampled points, so the coercivity "
            "ratios are not defined as stated",
            t_range=rng,
        )
        verdicts["F3"] = precond
        verdicts["F3prime"] = precond
        c0 = float("nan")
    else:
        verdicts["F3"] = _limit_bounded(
            ts, growth_ratio, "large", "coercivity ratio at infinity"
        )
        valid = den > 0.0
        lhs_pos = np.abs(num) > 1e-300
        blocked = (~valid) & lhs_pos
        if np.any(blocked):
            w = float(ts[blocked][0])
            verdicts["F3prime"] = Verdict(
                "fail",
                "N f(t)t - (2N+4) F(t) is not positive where the left side "
                "is, so no constant C0 can close the pointwise bound",
                witness_t=w,
            )
        else:
            parts = [
                _limit_bounded(ts, pointwise, "large",
                               "pointwise coercivity ratio at infinity"),
                _limit_bounded(ts, pointwise, "small",
                               "pointwise coercivity ratio at 0"),
            ]
            verdicts["F3prime"] = _worst(parts)
        c0 = float(np.max(pointwise[valid])) if np.any(valid) else float("nan")

    # -- H1-style strict bracket with room on both sides
    if np.any(pos_bad):
        verdicts["H1_bracket"] = Verdict(
            "fail", "ratio f(t)t/F(t) undefined where F(t) <= 0",
            witness_t=float(ts[pos_bad][0]),
        )
    else:
        gap_lo = (bracket - q_bar) / (two_star - q_bar)
        gap_hi = (two_star - bracket) / (two_star - q_bar)
        lo_bad = gap_lo <= EQUALITY_EPS
        hi_bad = gap_hi <= EQUALITY_EPS
        if np.any(lo_bad):
            verdicts["H1_bracket"] = Verdict(
                "fail",
                "no alpha > 2+4/N fits below the sampled ratio f(t)t/F(t)",
                witness_t=float(ts[lo_bad][0]),
            )
        elif np.any(hi_bad):
            verdicts["H1_bracket"] = Verdict(
                "fail",
                "no beta < 2* fits above the sampled ratio f(t)t/F(t)",
                witness_t=float(ts[hi_bad][0]),
            )
        else:
            collapse = _margin_collapses(ts, gap_lo)
            if collapse is None:
                collapse = _margin_collapses(ts, gap_hi)
            if collapse is not None:
                verdicts["H1_bracket"] = Verdict(
                    "inconclusive",
                    "the sampled ratio f(t)t/F(t) approaches an endpoint of "
                    "(2+4/N, 2*); a strict two-sided bracket cannot be "
                    "certified",
                    t_range=collapse,
                )
            else:
                verdicts["H1_bracket"] = Verdict(
                    "pass",
                    f"sampled ratio stays in "
                    f"[{float(np.nanmin(bracket)):.6g}, "
                    f"{float(np.nanmax(bracket)):.6g}] strictly inside "
                    f"({q_bar:.6g}, {two_star:.6g})",
                )

    return ConditionReport(
        N=N,
        kappa_used=kappa,
        C0_estimate=c0,
        verdicts=verdicts,
        t_samples=ts,
        ratios=ratios,
    )

