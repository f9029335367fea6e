"""Tests for the nonlinearity condition auditor."""

import json

import numpy as np
import pytest

from massnls.conditions import (
    ConditionReport,
    Verdict,
    check_conditions,
)
from massnls.errors import NumericalError, ParameterError
from massnls.functionals import GeneralNonlinearity, power_nonlinearity, problem


def _power(p):
    """f(t) = |t|^(p-2) t with its closed-form primitive."""
    return GeneralNonlinearity(
        lambda t: np.abs(t) ** (p - 2.0) * np.asarray(t, dtype=float),
        lambda t: np.abs(np.asarray(t, dtype=float)) ** p / p,
        label=f"|t|^{p - 2}t",
    )


_ZERO = GeneralNonlinearity(
    lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    label="0",
)


# ----------------------------------------------------------------------------
# worked examples
# ----------------------------------------------------------------------------

def test_supercritical_power_passes_everything():
    # p = 4 sits strictly between 2+4/3 and 6, and kappa = 2 makes both
    # coercivity ratios exactly constant
    rpt = check_conditions(_power(4.0), 3, 2.0)
    assert {k: v.status for k, v in rpt.verdicts.items()} == {
        "F0": "pass",
        "F1": "pass",
        "F2": "pass",
        "F3": "pass",
        "F3prime": "pass",
        "H1_bracket": "pass",
    }
    assert rpt.all_pass


def test_supercritical_power_pointwise_constant_is_exact():
    # ((f t - 2F)/t^2)^2 / (3 f t - 10 F) = ((1/2)t^2)^2 / ((1/2) t^4) = 1/2
    rpt = check_conditions(_power(4.0), 3, 2.0)
    assert rpt.C0_estimate == pytest.approx(0.5, rel=1e-12)
    assert rpt.kappa_used == 2.0


def test_critical_power_fails_the_strict_upper_bracket():
    rpt = check_conditions(_power(6.0), 3, 2.0)
    v = rpt.verdicts["F2"]
    assert v.status == "fail"
    assert v.witness_t is not None
    assert "equality" in v.detail
    assert rpt.verdicts["H1_bracket"].status == "fail"


def test_zero_nonlinearity_fails_positivity():
    rpt = check_conditions(_ZERO, 3, 2.0)
    v = rpt.verdicts["F2"]
    assert v.status == "fail"
    assert v.witness_t is not None
    assert "positivity" in v.detail


# ----------------------------------------------------------------------------
# trend verdicts
# ----------------------------------------------------------------------------

def test_mixed_power_upper_bracket_is_inconclusive_not_pass():
    # the margin to the critical slope collapses as |t| grows, so strictness
    # for all t cannot be read off samples
    f = power_nonlinearity(problem(3, 1.0, 1.0, 4.0))
    rpt = check_conditions(f, 3, 2.0)
    v = rpt.verdicts["F2"]
    assert v.status == "inconclusive"
    assert v.t_range is not None
    assert v.t_range[1] == pytest.approx(1e6)
    assert rpt.verdicts["H1_bracket"].status == "inconclusive"
    assert rpt.verdicts["F0"].status == "pass"
    assert rpt.verdicts["F1"].status == "inconclusive"


def test_critical_power_coercivity_ratio_diverges():
    rpt = check_conditions(_power(6.0), 3, 2.0)
    assert rpt.verdicts["F3"].status == "fail"
    assert rpt.verdicts["F3"].witness_t == pytest.approx(1e6)


def test_kappa_choice_matters_for_the_growth_ratio():
    # at kappa = 3 the p = 4 ratio grows like t^2 and the certification flips
    rpt = check_conditions(_power(4.0), 3, 3.0)
    assert rpt.verdicts["F3"].status == "fail"
    assert rpt.verdicts["F3prime"].status == "fail"


def test_mass_critical_power_blocks_the_pointwise_bound():
    # at q = 2+4/N the right side N f t - (2N+4) F vanishes identically
    # while the left side is positive: no C0 can work
    qbar = 2.0 + 4.0 / 3.0
    rpt = check_conditions(_power(qbar), 3, 2.0)
    assert rpt.verdicts["F2"].status == "pass"       # equality allowed below
    assert rpt.verdicts["H1_bracket"].status == "fail"  # but not strictly
    v = rpt.verdicts["F3prime"]
    assert v.status == "fail"
    assert v.witness_t is not None


# ----------------------------------------------------------------------------
# report mechanics
# ----------------------------------------------------------------------------

def test_reports_are_deterministic():
    a = check_conditions(_power(4.0), 3, 2.0).as_dict()
    b = check_conditions(_power(4.0), 3, 2.0).as_dict()
    assert a == b


def test_report_serializes_to_strict_json():
    rpt = check_conditions(_ZERO, 3, 2.0)   # produces nan/inf ratios inside
    text = json.dumps(rpt.as_dict(), allow_nan=False)
    assert "Infinity" not in text


def test_positive_samples_are_mirrored():
    rpt = check_conditions(_power(4.0), 3, 2.0,
                           t_samples=np.geomspace(1e-6, 1e6, 61))
    assert np.any(rpt.t_samples < 0.0)
    assert np.any(rpt.t_samples > 0.0)
    assert rpt.all_pass


def test_fail_verdicts_must_carry_a_witness():
    with pytest.raises(ParameterError):
        Verdict("fail", "broken")
    with pytest.raises(ParameterError):
        Verdict("inconclusive", "unclear")
    with pytest.raises(ParameterError):
        Verdict("maybe")


def test_guards_on_kappa_and_samples():
    with pytest.raises(ParameterError, match="kappa"):
        check_conditions(_power(4.0), 3, 1.5)
    with pytest.raises(ParameterError, match="span"):
        check_conditions(_power(4.0), 3, 2.0,
                         t_samples=np.geomspace(1e-3, 1e3, 40))
    with pytest.raises(ParameterError, match="N must be"):
        check_conditions(_power(4.0), 2, 2.0)
    with pytest.raises(ParameterError, match="nonzero"):
        check_conditions(_power(4.0), 3, 2.0, t_samples=[0.0])


def test_non_finite_evaluation_names_the_point():
    # f(t) = t log t is NaN for t < 0, first met at the sample t = -1e6
    g = GeneralNonlinearity(
        lambda t: np.asarray(t, dtype=float) * np.log(t),
        lambda t: np.asarray(t, dtype=float) ** 2 * (np.log(t) / 2 - 0.25),
        label="t log t",
    )
    with pytest.raises(NumericalError, match="t = -1e\\+06"):
        check_conditions(g, 3, 2.0)

