import importlib
import math

import numpy as np
import pytest

from triso.invariants import InvariantTuple, smith_bao
from triso.reference_cases import (
    SIN_3T0_CLOSED_FORM,
    GapReport,
    f_of_t,
    f_root,
    i6_gap_check,
    reference_cases,
    run_report,
)


def test_six_cases_reproduce():
    cases = reference_cases()
    assert len(cases) == 6
    for case in cases:
        assert case.max_relative_error() <= 1e-12, case.label


def test_case_expected_values_are_closed_forms():
    # the expected I2 column: 4 sqrt(3), 6 sqrt(2), 12, 12, 10, 10
    i2s = [case.expected.i2 for case in reference_cases()]
    assert i2s == [
        4.0 * math.sqrt(3.0),
        6.0 * math.sqrt(2.0),
        12.0,
        12.0,
        10.0,
        10.0,
    ]


def test_last_two_cases_differ_only_in_i10_sign():
    a, b = reference_cases()[-2:]
    assert a.expected.i10 == 64.0
    assert b.expected.i10 == -64.0
    assert (a.expected.i2, a.expected.i4, a.expected.i6) == (
        b.expected.i2,
        b.expected.i4,
        b.expected.i6,
    )


def test_f_endpoint_values_are_exact():
    assert f_of_t(0.0) == -42.0
    assert f_of_t(math.pi / 6.0) == 40.0


def test_f_of_t_formula():
    # independent transcription: f = -43 + cos 6t + 84 sin 3t
    for t in np.linspace(0.0, math.pi / 6.0, 50):
        want = -43.0 + math.cos(6.0 * t) + 84.0 * math.sin(3.0 * t)
        assert f_of_t(float(t)) == pytest.approx(want, abs=1e-14)


def test_f_root_bracket_and_closed_form():
    t0 = f_root()
    assert 0.0 < t0 < math.pi / 6.0
    assert abs(f_of_t(t0)) < 1e-10
    # the root satisfies sin^2(3t) - 42 sin(3t) + 21 = 0, smaller branch
    s = math.sin(3.0 * t0)
    assert abs(s - SIN_3T0_CLOSED_FORM) < 1e-12
    assert abs(s * s - 42.0 * s + 21.0) < 1e-9


def test_f_root_below_any_reachable_tolerance_exhausts_the_bisection_bound(monkeypatch):
    # no |f| is below a negative tolerance (at 0, a midpoint where f rounds
    # to exactly 0.0 would still stop it), so all 200 halvings run; once the
    # bracket is two adjacent doubles every midpoint rounds to one of its
    # ends, and t0 is still the root to a rounding
    module = importlib.import_module("triso.reference_cases")
    monkeypatch.setattr(module, "ROOT_TOL", -1.0)
    seen = []

    def counting(t):
        seen.append(t)
        return f_of_t(t)

    monkeypatch.setattr(module, "f_of_t", counting)
    t0 = f_root()
    assert len(seen) == 1 + 200
    assert abs(math.sin(3.0 * t0) - SIN_3T0_CLOSED_FORM) <= 1e-15


def test_sin_3t0_closed_form_constant():
    assert SIN_3T0_CLOSED_FORM == 21.0 - math.sqrt(420.0)


def test_gap_report_values():
    gap = i6_gap_check()
    assert isinstance(gap, GapReport)
    assert gap.passed
    assert gap.failures == ()
    # shared invariants
    assert gap.low.i2 == pytest.approx(20.0, rel=1e-12)
    assert gap.high.i2 == pytest.approx(20.0, rel=1e-12)
    assert gap.low.i4 == pytest.approx(176.0, rel=1e-12)
    assert gap.high.i4 == pytest.approx(176.0, rel=1e-12)
    assert abs(gap.low.i10) <= 1e-9
    assert gap.high.i10 == 0.0
    # the separation
    assert gap.low.i6 < 104.0 < gap.high.i6
    assert gap.high.i6 == pytest.approx(128.0, rel=1e-12)
    assert gap.low.i6 == pytest.approx(104.0 - 24.0 * gap.sin_3t0, rel=1e-12)
    # same number by the radical closed form
    assert gap.low.i6 == pytest.approx(-400.0 + 24.0 * math.sqrt(420.0), rel=1e-10)
    assert gap.i6_low_expected == pytest.approx(gap.low.i6, rel=1e-10)


def test_gap_report_names_each_failing_value_and_the_violated_gap(monkeypatch):
    # a smith_bao that returns one fixed tuple for both tensors breaks most
    # expected values, and the gap: low I6 = high I6 = 104
    module = importlib.import_module("triso.reference_cases")
    monkeypatch.setattr(module, "smith_bao", lambda t: InvariantTuple(20.0, 176.0, 104.0, 1.0))
    gap = i6_gap_check()
    assert not gap.passed
    assert gap.failures[0].startswith("low I6: got 104, want ")
    assert gap.failures[2:] == (
        "low I10: got 1, want 0",
        "high I6: got 104, want 128",
        "high I10: got 1, want 0",
        "gap violated: 104 < 104 < 104 fails",
    )
    assert gap.failures[1].startswith("low I6 (closed form): got 104, want ")
    assert gap.to_json_obj()["pass"] is False


def test_gap_tensors_share_three_invariants_but_not_i6():
    gap = i6_gap_check()
    # the whole point: (I2, I4, I10) identical, I6 split by a finite margin
    assert abs(gap.low.i2 - gap.high.i2) < 1e-9
    assert abs(gap.low.i4 - gap.high.i4) < 1e-9
    assert abs(gap.low.i10 - gap.high.i10) < 1e-8
    assert gap.high.i6 - gap.low.i6 > 36.0


def test_run_report_shape_and_pass():
    report = run_report()
    assert set(report) == {"cases", "f_root", "gap", "pass"}
    assert report["pass"] is True
    assert len(report["cases"]) == 6
    for row in report["cases"]:
        assert row["pass"] is True
        assert set(row) == {"label", "expected", "computed", "max_rel_err", "pass"}
    root = report["f_root"]
    assert root["pass"] is True
    assert root["deviation"] <= 1e-10
    assert report["gap"]["pass"] is True


def test_run_report_respects_case_tol(monkeypatch):
    # at an impossible tolerance only the two integer-valued cases survive:
    # their invariants are exact in floats (error 0.0); the four cases with
    # irrational components carry a few ulps of error and must fail
    monkeypatch.setattr(importlib.import_module("triso.reference_cases"), "CASE_TOL", 1e-30)
    report = run_report()
    assert report["pass"] is False
    survivors = [row["label"] for row in report["cases"] if row["pass"]]
    assert survivors == ["d111=d112=1", "d111=d123=1"]


def test_run_report_fails_the_f_root_row_alone_when_the_closed_form_moves(monkeypatch):
    # the module, not the function of the same name that the package exports
    module = importlib.import_module("triso.reference_cases")
    monkeypatch.setattr(module, "SIN_3T0_CLOSED_FORM", SIN_3T0_CLOSED_FORM + 1e-9)
    report = run_report()
    assert report["f_root"]["pass"] is False
    assert report["f_root"]["deviation"] == pytest.approx(1e-9, rel=1e-3)
    assert report["pass"] is False
    assert all(row["pass"] for row in report["cases"])
    assert report["gap"]["pass"] is True


def test_run_report_evaluates_each_construction_once(monkeypatch):
    # one smith_bao per fixed case and per gap tensor, and one bisection
    module = importlib.import_module("triso.reference_cases")
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(module, name, wrapped)

    counting("smith_bao", module.smith_bao)
    counting("f_root", module.f_root)
    report = run_report()
    assert calls.count("smith_bao") == len(reference_cases()) + 2
    assert calls.count("f_root") == 1
    assert report["f_root"]["t0"] == report["gap"]["t0"] == f_root()


def test_case_tensors_recompute():
    for case in reference_cases():
        got = smith_bao(case.tensor).as_array()
        want = case.expected.as_array()
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))
