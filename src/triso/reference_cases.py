"""Fixed reference tensors with exactly known invariant values.

Six hand-picked tensors come in pairs that agree on three of the four
invariants and differ in the fourth, so no invariant is recoverable from
the others: the basis is irredundant as a *function* basis, not merely as a
polynomial one.  The pair separating I6 needs a less obvious construction:
a root t0 of f(t) = -43 + cos(6t) + 84 sin(3t) in (0, pi/6) parameterizes a
tensor whose I6 lands strictly below 104 while a second tensor with the
same I2, I4, I10 lands at 128.

Expected values are stored as exact expressions evaluated at import time
(4*sqrt(3), not 6.9282...), so the tables carry no rounding of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .invariants import InvariantTuple, relative_error, smith_bao
from .components import SymTraceless3

__all__ = [
    "ReferenceCase",
    "GapReport",
    "reference_cases",
    "f_of_t",
    "f_root",
    "i6_gap_check",
    "run_report",
]

# sin(3 t0) at the root of f: substituting cos 6t = 1 - 2 sin^2(3t) turns
# f(t) = 0 into sin^2(3t) - 42 sin(3t) + 21 = 0, whose root in [0, 1] is
SIN_3T0_CLOSED_FORM = 21.0 - math.sqrt(420.0)

# |f(t0)| at which the bisection stops, and the relative tolerances at
# which the fixed cases and the I6 gap pair pass.
ROOT_TOL = 1e-13
CASE_TOL = 1e-12
GAP_TOL = 1e-9


@dataclass(frozen=True)
class ReferenceCase:
    """A tensor whose invariant tuple is known in closed form."""

    label: str
    tensor: SymTraceless3
    expected: InvariantTuple
    purpose: str

    def max_relative_error(self) -> float:
        return _max_relative_error(smith_bao(self.tensor), self.expected)


def _max_relative_error(computed: InvariantTuple, expected: InvariantTuple) -> float:
    return max(relative_error(getattr(computed, name), getattr(expected, name)) for name in ("i2", "i4", "i6", "i10"))


def reference_cases() -> list[ReferenceCase]:
    """The six fixed cases, in pairs separating I2, I4, and I10."""
    i2_note = "same I4, I6, I10 as its partner but different I2"
    i4_note = "same I2, I6, I10 as its partner but different I4"
    i10_note = "same I2, I4, I6 as its partner but I10 of opposite sign"
    return [
        ReferenceCase(
            "d111=3^(1/4)",
            SymTraceless3(d111=3 ** 0.25),
            InvariantTuple(4 * math.sqrt(3.0), 24.0, 0.0, 0.0),
            i2_note,
        ),
        ReferenceCase(
            "d112=2^(1/4)",
            SymTraceless3(d112=2 ** 0.25),
            InvariantTuple(6 * math.sqrt(2.0), 24.0, 0.0, 0.0),
            i2_note,
        ),
        ReferenceCase(
            "d111=sqrt(3)",
            SymTraceless3(d111=math.sqrt(3.0)),
            InvariantTuple(12.0, 72.0, 0.0, 0.0),
            i4_note,
        ),
        ReferenceCase(
            "d112=sqrt(2)",
            SymTraceless3(d112=math.sqrt(2.0)),
            InvariantTuple(12.0, 48.0, 0.0, 0.0),
            i4_note,
        ),
        ReferenceCase(
            "d111=d112=1",
            SymTraceless3(d111=1.0, d112=1.0),
            InvariantTuple(10.0, 44.0, 16.0, 64.0),
            i10_note,
        ),
        ReferenceCase(
            "d111=d123=1",
            SymTraceless3(d111=1.0, d123=1.0),
            InvariantTuple(10.0, 44.0, 16.0, -64.0),
            i10_note,
        ),
    ]


def f_of_t(t: float) -> float:
    """f(t) = -43 + cos(6t) + 84 sin(3t); f(0) = -42 and f(pi/6) = 40 exactly."""
    return -43.0 + math.cos(6.0 * t) + 84.0 * math.sin(3.0 * t)


def f_root() -> float:
    """Bisection root of f in (0, pi/6), to |f(t0)| <= ROOT_TOL.

    The sign change f(0) f(pi/6) = -42 * 40 < 0 guarantees a root; it is
    cross-checked elsewhere against sin(3 t0) = 21 - sqrt(420).
    """
    lo, hi = 0.0, math.pi / 6.0
    f_lo = f_of_t(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f_of_t(mid)
        if abs(f_mid) <= ROOT_TOL:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class GapReport:
    """Two tensors sharing I2 = 20, I4 = 176, I10 = 0 but separated in I6.

    The first tensor's I6 = 104 - 24 sin(3 t0) = -400 + 24 sqrt(420) is
    strictly below 104; the second's is 128.  Any single-valued dependence
    of I6 on the other three would contradict the strict gap.
    """

    t0: float
    sin_3t0: float
    low: InvariantTuple
    high: InvariantTuple
    i6_low_expected: float
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "t0": self.t0,
            "sin_3t0": self.sin_3t0,
            "low": self.low.to_json_obj(),
            "high": self.high.to_json_obj(),
            "i6_low_expected": self.i6_low_expected,
            "pass": self.passed,
        }


def i6_gap_check() -> GapReport:
    """Build the gap pair and verify every expected value at relative GAP_TOL."""
    t0 = f_root()
    sin_3t0 = math.sin(3.0 * t0)
    low_tensor = SymTraceless3(
        d111=1.0,
        d122=-0.5 + 0.5 * math.sin(t0),
        d123=0.5 * math.cos(t0),
        d223=-2.0,
    )
    high_tensor = SymTraceless3(d111=1.0, d112=1.0, d113=1.0, d123=1.0)
    low = smith_bao(low_tensor)
    high = smith_bao(high_tensor)
    i6_low_expected = 104.0 - 24.0 * sin_3t0

    failures = []

    def check(name, got, want):
        if not relative_error(got, want) <= GAP_TOL:  # not >, so that a nan fails too
            failures.append(f"{name}: got {got:.17g}, want {want:.17g}")

    check("low I2", low.i2, 20.0)
    check("low I4", low.i4, 176.0)
    check("low I6", low.i6, i6_low_expected)
    check("low I6 (closed form)", low.i6, -400.0 + 24.0 * math.sqrt(420.0))
    check("low I10", low.i10, 0.0)
    check("high I2", high.i2, 20.0)
    check("high I4", high.i4, 176.0)
    check("high I6", high.i6, 128.0)
    check("high I10", high.i10, 0.0)
    if not (low.i6 < 104.0 < high.i6):
        failures.append(f"gap violated: {low.i6:.17g} < 104 < {high.i6:.17g} fails")
    return GapReport(t0, sin_3t0, low, high, i6_low_expected, tuple(failures))


def run_report() -> dict:
    """Evaluate every reference construction; JSON-ready result.

    The report carries one entry per fixed case (passing at relative
    CASE_TOL), the f-root block, and the I6 gap block (``i6_gap_check``),
    each with its own pass flag plus an overall one.  Each case's invariants
    are evaluated once, and the f-root block reads the gap check's t0.
    """
    case_rows = []
    for case in reference_cases():
        computed = smith_bao(case.tensor)
        err = _max_relative_error(computed, case.expected)
        case_rows.append(
            {
                "label": case.label,
                "expected": case.expected.to_json_obj(),
                "computed": computed.to_json_obj(),
                "max_rel_err": err,
                "pass": err <= CASE_TOL,
            }
        )
    gap = i6_gap_check()
    root_dev = abs(gap.sin_3t0 - SIN_3T0_CLOSED_FORM)
    root_row = {
        "t0": gap.t0,
        "f_at_t0": f_of_t(gap.t0),
        "sin_3t0": gap.sin_3t0,
        "closed_form": SIN_3T0_CLOSED_FORM,
        "deviation": root_dev,
        "pass": root_dev <= 1e-10 and f_of_t(0.0) == -42.0 and f_of_t(math.pi / 6.0) == 40.0,
    }
    overall = all(row["pass"] for row in case_rows) and root_row["pass"] and gap.passed
    return {
        "cases": case_rows,
        "f_root": root_row,
        "gap": gap.to_json_obj(),
        "pass": overall,
    }
