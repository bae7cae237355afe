"""Top-level acceptance gate: nine fixed criteria, one test each.

Every test prints a single verdict line (bypassing capture) so a full run
shows the scoreboard at a glance, then asserts.  Expected values, sample
counts, tolerances, and runtime budgets are pinned here on purpose — edits
to this module should be rare and deliberate.
"""

import math
import time

import numpy as np

from triso.canonical_form import canonicalize
from triso.independence import det_jacobian_closed_form, independence_report
from triso.invariants import (
    CanonicalParams,
    canonical_invariants,
    relative_error,
    smith_bao,
)
from triso.orbit_oracle import best_alignment, same_orbit
from triso.reference_cases import (
    SIN_3T0_CLOSED_FORM,
    f_of_t,
    f_root,
    i6_gap_check,
    reference_cases,
)
from triso.tensor_core import (
    COMPONENT_NAMES,
    SymTraceless3,
    act,
    compress,
    expand,
    random_orthogonal,
    random_tensor,
)

DEGREES = (2, 4, 6, 10)


def _verdict(capsys, num, name, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    with capsys.disabled():
        print(f"[acceptance] criterion {num} ({name}): {status}{timing}")
    assert not failures, "; ".join(failures[:10])


def _check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def _scaled(t: SymTraceless3, c: float) -> SymTraceless3:
    return SymTraceless3(*(c * t.as_array()))


def test_criterion_1_reference_cases(capsys):
    expected = {
        "d111=3^(1/4)": (4.0 * math.sqrt(3.0), 24.0, 0.0, 0.0),
        "d112=2^(1/4)": (6.0 * math.sqrt(2.0), 24.0, 0.0, 0.0),
        "d111=sqrt(3)": (12.0, 72.0, 0.0, 0.0),
        "d112=sqrt(2)": (12.0, 48.0, 0.0, 0.0),
        "d111=d112=1": (10.0, 44.0, 16.0, 64.0),
        "d111=d123=1": (10.0, 44.0, 16.0, -64.0),
    }
    failures = []
    start = time.perf_counter()
    cases = reference_cases()
    _check(failures, sorted(c.label for c in cases) == sorted(expected), "case labels changed")
    for case in cases:
        got = smith_bao(case.tensor).as_array()
        for name, g, e in zip(("I2", "I4", "I6", "I10"), got, expected[case.label]):
            _check(
                failures,
                relative_error(float(g), e) <= 1e-12,
                f"{case.label} {name}: got {g:.17g}, want {e:.17g}",
            )
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    _verdict(capsys, 1, "fixed reference cases", failures, elapsed)


def test_criterion_2_f_root_gap(capsys):
    failures = []
    start = time.perf_counter()
    _check(failures, f_of_t(0.0) == -42.0, f"f(0) = {f_of_t(0.0)!r}, want -42 exactly")
    _check(failures, f_of_t(math.pi / 6.0) == 40.0, f"f(pi/6) = {f_of_t(math.pi / 6.0)!r}")
    t0 = f_root()
    _check(
        failures,
        abs(math.sin(3.0 * t0) - SIN_3T0_CLOSED_FORM) <= 1e-10,
        f"sin(3 t0) = {math.sin(3.0 * t0):.17g}, closed form {SIN_3T0_CLOSED_FORM:.17g}",
    )
    gap = i6_gap_check()
    low, high = gap.low, gap.high
    i6_low = 104.0 - 24.0 * math.sin(3.0 * t0)
    for name, got, want in [
        ("low I2", low.i2, 20.0),
        ("low I4", low.i4, 176.0),
        ("low I6", low.i6, i6_low),
        ("high I2", high.i2, 20.0),
        ("high I4", high.i4, 176.0),
        ("high I6", high.i6, 128.0),
        ("high I10", high.i10, 0.0),
    ]:
        _check(
            failures,
            relative_error(float(got), want) <= 1e-10,
            f"{name}: got {got:.17g}, want {want:.17g}",
        )
    _check(failures, abs(low.i10) <= 1e-9, f"|low I10| = {abs(low.i10):.3g} > 1e-9")
    _check(failures, low.i6 < 104.0 < high.i6, f"gap not strict: {low.i6:.17g}, {high.i6:.17g}")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    _verdict(capsys, 2, "f-root gap construction", failures, elapsed)


def test_criterion_3_rotation_invariance(capsys):
    failures = []
    start = time.perf_counter()
    worst = 0.0
    for s in range(1000):
        t = random_tensor(s)
        g = random_orthogonal(5000 + s, proper=(s % 2 == 0))
        before = smith_bao(t).as_array()
        after = smith_bao(compress(act(g, expand(t)))).as_array()
        err = max(relative_error(float(a), float(b)) for a, b in zip(after, before))
        worst = max(worst, err)
    _check(failures, worst <= 1e-10, f"worst relative drift {worst:.3g} > 1e-10")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    _verdict(capsys, 3, "rotation invariance", failures, elapsed)


def test_criterion_4_homogeneity(capsys):
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for s in range(100):
        t = random_tensor(1000 + s)
        c = float(rng.uniform(0.1, 3.0))
        base = smith_bao(t).as_array()
        scaled = smith_bao(_scaled(t, c)).as_array()
        for got, b, k in zip(scaled, base, DEGREES):
            worst = max(worst, relative_error(float(got), float(b) * c**k))
    _check(failures, worst <= 1e-10, f"worst scaling-law error {worst:.3g} > 1e-10")
    elapsed = time.perf_counter() - start
    _verdict(capsys, 4, "homogeneity", failures, elapsed)


def test_criterion_5_canonicalization(capsys):
    failures = []
    start = time.perf_counter()
    successes = 0
    for s in range(500):
        t = random_tensor(s)
        result = canonicalize(t)
        canon = compress(act(result.transform, expand(t)))
        ok = (
            abs(canon.d112) <= 1e-9
            and abs(canon.d113) <= 1e-9
            and abs(canon.d222) <= 1e-9
            and canon.d111 >= -1e-12
        )
        if not ok:
            _check(failures, False, f"seed {s}: constraints violated {canon}")
            continue
        before = smith_bao(t).as_array()
        after = smith_bao(result.params.to_tensor()).as_array()
        drift = max(relative_error(float(a), float(b)) for a, b in zip(after, before))
        if drift > 1e-9:
            _check(failures, False, f"seed {s}: invariant drift {drift:.3g}")
            continue
        successes += 1
    _check(failures, successes == 500, f"success rate {successes}/500")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
    _verdict(capsys, 5, "canonicalization", failures, elapsed)


def test_criterion_6_dual_path_agreement(capsys):
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for row in rng.uniform(-2.0, 2.0, size=(500, 4)):
        params = CanonicalParams(*row)
        poly_path = canonical_invariants(params).as_array()
        slice_path = smith_bao(params.to_tensor()).as_array()
        worst = max(
            worst,
            max(relative_error(float(p), float(e)) for p, e in zip(poly_path, slice_path)),
        )
    _check(failures, worst <= 1e-10, f"worst dual-path gap {worst:.3g} > 1e-10")
    elapsed = time.perf_counter() - start
    _verdict(capsys, 6, "dual-path agreement", failures, elapsed)


def test_criterion_7_independence_evidence(capsys):
    failures = []
    start = time.perf_counter()
    report = independence_report(sample_count=1000, seed=0)
    _check(failures, report.samples == 1000, f"samples {report.samples} != 1000")
    _check(
        failures,
        report.rank4_fraction == 1.0,
        f"rank-4 fraction {report.rank4_fraction!r} != 1.0",
    )
    _check(
        failures,
        report.max_fd_deviation <= 1e-6,
        f"analytic vs finite-difference deviation {report.max_fd_deviation:.3g} > 1e-6",
    )
    _check(
        failures,
        report.max_det_mismatch <= 1e-8,
        f"det transcription mismatch {report.max_det_mismatch:.3g} > 1e-8",
    )
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.uniform(-2.0, 2.0, size=4)
        on_d123 = det_jacobian_closed_form([p[0], p[1], 0.0, p[3]])
        on_d223 = det_jacobian_closed_form([p[0], p[1], p[2], 0.0])
        _check(failures, on_d123 == 0.0, f"det on d123=0 hyperplane: {on_d123!r}")
        _check(failures, on_d223 == 0.0, f"det on d223=0 hyperplane: {on_d223!r}")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 30.0, f"runtime {elapsed:.2f}s >= 30s")
    _verdict(capsys, 7, "independence evidence", failures, elapsed)


def test_criterion_8_orbit_oracle_crossval(capsys):
    failures = []
    start = time.perf_counter()
    agree = 0
    judged = 0
    for s in range(200):
        a = random_tensor(s)
        g = random_orthogonal(10_000 + s, proper=(s % 2 == 0))
        b = compress(act(g, expand(a)))
        verdict = same_orbit(a, b)
        if verdict != "borderline":
            judged += 1
            agree += verdict == "same"
        res = best_alignment(a, b, "O(3)").residual
        if res > 1e-8:
            _check(failures, False, f"planted seed {s}: residual {res:.3g} > 1e-8")
    for s in range(200):
        a = random_tensor(20_000 + s)
        b = random_tensor(30_000 + s)
        verdict = same_orbit(a, b)
        if verdict != "borderline":
            judged += 1
            agree += verdict == "different"
        norm = max(expand(a).frobenius(), expand(b).frobenius())
        res = best_alignment(a, b, "O(3)").residual
        if res <= 1e-3 * norm:
            _check(failures, False, f"random seed {s}: residual {res:.3g} <= 1e-3*norm")
    _check(failures, judged > 0, "every pair came back borderline")
    _check(failures, agree == judged, f"agreement {agree}/{judged} != 100%")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 120.0, f"runtime {elapsed:.2f}s >= 120s")
    _verdict(capsys, 8, "orbit oracle cross-validation", failures, elapsed)


def test_criterion_9_invariant_bounds(capsys):
    failures = []
    start = time.perf_counter()

    def slack(x):
        return 1e-9 * max(1.0, abs(x))

    for s in range(10_000):
        tup = smith_bao(random_tensor(s))
        i2, i4, i6, i10 = tup.i2, tup.i4, tup.i6, tup.i10
        if i2 < -slack(i2):
            _check(failures, False, f"seed {s}: I2 = {i2:.3g} < 0")
        if i6 < -slack(i6):
            _check(failures, False, f"seed {s}: I6 = {i6:.3g} < 0")
        lo, hi = i2 * i2 / 3.0, i2 * i2
        if not (lo - slack(lo) <= i4 <= hi + slack(hi)):
            _check(failures, False, f"seed {s}: I4 = {i4:.3g} outside [{lo:.3g}, {hi:.3g}]")
        bound = math.sqrt(max(i2, 0.0)) * max(i6, 0.0) ** 1.5
        if abs(i10) > bound + slack(bound):
            _check(failures, False, f"seed {s}: |I10| = {abs(i10):.3g} > {bound:.3g}")
        if len(failures) > 20:
            break
    elapsed = time.perf_counter() - start
    _verdict(capsys, 9, "invariant bounds", failures, elapsed)
