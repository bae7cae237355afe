"""Tests of the benchmark's reference code, output checks and tracing.

    python -m pytest -q perfbench/tests

Each check must accept the program's true output and reject a corrupted
copy of it; the reference code must reproduce the paper's closed forms.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from triso import canonical_form, independence, orbit_oracle, tensor_core  # noqa: E402

from perfbench import checks as ck  # noqa: E402
from perfbench import reference as ref  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.workloads import _import_times, triso_modules  # noqa: E402

RUN_REPORT = triso_modules()["reference_cases"].run_report


@pytest.mark.parametrize("label,c7,want", ref.REFERENCE_CASES, ids=[c[0] for c in ref.REFERENCE_CASES])
def test_reference_reproduces_the_six_cases(label, c7, want):
    got = ref.invariants(ref.full(c7))
    assert ref.invariant_gap(got, want, ref.frobenius(ref.full(c7))) <= 1e-14


def test_reference_reproduces_the_gap_pair():
    assert abs(-43.0 + math.cos(6 * ref.T0) + 84.0 * math.sin(3 * ref.T0)) <= 1e-12
    assert 0.0 < ref.T0 < math.pi / 6
    for c7, want in zip((ref.GAP_LOW, ref.GAP_HIGH), ref.GAP_EXPECTED):
        got = ref.invariants(ref.full(c7))
        assert ref.invariant_gap(got, want, ref.frobenius(ref.full(c7))) <= 1e-14
    assert ref.I6_GAP_LOW < 104.0 < ref.GAP_EXPECTED[1][2]


def test_reference_expansion_is_symmetric_traceless_and_invertible():
    c7 = np.random.default_rng(0).normal(size=7)
    arr = ref.full(c7)
    for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.array_equal(arr, arr.transpose(perm))
    assert np.max(np.abs(np.einsum("iik->k", arr))) <= 1e-15
    assert np.array_equal(ref.seven(arr), c7)


def test_reference_haar_elements_have_the_requested_determinant():
    rng = np.random.default_rng(1)
    for proper in (True, False):
        g = ref.haar(rng, proper)
        assert np.max(np.abs(g.T @ g - np.eye(3))) <= 1e-14
        assert np.sign(np.linalg.det(g)) == (1 if proper else -1)


# -- canonicalize -------------------------------------------------------------

@pytest.fixture(scope="module")
def canonical():
    c7 = np.random.default_rng(2).normal(size=7) * 3.0
    out = canonical_form.canonicalize(tensor_core.SymTraceless3(*c7))
    return c7, out.params.as_array(), out.transform.m, out.transform.det_sign, out.max_value


def test_canonical_check_accepts_true_output(canonical):
    assert ck.check_canonical(*canonical) is None


@pytest.mark.parametrize("index", range(4))
def test_canonical_check_rejects_a_perturbed_parameter(canonical, index):
    c7, params, rotation, det_sign, max_value = canonical
    params = params.copy()
    params[index] += 1e-7 * ref.frobenius(ref.full(c7))
    assert ck.check_canonical(c7, params, rotation, det_sign, max_value) is not None


def test_canonical_check_rejects_a_transposed_rotation(canonical):
    c7, params, rotation, det_sign, max_value = canonical
    assert not np.allclose(rotation, rotation.T)
    assert ck.check_canonical(c7, params, rotation.T, det_sign, max_value) is not None


def test_canonical_check_rejects_an_improper_rotation(canonical):
    c7, params, rotation, _, max_value = canonical
    assert ck.check_canonical(c7, params, -rotation, -1, max_value) is not None
    assert ck.check_canonical(c7, params, -rotation, 1, max_value) is not None
    flipped = rotation.copy()
    flipped[2] *= -1.0  # keeps e1 and e2, so only the determinant is wrong
    assert ck.check_canonical(c7, params, flipped, 1, max_value) is not None


def test_canonical_check_rejects_a_local_maximum():
    # d111 = 1 has its global maximum 1 at +e1; at -e1 it is a local minimum,
    # and the rotation taking -e1 to e1 still meets every constraint
    c7 = np.array([1.0, 0, 0, 0, 0, 0, 0])
    g = np.diag([-1.0, -1.0, 1.0])
    params = ref.seven(ref.act(g, ref.full(c7)))[[0, 3, 4, 6]]
    assert ck.check_canonical(c7, params, g, 1, params[0]) is not None
    assert ck.check_canonical(c7, c7[[0, 3, 4, 6]], np.eye(3), 1, 1.0) is None


def test_same_params_check():
    p = np.array([1.0, 0.2, -0.3, 0.4])
    assert ck.check_same_params(p, p + 1e-13, 1.0) is None
    assert ck.check_same_params(p, p + np.array([0, 1e-6, 0, 0]), 1.0) is not None


# -- invariants ---------------------------------------------------------------

def test_invariant_check_accepts_a_true_zero():
    # d111 = sqrt(3) has I6 = I10 = 0 exactly; roundoff-level values pass,
    # where a relative error against the true value 0 would be infinite
    c7 = ref.REFERENCE_CASES[2][1]
    assert ck.check_invariants((12.0, 72.0, 1e-30, -1e-40), c7) is None
    assert ck.check_invariants((12.0, 72.0, 0.0, 0.0), c7) is None
    low = ref.invariants(ref.full(ref.GAP_LOW))
    assert ck.check_invariants((20.0, 176.0, ref.I6_GAP_LOW, 0.0), ref.GAP_LOW) is None
    assert abs(low[3]) < 1e-9


def test_invariant_check_rejects_a_wrong_value():
    c7 = ref.REFERENCE_CASES[2][1]
    assert ck.check_invariants((12.0, 72.0, 1e-6, 0.0), c7) is not None
    assert ck.check_invariants((12.0 * (1 + 1e-8), 72.0, 0.0, 0.0), c7) is not None


def test_rotation_invariance_and_bounds_checks():
    got = np.array([(10.0, 44.0, 16.0, 64.0)] * 3)
    moved = got.copy()
    moved[1, 3] = -64.0
    errors = ck.rotation_errors(got, moved, np.full(3, math.sqrt(10.0)))
    assert [e is None for e in errors] == [True, False, True]
    bad = got.copy()
    bad[1, 1] = 101.0
    bad[2, 3] = 10.0 * 64.0
    assert [e is None for e in ck.bound_errors(bad)] == [True, False, False]


def test_batched_invariant_check_flags_only_the_wrong_row():
    c7s = np.random.default_rng(6).normal(size=(5, 7)) * np.logspace(-3, 3, 5)[:, None]
    got = ref.invariants(ref.full(c7s))
    assert ck.invariant_errors(got, c7s) == [None] * 5
    got[3, 2] *= 1 + 1e-6
    assert [e is None for e in ck.invariant_errors(got, c7s)] == [True, True, True, False, True]


# -- orbit ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted():
    rng = np.random.default_rng(3)
    a7 = rng.normal(size=7)
    b7 = ref.seven(ref.act(ref.haar(rng, False), ref.full(a7)))
    a, b = tensor_core.SymTraceless3(*a7), tensor_core.SymTraceless3(*b7)
    out = orbit_oracle.best_alignment(a, b, "O(3)")
    return a7, b7, out.best_transform.m, out.residual, orbit_oracle.same_orbit(a, b)


def test_alignment_check_accepts_true_output(planted):
    a7, b7, g, residual, verdict = planted
    assert ck.check_alignment(a7, b7, g, residual, True) is None
    assert ck.check_verdict(verdict, True) is None


def test_alignment_check_rejects_a_wrong_transform(planted):
    a7, b7, g, residual, _ = planted
    other = ref.haar(np.random.default_rng(4), True)
    assert ck.check_alignment(a7, b7, other, residual, True) is not None
    assert ck.check_alignment(a7, b7, g.T, residual, True) is not None
    assert ck.check_alignment(a7, b7, g, residual + 1e-3, True) is not None


def test_alignment_check_rejects_an_aligned_independent_pair(planted):
    a7, b7, g, residual, _ = planted
    assert ck.check_alignment(a7, b7, g, residual, False) is not None
    assert ck.check_cli_residual(residual, False, 1.0) is not None
    assert ck.check_cli_residual(residual, True, 1.0) is None
    assert ck.check_cli_residual(None, True, 1.0) is not None


def test_verdict_check_rejects_a_flipped_verdict():
    assert ck.check_verdict("different", True) is not None
    assert ck.check_verdict("same", False) is not None
    assert ck.check_verdict("borderline", False) is not None
    assert ck.check_verdict("different", False) is None


# -- evidence -------------------------------------------------------------------

def test_independence_check_rejects_a_short_sample():
    report = independence.independence_report(20, 5)
    fields = (report.samples, report.degenerate, report.rank4_fraction)
    assert ck.check_independence(*fields, 20) is None
    assert ck.check_independence(*fields, 21) is not None
    assert ck.check_independence(19, *fields[1:], 20) is not None
    assert ck.check_independence(report.samples, 1, *fields[2:], 20) is not None
    assert ck.check_independence(report.samples, 0, 0.95, 20) is not None


def test_det_check():
    c4 = np.array([0.7, -0.4, 1.1, 0.9])
    det = independence.det_jacobian_closed_form(c4)
    assert ck.check_det(c4, det) is None
    assert ck.check_det(c4, det * 1.01) is not None
    assert ck.check_det(c4, -det) is not None


def test_run_report_check():
    report = RUN_REPORT()
    assert ck.check_run_report(report) is None
    bad = RUN_REPORT()
    bad["cases"][4]["computed"]["I10"] = -64.0
    assert ck.check_run_report(bad) is not None
    bad = RUN_REPORT()
    bad["gap"]["low"]["I6"] = 105.0
    assert ck.check_run_report(bad) is not None
    bad = RUN_REPORT()
    bad["f_root"]["sin_3t0"] += 1e-9
    assert ck.check_run_report(bad) is not None


def test_cli_exact_check():
    assert ck.check_cli_exact('{"I2":10,"I4":44,"I6":16,"I10":64}\n') is None
    assert ck.check_cli_exact('{"I2":10.0,"I4":44,"I6":16,"I10":64}\n') is not None


# -- tracing --------------------------------------------------------------------

def test_tracing_records_spans_and_restores_the_program():
    tracer = tracing.Tracer()
    original = canonical_form.maximize_cubic_on_sphere
    uninstall = tracing.install(tracer)
    try:
        assert canonical_form.maximize_cubic_on_sphere is not original
        idx = tracer.open("canonical.generic")
        canonical_form.canonicalize(tensor_core.SymTraceless3(d111=1.0, d122=0.3, d123=0.2))
        tracer.close(idx, 1)
        idx = tracer.open("evidence.independence")
        independence.independence_report(5, 0)
        tracer.close(idx, 5)
    finally:
        uninstall()
    assert canonical_form.maximize_cubic_on_sphere is original
    metrics = tracing.per_layer(tracer, {})
    assert metrics["canonical_form.maximize_ms"][0] > 0
    assert metrics["canonical_form.ascent_iterations"][0] >= 1
    assert metrics["tensor_core.act_us"][0] > 0
    assert metrics["polynomials.poly_evals_per_point"][0] > 16
    assert metrics["independence.draws_per_point"][0] >= 1
    spans = tracing.Spans(tracer)
    assert np.all(spans.self_time >= 0)
    # the maximizer's span sits inside canonicalize's, inside the benchmark's
    (idx,) = spans.select("canonical_form.maximize")
    parent = spans.parent[idx]
    assert spans.names[spans.name[parent]] == "canonical_form.canonicalize"
    assert spans.names[spans.name[spans.root[idx]]] == "canonical.generic"


def test_import_time_parser():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   numpy.core\n"
        "import time:      1500 |     141258 | numpy\n"
        "import time:       300 |     602942 |     scipy.optimize\n"
    )
    got = _import_times(text)
    assert got["numpy"] == 141258 and got["scipy.optimize"] == 602942
