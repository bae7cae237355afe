import math
import warnings

import numpy as np
import pytest

from triso.independence import (
    GENERIC_VOLUME_FLOOR,
    JACOBIAN_TABLE,
    IndependenceReport,
    JacobianReport,
    det_jacobian_closed_form,
    gradient_volume,
    independence_report,
    jacobian_canonical,
    jacobian_report,
    _analytic,
    _det_signs,
    _measure,
    _sample_generic,
    _undecided,
)
from triso import independence
from triso.canonical_form import canonicalize
from triso.invariants import CanonicalParams, canonical_invariants, relative_error
from triso.polynomials import (
    CANONICAL_BASIS,
    DET_FACTOR_4,
    DET_FACTOR_10,
    I10_CANONICAL,
    NVARS,
    Poly,
    _MonomialTable,
)


def fd_jacobian(point, h_scale=1e-6):
    """Plain central differences straight off the polynomial tables."""
    point = np.asarray(point, dtype=float)
    jac = np.zeros((4, 4))
    for i, poly in enumerate(CANONICAL_BASIS):
        for j in range(4):
            h = h_scale * max(1.0, abs(point[j]))
            up = point.copy()
            dn = point.copy()
            up[j] += h
            dn[j] -= h
            jac[i, j] = (poly(up) - poly(dn)) / (2.0 * h)
    return jac


@pytest.mark.parametrize("seed", range(6))
def test_analytic_jacobian_matches_fd(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-2, 2, size=4)
    analytic = jacobian_canonical(p)
    fd = fd_jacobian(p)
    scale = np.maximum(1.0, np.abs(analytic))
    assert np.max(np.abs(analytic - fd) / scale) < 1e-4


def test_jacobian_row_i2_by_hand():
    # I2 = 4 a^2 + 6 ab + 6 b^2 + 6 c^2 + 4 d^2 for (a, b, c, d); at
    # (1, 0, 0, 0) the gradient is (8, 6, 0, 0)
    jac = jacobian_canonical([1.0, 0.0, 0.0, 0.0])
    assert jac[0].tolist() == [8.0, 6.0, 0.0, 0.0]


def test_jacobian_zero_point():
    assert np.array_equal(jacobian_canonical(np.zeros(4)), np.zeros((4, 4)))


def test_jacobian_modes():
    p = np.array([1.0, -0.5, 0.8, 1.2])
    a = jacobian_canonical(p, mode="analytic")
    f1 = jacobian_canonical(p, mode="fd")
    assert np.max(np.abs(a - f1)) < 1e-3
    for mode in ("symbolic", "finite-difference"):
        with pytest.raises(ValueError):
            jacobian_canonical(p, mode=mode)


def test_closed_form_det_matches_numeric_det():
    rng = np.random.default_rng(10)
    for _ in range(25):
        p = rng.uniform(-2, 2, size=4)
        det = float(np.linalg.det(jacobian_canonical(p)))
        closed = det_jacobian_closed_form(p)
        assert abs(det - closed) <= 1e-8 * max(1.0, abs(det))


def test_closed_form_det_at_a_cancelling_point():
    # drawn by independence_report(1000, 328303462); evaluating the
    # 120-term expansion instead of its factors misses the numeric
    # determinant by 3.1e-8 (relative) here
    p = [-1.9607660380223484, 0.9464339696371806, 0.018546923635382573, 1.358341864310883]
    det = float(np.linalg.det(jacobian_canonical(p)))
    assert relative_error(det, det_jacobian_closed_form(p)) <= 1e-10


@pytest.mark.parametrize(
    "p",
    [
        # drawn by independence_report(1000, s) for s = 1404448153 and
        # 843945411; central differences with step 1e-5 max(1, |c_i|)
        # deviated by 4.2e-6 and 1.1e-6 from the analytic I10 gradient
        [-1.9851349390001305, 1.9619484997660517, 0.2139597272694349, 0.015810499556993207],
        [-1.9566411975084077, 1.9618181931470726, 0.03651830016476909, 0.10410119056459521],
    ],
)
def test_fd_jacobian_matches_analytic_at_steep_points(p):
    assert jacobian_report(p).fd_deviation <= 1e-12


def test_fd_route_flags_a_slip_in_the_transcription(monkeypatch):
    # one coefficient of I10 off by one (-64 d111^7 d122^3 becomes -63),
    # planted in every table independence builds from the transcription: the
    # complex step differentiates the Smith-Bao contractions, not the
    # tables, so its Jacobian disagrees with the slipped analytic one
    slipped = I10_CANONICAL + Poly.variable(0) ** 7 * Poly.variable(1) ** 3
    basis = CANONICAL_BASIS[:3] + (slipped,)
    partials = tuple(p.diff(k) for p in basis for k in range(NVARS))
    analytic = _MonomialTable(partials + (DET_FACTOR_4, DET_FACTOR_10))
    monkeypatch.setattr(independence, "_ANALYTIC_TABLE", analytic)
    assert independence_report(200, 0).max_fd_deviation > 1e-3


def test_det_vanishes_exactly_on_hyperplanes():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(-2, 2, size=4)
        for idx in (2, 3):  # d123 = 0 and d223 = 0
            q = p.copy()
            q[idx] = 0.0
            assert det_jacobian_closed_form(q) == 0.0


def test_gradient_volume_unit_rows():
    # identity has volume 1 after row normalization; any zero row gives 0
    assert gradient_volume(np.eye(4)) == 1.0
    assert gradient_volume(5.0 * np.eye(4)) == pytest.approx(1.0)
    m = np.eye(4)
    m[2] = 0.0
    assert gradient_volume(m) == 0.0


def test_report_fields_and_genericity():
    p = np.array([1.0, -0.7, 1.3, 0.9])
    rep = jacobian_report(p)
    assert isinstance(rep, JacobianReport)
    assert rep.rank() == 4
    assert rep.is_generic()
    assert rep.volume() > GENERIC_VOLUME_FLOOR
    assert rep.fd_deviation <= 1e-6
    assert abs(rep.det - det_jacobian_closed_form(p)) <= 1e-8 * max(1.0, abs(rep.det))
    with pytest.raises(ValueError):
        rep.jac[0, 0] = 99.0  # read-only


def test_report_on_hyperplane_point_is_degenerate():
    rep = jacobian_report(np.array([1.0, -0.7, 0.0, 0.9]))
    assert det_jacobian_closed_form([1.0, -0.7, 0.0, 0.9]) == 0.0
    assert not rep.is_generic()


def test_independence_report_sampling():
    rep = independence_report(sample_count=200, seed=0)
    assert isinstance(rep, IndependenceReport)
    assert rep.samples == 200
    assert rep.degenerate == 0  # sampler filters degenerates out
    assert rep.rank4_fraction == 1.0
    assert rep.min_abs_det > 0.0
    assert rep.max_fd_deviation <= 1e-6
    assert rep.max_det_mismatch <= 1e-8


def test_independence_report_deterministic():
    a = independence_report(sample_count=100, seed=5)
    b = independence_report(sample_count=100, seed=5)
    assert a == b
    c = independence_report(sample_count=100, seed=6)
    assert a != c


def test_independence_report_json_keys():
    rep = independence_report(sample_count=50, seed=1)
    obj = rep.to_json_obj()
    assert list(obj) == ["samples", "rank4_fraction", "min_abs_det", "max_fd_deviation"]


def test_caller_points_with_degenerates_are_flagged():
    pts = np.array(
        [
            [1.0, -0.7, 1.3, 0.9],   # generic
            [1.0, -0.7, 0.0, 0.9],   # on the d123 = 0 hyperplane
            [0.5, 0.25, -1.0, 1.5],  # generic
        ]
    )
    rep = independence_report(points=pts)
    # samples counts the points the statistics cover, i.e. the generic ones
    assert rep.samples == 2
    assert rep.degenerate == 1
    assert rep.rank4_fraction == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_points_are_rejected_by_name(bad):
    p = [bad, 1.0, 1.0, 1.0]
    named = r"finite, got \[" + str(bad) + r", 1\.0, 1\.0, 1\.0\]"
    with pytest.raises(ValueError, match=named):
        independence_report(points=[[1.0, 0.5, 0.3, 0.2], p])
    with pytest.raises(ValueError, match=named):
        independence_report(points=[CanonicalParams(*p)])
    for call in (jacobian_report, jacobian_canonical, det_jacobian_closed_form):
        with pytest.raises(ValueError, match=named):
            call(p)
        with pytest.raises(ValueError, match=named):
            call(CanonicalParams(*p))


def test_independence_report_rejects_empty():
    with pytest.raises(ValueError):
        independence_report(sample_count=0)
    with pytest.raises(ValueError):
        independence_report(points=np.zeros((0, 4)))


def exact_det_signs(pts):
    """sign(d123) sign(d223) sign(F4) sign(F10), each factor correctly rounded by Poly.__call__."""
    return [np.sign(p[2]) * np.sign(p[3]) * np.sign(DET_FACTOR_4(p)) * np.sign(DET_FACTOR_10(p)) for p in pts.tolist()]


@pytest.mark.parametrize("seed", range(5))
def test_forced_exact_fallback_gives_the_same_signs_and_reports(monkeypatch, seed):
    sampled = _sample_generic(1000, np.random.default_rng(seed))
    report = independence_report(1000, seed)
    assert not np.any(_undecided(sampled[0], _analytic(sampled[0])[2]))  # no sampled point falls back
    monkeypatch.setattr(independence, "_SIGN_BOUND", math.inf)
    assert np.all(_undecided(sampled[0], _analytic(sampled[0])[2]))
    forced = _sample_generic(1000, np.random.default_rng(seed))
    assert np.array_equal(forced[-1], sampled[-1]) and np.all(sampled[-1] != 0)
    assert independence_report(1000, seed) == report


def test_filtered_signs_are_exact_at_mixed_scale_points():
    # where the table is least accurate: coordinates 2^-40 to 2^40 apart
    rng = np.random.default_rng(1)
    pts = rng.choice([-1.0, 1.0], (2000, 4)) * 2.0 ** rng.uniform(-40, 40, (2000, 4))
    factors = _analytic(pts)[2]
    decided = ~_undecided(pts, factors)
    assert np.array_equal(_det_signs(pts, factors), exact_det_signs(pts))
    # the filter decides 946 of them; at the rest a factor sits far below
    # its bound's scale, as where d223, which F4 lacks, is the largest
    # coordinate, and the exact sum decides
    assert np.sum(decided) > 500


def test_rank4_fraction_reads_a_point_without_a_proven_sign(monkeypatch):
    # the headline number can fail: one counted point's sign zeroed
    measure = independence._measure

    def zeroing(pts):
        measured = measure(pts)
        measured[-1][np.flatnonzero(measured[3] > GENERIC_VOLUME_FLOOR)[0]] = 0.0
        return measured

    monkeypatch.setattr(independence, "_measure", zeroing)
    report = independence_report(1000, 0)
    assert (report.samples, report.degenerate, report.rank4_fraction) == (1000, 0, 0.999)


def test_rank_is_four_exactly_where_the_sign_is_nonzero():
    sampled = _sample_generic(200, np.random.default_rng(0))[0]
    placed = [
        [2.0, -1.0, 2.0, 1.0],  # F4 = 0
        [0.5, -0.25, 0.5, 0.75],  # F4 = 0
        [-6.0, 6.0, 1.0, 6.0],  # F10 = 0
        [-6.0, 6.0, -5.0, -6.0],  # F10 = 0
        [1.0, -0.7, 0.0, 0.9],  # d123 = 0
        [1.0, -0.7, 1.3, 0.0],  # d223 = 0
        [2.0, -1.0, 2.0 + 2.0**-51, 2.0**20],  # F4 near 0, which only the exact sum decides
        [-6.0, 6.0, 1.0, 6.0 + 2.0**-49],  # F10 near 0
    ]
    pts = np.concatenate([sampled, placed])
    signs = _measure(pts)[-1]
    assert np.all(signs[:200] != 0) and np.array_equal(signs[200:] != 0, [False] * 6 + [True] * 2)
    assert _undecided(pts[-2:-1], _analytic(pts[-2:-1])[2])[0]
    assert [jacobian_report(p).rank() == 4 for p in pts] == list(signs != 0)


@pytest.mark.parametrize(
    "point, rank",
    [
        ([0.0, 0.0, 0.0, 0.0], 0),  # the origin
        ([1.0, -0.7, 0.0, 0.9], 3),  # on d123 = 0
        ([1.0, -0.7, 1.3, 0.0], 2),  # on d223 = 0
        ([1.0, -0.7, 0.0, 0.0], 2),  # on both
        ([2.0, -1.0, 2.0, 1.0], 3),  # on F4 = 0
        ([1.0, -0.7, 1.3, 0.9], 4),
    ],
)
def test_exact_rank_at_points_on_and_off_the_degenerate_set(point, rank):
    assert jacobian_report(point).rank() == rank


@pytest.mark.parametrize(
    "point", [[1e30, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1e30], [1e40, 1.0, 1.0, 1.0], [4.8e30, 1.5e30, 2.2e30, -3.8e30]]
)
def test_exact_rank_and_sign_are_warning_free_at_large_points(point):
    # the float report at the first three is item 6's open fault (the strict
    # xfail above); the rank and the sign of det J are exact.  The table's
    # factors are far below the bound's scale at the first two, NaN at the
    # third, and F10 is -inf under a finite bound at the last, so the exact
    # sum gives every sign
    pts = np.array([point])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = jacobian_report(point)
        factors = _analytic(pts)[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rep.rank() == 4
        assert _undecided(pts, factors)[0]
        signs = _det_signs(pts, factors)
        assert signs.tolist() == exact_det_signs(pts) and signs[0] != 0


def test_invariants_consistent_with_jacobian_degrees():
    # Euler's identity: for a degree-k homogeneous polynomial,
    # x . grad = k f; checks rows against the invariant values
    p = np.array([0.9, -1.1, 0.6, 1.4])
    jac = jacobian_canonical(p)
    tup = canonical_invariants(CanonicalParams(*p)).as_array()
    degrees = np.array([2.0, 4.0, 6.0, 10.0])
    euler = jac @ p
    assert np.max(np.abs(euler - degrees * tup) / np.maximum(1.0, np.abs(tup))) < 1e-12


def per_draw_sample(count, rng):
    """The rejection sampler one draw at a time: one evaluation of the 16
    partials, then one np.linalg.det of the row-normalized Jacobian."""
    partials = _MonomialTable(sum(JACOBIAN_TABLE, ()))
    out = []
    while len(out) < count:
        batch = rng.uniform(-2.0, 2.0, size=(count - len(out) + 8, 4))
        for row in batch:
            jac = partials(row).reshape(4, 4)
            norms = np.linalg.norm(jac, axis=1, keepdims=True)
            if np.all(norms > 0) and abs(np.linalg.det(jac / norms)) > GENERIC_VOLUME_FLOOR:
                out.append(row)
                if len(out) == count:
                    break
    return np.array(out)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 1404448153, 328303462, 843945411])
def test_batched_sampler_keeps_the_per_draw_sample(seed):
    batched, *_ = _sample_generic(1000, np.random.default_rng(seed))
    assert np.array_equal(batched, per_draw_sample(1000, np.random.default_rng(seed)))


@pytest.mark.parametrize("seed", [0, 1, 4, 1404448153])
def test_every_sampled_point_passes_the_genericity_rule(seed):
    # the sampler keeps only the draws that the rule passes
    _, jac, *_ = _sample_generic(1000, np.random.default_rng(seed))
    assert all(gradient_volume(j) > GENERIC_VOLUME_FLOOR for j in jac)


@pytest.mark.parametrize("seed", [0, 1, 4, 1404448153])
def test_sampler_hands_on_the_analytic_tables_of_its_points(seed):
    pts, jac, closed, *_ = _sample_generic(1000, np.random.default_rng(seed))
    want_jac, want_closed, _ = _analytic(pts)
    assert jac.shape == (1000, 4, 4) and closed.shape == (1000,)
    scale = np.linalg.norm(want_jac, axis=2, keepdims=True)
    assert np.all(np.abs(jac - want_jac) <= 1e-15 * scale)
    assert np.all(np.abs(closed - want_closed) <= 1e-15 * np.abs(want_closed))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("count", [1, 20, 1000])
def test_sampler_returns_the_first_accepted_draws_of_the_stream(count, seed):
    # one reference batch, longer than any run of the sampler needs: its draws
    # that pass the rule, in draw order, with their measurements, whatever
    # batches the sampler cuts the stream into
    draws = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2 * count + 64, NVARS))
    measured = _measure(draws)
    accepted = np.flatnonzero(measured[3] > GENERIC_VOLUME_FLOOR)[:count]
    assert len(accepted) == count
    want = [draws[accepted]] + [m[accepted] for m in measured]
    got = _sample_generic(count, np.random.default_rng(seed))
    assert len(got) == len(want) == 7
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_report_measures_one_sampler_batch(monkeypatch):
    # a batch draws 1/16 more rows than it needs, which covers the 4.5 % the
    # rule discards, so a 1000-sample report measures once
    measure = independence._measure
    calls = []

    def counting(pts):
        calls.append(len(pts))
        return measure(pts)

    monkeypatch.setattr(independence, "_measure", counting)
    for seed in range(20):
        calls.clear()
        independence_report(1000, seed)
        assert len(calls) == 1, (seed, calls)


@pytest.mark.xfail(
    strict=True,
    raises=RuntimeWarning,
    reason="open fault, ROADMAP item 6 (a FOUND in CHANGES.md): _measure evaluates the degree-10 tables "
    "at the caller's scale, and they overflow at points this large",
)
@pytest.mark.parametrize("point", [[1e30, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1e30], [1e40, 1.0, 1.0, 1.0]])
def test_measurement_is_warning_and_nan_free_at_large_points(point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = jacobian_report(point)
        summary = independence_report(points=[point])
    values = list(rep.jac.ravel()) + [rep.det, rep.fd_deviation, rep.closed_form_det]
    values += [summary.rank4_fraction, summary.min_abs_det, summary.max_abs_det]
    values += [summary.max_fd_deviation, summary.max_det_mismatch]
    assert not any(math.isnan(v) for v in values)


@pytest.mark.parametrize("seed", [0, 3, 843945411])
def test_report_evaluates_the_exact_table_once_per_draw(monkeypatch, seed):
    table = independence._ANALYTIC_TABLE
    seen = []

    def counting(points):
        seen.append(np.array(points, dtype=float))
        return table(points)

    monkeypatch.setattr(independence, "_ANALYTIC_TABLE", counting)
    rep = independence_report(1000, seed)
    rows = np.concatenate(seen)
    # the sampler's draws, one stream: every draw, once and in draw order,
    # and no other point; a few percent are rejected
    draws = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2 * 1000, 4))
    assert np.array_equal(rows, draws[: len(rows)])
    assert rep.samples + rep.degenerate == 1000 < len(rows) < 1200


def test_jacobian_report_is_the_batched_core_at_one_point():
    pts = np.random.default_rng(13).uniform(-2, 2, size=(40, 4))
    pts[5, 2] = 0.0  # on the d123 = 0 hyperplane
    jac, closed, det, _, deviation, _ = _measure(pts)
    for i, p in enumerate(pts):
        rep = jacobian_report(p)
        scale = np.linalg.norm(jac[i], axis=1, keepdims=True)
        assert np.all(np.abs(rep.jac - jac[i]) <= 1e-15 * scale)
        assert np.array_equal(rep.jac, jacobian_canonical(p))
        assert relative_error(rep.det, det[i]) <= 1e-13
        assert relative_error(rep.closed_form_det, closed[i]) <= 1e-13
        assert rep.closed_form_det == det_jacobian_closed_form(p)
        assert abs(rep.fd_deviation - deviation[i]) <= 1e-15


def test_closed_form_det_where_a_factor_cancels():
    # drawn by independence_report(1000, 4); DET_FACTOR_10 cancels by seven
    # digits here, and plain double evaluation of the tables put the numeric
    # and closed-form determinants 8.5e-10 to 2.2e-9 apart (relative)
    p = [1.6579486480544245, -1.5806846321271224, 0.004667397395683892, 0.40098996975297574]
    rep = jacobian_report(p)
    assert relative_error(rep.det, rep.closed_form_det) <= 1e-10


def test_one_point_genericity_is_the_report_rule():
    # within 1e-6 of d123 = 0, and its volume (1.4e-5) clears the floor
    inside = [-0.18407619173784706, 0.1744173120564878, 9.660867347236996e-07, 0.10974079843039775]
    rng = np.random.default_rng(17)
    pts = np.concatenate([[inside], rng.uniform(-2, 2, size=(60, 4))])
    for idx in (2, 3):  # draws within 1e-6 of d123 = 0 and of d223 = 0
        band = rng.uniform(-2, 2, size=(20, 4))
        band[:, idx] = rng.uniform(-1e-6, 1e-6, size=20)
        pts = np.concatenate([pts, band])
    volumes = np.array([gradient_volume(jacobian_canonical(p)) for p in pts])
    verdicts = [jacobian_report(p).is_generic() for p in pts]
    assert verdicts == [independence_report(points=[p]).samples == 1 for p in pts]
    assert verdicts == list(volumes > GENERIC_VOLUME_FLOOR)
    # the point near d123 = 0 counts, with rank 4; both verdicts occur
    assert volumes[0] > GENERIC_VOLUME_FLOOR and verdicts[0]
    assert jacobian_report(inside).rank() == 4
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("given", [list, tuple, np.array], ids=["list", "tuple", "array"])
def test_jacobian_report_point_holds_python_floats(given):
    # as canonicalize's params do, so both print alike
    p = [1.0, -0.7, 0.3, 0.9]
    point = jacobian_report(given(p)).point
    assert all(type(x) is float for x in (point.d111, point.d122, point.d123, point.d223))
    assert repr(point) == repr(CanonicalParams(*p)) == "CanonicalParams(d111=1.0, d122=-0.7, d123=0.3, d223=0.9)"
    params = canonicalize(point.to_tensor()).params
    assert all(type(x) is float for x in (params.d111, params.d122, params.d123, params.d223))
