import numpy as np
import pytest

from triso.independence import (
    GENERIC_VOLUME_FLOOR,
    HYPERPLANE_MARGIN,
    JACOBIAN_TABLE,
    RANK_THRESHOLD,
    IndependenceReport,
    JacobianReport,
    det_jacobian_closed_form,
    gradient_volume,
    independence_report,
    jacobian_canonical,
    jacobian_report,
    _analytic,
    _clear_of_hyperplanes,
    _measure,
    _ranks,
    _sample_generic,
    _volumes,
)
from triso import independence
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


def test_hyperplane_margin_rejects_near_zero_coordinates():
    # sampled points keep both |d123| and |d223| clear of the margin
    rep = independence_report(sample_count=300, seed=3)
    assert rep.min_abs_det > 0
    assert HYPERPLANE_MARGIN == 1e-6
    assert RANK_THRESHOLD == 1e-10


def test_rank_threshold_is_provably_met_at_the_volume_floor():
    # with unit rows sigma_1 <= 2 and sigma_1 sigma_2 sigma_3 <= 8, so
    # volume > floor forces sigma_4 >= floor / 8, far above the SVD cut
    assert GENERIC_VOLUME_FLOOR / 8.0 > RANK_THRESHOLD * 2.0


def svd_ranks(jac):
    """The rank rule by a full SVD of every matrix: unit rows, singular values above RANK_THRESHOLD times the largest."""
    norms = np.linalg.norm(jac, axis=-1, keepdims=True)
    unit = np.divide(jac, norms, out=np.zeros_like(jac), where=norms > 0)
    sv = np.linalg.svd(unit, compute_uv=False)
    return np.sum(sv > RANK_THRESHOLD * sv[:, :1], axis=1)


def test_rank_shortcut_counts_as_the_full_svd_on_a_sampler_run():
    _, jac, _, _, volumes, _ = _sample_generic(1000, np.random.default_rng(0))
    want = svd_ranks(jac)
    assert np.all(want == 4)
    assert np.array_equal(_ranks(jac, _volumes(jac)), want)
    # the volumes the report reads for sampled points, and the floor they clear
    assert np.array_equal(_ranks(jac, volumes), want)
    assert np.array_equal(_ranks(jac, np.full(len(jac), GENERIC_VOLUME_FLOOR)), want)


def test_rank_shortcut_leaves_low_ranks_to_the_svd():
    g = np.random.default_rng(5).normal(size=(4, 4))
    low = [
        (np.zeros((4, 4)), 0),
        (g * (np.arange(4) < 1)[:, None], 1),  # zero rows
        (g * (np.arange(4) < 2)[:, None], 2),
        (g * (np.arange(4) < 3)[:, None], 3),
        (g[[0, 0, 0, 0]], 1),  # repeated rows
        (g[[0, 1, 0, 1]] * [[1.0], [2.0], [-3.0], [0.5]], 2),
        (g[[0, 1, 2, 1]], 3),
        (jacobian_canonical(np.zeros(4)), 0),  # the origin
        (jacobian_canonical([1.0, -0.7, 0.0, 0.9]), 3),  # on d123 = 0
    ]
    jac = np.array([m for m, _ in low])
    assert svd_ranks(jac).tolist() == [r for _, r in low]
    # mixed with full-rank Jacobians, so both routes fill one result
    jac = np.concatenate([_sample_generic(5, np.random.default_rng(1))[1], jac])
    assert np.array_equal(_ranks(jac, _volumes(jac)), svd_ranks(jac))


@pytest.mark.parametrize(
    "volume",
    [1e-12, 1.5 * RANK_THRESHOLD] + [16 * RANK_THRESHOLD * f for f in (1 - 1e-3, 1 - 1e-5, 1 + 1e-5, 1 + 1e-3)],
)
def test_rank_shortcut_near_its_volume_bound(volume):
    # unit rows e1, e2, e3 and cos(t) e3 + sin(t) e4, of volume sin(t) and
    # sigma_4 / sigma_1 near sin(t) / 2, turned by a rotation (rows stay unit,
    # the volume stays): rank 3 at the first two volumes, 4 on either side
    # of 16 RANK_THRESHOLD, and the count is the full SVD's at each
    t = np.arcsin(volume)
    rows = np.eye(4)
    rows[3] = [0.0, 0.0, np.cos(t), np.sin(t)]
    q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(4, 4)))
    jac = (rows @ q)[None]
    volumes = _volumes(jac)
    assert (volumes[0] > 16 * RANK_THRESHOLD) == (volume > 16 * RANK_THRESHOLD)
    assert svd_ranks(jac)[0] == (3 if volume < 2 * RANK_THRESHOLD else 4)
    assert np.array_equal(_ranks(jac, volumes), svd_ranks(jac))


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
        keep = (np.abs(batch[:, 2]) > HYPERPLANE_MARGIN) & (np.abs(batch[:, 3]) > HYPERPLANE_MARGIN)
        for row in batch[keep]:
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
    pts, jac, *_ = _sample_generic(1000, np.random.default_rng(seed))
    assert np.all(_clear_of_hyperplanes(pts))
    assert np.all(_volumes(jac) > GENERIC_VOLUME_FLOOR)


@pytest.mark.parametrize("seed", [0, 1, 4, 1404448153])
def test_sampler_hands_on_the_analytic_tables_of_its_points(seed):
    pts, jac, closed, *_ = _sample_generic(1000, np.random.default_rng(seed))
    want_jac, want_closed = _analytic(pts)
    assert jac.shape == (1000, 4, 4) and closed.shape == (1000,)
    scale = np.linalg.norm(want_jac, axis=2, keepdims=True)
    assert np.all(np.abs(jac - want_jac) <= 1e-15 * scale)
    assert np.all(np.abs(closed - want_closed) <= 1e-15 * np.abs(want_closed))


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
    # the sampler's draws, one stream: every draw that clears the hyperplanes,
    # once and in draw order, and no other point; a few percent are rejected
    draws = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2 * 1000, 4))
    cleared = draws[_clear_of_hyperplanes(draws)]
    assert np.array_equal(rows, cleared[: len(rows)])
    assert rep.samples + rep.degenerate == 1000 < len(rows) < 1200


def test_jacobian_report_is_the_batched_core_at_one_point():
    pts = np.random.default_rng(13).uniform(-2, 2, size=(40, 4))
    pts[5, 2] = 0.0  # on the d123 = 0 hyperplane
    jac, closed, det, _, deviation = _measure(pts)
    for i, p in enumerate(pts):
        rep = jacobian_report(p)
        scale = np.linalg.norm(jac[i], axis=1, keepdims=True)
        assert np.all(np.abs(rep.jac - jac[i]) <= 1e-15 * scale)
        assert np.array_equal(rep.jac, jacobian_canonical(p))
        assert relative_error(rep.det, det[i]) <= 1e-13
        assert relative_error(rep.closed_form_det, closed[i]) <= 1e-13
        assert rep.closed_form_det == det_jacobian_closed_form(p)
        assert abs(rep.fd_deviation - deviation[i]) <= 1e-15


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="np.longdouble is a plain double here"
)
def test_closed_form_det_where_a_factor_cancels():
    # drawn by independence_report(1000, 4); DET_FACTOR_10 cancels by seven
    # digits here, and plain double evaluation of the tables put the numeric
    # and closed-form determinants 8.5e-10 to 2.2e-9 apart (relative)
    p = [1.6579486480544245, -1.5806846321271224, 0.004667397395683892, 0.40098996975297574]
    rep = jacobian_report(p)
    assert relative_error(rep.det, rep.closed_form_det) <= 1e-10


def test_one_point_genericity_is_the_report_rule():
    # inside the d123 band, though its volume (1.4e-5) clears the floor
    inside = [-0.18407619173784706, 0.1744173120564878, 9.660867347236996e-07, 0.10974079843039775]
    rng = np.random.default_rng(17)
    pts = np.concatenate([[inside], rng.uniform(-2, 2, size=(60, 4))])
    for idx in (2, 3):  # draws inside the d123 and the d223 band
        band = rng.uniform(-2, 2, size=(20, 4))
        band[:, idx] = rng.uniform(-HYPERPLANE_MARGIN, HYPERPLANE_MARGIN, size=20)
        pts = np.concatenate([pts, band])
    volumes = np.array([gradient_volume(jacobian_canonical(p)) for p in pts])
    verdicts = [jacobian_report(p).is_generic() for p in pts]
    assert verdicts == [independence_report(points=[p]).samples == 1 for p in pts]
    assert verdicts == list(_clear_of_hyperplanes(pts) & (volumes > GENERIC_VOLUME_FLOOR))
    # every case occurs: generic, below the floor, and in a band above it
    assert volumes[0] > GENERIC_VOLUME_FLOOR and not verdicts[0]
    assert any(verdicts) and np.any(_clear_of_hyperplanes(pts) & (volumes <= GENERIC_VOLUME_FLOOR))
