import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triso.components import _LAYOUT, _inner, _kernel_scale, _ldexp, _unit_scale
from triso.invariants import (
    CanonicalParams,
    InvariantTuple,
    _slice_kernel,
    canonical_invariants,
    moment_matrix,
    relative_error,
    smith_bao,
    v_vector,
)
from triso.tensor_core import (
    FullTensor3,
    SymTraceless3,
    _slices,
    act,
    compress,
    expand,
    random_orthogonal,
    random_tensor,
)

components = st.floats(min_value=-5, max_value=5, allow_nan=False)

DEGREES = (2, 4, 6, 10)
NORMS = [1e-300, 1e-150, 1e-40, 1e-31, 1e-12, 1.0, 1e12, 1e31, 1e40, 1e150, 1e300]


def brute_invariants(t):
    """Loop-only transcription of the four contractions, the slow oracle."""
    d = expand(t).entries
    r3 = range(3)
    i2 = sum(d[i, j, k] ** 2 for i, j, k in itertools.product(r3, repeat=3))
    m = np.zeros((3, 3))
    for k, l in itertools.product(r3, repeat=2):
        m[k, l] = sum(d[i, j, k] * d[i, j, l] for i, j in itertools.product(r3, repeat=2))
    i4 = sum(m[k, l] ** 2 for k, l in itertools.product(r3, repeat=2))
    v = np.zeros(3)
    for p in r3:
        v[p] = sum(m[k, l] * d[k, l, p] for k, l in itertools.product(r3, repeat=2))
    i6 = float(v @ v)
    i10 = sum(
        d[i, j, k] * v[i] * v[j] * v[k] for i, j, k in itertools.product(r3, repeat=3)
    )
    return np.array([i2, i4, i6, i10])


@pytest.mark.parametrize("seed", range(8))
def test_smith_bao_matches_loop_oracle(seed):
    t = random_tensor(seed)
    got = smith_bao(t).as_array()
    want = brute_invariants(t)
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
    # at every norm, against the oracle at norm 1: finite wherever the true
    # value is a normal double, +-inf beyond that, never NaN
    unit = t.as_array() / expand(t).frobenius()
    want = brute_invariants(SymTraceless3(*unit))
    for norm in NORMS:
        scaled = SymTraceless3(*(unit * norm))
        got = smith_bao(scaled).as_array()
        assert not np.any(np.isnan(got)), norm
        assert not np.any(np.isnan(moment_matrix(scaled))), norm
        assert not np.any(np.isnan(v_vector(scaled))), norm
        for d, g, w in zip(DEGREES, got, want):
            exponent = d * math.log10(norm) + math.log10(abs(w))  # of the true |I_d|
            if exponent < 308:
                assert math.isfinite(g), (norm, d)
            if -300 < exponent < 307:
                assert abs(g / norm ** (d / 2) / norm ** (d / 2) - w) <= 1e-10, (norm, d)
            if exponent > 309:
                assert g == math.copysign(math.inf, w), (norm, d)


def _entry_from_ten(c7):
    """The entry D_ijk as a function of (i, j, k).

    The ten distinct coefficients, keyed by sorted 0-based triple, come from
    the seven components and the three vanishing traces.
    """
    d111, d112, d113, d122, d123, d222, d223 = c7
    ten = {
        (0, 0, 0): d111, (0, 0, 1): d112, (0, 0, 2): d113, (0, 1, 1): d122,
        (0, 1, 2): d123, (0, 2, 2): -d111 - d122, (1, 1, 1): d222, (1, 1, 2): d223,
        (1, 2, 2): -d112 - d222, (2, 2, 2): -d113 - d223,
    }
    return lambda i, j, k: ten[tuple(sorted((i, j, k)))]


def _loop_from_ten(c7):
    """M, v and the invariants by loops over all 27 index triples."""
    d = _entry_from_ten(c7)
    r3 = range(3)
    triples = list(itertools.product(r3, repeat=3))
    m = [[sum(d(i, j, k) * d(i, j, l) for i, j in itertools.product(r3, repeat=2)) for l in r3]
         for k in r3]
    v = [sum(m[k][l] * d(k, l, p) for k, l in itertools.product(r3, repeat=2)) for p in r3]
    i2 = sum(d(i, j, k) ** 2 for i, j, k in triples)
    i4 = sum(m[k][l] ** 2 for k, l in itertools.product(r3, repeat=2))
    i6 = sum(x * x for x in v)
    i10 = sum(d(i, j, k) * v[i] * v[j] * v[k] for i, j, k in triples)
    return m, v, (i2, i4, i6, i10)


def test_slice_kernel_is_the_27_entry_contraction_exactly():
    rng = np.random.default_rng(11)
    for _ in range(60):
        c7 = [Fraction(int(n), int(q)) for n, q in
              zip(rng.integers(-60, 61, size=7), rng.integers(1, 25, size=7))]
        # the slices, read as a 3x3x3 array through the (11, 22, 33, 12, 13, 23) layout
        d, slices = _entry_from_ten(c7), _slices(*c7)
        layout = {(0, 0): 0, (1, 1): 1, (2, 2): 2, (0, 1): 3, (0, 2): 4, (1, 2): 5}
        for i, j, k in itertools.product(range(3), repeat=3):
            assert slices[k][layout[min(i, j), max(i, j)]] == d(i, j, k)
        assert all(isinstance(x, Fraction) for s in slices for x in s)
        m, v, invs = _slice_kernel(*c7)
        m_loop, v_loop, invs_loop = _loop_from_ten(c7)
        (m11, m12, m13), (_, m22, m23), (_, _, m33) = m_loop
        assert m == (m11, m22, m33, m12, m13, m23)
        assert list(v) == v_loop
        assert invs == invs_loop
        assert all(isinstance(x, Fraction) for x in invs)


def _slice(s, x):
    """D(x)_ij = sum_k x_k (D_k)_ij in the slice layout, from the slices s."""
    return tuple(s[0][i] * x[0] + s[1][i] * x[1] + s[2][i] * x[2] for i in range(6))


def composed_slice_kernel(d111, d112, d113, d122, d123, d222, d223):
    """The kernel composed of slice helpers, the oracle ``_slice_kernel`` must match bit for bit."""
    s1, s2, s3 = _slices(d111, d112, d113, d122, d123, d222, d223)
    m11, m22, m33 = _inner(s1, s1), _inner(s2, s2), _inner(s3, s3)
    m = (m11, m22, m33, _inner(s1, s2), _inner(s1, s3), _inner(s2, s3))
    v1, v2, v3 = _inner(m, s1), _inner(m, s2), _inner(m, s3)
    w = _slice((s1, s2, s3), (v1, v2, v3))  # v1 D_1 + v2 D_2 + v3 D_3
    vv = (v1 * v1, v2 * v2, v3 * v3, v1 * v2, v1 * v3, v2 * v3)
    return m, (v1, v2, v3), (m11 + m22 + m33, _inner(m, m), vv[0] + vv[1] + vv[2], _inner(w, vv))


def _flat(kernel_output):
    m, v, invs = kernel_output
    return [*m, *v, *invs]


def test_slice_kernel_is_the_composed_kernel_bit_for_bit():
    rng = np.random.default_rng(12)
    # exactly on Fractions
    for _ in range(40):
        c7 = [Fraction(int(n), int(q)) for n, q in
              zip(rng.integers(-60, 61, size=7), rng.integers(1, 25, size=7))]
        assert _slice_kernel(*c7) == composed_slice_kernel(*c7)
    # bit for bit on floats: ordinary, mixed-scale (every term finite) and
    # at norms where terms underflow
    inputs = [random_tensor(seed).as_array().tolist() for seed in range(100)]
    inputs += [(rng.normal(size=7) * 10.0 ** rng.uniform(-30, 30, size=7)).tolist() for _ in range(200)]
    inputs += [(rng.normal(size=7) * 10.0 ** e).tolist() for e in (-320, -300, -40, -30, 30)]
    for c7 in inputs:
        got, want = _flat(_slice_kernel(*c7)), _flat(composed_slice_kernel(*c7))
        assert [x.hex() for x in got] == [x.hex() for x in want], c7
    # and elementwise on complex arrays, as the complex-step Jacobian evaluates it
    c7 = rng.normal(size=(7, 50)) + 1e-20j * rng.normal(size=(7, 50))
    got, want = _flat(_slice_kernel(*c7)), _flat(composed_slice_kernel(*c7))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("seed", range(6))
def test_smith_bao_on_both_sides_of_the_scaling_window_is_the_unit_scale_run(seed):
    # the largest component at 2^(j-1) <= |c| < 2^j: j = +-60 runs as given,
    # j = +-61 at unit scale, and both carry the bits of the unit-scale run
    _, unit = _unit_scale(random_tensor(seed).as_array().tolist())
    for j, k in ((-61, -61), (-60, 0), (60, 0), (61, 61)):
        c = [math.ldexp(x, j) for x in unit]
        assert _kernel_scale(c)[0] == k
        m, v, invs = _slice_kernel(*unit)
        want = [_ldexp(x, d * j) for x, d in zip(invs, DEGREES)]
        want += [_ldexp(x, 2 * j) for x in np.array(m)[np.array(_LAYOUT)].ravel().tolist()]
        want += [_ldexp(x, 3 * j) for x in v]
        t = SymTraceless3(*c)
        got = [*smith_bao(t).as_array().tolist(), *moment_matrix(t).ravel().tolist(), *v_vector(t).tolist()]
        assert [x.hex() for x in got] == [x.hex() for x in want], j


def test_smith_bao_error_is_absolute_at_the_scale_of_the_norm():
    # |I_d - true I_d| <= 4 eps ||T||^d, with the true values and ||T||^2 = I2
    # in exact arithmetic; not a relative bound: at (1e50, 1, 1, 1) I6 and
    # I10 are far below ||T||^d and their small terms cancel away
    rng = np.random.default_rng(13)
    tensors = [CanonicalParams(1e50, 1.0, 1.0, 1.0).to_tensor()]
    tensors += [SymTraceless3(*(rng.normal(size=7) * 10.0 ** rng.uniform(-30, 30, size=7))) for _ in range(50)]
    for t in tensors:
        c7 = t.as_array().tolist()
        exact = _slice_kernel(*map(Fraction, c7))[2]
        got = smith_bao(t).as_array().tolist()
        for d, g, e in zip(DEGREES, got, exact):
            assert abs(Fraction(g) - e) <= 4 * Fraction(2.0 ** -52) * exact[0] ** (d // 2), (c7, d)


def test_found_case_i10_overflows_to_inf_not_nan():
    # only the degree-10 value passes the largest double at this norm
    tup = smith_bao(SymTraceless3(*(random_tensor(1).as_array() * 1e31)))
    assert all(math.isfinite(x) for x in (tup.i2, tup.i4, tup.i6))
    assert tup.i10 == math.inf


def test_found_case_m_and_v_overflow_to_inf_not_nan():
    unit = random_tensor(1)
    m1, v1 = moment_matrix(unit), v_vector(unit)
    # at 1e103 only v (degree 3) passes the largest double
    t = SymTraceless3(*(unit.as_array() * 1e103))
    assert np.all(np.isfinite(moment_matrix(t)))
    assert np.array_equal(v_vector(t), np.copysign(math.inf, v1))
    # at 1e160 every entry of M and v does
    t = SymTraceless3(*(unit.as_array() * 1e160))
    assert np.array_equal(moment_matrix(t), np.copysign(math.inf, m1))
    assert np.array_equal(v_vector(t), np.copysign(math.inf, v1))


def _degree_and_value(t):
    """(degree, value) of I2..I10, the nine entries of M and the three of v."""
    return [
        *zip(DEGREES, smith_bao(t).as_array().tolist()),
        *((2, x) for x in moment_matrix(t).ravel().tolist()),
        *((3, x) for x in v_vector(t).tolist()),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_homogeneity_is_bit_exact_under_powers_of_two(seed):
    t = random_tensor(seed)
    base = _degree_and_value(t)
    checked = 0
    for j in range(-1015, 1016, 7):
        scaled = [math.ldexp(x, j) for x in t.as_array().tolist()]
        if min(map(abs, scaled)) < 2.0 ** -1022:
            continue  # the scaled input itself is not exact
        got = [g for _, g in _degree_and_value(SymTraceless3(*scaled))]
        for (d, b), g in zip(base, got):
            try:
                want = math.ldexp(b, d * j)
            except OverflowError:
                continue
            if abs(want) >= 2.0 ** -1022:  # a normal double: representable exactly
                assert g == want, (j, d)
                checked += 1
    assert checked > 1500


def test_full_tensor_is_read_through_compress():
    for seed in range(10):
        t = random_tensor(seed)
        assert smith_bao(expand(t)) == smith_bao(t)
        assert np.array_equal(moment_matrix(expand(t)), moment_matrix(t))
        assert np.array_equal(v_vector(expand(t)), v_vector(t))
    raw = np.zeros((3, 3, 3))
    raw[0, 0, 1] = 1.0  # no symmetric partners
    with pytest.raises(ValueError, match="not symmetric"):
        smith_bao(FullTensor3(raw))


def test_known_tuple_d111_d112():
    # integer tensor, integer invariants, exact in floats
    tup = smith_bao(SymTraceless3(d111=1.0, d112=1.0))
    assert (tup.i2, tup.i4, tup.i6, tup.i10) == (10.0, 44.0, 16.0, 64.0)


def test_known_tuple_d111_d123():
    tup = smith_bao(SymTraceless3(d111=1.0, d123=1.0))
    assert (tup.i2, tup.i4, tup.i6, tup.i10) == (10.0, 44.0, 16.0, -64.0)


def test_zero_tensor():
    tup = smith_bao(SymTraceless3())
    assert tup.as_array().tolist() == [0.0, 0.0, 0.0, 0.0]


def test_moment_matrix_is_symmetric_psd():
    for seed in range(5):
        m = moment_matrix(random_tensor(seed))
        assert np.array_equal(m, m.T)
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-12


def test_moment_matrix_trace_is_i2():
    t = random_tensor(12)
    assert abs(np.trace(moment_matrix(t)) - smith_bao(t).i2) < 1e-12


def test_v_vector_matches_loop():
    t = random_tensor(6)
    d = expand(t).entries
    m = moment_matrix(t)
    want = np.array(
        [
            sum(m[k, l] * d[k, l, p] for k in range(3) for l in range(3))
            for p in range(3)
        ]
    )
    assert np.max(np.abs(v_vector(t) - want)) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_rotation_invariance(seed):
    t = random_tensor(seed)
    g = random_orthogonal(seed + 1000, proper=(seed % 2 == 0))
    before = smith_bao(t).as_array()
    after = smith_bao(compress(act(g, expand(t)))).as_array()
    for x, y in zip(before, after):
        assert relative_error(float(x), float(y)) < 1e-12


@settings(max_examples=30)
@given(st.lists(components, min_size=7, max_size=7), st.floats(0.1, 3.0))
def test_homogeneity_degrees(vals, s):
    t = SymTraceless3(*vals)
    scaled = SymTraceless3.from_array(s * t.as_array())
    a = smith_bao(t).as_array()
    b = smith_bao(scaled).as_array()
    want = a * s ** np.array([2.0, 4.0, 6.0, 10.0])
    assert np.all(np.abs(b - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


def test_canonical_invariants_agrees_with_smith_bao():
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = CanonicalParams(*rng.uniform(-2, 2, size=4))
        a = canonical_invariants(params).as_array()
        b = smith_bao(params.to_tensor()).as_array()
        assert np.all(np.abs(a - b) <= 1e-11 * np.maximum(1.0, np.abs(b)))


@pytest.mark.parametrize("seed", range(5))
def test_canonical_invariants_are_homogeneous_at_any_scale(seed):
    # run at _kernel_scale, as given inside its window (where the table's
    # per-degree grids commute with powers of two) and scaled back by an
    # exact power of two outside it: I_d at c 2^j is I_d(c) 2^(d j) as one
    # rounding, +-inf past the largest double, and never NaN
    c = np.random.default_rng(seed).uniform(-2, 2, size=4).tolist()
    base = canonical_invariants(CanonicalParams(*c)).as_array().tolist()
    for j in range(-500, 501, 25):
        got = canonical_invariants(CanonicalParams(*(math.ldexp(x, j) for x in c))).as_array().tolist()
        assert not any(map(math.isnan, got)), j
        assert got == [_ldexp(b, d * j) for b, d in zip(base, DEGREES)], j


def test_found_case_canonical_i10_overflows_to_inf_not_nan():
    # plain double evaluation gave I10 = NaN here, with RuntimeWarnings
    tup = canonical_invariants(CanonicalParams(1e50, 1.0, 1.0, 1.0))
    assert (tup.i2, tup.i4, tup.i6) == pytest.approx((4e100, 8e200, 3.2e201), rel=1e-12)
    assert tup.i10 == math.inf  # -64 (d122^3 - 3 d122 d223^2) d111^7 = 1.28e352


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_canonical_invariants_rejects_nonfinite_params(bad):
    named = r"point coordinates must be finite, got \[0\.5, " + str(bad) + r", 0\.0, 0\.0\]"
    with pytest.raises(ValueError, match=named):
        canonical_invariants(CanonicalParams(0.5, bad, 0, 0))


def test_canonical_params_tensor_layout():
    p = CanonicalParams(1.0, 2.0, 3.0, 4.0)
    t = p.to_tensor()
    assert (t.d111, t.d122, t.d123, t.d223) == (1.0, 2.0, 3.0, 4.0)
    assert (t.d112, t.d113, t.d222) == (0.0, 0.0, 0.0)


def test_relative_error_semantics():
    # absolute below 1, relative above
    assert relative_error(0.0, 1e-12) == 1e-12
    assert relative_error(100.0, 110.0) == pytest.approx(10.0 / 110.0)
    assert relative_error(3.0, 3.0) == 0.0


def test_invariant_tuple_json_keys():
    tup = smith_bao(random_tensor(4))
    assert list(tup.to_json_obj()) == ["I2", "I4", "I6", "I10"]


def test_i2_is_squared_frobenius():
    t = random_tensor(8)
    assert abs(smith_bao(t).i2 - expand(t).frobenius() ** 2) < 1e-12
