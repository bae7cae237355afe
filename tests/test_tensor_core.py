import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triso.tensor_core import (
    COMPONENT_NAMES,
    FullTensor3,
    OrthogonalTransform3,
    SymTraceless3,
    act,
    compress,
    expand,
    random_orthogonal,
    random_tensor,
    st_dimension,
    symmetry_violation,
    tensor_from_json_obj,
    tensor_to_json_obj,
    trace_violation,
)

components = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(st.lists(components, min_size=7, max_size=7))
def test_expand_is_symmetric_and_traceless(vals):
    f = expand(SymTraceless3(*vals))
    e = f.entries
    for perm in itertools.permutations(range(3)):
        assert np.allclose(e, np.transpose(e, perm), atol=0)
    # every single contraction vanishes
    for axis_pair in ((0, 1), (0, 2), (1, 2)):
        tr = np.trace(e, axis1=axis_pair[0], axis2=axis_pair[1])
        assert np.max(np.abs(tr)) < 1e-12


def test_expand_derived_entries():
    t = SymTraceless3(d111=1.5, d112=-0.25, d122=2.0, d222=0.75)
    e = expand(t).entries
    assert e[0, 2, 2] == -t.d111 - t.d122
    assert e[1, 2, 2] == -t.d112 - t.d222
    assert e[2, 2, 2] == -t.d113 - t.d223
    assert e[0, 0, 0] == t.d111
    assert e[0, 1, 2] == t.d123


def loop_expand(s):
    # the definition: each of the ten slot families written out, with the
    # three trace-constrained diagonals, copied to every slot permutation
    arr = np.zeros((3, 3, 3))
    values = {
        (0, 0, 0): s.d111,
        (0, 0, 1): s.d112,
        (0, 0, 2): s.d113,
        (0, 1, 1): s.d122,
        (0, 1, 2): s.d123,
        (1, 1, 1): s.d222,
        (1, 1, 2): s.d223,
        (0, 2, 2): -s.d111 - s.d122,
        (1, 2, 2): -s.d112 - s.d222,
        (2, 2, 2): -s.d113 - s.d223,
    }
    for triple, value in values.items():
        for perm in set(itertools.permutations(triple)):
            arr[perm] = value
    return arr


def test_expand_equals_the_slot_family_loop():
    # entries are equal, not merely close, from 1e-150 to 1e150; only the
    # sign of a zero entry may differ (array_equal counts -0.0 == 0.0)
    rng = np.random.default_rng(12)
    for _ in range(2000):
        vals = rng.normal(size=7) * 10.0 ** rng.uniform(-150, 150)
        vals[rng.random(7) < 0.2] = 0.0
        t = SymTraceless3(*vals)
        assert np.array_equal(expand(t).entries, loop_expand(t))


@given(st.lists(components, min_size=7, max_size=7))
def test_compress_round_trip(vals):
    t = SymTraceless3(*vals)
    assert compress(expand(t)) == t


def test_compress_rejects_asymmetric():
    e = np.zeros((3, 3, 3))
    e[0, 1, 2] = 1.0  # one permutation only
    with pytest.raises(ValueError, match="symmetr"):
        compress(FullTensor3(e))


def test_compress_rejects_nonzero_trace():
    e = np.zeros((3, 3, 3))
    # symmetric but with a trace: e_ijk = delta_ij x_k + perms, x = e1
    x = np.array([1.0, 0.0, 0.0])
    eye = np.eye(3)
    e = (
        np.einsum("ij,k->ijk", eye, x)
        + np.einsum("ik,j->ijk", eye, x)
        + np.einsum("jk,i->ijk", eye, x)
    )
    assert symmetry_violation(FullTensor3(e)) == 0.0
    assert trace_violation(FullTensor3(e)) > 1.0
    with pytest.raises(ValueError, match="trace"):
        compress(FullTensor3(e))


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e6, 1e20])
def test_compress_tolerance_is_relative(scale):
    unit = SymTraceless3.from_array(np.arange(1.0, 8.0))
    t = SymTraceless3.from_array(scale * unit.as_array())
    g = random_orthogonal(3)
    # a rotated array carries roundoff proportional to its norm
    got = compress(act(g, expand(t))).as_array()
    want = scale * compress(act(g, expand(unit))).as_array()
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    e = np.array(expand(t).entries)
    e[0, 1, 2] += 1e-6 * expand(t).frobenius()
    with pytest.raises(ValueError, match="symmetr"):
        compress(FullTensor3(e))


def loop_symmetry_violation(arr):
    # the definition: the array against each of its six slot permutations
    return max(float(np.max(np.abs(arr - np.transpose(arr, p)))) for p in itertools.permutations(range(3)))


def loop_trace_violation(arr):
    return float(np.max(np.abs(np.einsum("iik->k", arr))))


def test_violations_equal_their_definitions():
    # on arrays with no symmetry at all, from 1e-150 to 1e150; the
    # messages compress raises carry the same numbers
    rng = np.random.default_rng(21)
    for _ in range(500):
        scale = 10.0 ** rng.uniform(-150, 150)
        arr = scale * rng.normal(size=(3, 3, 3))
        f = FullTensor3(arr)
        sym, trc = loop_symmetry_violation(arr), loop_trace_violation(arr)
        assert symmetry_violation(f) == sym
        assert trace_violation(f) == trc
        bound = 1e-9 * f.frobenius()
        with pytest.raises(ValueError) as err:
            compress(f)
        assert str(err.value) == (
            f"array is not symmetric: worst permuted-entry mismatch {sym:.3g} > tol*||T|| {bound:.3g}"
        )
        # the symmetric part with a trace left in it fails the trace check
        sym_part = sum(np.transpose(arr, p) for p in itertools.permutations(range(3))) / 6.0
        f = FullTensor3(sym_part)
        trc = loop_trace_violation(sym_part)
        assert trace_violation(f) == trc
        bound = 1e-9 * f.frobenius()
        with pytest.raises(ValueError) as err:
            compress(f)
        assert str(err.value) == (
            f"array is not traceless: worst trace magnitude {trc:.3g} > tol*||T|| {bound:.3g}"
        )


def test_act_equals_the_einsum_definition():
    rng = np.random.default_rng(22)
    for k in range(500):
        scale = 10.0 ** rng.uniform(-150, 150)
        f = expand(SymTraceless3(*(scale * rng.normal(size=7))))
        g = random_orthogonal(k, proper=k % 2 == 0)
        want = np.einsum("ja,kb,lc,abc->jkl", g.m, g.m, g.m, f.entries)
        assert np.max(np.abs(act(g, f).entries - want)) <= 1e-15 * f.frobenius()


def test_symtraceless_rejects_nonfinite():
    with pytest.raises(ValueError):
        SymTraceless3(d111=float("nan"))
    with pytest.raises(ValueError):
        SymTraceless3(d123=float("inf"))


def test_as_array_from_array_round_trip():
    t = random_tensor(3)
    assert SymTraceless3.from_array(t.as_array()) == t
    assert list(t.as_array()) == [getattr(t, n) for n in COMPONENT_NAMES]


def test_act_identity():
    t = expand(random_tensor(0))
    out = act(OrthogonalTransform3.identity(), t)
    assert np.array_equal(out.entries, t.entries)


def test_act_composes():
    t = expand(random_tensor(1))
    g1 = random_orthogonal(10)
    g2 = random_orthogonal(11, proper=False)
    lhs = act(g1, act(g2, t)).entries
    rhs = act(g1.compose(g2), t).entries
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_act_requires_transform_type():
    t = expand(random_tensor(2))
    with pytest.raises(TypeError):
        act(np.eye(3), t)


def test_transform_validation():
    with pytest.raises(ValueError, match="orthogonal"):
        OrthogonalTransform3(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="det"):
        OrthogonalTransform3(np.eye(3), det_sign=-1)
    with pytest.raises(ValueError, match="3x3"):
        OrthogonalTransform3(np.eye(2))
    with pytest.raises(ValueError):
        OrthogonalTransform3(np.diag([1.0, 1.0, -1.0]), det_sign=2)


def test_transform_inverse_and_apply():
    g = random_orthogonal(5)
    gi = g.inverse()
    assert np.max(np.abs(g.compose(gi).m - np.eye(3))) < 1e-15
    x = np.array([0.3, -1.1, 2.0])
    assert np.allclose(g.apply(x), g.m @ x, atol=0)


def test_from_matrix_infers_sign():
    assert OrthogonalTransform3.from_matrix(np.eye(3)).det_sign == 1
    assert OrthogonalTransform3.from_matrix(np.diag([1.0, 1.0, -1.0])).det_sign == -1


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_random_orthogonal_is_orthogonal(seed):
    for proper in (True, False):
        g = random_orthogonal(seed, proper=proper)
        assert np.max(np.abs(g.m.T @ g.m - np.eye(3))) < 1e-12
        assert g.det_sign == (1 if proper else -1)
        assert abs(np.linalg.det(g.m) - g.det_sign) < 1e-12


def test_random_orthogonal_deterministic():
    assert np.array_equal(random_orthogonal(7).m, random_orthogonal(7).m)
    assert not np.array_equal(random_orthogonal(7).m, random_orthogonal(8).m)


def test_random_tensor_deterministic_and_scaled():
    a = random_tensor(9)
    b = random_tensor(9)
    assert a == b
    c = random_tensor(9, scale=2.0)
    assert np.allclose(c.as_array(), 2.0 * a.as_array(), atol=0)
    with pytest.raises(ValueError):
        random_tensor(9, scale=-1.0)


def test_st_dimension():
    assert st_dimension(3, 3) == 7
    assert st_dimension(2, 3) == 5  # symmetric traceless matrices
    assert st_dimension(3, 2) == 2
    with pytest.raises(ValueError):
        st_dimension(1, 3)


def test_json_round_trip():
    t = random_tensor(13)
    obj = tensor_to_json_obj(t)
    assert set(obj) == {"D111", "D112", "D113", "D122", "D123", "D222", "D223"}
    assert tensor_from_json_obj(json.loads(json.dumps(obj))) == t


def test_json_missing_keys_default_to_zero():
    t = tensor_from_json_obj({"D111": 2.0})
    assert t == SymTraceless3(d111=2.0)


def test_json_full_array_form():
    t = random_tensor(17)
    obj = {"full": [float(v) for v in expand(t).entries.ravel()]}
    assert tensor_from_json_obj(obj) == t


def test_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        tensor_from_json_obj({"D111": 1.0, "D999": 2.0})
    # a "full" array stands alone: a component key beside it is unknown too
    full = [float(v) for v in expand(random_tensor(17)).entries.ravel()]
    with pytest.raises(ValueError, match=r"unknown tensor keys: \['D111', 'bogus'\]"):
        tensor_from_json_obj({"full": full, "D111": 5.0, "bogus": 1})
    with pytest.raises(ValueError, match=r"unknown tensor keys: \['D111'\]"):
        tensor_from_json_obj({"full": full, "D111": 5.0})


@settings(max_examples=25)
@given(st.lists(components, min_size=7, max_size=7))
def test_frobenius_is_the_entrywise_norm(vals):
    t = SymTraceless3(*vals)
    f = expand(t)
    assert abs(f.frobenius() ** 2 - np.sum(f.entries**2)) < 1e-10
