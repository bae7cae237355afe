import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triso import canonical_form, tensor_core
from triso.canonical_form import (
    GROUPS,
    CanonicalResult,
    ConvergenceError,
    canonicalize,
    maximize_cubic_on_sphere,
    stationarity_residual,
    _CHART_FRAME,
    _SECOND_FRAME,
    _THIRD_FRAME,
    _stationary_candidates,
    _tangent_bases,
)
from triso.components import _in_frame
from triso.invariants import _slice_kernel, moment_matrix, relative_error, smith_bao
from triso.orbit_oracle import best_alignment
from triso.reference_cases import f_root, reference_cases
from triso.tensor_core import (
    FullTensor3,
    OrthogonalTransform3,
    SymTraceless3,
    act,
    compress,
    expand,
    random_orthogonal,
    random_tensor,
)


def sampled_max(t, n=200_000, seed=0):
    """Monte-Carlo lower bound for the sphere maximum of the cubic form."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    d = expand(t).entries
    vals = np.einsum("ijk,si,sj,sk->s", d, x, x, x, optimize=True)
    return float(np.max(np.abs(vals)))  # odd function: |g(-x)| = |g(x)|


def cubic_value(t, x):
    """g(x) = D_ijk x_i x_j x_k by einsum on the full array."""
    return float(np.einsum("ijk,i,j,k->", expand(t).entries, x, x, x))


@pytest.mark.parametrize("seed", range(5))
def test_kernels_match_einsum_definitions(seed):
    rng = np.random.default_rng(seed)
    t = random_tensor(seed)
    d = expand(t).entries
    c = t.as_array().tolist()
    x = rng.normal(size=(40, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    b1, b2 = tangent_bases_batched(x)
    assert np.max(np.abs(np.sum(b1 * x, axis=1))) < 1e-15
    assert np.max(np.abs(np.linalg.norm(b1, axis=1) - 1.0)) < 1e-15
    assert np.max(np.abs(b2 - np.cross(x, b1))) < 1e-15
    for row, r1, r2 in zip(x, b1, b2):
        t1, t2 = _tangent_bases(row.tolist())
        assert np.max(np.abs(np.array([t1, t2]) - [r1, r2])) < 1e-15

    value = np.einsum("ijk,si,sj,sk->s", d, x, x, x)
    gradient = 3.0 * np.einsum("ijk,sj,sk->si", d, x, x)
    hessian = 6.0 * np.einsum("ijk,sk->sij", d, x)
    for row, v, grad, h, r1, r2 in zip(x, value, gradient, hessian, b1, b2):
        # in the frame (x, t1, t2): d111 = g(x), d11a = grad . t_a / 3,
        # d1ab = t_a H t_b / 6 and d22b = D(t1, t1, t_b)
        d111, d112, d113, d122, d123, d222, d223 = _in_frame(c, (row.tolist(), r1.tolist(), r2.tolist()))
        assert abs(d111 - v) < 1e-13
        assert abs(3.0 * d112 - grad @ r1) < 1e-13 and abs(3.0 * d113 - grad @ r2) < 1e-13
        assert abs(6.0 * d122 - r1 @ h @ r1) < 1e-13 and abs(6.0 * d123 - r1 @ h @ r2) < 1e-13
        assert abs(d222 - np.einsum("ijk,i,j,k->", d, r1, r1, r1)) < 1e-13
        assert abs(d223 - np.einsum("ijk,i,j,k->", d, r1, r1, r2)) < 1e-13


@pytest.mark.parametrize("seed", range(6))
def test_maximizer_beats_dense_sampling(seed):
    t = random_tensor(seed)
    mx = maximize_cubic_on_sphere(t)
    # the optimizer's value may exceed the sampled bound but must never be
    # visibly below it
    assert mx.value >= sampled_max(t) - 1e-4
    assert abs(np.linalg.norm(mx.u) - 1.0) < 1e-12
    assert mx.residual <= 1e-9
    assert mx.value == pytest.approx(cubic_value(t, mx.u), abs=1e-12)


def test_maximizer_value_is_nonnegative():
    for seed in range(10):
        assert maximize_cubic_on_sphere(random_tensor(seed)).value >= 0.0


def test_maximizer_on_axis_tensor():
    # for the d111-only tensor g(x) = x1^3 - 3 x1 x3^2; the sphere maximum
    # is 1 at e1
    mx = maximize_cubic_on_sphere(SymTraceless3(d111=1.0))
    assert mx.value == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.abs(mx.u) - np.array([1.0, 0.0, 0.0]))) < 1e-7
    assert mx.u[0] > 0


def test_maximizer_returns_distinct_tied_maximizers():
    # g = 6 x1 x2 x3 peaks at the four (+-1, +-1, +-1)/sqrt(3) with an even
    # number of minus signs
    t = SymTraceless3(d123=1.0)
    mx = maximize_cubic_on_sphere(t)
    rows = mx.maximizers
    assert rows.shape == (4, 3)
    assert np.array_equal(rows[0], mx.u)
    assert np.max(np.abs(np.abs(rows) * math.sqrt(3.0) - 1.0)) < 1e-12
    assert np.all(np.prod(rows, axis=1) > 0)
    for x in rows:
        assert cubic_value(t, x) == pytest.approx(mx.value, abs=1e-12)
    gaps = np.linalg.norm(rows[:, None] - rows[None, :], axis=2)
    assert np.min(gaps + 2.0 * np.eye(4)) > 1.0


def test_maximizer_scale_equivariance():
    t = random_tensor(40)
    big = SymTraceless3.from_array(1e6 * t.as_array())
    a = maximize_cubic_on_sphere(t)
    b = maximize_cubic_on_sphere(big)
    assert b.value == pytest.approx(1e6 * a.value, rel=1e-12)
    assert np.max(np.abs(a.u - b.u)) < 1e-9


def test_maximizer_raises_on_absurd_tolerance(monkeypatch):
    monkeypatch.setattr(canonical_form, "STATIONARITY_TOL", 1e-300)
    with pytest.raises(ConvergenceError):
        maximize_cubic_on_sphere(random_tensor(0))


@pytest.mark.parametrize(
    "t, maximum",
    [
        (SymTraceless3(d111=1.0, d123=1.0), 1.7013016167040798),
        (SymTraceless3(d111=1.0, d122=0.3), 1.3392047594580536),
    ],
)
def test_tolerance_is_judged_on_the_maximizer(monkeypatch, t, maximum):
    # a non-maximal stationary point of each (value 1.0515 and 1.0) has
    # residual exactly 0.0, the maximizer a few ulps; an unreachable
    # tolerance must fail rather than return the lesser point
    with monkeypatch.context() as m:
        m.setattr(canonical_form, "STATIONARITY_TOL", 1e-300)
        with pytest.raises(ConvergenceError):
            maximize_cubic_on_sphere(t)
    assert maximize_cubic_on_sphere(t).value == pytest.approx(maximum, rel=1e-14)


def count_linalg_calls(monkeypatch) -> Counter:
    """Wrap every function of numpy.linalg to count its calls by name."""
    calls = Counter()
    for name in np.linalg.__all__:
        function = getattr(np.linalg, name)
        if callable(function) and not isinstance(function, type):
            def counted(*args, _function=function, _name=name, **kwargs):
                calls[_name] += 1
                return _function(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("group", GROUPS)
def test_canonicalize_makes_two_lapack_calls(monkeypatch, group):
    # one stacked det over the Sylvester matrices and one eigvals over the
    # companions; no eigh, as the axis candidate is the covariant vector v,
    # and the transform's checks run on floats
    a = random_tensor(7)
    b = compress(act(random_orthogonal(7, proper=False), expand(a)))
    calls = count_linalg_calls(monkeypatch)
    canonicalize(a, group=group)
    assert calls == {"det": 1, "eigvals": 1}
    calls.clear()
    best_alignment(a, b, group=group)
    assert calls == {"det": 2, "eigvals": 2}


def about_e1(theta):
    """The rotation by theta about e1."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


@pytest.mark.parametrize("seed", range(6))
def test_transform_turns_the_maximizer_frame_about_e1(seed):
    # the rows are (u, c t1 + s t2, -s t1 + c t2) for the winning maximizer
    # u and its tangent pair: a rotation about e1 after the frame (u, t1, t2)
    t = random_tensor(seed)
    m = canonicalize(t).transform.m
    u = m[0].tolist()
    assert any(u == row for row in maximize_cubic_on_sphere(t).maximizers.tolist())
    turn = m @ np.array([u, *_tangent_bases(u)]).T
    theta = math.atan2(turn[1, 2], turn[1, 1])
    assert np.max(np.abs(turn - about_e1(theta))) <= 1e-15


@pytest.mark.parametrize("seed", range(12))
def test_canonicalize_constraints(seed):
    t = random_tensor(seed)
    result = canonicalize(t)
    rotated = compress(act(result.transform, expand(t)))
    assert abs(rotated.d112) <= 1e-9
    assert abs(rotated.d113) <= 1e-9
    assert abs(rotated.d222) <= 1e-9
    assert rotated.d111 >= -1e-12
    assert rotated.d111 == pytest.approx(result.max_value, abs=1e-12)
    # params mirror the rotated tensor; applying the composed matrix in one
    # step instead of two costs an ulp or so, no more
    assert result.params.d111 == pytest.approx(rotated.d111, abs=1e-12)
    assert result.params.d122 == pytest.approx(rotated.d122, abs=1e-12)
    assert result.params.d123 == pytest.approx(rotated.d123, abs=1e-12)
    assert result.params.d223 == pytest.approx(rotated.d223, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_canonicalize_preserves_invariants(seed):
    t = random_tensor(seed + 100)
    result = canonicalize(t)
    before = smith_bao(t).as_array()
    after = smith_bao(result.params.to_tensor()).as_array()
    for x, y in zip(before, after):
        assert relative_error(float(x), float(y)) <= 1e-9


def _rotated_reference_tensors():
    for k, case in enumerate(reference_cases()):
        g = random_orthogonal(1000 + k, proper=k % 2 == 0)
        yield compress(act(g, expand(case.tensor)))


def test_canonicalize_is_idempotent():
    inputs = [random_tensor(seed) for seed in range(50)] + list(_rotated_reference_tensors())
    for t in inputs:
        first = canonicalize(t).params
        second = canonicalize(first.to_tensor()).params
        a, b = first.as_array(), second.as_array()
        # a second pass may flip residual signs at roundoff scale but the
        # parameters must agree
        assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, np.max(np.abs(a)))


@pytest.mark.parametrize("seed", range(10))
def test_canonicalize_is_scale_equivariant(seed):
    t = random_tensor(seed)
    norm = expand(t).frobenius()
    base = canonicalize(t).params.as_array()
    # 1e-160: products of restriction values underflow below about 1e-154;
    # 1e154 and 1e-300: squared entries overflow and underflow in the norm
    for scale in [*np.logspace(-15, 20, 8), 1e-160, 1e150, 1e154, 1e-300]:
        scaled = SymTraceless3.from_array(scale * t.as_array())
        result = canonicalize(scaled)
        rotated = compress(act(result.transform, expand(scaled)))
        worst = max(abs(rotated.d112), abs(rotated.d113), abs(rotated.d222))
        assert worst <= 1e-9 * scale * norm, scale
        gap = np.max(np.abs(result.params.as_array() - scale * base))
        assert gap <= 1e-9 * scale * norm, scale


def _tied_tensors():
    """The six reference cases, the I6 gap pair and d123 = 1; six of the
    nine have tied maximizers of their cubic form."""
    t0 = f_root()
    gap_low = SymTraceless3(
        d111=1.0, d122=-0.5 + 0.5 * math.sin(t0), d123=0.5 * math.cos(t0), d223=-2.0
    )
    gap_high = SymTraceless3(d111=1.0, d112=1.0, d113=1.0, d123=1.0)
    cases = [case.tensor for case in reference_cases()]
    return cases + [gap_low, gap_high, SymTraceless3(d123=1.0)]


TIED = _tied_tensors()


@settings(max_examples=60, deadline=None)
@given(
    t=st.one_of(st.integers(0, 9_999).map(random_tensor), st.sampled_from(TIED)),
    group=st.sampled_from(GROUPS),
    improper=st.booleans(),
    rotation_seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-12.0, 12.0),
)
def test_canonical_params_are_a_function_of_the_orbit(t, group, improper, rotation_seed, log_scale):
    # a tensor under a random element of the group and a scale lands on
    # the same params, scaled
    scale = 10.0**log_scale
    g = random_orthogonal(rotation_seed, proper=group == "SO(3)" or not improper)
    moved = SymTraceless3.from_array(scale * compress(act(g, expand(t))).as_array())
    base = canonicalize(t, group=group).params.as_array()
    params = canonicalize(moved, group=group).params.as_array()
    norm = expand(t).frobenius()
    assert np.max(np.abs(params - scale * base)) <= 1e-8 * scale * norm


@pytest.mark.parametrize("index", range(len(TIED)))
def test_tied_tensors_have_orbit_params(index):
    # each of them under fixed elements of each group, whatever hypothesis
    # draws; every other element drawn for O(3) is improper
    t = TIED[index]
    norm = expand(t).frobenius()
    for group in GROUPS:
        base = canonicalize(t, group=group).params.as_array()
        for k in range(15):
            g = random_orthogonal(7_000 + 31 * index + k, proper=group == "SO(3)" or k % 2 == 0)
            params = canonicalize(compress(act(g, expand(t))), group=group).params.as_array()
            assert np.max(np.abs(params - base)) <= 1e-8 * norm, (group, k)


def test_o3_transform_is_improper_only_between_mirror_images():
    # an improper copy of a chiral tensor has other SO(3) params; one of
    # a tensor with a mirror symmetry (d111 = d112 = 1 is fixed by
    # x3 -> -x3, though its SO(3) form has d123 = 0.387) has the same
    for index, t in enumerate(TIED):
        norm = expand(t).frobenius()
        so3 = canonicalize(t).params.as_array()
        o3 = canonicalize(t, group="O(3)").transform.det_sign
        for proper in (True, False):
            moved = compress(act(random_orthogonal(7_500 + index, proper=proper), expand(t)))
            mirrored = np.max(np.abs(canonicalize(moved).params.as_array() - so3)) > 1e-8 * norm
            det_sign = canonicalize(moved, group="O(3)").transform.det_sign
            assert (o3 * det_sign == -1) == mirrored, (index, proper)


def test_canonicalize_zero_tensor():
    result = canonicalize(SymTraceless3())
    assert result.max_value == 0.0
    assert np.array_equal(result.transform.m, np.eye(3))
    assert result.params.as_array().tolist() == [0.0, 0.0, 0.0, 0.0]


def test_zero_tensor_on_the_sphere():
    # the early returns for a zero tensor: the cubic form vanishes everywhere
    mx = maximize_cubic_on_sphere(SymTraceless3())
    assert mx.u.tolist() == [1.0, 0.0, 0.0]
    assert mx.value == 0.0 and mx.residual == 0.0
    assert mx.maximizers.tolist() == [[1.0, 0.0, 0.0]]
    assert mx.newton_iterations == 0
    assert stationarity_residual(SymTraceless3(), [1.0, 0.0, 0.0]) == 0.0

def test_canonicalize_deterministic():
    a = canonicalize(random_tensor(77))
    b = canonicalize(random_tensor(77))
    assert np.array_equal(a.params.as_array(), b.params.as_array())
    assert np.array_equal(a.transform.m, b.transform.m)


def test_canonical_result_json_shape():
    obj = canonicalize(random_tensor(3)).to_json_obj()
    assert set(obj) == {"params", "rotation", "max_value", "residual"}
    assert len(obj["rotation"]) == 3


def test_diagnostics_keys():
    result = canonicalize(random_tensor(9))
    assert set(result.diagnostics) >= {
        "newton_iterations",
        "stationarity_residual",
        "circle_residual",
        "constraint_violation",
    }
    # no ascent runs, so no ascent count is reported, for any tensor
    assert "ascent_iterations" not in result.diagnostics
    assert "ascent_iterations" not in canonicalize(SymTraceless3()).diagnostics
    assert result.diagnostics["constraint_violation"] <= 1e-9
    assert 1 <= result.diagnostics["newton_iterations"] <= 15


def test_stationarity_residual_checks_unit_norm():
    t = random_tensor(1)
    with pytest.raises(ValueError):
        stationarity_residual(t, [1.0, 1.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_stationarity_residual_rejects_nonfinite_x(bad):
    # |x| - 1 is nan for a nan entry, and nan > 1e-10 is False
    for t in (random_tensor(1), SymTraceless3()):
        with pytest.raises(ValueError, match="unit vector"):
            stationarity_residual(t, [bad, 0.0, 0.0])


def test_stationarity_residual_at_known_stationary_point():
    # e1 is stationary for the d111-only tensor
    assert stationarity_residual(SymTraceless3(d111=1.0), [1.0, 0.0, 0.0]) == 0.0
    # a generic direction is not
    v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    assert stationarity_residual(random_tensor(2), v) > 1e-3


# ------------------------------------------------ multi-start ascent oracle


def _spiral_lattice(n):
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def ascent_maximizers(t, starts=200, steps=600):
    """Independent oracle: the sphere maximum and its distinct maximizers.

    Shifted power iteration x <- (D x x + x) / |D x x + x| on the
    unit-norm tensor from a spiral lattice of starts, so each start climbs
    to a local maximum; values within 1e-8 of the best count as tied and
    points within 1e-3 of each other count once.
    """
    full = expand(t)
    norm = full.frobenius()
    d = full.entries / norm
    x = _spiral_lattice(starts)
    for _ in range(steps):
        x = np.einsum("ijk,sj,sk->si", d, x, x) + x
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    val = np.einsum("ijk,si,sj,sk->s", d, x, x, x)
    reps = []
    for row in x[val >= val.max() - 1e-8]:
        if all(np.linalg.norm(row - r) > 1e-3 for r in reps):
            reps.append(row)
    return val.max() * norm, np.array(reps)


# ------------------------------------------- batched numpy oracle of the solver
#
# The maximizer's Newton finish and canonicalize's frame scoring over numpy
# arrays, every candidate or frame at once: the same rules as the float code
# in the package, in other arithmetic, for the tests to compare against.


def contract(d, x, y):
    """Rows D_ijk x_j y_k of the 3x3x3 array d for (s, 3) batches x, y."""
    return np.einsum("ijk,sj,sk->si", d, x, y)


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def tangent_bases_batched(x):
    """Orthonormal tangent pairs (t1, t2) for a batch of unit vectors."""
    rows = np.arange(len(x))
    axis = np.argmin(np.abs(x), axis=1)
    t1 = -x[rows, axis][:, None] * x
    t1[rows, axis] += 1.0
    t1 = unit_rows(t1)
    # t2 = x cross t1
    t2 = x[:, [1, 2, 0]] * t1[:, [2, 0, 1]] - x[:, [2, 0, 1]] * t1[:, [1, 2, 0]]
    return t1, t2


def newton_polish(d, x, iters):
    """Batched Riemannian Newton for stationary points of the cubic form.

    Solves the projected system P(H - lambda I)P dx = -P grad in a 2d
    tangent basis; near-singular tangent Hessians fall back to a damped
    gradient step.  Step length is capped so iterates stay in their basin.
    Stops once every point's step is below 1e-15; returns the points and
    the iterations run.
    """
    it = 0
    n = len(x)
    for it in range(1, iters + 1):
        t1, t2 = tangent_bases_batched(x)
        basis = np.stack([t1, t2], axis=1)
        # one matmul gives the gradient / 3 and the Hessian products
        # H t / 6 for t = t1, t2, with H_ij = 6 d_ijk x_k
        p = contract(d, np.vstack([x, x, x]), np.vstack([x, t1, t2])).reshape(3, n, 3)
        grad = 3.0 * p[0]
        lam = (grad * x).sum(axis=1)
        ht = 6.0 * p[1:].transpose(1, 0, 2) - lam[:, None, None] * basis
        a = basis @ ht.transpose(0, 2, 1)  # a[:, i, j] = t_i . (H - lam) t_j
        b0, b1 = -(basis @ grad[:, :, None])[:, :, 0].T
        a00, a01, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
        det = a00 * a11 - a01 * a01
        safe = np.abs(det) > 1e-14 * (1.0 + a00 * a00 + a01 * a01 + a11 * a11)
        z0 = np.where(safe, (a11 * b0 - a01 * b1) / np.where(safe, det, 1.0), 0.2 * b0)
        z1 = np.where(safe, (a00 * b1 - a01 * b0) / np.where(safe, det, 1.0), 0.2 * b1)
        step_norm = np.hypot(z0, z1)
        cap = np.minimum(1.0, 0.3 / np.maximum(step_norm, 1e-300))
        x = unit_rows(x + (cap * z0)[:, None] * t1 + (cap * z1)[:, None] * t2)
        if np.all(cap * step_norm < 1e-15):
            break
    return x, it


def batched_maximizers(t):
    """maximize_cubic_on_sphere's rules on arrays: the distinct tied
    maximizers, u first."""
    full = expand(t)
    norm = full.frobenius()
    d = full.entries / norm
    x = np.array(_stationary_candidates(tuple(t.as_array() / norm)))
    val = np.abs((contract(d, x, x) * x).sum(axis=1))
    x, _ = newton_polish(d, x[val >= val.max() - 1e-6], iters=4)
    p = contract(d, x, x)
    val = (p * x).sum(axis=1)
    grad = 3.0 * p
    res = np.linalg.norm(grad - (grad * x).sum(axis=1, keepdims=True) * x, axis=1)
    flip = val < 0.0
    x[flip] *= -1.0
    val[flip] *= -1.0
    tied = np.flatnonzero((val >= val.max() - 1e-12) & (res <= 1e-12))
    tied = tied[np.lexsort((x[tied, 2], x[tied, 1], x[tied, 0]))[::-1]]
    maximizers = []
    while len(tied):
        maximizers.append(tied[0])
        tied = tied[np.linalg.norm(x[tied] - x[tied[0]], axis=1) > 1e-6]
    return x[maximizers]


def batched_canonicalize(t, group="SO(3)"):
    """canonicalize's frame scoring on arrays: every tied maximizer times
    every zero of h at once.  Returns the params, det_sign, max_value and
    the number of maximizers."""
    full = expand(t)
    norm = full.frobenius()
    u = batched_maximizers(t)
    t1, t2 = tangent_bases_batched(u)
    frames = np.stack([u, t1, t2], axis=1)
    d = full.entries / norm
    p = contract(d, np.vstack([u, u, t1]), np.vstack([u, t1, t1])).reshape(3, len(u), 1, 3)
    comps = (p @ frames.transpose(0, 2, 1))[:, :, 0, :]
    a111 = comps[0, :, 0]
    b22, b23 = comps[1, :, 1:].T
    a222, a223 = comps[2, :, 1:].T
    half_gap = 0.5 * (2.0 * b22 + a111)[:, None]
    theta = (np.arctan2(a223, a222)[:, None] + math.pi * (0.5 + np.arange(6))) / 3.0
    flat = np.hypot(a222, a223) <= 1e-13
    theta[flat] = 0.5 * np.arctan2(b23[flat, None], half_gap[flat])
    c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
    d122 = -0.5 * a111[:, None] + half_gap * c2 + b23[:, None] * s2
    d123 = b23[:, None] * c2 - half_gap * s2
    d223 = a223[:, None] * np.cos(3.0 * theta) - a222[:, None] * np.sin(3.0 * theta)
    mirror = group == "O(3)"
    keep = np.ones(theta.shape, dtype=bool)
    for key in (d122, np.abs(d123), d223, d123) if mirror else (d122, d123, d223):
        keep &= key >= key[keep].max() - 1e-10
    i, j = np.unravel_index(np.argmax(keep), keep.shape)
    m = about_e1(float(theta[i, j])) @ frames[i]
    det_sign = 1
    if mirror and d123[i, j] < -1e-10:
        m[1] *= -1.0
        det_sign = -1
    out = compress(act(OrthogonalTransform3(m, det_sign), full))
    params = np.array([out.d111, out.d122, out.d123, out.d223])
    return params, det_sign, norm * float(a111[i]), len(u)


def polish_every_candidate(t):
    """Oracle for the polish filter: 4 Newton steps on every candidate.

    The solver polishes only the candidates within 1e-6 of the top value;
    this polishes all of them and applies the same selection rule,
    returning the value and the distinct tied maximizers.
    """
    full = expand(t)
    norm = full.frobenius()
    x = np.array(_stationary_candidates(tuple(t.as_array() / norm)))
    x, _ = newton_polish(full.entries / norm, x, iters=4)
    val = np.einsum("ijk,si,sj,sk->s", full.entries / norm, x, x, x)
    grad = 3.0 * np.einsum("ijk,sj,sk->si", full.entries / norm, x, x)
    res = np.linalg.norm(grad - np.sum(grad * x, axis=1, keepdims=True) * x, axis=1)
    x[val < 0.0] *= -1.0
    val = np.abs(val)
    tied = x[(val >= val.max() - 1e-12) & (res <= 1e-12)]
    reps = []
    for row in tied:
        if all(np.linalg.norm(row - r) > 1e-6 for r in reps):
            reps.append(row)
    return val.max() * norm, np.array(reps)


def assert_matches_polish_oracle(t, mx):
    value, reps = polish_every_candidate(t)
    assert abs(mx.value - value) <= 1e-12 * expand(t).frobenius()
    assert len(mx.maximizers) == len(reps)
    for r in reps:
        assert np.min(np.linalg.norm(mx.maximizers - r, axis=1)) <= 1e-9


def assert_matches_oracle(t):
    mx = maximize_cubic_on_sphere(t)
    value, reps = ascent_maximizers(t)
    norm = expand(t).frobenius()
    assert abs(mx.value - value) <= 1e-9 * norm
    assert len(mx.maximizers) == len(reps)
    for r in reps:
        assert np.min(np.linalg.norm(mx.maximizers - r, axis=1)) <= 1e-4
    assert_matches_polish_oracle(t, mx)
    return mx


@pytest.mark.parametrize("seed", range(0, 400, 20))
def test_maximizer_matches_oracle_on_seeded_tensors(seed):
    assert_matches_oracle(random_tensor(seed))


@pytest.mark.parametrize("index", range(len(TIED)))
def test_tied_maximizers_match_oracle(index):
    for proper in (True, False):
        g = random_orthogonal(8_000 + index, proper=proper)
        assert_matches_oracle(compress(act(g, expand(TIED[index]))))


@pytest.mark.parametrize("case, seed, proper", [(0, 50_066, True), (2, 52_147, False)])
def test_tied_maximizer_whose_candidate_starts_low_is_found(case, seed, proper):
    # the unpolished candidate on one of the three tied maximizers starts
    # 5.1e-6 (case 0) and 1.9e-6 (case 2) below the top value, beyond a
    # finishing slack of 1e-6
    t = compress(act(random_orthogonal(seed, proper=proper), expand(reference_cases()[case].tensor)))
    assert len(assert_matches_oracle(t).maximizers) == 3


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-8, 1e-4, 1e-2, 1e-1])
def test_axial_family_matches_oracle(eps):
    # d111 = 2, d122 = -1 is invariant under rotations about e1: its
    # stationary points off the axis form a ring, and the resultant of
    # every chart vanishes identically; the maximizer is the axis
    axial = SymTraceless3(d111=2.0, d122=-1.0)
    for k in range(3):
        g = random_orthogonal(9_000 + k, proper=k != 1)
        moved = compress(act(g, expand(axial))).as_array()
        t = SymTraceless3.from_array(moved + eps * random_tensor(9_100 + k).as_array())
        mx = assert_matches_oracle(t)
        if eps == 0.0:
            assert mx.value == pytest.approx(2.0, rel=1e-12)
            assert np.max(np.abs(mx.u - g.m[:, 0])) < 1e-9


def _planted(u, seed):
    """A generic tensor whose cubic form has its maximum at the unit vector u.

    The canonical form of a random tensor peaks at e1; rotating e1 onto u
    moves the peak there.  The oracle comparison checks both steps.
    """
    base = canonicalize(random_tensor(seed)).params.to_tensor()
    frame = np.vstack([u, *_tangent_bases(u.tolist())])  # frame u = e1
    g = OrthogonalTransform3(frame.T, 1)  # g e1 = u
    return compress(act(g, expand(base)))


@pytest.mark.parametrize("chart", range(3))
def test_maximizers_on_chart_boundaries_match_oracle(chart):
    u0, u1, u2 = _CHART_FRAME
    points = [
        # the chart's plane at infinity x . u0 = 0, where a root y runs off
        # to infinity, and its y-axis u1 there
        [math.cos(phi) * u1 + math.sin(phi) * u2 for phi in (0.3, 1.9, 4.4)] + [u1],
        # the chart's z-axis, which makes its resultant vanish, and its centre
        [u2, -u2, u0, -u0],
        # the axes of the second and third frames, which are solved when the
        # chart is degenerate
        [_SECOND_FRAME[0], -_SECOND_FRAME[1], _SECOND_FRAME[2], -_THIRD_FRAME[0], _THIRD_FRAME[2]],
    ][chart]
    for k, u in enumerate(points):
        mx = assert_matches_oracle(_planted(u, 60 + 4 * chart + k))
        assert len(mx.maximizers) == 1
        assert np.max(np.abs(mx.u - u)) < 1e-9


@pytest.mark.parametrize("scale", [1e-150, 1e-75, 1e75, 1e150])
def test_maximizer_matches_oracle_across_scales(scale):
    for seed in (11, 12):
        t = random_tensor(seed)
        scaled = SymTraceless3.from_array(scale * t.as_array())
        mx = assert_matches_oracle(scaled)
        base = maximize_cubic_on_sphere(t)
        assert mx.value / scale == pytest.approx(base.value, rel=1e-12)
        assert np.max(np.abs(mx.u - base.u)) < 1e-12



def test_filtered_polish_matches_polishing_every_candidate():
    # the oracle families above check the same on their inputs
    for seed in range(200):
        t = random_tensor(seed)
        assert_matches_polish_oracle(t, maximize_cubic_on_sphere(t))


def test_newton_polish_stops_early_on_the_filtered_candidates():
    # 1 or 2 steps reach the 1e-15 exit on the few candidates near the top;
    # polishing every candidate would run all 4
    for seed in range(50):
        assert canonicalize(random_tensor(seed)).diagnostics["newton_iterations"] <= 2, seed


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_residuals_stay_finite_at_huge_norms(scale):
    for seed in range(10):
        t = SymTraceless3.from_array(scale * random_tensor(seed).as_array())
        norm = expand(t).frobenius()
        mx = maximize_cubic_on_sphere(t)
        assert math.isfinite(mx.residual) and mx.residual <= 1e-12 * norm, seed
        residual = stationarity_residual(t, mx.u)
        assert math.isfinite(residual) and residual <= 1e-12 * norm, seed


def test_canonicalize_accepts_a_full_tensor():
    for seed in range(5):
        t = random_tensor(seed)
        a, b = canonicalize(t), canonicalize(expand(t))
        assert np.array_equal(a.params.as_array(), b.params.as_array())
        assert np.array_equal(a.transform.m, b.transform.m)


def test_full_tensor_entry_is_validated_by_compress():
    # a 27-entry array is compressed at entry, which checks it
    t = random_tensor(0)
    x = [1.0, 0.0, 0.0]
    for fault, broken in (("symmetric", (0, 1, 2)), ("traceless", (0, 0, 0))):
        entries = np.array(expand(t).entries)
        entries[broken] += 0.1
        full = FullTensor3(entries)
        for call in (canonicalize, maximize_cubic_on_sphere, lambda f: stationarity_residual(f, x)):
            with pytest.raises(ValueError, match=f"array is not {fault}"):
                call(full)


def assert_matches_batched_oracle(t, label):
    norm = expand(t).frobenius()
    for group in GROUPS:
        params, det_sign, max_value, count = batched_canonicalize(t, group)
        result = canonicalize(t, group=group)
        assert np.max(np.abs(result.params.as_array() - params)) <= 1e-13 * norm, (label, group)
        out = compress(act(result.transform, expand(t)))
        read = [out.d111, out.d122, out.d123, out.d223]
        assert np.max(np.abs(result.params.as_array() - read)) <= 1e-15 * norm, (label, group)
        assert result.transform.det_sign == det_sign, (label, group)
        assert abs(result.max_value - max_value) <= 1e-13 * norm, (label, group)
    assert len(maximize_cubic_on_sphere(t).maximizers) == count, label


def test_canonicalize_matches_the_batched_oracle():
    # the float finish and frame scoring against the array code they
    # replaced: seeds 0..299, and TIED under a proper and an improper element.
    # The closed-form params are also the input read in the returned frame.
    inputs = [random_tensor(seed) for seed in range(300)]
    for index, t in enumerate(TIED):
        for proper in (True, False):
            inputs.append(compress(act(random_orthogonal(8_500 + index, proper=proper), expand(t))))
    for k, t in enumerate(inputs):
        assert_matches_batched_oracle(t, k)


# g = 2 x3^3 - 3 x3 (x1^2 + x2^2), as d333 = -d113 - d223 = 2: zonal about e3
ZONAL = SymTraceless3(d113=-1.0, d223=-1.0)


def test_zonal_family_maximizer_is_the_axis():
    # the resultants of a zonal tensor vanish in every chart, so its axis,
    # the maximizer, comes from the covariant vector v = (0, 0, 8) alone
    assert _slice_kernel(*ZONAL.as_array().tolist())[1] == (0.0, 0.0, 8.0)
    for k in range(200):
        g = random_orthogonal(9_500 + k, proper=k % 2 == 0)
        t = compress(act(g, expand(ZONAL)))
        mx = maximize_cubic_on_sphere(t)
        axis = g.m[:, 2]
        assert mx.value == pytest.approx(2.0, rel=1e-12), k
        assert len(mx.maximizers) == 1, k
        assert min(np.max(np.abs(mx.u - axis)), np.max(np.abs(mx.u + axis))) <= 1e-12, k
        assert_matches_batched_oracle(t, k)


@pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3])
def test_perturbed_zonal_family_maximizer_stays_at_the_axis(eps):
    # near-zonal resultants are near zero and their roots are noise; v
    # stays within O(eps) of the axis, and Newton finishes from there
    for k in range(6):
        g = random_orthogonal(9_800 + k, proper=k % 2 == 0)
        moved = compress(act(g, expand(ZONAL))).as_array()
        t = SymTraceless3.from_array(moved + eps * random_tensor(9_900 + k).as_array())
        u = maximize_cubic_on_sphere(t).u
        axis = g.m[:, 2]
        assert min(np.max(np.abs(u - axis)), np.max(np.abs(u + axis))) <= 1e-12 + 3.0 * eps, k
        assert_matches_batched_oracle(t, k)


def test_maximizer_raises_when_no_candidate_is_left(monkeypatch):
    # the d123-only tensor has v = 0, so once no root counts as real there
    # is no candidate at all; the message names the tensor
    monkeypatch.setattr(canonical_form, "_ROOT_TOL", -1.0)
    t = SymTraceless3(d123=1.0)
    assert _stationary_candidates(t.as_array().tolist()) == []
    for call in (maximize_cubic_on_sphere, canonicalize):
        with pytest.raises(ConvergenceError, match=r"no stationary point found for SymTraceless3\(d111=0.0, .*d123=1.0"):
            call(t)


# the three charts of _CHART_FRAME, rows in cyclic order (c, c+1, c+2)
THREE_CHARTS = canonical_form._chart_tables([_CHART_FRAME[[c, (c + 1) % 3, (c + 2) % 3]] for c in range(3)])


def wide_window_candidates(c):
    """The candidates under the rule that one chart replaced, kept as an
    oracle: in each of three charts, every root with |Im y| <= 1e-4 and
    |y| <= 1.5, and both roots z of g with |z| <= 1.5, which reaches many
    stationary points in more than one chart; in place of v come the three
    eigenvectors of the moment matrix."""
    d = np.array(c)
    rows = []
    for (p, q, r), sylvester, g_table in THREE_CHARTS:
        coef = (np.linalg.det((sylvester @ d).reshape(5, 5, 5)) @ canonical_form._INVERSE_DFT).real
        top = 1e-14 * np.max(np.abs(coef))
        companion = np.eye(7, k=-1)
        companion[:, 6] = -coef[:7] / ((coef[7] if abs(coef[7]) > top else top) or 1.0)
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = (g_table @ d).reshape(3, 4).tolist()
        for y in np.linalg.eigvals(companion).tolist():
            if not (abs(y.imag) <= 1e-4 and abs(y.real) <= 1.5):
                continue
            y = y.real
            g0 = ((a3 * y + a2) * y + a1) * y + a0
            g1 = ((b3 * y + b2) * y + b1) * y + b0
            g2 = ((c3 * y + c2) * y + c1) * y + c0
            root = -0.5 * (g1 + math.copysign(math.sqrt(max(g1 * g1 - 4.0 * g0 * g2, 0.0)), g1))
            for num, den in ((root, g2), (g0, root)):
                z = num / den if den != 0.0 else math.inf
                if abs(z) <= 1.5:
                    x = [p[k] + y * q[k] + z * r[k] for k in range(3)]
                    rows.append((np.array(x) / np.linalg.norm(x)).tolist())
    return rows + np.linalg.eigh(moment_matrix(SymTraceless3(*c)))[1].T.tolist()


def tangential_residuals(d, x):
    """||grad g - (x . grad g) x|| at each row of x, for the cubic form of d."""
    grad = 3.0 * contract(d, x, x)
    return np.linalg.norm(grad - np.sum(grad * x, axis=1, keepdims=True) * x, axis=1)


def stationary_lines(x):
    """The distinct lines {x, -x} through the rows of x, one row each; rows
    within 1e-6 count once."""
    reps = np.empty((0, 3))
    for row in x:
        # min |row -+ r| = sqrt(2 - 2 |row . r|) for unit rows
        if not np.any(np.abs(reps @ row) >= 1.0 - 5e-13):
            reps = np.vstack([reps, row])
    return reps


def test_candidates_reach_every_stationary_point_of_the_wide_window():
    # one chart and v for the eigh axes lose none of the points that three
    # windowed charts and the moment-matrix axes reach.
    # The candidates of both rules with residual below 1e-3 are polished in
    # one batch of up to 40 steps, not the solver's 4: at a degenerate
    # stationary point (e2 of the d111-only tensor, where g vanishes to
    # third order) Newton converges only linearly from candidates about
    # 1e-5 off.
    inputs = [random_tensor(seed) for seed in range(2000)]
    for index, t in enumerate(TIED):
        for k in range(4):
            inputs.append(compress(act(random_orthogonal(8_700 + 7 * index + k, proper=k % 2 == 0), expand(t))))
    for k, t in enumerate(inputs):
        c = tuple(t.as_array() / expand(t).frobenius())
        d = expand(SymTraceless3(*c)).entries
        rows = _stationary_candidates(c)
        x = np.array(rows + wide_window_candidates(c))
        near = tangential_residuals(d, x) <= 1e-3
        x[near], _ = newton_polish(d, x[near], iters=40)
        stationary = near & (tangential_residuals(d, x) <= 1e-10)
        new = stationary_lines(x[: len(rows)][stationary[: len(rows)]])
        old = stationary_lines(x[len(rows) :][stationary[len(rows) :]])
        assert len(new) == len(old), k
        assert np.all(np.max(np.abs(old @ new.T), axis=1) >= 1.0 - 5e-13), k


def oracle_stationary_lines(t):
    """The stationary lines of the unit-norm tensor of t, one unit row each,
    from the three-chart oracle's candidates polished by up to 40 steps."""
    unit = tuple(t.as_array() / expand(t).frobenius())
    d = expand(SymTraceless3(*unit)).entries
    x = np.array(wide_window_candidates(unit))
    x, _ = newton_polish(d, x[tangential_residuals(d, x) <= 1e-3], iters=40)
    return stationary_lines(x[tangential_residuals(d, x) <= 1e-12])


def moving(p, a):
    """A rotation R with R p = a, for unit vectors p and a."""
    return np.array([a, *_tangent_bases(a.tolist())]).T @ np.array([p, *_tangent_bases(p.tolist())])


def about_axis(axis, angle):
    """The rotation by angle about axis (Rodrigues)."""
    k = np.cross(np.eye(3), axis / np.linalg.norm(axis))  # k @ x = axis x x
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def solver_placements(lines):
    """Rotations that put a stationary line on each axis of each frame, and
    the plane of each pair of lines on each frame's plane at infinity."""
    frames = (_CHART_FRAME, _SECOND_FRAME, _THIRD_FRAME)
    moves = [moving(p, axis) for p in lines for frame in frames for axis in frame]
    for i, p in enumerate(lines):
        for q in lines[i + 1 :]:
            normal = np.cross(p, q)
            moves += [moving(normal / np.linalg.norm(normal), frame[0]) for frame in frames]
    return moves


def test_stationary_points_on_the_solver_axes_keep_the_params():
    # a stationary point on the chart's z-axis makes its resultant vanish,
    # and two on its plane at infinity make its two top coefficients
    # vanish; the chart then has lost points, and the next frame finds
    # them.  Each placement is checked exactly and turned off it by one of
    # 1e-12..1e-2 rad, so both sides of the degeneracy cut are crossed, one
    # under each group: a proper copy under SO(3), an improper one under O(3)
    rng = np.random.default_rng(0)
    angles = [10.0**-k for k in range(12, 1, -1)]
    for seed in range(20):
        t = random_tensor(seed)
        c = t.as_array().tolist()
        norm = expand(t).frobenius()
        base = {group: canonicalize(t, group=group).params.as_array() for group in GROUPS}
        for k, move in enumerate(solver_placements(oracle_stationary_lines(t))):
            near = about_axis(rng.normal(size=3), angles[k % len(angles)]) @ move
            for r, group in zip((move, near), GROUPS[k % 2 :] + GROUPS[: k % 2]):
                sign = 1.0 if group == "SO(3)" else -1.0
                moved = SymTraceless3(*_in_frame(c, (sign * r).tolist()))
                params = canonicalize(moved, group=group).params.as_array()
                assert np.max(np.abs(params - base[group])) <= 1e-8 * norm, (seed, k, group)


def with_stationary_points(points, seed):
    """A tensor whose cubic form is stationary at each unit vector in points:
    a random element of the null space of the linear conditions
    d112 = d113 = 0 read in a frame (p, t1, t2) at each p."""
    rows = []
    for p in points:
        frame = (list(p), *_tangent_bases(list(p)))
        rows += [[_in_frame(b, frame)[k] for b in np.eye(7).tolist()] for k in (1, 2)]
    null = np.linalg.svd(np.array(rows))[2][len(rows) :]
    return SymTraceless3(*(np.random.default_rng(seed).normal(size=len(null)) @ null))


def in_plane_at_infinity(frame, seed):
    """A unit vector orthogonal to the first row of frame."""
    phi = np.random.default_rng(seed).uniform(0.0, math.pi)
    return math.cos(phi) * frame[1] + math.sin(phi) * frame[2]


def two_frames_degenerate(k):
    """Stationary points that make the charts of the first two frames both
    degenerate: on both z-axes, or on one z-axis and two on the other's plane
    at infinity."""
    a, b = _CHART_FRAME, _SECOND_FRAME
    return [
        [a[2], b[2]],
        [a[2], in_plane_at_infinity(b, k), in_plane_at_infinity(b, k + 1)],
        [in_plane_at_infinity(a, k), in_plane_at_infinity(a, k + 1), b[2]],
    ][k % 3]


def test_stationary_points_that_kill_two_charts_keep_the_params():
    # tensors built with stationary points where the first two frames'
    # charts are degenerate; the third frame's chart finds them
    for k in range(60):
        t = with_stationary_points(two_frames_degenerate(k), 70 + k)
        norm = expand(t).frobenius()
        for group in GROUPS:
            g = random_orthogonal(9_600 + k, proper=group == "SO(3)")
            want = canonicalize(compress(act(g, expand(t))), group=group).params.as_array()
            params = canonicalize(t, group=group).params.as_array()
            assert np.max(np.abs(params - want)) <= 1e-8 * norm, (k, group)


def test_each_degenerate_chart_costs_one_more_det(monkeypatch):
    # a frame's resultant is computed only when the charts before it are
    # degenerate, and only the chart solved gets an eigvals
    t = random_tensor(3)
    p, q = oracle_stationary_lines(t)[:2]
    normal = np.cross(p, q)
    placed = [
        (_planted(_CHART_FRAME[2], 64), 2),  # a maximizer on the z-axis
        # two stationary points on the plane at infinity
        (SymTraceless3(*_in_frame(t.as_array().tolist(), moving(normal / np.linalg.norm(normal), _CHART_FRAME[0]).tolist())), 2),
        (with_stationary_points(two_frames_degenerate(0), 70), 3),
    ]
    calls = count_linalg_calls(monkeypatch)
    for moved, dets in placed:
        calls.clear()
        maximize_cubic_on_sphere(moved)
        assert calls == {"det": dets, "eigvals": 1}


def test_canonicalize_calls_each_traced_boundary_once(monkeypatch):
    # perfbench times canonicalize's layers by rebinding this module name
    # of triso.canonical_form, and reads the maximizer's iterations
    import triso.canonical_form as module

    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, out))
            return out

        return counted

    names = ("maximize_cubic_on_sphere",)
    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for group, t in zip(GROUPS, [random_tensor(5), TIED[-1]]):
        calls.clear()
        canonicalize(t, group=group)
        assert sorted(name for name, _ in calls) == sorted(names), group
        assert [out.iterations for name, out in calls if name == names[0]] == [0]


def test_canonicalize_compresses_a_full_array_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return compress(f)

    monkeypatch.setattr(tensor_core, "compress", counting)
    for group, t in zip(GROUPS, [random_tensor(5), TIED[-1]]):
        calls.clear()
        result = canonicalize(expand(t), group=group)
        assert len(calls) == 1, group
        want = canonicalize(t, group=group)
        assert result.params == want.params and result.max_value == want.max_value
        assert np.array_equal(result.transform.m, want.transform.m)
        assert result.transform.det_sign == want.transform.det_sign
        assert result.diagnostics == want.diagnostics
