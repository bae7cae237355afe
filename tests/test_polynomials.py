import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triso.invariants import CanonicalParams, smith_bao
from triso.polynomials import (
    CANONICAL_BASIS,
    DET_FACTOR_4,
    DET_FACTOR_10,
    DET_JACOBIAN,
    NVARS,
    I2_CANONICAL,
    I4_CANONICAL,
    I6_CANONICAL,
    I10_CANONICAL,
    Poly,
    _CHUNK_ROWS,
    _MonomialTable,
)

x0, x1, x2, x3 = (Poly.variable(i) for i in range(NVARS))

coords = st.floats(min_value=-3, max_value=3, allow_nan=False)


@given(st.lists(coords, min_size=4, max_size=4))
def test_binomial_identity(p):
    lhs = (x0 + x1) ** 2
    rhs = x0**2 + 2 * x0 * x1 + x1**2
    assert lhs(p) == rhs(p)
    assert (lhs - rhs).terms == {}


def test_arithmetic_with_scalars():
    p = 2 * x0 - 3
    assert p((1.0, 0, 0, 0)) == -1.0
    assert (x0 * 0).terms == {}
    assert (x0 - x0).terms == {}


def test_power_validation():
    with pytest.raises(ValueError):
        x0 ** (-1)


def test_degree():
    assert Poly.constant(5).degree() == 0
    assert (x0 * x1**2 + x3).degree() == 3
    assert DET_JACOBIAN.degree() == 18
    assert DET_FACTOR_4.degree() == 4
    assert DET_FACTOR_10.degree() == 10


def test_diff_product_rule():
    p = x0**2 * x1  # d/dx0 = 2 x0 x1, d/dx1 = x0^2
    assert p.diff(0).terms == (2 * x0 * x1).terms
    assert p.diff(1).terms == (x0**2).terms
    assert p.diff(2).terms == {}


@given(st.lists(coords, min_size=4, max_size=4), st.integers(0, 3))
def test_diff_matches_finite_differences(p, i):
    poly = I4_CANONICAL
    h = 1e-6 * max(1.0, abs(p[i]))
    up = list(p)
    dn = list(p)
    up[i] += h
    dn[i] -= h
    fd = (poly(up) - poly(dn)) / (2 * h)
    exact = poly.diff(i)(p)
    assert abs(exact - fd) <= 1e-5 * max(1.0, abs(exact))


def condition_scale(poly, p):
    # sum |c| * |monomial|: the natural error scale for float evaluation of
    # a cancellation-prone polynomial (its value can be far smaller)
    absolute = Poly({e: abs(c) for e, c in poly.terms.items()})
    return absolute(np.abs(np.asarray(p, dtype=float)))


def test_eval_many_matches_scalar_eval():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(40, 4))
    for poly in CANONICAL_BASIS + (DET_JACOBIAN,):
        batch = poly.eval_many(pts)
        for p, got in zip(pts, batch):
            assert abs(got - poly(p)) <= 1e-12 * max(1.0, condition_scale(poly, p))


def test_complex_points_raise_type_error():
    # the tables evaluate real points only; a complex array is refused rather
    # than cast to float, which would drop its imaginary part
    pts = np.random.default_rng(1).uniform(-2, 2, size=(10, 4)) + 1j * 1e-30
    for poly in CANONICAL_BASIS + (DET_FACTOR_4, Poly()):
        with pytest.raises(TypeError, match="real"):
            poly.eval_many(pts)
        with pytest.raises(TypeError, match="real"):
            poly(pts[0])
    with pytest.raises(TypeError, match="real"):
        _MonomialTable(CANONICAL_BASIS)(pts)


def test_canonical_polys_have_expected_degrees():
    assert [p.degree() for p in CANONICAL_BASIS] == [2, 4, 6, 10]


@given(st.lists(coords, min_size=4, max_size=4))
def test_canonical_polys_match_contraction_path(p):
    # independent oracle: expand the canonical tensor and contract fully
    tup = smith_bao(CanonicalParams(*p).to_tensor())
    scale = max(1.0, sum(abs(v) for v in p)) ** 10
    assert abs(I2_CANONICAL(p) - tup.i2) <= 1e-11 * scale
    assert abs(I4_CANONICAL(p) - tup.i4) <= 1e-11 * scale
    assert abs(I6_CANONICAL(p) - tup.i6) <= 1e-11 * scale
    assert abs(I10_CANONICAL(p) - tup.i10) <= 1e-11 * scale


def test_det_jacobian_factors():
    # the determinant factors as 27648 * d123 * F4 * d223^3 * F10; check the
    # product against the assembled table at random points.  The assembled
    # degree-18 table cancels heavily at some points, so the comparison
    # scale is its condition sum, not its value.
    rng = np.random.default_rng(1)
    for p in rng.uniform(-2, 2, size=(50, 4)):
        d123, d223 = p[2], p[3]
        product = 27648.0 * d123 * DET_FACTOR_4(p) * d223**3 * DET_FACTOR_10(p)
        assembled = DET_JACOBIAN(p)
        assert abs(product - assembled) <= 1e-12 * max(1.0, condition_scale(DET_JACOBIAN, p))


def test_det_jacobian_vanishes_on_hyperplanes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = rng.uniform(-2, 2, size=4)
        p123 = p.copy()
        p123[2] = 0.0
        p223 = p.copy()
        p223[3] = 0.0
        assert DET_JACOBIAN(p123) == 0.0
        assert DET_JACOBIAN(p223) == 0.0


def test_det_jacobian_pinned_value():
    # frozen regression point: the table must not drift
    assert DET_JACOBIAN((1.0, -0.7, 1.3, 0.9)) == pytest.approx(
        -14994302.920464532, rel=1e-12
    )


def canonical_array():
    # the canonical tensor (d112 = d113 = d222 = 0) as a 3x3x3 array of Poly
    # entries, traces eliminated: (0,2,2) = -d111 - d122, (2,2,2) = -d223
    zero = Poly()
    families = {
        (0, 0, 0): x0,
        (0, 1, 1): x1,
        (0, 1, 2): x2,
        (1, 1, 2): x3,
        (0, 2, 2): -x0 - x1,
        (2, 2, 2): -x3,
    }
    arr = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    for triple, value in families.items():
        for i, j, k in set(itertools.permutations(triple)):
            arr[i][j][k] = value
    return arr


def test_canonical_polys_are_the_exact_contractions():
    # Smith-Bao contractions carried out in exact Poly arithmetic: the
    # transcribed tables equal them term by term, with integer coefficients
    d = canonical_array()
    r = range(3)
    i2 = sum((d[i][j][k] * d[i][j][k] for i in r for j in r for k in r), Poly())
    m = [[sum((d[i][j][k] * d[i][j][l] for i in r for j in r), Poly()) for l in r] for k in r]
    i4 = sum((m[k][l] * m[k][l] for k in r for l in r), Poly())
    v = [sum((m[k][l] * d[k][l][p] for k in r for l in r), Poly()) for p in r]
    i6 = sum((v[p] * v[p] for p in r), Poly())
    w = [[sum((d[i][j][k] * v[i] for i in r), Poly()) for k in r] for j in r]
    u = [sum((w[j][k] * v[j] for j in r), Poly()) for k in r]
    i10 = sum((u[k] * v[k] for k in r), Poly())
    for contracted, table in zip((i2, i4, i6, i10), CANONICAL_BASIS):
        assert (contracted - table).terms == {}


def laplace_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = Poly()
    for col, entry in enumerate(rows[0]):
        minor = [row[:col] + row[col + 1 :] for row in rows[1:]]
        term = entry * laplace_det(minor)
        total = total + term if col % 2 == 0 else total - term
    return total


def test_det_jacobian_is_the_exact_determinant():
    # the Laplace expansion of the exact partials' determinant is the
    # transcribed DET_JACOBIAN: a nonzero polynomial, so the four
    # invariants are algebraically independent (Jacobian criterion)
    jacobian = [[p.diff(k) for k in range(NVARS)] for p in CANONICAL_BASIS]
    assert (laplace_det(jacobian) - DET_JACOBIAN).terms == {}


@pytest.mark.parametrize("n", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
def test_monomial_table_matches_one_point_eval(n):
    polys = CANONICAL_BASIS + (DET_FACTOR_4, DET_FACTOR_10, DET_JACOBIAN, Poly.constant(3))
    pts = np.random.default_rng(n).uniform(-2, 2, size=(n, NVARS))
    values = _MonomialTable(polys)(pts)
    assert values.shape == (n, len(polys))
    for j, poly in enumerate(polys):
        # condition_scale at every point, with the absolute table built once
        absolute = Poly({e: abs(c) for e, c in poly.terms.items()})
        for p, got in zip(pts, values[:, j]):
            assert abs(got - poly(p)) <= 1e-12 * max(1.0, absolute(np.abs(p)))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="np.longdouble is a plain double here"
)
def test_monomial_table_is_accurate_where_the_factor_cancels():
    # drawn by independence_report(1000, 4): DET_FACTOR_10's terms cancel by
    # seven digits here (condition 2.3e7), and plain double evaluation is off
    # by 7e-10 relative.  Extended-precision monomials and an exact sum leave
    # an error near 2^-64 times the sum of |terms|, 1e-13 relative here.
    p = [1.6579486480544245, -1.5806846321271224, 0.004667397395683892, 0.40098996975297574]
    q = [Fraction(v) for v in p]
    for poly in (DET_FACTOR_10,) + CANONICAL_BASIS:
        terms = [c * q[0] ** e[0] * q[1] ** e[1] * q[2] ** e[2] * q[3] ** e[3] for e, c in poly.terms.items()]
        exact = sum(terms)
        scale = sum(abs(t) for t in terms)
        got = _MonomialTable((poly,))(np.array([p]))[0, 0]
        assert abs(Fraction(got) - exact) <= 2.0**-52 * abs(exact) + 1e-17 * scale
