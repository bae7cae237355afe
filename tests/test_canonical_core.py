"""Exact identities of the closed forms in ``canonical_core``.

Each kernel that the float solve runs is also run here on ints or
Fractions and compared for equality, with no tolerance, against its
definition: the 27-entry contraction D(a, b, c) = D_ijk a_i b_j c_k, the
5x5 Sylvester determinant, or the frame read ``components._in_frame``.
Each result's type is checked too, so that a float literal factor, which
would turn exact inputs into floats, fails.  The float tests in
``test_canonical_form.py`` check the rounding.
"""

import itertools
import random
from fractions import Fraction

import pytest

from triso import canonical_core
from triso.canonical_core import _about_e1, _about_e1_rest, _cubic_values, _resultant, _tangent_system
from triso.components import _LAYOUT, _in_frame, _slices

BASIS = [tuple(int(i == j) for j in range(7)) for i in range(7)]
# the indices (a, b, c) of the seven components, d111 ... d223
SEVEN = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 1), (0, 1, 2), (1, 1, 1), (1, 1, 2))


def full(c):
    """The 27 entries D_ijk of the tensor with the seven components c."""
    slices = _slices(*c)
    return [[[slices[k][_LAYOUT[i][j]] for k in range(3)] for j in range(3)] for i in range(3)]


def contract(d, a, b, c):
    """D(a, b, c) = D_ijk a_i b_j c_k."""
    return sum(d[i][j][k] * a[i] * b[j] * c[k] for i in range(3) for j in range(3) for k in range(3))


def quaternion_frame(w, x, y, z):
    """|q|^2 R(q) for the quaternion q: integer rows, orthogonal, each of squared norm |q|^4."""
    return [
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ]


def exact_det(m):
    """The determinant of an integer matrix, by Bareiss's fraction-free elimination."""
    m = [list(row) for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def test_resultant_is_the_sylvester_determinant_as_a_polynomial():
    # of degree at most 2 in each f_i (two rows of f) and 3 in each g_j
    # (three rows of g), so agreement on 3 values of each f_i and 4 of each
    # g_j proves the identity
    for f in itertools.product((-1, 0, 1), repeat=4):
        for g in itertools.product((-1, 0, 1, 2), repeat=3):
            fr, gr = f[::-1], g[::-1]
            sylvester = [fr + (0,), (0,) + fr, gr + (0, 0), (0,) + gr + (0,), (0, 0) + gr]
            got = _resultant(list(f), list(g))
            assert type(got) is int and got == exact_det(sylvester), (f, g)


def form(coefficients, y, w, z):
    """sum_k z^k sum_j p_k[j] y^j w^(n_k - j), from a chart polynomial's coefficients."""
    return sum(
        z**k * sum(a * y**j * w ** (len(p) - 1 - j) for j, a in enumerate(p)) for k, p in enumerate(coefficients)
    )


@pytest.mark.parametrize("chart", range(6))
def test_chart_polynomials_are_the_stationarity_conditions_in_integer_frames(chart):
    # the tensor read in two exactly orthogonal integer frames, as the float
    # solve reads it in its two fixed frames: at x = w u0 + y u1 + z u2,
    # with P_m = D(u_m, x, x), f = z P0 - w P2 and g = w P1 - y P0.  Both
    # sides are linear in the tensor and cubic in (y, w, z), so the basis
    # tensors and 4 values of each of y, w, z prove it for this chart
    frames = [quaternion_frame(70, 41, -33, 49), quaternion_frame(90, 40, -15, -5)]
    which, order = canonical_core._CHART_ORDERS[chart]
    u = [frames[which][i] for i in order]
    rng = random.Random(chart)
    tensors = BASIS + [tuple(rng.randint(-9, 9) for _ in range(7)) for _ in range(2)]
    for c in tensors:
        d = full(c)
        reads = [_slices(*_in_frame(c, rows)) for rows in frames]
        f, g = canonical_core._chart_polynomials(reads, chart)
        assert all(type(a) is int for p in f + g for a in p), c
        for y, w, z in itertools.product((-1, 0, 1, 2), repeat=3):
            x = [w * u[0][i] + y * u[1][i] + z * u[2][i] for i in range(3)]
            p0, p1, p2 = (contract(d, u[m], x, x) for m in range(3))
            assert form(f, y, w, z) == z * p0 - w * p2, (c, y, w, z)
            assert form(g, y, w, z) == w * p1 - y * p0, (c, y, w, z)


def test_frame_read_and_cubic_values_are_the_contraction():
    # any integer rows, orthogonal or not
    rng = random.Random(0)
    for _ in range(200):
        c = tuple(rng.randint(-9, 9) for _ in range(7))
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        d = full(c)
        read = _in_frame(c, rows)
        assert all(type(x) is int for x in read)
        assert list(read) == [contract(d, rows[a], rows[b], rows[e]) for a, b, e in SEVEN], (c, rows)
        values = _cubic_values(c, rows)
        assert all(type(x) is int for x in values)
        assert values == [contract(d, x, x, x) for x in rows], (c, rows)


def circle_point(t):
    """(cos, sin) of theta, 2 theta and 3 theta at the rational point of the circle with tan(theta / 2) = t."""
    c1, s1 = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    c2, s2 = c1 * c1 - s1 * s1, 2 * c1 * s1
    return c1, s1, c2, s2, c1 * c2 - s1 * s2, s1 * c2 + c1 * s2


def test_turn_about_e1_is_the_frame_read_at_rational_angles():
    # the ranking part and the rest, together the seven components in the
    # turned frame
    rng = random.Random(1)
    for _ in range(100):
        a = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(7))
        c1, s1, c2, s2, c3, s3 = circle_point(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
        d122, d123, d223 = _about_e1(a, c2, s2, c3, s3)
        d112, d113, d222, d223 = _about_e1_rest(a, c1, s1, c3, s3, d223)
        got = (a[0], d112, d113, d122, d123, d222, d223)
        assert all(type(x) is Fraction for x in got)
        assert got == _in_frame(a, [[1, 0, 0], [0, c1, s1], [0, -s1, c1]]), (a, c1, s1)


def test_tangent_system_is_the_projected_newton_system():
    # in rational orthonormal frames (x, t1, t2) = R(q) for integer q:
    # A = P(H - lambda I)P and b = -P grad in the basis (t1, t2), with
    # H = 6 D(x), grad = 3 D(x, x, .) and lambda = x . grad
    rng = random.Random(2)
    for _ in range(100):
        q = [rng.randint(-20, 20) for _ in range(4)]
        n = sum(v * v for v in q)
        if n == 0:
            continue
        x, t1, t2 = [[Fraction(v, n) for v in row] for row in quaternion_frame(*q)]
        c = tuple(rng.randint(-9, 9) for _ in range(7))
        d = full(c)
        grad = [3 * sum(d[i][j][k] * x[j] * x[k] for j in range(3) for k in range(3)) for i in range(3)]
        hessian = [[6 * sum(d[i][j][k] * x[k] for k in range(3)) for j in range(3)] for i in range(3)]
        lam = sum(x[i] * grad[i] for i in range(3))

        def a(u, v):
            return sum(u[i] * (hessian[i][j] - lam * (i == j)) * v[j] for i in range(3) for j in range(3))

        def b(u):
            return -sum(u[i] * grad[i] for i in range(3))

        want = (a(t1, t1), a(t1, t2), a(t2, t2), b(t1), b(t2))
        got = _tangent_system(_in_frame(c, (x, t1, t2)))
        assert all(type(v) is Fraction for v in got)
        assert got == want, (q, c)
