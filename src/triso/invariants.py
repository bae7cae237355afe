"""The four isotropic invariants of degrees 2, 4, 6, and 10.

Two independent evaluation paths are provided.  ``smith_bao`` evaluates the
Smith-Bao integrity basis from the seven components by straight-line
arithmetic on the three symmetric slices (D_k)_ij = D_ijk of the harmonic
cubic: with M_kl = <D_k, D_l> (the Frobenius product) and v_p = <M, D_p>,

    I2 = tr M,   I4 = <M, M>,   I6 = v.v,   I10 = v^T (sum_p v_p D_p) v,

which are the contractions I2 = D_ijk D_ijk, I4 = D_ijk D_ijl D_pqk D_pql,
I6 = v.v and I10 = D_ijk v_i v_j v_k with v_p = D_ijk D_ijl D_klp.  The
slices, and the trace completion behind them, come from
``components._slices``; the kernel ``_slice_kernel`` is one straight-line
pass of + and *.  It runs once on the seven components as given, and that
pass stands while its I2 = ||T||^2 is in [2^-120, 2^118)
(``components._in_window``), where no power up to degree 10 leaves the
normal range.  A nonzero tensor outside that window is run again, times
the exact power of two 2^-k that puts the largest component in [1/2, 1),
and each I_d, like M (degree 2) and v (degree 3), is scaled back by
2^(d*k).  A power of two commutes with every + and *, so both give the
same bits; the result carries an absolute error of order eps * ||T||^d,
reads +-inf where it overflows, and is never NaN.
``canonical_invariants`` sums the closed-form polynomials of the four
canonical parameters exactly and rounds each once; on tensors in canonical
position the two paths agree, which the tests use to cross-check both.

The orbit verdict that rests on them lives here too:
``invariant_distance`` compares two tensors' degree-normalized tuples, and
``_verdict`` is the one rule that turns a distance into "same",
"borderline" or "different" (``orbit_oracle`` re-exports all three as the
same objects).  The cube root they take is ``_cbrt``, correctly rounded.

``smith_bao`` and the verdict are plain Python on the seven components, so
this module imports numpy and ``polynomials`` only inside the functions that
return arrays or evaluate the canonical polynomials; ``triso invariants``
and ``triso orbit-compare`` never load them.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .components import _LAYOUT, SymTraceless3, _in_window, _ldexp, _Record, _slices, _unit_scale

if TYPE_CHECKING:
    import numpy as np

    from .tensor_core import FullTensor3

__all__ = [
    "InvariantTuple",
    "CanonicalParams",
    "moment_matrix",
    "v_vector",
    "smith_bao",
    "canonical_invariants",
    "relative_error",
    "invariant_distance",
]

_EPS = sys.float_info.epsilon


class InvariantTuple(_Record):
    """Invariant values, indexed by their polynomial degree."""

    __slots__ = ("i2", "i4", "i6", "i10")

    def __init__(self, i2, i4, i6, i10):
        set_i2, set_i4, set_i6, set_i10 = self._setters
        set_i2(self, i2)
        set_i4(self, i4)
        set_i6(self, i6)
        set_i10(self, i10)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.i2, self.i4, self.i6, self.i10])

    def to_json_obj(self) -> dict:
        return {"I2": self.i2, "I4": self.i4, "I6": self.i6, "I10": self.i10}


class CanonicalParams(_Record):
    """The four components that remain free after canonicalization.

    Canonicalization outputs satisfy d111 >= 0; the type itself places no
    restriction, since the polynomial formulas are defined everywhere and
    independence sampling ranges over a full box.
    """

    __slots__ = ("d111", "d122", "d123", "d223")

    def __init__(self, d111, d122, d123, d223):
        set_d111, set_d122, set_d123, set_d223 = self._setters
        set_d111(self, d111)
        set_d122(self, d122)
        set_d123(self, d123)
        set_d223(self, d223)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.d111, self.d122, self.d123, self.d223])

    def to_tensor(self) -> SymTraceless3:
        return SymTraceless3(d111=self.d111, d122=self.d122, d123=self.d123, d223=self.d223)

    def to_json_obj(self) -> dict:
        return {"D111": self.d111, "D122": self.d122, "D123": self.d123, "D223": self.d223}


def _slice_kernel(d111, d112, d113, d122, d123, d222, d223):
    """(M, v, (I2, I4, I6, I10)) of the tensor with these seven components.

    M is a 6-tuple in the slice layout of ``_slices`` and v a 3-tuple.  One
    straight-line pass: the six Frobenius products <D_k, D_l> of the slices
    a, b, c give M, then v_p = <M, D_p>, W = v1 D_1 + v2 D_2 + v3 D_3 and
    I10 = <W, v v^T>.  Only + and *, so Fractions give exact results and
    numpy arrays, real or complex, evaluate it elementwise.  Each doubled
    off-diagonal sum s enters as s + s, which is exactly 2 s and costs a
    float addition rather than an int times float product.
    """
    ((a11, a22, a33, a12, a13, a23), (b11, b22, b33, b12, b13, b23),
     (c11, c22, c33, c12, c13, c23)) = _slices(d111, d112, d113, d122, d123, d222, d223)
    s = a12 * a12 + a13 * a13 + a23 * a23
    m11 = a11 * a11 + a22 * a22 + a33 * a33 + (s + s)
    s = b12 * b12 + b13 * b13 + b23 * b23
    m22 = b11 * b11 + b22 * b22 + b33 * b33 + (s + s)
    s = c12 * c12 + c13 * c13 + c23 * c23
    m33 = c11 * c11 + c22 * c22 + c33 * c33 + (s + s)
    s = a12 * b12 + a13 * b13 + a23 * b23
    m12 = a11 * b11 + a22 * b22 + a33 * b33 + (s + s)
    s = a12 * c12 + a13 * c13 + a23 * c23
    m13 = a11 * c11 + a22 * c22 + a33 * c33 + (s + s)
    s = b12 * c12 + b13 * c13 + b23 * c23
    m23 = b11 * c11 + b22 * c22 + b33 * c33 + (s + s)
    s = m12 * a12 + m13 * a13 + m23 * a23
    v1 = m11 * a11 + m22 * a22 + m33 * a33 + (s + s)
    s = m12 * b12 + m13 * b13 + m23 * b23
    v2 = m11 * b11 + m22 * b22 + m33 * b33 + (s + s)
    s = m12 * c12 + m13 * c13 + m23 * c23
    v3 = m11 * c11 + m22 * c22 + m33 * c33 + (s + s)
    w11, w22, w33 = a11 * v1 + b11 * v2 + c11 * v3, a22 * v1 + b22 * v2 + c22 * v3, a33 * v1 + b33 * v2 + c33 * v3
    w12, w13, w23 = a12 * v1 + b12 * v2 + c12 * v3, a13 * v1 + b13 * v2 + c13 * v3, a23 * v1 + b23 * v2 + c23 * v3
    u11, u22, u33, u12, u13, u23 = v1 * v1, v2 * v2, v3 * v3, v1 * v2, v1 * v3, v2 * v3
    s = m12 * m12 + m13 * m13 + m23 * m23
    i4 = m11 * m11 + m22 * m22 + m33 * m33 + (s + s)
    s = w12 * u12 + w13 * u13 + w23 * u23
    i10 = w11 * u11 + w22 * u22 + w33 * u33 + (s + s)
    return (m11, m22, m33, m12, m13, m23), (v1, v2, v3), (m11 + m22 + m33, i4, u11 + u22 + u33, i10)


def _components(t: SymTraceless3 | FullTensor3) -> tuple:
    """The seven components; a full array is validated by ``compress``."""
    if not isinstance(t, SymTraceless3):
        from .tensor_core import FullTensor3, compress

        if isinstance(t, FullTensor3):
            t = compress(t)
    return (t.d111, t.d112, t.d113, t.d122, t.d123, t.d222, t.d223)


def _scaled_kernel(t: SymTraceless3 | FullTensor3) -> tuple:
    """k and the ``_slice_kernel`` of the tensor times the exact factor 2^-k.

    One pass on the components as given, with k = 0, stands while its I2
    is in ``components._in_window``; a nonzero tensor outside it is run
    again at ``_unit_scale``'s k, which puts the largest component in
    [1/2, 1).
    """
    c = _components(t)
    out = _slice_kernel(*c)
    if _in_window(out[2][0]) or not any(c):
        return 0, out
    k, c = _unit_scale(c)
    return k, _slice_kernel(*c)


def moment_matrix(t: SymTraceless3 | FullTensor3) -> np.ndarray:
    """The 3x3 positive-semidefinite matrix M_kl = D_ijk D_ijl.

    Computed at the scale of ``_scaled_kernel`` and scaled back by 2^(2k),
    like ``smith_bao``: +-inf where an entry overflows, never NaN.
    """
    import numpy as np

    k, (m, _, _) = _scaled_kernel(t)
    return np.array([_ldexp(x, 2 * k) for x in m])[np.array(_LAYOUT)]


def v_vector(t: SymTraceless3 | FullTensor3) -> np.ndarray:
    """The degree-3 covariant vector v_p = D_ijk D_ijl D_klp = M_kl D_klp.

    Computed at the scale of ``_scaled_kernel`` and scaled back by 2^(3k),
    like ``smith_bao``: +-inf where an entry overflows, never NaN.
    """
    import numpy as np

    k, (_, v, _) = _scaled_kernel(t)
    return np.array([_ldexp(x, 3 * k) for x in v])


def smith_bao(t: SymTraceless3 | FullTensor3) -> InvariantTuple:
    """Evaluate the degree-(2, 4, 6, 10) basis from the seven components.

    The kernel runs once on the components as given, and that pass stands
    while its I2 is in [2^-120, 2^118); a nonzero tensor outside that
    window is run again times the exact factor 2^-k that puts its largest
    component in [1/2, 1), with I_d scaled back by 2^(d*k).  Both give the
    same bits (``components._in_window``).  Each I_d has an absolute
    error of order eps * ||T||^d, a few roundings of its largest terms, not
    a small relative error: where those terms cancel, a small true value
    can be lost.  At (d111, d122, d123, d223) = (1e50, 1, 1, 1) I6 reads
    1.6e201 for 3.2e201, and I10 is finite though its true value, 1.28e352,
    is beyond a double.  A value that overflows reads +-inf (with the sign
    of the unit-scale value), and none is NaN.
    """
    k, (_, _, (i2, i4, i6, i10)) = _scaled_kernel(t)
    if k:
        i2, i4, i6, i10 = _ldexp(i2, 2 * k), _ldexp(i4, 4 * k), _ldexp(i6, 6 * k), _ldexp(i10, 10 * k)
    return InvariantTuple(i2, i4, i6, i10)


def canonical_invariants(c: CanonicalParams) -> InvariantTuple:
    """The closed-form invariant polynomials at canonical parameters, each exact and rounded once.

    +-inf beyond the double range, never NaN (``polynomials._ExactSum``);
    every parameter must be finite.
    """
    from .polynomials import _INVARIANT_SUM

    return InvariantTuple(*_INVARIANT_SUM((c.d111, c.d122, c.d123, c.d223)))


def relative_error(a: float, b: float) -> float:
    """|a - b| / max(1, |a|, |b|): relative for large values, absolute near zero; 0.0 for
    equal values, equal infinities too, and +inf where one or both are infinite otherwise."""
    if a == b:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _cbrt(x: float) -> float:
    """The real cube root of x, correctly rounded.

    ``math.cbrt`` is new in Python 3.11 and rounds as the C library does:
    on x86-64 Linux up to 3 ulps from the nearest double, at about half of
    all doubles (``np.cbrt`` misses it by 1 ulp at 0.7 % of them).  So the
    cube root is found here, with the same bits on every platform and
    version: a first guess by ``**`` and one Newton step, within two ulps,
    then moved an ulp at a time until x lies between the cubes of the
    midpoints to its neighbours, compared exactly in integers.  No double
    is the cube of such a midpoint, so there are no ties.
    """
    if x == 0.0 or not math.isfinite(x):
        return x
    a = abs(x)
    y = a ** (1.0 / 3.0)
    y -= (y - a / (y * y)) / 3.0
    m, e = math.frexp(a)
    big, f = int(m * 2.0**53), e - 53  # a = big 2^f
    while True:
        m, e = math.frexp(y)
        n, k = int(m * 2.0**53), e - 54  # y = 2n 2^k, its midpoints (2n +- 1) 2^k
        # a / 2^(3k) as an integer: y^3 is within a factor 2 of a, so the
        # shift exceeds 100
        scaled = big << (f - 3 * k)
        up, down = 2 * n + 1, 2 * n - 1
        if scaled > up * up * up:
            y = math.nextafter(y, math.inf)
        # at a power of two, the neighbour below is half an ulp away
        elif (scaled << 3 < (2 * down + 1) ** 3) if n == 1 << 52 else scaled < down * down * down:
            y = math.nextafter(y, 0.0)
        else:
            return math.copysign(y, x)


def _degree_normalized(i2: float, i4: float, i6: float, i10: float) -> tuple:
    """(I2, I4^(1/2), I6^(1/3), I10^(1/5)), with I10's sign kept."""
    return (i2, math.sqrt(max(i4, 0.0)), _cbrt(max(i6, 0.0)), math.copysign(abs(i10) ** 0.2, i10))


def invariant_distance(a: SymTraceless3, b: SymTraceless3) -> float:
    """Largest gap between the degree-normalized tuples, over max(I2_a, I2_b).

    Every normalized component scales as the squared norm, as I2 does, so
    the distance is scale-free: it is the same for a pair and for the pair
    scaled by any power of two, and up to roundoff by any factor.  Both
    tensors are evaluated times the one exact factor 2^-k that puts the
    pair's largest component in [1/2, 1): at the pair's own scale the
    normalized components, which scale as ||T||^2, overflow from a norm of
    about 1e154, and the raw I10 they come from is +-inf from about 1e31,
    where the difference of two infinite components is NaN.  Two zero
    tensors are at distance 0.

    A slot whose raw invariants, at that common scale, differ by at most
    their rounding, c_d eps max(I2)^(d/2) with c_d = 64 d, counts as zero.
    Without that floor the cube and fifth roots, steep near 0, would blow
    a rounding of I6 or I10 up to a gap of 1e-4 and more, and a tensor with
    I6 or I10 = 0 would differ from its own rotated copies.  Each I_d has an
    absolute error of a few eps I2^(d/2) (``smith_bao``), and a rotated copy's
    components carry a relative rounding of a few eps, which moves a
    degree-d invariant by d times that, so c_d grows with d; 64 leaves room
    for both.  Over 400 rotations of each reference, gap and zonal tensor
    and of random ones, the largest gap seen was 10.3 d eps max(I2)^(d/2),
    at d = 2.  A relative change of 1e-7 stays far above the floor.
    """
    _, c = _unit_scale(_components(a) + _components(b))
    if not any(c):
        return 0.0
    ia, ib = _slice_kernel(*c[:7])[2], _slice_kernel(*c[7:])[2]
    i2 = max(ia[0], ib[0])
    gaps = (
        0.0 if abs(x - y) <= 64 * d * _EPS * i2 ** (d / 2) else abs(p - q)
        for x, y, p, q, d in zip(ia, ib, _degree_normalized(*ia), _degree_normalized(*ib), (2, 4, 6, 10))
    )
    return max(gaps) / i2


def _verdict(distance: float, tol: float) -> str:
    """The verdict rule of ``orbit_oracle.same_orbit`` on an ``invariant_distance``."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if distance <= tol:
        return "same"
    if distance > 10.0 * tol:
        return "different"
    return "borderline"
