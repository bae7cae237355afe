"""The four isotropic invariants of degrees 2, 4, 6, and 10.

Two independent evaluation paths are provided.  ``smith_bao`` evaluates the
Smith-Bao integrity basis from the seven components by straight-line
arithmetic on the three symmetric slices (D_k)_ij = D_ijk of the harmonic
cubic: with M_kl = <D_k, D_l> (the Frobenius product) and v_p = <M, D_p>,

    I2 = tr M,   I4 = <M, M>,   I6 = v.v,   I10 = v^T (sum_p v_p D_p) v,

which are the contractions I2 = D_ijk D_ijk, I4 = D_ijk D_ijl D_pqk D_pql,
I6 = v.v and I10 = D_ijk v_i v_j v_k with v_p = D_ijk D_ijl D_klp.  The
slices, and the trace completion behind them, come from
``components._slices``.  The arithmetic runs on the tensor scaled by a
power of two to a largest component in [1/2, 1), and each I_d, like M
(degree 2) and v (degree 3), is scaled back by the matching power of that
factor, which is exact; so results are finite wherever the true value is
a normal double, +-inf beyond that, and never NaN.
``canonical_invariants`` evaluates closed-form polynomials of the four
canonical parameters, at unit scale too; on tensors in canonical position
the two paths agree, which the test suite exploits as a cross-check of both.

``smith_bao`` is plain Python on the seven components, so this module
imports numpy and ``polynomials`` only inside the functions that return
arrays or evaluate the canonical polynomials; ``triso invariants`` never
loads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .components import _LAYOUT, SymTraceless3, _inner, _ldexp, _slice, _slices, _unit_scale

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
]


@dataclass(frozen=True)
class InvariantTuple:
    """Invariant values, indexed by their polynomial degree."""

    i2: float
    i4: float
    i6: float
    i10: float

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.i2, self.i4, self.i6, self.i10])

    def to_json_obj(self) -> dict:
        return {"I2": self.i2, "I4": self.i4, "I6": self.i6, "I10": self.i10}


@dataclass(frozen=True)
class CanonicalParams:
    """The four components that remain free after canonicalization.

    Canonicalization outputs satisfy d111 >= 0; the type itself places no
    restriction, since the polynomial formulas are defined everywhere and
    independence sampling ranges over a full box.
    """

    d111: float
    d122: float
    d123: float
    d223: float

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.d111, self.d122, self.d123, self.d223])

    def to_tensor(self) -> SymTraceless3:
        return SymTraceless3(d111=self.d111, d122=self.d122, d123=self.d123, d223=self.d223)

    def to_json_obj(self) -> dict:
        return {"D111": self.d111, "D122": self.d122, "D123": self.d123, "D223": self.d223}


def _slice_kernel(d111, d112, d113, d122, d123, d222, d223):
    """(M, v, (I2, I4, I6, I10)) of the tensor with these seven components.

    M is a 6-tuple in the slice layout of ``_slices`` and v a 3-tuple.
    Only + and * with integer constants, so Fractions give exact results
    and numpy arrays, real or complex, evaluate it elementwise.
    """
    s1, s2, s3 = _slices(d111, d112, d113, d122, d123, d222, d223)
    m11, m22, m33 = _inner(s1, s1), _inner(s2, s2), _inner(s3, s3)
    m = (m11, m22, m33, _inner(s1, s2), _inner(s1, s3), _inner(s2, s3))
    v1, v2, v3 = _inner(m, s1), _inner(m, s2), _inner(m, s3)
    w = _slice((s1, s2, s3), (v1, v2, v3))  # v1 D_1 + v2 D_2 + v3 D_3
    vv = (v1 * v1, v2 * v2, v3 * v3, v1 * v2, v1 * v3, v2 * v3)
    return m, (v1, v2, v3), (m11 + m22 + m33, _inner(m, m), vv[0] + vv[1] + vv[2], _inner(w, vv))


def _components(t: SymTraceless3 | FullTensor3) -> tuple:
    """The seven components; a full array is validated by ``compress``."""
    if not isinstance(t, SymTraceless3):
        from .tensor_core import FullTensor3, compress

        if isinstance(t, FullTensor3):
            t = compress(t)
    return (t.d111, t.d112, t.d113, t.d122, t.d123, t.d222, t.d223)


def _unit_kernel(t: SymTraceless3 | FullTensor3) -> tuple:
    """k and the ``_slice_kernel`` of the tensor times the exact factor 2^-k.

    k puts the largest component in [1/2, 1).
    """
    k, c = _unit_scale(_components(t))
    return k, _slice_kernel(*c)


def moment_matrix(t: SymTraceless3 | FullTensor3) -> np.ndarray:
    """The 3x3 positive-semidefinite matrix M_kl = D_ijk D_ijl.

    Computed at unit scale and scaled back by 2^(2k), like ``smith_bao``:
    +-inf where an entry overflows, never NaN.
    """
    import numpy as np

    k, (m, _, _) = _unit_kernel(t)
    return np.array([_ldexp(x, 2 * k) for x in m])[np.array(_LAYOUT)]


def v_vector(t: SymTraceless3 | FullTensor3) -> np.ndarray:
    """The degree-3 covariant vector v_p = D_ijk D_ijl D_klp = M_kl D_klp.

    Computed at unit scale and scaled back by 2^(3k), like ``smith_bao``:
    +-inf where an entry overflows, never NaN.
    """
    import numpy as np

    k, (_, v, _) = _unit_kernel(t)
    return np.array([_ldexp(x, 3 * k) for x in v])


def smith_bao(t: SymTraceless3 | FullTensor3) -> InvariantTuple:
    """Evaluate the degree-(2, 4, 6, 10) basis from the seven components.

    The kernel runs at a largest component in [1/2, 1), reached by the
    exact factor 2^-k, and I_d is scaled back by 2^(d*k).  A result is
    finite wherever the true value is a normal double, +-inf (with the sign
    of the unit-scale value) beyond that, and never NaN.
    """
    k, (_, _, (i2, i4, i6, i10)) = _unit_kernel(t)
    return InvariantTuple(_ldexp(i2, 2 * k), _ldexp(i4, 4 * k), _ldexp(i6, 6 * k), _ldexp(i10, 10 * k))


def canonical_invariants(c: CanonicalParams) -> InvariantTuple:
    """Evaluate the closed-form invariant polynomials at canonical parameters.

    At unit scale, like ``smith_bao``, so never NaN; every parameter must be finite.
    """
    from .polynomials import _INVARIANT_TABLE

    params = [float(x) for x in (c.d111, c.d122, c.d123, c.d223)]
    if not all(map(math.isfinite, params)):
        raise ValueError(f"point coordinates must be finite, got {params}")
    k, unit = _unit_scale(params)
    values = _INVARIANT_TABLE([unit])[0].tolist()
    return InvariantTuple(*(_ldexp(v, d * k) for v, d in zip(values, (2, 4, 6, 10))))


def relative_error(a: float, b: float) -> float:
    """|a - b| / max(1, |a|, |b|): relative for large values, absolute near zero."""
    return abs(a - b) / max(1.0, abs(a), abs(b))
