"""The four isotropic invariants of degrees 2, 4, 6, and 10.

Two independent evaluation paths are provided.  ``smith_bao`` contracts the
full 27-entry array directly (Smith-Bao integrity basis: I2 = D_ijk D_ijk,
I4 = D_ijk D_ijl D_pqk D_pql, I6 = v.v, I10 = D_ijk v_i v_j v_k with
v_p = D_ijk D_ijl D_klp).  ``canonical_invariants`` evaluates closed-form
polynomials of the four canonical parameters; on tensors already in
canonical position the two paths agree, which the test suite exploits as a
cross-check of both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomials import CANONICAL_BASIS
from .tensor_core import FullTensor3, SymTraceless3, _full

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
        return np.array([self.d111, self.d122, self.d123, self.d223])

    def to_tensor(self) -> SymTraceless3:
        return SymTraceless3(d111=self.d111, d122=self.d122, d123=self.d123, d223=self.d223)

    def to_json_obj(self) -> dict:
        return {"D111": self.d111, "D122": self.d122, "D123": self.d123, "D223": self.d223}


def moment_matrix(t: SymTraceless3 | FullTensor3) -> np.ndarray:
    """The 3x3 positive-semidefinite matrix M_kl = D_ijk D_ijl."""
    arr = _full(t).entries
    return np.einsum("ijk,ijl->kl", arr, arr)


def _v_from(m: np.ndarray, arr: np.ndarray) -> np.ndarray:
    return np.einsum("kl,klp->p", m, arr)


def v_vector(t: SymTraceless3 | FullTensor3) -> np.ndarray:
    """The degree-3 covariant vector v_p = D_ijk D_ijl D_klp = M_kl D_klp."""
    full = _full(t)
    return _v_from(moment_matrix(full), full.entries)


def smith_bao(t: SymTraceless3 | FullTensor3) -> InvariantTuple:
    """Evaluate the degree-(2, 4, 6, 10) basis by full-array contraction."""
    full = _full(t)
    arr = full.entries
    m = moment_matrix(full)
    v = _v_from(m, arr)
    i2 = float(np.einsum("ijk,ijk->", arr, arr))
    i4 = float(np.einsum("kl,kl->", m, m))
    i6 = float(v @ v)
    i10 = float(np.einsum("ijk,i,j,k->", arr, v, v, v))
    return InvariantTuple(i2, i4, i6, i10)


def canonical_invariants(c: CanonicalParams) -> InvariantTuple:
    """Evaluate the closed-form invariant polynomials at canonical parameters."""
    point = c.as_array()
    return InvariantTuple(*(p(point) for p in CANONICAL_BASIS))


def relative_error(a: float, b: float) -> float:
    """|a - b| / max(1, |a|, |b|): relative for large values, absolute near zero."""
    return abs(a - b) / max(1.0, abs(a), abs(b))
