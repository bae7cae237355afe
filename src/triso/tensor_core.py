"""Third-order symmetric traceless tensors in three dimensions.

A tensor of this class has seven free components; the remaining entries of
the full 3x3x3 array follow from index symmetry and the vanishing of every
single-index trace.  This module provides expansion to and compression
from the full array, the orthogonal group action on it, the orthogonal
transform type, and seeded random sampling of tensors and of orthogonal
matrices.  The full array is an input format (``compress`` validates it)
and the reference the tests check the seven-component kernels against;
no computation in the package runs on it.  The seven-component value
type, the trace completion and slice layout (``_slices``) and the JSON form
live in the numpy-free ``components`` module; they are re-exported here as
the same objects.

All operations are pure functions; arrays held by the value types are
read-only, so values are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .components import (  # noqa: F401 (re-exported)
    _LAYOUT,
    COMPONENT_NAMES,
    ORTHO_TOL,
    SymTraceless3,
    _check_orthogonal,
    _det,
    _quaternion_rows,
    _slices,
    tensor_from_json_obj,
    tensor_to_json_obj,
)

__all__ = [
    "SymTraceless3",
    "FullTensor3",
    "OrthogonalTransform3",
    "expand",
    "compress",
    "act",
    "random_tensor",
    "random_orthogonal",
    "st_dimension",
    "symmetry_violation",
    "trace_violation",
    "tensor_to_json_obj",
    "tensor_from_json_obj",
]

# Tolerance for validating symmetry/trace of raw full arrays, relative to
# the Frobenius norm so that the check is scale-free.  Looser than
# construction exactness so that arrays that went through a rotation (and
# picked up roundoff) still compress cleanly.
COMPRESS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FullTensor3:
    """Full 3x3x3 array form of a tensor.

    Arrays produced by :func:`expand` and :func:`act` are symmetric and
    traceless by construction; raw arrays from outside are only checked when
    passed through :func:`compress`.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.shape != (3, 3, 3):
            raise ValueError(f"expected a 3x3x3 array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def frobenius(self) -> float:
        # squares of entries beyond about 1e154 overflow and below about
        # 1e-162 underflow, so sum them divided by the largest magnitude
        flat = self.entries.ravel()
        scale = float(np.max(np.abs(flat)))
        if scale == 0.0:
            return 0.0
        flat = flat / scale
        return scale * math.sqrt(float(flat @ flat))


@dataclass(frozen=True, eq=False)
class OrthogonalTransform3:
    """An element of the 3x3 orthogonal group, with its determinant sign.

    Construction validates orthogonality (``m.T @ m == I`` within 1e-12) and
    that ``det(m)`` matches ``det_sign``; invalid matrices are rejected.
    """

    m: np.ndarray
    det_sign: int = 1

    def __post_init__(self):
        mat = np.array(self.m, dtype=float)
        if mat.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {mat.shape}")
        # the checks run on the nine entries as Python floats: numpy's
        # per-call cost on a 3x3 array outweighs the arithmetic
        _check_orthogonal(mat.tolist(), self.det_sign)
        mat.setflags(write=False)
        object.__setattr__(self, "m", mat)

    @classmethod
    def identity(cls) -> "OrthogonalTransform3":
        return cls(np.eye(3), 1)

    @classmethod
    def from_matrix(cls, m) -> "OrthogonalTransform3":
        """Build from a matrix, inferring the determinant sign."""
        mat = np.asarray(m, dtype=float)
        # construction rejects a wrong shape and a non-finite entry with a
        # ValueError, whichever sign is passed
        return cls(mat, 1 if mat.shape != (3, 3) or _det(mat.tolist()) > 0 else -1)

    def compose(self, other: "OrthogonalTransform3") -> "OrthogonalTransform3":
        """Return the transform acting as self after other."""
        return OrthogonalTransform3(self.m @ other.m, self.det_sign * other.det_sign)

    def inverse(self) -> "OrthogonalTransform3":
        return OrthogonalTransform3(self.m.T.copy(), self.det_sign)

    def apply(self, x) -> np.ndarray:
        """Apply to a 3-vector."""
        return self.m @ np.asarray(x, dtype=float)


# Place of each row-major entry (k, i, j) in the three slices laid end to
# end: slice k starts at 6k, and its entry (i, j) sits at _LAYOUT[i][j].
_SLICE_ENTRIES = np.array([6 * k + e for k in range(3) for row in _LAYOUT for e in row])


def expand(s: SymTraceless3) -> FullTensor3:
    """Expand seven components into the full symmetric traceless 3x3x3 array.

    Entry (k, i, j) is entry (i, j) of the slice D_k from ``_slices``.
    """
    d1, d2, d3 = _slices(s.d111, s.d112, s.d113, s.d122, s.d123, s.d222, s.d223)
    return FullTensor3(np.array(d1 + d2 + d3)[_SLICE_ENTRIES].reshape(3, 3, 3))


# Flat indices of the array read through each of the six slot permutations,
# of the diagonal entries (i, i, k) summed by each trace, and of the seven
# free components (the entry named by each component's 1-based digits).
_INDEX = np.arange(27).reshape(3, 3, 3)
_PERMUTED = np.array([np.transpose(_INDEX, perm).ravel() for perm in permutations((0, 1, 2))])
_TRACES = np.array([[_INDEX[i, i, k] for k in range(3)] for i in range(3)])
_FREE = np.array([_INDEX[tuple(int(c) - 1 for c in name[1:])] for name in COMPONENT_NAMES])


def symmetry_violation(f: FullTensor3) -> float:
    """Largest entry difference between the array and any slot permutation."""
    flat = f.entries.ravel()
    return float(np.max(np.abs(flat - flat[_PERMUTED])))


def trace_violation(f: FullTensor3) -> float:
    """Largest |sum_i entries[i,i,k]| over k."""
    return float(np.max(np.abs(f.entries.ravel()[_TRACES].sum(axis=0))))


def compress(f: FullTensor3) -> SymTraceless3:
    """Extract the seven free components, validating the array first.

    Raises ValueError if any permuted-slot pair differs, or any trace
    exceeds, COMPRESS_TOL times the array's Frobenius norm, reporting the
    worst violation found.
    """
    bound = COMPRESS_TOL * f.frobenius()
    sym = symmetry_violation(f)
    if sym > bound:
        raise ValueError(
            f"array is not symmetric: worst permuted-entry mismatch {sym:.3g} > tol*||T|| {bound:.3g}"
        )
    trc = trace_violation(f)
    if trc > bound:
        raise ValueError(f"array is not traceless: worst trace magnitude {trc:.3g} > tol*||T|| {bound:.3g}")
    return SymTraceless3(*f.entries.ravel()[_FREE].tolist())


def act(g: OrthogonalTransform3, f: FullTensor3) -> FullTensor3:
    """Apply the orthogonal change of coordinates to the tensor.

    (g . T)_{jkl} = g_{ja} g_{kb} g_{lc} T_{abc}, as three matmuls: the first
    and last slot, then the middle one; the result stays symmetric and
    traceless to roundoff.
    """
    if not isinstance(g, OrthogonalTransform3):
        raise TypeError("act expects an OrthogonalTransform3 (validated orthogonal matrix)")
    m = g.m
    first_last = ((m @ f.entries.reshape(3, 9)).reshape(9, 3) @ m.T).reshape(3, 3, 3)
    return FullTensor3(m @ first_last)


def random_tensor(seed, scale: float = 1.0) -> SymTraceless3:
    """Draw seven iid normal(0, scale) components; deterministic per seed.

    seed may be an int or an existing numpy Generator.
    """
    if scale < 0:
        raise ValueError(f"scale must be nonnegative, got {scale!r}")
    rng = np.random.default_rng(seed)
    return SymTraceless3(*rng.normal(0.0, scale, size=7))


def random_orthogonal(seed, proper: bool = True) -> OrthogonalTransform3:
    """Sample a Haar-uniform orthogonal matrix.

    A unit quaternion with normal components gives a uniform rotation; the
    improper branch composes it with the fixed reflection diag(1, 1, -1).
    """
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    while math.sqrt(q @ q) < 1e-12:
        q = rng.normal(size=4)
    mat = np.array(_quaternion_rows(*(q / math.sqrt(q @ q))))
    if proper:
        return OrthogonalTransform3(mat, 1)
    reflect = np.diag([1.0, 1.0, -1.0])
    return OrthogonalTransform3(reflect @ mat, -1)


def st_dimension(m: int, n: int) -> int:
    """Dimension of the space of symmetric traceless order-m dim-n tensors.

    Equals C(n+m-1, n-1) - C(n+m-3, n-1); for order 3 in dimension 3 this
    gives 7.
    """
    if m <= 1 or n <= 1:
        raise ValueError(f"order and dimension must both exceed 1, got m={m}, n={n}")
    return math.comb(n + m - 1, n - 1) - math.comb(n + m - 3, n - 1)
