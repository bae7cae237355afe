"""Third-order symmetric traceless tensors in three dimensions.

A tensor of this class has seven free components; the remaining entries of
the full 3x3x3 array follow from index symmetry and the vanishing of every
single-index trace.  This module provides the seven-component value type,
expansion to and compression from the full array, the orthogonal group
action, the associated cubic form on R^3, and seeded random sampling of
tensors and of orthogonal matrices.

All operations are pure functions; arrays held by the value types are
read-only, so values are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

__all__ = [
    "SymTraceless3",
    "FullTensor3",
    "OrthogonalTransform3",
    "expand",
    "compress",
    "act",
    "cubic_form",
    "cubic_gradient",
    "random_tensor",
    "random_orthogonal",
    "st_dimension",
    "symmetry_violation",
    "trace_violation",
    "tensor_to_json_obj",
    "tensor_from_json_obj",
]

# Default tolerance for validating symmetry/trace of raw full arrays,
# relative to the Frobenius norm so that the check is scale-free.  Looser
# than construction exactness so that arrays that went through a rotation
# (and picked up roundoff) still compress cleanly.
COMPRESS_TOL = 1e-9

# Orthogonality tolerance for transform validation.
ORTHO_TOL = 1e-12

COMPONENT_NAMES = ("d111", "d112", "d113", "d122", "d123", "d222", "d223")

# Index triples (0-based) carrying each free component; every permutation of
# a triple holds the same value.
_FREE_SLOTS = {
    "d111": (0, 0, 0),
    "d112": (0, 0, 1),
    "d113": (0, 0, 2),
    "d122": (0, 1, 1),
    "d123": (0, 1, 2),
    "d222": (1, 1, 1),
    "d223": (1, 1, 2),
}


@dataclass(frozen=True)
class SymTraceless3:
    """The seven free components of a symmetric traceless third-order tensor."""

    d111: float = 0.0
    d112: float = 0.0
    d113: float = 0.0
    d122: float = 0.0
    d123: float = 0.0
    d222: float = 0.0
    d223: float = 0.0

    def __post_init__(self):
        for name in COMPONENT_NAMES:
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"component {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in COMPONENT_NAMES])

    @classmethod
    def from_array(cls, values) -> "SymTraceless3":
        values = np.asarray(values, dtype=float).reshape(7)
        return cls(*values)


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
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        if self.det_sign not in (1, -1):
            raise ValueError(f"det_sign must be +1 or -1, got {self.det_sign!r}")
        err = np.max(np.abs(mat.T @ mat - np.eye(3)))
        if err > ORTHO_TOL:
            raise ValueError(f"matrix is not orthogonal: max |m.T m - I| = {err:.3g}")
        det = float(np.linalg.det(mat))
        if abs(det - self.det_sign) > ORTHO_TOL:
            raise ValueError(f"det(m) = {det:.17g} does not match det_sign = {self.det_sign:+d}")
        mat.setflags(write=False)
        object.__setattr__(self, "m", mat)

    @classmethod
    def identity(cls) -> "OrthogonalTransform3":
        return cls(np.eye(3), 1)

    @classmethod
    def from_matrix(cls, m) -> "OrthogonalTransform3":
        """Build from a matrix, inferring the determinant sign."""
        det = float(np.linalg.det(np.asarray(m, dtype=float)))
        return cls(m, 1 if det > 0 else -1)

    def compose(self, other: "OrthogonalTransform3") -> "OrthogonalTransform3":
        """Return the transform acting as self after other."""
        return OrthogonalTransform3(self.m @ other.m, self.det_sign * other.det_sign)

    def inverse(self) -> "OrthogonalTransform3":
        return OrthogonalTransform3(self.m.T.copy(), self.det_sign)

    def apply(self, x) -> np.ndarray:
        """Apply to a 3-vector."""
        return self.m @ np.asarray(x, dtype=float)


def _embedding() -> np.ndarray:
    """The (27, 7) matrix taking the seven components to the row-major array.

    Every slot of a family (a triple and its permutations) gets the family's
    combination of components; the three constrained diagonal families come
    from the vanishing traces.
    """
    unit = dict(zip(COMPONENT_NAMES, np.eye(7)))
    families = {slot: unit[name] for name, slot in _FREE_SLOTS.items()}
    families[(0, 2, 2)] = -unit["d111"] - unit["d122"]
    families[(1, 2, 2)] = -unit["d112"] - unit["d222"]
    families[(2, 2, 2)] = -unit["d113"] - unit["d223"]
    embed = np.zeros((3, 3, 3, 7))
    for triple, row in families.items():
        for perm in set(permutations(triple)):
            embed[perm] = row
    return embed.reshape(27, 7)


_EMBEDDING = _embedding()


def expand(s: SymTraceless3) -> FullTensor3:
    """Expand seven components into the full symmetric traceless 3x3x3 array.

    The three constrained diagonal families come from the vanishing traces:
    entries at (1,3,3) equal -d111-d122, at (2,3,3) equal -d112-d222, and
    (3,3,3) equals -d113-d223 (1-based indices).
    """
    return FullTensor3((_EMBEDDING @ s.as_array()).reshape(3, 3, 3))


def _full(t: SymTraceless3 | FullTensor3) -> FullTensor3:
    """The full array form, expanding seven components when given them."""
    return expand(t) if isinstance(t, SymTraceless3) else t


# Flat indices of the array read through each of the six slot permutations,
# of the diagonal entries (i, i, k) summed by each trace, and of the seven
# free components.
_INDEX = np.arange(27).reshape(3, 3, 3)
_PERMUTED = np.array([np.transpose(_INDEX, perm).ravel() for perm in permutations((0, 1, 2))])
_TRACES = np.array([[_INDEX[i, i, k] for k in range(3)] for i in range(3)])
_FREE = np.array([_INDEX[slot] for slot in _FREE_SLOTS.values()])


def symmetry_violation(f: FullTensor3) -> float:
    """Largest entry difference between the array and any slot permutation."""
    flat = f.entries.ravel()
    return float(np.max(np.abs(flat - flat[_PERMUTED])))


def trace_violation(f: FullTensor3) -> float:
    """Largest |sum_i entries[i,i,k]| over k."""
    return float(np.max(np.abs(f.entries.ravel()[_TRACES].sum(axis=0))))


def compress(f: FullTensor3, tol: float = COMPRESS_TOL) -> SymTraceless3:
    """Extract the seven free components, validating the array first.

    Raises ValueError if any permuted-slot pair differs, or any trace
    exceeds, tol times the array's Frobenius norm, reporting the worst
    violation found.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    bound = tol * f.frobenius()
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


def cubic_form(f: FullTensor3, x) -> float:
    """Evaluate the cubic form T_{ijk} x_i x_j x_k."""
    x = np.asarray(x, dtype=float)
    return float(np.einsum("ijk,i,j,k->", f.entries, x, x, x))


def cubic_gradient(f: FullTensor3, x) -> np.ndarray:
    """Gradient of the cubic form, with components 3 T_{ijk} x_j x_k."""
    x = np.asarray(x, dtype=float)
    return 3.0 * np.einsum("ijk,j,k->i", f.entries, x, x)


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
    while np.linalg.norm(q) < 1e-12:
        q = rng.normal(size=4)
    mat = _quaternion_to_matrix(q / np.linalg.norm(q))
    if proper:
        return OrthogonalTransform3(mat, 1)
    reflect = np.diag([1.0, 1.0, -1.0])
    return OrthogonalTransform3(reflect @ mat, -1)


def _quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def st_dimension(m: int, n: int) -> int:
    """Dimension of the space of symmetric traceless order-m dim-n tensors.

    Equals C(n+m-1, n-1) - C(n+m-3, n-1); for order 3 in dimension 3 this
    gives 7.
    """
    if m <= 1 or n <= 1:
        raise ValueError(f"order and dimension must both exceed 1, got m={m}, n={n}")
    return math.comb(n + m - 1, n - 1) - math.comb(n + m - 3, n - 1)


def tensor_to_json_obj(s: SymTraceless3) -> dict:
    """Component dict with upper-case keys D111 ... D223."""
    return {name.upper(): getattr(s, name) for name in COMPONENT_NAMES}


def tensor_from_json_obj(obj: dict, tol: float = COMPRESS_TOL) -> SymTraceless3:
    """Parse a tensor from its JSON object form.

    Accepts either the seven component keys D111 ... D223 (missing keys
    default to zero) or a 27-element row-major list under the key "full",
    which is validated like any raw array (tol is relative to its norm).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if "full" in obj:
        flat = np.asarray(obj["full"], dtype=float)
        if flat.size != 27:
            raise ValueError(f'key "full" must hold 27 numbers, got {flat.size}')
        return compress(FullTensor3(flat.reshape(3, 3, 3)), tol)
    known = {name.upper() for name in COMPONENT_NAMES}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown tensor keys: {sorted(unknown)}")
    return SymTraceless3(**{name: float(obj.get(name.upper(), 0.0)) for name in COMPONENT_NAMES})
