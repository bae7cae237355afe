"""Orbit membership, decided two independent ways.

Fast path: two tensors lie on the same orthogonal-group orbit exactly when
their four invariants agree, so comparing degree-normalized invariant
tuples decides membership in O(1).  Invariant-free path: ``canonicalize``
moves each tensor into a canonical form that is a function of its orbit
under the chosen group, so R_b^-1 R_a (with R_a, R_b the two canonicalizing
transforms) takes a onto b whenever the pair shares an orbit, and the
residual ||g.a - b|| is then at roundoff.  The two paths cross-validate
each other: the fast path's verdicts are only trustworthy because the
canonical forms keep agreeing with them.

The fast path's distance and verdict rule live in the numpy-free
``invariants`` module, and the alignment's residual in ``canonical_core``,
so that ``triso orbit-compare`` runs without numpy; this module re-exports
``invariant_distance`` as the same object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical_core import _alignment
from .canonical_form import GROUPS, _stationary_candidates  # noqa: F401 (GROUPS re-exported)
from .components import _ldexp, _unit_scale
from .invariants import (
    InvariantTuple,
    _components,
    _degree_normalized,
    _slice_kernel,
    _verdict,
    invariant_distance,
)
from .tensor_core import OrthogonalTransform3, SymTraceless3

__all__ = [
    "AlignmentResult",
    "best_alignment",
    "degree_normalized_invariants",
    "invariant_distance",
    "same_orbit",
]


@dataclass(frozen=True)
class AlignmentResult:
    """Group element taking a toward b and the Frobenius distance it leaves."""

    best_transform: OrthogonalTransform3
    residual: float
    group: str


def best_alignment(a: SymTraceless3, b: SymTraceless3, group: str = "O(3)") -> AlignmentResult:
    """The element R_b^-1 R_a through the canonical frames, with its residual.

    R_a and R_b are the transforms ``canonicalize(., group=group)`` returns
    for a and b, read from its record (``canonical_core._alignment``).  For a pair on one orbit of ``group`` the residual
    ||g.a - b|| is at roundoff; otherwise it equals ||C_a - C_b|| between
    the canonical forms, an upper bound on the distance between the orbits.
    """
    rows, det_sign, residual = _alignment(a, b, group, _stationary_candidates)
    return AlignmentResult(OrthogonalTransform3(rows, det_sign), residual, group)


def degree_normalized_invariants(t: SymTraceless3 | InvariantTuple) -> np.ndarray:
    """Invariants rescaled to a common homogeneity degree.

    Raising each invariant to 2/degree makes every component scale as the
    squared tensor norm, so one relative tolerance treats all four alike
    (raw values of degree 10 would otherwise swamp or starve the
    comparison).  The odd invariant keeps its sign.  A tensor is evaluated
    at unit scale and scaled back by 2^(2k), so the result is finite
    wherever it is a normal double, though raw I10 overflows from about 1e31.
    """
    if isinstance(t, InvariantTuple):
        k, invariants = 0, (t.i2, t.i4, t.i6, t.i10)
    else:
        # at unit scale even for an ordinary tensor: the cube and fifth roots
        # do not commute exactly with a power of two, so the scale sets the bits
        k, c = _unit_scale(_components(t))
        invariants = _slice_kernel(*c)[2]
    return np.array([_ldexp(float(x), 2 * k) for x in _degree_normalized(*invariants)])


def same_orbit(a: SymTraceless3, b: SymTraceless3, tol: float = 1e-8) -> str:
    """Verdict "same", "different", or "borderline" from the invariants.

    The invariants are a complete orbit separator, so ``invariant_distance``
    <= tol means same orbit and a clear excess means different; the band up
    to 10x tol is reported as "borderline" rather than silently thresholded,
    since near-orbit pairs are exactly where the numerics are least
    trustworthy.  The distance is relative to the larger I2, so the verdict
    on a pair does not depend on its scale.
    """
    return _verdict(invariant_distance(a, b), tol)

