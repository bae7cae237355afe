"""Orbit membership, decided two independent ways.

Fast path: two tensors lie on the same orthogonal-group orbit exactly when
their four invariants agree, so comparing degree-normalized invariant
tuples decides membership in O(1).  Invariant-free path: ``canonicalize``
rotates each tensor into a canonical form that is a function of its SO(3)
orbit, so R_b^T R_a (with R_a, R_b the two canonicalizing rotations) takes
a onto b whenever the pair shares an orbit, and the residual
||g.a - b|| is then at roundoff.  The two paths cross-validate each other:
the fast path's verdicts are only trustworthy because the canonical forms
keep agreeing with them.

The improper half of O(3) needs no separate machinery: in odd dimension
-identity has determinant -1, so every improper g is (-R) for a rotation R
and aligning a to b improperly is aligning a to -b properly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical_form import SphereOptConfig, canonicalize
from .invariants import InvariantTuple, relative_error, smith_bao
from .tensor_core import FullTensor3, OrthogonalTransform3, SymTraceless3, act, expand

__all__ = [
    "AlignmentResult",
    "best_alignment",
    "degree_normalized_invariants",
    "invariant_distance",
    "same_orbit",
]

GROUPS = ("SO(3)", "O(3)")


@dataclass(frozen=True)
class AlignmentResult:
    """Group element taking a toward b and the Frobenius distance it leaves."""

    best_transform: OrthogonalTransform3
    residual: float
    group: str


def best_alignment(
    a: SymTraceless3,
    b: SymTraceless3,
    group: str = "O(3)",
    cfg: SphereOptConfig | None = None,
) -> AlignmentResult:
    """The element R_b^T R_a through the canonical frames, with its residual.

    R_a and R_b are the rotations ``canonicalize`` returns for a and b
    (``cfg`` sets the tolerance of both maximizer solves).  For a pair on
    one SO(3) orbit the residual ||g.a - b|| is at roundoff; otherwise it equals
    ||C_a - C_b|| between the canonical forms, an upper bound on the
    distance between the orbits.  O(3) also tries the improper branch
    -R_{-b}^T R_a and keeps whichever leaves the smaller residual.
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
    full_a = expand(a)
    full_b = expand(b)
    r_a = canonicalize(a, cfg).transform
    targets = [(1, b)]
    if group == "O(3)":
        targets.append((-1, SymTraceless3.from_array(-b.as_array())))
    best = None
    for sign, target in targets:
        r_b = canonicalize(target, cfg).transform
        g = OrthogonalTransform3(sign * r_b.m.T @ r_a.m, sign)
        residual = FullTensor3(act(g, full_a).entries - full_b.entries).frobenius()
        if best is None or residual < best.residual:
            best = AlignmentResult(g, residual, group)
    return best


def degree_normalized_invariants(t: SymTraceless3 | InvariantTuple) -> np.ndarray:
    """Invariants rescaled to a common homogeneity degree.

    Raising each invariant to 2/degree makes every component scale as the
    squared tensor norm, so one relative tolerance treats all four alike
    (raw values of degree 10 would otherwise swamp or starve the
    comparison).  The odd invariant keeps its sign.
    """
    tup = t if isinstance(t, InvariantTuple) else smith_bao(t)
    i10 = tup.i10
    return np.array(
        [
            tup.i2,
            np.sqrt(max(tup.i4, 0.0)),
            np.cbrt(max(tup.i6, 0.0)),
            np.sign(i10) * abs(i10) ** 0.2,
        ]
    )


def invariant_distance(a: SymTraceless3, b: SymTraceless3) -> float:
    """Worst componentwise relative gap between degree-normalized tuples."""
    pa = degree_normalized_invariants(a)
    pb = degree_normalized_invariants(b)
    return max(relative_error(float(x), float(y)) for x, y in zip(pa, pb))


def same_orbit(a: SymTraceless3, b: SymTraceless3, tol: float = 1e-8) -> str:
    """Verdict "same", "different", or "borderline" from the invariants.

    The invariants are a complete orbit separator, so distance <= tol means
    same orbit and a clear excess means different; the band up to 10x tol
    is reported as "borderline" rather than silently thresholded, since
    near-orbit pairs are exactly where the numerics are least trustworthy.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    distance = invariant_distance(a, b)
    if distance <= tol:
        return "same"
    if distance > 10.0 * tol:
        return "different"
    return "borderline"
