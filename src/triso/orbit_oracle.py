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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .canonical_form import GROUPS, canonicalize  # noqa: F401 (GROUPS re-exported)
from .components import _in_frame, _ldexp, _norm, _unit_scale
from .invariants import InvariantTuple, _components, _slice_kernel
from .tensor_core import OrthogonalTransform3, SymTraceless3

_EPS = sys.float_info.epsilon

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
    for a and b.  For a pair on one orbit of ``group`` the residual
    ||g.a - b|| is at roundoff; otherwise it equals ||C_a - C_b|| between
    the canonical forms, an upper bound on the distance between the orbits.
    """
    r_a = canonicalize(a, group=group).transform
    r_b = canonicalize(b, group=group).transform
    g = OrthogonalTransform3(r_b.m.T @ r_a.m, r_b.det_sign * r_a.det_sign)
    moved = _in_frame(_components(a), g.m.tolist())
    residual = _norm([x - y for x, y in zip(moved, _components(b))])
    return AlignmentResult(g, residual, group)


def _degree_normalized(i2: float, i4: float, i6: float, i10: float) -> tuple:
    """(I2, I4^(1/2), I6^(1/3), I10^(1/5)), with I10's sign kept."""
    return (i2, math.sqrt(max(i4, 0.0)), float(np.cbrt(max(i6, 0.0))), math.copysign(abs(i10) ** 0.2, i10))


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


def _verdict(distance: float, tol: float) -> str:
    """The verdict rule of ``same_orbit`` on an ``invariant_distance``."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if distance <= tol:
        return "same"
    if distance > 10.0 * tol:
        return "different"
    return "borderline"
