"""Rotation of a tensor into canonical position.

Every symmetric traceless tensor can be rotated so that a global maximizer
of its cubic form g(x) = D_ijk x_i x_j x_k sits at e1.  First-order
stationarity there kills d112 and d113, and d111 becomes the (nonnegative)
maximum value.  A second rotation about e1 moves a zero of the circle
restriction theta -> g(0, cos theta, sin theta) to e2, killing d222 while
leaving e1 (hence the stationarity conditions) fixed.  Four parameters
survive: (d111, d122, d123, d223).  Among the finitely many frames built
this way (tied maximizers times zeros of the restriction) ``canonicalize``
picks one by a fixed rule on the surviving parameters, so they are a
function of the SO(3) orbit.  The reflection across x2 = 0 keeps the
constraints and negates only d123, so one more step makes them a function
of the O(3) orbit.

The maximizer is solved for, not searched for.  A stationary point of the
cubic form on the sphere is a Z-eigenvector of D, and a generic 3x3x3
symmetric tensor has exactly 7 lines of them (Cartwright and Sturmfels,
2013).  In one chart they are the real roots of a degree-7 resultant,
each giving both roots of a quadratic in the third coordinate.  A chart
loses stationary points only where a leading coefficient vanishes: its
quadratic's when one sits at the chart's centre (its resultant vanishes),
the resultant's when one sits on its line at infinity.  So each call
solves the one chart, of six centred on the rows of two fixed frames,
whose quadratic has the largest lead, turned about its centre to the one
of eight angles at which the resultant's lead is largest: no cutoff, no
fallback.  The resultant's samples at those eight directions are the
leads, and give the turned coefficients.  A root counts as real when
|Im s| <= 1e-3 (1 + s^2): the cut is projective, as a root far out
carries an error that grows as s^2, and a multiple root splits off the
real axis by eps^(1/k).  Those roots, plus
the covariant vector v_p = M_kl D_klp (which lies along the axis of a
zonal tensor, whose resultants vanish), are the candidates.  Those whose
value is within ``_FINISH_SLACK`` (1e-5) of the largest, less any within
``_MERGE`` (1e-2) of one with a larger value, are finished by Riemannian
Newton steps, and the largest value wins.  All of it runs on the seven
components of the unit-normalized tensor, read through the three
symmetric slices of ``components._slices``, so it is scale-free; a
27-entry ``FullTensor3`` is compressed at entry.

Only the candidate solve here uses numpy: matrix products with constant
tables (``canonical_core._chart_polynomials`` at the seven basis tensors:
the Sylvester matrices at the eight turns and g's coefficients), one
``det`` over the eight real 5x5 Sylvester matrices and one ``eigvals`` of
the 7x7 companion matrix: two LAPACK calls, whatever the tensor.
Everything around it works on Python floats and lives in the numpy-free
``canonical_core``: the root and value filters, the candidate points, the
Newton finish of the one or two candidates that can win, the scoring of the
frames they give and the rows of the winning transform.  On arrays of 1 to
15 rows numpy's per-call cost outweighs the arithmetic.  The ``triso``
command canonicalizes through that core with its pure-Python candidate
solve instead, so that it never imports numpy; its params can differ from
this module's in the last bits, by at most 1e-13 ||T||.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .canonical_core import (  # noqa: F401 (STATIONARITY_TOL re-exported)
    _TURN_ANGLES,
    STATIONARITY_TOL,
    CanonicalRecord,
    _candidate_points,
    _chart_at,
    _chart_polynomials,
    _chart_rows,
    _check_group,
    _frame_reads,
    _framed,
    _maximize,
    _rescaled,
    _tangent_bases,
    _tangential_residual,
    _turned,
    _unit_tensor,
    _zero_record,
)
from .components import (  # noqa: F401 (GROUPS and ConvergenceError re-exported)
    GROUPS,
    ConvergenceError,
    SymTraceless3,
    _in_frame,
)
from .invariants import CanonicalParams, _components
from .tensor_core import OrthogonalTransform3

if TYPE_CHECKING:
    from .tensor_core import FullTensor3

__all__ = [
    "STATIONARITY_TOL",
    "SphereMaximizer",
    "CanonicalResult",
    "ConvergenceError",
    "maximize_cubic_on_sphere",
    "canonicalize",
    "stationarity_residual",
]


@dataclass(frozen=True)
class SphereMaximizer:
    """A stationary point of the cubic form on the unit sphere.

    value = g(u) >= 0 (the maximum of an odd function is nonnegative), and
    residual is the tangential gradient norm ||grad g - (u.grad g) u|| at u.
    Both are computed on the unit-normalized tensor and multiplied by its
    norm n 2^k (n, then 2^k), so they are +-inf only past the double range.
    iterations is 0, as no ascent runs; newton_iterations is the most
    Newton steps any finished candidate took, at most 4, with the step
    below 1e-15 that ends a candidate's run counted though it is not taken.
    maximizers holds one row per distinct maximizer tied with u, u first.
    """

    u: np.ndarray
    value: float
    residual: float
    iterations: int = 0
    newton_iterations: int = 0
    maximizers: np.ndarray | None = None

    def __post_init__(self):
        u = np.array(self.u, dtype=float).reshape(3)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        rows = np.array(u[None] if self.maximizers is None else self.maximizers, dtype=float).reshape(-1, 3)
        rows.setflags(write=False)
        object.__setattr__(self, "maximizers", rows)


@dataclass(frozen=True)
class CanonicalResult:
    """Outcome of canonicalization.

    The input read in the frame of ``transform`` (``act(transform,
    original)``) has |d112|, |d113|, |d222| at roundoff level, d111 =
    max_value >= 0, and the same invariant tuple as the input; ``params``
    holds its four surviving components, in closed form from the frame
    that ``canonicalize`` picks.  ``diagnostics`` records the Newton steps
    and the residuals of the two rotation stages.
    """

    params: CanonicalParams
    transform: OrthogonalTransform3
    max_value: float
    diagnostics: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        rows = self.transform.m.tolist()
        return CanonicalRecord(self.params, rows, self.transform.det_sign, self.max_value, self.diagnostics).to_json_obj()


# samples @ _TURNED[k] are the coefficients of s^0..s^6 of the resultant turned
# by the k-th of _TURN_ANGLES: ``canonical_core._turned`` at the unit vectors
_TURNED = np.array([[_turned(e, k) for e in np.eye(8).tolist()] for k in range(8)])
# the companion matrix of a monic degree-7 polynomial, less its last column
_COMPANION = np.eye(7, k=-1)


def _sylvester(f: list, g: list) -> list:
    """The Sylvester matrix of the cubic f and the quadratic g, z^0 first."""
    f, g = f[::-1], g[::-1]
    return [f + [0.0], [0.0] + f, g + [0.0, 0.0], [0.0] + g + [0.0], [0.0, 0.0] + g]


def _chart_tables() -> list:
    """The six charts of ``canonical_core._CHART_ORDERS`` as linear maps from
    the seven components of D: for each, its rows, the Sylvester matrices
    of f / w and g at the eight _TURN_ANGLES, (8 * 5 * 5, 7), whose dets
    are the samples of its resultant R, and the coefficients of g, (9, 7).
    Both are ``canonical_core._chart_polynomials`` at the basis tensors."""
    basis = [_frame_reads(b) for b in np.eye(7).tolist()]
    charts = []
    for chart in range(6):
        polynomials = [_chart_polynomials(reads, chart) for reads in basis]
        sylvester = [[_sylvester(*_chart_at(f, g, turn)) for turn in _TURN_ANGLES] for f, g in polynomials]
        g_table = [g[0] + g[1] + g[2] for _, g in polynomials]
        charts.append((_chart_rows(chart), np.array(sylvester).reshape(7, -1).T, np.array(g_table).T))
    return charts


# The charts, each frame's rows in their three cyclic orders, so that each
# row centres one.  Their z^2 leads (rows 7 and 8 of each g table), stacked,
# form a 12x7 map with smallest singular value 0.71, so on the unit-norm
# tensor the largest has norm at least 0.71 / sqrt(6) = 0.29.  _G_TABLE
# gives g in all six in one product.
_CHARTS = _chart_tables()
_G_TABLE = np.concatenate([g_table for _, _, g_table in _CHARTS])


def _stationary_candidates(c: tuple) -> list:
    """Unit vectors near every stationary point of the cubic form of the
    unit-norm tensor with the seven components c, as a list of 3-lists.

    A generic 3x3x3 symmetric tensor has exactly 7 lines of stationary
    points (Z-eigenvectors; Cartwright and Sturmfels, 2013), and the
    resultant of f and g in z, w^2 times a binary septic R(y, w), holds
    them all in one chart (two of the 9 Bezout solutions sit at w = 0).  A
    chart loses them only where a leading coefficient vanishes: g's z^2
    lead, at every y, when one sits at its centre (R vanishes), and R's top
    terms when one sits on its line at infinity w = 0.  So the chart solved
    is the one in _CHARTS whose z^2 lead has the largest norm, turned by
    the one of the eight _TURN_ANGLES a at which |R(cos a, sin a)|, the
    turned septic's lead, is largest.  One ``det`` over eight real 5x5
    Sylvester matrices samples R there, the turned coefficients come from
    the samples through _TURNED (``canonical_core._turned``), and
    the roots in s are the eigenvalues of the 7x7 companion matrix.

    The roots go to ``canonical_core._candidate_points``, which keeps each
    one real to within _ROOT_TOL (1 + s^2) and gives both roots z of g at it,
    then adds the covariant vector v = M_kl D_klp when it is nonzero.  The
    filter is projective, as roots far out carry an error that grows as
    s^2, and multiple roots split off the real axis: the d111-only tensor
    has a 4-fold root near s = -0.669 with |Im s| = 1.3e-4, which an
    absolute cut of 1e-4 would drop.  Only the table products, the ``det``
    and the ``eigvals`` run on arrays.
    """
    d = np.array(c)
    g_tables = (_G_TABLE @ d).reshape(6, 9).tolist()
    leads = [g[7] * g[7] + g[8] * g[8] for g in g_tables]
    chart = leads.index(max(leads))
    rows, sylvester, _ = _CHARTS[chart]
    samples = np.linalg.det((sylvester @ d).reshape(8, 5, 5))
    tops = np.abs(samples).tolist()
    k = tops.index(max(tops))
    companion = _COMPANION.copy()
    # last column -coef_j / lead; a resultant that is zero throughout (a
    # zonal tensor) gives junk roots at 0
    np.divide(samples @ _TURNED[k], -(samples[k] or 1.0), out=companion[:, 6])
    roots = np.linalg.eigvals(companion).tolist()
    return _candidate_points(c, rows, _TURN_ANGLES[k], g_tables[chart], roots)


def maximize_cubic_on_sphere(t: SymTraceless3 | FullTensor3) -> SphereMaximizer:
    """Find the global maximizer of the cubic form on the unit sphere.

    Every stationary point is enumerated (``_stationary_candidates``).  The
    candidates with |value| within ``_FINISH_SLACK`` (1e-5) of the largest
    (normalized tensor), less any within ``_MERGE`` (1e-2) of one with a
    larger value, are finished by Newton steps (``_contenders``), one at a
    time, each until the step it would take is below 1e-15 and at most 4;
    the value and residual come from the last frame Newton read.  The rest
    cannot win, as a candidate eps from a stationary point is off in value
    by O(eps^2).  Candidates with a negative value are flipped to the
    antipode, so the result satisfies value >= 0.  The largest value wins,
    with ties (within 1e-12 on the normalized tensor) broken by picking the
    lexicographically largest unit vector.  Every distinct tied maximizer
    that meets STATIONARITY_TOL (candidates within 1e-6 of each other count
    once) is returned in ``maximizers``.

    Raises ConvergenceError if no candidate within 1e-12 of the largest
    value has a stationarity residual (on the normalized tensor) within
    STATIONARITY_TOL, or if there is no candidate at all.
    """
    (norm, k), c = _unit_tensor(t)
    if c is None:
        return SphereMaximizer(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)
    maximizers, value, res, newton_iterations = _maximize(t, c, _stationary_candidates)
    value, res = _rescaled(k, [norm * value, norm * res])
    return SphereMaximizer(maximizers[0], value, res, newton_iterations=newton_iterations, maximizers=maximizers)


def canonicalize(t: SymTraceless3 | FullTensor3, group: str = "SO(3)") -> CanonicalResult:
    """Move a tensor into canonical position by an element of ``group``.

    Each distinct maximizer u of the cubic form gives a frame (u, t1, t2),
    in which d112 = d113 = 0.  Turning that frame about u by theta keeps
    them zero and sets d222 = h(theta) = a222 cos 3theta + a223 sin 3theta
    and d223 = h'(theta) / 3, where a222, a223 are the frame's own
    components.  The candidates are every maximizer with each of the six
    zeros of h in [0, 2 pi), theta and theta + pi both; when h vanishes
    (|h| <= 1e-13 ||T||) the one theta that makes d123 = 0 with
    d122 >= d133.  Their d122, d123 and d223 come in closed form.  The
    winner has the largest d122, then the largest d123, then the largest
    d223, each compared within 1e-10 ||T||.  The candidate set does not
    depend on the input's frame, so the params are a function of the SO(3)
    orbit; a mirror image has its d123 negated.

    The params are the winner's d111, d122, d123 and d223 times ||T||, in
    closed form from the unit-norm tensor read in its frame; the
    diagnostics' circle and constraint residuals are its d112, d113 and
    d222, also in closed form.  The transform is the rotation about e1 by
    theta composed after the winner's frame.  For ``group="O(3)"`` the rule
    ranks |d123| in place of d123, and a winner with d123 < -1e-10 ||T|| is
    mirrored across x2 = 0: the reflection diag(1, -1, 1) keeps the
    canonical constraints and negates only d123, so the params are a
    function of the O(3) orbit.  Ties left after d223 go to the larger
    d123, so a tensor with a mirror symmetry (whose candidates come in
    pairs +-d123) keeps a rotation: the transform is improper only for a
    chiral tensor.  The zero tensor
    short-circuits to the identity.  Raises ConvergenceError when the
    maximizer misses STATIONARITY_TOL (``maximize_cubic_on_sphere``).
    """
    _check_group(group)
    if not isinstance(t, SymTraceless3):
        t = SymTraceless3(*_components(t))  # a FullTensor3 is compressed here, once
    scale, c = _unit_tensor(t)
    if c is None:
        record = _zero_record()
    else:
        mx = maximize_cubic_on_sphere(t)
        record = _framed(scale, c, mx.maximizers.tolist(), mx.newton_iterations, group)
    transform = OrthogonalTransform3(record.rows, record.det_sign)
    return CanonicalResult(record.params, transform, record.max_value, record.diagnostics)


def stationarity_residual(t: SymTraceless3 | FullTensor3, x) -> float:
    """Distance of x from being a stationary point of the cubic form.

    Returns min over lambda of ||grad g(x) - lambda x||, attained at
    lambda = x . grad g(x), computed on the unit-normalized tensor and
    scaled back by its norm.
    """
    x = np.asarray(x, dtype=float).reshape(3)
    norm = np.linalg.norm(x)
    if not abs(norm - 1.0) <= 1e-10:  # not >, so that a nan entry fails too
        raise ValueError(f"x must be a unit vector, got |x| = {norm:.17g}")
    # on the unit-norm tensor, so squaring the residual cannot overflow
    (norm, k), c = _unit_tensor(t)
    if c is None:
        return 0.0
    x = x.tolist()
    return _rescaled(k, [_tangential_residual(_in_frame(c, (x, *_tangent_bases(x))), norm)])[0]
