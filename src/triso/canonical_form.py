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
fallback.  A root counts as real when |Im s| <= 1e-3 (1 + s^2): the cut is
projective, as a root far out carries an error that grows as s^2, and a
multiple root splits off the real axis by eps^(1/k).  Those roots, plus
the covariant vector v_p = M_kl D_klp (which lies along the axis of a
zonal tensor, whose resultants vanish), are the candidates.  Those whose
value is within ``_FINISH_SLACK`` (1e-5) of the largest, less any within
``_MERGE`` (1e-2) of one with a larger value, are finished by Riemannian
Newton steps, and the largest value wins.  All of it runs on the seven
components of the unit-normalized tensor, read through the three
symmetric slices of ``components._slices``, so it is scale-free; a
27-entry ``FullTensor3`` is compressed at entry.

Only the candidate solve here uses numpy: matrix products with constant
tables (the Sylvester matrices and g's coefficients from the seven
components, the resultant's coefficients after each turn from its samples),
one ``det`` over the five 5x5 Sylvester matrices and one ``eigvals`` of the
7x7 companion matrix: two LAPACK calls, whatever the tensor.  Everything
around it works on Python floats and lives in the numpy-free
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
    _CHART_ORDERS,
    _CHART_ROWS,
    _INVERSE_DFT as _CORE_INVERSE_DFT,
    _ROOTS_OF_UNITY as _CORE_ROOTS_OF_UNITY,
    _SECOND_ROWS,
    _TURN_ANGLES,
    _TURN_MAPS,
    STATIONARITY_TOL,
    CanonicalRecord,
    _candidate_points,
    _check_group,
    _framed,
    _maximize,
    _tangent_bases,
    _tangential_residual,
    _unit_tensor,
    _zero_record,
)
from .components import (  # noqa: F401 (GROUPS and ConvergenceError re-exported)
    _LAYOUT,
    GROUPS,
    ConvergenceError,
    SymTraceless3,
    _in_frame,
    _slices,
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
    norm, so they scale with the tensor and stay finite at any finite norm.
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


# The two fixed frames of ``canonical_core`` (its _CHART_ROWS and _SECOND_ROWS).
_CHART_FRAME = np.array(_CHART_ROWS)
_SECOND_FRAME = np.array(_SECOND_ROWS)
# The 8th roots of unity in the closed upper half plane and the inverse DFT
# from the resultant's samples there, coef = Re(r @ _INVERSE_DFT), as arrays
_ROOTS_OF_UNITY = np.array(_CORE_ROOTS_OF_UNITY)
_INVERSE_DFT = np.array(_CORE_INVERSE_DFT)
# the companion matrix of a monic degree-7 polynomial, less its last column
_COMPANION = np.eye(7, k=-1)


def _chart_tables(frames) -> list:
    """The chart of each frame, as linear maps from the seven components of D.

    The chart of a frame with rows (u0, u1, u2) has the point
    x = w u0 + y u1 + z u2 and is centred on u2.  With P_m = D(u_m, x, x), x
    is stationary when g = w P1 - y P0 (a quadratic in z) and f = z P0 - w P2
    (a cubic in z) both vanish.  At w = 1 every coefficient in z is a
    polynomial of degree at most 3 in y, linear in D; that of z^k is
    homogeneous of degree 3 - k in (y, w).  Returns, for each frame, its
    rows as lists, the Sylvester matrices of f and g at _ROOTS_OF_UNITY,
    (5 * 5 * 5, 7) complex, and the coefficients of g, (3 * 4, 7): power of
    z, power of y.  Rows 8 and 9, D(u1, u2, u2) and -D(u0, u2, u2), are g's
    z^2 lead, zero at every y when u2 is stationary.
    """
    rows = [frame.tolist() for frame in frames]
    # k[c, m, n, l] is the row of D(u_m, u_n, u_l) in chart c: entry (n, l)
    # of slice m of D read in the chart's frame, at each basis tensor
    k = np.array([[_slices(*_in_frame(b, r)) for r in rows] for b in np.eye(7).tolist()])
    k = k.transpose(1, 2, 3, 0)[:, :, np.array(_LAYOUT)]
    zero = np.zeros_like(k[:, :, 0, 0])
    # P_m = a_m + b_m z + c_m z^2, each as coefficients of y^0..y^3
    a = np.stack([k[:, :, 0, 0], 2.0 * k[:, :, 0, 1], k[:, :, 1, 1], zero], axis=2)
    b = np.stack([2.0 * k[:, :, 0, 2], 2.0 * k[:, :, 1, 2], zero, zero], axis=2)
    c = np.stack([k[:, :, 2, 2], zero, zero, zero], axis=2)

    def y_times(poly):  # the degree-3 slot of a, b and c is empty
        return np.roll(poly, 1, axis=1)

    g = [a[:, 1] - y_times(a[:, 0]), b[:, 1] - y_times(b[:, 0]), c[:, 1] - y_times(c[:, 0])]
    f = [-a[:, 2], a[:, 0] - b[:, 2], b[:, 0] - c[:, 2], c[:, 0]]
    sylvester = np.zeros((len(rows), 5, 5, 4, 7))
    for shift in range(2):
        for j in range(4):
            sylvester[:, shift, shift + j] = f[3 - j]
    for shift in range(3):
        for j in range(3):
            sylvester[:, 2 + shift, shift + j] = g[2 - j]
    powers = _ROOTS_OF_UNITY[None, :] ** np.arange(4)[:, None]
    at_roots = np.einsum("cabjd,js->csabd", sylvester, powers).reshape(len(rows), -1, 7)
    return list(zip(rows, at_roots, np.stack(g, axis=1).reshape(len(rows), -1, 7)))


# The six charts of ``canonical_core._CHART_ORDERS``, each frame's rows in
# their three cyclic orders, so that each row centres one.  Their z^2
# leads, stacked, form a 12x7 map with smallest singular value 0.71, so on
# the unit-norm tensor the largest has norm at least 0.71 / sqrt(6) = 0.29.
# _G_TABLE gives g in all six in one product.
_CHARTS = _chart_tables([(_CHART_FRAME, _SECOND_FRAME)[f][list(order)] for f, order in _CHART_ORDERS])
_G_TABLE = np.concatenate([g_table for _, _, g_table in _CHARTS])
# Re(r @ _TURNS)[8 k : 8 k + 8] are the coefficients in s, s^0 first, of
# the resultant turned by the k-th of ``_TURN_ANGLES`` (``_TURN_MAPS``),
# from its samples r at _ROOTS_OF_UNITY.
_TURNS = np.hstack([_INVERSE_DFT @ np.array(maps) for maps in _TURN_MAPS])


def _stationary_candidates(c: tuple) -> list:
    """Unit vectors near every stationary point of the cubic form of the
    unit-norm tensor with the seven components c, as a list of 3-lists.

    A generic 3x3x3 symmetric tensor has exactly 7 lines of stationary
    points (Z-eigenvectors; Cartwright and Sturmfels, 2013), and the
    resultant of f and g in z, a binary septic R(y, w), holds them all in
    one chart (two of the 9 Bezout solutions sit at w = 0 and are divided
    out).  A chart loses them only where a leading coefficient vanishes:
    g's z^2 lead, at every y, when one sits at its centre (R vanishes), and
    R's top terms when one sits on its line at infinity w = 0.  So the
    chart solved is the one in _CHARTS whose z^2 lead (rows 8 and 9 of its
    g table) has the largest norm, turned by the a in _TURNS at which
    |R(cos a, sin a)|, the lead in s, is largest.  R is sampled at the 8th
    roots of unity by one ``det`` over five 5x5 Sylvester matrices, and its
    roots in s are the eigenvalues of the 7x7 companion matrix.

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
    g_tables = (_G_TABLE @ d).reshape(6, 12).tolist()
    leads = [g[8] * g[8] + g[9] * g[9] for g in g_tables]
    chart = leads.index(max(leads))
    rows, sylvester, _ = _CHARTS[chart]
    turned = (np.linalg.det((sylvester @ d).reshape(5, 5, 5)) @ _TURNS).real
    tops = np.abs(turned[7::8]).tolist()
    k = tops.index(max(tops))
    coef = turned[8 * k : 8 * k + 8]
    companion = _COMPANION.copy()
    # a resultant that is zero throughout (a zonal tensor) gives junk roots at 0
    np.divide(-coef[:7], coef[7] or 1.0, out=companion[:, 6])  # last column -coef_j / lead
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
    frob, c = _unit_tensor(t)
    if frob == 0.0:
        return SphereMaximizer(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)
    maximizers, value, res, newton_iterations = _maximize(t, c, _stationary_candidates)
    return SphereMaximizer(
        maximizers[0],
        frob * value,
        frob * res,
        newton_iterations=newton_iterations,
        maximizers=maximizers,
    )


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
    frob, c = _unit_tensor(t)
    if frob == 0.0:
        record = _zero_record()
    else:
        mx = maximize_cubic_on_sphere(t)
        record = _framed(frob, c, mx.maximizers.tolist(), mx.newton_iterations, group)
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
    frob, c = _unit_tensor(t)
    if frob == 0.0:
        return 0.0
    x = x.tolist()
    return _tangential_residual(_in_frame(c, (x, *_tangent_bases(x))), frob)
