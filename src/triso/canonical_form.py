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

Only the candidate solve uses numpy: matrix products with constant tables
(the Sylvester matrices and g's coefficients from the seven components, the
resultant's coefficients after each turn from its samples), one ``det``
over the five 5x5 Sylvester matrices and one ``eigvals`` of the 7x7
companion matrix: two LAPACK calls, whatever the tensor.  Everything around
them works on Python floats: the root and value filters, the candidate
points, the Newton finish of the one or two candidates that can win, the
scoring of the frames they give and the rows of the winning transform.  On
arrays of 1 to 15 rows numpy's per-call cost outweighs the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING

import numpy as np

from .components import (
    _LAYOUT,
    GROUPS,
    ConvergenceError,
    SymTraceless3,
    _dot,
    _in_frame,
    _norm,
    _slices,
)
from .invariants import CanonicalParams, _components, _slice_kernel
from .tensor_core import OrthogonalTransform3, _quaternion_to_matrix

if TYPE_CHECKING:
    from .tensor_core import FullTensor3

# Stationarity tolerance the returned maximizer must meet, applied to the
# unit-normalized tensor.
STATIONARITY_TOL = 1e-12
# A candidate is finished by Newton steps when its unpolished |value| is
# within this of the largest (unit-normalized tensor).  A candidate on a
# tied maximizer can start up to 5.1e-6 below the top, on a rotated copy of
# a tensor with three tied maximizers.
_FINISH_SLACK = 1e-5

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
        return {
            "params": self.params.to_json_obj(),
            "rotation": [[float(v) for v in row] for row in self.transform.m],
            "max_value": self.max_value,
            "residual": self.diagnostics.get("stationarity_residual", 0.0),
        }


def _unit_tensor(t: SymTraceless3 | FullTensor3) -> tuple[float, tuple | None]:
    """The norm ||T|| and the seven components over it; (0.0, None) for zero."""
    c = _components(t)
    norm = _norm(c)
    if norm == 0.0:
        return 0.0, None
    return norm, tuple(x / norm for x in c)


# Kernels on single 3-vectors held as Python floats, and on the seven
# components c of the unit-norm tensor, for the work that follows the
# candidate solve.


def _unit(x) -> list:
    n = math.sqrt(_dot(x, x))
    return [x[0] / n, x[1] / n, x[2] / n]


def _tangent_bases(x) -> tuple[list, list]:
    """An orthonormal tangent pair (t1, t2) at the unit vector x.

    t1 is e_a - x_a x normalized, with a the axis of the smallest |x_a|
    (the first of equals), and t2 = x cross t1.
    """
    x0, x1, x2 = x
    a0, a1, a2 = abs(x0), abs(x1), abs(x2)
    a = 0 if a0 <= a1 and a0 <= a2 else 1 if a1 <= a2 else 2
    t = [-x[a] * x0, -x[a] * x1, -x[a] * x2]
    t[a] += 1.0
    c0, c1, c2 = _unit(t)
    return [c0, c1, c2], [x1 * c2 - x2 * c1, x2 * c0 - x0 * c2, x0 * c1 - x1 * c0]


def _tangential_residual(read: tuple, scale: float = 1.0) -> float:
    """scale ||grad g - (x.grad g) x|| at x, from the tensor read in a frame
    (x, t1, t2): the gradient's tangent part is 3 (d112, d113)."""
    return 3.0 * scale * math.hypot(read[1], read[2])


def _newton(c: tuple, x: list) -> tuple[list, int, float, float]:
    """Riemannian Newton steps from x toward a stationary point of the cubic form.

    Each iteration reads the tensor in the frame (x, t1, t2) and solves the
    projected system P(H - lambda I)P dx = -P grad in the tangent basis; a
    near-singular tangent Hessian falls back to a damped gradient step.
    Step length is capped so the iterate stays in its basin.  It stops
    without moving when the step it would take is below 1e-15, or after 4
    steps, and returns the point, the frame reads, and g(x) and the
    tangential gradient norm ||grad g - (x.grad g) x|| from the last read.
    """
    for reads in range(1, 6):
        t1, t2 = _tangent_bases(x)
        # in the frame (x, t1, t2), H = 6 D(x) and grad = 3 D(x) x have
        # tangent parts 6 [[d122, d123], [d123, d133]] and 3 (d112, d113),
        # lambda = 3 d111 and d133 = -d111 - d122
        read = _in_frame(c, (x, t1, t2))
        d111, d112, d113, d122, d123, _, _ = read
        a00, a01, a11 = 6.0 * d122 - 3.0 * d111, 6.0 * d123, -9.0 * d111 - 6.0 * d122
        b0, b1 = -3.0 * d112, -3.0 * d113
        det = a00 * a11 - a01 * a01
        if abs(det) > 1e-14 * (1.0 + a00 * a00 + a01 * a01 + a11 * a11):
            z0, z1 = (a11 * b0 - a01 * b1) / det, (a00 * b1 - a01 * b0) / det
        else:
            z0, z1 = 0.2 * b0, 0.2 * b1
        step = math.hypot(z0, z1)
        cap = min(1.0, 0.3 / max(step, 1e-300))
        if cap * step < 1e-15 or reads == 5:
            break
        z0, z1 = cap * z0, cap * z1
        x = _unit([x[k] + z0 * t1[k] + z1 * t2[k] for k in range(3)])
    return x, reads, d111, _tangential_residual(read)


def _cubic_values(c: tuple, rows) -> list:
    """g(x) = D_ijk x_i x_j x_k at each row x, from the ten coefficients of the cubic."""
    (d111, d122, d133, d112, d113, d123), (_, d222, d233, _, _, d223), (_, _, d333, _, _, _) = _slices(*c)
    k112, k113, k122, k123, k133 = 3.0 * d112, 3.0 * d113, 3.0 * d122, 6.0 * d123, 3.0 * d133
    k223, k233 = 3.0 * d223, 3.0 * d233
    return [
        x1 * (x1 * (d111 * x1 + k112 * x2 + k113 * x3) + x2 * (k122 * x2 + k123 * x3) + k133 * x3 * x3)
        + x2 * x2 * (d222 * x2 + k223 * x3)
        + x3 * x3 * (k233 * x2 + d333 * x3)
        for x1, x2, x3 in rows
    ]


# Two fixed rotations with no special alignment to the coordinate axes or
# to each other: every row of one is at least 47 degrees from every row of
# the other (|cos| <= 0.672).  The quaternions have squared norms 1.0071
# and 0.995.
_CHART_FRAME = _quaternion_to_matrix(np.array([0.7, 0.41, -0.33, 0.49]) / math.sqrt(1.0071))
_SECOND_FRAME = _quaternion_to_matrix(np.array([0.9, 0.4, -0.15, -0.05]) / math.sqrt(0.995))
# A real root s of the resultant is one with |Im s| <= _ROOT_TOL (1 + s^2).
# Roundoff moves a k-fold root by about eps^(1/k), off the real axis (1e-8
# for a double root, 1.3e-4 for the 4-fold root of the d111-only tensor),
# and a root far out, near the turned chart's point at infinity, by that
# much in 1/s, so by that times s^2 in s.  A complex root this close to the
# real axis gives a spurious candidate, which is harmless: every candidate
# is ranked by value and the ones that can win are finished by Newton steps.
_ROOT_TOL = 1e-3
# The 8th roots of unity omega_s in the closed upper half plane, s = 0..4.
# A resultant r has real coefficients, so r(omega_(8-s)) = conj r(omega_s)
# gives the other three samples.  r(omega_s) = sum_j coef_j omega_s^j, so
# coef_j = sum_s r(omega_s) omega_s^-j / 8 over all eight, which is
# coef = Re(r @ _INVERSE_DFT) over these five, with s = 1..3 counted twice.
_ROOTS_OF_UNITY = np.exp(2j * math.pi * np.arange(5) / 8)
_INVERSE_DFT = np.array([1, 2, 2, 2, 1])[:, None] * _ROOTS_OF_UNITY[:, None] ** -np.arange(8)[None, :] / 8.0
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


# Six charts, each frame's rows in their three cyclic orders, so that each
# row centres one.  Their z^2 leads, stacked, form a 12x7 map with smallest
# singular value 0.71, so on the unit-norm tensor the largest has norm at
# least 0.71 / sqrt(6) = 0.29.  _G_TABLE gives g in all six in one product.
_CHARTS = _chart_tables([f[[c, (c + 1) % 3, (c + 2) % 3]] for f in (_CHART_FRAME, _SECOND_FRAME) for c in range(3)])
_G_TABLE = np.concatenate([g_table for _, _, g_table in _CHARTS])
# The turns a = k pi / 8, k = 0..7, of a chart's (y, w) plane.  The
# resultant R(y, w) = sum_j coef_j y^j w^(7 - j) at (y, w) =
# (s cos a - sin a, s sin a + cos a) is a septic in s with lead
# R(cos a, sin a); Re(r @ _TURNS)[8 k : 8 k + 8] are its coefficients,
# s^0 first, from the samples r at _ROOTS_OF_UNITY.
_TURN_ANGLES = [(math.cos(k * math.pi / 8), math.sin(k * math.pi / 8)) for k in range(8)]
_TURNS = np.hstack(
    [
        _INVERSE_DFT @ [reduce(np.convolve, [[-sa, ca]] * j + [[ca, sa]] * (7 - j)) for j in range(8)]
        for ca, sa in _TURN_ANGLES
    ]
)


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

    Each root s real to within _ROOT_TOL (1 + s^2) is taken back to
    (y, w) = (s cos a - sin a, s sin a + cos a) and gives both roots z of
    the quadratic g, its coefficients homogenized in w, with no window: a
    spurious one is harmless, as the caller ranks every candidate by value.
    The filter is projective, as roots far out carry an error that grows
    as s^2, and multiple roots split off the real axis: the d111-only
    tensor has a 4-fold root near s = -0.669 with |Im s| = 1.3e-4, which an
    absolute cut of 1e-4 would drop.  The covariant vector v_p = M_kl D_klp
    is added when it is nonzero: a zonal tensor (axially symmetric) has a
    ring of stationary points, its resultant vanishes identically in every
    chart, and v lies along its axis, which is its maximizer.  The rows
    come root by root, q/g2 before g0/q, then v.  Only the table products,
    the ``det`` and the ``eigvals`` run on arrays; the choices, the filter,
    g's coefficients (by Horner at each kept root) and the points run on
    Python floats.
    """
    d = np.array(c)
    g_tables = (_G_TABLE @ d).reshape(6, 12).tolist()
    leads = [g[8] * g[8] + g[9] * g[9] for g in g_tables]
    chart = leads.index(max(leads))
    (u0, u1, u2), sylvester, _ = _CHARTS[chart]
    turned = (np.linalg.det((sylvester @ d).reshape(5, 5, 5)) @ _TURNS).real
    tops = np.abs(turned[7::8]).tolist()
    k = tops.index(max(tops))
    coef = turned[8 * k : 8 * k + 8]
    companion = _COMPANION.copy()
    # a resultant that is zero throughout (a zonal tensor) gives junk roots at 0
    np.divide(-coef[:7], coef[7] or 1.0, out=companion[:, 6])  # last column -coef_j / lead
    roots = np.linalg.eigvals(companion).tolist()
    ca, sa = _TURN_ANGLES[k]
    a0, a1, a2, a3, b0, b1, b2, _, c0, c1, _, _ = g_tables[chart]

    rows = []
    for s in roots:
        if not abs(s.imag) <= _ROOT_TOL * (1.0 + s.real * s.real):
            continue
        y, w = s.real * ca - sa, s.real * sa + ca
        # g's coefficients of z^0, z^1, z^2 at (y, w), and its two roots
        # z = q / g2 = g0 / q, each as the point den (w u0 + y u1) + num u2
        g0 = ((a3 * y + a2 * w) * y + a1 * w * w) * y + a0 * w * w * w
        g1 = (b2 * y + b1 * w) * y + b0 * w * w
        g2 = c1 * y + c0 * w
        q = -0.5 * (g1 + math.copysign(math.sqrt(max(g1 * g1 - 4.0 * g0 * g2, 0.0)), g1))
        w0, w1, w2 = w * u0[0] + y * u1[0], w * u0[1] + y * u1[1], w * u0[2] + y * u1[2]
        for den, num in ((g2, q), (q, g0)):
            x0, x1, x2 = den * w0 + num * u2[0], den * w1 + num * u2[1], den * w2 + num * u2[2]
            n = math.sqrt(x0 * x0 + x1 * x1 + x2 * x2)
            if n > 0.0:
                rows.append([x0 / n, x1 / n, x2 / n])
    v = _slice_kernel(*c)[1]
    if _dot(v, v) > 0.0:
        rows.append(_unit(v))
    return rows


# A contender within this of one with a larger value goes to the same
# stationary point and is not finished.  Roots are good to about 1e-8 (5e-6
# at a triple root), but the other root z of g at a real root y zeroes g and
# not f, and can land near the maximizer: on random_tensor(0..9999) and 360
# rotated tied tensors, contenders that Newton took to one point were up to
# 2.3e-3 apart (1.9e-3 on seed 1097), and contenders that it took to
# distinct points at least 1.63 apart.
_MERGE = 1e-2


def _contenders(c: tuple, rows: list) -> list:
    """The candidates that can win, each turned to the sign of positive
    value, largest value first: those with |value| within _FINISH_SLACK of
    the top, less any within _MERGE of one with a larger value."""
    near = []
    values = _cubic_values(c, rows)
    top = max(map(abs, values))
    for row, value in zip(rows, values):
        if abs(value) >= top - _FINISH_SLACK:
            near.append((abs(value), row if value >= 0.0 else [-row[0], -row[1], -row[2]]))
    near.sort(key=lambda pair: pair[0], reverse=True)
    kept = []
    for _, row in near:
        if all(math.dist(row, other) > _MERGE for other in kept):
            kept.append(row)
    return kept


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

    rows = _stationary_candidates(c)
    if not rows:
        raise ConvergenceError(f"no stationary point found for {SymTraceless3(*_components(t))!r}")
    finished = []  # (value, point, residual), value >= 0
    newton_iterations = 0
    for row in _contenders(c, rows):
        u, reads, value, res = _newton(c, row)
        newton_iterations = max(newton_iterations, min(reads, 4))
        if value < 0.0:
            u, value = [-u[0], -u[1], -u[2]], -value
        finished.append((value, u, res))

    # candidates still converging onto the maximizer share its value, so
    # the tolerance is judged on the best of those within 1e-12 of it
    top = max(value for value, _, _ in finished)
    near = [c for c in finished if c[0] >= top - 1e-12]
    tied = sorted(
        (c for c in near if c[2] <= STATIONARITY_TOL), key=lambda c: c[1], reverse=True
    )
    if not tied:
        raise ConvergenceError(
            f"the maximizer misses stationarity tolerance {STATIONARITY_TOL:.3g}; "
            f"residual {min(c[2] for c in near):.3g} (normalized tensor)"
        )
    maximizers = []
    for c in tied:
        if all(math.dist(c[1], m[1]) > 1e-6 for m in maximizers):
            maximizers.append(c)
    value, u, res = maximizers[0]
    return SphereMaximizer(
        u,
        frob * value,
        frob * res,
        newton_iterations=newton_iterations,
        maximizers=[m[1] for m in maximizers],
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
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
    if not isinstance(t, SymTraceless3):
        t = SymTraceless3(*_components(t))  # a FullTensor3 is compressed here, once
    frob, c = _unit_tensor(t)
    if frob == 0.0:
        return CanonicalResult(
            CanonicalParams(0.0, 0.0, 0.0, 0.0),
            OrthogonalTransform3.identity(),
            0.0,
            {
                "newton_iterations": 0,
                "stationarity_residual": 0.0,
                "circle_residual": 0.0,
                "constraint_violation": 0.0,
            },
        )

    mx = maximize_cubic_on_sphere(t)
    mirror = group == "O(3)"
    frames = []  # (ranking keys, theta, frame, components in it, d122, d123, d223)
    for u in mx.maximizers.tolist():
        t1, t2 = _tangent_bases(u)
        # the unit-norm tensor in the frame (u, t1, t2), where a112 and a113
        # are at roundoff level, as u is stationary
        a = _in_frame(c, (u, t1, t2))
        a111, _, _, b22, b23, a222, a223 = a
        half_gap = 0.5 * (2.0 * b22 + a111)  # (d122 - d133) / 2, as d133 = -d111 - d122

        if math.hypot(a222, a223) <= 1e-13:
            thetas = [0.5 * math.atan2(b23, half_gap)]
        else:  # zeros of h: 3 theta = atan2(a223, a222) + pi/2 + j pi
            phi = math.atan2(a223, a222)
            thetas = [(phi + math.pi * (0.5 + j)) / 3.0 for j in range(6)]
        for theta in thetas:
            c2, s2 = math.cos(2.0 * theta), math.sin(2.0 * theta)
            d122 = -0.5 * a111 + half_gap * c2 + b23 * s2
            d123 = b23 * c2 - half_gap * s2
            d223 = a223 * math.cos(3.0 * theta) - a222 * math.sin(3.0 * theta)
            keys = (d122, abs(d123), d223, d123) if mirror else (d122, d123, d223)
            frames.append((keys, theta, (u, t1, t2), a, d122, d123, d223))
    for k in range(len(frames[0][0])):
        top = max(f[0][k] for f in frames)
        frames = [f for f in frames if f[0][k] >= top - 1e-10]
    _, theta, frame, frame_read, d122, d123, d223 = frames[0]
    a111, a112, a113, _, _, a222, a223 = frame_read

    # the rest of the winning frame in closed form: a112 and a113 also
    # reach d222 and d223, through the traces
    c1, s1 = math.cos(theta), math.sin(theta)
    d112, d113 = c1 * a112 + s1 * a113, c1 * a113 - s1 * a112
    d222 = a222 * math.cos(3.0 * theta) + a223 * math.sin(3.0 * theta)
    d222 -= s1 * s1 * (3.0 * c1 * a112 + s1 * a113)
    d223 -= s1 * ((2.0 * c1 * c1 - s1 * s1) * a112 + c1 * s1 * a113)
    # the rotation about e1 by theta, composed after the frame (u, t1, t2)
    u, t1, t2 = frame
    m = [u, [c1 * t1[k] + s1 * t2[k] for k in range(3)], [-s1 * t1[k] + c1 * t2[k] for k in range(3)]]
    det_sign = 1
    if mirror and d123 < -1e-10:
        m[1] = [-x for x in m[1]]  # diag(1, -1, 1) @ m, which negates d123
        det_sign, d123 = -1, -d123
    transform = OrthogonalTransform3(m, det_sign)
    params = CanonicalParams(frob * a111, frob * d122, frob * d123, frob * d223)
    diagnostics = {
        "newton_iterations": mx.newton_iterations,
        "stationarity_residual": _tangential_residual(frame_read, frob),
        "circle_residual": frob * abs(d222),
        "constraint_violation": frob * max(abs(d112), abs(d113), abs(d222)),
    }
    return CanonicalResult(params, transform, frob * a111, diagnostics)


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
