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
cubic form on the sphere is a Z-eigenvector of D, and a 3x3x3 symmetric
tensor has at most 7 pairs of them.  In each of three coordinate charts of
a fixed generic frame they are the real roots of a degree-7 resultant;
those roots, plus the eigenvectors of the moment matrix (which catch the
axis of an axially symmetric tensor, whose resultant vanishes), are the
candidates.  Only those whose value is within 1e-6 of the largest can win;
they are finished by Riemannian Newton steps, and the largest value wins.
All of it runs on the seven components of the unit-normalized tensor, read
through the three symmetric slices of ``components._slices``, so it is
scale-free; a 27-entry ``FullTensor3`` is compressed at entry.

The candidate solve is the one batched stage (stacked 5x5 determinants,
companion eigenvalues, the moment matrix's eigenvectors).  What follows it,
the Newton finish of the one to four candidates that can win and the
scoring of the frames they give, works on Python floats one candidate at a
time: on arrays of so few rows numpy's per-call cost outweighs the
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    Newton steps any finished candidate took (each stops after its first
    step below 1e-15, and at 4).
    maximizers holds one row per distinct maximizer tied with u, u first.
    """

    u: np.ndarray
    value: float
    residual: float
    iterations: int = 0
    newton_iterations: int = 0
    maximizers: np.ndarray | None = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).reshape(3).copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        rows = u[None] if self.maximizers is None else self.maximizers
        rows = np.array(rows, dtype=float).reshape(-1, 3)
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


def _newton(c: tuple, x: list) -> tuple[list, int]:
    """Riemannian Newton steps from x toward a stationary point of the cubic form.

    Solves the projected system P(H - lambda I)P dx = -P grad in the 2d
    tangent basis; a near-singular tangent Hessian falls back to a damped
    gradient step.  Step length is capped so the iterate stays in its
    basin.  Stops after the first step below 1e-15, or after 4; returns
    the point and the steps run.
    """
    for it in range(1, 5):
        t1, t2 = _tangent_bases(x)
        # in the frame (x, t1, t2), H = 6 D(x) and grad = 3 D(x) x have
        # tangent parts 6 [[d122, d123], [d123, d133]] and 3 (d112, d113),
        # lambda = 3 d111 and d133 = -d111 - d122
        d111, d112, d113, d122, d123, _, _ = _in_frame(c, (x, t1, t2))
        a00, a01, a11 = 6.0 * d122 - 3.0 * d111, 6.0 * d123, -9.0 * d111 - 6.0 * d122
        b0, b1 = -3.0 * d112, -3.0 * d113
        det = a00 * a11 - a01 * a01
        if abs(det) > 1e-14 * (1.0 + a00 * a00 + a01 * a01 + a11 * a11):
            z0, z1 = (a11 * b0 - a01 * b1) / det, (a00 * b1 - a01 * b0) / det
        else:
            z0, z1 = 0.2 * b0, 0.2 * b1
        step = math.hypot(z0, z1)
        cap = min(1.0, 0.3 / max(step, 1e-300))
        z0, z1 = cap * z0, cap * z1
        x = _unit([x[k] + z0 * t1[k] + z1 * t2[k] for k in range(3)])
        if cap * step < 1e-15:
            break
    return x, it


def _value_and_residual(c: tuple, x) -> tuple[float, float]:
    """g(x) and the tangential gradient norm ||grad g - (x.grad g) x||.

    They are d111 and 3 |(d112, d113)| in the frame (x, t1, t2).
    """
    d111, d112, d113 = _in_frame(c, (x, *_tangent_bases(x)))[:3]
    return d111, 3.0 * math.hypot(d112, d113)


# Rows of a fixed rotation with no special alignment to the coordinate axes
# (the quaternion has squared norm 1.0071): the normals of the three charts.
# Every unit vector has a coordinate of size at least 1/sqrt(3) in this
# frame, so it lies in some chart with |y|, |z| <= sqrt(2), inside _WINDOW.
_CHART_FRAME = _quaternion_to_matrix(np.array([0.7, 0.41, -0.33, 0.49]) / math.sqrt(1.0071))
_WINDOW = 1.5
_CHART_POINTS = _CHART_FRAME[[[0, 1, 2], [1, 2, 0], [2, 0, 1]]]
_ROOTS_OF_UNITY = np.exp(2j * math.pi * np.arange(8) / 8)
# r(omega_s) = sum_j coef_j omega_s^j, so coef = r @ _INVERSE_DFT
_INVERSE_DFT = _ROOTS_OF_UNITY[:, None] ** -np.arange(8)[None, :] / 8.0
_COMPANION_SHIFT = np.eye(7, k=-1)


def _chart_tables() -> tuple[np.ndarray, np.ndarray]:
    """Linear maps from the seven components of D to the resultant data of each chart.

    Chart c has the point x = u0 + y u1 + z u2, with (u0, u1, u2) the rows
    of _CHART_FRAME in the order (c, c+1, c+2).  With P_m = D(u_m, x, x),
    x is stationary when g = P1 - y P0 (a quadratic in z) and
    f = z P0 - P2 (a cubic in z) both vanish.  Every coefficient in z is a
    polynomial of degree at most 3 in y, linear in D.  Returns the Sylvester
    matrices of f and g at the 8th roots of unity, (3 * 8 * 5 * 5, 7)
    complex, and the coefficients of g, (3 * 3 * 4, 7): chart, power of z,
    power of y.
    """
    # k[c, m, n, l] is the row of D(u_m, u_n, u_l) in chart c: entry (n, l)
    # of slice m of D read in the chart's frame, at each basis tensor
    basis = np.eye(7).tolist()
    frames = [[_slices(*_in_frame(b, rows)) for rows in _CHART_POINTS.tolist()] for b in basis]
    k = np.array(frames).transpose(1, 2, 3, 0)[:, :, np.array(_LAYOUT)]
    zero = np.zeros_like(k[:, :, 0, 0])
    # P_m = a_m + b_m z + c_m z^2, each as coefficients of y^0..y^3
    a = np.stack([k[:, :, 0, 0], 2.0 * k[:, :, 0, 1], k[:, :, 1, 1], zero], axis=2)
    b = np.stack([2.0 * k[:, :, 0, 2], 2.0 * k[:, :, 1, 2], zero, zero], axis=2)
    c = np.stack([k[:, :, 2, 2], zero, zero, zero], axis=2)

    def y_times(poly):  # the degree-3 slot of a, b and c is empty
        return np.roll(poly, 1, axis=1)

    g = [a[:, 1] - y_times(a[:, 0]), b[:, 1] - y_times(b[:, 0]), c[:, 1] - y_times(c[:, 0])]
    f = [-a[:, 2], a[:, 0] - b[:, 2], b[:, 0] - c[:, 2], c[:, 0]]
    sylvester = np.zeros((3, 5, 5, 4, 7))
    for shift in range(2):
        for j in range(4):
            sylvester[:, shift, shift + j] = f[3 - j]
    for shift in range(3):
        for j in range(3):
            sylvester[:, 2 + shift, shift + j] = g[2 - j]
    powers = _ROOTS_OF_UNITY[None, :] ** np.arange(4)[:, None]
    at_roots = np.einsum("cabjd,js->csabd", sylvester, powers)
    return at_roots.reshape(-1, 7), np.stack(g, axis=1).reshape(-1, 7)


_SYLVESTER_TABLE, _G_TABLE = _chart_tables()


def _stationary_candidates(c: tuple) -> np.ndarray:
    """Unit vectors near every stationary point of the cubic form of the
    unit-norm tensor with the seven components c.

    In each chart the resultant of f and g in z is a polynomial of degree
    7 in y (two of the 9 Bezout solutions sit at infinity).  It is sampled
    at the 8th roots of unity, its coefficients come back by inverse DFT,
    and its roots are the eigenvalues of the companion matrix.  Each real
    root with |y| <= 1.5 gives both roots z of the quadratic g, kept for
    |z| <= 1.5; a spurious one is harmless, as the caller polishes every
    candidate and ranks them by value.  The three eigenvectors of the
    moment matrix are added: an axially symmetric tensor has a ring of
    stationary points, its resultant vanishes identically, and its axis is
    the simple eigenvector.
    """
    d = np.array(c)
    r = np.linalg.det((_SYLVESTER_TABLE @ d).reshape(3, 8, 5, 5))
    coef = (r @ _INVERSE_DFT).real
    # a leading coefficient below 1e-14 of the largest puts a root at or
    # near infinity (a stationary point on the chart's boundary, found in
    # another chart); raising it to that size keeps the other roots in
    # place.  A resultant that is zero throughout gives junk roots at 0.
    top = 1e-14 * np.abs(coef).max(axis=1)
    lead = np.where(np.abs(coef[:, 7]) > top, coef[:, 7], top)
    lead[lead == 0.0] = 1.0
    companion = np.repeat(_COMPANION_SHIFT[None], 3, axis=0)
    companion[:, :, 6] = -coef[:, :7] / lead[:, None]
    roots = np.linalg.eigvals(companion)
    y = roots.real
    # roundoff splits a double root (two stationary points sharing y, or a
    # degenerate one) into a pair about 1e-8 off the real axis
    real = (np.abs(roots.imag) <= 1e-4) & (np.abs(y) <= _WINDOW)

    g = (y[..., None] ** np.arange(4)) @ (_G_TABLE @ d).reshape(3, 3, 4).transpose(0, 2, 1)
    g0, g1, g2 = g[..., 0], g[..., 1], g[..., 2]
    q = -0.5 * (g1 + np.copysign(np.sqrt(np.maximum(g1 * g1 - 4.0 * g0 * g2, 0.0)), g1))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.stack([q / g2, g0 / q], axis=-1)
    keep = real[..., None] & (np.abs(z) <= _WINDOW)
    chart, root, _ = np.nonzero(keep)
    e = _CHART_POINTS[chart]
    x = e[:, 0] + y[chart, root][:, None] * e[:, 1] + z[keep][:, None] * e[:, 2]
    moments = np.array(_slice_kernel(*c)[0])[np.array(_LAYOUT)]  # moment_matrix
    axes = np.linalg.eigh(moments)[1].T
    x = np.vstack([x, axes])
    return x / np.sqrt((x * x).sum(axis=1))[:, None]


def maximize_cubic_on_sphere(t: SymTraceless3 | FullTensor3) -> SphereMaximizer:
    """Find the global maximizer of the cubic form on the unit sphere.

    Every stationary point is enumerated (``_stationary_candidates``).  The
    candidates with |value| within 1e-6 of the largest (normalized tensor)
    are finished by Newton steps, one at a time, each until its first step
    below 1e-15 and at most 4; the rest cannot win, as a candidate eps
    from a stationary point is off in value by O(eps^2).  Candidates with a
    negative value are flipped to the antipode, so the result satisfies
    value >= 0.  The largest value wins, with ties (within 1e-12 on the normalized tensor)
    broken by picking the lexicographically largest unit vector.  Every
    distinct tied maximizer that meets STATIONARITY_TOL (candidates within
    1e-6 of each other count once) is returned in ``maximizers``.

    Raises ConvergenceError if no candidate within 1e-12 of the largest
    value has a stationarity residual (on the normalized tensor) within
    STATIONARITY_TOL.
    """
    frob, c = _unit_tensor(t)
    if frob == 0.0:
        return SphereMaximizer(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)

    s = _slices(*c)
    x = _stationary_candidates(c)
    # g(x) = sum_k x_k x.D_k x, with x.D_k x from the slice layout
    x1, x2, x3 = x.T
    quadratic = np.stack([x1 * x1, x2 * x2, x3 * x3, 2 * x1 * x2, 2 * x1 * x3, 2 * x2 * x3], axis=1)
    val = np.abs(((quadratic @ np.array(s).T) * x).sum(axis=1))
    finished = []  # (value, point, residual), value >= 0
    newton_iterations = 0
    for row in x[val >= val.max() - 1e-6].tolist():
        u, steps = _newton(c, row)
        newton_iterations = max(newton_iterations, steps)
        value, res = _value_and_residual(c, u)
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


def _about_e1(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


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
    _, theta, frame, (a111, a112, a113, _, _, a222, a223), d122, d123, d223 = frames[0]

    # the rest of the winning frame in closed form: a112 and a113 also
    # reach d222 and d223, through the traces
    c1, s1 = math.cos(theta), math.sin(theta)
    d112, d113 = c1 * a112 + s1 * a113, c1 * a113 - s1 * a112
    d222 = a222 * math.cos(3.0 * theta) + a223 * math.sin(3.0 * theta)
    d222 -= s1 * s1 * (3.0 * c1 * a112 + s1 * a113)
    d223 -= s1 * ((2.0 * c1 * c1 - s1 * s1) * a112 + c1 * s1 * a113)
    m = _about_e1(theta) @ frame
    det_sign = 1
    if mirror and d123 < -1e-10:
        m[1] *= -1.0  # diag(1, -1, 1) @ m, which negates d123
        det_sign, d123 = -1, -d123
    transform = OrthogonalTransform3(m, det_sign)
    params = CanonicalParams(frob * a111, frob * d122, frob * d123, frob * d223)
    diagnostics = {
        "newton_iterations": mx.newton_iterations,
        "stationarity_residual": 3.0 * frob * math.hypot(a112, a113),
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
    return frob * _value_and_residual(c, x.tolist())[1]
