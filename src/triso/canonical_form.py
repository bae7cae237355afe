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
All of it runs on the unit-normalized tensor, so it is scale-free.

The candidate solve is the one batched stage (stacked 5x5 determinants,
companion eigenvalues, the moment matrix's eigenvectors).  What follows it,
the Newton finish of the one to four candidates that can win and the
scoring of the frames they give, works on Python floats one candidate at a
time: on arrays of so few rows numpy's per-call cost outweighs the
arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .components import GROUPS, ConvergenceError
from .invariants import CanonicalParams
from .tensor_core import (
    FullTensor3,
    OrthogonalTransform3,
    SymTraceless3,
    _full,
    _quaternion_to_matrix,
    act,
    compress,
    expand,
)

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

    ``act(transform, original)`` has |d112|, |d113|, |d222| at roundoff
    level, d111 = max_value >= 0, and the same invariant tuple as the
    input; ``params`` holds its four surviving components.  ``diagnostics``
    records iteration counts and residuals of the two rotation stages.
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


@functools.lru_cache(maxsize=1)
def _normalized(full: FullTensor3) -> tuple[float, np.ndarray | None, list | None]:
    """The Frobenius norm, and the unit-norm tensor as d9 = D.reshape(3, 9).T
    and as nested lists; (0.0, None, None) for the zero tensor.

    Cached for the last tensor (FullTensor3 hashes by identity), so that
    ``canonicalize`` and the maximizer it calls normalize once between them.
    """
    frob = full.frobenius()
    if frob == 0.0:
        return 0.0, None, None
    unit = full.entries / frob
    return frob, unit.reshape(3, 9).T, unit.tolist()


def _contract(d9: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows D_ijk x_j y_k for (s, 3) batches x, y, with d9 = D.reshape(3, 9).T.

    One matmul of the (s, 9) outer products with d9: x, x gives the cubic
    form's value (row dot x) and gradient (times 3).  Unlike einsum it
    plans no contraction path.
    """
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), 9) @ d9


# Kernels on single 3-vectors held as Python floats, for the work that
# follows the candidate solve.


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _times(m, x) -> list:
    """m x for a 3x3 matrix m given as rows."""
    x0, x1, x2 = x
    return [r[0] * x0 + r[1] * x1 + r[2] * x2 for r in m]


def _slice(d: list, x) -> list:
    """The matrix D_ijk x_k of a tensor d given as nested lists.

    D(x) x is the cubic form's gradient / 3, and D(x) the Hessian / 6.
    """
    return [_times(plane, x) for plane in d]


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


def _newton(d: list, x: list) -> tuple[list, int]:
    """Riemannian Newton steps from x toward a stationary point of the cubic form.

    Solves the projected system P(H - lambda I)P dx = -P grad in the 2d
    tangent basis; a near-singular tangent Hessian falls back to a damped
    gradient step.  Step length is capped so the iterate stays in its
    basin.  Stops after the first step below 1e-15, or after 4; returns
    the point and the steps run.
    """
    for it in range(1, 5):
        t1, t2 = _tangent_bases(x)
        h = _slice(d, x)  # H / 6, with H_ij = 6 d_ijk x_k
        g = _times(h, x)  # grad / 3
        lam = 3.0 * _dot(g, x)
        h2 = _times(h, t2)
        a00 = 6.0 * _dot(t1, _times(h, t1)) - lam
        a01 = 6.0 * _dot(t1, h2)
        a11 = 6.0 * _dot(t2, h2) - lam
        b0, b1 = -3.0 * _dot(t1, g), -3.0 * _dot(t2, g)
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


def _value_and_residual(d: list, x) -> tuple[float, float]:
    """g(x) and the tangential gradient norm ||grad g - (x.grad g) x||."""
    p = _times(_slice(d, x), x)
    grad = [3.0 * v for v in p]
    lam = _dot(grad, x)
    r = [grad[k] - lam * x[k] for k in range(3)]
    return _dot(p, x), math.sqrt(_dot(r, r))


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
    """Linear maps from the 27 entries of D to the resultant data of each chart.

    Chart c has the point x = u0 + y u1 + z u2, with (u0, u1, u2) the rows
    of _CHART_FRAME in the order (c, c+1, c+2).  With P_m = D(u_m, x, x),
    x is stationary when g = P1 - y P0 (a quadratic in z) and
    f = z P0 - P2 (a cubic in z) both vanish.  Every coefficient in z is a
    polynomial of degree at most 3 in y, linear in D.  Returns the Sylvester
    matrices of f and g at the 8th roots of unity, (3 * 8 * 5 * 5, 27)
    complex, and the coefficients of g, (3 * 3 * 4, 27): chart, power of z,
    power of y.
    """
    e = _CHART_POINTS
    # k[c, m, n, l] is the row of D(u_m, u_n, u_l) in chart c
    k = np.einsum("cmi,cnj,clk->cmnlijk", e, e, e).reshape(3, 3, 3, 3, 27)
    zero = np.zeros_like(k[:, :, 0, 0])
    # P_m = a_m + b_m z + c_m z^2, each as coefficients of y^0..y^3
    a = np.stack([k[:, :, 0, 0], 2.0 * k[:, :, 0, 1], k[:, :, 1, 1], zero], axis=2)
    b = np.stack([2.0 * k[:, :, 0, 2], 2.0 * k[:, :, 1, 2], zero, zero], axis=2)
    c = np.stack([k[:, :, 2, 2], zero, zero, zero], axis=2)

    def y_times(poly):  # the degree-3 slot of a, b and c is empty
        return np.roll(poly, 1, axis=1)

    g = [a[:, 1] - y_times(a[:, 0]), b[:, 1] - y_times(b[:, 0]), c[:, 1] - y_times(c[:, 0])]
    f = [-a[:, 2], a[:, 0] - b[:, 2], b[:, 0] - c[:, 2], c[:, 0]]
    sylvester = np.zeros((3, 5, 5, 4, 27))
    for shift in range(2):
        for j in range(4):
            sylvester[:, shift, shift + j] = f[3 - j]
    for shift in range(3):
        for j in range(3):
            sylvester[:, 2 + shift, shift + j] = g[2 - j]
    powers = _ROOTS_OF_UNITY[None, :] ** np.arange(4)[:, None]
    at_roots = np.einsum("cabjd,js->csabd", sylvester, powers)
    return at_roots.reshape(-1, 27), np.stack(g, axis=1).reshape(-1, 27)


_SYLVESTER_TABLE, _G_TABLE = _chart_tables()


def _stationary_candidates(d9: np.ndarray) -> np.ndarray:
    """Unit vectors near every stationary point of the unit-norm cubic form.

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
    d = d9.T.ravel()
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
    axes = np.linalg.eigh(d9.T @ d9)[1].T  # moment_matrix of the unit-norm tensor
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
    frob, d9, d = _normalized(_full(t))
    if frob == 0.0:
        return SphereMaximizer(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)

    x = _stationary_candidates(d9)
    val = np.abs((_contract(d9, x, x) * x).sum(axis=1))
    finished = []  # (value, point, residual), value >= 0
    newton_iterations = 0
    for row in x[val >= val.max() - 1e-6].tolist():
        u, steps = _newton(d, row)
        newton_iterations = max(newton_iterations, steps)
        value, res = _value_and_residual(d, u)
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

    The transform is the rotation about e1 by theta composed after the
    winner's frame.  For ``group="O(3)"`` the rule ranks |d123| in place of
    d123, and a winner with d123 < -1e-10 ||T|| is mirrored across x2 = 0:
    the reflection diag(1, -1, 1) keeps the canonical constraints and
    negates only d123, so the params are a function of the O(3) orbit.
    Ties left after d223 go to the larger d123, so a tensor with a mirror
    symmetry (whose candidates come in pairs +-d123) keeps a rotation: the
    transform is improper only for a chiral tensor.  The zero tensor
    short-circuits to the identity.  Raises ConvergenceError when the
    maximizer misses STATIONARITY_TOL (``maximize_cubic_on_sphere``).
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
    # _full's rule, with expand called through this module's name so that
    # perfbench's tracing, which rebinds that name, still sees the call
    full = expand(t) if isinstance(t, SymTraceless3) else t
    frob, _, d = _normalized(full)
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

    mx = maximize_cubic_on_sphere(full)
    mirror = group == "O(3)"
    frames = []  # (ranking keys, theta, frame, d123, a111, a112, a113)
    for u in mx.maximizers.tolist():
        t1, t2 = _tangent_bases(u)
        # D_ijk x_j y_k of the unit-norm tensor for (x, y) = (u, u), (u, t1),
        # (t1, t1), taken in the frame (u, t1, t2)
        p = _times(_slice(d, u), u)
        dt1 = _slice(d, t1)
        q, r = _times(dt1, u), _times(dt1, t1)
        a111, a112, a113 = _dot(p, u), _dot(p, t1), _dot(p, t2)
        b22, b23 = _dot(q, t1), _dot(q, t2)
        a222, a223 = _dot(r, t1), _dot(r, t2)
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
            frames.append((keys, theta, (u, t1, t2), d123, a111, a112, a113))
    for k in range(len(frames[0][0])):
        top = max(f[0][k] for f in frames)
        frames = [f for f in frames if f[0][k] >= top - 1e-10]
    _, theta, frame, d123, a111, a112, a113 = frames[0]

    m = _about_e1(theta) @ frame
    det_sign = 1
    if mirror and d123 < -1e-10:
        m[1] *= -1.0  # diag(1, -1, 1) @ m
        det_sign = -1
    transform = OrthogonalTransform3(m, det_sign)
    out = compress(act(transform, full))
    params = CanonicalParams(out.d111, out.d122, out.d123, out.d223)
    diagnostics = {
        "newton_iterations": mx.newton_iterations,
        "stationarity_residual": 3.0 * frob * math.hypot(a112, a113),
        "circle_residual": abs(out.d222),
        "constraint_violation": max(abs(out.d112), abs(out.d113), abs(out.d222)),
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
    frob, _, d = _normalized(_full(t))
    if frob == 0.0:
        return 0.0
    return frob * _value_and_residual(d, x.tolist())[1]
