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
function of the SO(3) orbit.

The maximizer is solved for, not searched for.  A stationary point of the
cubic form on the sphere is a Z-eigenvector of D, and a 3x3x3 symmetric
tensor has at most 7 pairs of them.  In each of three coordinate charts of
a fixed generic frame they are the real roots of a degree-7 resultant;
those roots, plus the eigenvectors of the moment matrix (which catch the
axis of an axially symmetric tensor, whose resultant vanishes), are the
candidates.  Only those whose value is within 1e-6 of the largest can win;
they are finished by Riemannian Newton steps, and the largest value wins.
All of it runs on the unit-normalized tensor, so it is scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

__all__ = [
    "SphereOptConfig",
    "SphereMaximizer",
    "CanonicalResult",
    "ConvergenceError",
    "maximize_cubic_on_sphere",
    "rotation_to_e1",
    "circle_zero_angle",
    "rotation_about_e1",
    "canonicalize",
    "stationarity_residual",
]


class ConvergenceError(RuntimeError):
    """The maximizer misses the requested stationarity tolerance."""


@dataclass(frozen=True)
class SphereOptConfig:
    """Settings for the maximizer solve.

    Parameters
    ----------
    tol : stationarity tolerance for the returned maximizer, applied to the
        unit-normalized tensor.
    """

    tol: float = 1e-12

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")


@dataclass(frozen=True)
class SphereMaximizer:
    """A stationary point of the cubic form on the unit sphere.

    value = g(u) >= 0 (the maximum of an odd function is nonnegative), and
    residual is the tangential gradient norm ||grad g - (u.grad g) u|| at u.
    Both are computed on the unit-normalized tensor and multiplied by its
    norm, so they scale with the tensor and stay finite at any finite norm.
    iterations is 0, as no ascent runs; newton_iterations counts the Newton
    steps run on the candidates near the top value before each of their
    steps fell below 1e-15 (at most 4).
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


def _row_norms(x: np.ndarray) -> np.ndarray:
    # np.linalg.norm(x, axis=1) without its dispatch overhead
    return np.sqrt((x * x).sum(axis=1))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / _row_norms(x)[:, None]


def _contract(d9: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows D_ijk x_j y_k for (s, 3) batches x, y, with d9 = D.reshape(3, 9).T.

    One matmul of the (s, 9) outer products with d9: x, x gives the cubic
    form's value (row dot x) and gradient (times 3), x, t the tangent
    Hessian product H t / 6.  Unlike einsum it plans no contraction path.
    """
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), 9) @ d9


def _tangent_bases(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent pairs (t1, t2) for a batch of unit vectors."""
    rows = np.arange(len(x))
    axis = np.argmin(np.abs(x), axis=1)
    t1 = -x[rows, axis][:, None] * x
    t1[rows, axis] += 1.0
    t1 = _unit_rows(t1)
    # t2 = x cross t1
    t2 = x[:, [1, 2, 0]] * t1[:, [2, 0, 1]] - x[:, [2, 0, 1]] * t1[:, [1, 2, 0]]
    return t1, t2


def _newton_polish(d9: np.ndarray, x: np.ndarray, iters: int) -> tuple[np.ndarray, int]:
    """Batched Riemannian Newton for stationary points of the cubic form.

    Solves the projected system P(H - lambda I)P dx = -P grad in a 2d
    tangent basis; near-singular tangent Hessians fall back to a damped
    gradient step.  Step length is capped so iterates stay in their basin.
    Stops once every point's step is below 1e-15; returns the points and
    the iterations run.
    """
    it = 0
    n = len(x)
    for it in range(1, iters + 1):
        t1, t2 = _tangent_bases(x)
        basis = np.stack([t1, t2], axis=1)
        # one matmul gives the gradient / 3 and the Hessian products
        # H t / 6 for t = t1, t2, with H_ij = 6 d_ijk x_k
        p = _contract(d9, np.vstack([x, x, x]), np.vstack([x, t1, t2])).reshape(3, n, 3)
        grad = 3.0 * p[0]
        lam = (grad * x).sum(axis=1)
        ht = 6.0 * p[1:].transpose(1, 0, 2) - lam[:, None, None] * basis
        a = basis @ ht.transpose(0, 2, 1)  # a[:, i, j] = t_i . (H - lam) t_j
        b0, b1 = -(basis @ grad[:, :, None])[:, :, 0].T
        a00, a01, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
        det = a00 * a11 - a01 * a01
        safe = np.abs(det) > 1e-14 * (1.0 + a00 * a00 + a01 * a01 + a11 * a11)
        z0 = np.where(safe, (a11 * b0 - a01 * b1) / np.where(safe, det, 1.0), 0.2 * b0)
        z1 = np.where(safe, (a00 * b1 - a01 * b0) / np.where(safe, det, 1.0), 0.2 * b1)
        step_norm = np.hypot(z0, z1)
        cap = np.minimum(1.0, 0.3 / np.maximum(step_norm, 1e-300))
        x = _unit_rows(x + (cap * z0)[:, None] * t1 + (cap * z1)[:, None] * t2)
        if np.all(cap * step_norm < 1e-15):
            break
    return x, it


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
    return _unit_rows(np.vstack([x, axes]))


def maximize_cubic_on_sphere(
    t: SymTraceless3 | FullTensor3, cfg: SphereOptConfig | None = None
) -> SphereMaximizer:
    """Find the global maximizer of the cubic form on the unit sphere.

    Every stationary point is enumerated (``_stationary_candidates``).  The
    candidates with |value| within 1e-6 of the largest (normalized tensor)
    are finished by Newton steps, at most 4 and until every step is below
    1e-15; the rest cannot win, as a candidate eps from a stationary point
    is off in value by O(eps^2).  Candidates with a negative value are
    flipped to the antipode, so the result satisfies value >= 0.  The
    largest value wins, with ties (within 1e-12 on the normalized tensor)
    broken by picking the lexicographically largest unit vector.  Every
    distinct tied maximizer that meets the tolerance (candidates within
    1e-6 of each other count once) is returned in ``maximizers``.

    Raises ConvergenceError if no candidate within 1e-12 of the largest
    value has a stationarity residual (on the normalized tensor) within
    ``cfg.tol``.
    """
    cfg = cfg or SphereOptConfig()
    full = _full(t)
    frob = full.frobenius()
    if frob == 0.0:
        return SphereMaximizer(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)
    d9 = (full.entries / frob).reshape(3, 9).T

    x = _stationary_candidates(d9)
    val = np.abs((_contract(d9, x, x) * x).sum(axis=1))
    x, newton_iterations = _newton_polish(d9, x[val >= val.max() - 1e-6], iters=4)
    p = _contract(d9, x, x)
    val = (p * x).sum(axis=1)
    grad = 3.0 * p
    res = _row_norms(grad - (grad * x).sum(axis=1, keepdims=True) * x)
    flip = val < 0.0
    x[flip] *= -1.0
    val[flip] *= -1.0

    # candidates still converging onto the maximizer share its value, so
    # the tolerance is judged on the best of those within 1e-12 of it
    near = val >= val.max() - 1e-12
    tied = np.flatnonzero(near & (res <= cfg.tol))
    if not len(tied):
        raise ConvergenceError(
            f"the maximizer misses stationarity tolerance {cfg.tol:.3g}; "
            f"residual {res[near].min():.3g} (normalized tensor)"
        )
    tied = tied[np.lexsort((x[tied, 2], x[tied, 1], x[tied, 0]))[::-1]]
    maximizers = []
    while len(tied):
        maximizers.append(tied[0])
        tied = tied[_row_norms(x[tied] - x[tied[0]]) > 1e-6]
    best = maximizers[0]
    return SphereMaximizer(
        x[best],
        frob * float(val[best]),
        frob * float(res[best]),
        newton_iterations=newton_iterations,
        maximizers=x[maximizers],
    )


def rotation_to_e1(u) -> OrthogonalTransform3:
    """Proper rotation whose first row is u, so that R u = e1.

    Acting with R on a tensor whose cubic form peaks at u moves the peak to
    e1.  The other rows are the tangent basis of ``_tangent_bases``, built
    from the axis of the smallest |u_i|; for u = e1 the identity is
    returned.
    """
    u = np.asarray(u, dtype=float).reshape(3)
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"u must be a unit vector, got |u| = {norm:.17g}")
    u = u / norm
    t1, t2 = _tangent_bases(u[None])
    return OrthogonalTransform3(np.vstack([u, t1, t2]), 1)


def circle_zero_angle(t: SymTraceless3 | FullTensor3) -> float:
    """Smallest angle in [0, pi) where the circle restriction vanishes.

    The restriction h(theta) = g(0, cos theta, sin theta) is a cubic form in
    (cos theta, sin theta), odd under theta -> theta + pi, so it has a zero
    in [0, pi).  Its zeros are the real roots of the cubic in tan theta, or
    in cot theta when the sin^3 coefficient is the smaller of the two end
    coefficients.  Returns 0 when h(0) is within 1e-13 ||T|| of zero, which
    covers a restriction that vanishes identically.
    """
    full = _full(t)
    arr = full.entries
    c3, c2s, cs2, s3 = arr[1, 1, 1], 3.0 * arr[1, 1, 2], 3.0 * arr[1, 2, 2], arr[2, 2, 2]
    if abs(c3) <= 1e-13 * full.frobenius():
        return 0.0
    if abs(s3) >= abs(c3):
        # h / cos^3 = s3 t^3 + cs2 t^2 + c2s t + c3 with t = tan theta
        roots = np.roots([s3, cs2, c2s, c3])
        angles = np.arctan(roots.real) % math.pi
    else:
        # h / sin^3 = c3 t^3 + c2s t^2 + cs2 t + s3 with t = cot theta
        roots = np.roots([c3, c2s, cs2, s3])
        angles = np.arctan2(1.0, roots.real)
    # a cubic has a root with imaginary part exactly 0; near-double roots
    # come back as pairs with tiny imaginary parts
    real = np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))
    return float(angles[real].min())


def _about_e1(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rotation_about_e1(theta: float) -> OrthogonalTransform3:
    """Proper rotation fixing e1 and mapping (0, cos theta, sin theta) to e2."""
    return OrthogonalTransform3(_about_e1(theta), 1)


def canonicalize(
    t: SymTraceless3 | FullTensor3, cfg: SphereOptConfig | None = None
) -> CanonicalResult:
    """Rotate a tensor into canonical position.

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

    The transform is rotation_about_e1(theta) composed after
    rotation_to_e1(u) for the winner.  The zero tensor short-circuits to
    the identity.
    """
    cfg = cfg or SphereOptConfig()
    # _full's rule, with expand called through this module's name so that
    # perfbench's tracing, which rebinds that name, still sees the call
    full = expand(t) if isinstance(t, SymTraceless3) else t
    frob = full.frobenius()
    if frob == 0.0:
        return CanonicalResult(
            CanonicalParams(0.0, 0.0, 0.0, 0.0),
            OrthogonalTransform3.identity(),
            0.0,
            {
                "ascent_iterations": 0,
                "newton_iterations": 0,
                "stationarity_residual": 0.0,
                "circle_residual": 0.0,
                "constraint_violation": 0.0,
            },
        )

    mx = maximize_cubic_on_sphere(full, cfg)
    u = mx.maximizers
    t1, t2 = _tangent_bases(u)
    frames = np.stack([u, t1, t2], axis=1)
    # D_ijk x_j y_k of the unit-norm tensor for (x, y) = (u, u), (u, t1),
    # (t1, t1), then the index i taken in the frame of the same maximizer
    d9 = (full.entries / frob).reshape(3, 9).T
    p = _contract(d9, np.vstack([u, u, t1]), np.vstack([u, t1, t1])).reshape(3, len(u), 1, 3)
    comps = (p @ frames.transpose(0, 2, 1))[:, :, 0, :]
    a111, a112, a113 = comps[0].T
    b22, b23 = comps[1, :, 1:].T
    a222, a223 = comps[2, :, 1:].T
    half_gap = 0.5 * (2.0 * b22 + a111)[:, None]  # (d122 - d133) / 2, as d133 = -d111 - d122

    # zeros of h: 3 theta = atan2(a223, a222) + pi/2 + j pi
    theta = (np.arctan2(a223, a222)[:, None] + math.pi * (0.5 + np.arange(6))) / 3.0
    flat = np.hypot(a222, a223) <= 1e-13
    theta[flat] = 0.5 * np.arctan2(b23[flat, None], half_gap[flat])
    c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
    d122 = -0.5 * a111[:, None] + half_gap * c2 + b23[:, None] * s2
    d123 = b23[:, None] * c2 - half_gap * s2
    d223 = a223[:, None] * np.cos(3.0 * theta) - a222[:, None] * np.sin(3.0 * theta)
    keep = np.ones(theta.shape, dtype=bool)
    for key in (d122, d123, d223):
        keep &= key >= key[keep].max() - 1e-10
    i, j = np.unravel_index(np.argmax(keep), keep.shape)

    transform = OrthogonalTransform3(_about_e1(float(theta[i, j])) @ frames[i], 1)
    out = compress(act(transform, full))
    params = CanonicalParams(out.d111, out.d122, out.d123, out.d223)
    diagnostics = {
        "ascent_iterations": mx.iterations,
        "newton_iterations": mx.newton_iterations,
        "stationarity_residual": 3.0 * frob * float(np.hypot(a112[i], a113[i])),
        "circle_residual": abs(out.d222),
        "constraint_violation": max(abs(out.d112), abs(out.d113), abs(out.d222)),
    }
    return CanonicalResult(params, transform, frob * float(a111[i]), diagnostics)


def stationarity_residual(t: SymTraceless3 | FullTensor3, x) -> float:
    """Distance of x from being a stationary point of the cubic form.

    Returns min over lambda of ||grad g(x) - lambda x||, attained at
    lambda = x . grad g(x), computed on the unit-normalized tensor and
    scaled back by its norm.
    """
    x = np.asarray(x, dtype=float).reshape(1, 3)
    norm = np.linalg.norm(x)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"x must be a unit vector, got |x| = {norm:.17g}")
    # on the unit-norm tensor, so squaring the residual cannot overflow
    full = _full(t)
    frob = full.frobenius()
    if frob == 0.0:
        return 0.0
    grad = 3.0 * _contract((full.entries / frob).reshape(3, 9).T, x, x)
    return frob * float(_row_norms(grad - (grad * x).sum() * x)[0])
