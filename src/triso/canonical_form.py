"""Rotation of a tensor into canonical position.

Every symmetric traceless tensor can be rotated so that a global maximizer
of its cubic form g(x) = D_ijk x_i x_j x_k sits at e1.  First-order
stationarity there kills d112 and d113, and d111 becomes the (nonnegative)
maximum value.  A second rotation about e1 moves a zero of the circle
restriction theta -> g(0, cos theta, sin theta) to e2, killing d222 while
leaving e1 (hence the stationarity conditions) fixed.  Four parameters
survive: (d111, d122, d123, d223).

The maximizer search is multi-start projected gradient ascent over a batch
of quasi-uniform plus seeded-random sphere starts, finished by a batched
Riemannian Newton polish.  The search runs on the unit-normalized tensor,
so step sizes and the convergence criterion are scale-free.
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
    act,
    compress,
    cubic_form,
    cubic_gradient,
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
    """No optimizer start reached the requested stationarity tolerance."""


@dataclass(frozen=True)
class SphereOptConfig:
    """Settings for the multi-start maximizer search.

    Parameters
    ----------
    starts : deterministic quasi-uniform (spiral lattice) sphere starts.
    random_starts : additional seeded random starts.
    max_iter : cap on projected-ascent iterations before the Newton polish.
    tol : stationarity tolerance, applied to the unit-normalized tensor.
    seed : seed for the random starts.
    """

    starts: int = 64
    random_starts: int = 16
    max_iter: int = 200
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be at least 1, got {self.starts}")
        if self.random_starts < 0:
            raise ValueError(f"random_starts must be nonnegative, got {self.random_starts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")


@dataclass(frozen=True)
class SphereMaximizer:
    """A stationary point of the cubic form on the unit sphere.

    value = g(u) >= 0 (the maximum of an odd function is nonnegative), and
    residual is the tangential gradient norm ||grad g - (u.grad g) u|| at u,
    measured on the input tensor, so it scales with the tensor's norm.
    iterations counts projected-ascent steps, newton_iterations the Newton
    polish steps run before every start's step fell below 1e-15.
    """

    u: np.ndarray
    value: float
    residual: float
    iterations: int = 0
    newton_iterations: int = 0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).reshape(3).copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)


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


def _full(t: SymTraceless3 | FullTensor3) -> FullTensor3:
    return expand(t) if isinstance(t, SymTraceless3) else t


def _fibonacci_sphere(n: int) -> np.ndarray:
    # spiral lattice: n points with near-uniform coverage, deterministic
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


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


def _newton_polish(d9: np.ndarray, x: np.ndarray, iters: int = 15) -> tuple[np.ndarray, int]:
    """Batched Riemannian Newton for stationary points of the cubic form.

    Solves the projected system P(H - lambda I)P dx = -P grad in a 2d
    tangent basis; near-singular tangent Hessians fall back to a damped
    gradient step.  Step length is capped so iterates stay in their basin.
    Stops once every start's step is below 1e-15; returns the points and
    the iterations run.
    """
    it = 0
    for it in range(1, iters + 1):
        grad = 3.0 * _contract(d9, x, x)
        lam = (grad * x).sum(axis=1, keepdims=True)
        t1, t2 = _tangent_bases(x)
        # tangent Hessian products; H_ij = 6 d_ijk x_k
        ht1 = 6.0 * _contract(d9, x, t1) - lam * t1
        ht2 = 6.0 * _contract(d9, x, t2) - lam * t2
        a00 = (t1 * ht1).sum(axis=1)
        a01 = (t1 * ht2).sum(axis=1)
        a11 = (t2 * ht2).sum(axis=1)
        b0 = -(grad * t1).sum(axis=1)
        b1 = -(grad * t2).sum(axis=1)
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


def maximize_cubic_on_sphere(
    t: SymTraceless3 | FullTensor3, cfg: SphereOptConfig | None = None
) -> SphereMaximizer:
    """Find the global maximizer of the cubic form on the unit sphere.

    Multi-start local ascent; the best stationary value over all starts is
    returned, with ties (within 1e-12 on the normalized tensor) broken by
    picking the lexicographically largest unit vector.  Starts with a
    negative value are flipped to the antipode first, so every ascent path
    carries a nonnegative value and the result satisfies value >= 0.

    Raises ConvergenceError if no start reaches the stationarity tolerance.
    """
    cfg = cfg or SphereOptConfig()
    full = _full(t)
    frob = full.frobenius()
    if frob == 0.0:
        return SphereMaximizer(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)
    d9 = (full.entries / frob).reshape(3, 9).T

    x = _fibonacci_sphere(cfg.starts)
    if cfg.random_starts:
        rng = np.random.default_rng(cfg.seed)
        extra = rng.normal(size=(cfg.random_starts, 3))
        x = np.vstack([x, _unit_rows(extra)])
    # p holds D_ijk x_j x_k for the current x: gradient 3p, value p.x
    p = _contract(d9, x, x)
    val = (p * x).sum(axis=1)
    flip = val < 0.0
    x[flip] *= -1.0
    val[flip] *= -1.0

    step = np.full(len(x), 0.1)
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        grad = 3.0 * p
        tang = grad - (grad * x).sum(axis=1, keepdims=True) * x
        if _row_norms(tang).max() <= 1e-6:
            break
        trial = _unit_rows(x + step[:, None] * tang)
        trial_p = _contract(d9, trial, trial)
        trial_val = (trial_p * trial).sum(axis=1)
        ok = trial_val >= val
        np.copyto(x, trial, where=ok[:, None])
        np.copyto(p, trial_p, where=ok[:, None])
        np.copyto(val, trial_val, where=ok)
        step = np.where(ok, step * 1.2, step * 0.5)

    x, newton_iterations = _newton_polish(d9, x)
    p = _contract(d9, x, x)
    val = (p * x).sum(axis=1)
    grad = 3.0 * p
    res = _row_norms(grad - (grad * x).sum(axis=1, keepdims=True) * x)

    converged = res <= cfg.tol
    if not converged.any():
        raise ConvergenceError(
            f"no start reached stationarity tolerance {cfg.tol:.3g}; "
            f"best residual {res.min():.3g} (normalized tensor)"
        )
    best = val[converged].max()
    tied = converged & (val >= best - 1e-12)
    candidates = x[tied]
    order = np.lexsort((candidates[:, 2], candidates[:, 1], candidates[:, 0]))
    u = candidates[order[-1]]

    value = cubic_form(full, u)
    grad_u = cubic_gradient(full, u)
    residual = float(np.linalg.norm(grad_u - (grad_u @ u) * u))
    return SphereMaximizer(u, value, residual, iterations, newton_iterations)


def rotation_to_e1(u) -> OrthogonalTransform3:
    """Proper rotation whose first row is u, so that R u = e1.

    Acting with R on a tensor whose cubic form peaks at u moves the peak to
    e1.  For u = e1 the identity is returned.
    """
    u = np.asarray(u, dtype=float).reshape(3)
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"u must be a unit vector, got |u| = {norm:.17g}")
    u = u / norm
    # the first axis within roundoff of the smallest |u_i|, so that a u off
    # an axis by 1e-34 picks the same frame as the axis itself
    size = np.abs(u)
    helper = np.zeros(3)
    helper[np.argmax(size <= size.min() + 1e-12)] = 1.0
    r2 = helper - (helper @ u) * u
    r2 /= np.linalg.norm(r2)
    r3 = np.cross(u, r2)
    return OrthogonalTransform3(np.vstack([u, r2, r3]), 1)


def circle_zero_angle(t: SymTraceless3 | FullTensor3) -> float:
    """Smallest angle in [0, pi) where the circle restriction vanishes.

    The restriction h(theta) = g(0, cos theta, sin theta) is odd under
    theta -> theta + pi, so it has a zero in [0, pi); the smallest one is
    located by a sign-change scan over a fine grid followed by bisection.
    Expects a tensor already aligned so that |d112|, |d113| are negligible
    (the result is a valid zero either way).  If the restriction vanishes
    identically, returns 0.
    """
    full = _full(t)
    arr = full.entries
    # h(theta) = g(0, c, s) is a cubic in c = cos theta and s = sin theta
    c3, c2s, cs2, s3 = arr[1, 1, 1], 3.0 * arr[1, 1, 2], 3.0 * arr[1, 2, 2], arr[2, 2, 2]

    def restriction(c, s):
        return ((c3 * c + c2s * s) * c + cs2 * s * s) * c + s3 * s * s * s

    def h(theta):
        return float(restriction(math.cos(theta), math.sin(theta)))

    n = 256
    grid = np.linspace(0.0, math.pi, n + 1)
    values = restriction(np.cos(grid), np.sin(grid))

    tiny = 1e-13 * full.frobenius()
    if np.max(np.abs(values)) <= tiny:
        return 0.0
    near_zero = np.abs(values) <= tiny
    # signs, not products, which underflow for tensors below about 1e-154
    flips = np.sign(values[:-1]) * np.sign(values[1:]) < 0.0
    first_zero = np.argmax(near_zero) if near_zero.any() else n + 1
    first_flip = np.argmax(flips) if flips.any() else n + 1
    if first_zero <= first_flip:
        theta = grid[first_zero]
        return float(theta % math.pi)

    lo, hi = grid[first_flip], grid[first_flip + 1]
    f_lo = values[first_flip]
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        f_mid = h(mid)
        if f_mid == 0.0:
            return float(mid % math.pi)
        if (f_lo > 0) == (f_mid > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    theta = lo if abs(h(lo)) <= abs(h(hi)) else hi
    return float(theta % math.pi)


def rotation_about_e1(theta: float) -> OrthogonalTransform3:
    """Proper rotation fixing e1 and mapping (0, cos theta, sin theta) to e2."""
    c, s = math.cos(theta), math.sin(theta)
    return OrthogonalTransform3(np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]]), 1)


def canonicalize(
    t: SymTraceless3, cfg: SphereOptConfig | None = None
) -> CanonicalResult:
    """Rotate a tensor into canonical position.

    The transform is rotation_about_e1(theta0) composed after
    rotation_to_e1(u); the second stage fixes e1, so the stationarity won by
    the first stage (d112 = d113 = 0) survives.  The zero tensor
    short-circuits to the identity.
    """
    cfg = cfg or SphereOptConfig()
    full = expand(t)
    if full.frobenius() == 0.0:
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

    mx = maximize_cubic_on_sphere(t, cfg)
    r1 = rotation_to_e1(mx.u)
    aligned = act(r1, full)
    theta0 = circle_zero_angle(aligned)
    r2 = rotation_about_e1(theta0)
    transform = r2.compose(r1)
    rotated = act(r2, aligned)
    out = compress(rotated)
    params = CanonicalParams(out.d111, out.d122, out.d123, out.d223)
    diagnostics = {
        "ascent_iterations": mx.iterations,
        "newton_iterations": mx.newton_iterations,
        "stationarity_residual": mx.residual,
        "circle_residual": abs(out.d222),
        "constraint_violation": max(abs(out.d112), abs(out.d113), abs(out.d222)),
    }
    return CanonicalResult(params, transform, mx.value, diagnostics)


def stationarity_residual(t: SymTraceless3 | FullTensor3, x) -> float:
    """Distance of x from being a stationary point of the cubic form.

    Returns min over lambda of ||grad g(x) - lambda x||, attained at
    lambda = x . grad g(x).
    """
    x = np.asarray(x, dtype=float).reshape(3)
    norm = np.linalg.norm(x)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"x must be a unit vector, got |x| = {norm:.17g}")
    grad = cubic_gradient(_full(t), x)
    return float(np.linalg.norm(grad - (grad @ x) * x))
