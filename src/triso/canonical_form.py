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
    _full,
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
    picking the lexicographically largest unit vector.  Every distinct tied
    maximizer (starts that converged within 1e-6 of each other count once)
    is returned in ``maximizers``.  Starts with a
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
    tied = x[converged & (val >= best - 1e-12)]
    tied = tied[np.lexsort((tied[:, 2], tied[:, 1], tied[:, 0]))[::-1]]
    maximizers = []
    while len(tied):
        maximizers.append(tied[0])
        tied = tied[_row_norms(tied - tied[0]) > 1e-6]
    u = maximizers[0]

    value = cubic_form(full, u)
    grad_u = cubic_gradient(full, u)
    residual = float(np.linalg.norm(grad_u - (grad_u @ u) * u))
    return SphereMaximizer(u, value, residual, iterations, newton_iterations, maximizers)


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


def rotation_about_e1(theta: float) -> OrthogonalTransform3:
    """Proper rotation fixing e1 and mapping (0, cos theta, sin theta) to e2."""
    c, s = math.cos(theta), math.sin(theta)
    return OrthogonalTransform3(np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]]), 1)


def canonicalize(
    t: SymTraceless3, cfg: SphereOptConfig | None = None
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
    full = expand(t)
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

    transform = OrthogonalTransform3(rotation_about_e1(float(theta[i, j])).m @ frames[i], 1)
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
    lambda = x . grad g(x).
    """
    x = np.asarray(x, dtype=float).reshape(3)
    norm = np.linalg.norm(x)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"x must be a unit vector, got |x| = {norm:.17g}")
    grad = cubic_gradient(_full(t), x)
    return float(np.linalg.norm(grad - (grad @ x) * x))
