"""Orbit membership, decided two independent ways.

Fast path: two tensors lie on the same orthogonal-group orbit exactly when
their four invariants agree, so comparing degree-normalized invariant
tuples decides membership in O(1).  Brute-force path: directly search the
group for a g minimizing ||act(g, a) - b||, via multi-start ascent over
unit quaternions (the smooth double cover of the rotations) finished with a
Levenberg-Marquardt polish.  The two paths cross-validate each other: the
fast path's verdicts are only trustworthy because the brute-force oracle
keeps agreeing with them.

The improper half of O(3) needs no separate machinery: in odd dimension
-identity has determinant -1, so every improper g is (-R) for a rotation R
and aligning a to b improperly is aligning a to -b properly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical_form import _unit_rows
from .invariants import InvariantTuple, relative_error, smith_bao
from .tensor_core import (
    FullTensor3,
    OrthogonalTransform3,
    SymTraceless3,
    _quaternion_to_matrix,
    expand,
)

__all__ = [
    "AlignmentConfig",
    "AlignmentResult",
    "best_alignment",
    "degree_normalized_invariants",
    "invariant_distance",
    "same_orbit",
]

GROUPS = ("SO(3)", "O(3)")


@dataclass(frozen=True)
class AlignmentConfig:
    """Settings for the alignment search.

    starts counts quaternion seeds per rotation branch (the identity plus
    starts - 1 random ones); tol is the convergence tolerance handed to the
    final least-squares polish.
    """

    starts: int = 128
    max_iter: int = 100
    tol: float = 1e-12
    seed: int = 0
    polish_top: int = 4

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be at least 1, got {self.starts}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.polish_top < 1:
            raise ValueError(f"polish_top must be at least 1, got {self.polish_top}")


@dataclass(frozen=True)
class AlignmentResult:
    """Best group element found and the Frobenius distance it achieves."""

    best_transform: OrthogonalTransform3
    residual: float
    group: str
    starts_used: int


def _quat_rotations(q: np.ndarray) -> np.ndarray:
    """Rotation matrices for a batch of unit quaternions, shape (s, 3, 3)."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=1,
    )


def _quat_partials(q: np.ndarray) -> np.ndarray:
    """dR/dq of the unit-quaternion formula, shape (s, 4, 3, 3).

    Partials of the rotation-matrix entries treating the four quaternion
    components as free; composing with the tangential projection at |q| = 1
    gives the derivative of R(q/|q|).
    """
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    o = np.zeros_like(w)

    def mat(rows):
        return np.stack([np.stack(r, -1) for r in rows], axis=1)

    dw = mat([[o, -z, y], [z, o, -x], [-y, x, o]])
    dx = mat([[o, y, z], [y, -2 * x, -w], [z, w, -2 * x]])
    dy = mat([[-2 * y, x, w], [x, o, z], [-w, z, -2 * y]])
    dz = mat([[-2 * z, -w, x], [w, -2 * z, y], [x, y, o]])
    return 2.0 * np.stack([dw, dx, dy, dz], axis=1)


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first call.

    Importing scipy.optimize costs several times as much as the rest of
    ``import triso``, and only the alignment polish needs it.
    """
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


def _apply_batch(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """act over a batch of rotations: (s,3,3) x (3,3,3) -> (s,3,3,3)."""
    return np.einsum("sja,skb,slc,abc->sjkl", r, r, r, a, optimize=True)


def _align_rotations(a: np.ndarray, b: np.ndarray, cfg: AlignmentConfig):
    """Best proper rotation taking tensor array a toward b.

    Maximizes the correlation <act(R, a), b> = sum_pq W_pq R_pq where
    W_pq = b_pkl R_kb R_lc a_qbc; its gradient in R is 3W by the symmetry
    of both tensors, pulled back to quaternion space with the analytic
    partials and projected to the unit sphere.  The top candidates then get
    a least-squares polish on the true residual vector act(R, a) - b, which
    is free of the cancellation the correlation-based objective suffers
    when the optimum residual is at roundoff level.

    Returns (rotation matrix, residual).
    """
    norm_a = float(np.sqrt(np.einsum("ijk,ijk->", a, a)))
    norm_b = float(np.sqrt(np.einsum("ijk,ijk->", b, b)))
    if norm_a == 0.0 or norm_b == 0.0:
        # act(R, 0) = 0 for every R, so every rotation is equally good
        return np.eye(3), max(norm_a, norm_b)
    an = a / norm_a
    bn = b / norm_b

    rng = np.random.default_rng(cfg.seed)
    q = np.empty((cfg.starts, 4))
    q[0] = (1.0, 0.0, 0.0, 0.0)
    if cfg.starts > 1:
        q[1:] = _unit_rows(rng.normal(size=(cfg.starts - 1, 4)))

    # contraction path depends only on shapes; computing it once per batch
    # size saves it being rediscovered every iteration
    paths = {}

    def correlation(qbatch):
        r = _quat_rotations(qbatch)
        key = len(qbatch)
        if key not in paths:
            paths[key] = np.einsum_path(
                "qkl,skb,slc,dbc->sqd", bn, r, r, an, optimize="optimal"
            )[0]
        w = np.einsum("qkl,skb,slc,dbc->sqd", bn, r, r, an, optimize=paths[key])
        return np.einsum("sqd,sqd->s", w, r), w

    value, w = correlation(q)
    step = np.full(len(q), 0.05)
    for it in range(cfg.max_iter):
        # on normalized tensors the correlation is Cauchy-Schwarz bounded by
        # 1, attained only by an exact alignment -- nothing left to search for
        if np.max(value) >= 1.0 - 1e-9:
            break
        if it == 15 and len(q) > 48:
            # basins have sorted themselves out by now; drop the laggards
            keep = np.argsort(value)[::-1][:48]
            q, value, w, step = q[keep], value[keep], w[keep], step[keep]
        grad_r = 3.0 * w
        partials = _quat_partials(q)
        grad_q = np.einsum("spq,sipq->si", grad_r, partials, optimize=True)
        tang = grad_q - np.sum(grad_q * q, axis=1, keepdims=True) * q
        if np.max(np.linalg.norm(tang, axis=1)) <= 1e-7:
            break
        trial = _unit_rows(q + step[:, None] * tang)
        trial_value, trial_w = correlation(trial)
        ok = trial_value >= value
        q[ok] = trial[ok]
        value[ok] = trial_value[ok]
        w[ok] = trial_w[ok]
        step = np.where(ok, step * 1.2, step * 0.5)
        if np.max(step) <= 1e-12:
            break

    order = np.argsort(value)[::-1]
    candidates = q[order[: cfg.polish_top]]

    def residual_vec(qfree):
        qn = qfree / max(np.linalg.norm(qfree), 1e-12)
        r = _quaternion_to_matrix(qn)
        return (np.einsum("ja,kb,lc,abc->jkl", r, r, r, a) - b).ravel()

    best_r = None
    best_res = np.inf
    scale = max(norm_a, norm_b)
    for q0 in candidates:
        sol = least_squares(
            residual_vec, q0, method="lm",
            ftol=cfg.tol, xtol=cfg.tol, gtol=cfg.tol, max_nfev=400,
        )
        qn = sol.x / max(np.linalg.norm(sol.x), 1e-12)
        r = _quaternion_to_matrix(qn)
        res = float(np.linalg.norm(residual_vec(qn)))
        if res < best_res:
            best_res = res
            best_r = r
        if best_res <= 1e-12 * scale:
            break
    return best_r, best_res


def best_alignment(
    a: SymTraceless3,
    b: SymTraceless3,
    group: str = "O(3)",
    cfg: AlignmentConfig | None = None,
) -> AlignmentResult:
    """Search the group for the element taking a closest to b.

    Always returns the best element found with its Frobenius residual; a
    residual at roundoff level identifies a planted alignment, a residual
    on the scale of the tensors themselves certifies (numerically) that the
    orbits are distinct.  The O(3) search runs the rotation search twice,
    once toward b and once toward -b (the improper branch).
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")
    cfg = cfg or AlignmentConfig()
    a_arr = expand(a).entries
    b_arr = expand(b).entries

    r_proper, res_proper = _align_rotations(a_arr, b_arr, cfg)
    best = AlignmentResult(
        OrthogonalTransform3(r_proper, 1), res_proper, group, cfg.starts
    )
    if group == "SO(3)":
        return best
    r_improper, res_improper = _align_rotations(a_arr, -b_arr, cfg)
    if res_improper < res_proper:
        return AlignmentResult(
            OrthogonalTransform3(-r_improper, -1), res_improper, group, 2 * cfg.starts
        )
    return AlignmentResult(best.best_transform, best.residual, group, 2 * cfg.starts)


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
