"""Numerical evidence that the four invariants are algebraically independent.

The 4x4 Jacobian of (I2, I4, I6, I10) with respect to the four canonical
parameters has a determinant that is itself a (long, degree-18) polynomial
with explicit factors d123 and d223^3; away from those hyperplanes it is
nonzero at every sampled point, so the Jacobian has full rank 4 generically
and no polynomial relation can tie the four invariants together.

Three independent evaluation routes keep each other honest: exact
differentiation of the transcribed polynomial tables, complex-step
derivatives of the invariant values, and the transcribed closed-form
determinant, evaluated through its stored factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import CanonicalParams, relative_error
from .polynomials import CANONICAL_BASIS, DET_FACTOR_4, DET_FACTOR_10, NVARS

__all__ = [
    "JacobianReport",
    "IndependenceReport",
    "jacobian_canonical",
    "det_jacobian_closed_form",
    "gradient_volume",
    "jacobian_report",
    "independence_report",
]

# Exact partial derivatives, differentiated once at import time.
JACOBIAN_TABLE = tuple(tuple(p.diff(k) for k in range(NVARS)) for p in CANONICAL_BASIS)

# Complex step h of the "fd" Jacobian: far below any coordinate's size, and
# far above the smallest normal double once multiplied by a derivative.
COMPLEX_STEP = 1e-30

# Points this close to the d123 = 0 or d223 = 0 hyperplane are degenerate by
# construction (the determinant has those explicit factors) and say nothing
# about genericity.
HYPERPLANE_MARGIN = 1e-6

RANK_THRESHOLD = 1e-10  # relative to the largest singular value

# A point is generic only when the four unit-normalized gradients span a
# parallelepiped of at least this volume.  The invariants' degrees (2, 4, 6,
# 10) put their gradients on wildly different scales, so raw singular values
# say little; after normalizing each row to unit length, sigma_1 <= 2 and
# sigma_1 sigma_2 sigma_3 <= 8, hence sigma_4 >= volume / 8 and every
# generic point provably passes the rank test above.  The floor subsumes the
# coordinate-hyperplane margins (volume vanishes there too).
GENERIC_VOLUME_FLOOR = 1e-6


def gradient_volume(jac) -> float:
    """|det| of the Jacobian with rows scaled to unit length.

    The 4-volume spanned by the unit gradient directions: 0 when the
    gradients are linearly dependent (or any vanishes), up to O(1) when they
    spread out.  This is the scale-free measure of how solidly the four
    invariants are independent at a point.
    """
    jac = np.asarray(jac, dtype=float)
    norms = np.linalg.norm(jac, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        return 0.0
    return float(abs(np.linalg.det(jac / norms)))


def _point(c) -> np.ndarray:
    if isinstance(c, CanonicalParams):
        return c.as_array()
    return np.asarray(c, dtype=float).reshape(NVARS)


def jacobian_canonical(c, mode: str = "analytic") -> np.ndarray:
    """4x4 Jacobian of the invariants at canonical point c.

    Rows are (I2, I4, I6, I10); columns are partials with respect to
    (d111, d122, d123, d223).  mode "analytic" evaluates exact derivative
    tables.  mode "fd" (alias "finite-difference") differentiates the
    invariant values themselves, by the complex step
    Im I(c + i h e_k) / h with h = COMPLEX_STEP: one evaluation per
    coordinate, and no difference of nearby values to cancel, so it agrees
    with the analytic tables to roundoff.
    """
    x = _point(c)
    if mode == "analytic":
        return np.array([[p(x) for p in row] for row in JACOBIAN_TABLE])
    if mode in ("fd", "finite-difference"):
        steps = x + 1j * COMPLEX_STEP * np.eye(NVARS)  # row k steps coordinate k
        return np.array([p._eval_complex_many(steps).imag for p in CANONICAL_BASIS]) / COMPLEX_STEP
    raise ValueError(f'mode must be "analytic" or "fd", got {mode!r}')


def det_jacobian_closed_form(c) -> float:
    """Evaluate the transcribed determinant through its stored factors.

    27648 d123 DET_FACTOR_4 d223^3 DET_FACTOR_10 (9 + 48 terms) equals
    DET_JACOBIAN, and evaluating the factors avoids the cancellation
    among the 120 terms of the expansion.
    """
    x = _point(c)
    return float(27648.0 * x[2] * DET_FACTOR_4(x) * x[3] ** 3 * DET_FACTOR_10(x))


@dataclass(frozen=True)
class JacobianReport:
    """Everything measured at one canonical point.

    fd_deviation compares the analytic and complex-step ("fd") Jacobians
    row by row: the worst, over the four invariants, of the gradient difference
    norm relative to that gradient's own norm.  closed_form_det comes from
    the determinant transcription rather than from the 4x4 matrix.
    """

    point: CanonicalParams
    jac: np.ndarray
    det: float
    fd_deviation: float  # worst per-invariant relative gradient difference
    closed_form_det: float

    def __post_init__(self):
        jac = np.asarray(self.jac, dtype=float).reshape(4, NVARS).copy()
        jac.setflags(write=False)
        object.__setattr__(self, "jac", jac)

    def rank(self, threshold: float = RANK_THRESHOLD) -> int:
        """Numerical rank of the row-normalized Jacobian.

        Rows are scaled to unit length first, so the rank counts linearly
        independent gradient *directions* — the scale-free reading, since
        raw rows differ by orders of magnitude across degrees 2 to 10.
        Singular values above threshold * largest are counted.
        """
        jac = np.asarray(self.jac)
        norms = np.linalg.norm(jac, axis=1, keepdims=True)
        normalized = np.divide(jac, norms, out=np.zeros_like(jac), where=norms > 0)
        sv = np.linalg.svd(normalized, compute_uv=False)
        if sv[0] == 0.0:
            return 0
        return int(np.sum(sv > threshold * sv[0]))

    def volume(self) -> float:
        return gradient_volume(self.jac)

    def is_generic(self) -> bool:
        return self.volume() > GENERIC_VOLUME_FLOOR


def jacobian_report(c) -> JacobianReport:
    point = c if isinstance(c, CanonicalParams) else CanonicalParams(*_point(c))
    analytic = jacobian_canonical(point, "analytic")
    fd = jacobian_canonical(point, "fd")
    # compare gradients row by row: roundoff in either route scales with
    # the invariant's own derivative magnitudes, so each row's difference is
    # measured against that row's norm, not entry by entry
    row_norms = np.linalg.norm(analytic, axis=1)
    deviation = float(
        np.max(np.linalg.norm(analytic - fd, axis=1) / np.maximum(1.0, row_norms))
    )
    det = float(np.linalg.det(analytic))
    return JacobianReport(point, analytic, det, deviation, det_jacobian_closed_form(point))


@dataclass(frozen=True)
class IndependenceReport:
    """Sampling summary; rank statistics cover generic points only."""

    samples: int
    degenerate: int
    rank4_fraction: float
    min_abs_det: float
    max_abs_det: float
    max_fd_deviation: float
    max_det_mismatch: float  # worst relative gap analytic det vs closed form

    def to_json_obj(self) -> dict:
        return {
            "samples": self.samples,
            "rank4_fraction": self.rank4_fraction,
            "min_abs_det": self.min_abs_det,
            "max_fd_deviation": self.max_fd_deviation,
        }


def _sample_generic(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in [-2, 2]^4, rejecting degenerate draws.

    A draw is kept when it clears the coordinate-hyperplane bands and its
    unit-gradient volume clears GENERIC_VOLUME_FLOOR; rejection discards a
    percent or two of draws.
    """
    out = []
    while len(out) < count:
        batch = rng.uniform(-2.0, 2.0, size=(count - len(out) + 8, NVARS))
        keep = (np.abs(batch[:, 2]) > HYPERPLANE_MARGIN) & (
            np.abs(batch[:, 3]) > HYPERPLANE_MARGIN
        )
        for row in batch[keep]:
            if gradient_volume(jacobian_canonical(row)) > GENERIC_VOLUME_FLOOR:
                out.append(row)
                if len(out) == count:
                    break
    return np.array(out)


def independence_report(
    sample_count: int = 1000, seed: int = 0, *, points=None
) -> IndependenceReport:
    """Jacobian-rank statistics over random (or caller-given) points.

    With no explicit points, draws sample_count generic points from
    [-2, 2]^4; every drawn point then counts toward the rank statistics.
    Caller-given points are tallied as degenerate — and excluded from the
    rank-4 fraction — when they sit inside the coordinate-hyperplane bands
    or below the unit-gradient volume floor, where the determinant is (near)
    zero by construction and says nothing about genericity.
    """
    if points is None:
        if sample_count < 1:
            raise ValueError(f"sample_count must be at least 1, got {sample_count}")
        pts = _sample_generic(sample_count, np.random.default_rng(seed))
    else:
        pts = np.asarray([_point(p) for p in points], dtype=float)
        if len(pts) == 0:
            raise ValueError("points must be nonempty")

    n_rank4 = 0
    n_generic = 0
    min_det = np.inf
    max_det = 0.0
    worst_fd = 0.0
    worst_mismatch = 0.0
    n_degenerate = 0
    for row in pts:
        rep = jacobian_report(row)
        worst_fd = max(worst_fd, rep.fd_deviation)
        worst_mismatch = max(worst_mismatch, relative_error(rep.det, rep.closed_form_det))
        hyperplane = (
            abs(row[2]) <= HYPERPLANE_MARGIN or abs(row[3]) <= HYPERPLANE_MARGIN
        )
        if hyperplane or not rep.is_generic():
            n_degenerate += 1
            continue
        n_generic += 1
        min_det = min(min_det, abs(rep.det))
        max_det = max(max_det, abs(rep.det))
        if rep.rank() == 4:
            n_rank4 += 1

    fraction = n_rank4 / n_generic if n_generic else 0.0
    return IndependenceReport(
        samples=n_generic,
        degenerate=n_degenerate,
        rank4_fraction=fraction,
        min_abs_det=float(min_det) if n_generic else 0.0,
        max_abs_det=float(max_det),
        max_fd_deviation=float(worst_fd),
        max_det_mismatch=float(worst_mismatch),
    )
