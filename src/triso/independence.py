"""Numerical evidence that the four invariants are algebraically independent.

The 4x4 Jacobian of (I2, I4, I6, I10) with respect to the four canonical
parameters has a determinant that is itself a (long, degree-18) polynomial
with explicit factors d123 and d223^3; away from those hyperplanes it is
nonzero at every sampled point, so the Jacobian has full rank 4 generically
and no polynomial relation can tie the four invariants together.

Three independent evaluation routes keep each other honest: exact
derivatives of the transcribed polynomial tables, the complex step of the
Smith-Bao contractions, which never read the transcription, and the
transcribed closed-form determinant, evaluated through its factors.

Every route runs on all points at once.  One shared monomial table yields
the 16 exact partials and both determinant factors at every point; the
contractions run elementwise on the 4n complex-stepped points; determinants
and unit-gradient volumes are stacked 4x4 kernels.  A rank is read off the
volume wherever that bounds it (always, at a generic point), and only the
other matrices get a stacked SVD.  The one-point functions
(``jacobian_canonical``, ``jacobian_report``) are the n = 1 case.

Each point is measured once, by ``_measure``: its exact Jacobian, its
closed-form and numeric determinants, and from one set of row norms its
unit-row volume and fd deviation.  One rule, ``_generic``, says which
points count as evidence.  The sampler keeps the draws it passes, and the
report and ``JacobianReport.is_generic`` apply it to the same measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import CanonicalParams, _slice_kernel
from .polynomials import CANONICAL_BASIS, DET_FACTOR_4, DET_FACTOR_10, NVARS, _MonomialTable, _real

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

# The 16 partials (row-major) and the two determinant factors share one
# monomial table.
_ANALYTIC_TABLE = _MonomialTable(sum(JACOBIAN_TABLE, ()) + (DET_FACTOR_4, DET_FACTOR_10))

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
# sigma_1 sigma_2 sigma_3 <= 8, hence sigma_4 >= volume / 8 and
# sigma_4 / sigma_1 >= volume / 16.  So a volume above 16 RANK_THRESHOLD
# means rank 4 without an SVD (``_ranks``), and every generic point provably
# passes the rank test above.  The floor does not subsume the hyperplane
# margins: the volume vanishes like |d123| near d123 = 0 but like |d223|^3
# near d223 = 0.  Of 200,000 uniform draws with |d123| < HYPERPLANE_MARGIN,
# 2619 cleared the floor (volumes up to 2.4e-5); with |d223| below it, none.
GENERIC_VOLUME_FLOOR = 1e-6


def _unit_rows(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Jacobians with each row scaled to unit length (zero rows stay 0), and the row norms."""
    norms = np.linalg.norm(jac, axis=-1)
    return np.divide(jac, norms[..., None], out=np.zeros_like(jac), where=norms[..., None] > 0), norms


def _volumes(jac: np.ndarray) -> np.ndarray:
    """gradient_volume of each matrix in an (n, 4, 4) stack of Jacobians."""
    return np.abs(np.linalg.det(_unit_rows(jac)[0]))


def _ranks(jac: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """JacobianReport.rank of each matrix in an (n, 4, 4) stack of Jacobians.

    volumes (n,) bounds each matrix's unit-row volume from below, as its
    ``_volumes`` entry does.  Above 16 RANK_THRESHOLD the rank is 4 (see
    GENERIC_VOLUME_FLOOR); only the other matrices, NaN ones included, get
    an SVD.
    """
    ranks = np.full(len(jac), 4)
    near = np.flatnonzero(~(volumes > 16 * RANK_THRESHOLD))
    sv = np.linalg.svd(_unit_rows(jac[near])[0], compute_uv=False)
    ranks[near] = np.sum(sv > RANK_THRESHOLD * sv[:, :1], axis=1)
    return ranks


def gradient_volume(jac) -> float:
    """|det| of the Jacobian with rows scaled to unit length.

    The 4-volume spanned by the unit gradient directions: 0 when the
    gradients are linearly dependent (or any vanishes), up to O(1) when they
    spread out.  This is the scale-free measure of how solidly the four
    invariants are independent at a point.
    """
    return float(_volumes(np.asarray(jac, dtype=float)[None])[0])


def _clear_of_hyperplanes(pts: np.ndarray) -> np.ndarray:
    return (np.abs(pts[:, 2]) > HYPERPLANE_MARGIN) & (np.abs(pts[:, 3]) > HYPERPLANE_MARGIN)


def _generic(pts: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """The genericity rule at (n, 4) points: clear of both hyperplane bands, volume above the floor."""
    return _clear_of_hyperplanes(pts) & (volumes > GENERIC_VOLUME_FLOOR)


def _point(c) -> np.ndarray:
    """c as a (4,) array, through the gate of ``_real``: ValueError naming it unless every coordinate is finite."""
    return _real(c.as_array() if isinstance(c, CanonicalParams) else c).reshape(NVARS)


def _analytic(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Jacobians (n, 4, 4) and closed-form determinants (n,) at (n, 4) points."""
    values = _ANALYTIC_TABLE(pts)
    jac = values[:, : 4 * NVARS].reshape(-1, 4, NVARS)
    closed = 27648.0 * pts[:, 2] * values[:, -2] * pts[:, 3] ** 3 * values[:, -1]
    return jac, closed


def _complex_step(pts: np.ndarray) -> np.ndarray:
    """Complex-step Jacobians (n, 4, 4): Im I(x + i h e_k) / h, I the Smith-Bao contractions."""
    steps = pts[:, None, :] + 1j * COMPLEX_STEP * np.eye(NVARS)  # [point, k, coordinate]
    d111, d122, d123, d223 = steps.transpose(2, 0, 1)
    values = np.array(_slice_kernel(d111, 0, 0, d122, d123, 0, d223)[2])  # [invariant, point, k]
    return values.imag.transpose(1, 0, 2) / COMPLEX_STEP


def _measure(pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact Jacobians (n, 4, 4), closed-form dets, dets, unit-row volumes and fd deviations (n,).

    One set of row norms serves the last two.  The deviation compares the
    complex-step Jacobian with the exact one row by row: roundoff in either
    route scales with each invariant's own gradient, so each row's
    difference is measured against that row's norm.
    """
    jac, closed = _analytic(pts)
    unit, norms = _unit_rows(jac)
    gap = np.linalg.norm(jac - _complex_step(pts), axis=2)
    deviation = np.max(gap / np.maximum(1.0, norms), axis=1)
    return jac, closed, np.linalg.det(jac), np.abs(np.linalg.det(unit)), deviation


def jacobian_canonical(c, mode: str = "analytic") -> np.ndarray:
    """4x4 Jacobian of the invariants at canonical point c.

    Rows are (I2, I4, I6, I10); columns are partials with respect to
    (d111, d122, d123, d223).  mode "analytic" evaluates exact derivative
    tables.  mode "fd" differentiates the Smith-Bao contractions instead, by
    the complex step Im I(c + i h e_k) / h with h = COMPLEX_STEP: one
    evaluation per coordinate and no difference of nearby values to cancel,
    so it matches the tables to roundoff wherever the transcription is right.
    """
    x = _point(c)[None, :]
    if mode == "analytic":
        return _analytic(x)[0][0]
    if mode == "fd":
        return _complex_step(x)[0]
    raise ValueError(f'mode must be "analytic" or "fd", got {mode!r}')


def det_jacobian_closed_form(c) -> float:
    """Evaluate the transcribed determinant through its stored factors.

    27648 d123 DET_FACTOR_4 d223^3 DET_FACTOR_10 (9 + 48 terms) equals
    DET_JACOBIAN, and evaluating the factors avoids the cancellation
    among the 120 terms of the expansion.
    """
    return float(_analytic(_point(c)[None, :])[1][0])


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

    def rank(self) -> int:
        """Numerical rank of the row-normalized Jacobian.

        Rows are scaled to unit length first, so the rank counts linearly
        independent gradient *directions* — the scale-free reading, since
        raw rows differ by orders of magnitude across degrees 2 to 10.
        Singular values above RANK_THRESHOLD * largest are counted.
        """
        jac = self.jac[None]
        return int(_ranks(jac, _volumes(jac))[0])

    def volume(self) -> float:
        return gradient_volume(self.jac)

    def is_generic(self) -> bool:
        """``_generic`` at this point: the rule ``independence_report`` applies."""
        return bool(_generic(self.point.as_array()[None], _volumes(self.jac[None]))[0])


def jacobian_report(c) -> JacobianReport:
    x = _point(c)[None, :]
    point = c if isinstance(c, CanonicalParams) else CanonicalParams(*x[0].tolist())
    jac, closed, det, _, deviation = _measure(x)
    return JacobianReport(point, jac[0], float(det[0]), float(deviation[0]), float(closed[0]))


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


def _sample_generic(count: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Uniform points in [-2, 2]^4, rejecting degenerate draws.

    Draws inside the hyperplane bands are dropped before anything is
    evaluated; the rest are measured, and a draw is kept when ``_generic``
    passes it, which discards about 4.5 % of draws.  Each batch is judged at
    once, and its first accepted rows are kept in draw order.  A batch draws
    1/16 more rows than are still needed, plus 8, so one batch almost always
    suffices.  The result is the first count accepted draws of rng's stream,
    whatever the batch sizes, as ``_measure`` treats each row on its own.
    Returns the (count, 4) points followed by their ``_measure`` rows.
    """
    out = []
    kept = 0
    while kept < count:
        need = count - kept
        batch = rng.uniform(-2.0, 2.0, size=(need + need // 16 + 8, NVARS))
        batch = batch[_clear_of_hyperplanes(batch)]
        measured = _measure(batch)
        accepted = np.flatnonzero(_generic(batch, measured[3]))[:need]
        out.append([batch[accepted]] + [m[accepted] for m in measured])
        kept += len(accepted)
    return tuple(np.concatenate(parts) for parts in zip(*out))


def independence_report(
    sample_count: int = 1000, seed: int = 0, *, points=None
) -> IndependenceReport:
    """Jacobian-rank statistics over random (or caller-given) points.

    With no explicit points, draws sample_count generic points from
    [-2, 2]^4; every drawn point then counts toward the rank statistics.
    Caller-given points, each of which must be finite, are tallied as
    degenerate — and excluded from the rank-4 fraction — when ``_generic``
    fails them: inside the coordinate-hyperplane bands or below the
    unit-gradient volume floor, where the determinant is (near) zero by
    construction and says nothing about genericity.
    """
    if points is None:
        if sample_count < 1:
            raise ValueError(f"sample_count must be at least 1, got {sample_count}")
        pts, jac, closed, det, volumes, deviation = _sample_generic(sample_count, np.random.default_rng(seed))
    else:
        pts = np.asarray([_point(p) for p in points], dtype=float).reshape(-1, NVARS)
        if len(pts) == 0:
            raise ValueError("points must be nonempty")
        jac, closed, det, volumes, deviation = _measure(pts)
    generic = _generic(pts, volumes)
    # relative_error, elementwise
    mismatch = np.abs(det - closed) / np.maximum(1.0, np.maximum(np.abs(det), np.abs(closed)))
    n_generic = int(np.sum(generic))
    abs_det = np.abs(det[generic])
    return IndependenceReport(
        samples=n_generic,
        degenerate=len(pts) - n_generic,
        rank4_fraction=int(np.sum(_ranks(jac[generic], volumes[generic]) == 4)) / n_generic if n_generic else 0.0,
        min_abs_det=float(abs_det.min()) if n_generic else 0.0,
        max_abs_det=float(abs_det.max(initial=0.0)),
        max_fd_deviation=float(deviation.max()),
        max_det_mismatch=float(mismatch.max()),
    )
