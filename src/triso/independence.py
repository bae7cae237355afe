"""Evidence that the four invariants are algebraically independent.

The 4x4 Jacobian of (I2, I4, I6, I10) with respect to the four canonical
parameters has the determinant 27648 d123 F4 d223^3 F10 (``DET_JACOBIAN``),
so its sign at a point is sign(d123) sign(d223) sign(F4) sign(F10).  By the
Jacobian criterion one point where that sign is nonzero proves that no
polynomial relation ties the four invariants together.  Each sign here is
proven, with no threshold: a factor's table value gives it where it clears
a derived rounding bound, and the exact integer sum of ``_ExactSum``, on
the integer core of ``components`` (``_dyadic``), does elsewhere (a
filtered exact predicate, Shewchuk 1997).

Three independent float routes cross-check the transcription at all points
at once: one shared monomial table for the 16 exact partials and both
determinant factors; the complex step of the Smith-Bao contractions, which
never read the transcription, run elementwise on the 4n stepped points; and
the closed-form determinant through its factors.  The one-point functions
(``jacobian_canonical``, ``jacobian_report``) are the n = 1 case.

Each point is measured once, by ``_measure``: its exact Jacobian table, its
closed-form and numeric determinants, from one set of row norms its unit-row
volume and fd deviation, and the proven sign of det J.  The statistics cover
the points whose volume clears GENERIC_VOLUME_FLOOR: the sampler keeps those
draws, and the report and ``JacobianReport.is_generic`` apply the same floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .invariants import CanonicalParams, _slice_kernel
from .polynomials import CANONICAL_BASIS, DET_FACTOR_4, DET_FACTOR_10, NVARS, _ExactSum, _MonomialTable, _real

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
# monomial table, and each has an exact one-point sum.
_ANALYTIC_TABLE = _MonomialTable(sum(JACOBIAN_TABLE, ()) + (DET_FACTOR_4, DET_FACTOR_10))
_JACOBIAN_SUM = _ExactSum(sum(JACOBIAN_TABLE, ()))
_FACTOR_SUM = _ExactSum((DET_FACTOR_4, DET_FACTOR_10))

# Complex step h of the "fd" Jacobian: far below any coordinate's size, and
# far above the smallest normal double once multiplied by a derivative.
COMPLEX_STEP = 1e-30

# The float cross-checks cover the points whose four unit-normalized
# gradients span a parallelepiped of at least this volume.  Near d123 = 0,
# d223 = 0 or a zero of F4 or F10 the numeric determinant cancels: over
# seeds 0..299, reports that kept every draw put it up to 3.2e-6 (relative)
# from the closed form, against 6.6e-10 with the floor.  The rank claim needs
# no floor: it is the proven sign.
GENERIC_VOLUME_FLOOR = 1e-6

# F4 and F10 are homogeneous of degree D = 4 and 10; let X be a point's
# largest |coordinate|.  The table sums each on one grid: the leads' sum is
# exact, a monomial (at most X^D) is off by at most 2^-75 per exact-head
# product, ten of them at degree 10, and each remainder, at most
# (2^(headroom - 52) + 2^-24) X^D, goes into a double sum over the table's
# 220 rows, off by 221 2^-53 times the sum of their magnitudes.  So before
# its last rounding, which keeps its sign, a column is within gamma S X^D of
# the exact value, S its sum of |coefficients|; _SIGN_BOUND is 16 gamma, room
# for the bound's own rounding.  X counts as at least 2^-90, so that every
# underflow in the table stays far below the bound.
_SIGN_BOUND = 16 * (10 * 2.0**-75 + 221 * 2.0**-53 * (2.0 ** (_ANALYTIC_TABLE._headroom - 52) + 2.0**-24))
_FACTOR_NORMS = np.abs(_ANALYTIC_TABLE.coeffs[:, -2:]).sum(axis=0)
_FACTOR_DEGREES = np.array([DET_FACTOR_4.degree(), DET_FACTOR_10.degree()])


def _unit_rows(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Jacobians with each row scaled to unit length (zero rows stay 0), and the row norms."""
    norms = np.linalg.norm(jac, axis=-1)
    return np.divide(jac, norms[..., None], out=np.zeros_like(jac), where=norms[..., None] > 0), norms


def gradient_volume(jac) -> float:
    """|det| of the Jacobian with rows scaled to unit length.

    The 4-volume spanned by the unit gradient directions: 0 when the
    gradients are linearly dependent (or any vanishes), up to O(1) when they
    spread out.  This is the scale-free measure of how solidly the four
    invariants are independent at a point.
    """
    return float(abs(np.linalg.det(_unit_rows(np.asarray(jac, dtype=float))[0])))


def _undecided(pts: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Which (n, 4) points have a table value of F4 or F10 (n, 2) inside its bound, inf or NaN."""
    scale = np.maximum(np.abs(pts).max(axis=1), 2.0**-90)
    with np.errstate(over="ignore"):  # an X^D beyond the double range leaves the sign to the exact sum
        bounds = _SIGN_BOUND * _FACTOR_NORMS * scale[:, None] ** _FACTOR_DEGREES
    magnitudes = np.abs(factors)
    return ~np.all((bounds < magnitudes) & (magnitudes < np.inf), axis=1)


def _det_signs(pts: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """The exact sign of det J (n,) at (n, 4) points, given their table values of F4 and F10 (n, 2)."""
    signs = np.sign(factors)
    for i in np.flatnonzero(_undecided(pts, factors)):
        signs[i] = [(total > 0) - (total < 0) for total, _ in _FACTOR_SUM.exact(pts[i])]
    return np.sign(pts[:, 2]) * np.sign(pts[:, 3]) * signs[:, 0] * signs[:, 1]


def _point(c) -> np.ndarray:
    """c as a (4,) array, through the gate of ``_real``: ValueError naming it unless every coordinate is finite."""
    return _real(c.as_array() if isinstance(c, CanonicalParams) else c).reshape(NVARS)


def _analytic(pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact Jacobians (n, 4, 4), closed-form determinants (n,) and F4, F10 (n, 2) at (n, 4) points."""
    values = _ANALYTIC_TABLE(pts)
    jac = values[:, : 4 * NVARS].reshape(-1, 4, NVARS)
    closed = 27648.0 * pts[:, 2] * values[:, -2] * pts[:, 3] ** 3 * values[:, -1]
    return jac, closed, values[:, -2:]


def _complex_step(pts: np.ndarray) -> np.ndarray:
    """Complex-step Jacobians (n, 4, 4): Im I(x + i h e_k) / h, I the Smith-Bao contractions."""
    steps = pts[:, None, :] + 1j * COMPLEX_STEP * np.eye(NVARS)  # [point, k, coordinate]
    d111, d122, d123, d223 = steps.transpose(2, 0, 1)
    values = np.array(_slice_kernel(d111, 0, 0, d122, d123, 0, d223)[2])  # [invariant, point, k]
    return values.imag.transpose(1, 0, 2) / COMPLEX_STEP


def _measure(pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Exact Jacobians (n, 4, 4), closed-form dets, dets, unit-row volumes, fd deviations and det J signs (n,).

    One set of row norms serves the last two.  The deviation compares the
    complex-step Jacobian with the exact one row by row: roundoff in either
    route scales with each invariant's own gradient, so each row's
    difference is measured against that row's norm.
    """
    jac, closed, factors = _analytic(pts)
    unit, norms = _unit_rows(jac)
    gap = np.linalg.norm(jac - _complex_step(pts), axis=2)
    deviation = np.max(gap / np.maximum(1.0, norms), axis=1)
    return jac, closed, np.linalg.det(jac), np.abs(np.linalg.det(unit)), deviation, _det_signs(pts, factors)


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
        """Rank of the exact Jacobian at this point, by Fraction elimination: no float, no threshold.

        It is 4 exactly where det J is nonzero, and lower only on d123 = 0,
        d223 = 0 or a zero of F4 or F10.
        """
        values = [Fraction(*v) for v in _JACOBIAN_SUM.exact(_point(self.point))]
        rows, rank = [values[i : i + NVARS] for i in range(0, 4 * NVARS, NVARS)], 0
        for col in range(NVARS):
            at = next((i for i, row in enumerate(rows) if row[col]), None)
            if at is not None:
                pivot = rows.pop(at)
                rows = [[a - row[col] / pivot[col] * b for a, b in zip(row, pivot)] for row in rows]
                rank += 1
        return rank

    def volume(self) -> float:
        return gradient_volume(self.jac)

    def is_generic(self) -> bool:
        """Whether the volume clears GENERIC_VOLUME_FLOOR: the rule by which ``independence_report`` counts a point."""
        return bool(self.volume() > GENERIC_VOLUME_FLOOR)


def jacobian_report(c) -> JacobianReport:
    x = _point(c)[None, :]
    point = c if isinstance(c, CanonicalParams) else CanonicalParams(*x[0].tolist())
    jac, closed, det, _, deviation, _ = _measure(x)
    return JacobianReport(point, jac[0], float(det[0]), float(deviation[0]), float(closed[0]))


@dataclass(frozen=True)
class IndependenceReport:
    """Sampling summary: ``samples`` points clear GENERIC_VOLUME_FLOOR, ``degenerate`` do not.

    rank4_fraction is the share of the former with a proven nonzero sign of det J,
    so rank 4 exactly; the determinant, fd and mismatch figures are the
    float cross-checks of the transcription.
    """

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

    Each draw is measured, and kept when its volume clears
    GENERIC_VOLUME_FLOOR, which discards about 4.5 % of draws.  Each batch
    is judged at once, and its first accepted rows are kept in draw order.
    A batch draws 1/16 more rows than are still needed, plus 8, so one batch
    almost always suffices.  The result is the first count accepted draws of
    rng's stream, whatever the batch sizes, as ``_measure`` treats each row
    on its own.  Returns the (count, 4) points followed by their ``_measure``
    rows.
    """
    out = []
    kept = 0
    while kept < count:
        need = count - kept
        batch = rng.uniform(-2.0, 2.0, size=(need + need // 16 + 8, NVARS))
        measured = _measure(batch)
        accepted = np.flatnonzero(measured[3] > GENERIC_VOLUME_FLOOR)[:need]
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
    degenerate, and excluded from every statistic but the fd deviation and
    det mismatch, when their unit-gradient volume is at or below
    GENERIC_VOLUME_FLOOR: near the zero set of det J, where the float
    determinants cancel.
    """
    if points is None:
        if sample_count < 1:
            raise ValueError(f"sample_count must be at least 1, got {sample_count}")
        pts, _, closed, det, volumes, deviation, signs = _sample_generic(sample_count, np.random.default_rng(seed))
    else:
        pts = np.asarray([_point(p) for p in points], dtype=float).reshape(-1, NVARS)
        if len(pts) == 0:
            raise ValueError("points must be nonempty")
        _, closed, det, volumes, deviation, signs = _measure(pts)
    generic = volumes > GENERIC_VOLUME_FLOOR
    # relative_error, elementwise
    mismatch = np.abs(det - closed) / np.maximum(1.0, np.maximum(np.abs(det), np.abs(closed)))
    n_generic = int(np.sum(generic))
    abs_det = np.abs(det[generic])
    return IndependenceReport(
        samples=n_generic,
        degenerate=len(pts) - n_generic,
        rank4_fraction=int(np.count_nonzero(signs[generic])) / n_generic if n_generic else 0.0,
        min_abs_det=float(abs_det.min()) if n_generic else 0.0,
        max_abs_det=float(abs_det.max(initial=0.0)),
        max_fd_deviation=float(deviation.max()),
        max_det_mismatch=float(mismatch.max()),
    )
