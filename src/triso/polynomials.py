"""Exact polynomial tables for the canonical-coordinate invariants.

After canonicalization a tensor is described by four parameters
(d111, d122, d123, d223), and each of the four isotropic invariants is a
closed-form polynomial in them, as is the determinant of their 4x4 Jacobian.
Those polynomials are transcribed here once, as monomial tables with exact
integer coefficients; evaluation and exact differentiation both run off the
tables, so a single audited transcription backs every consumer.  Any
transcription slip surfaces immediately against the ``smith_bao`` path,
and the tests check the tables as exact identities: I2..I10 equal
the contractions of the canonical tensor carried out in Poly arithmetic,
and DET_JACOBIAN equals the Laplace expansion of the exact partials.

One real point is summed exactly (``_ExactSum``) and rounded once, so
``Poly.__call__`` and ``canonical_invariants`` are correctly rounded at every
finite point.  The point's integer form and the one rounding come from the
numpy-free integer core of ``components`` (``_dyadic``, ``_rounded``), the
one place any exact path turns floats into integers and back.  Many points
go through ``_MonomialTable`` in chunks of rows: ``Poly.eval_many`` and the
Jacobian evidence of ``independence``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .components import _dyadic, _rounded

__all__ = [
    "Poly",
    "I2_CANONICAL",
    "I4_CANONICAL",
    "I6_CANONICAL",
    "I10_CANONICAL",
    "CANONICAL_BASIS",
    "DET_FACTOR_4",
    "DET_FACTOR_10",
    "DET_JACOBIAN",
    "NVARS",
]

NVARS = 4


class Poly:
    """Polynomial in four variables, stored as {exponent tuple: coefficient}.

    Coefficients stay exact (Python ints or exact floats) through +, -, *,
    and integer powers; differentiation is exact as well.  A call rounds the
    exact value once (``_ExactSum``); ``eval_many`` runs ``_MonomialTable``.
    """

    __slots__ = ("terms", "_eval_cache", "_sum_cache")

    def __init__(self, terms: dict | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}
        self._eval_cache = self._sum_cache = None

    @classmethod
    def variable(cls, index: int) -> "Poly":
        exponents = [0] * NVARS
        exponents[index] = 1
        return cls({tuple(exponents): 1})

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls({(0,) * NVARS: c})

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.constant(other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"only nonnegative integer powers are supported, got {n!r}")
        result = Poly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def diff(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable `index`."""
        terms: dict = {}
        for e, c in self.terms.items():
            if e[index] == 0:
                continue
            reduced = list(e)
            reduced[index] -= 1
            terms[tuple(reduced)] = c * e[index]
        return Poly(terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __call__(self, point) -> float:
        """The value at one real point, correctly rounded: the one-polynomial case of _ExactSum."""
        if self._sum_cache is None:
            self._sum_cache = _ExactSum((self,))
        return self._sum_cache(point)[0]

    def eval_many(self, points) -> np.ndarray:
        """Evaluate at an (n, 4) array of real points: the one-polynomial case of _MonomialTable."""
        if self._eval_cache is None:
            self._eval_cache = _MonomialTable((self,))
        return self._eval_cache(points)[:, 0]

    def __repr__(self):
        return f"Poly({len(self.terms)} terms, degree {self.degree()})"


def _real(points) -> np.ndarray:
    """points as an (n, 4) float array.

    A complex one raises TypeError, as a cast would drop its imaginary part,
    and a non-finite coordinate raises ValueError naming its point: both
    evaluators, and every point of ``independence``, pass this one gate.
    """
    points = np.asarray(points)
    if np.iscomplexobj(points):
        raise TypeError("points must be real, got a complex array")
    points = points.astype(float, copy=False).reshape(-1, NVARS)
    finite = np.isfinite(points)
    if np.count_nonzero(finite) < finite.size:  # faster than finite.all() on one point
        raise ValueError(f"point coordinates must be finite, got {points[~finite.all(axis=1)][0].tolist()}")
    return points


class _ExactSum:
    """Evaluate a fixed tuple of polynomials at one real point, each value correctly rounded.

    A fifth coordinate 1 makes each polynomial homogeneous of its degree D,
    and one common denominator L makes its coefficients integers.  The
    point's coordinates are integers over one power of two 2^s
    (``components._dyadic``), so a value is an integer sum over L 2^(s D)
    (``exact``), and one int / int rounds it (a call,
    ``components._rounded``).  Monomials are products of two pair tables,
    (x0^a x1^b)(x2^c x3^d 1^h), formed once per evaluation for the whole
    tuple; the cost grows with the spread of exponents.
    """

    def __init__(self, polys):
        self.polys, left, right = [], {}, {}
        for p in polys:
            degree = p.degree()
            coeffs = {e + (degree - sum(e),): Fraction(c) for e, c in p.terms.items()}
            scale = math.lcm(*(c.denominator for c in coeffs.values()))
            terms = [(int(c * scale), left.setdefault(e[:2], len(left)), right.setdefault(e[2:], len(right)))
                     for e, c in coeffs.items()]
            self.polys.append((terms, scale, degree))
        self.left, self.right = list(left), list(right)

    def exact(self, point) -> list:
        """Each polynomial's exact value at point, as (integer numerator, positive denominator)."""
        (n0, n1, n2, n3), den = _dyadic(_real(point).reshape(NVARS).tolist())
        left = [n0**a * n1**b for a, b in self.left]
        right = [n2**c * n3**d * den**h for c, d, h in self.right]
        return [(sum(c * left[i] * right[j] for c, i, j in terms), scale * den**degree)
                for terms, scale, degree in self.polys]

    def __call__(self, point) -> list:
        return [_rounded(total, denominator) for total, denominator in self.exact(point)]


# Rows evaluated at once: peak memory stays flat however many points come
# in, and a chunk's (M, rows) double blocks stay in cache.  The powers of
# the coordinates, a few short rows per point, are formed once per block of
# _BLOCK_ROWS rows, 16 chunks, so their many small numpy calls run once per
# block; every later stage runs per chunk.
_CHUNK_ROWS = 64
_BLOCK_ROWS = 1024

# Clears the 27 low significand bits of a double: what is left, the head, has
# at most 26 significant bits, so the product of two heads is exact, and the
# rest, the tail, is exact too.  One product of such head-tail pairs (Dekker
# 1971) forms the powers, the pair tables and the monomials of _MonomialTable.
_HEAD_MASK = np.int64(-(1 << 27))


def _split(x, low):
    """x[1] holds doubles: x[0] gets their heads, and x[1] their exact tails plus low."""
    np.bitwise_and(x[1].view(np.int64), _HEAD_MASK, out=x[0].view(np.int64))
    x[1] -= x[0]
    x[1] += low


def _product(x, y, high, low, work):
    """x y for head-tail pairs x and y: high = x[0] y[0], exact, and
    low = x[0] y[1] + x[1] (y[0] + y[1]), the rest to about 2^-77 of high."""
    np.multiply(x[0], y[0], out=high)
    np.multiply(x[0], y[1], out=low)
    np.add(y[0], y[1], out=work)
    work *= x[1]
    low += work


class _MonomialTable:
    """Evaluate a fixed tuple of polynomials at many real points at once.

    The polynomials share M monomials in degree order, each one entry of each
    half's pair table, (x0^a x1^b)(x2^c x3^d), and an (M, P) float
    coefficient matrix; a matmul per chunk of _CHUNK_ROWS rows gives values.
    The coordinates' powers are formed once per block of _BLOCK_ROWS rows;
    the pair tables, monomials, grid and matmuls run per chunk.  Every stage
    works row by row, so a row's bits do not depend on how the points are
    batched, and the working memory is bounded however many points come in.

    The Jacobian entries and determinant factors cancel by up to seven digits
    at some sampled points, so every factor is a head-tail pair of doubles
    (see _HEAD_MASK), and one exact-head product forms each power from the
    one below, each pair entry from two powers and each monomial from two
    pair entries; powers and pair entries are split again before the next
    stage.  A monomial is the exact product of two heads plus cross terms,
    off by about 2^-77 of it.  Each coordinate's powers go only up to its own
    largest exponent, so no unused power leaves the double range.  At each
    point the head products of each degree class are cut to a grid set by
    that class's largest one, so their integer multiples and partial sums are
    exact in any order (Ogita, Rump and Oishi 2005); only the remainder is
    summed in doubles.  So a homogeneous column gives the same bits at every
    power-of-two scale while no entry leaves the normal range, with an error
    near 2^-77 times the sum of |terms|.  Still missed: a column whose terms
    all sit far below its class's largest monomial, at a point whose
    coordinates differ by many orders of magnitude, sums in plain doubles.
    """

    def __init__(self, polys):
        monomials = sorted(set().union(*(p.terms for p in polys)), key=lambda e: (sum(e), e))
        row = {e: i for i, e in enumerate(monomials)}
        self.exponents = np.array(monomials, dtype=np.intp).reshape(len(monomials), NVARS)
        self.coeffs = np.zeros((len(monomials), len(polys)))
        for j, p in enumerate(polys):
            for e, c in p.terms.items():
                self.coeffs[row[e], j] = float(c)
        # the power table holds the coordinates in order of their largest
        # exponent, so the coordinates that need power e are its first
        # _spans[e - 2]; _slots[k] is coordinate k's place
        tops = self.exponents.max(axis=0, initial=0)
        self._slots = np.argsort(np.argsort(-tops, kind="stable"))
        self._spans = [int(np.sum(tops >= e)) for e in range(2, tops.max() + 1)]
        # each monomial is (x0^a x1^b) (x2^c x3^d): the distinct exponent pairs
        # of both halves, stacked, as row pairs of a chunk's flattened
        # (top + 1, NVARS) power table, and which pair of each half every
        # monomial takes, as (2, M) rows of that stack
        factors, which = [], []
        for cols in ((0, 1), (2, 3)):
            pairs, index = np.unique(self.exponents[:, cols], axis=0, return_inverse=True)
            which.append(index.reshape(-1) + sum(map(len, factors)))
            factors.append(pairs * NVARS + self._slots[list(cols)])
        self._pairs = np.concatenate(factors).T.copy()
        self._which = np.array(which, dtype=np.intp).reshape(2, len(monomials))
        # bits above a degree class's largest monomial that any partial sum of a
        # column in it can reach: the coefficients' largest column sum of
        # magnitudes is below 2^(headroom - 1)
        self._headroom = int(np.frexp(max(np.abs(self.coeffs).sum(axis=0).max(initial=0.0), 1.0))[1]) + 1
        # the rows are in degree order: where each degree class starts, and its row count
        _, self._starts, self._counts = np.unique(self.exponents.sum(axis=1), return_index=True, return_counts=True)

    def __call__(self, points) -> np.ndarray:
        points = _real(points)
        n = len(points)
        # at least two rows: numpy sends a one-row matmul to gemv, whose
        # summation order is not gemm's, so one point would not get the bits
        # of its row in a batch
        rows = min(max(n, 2), _CHUNK_ROWS)
        chunks = -(-n // rows)
        span = min(max(chunks, 1) * rows, _BLOCK_ROWS)
        out = np.empty((chunks * rows, self.coeffs.shape[1]))
        # work buffers shared by every block or chunk, each of heads and
        # tails: powers[:, e, slot, row] = x_k^e for a block's rows, k the
        # coordinate in that slot, and their low parts and work space; then,
        # per chunk, the two powers of each pair entry, the stacked pair
        # tables, the pair of each half that every monomial takes, three
        # (M, rows) blocks, and the low parts and work space of the pair
        # tables.  Views are taken by index: unpacking an array is slower.
        powers = np.empty((2, len(self._spans) + 2, NVARS, span))
        powers[0, 0] = 1.0
        powers[1, 0] = 0.0
        table = powers.reshape(2, -1, span)
        power_low, power_work = np.empty((2, NVARS, span))
        ends = np.empty((2,) + self._pairs.shape + (rows,))
        split = np.empty((2, self._pairs.shape[1], rows))
        parts = np.empty((2,) + self._which.shape + (rows,))
        high = np.empty((len(self.exponents), rows))
        low = np.empty_like(high)
        work = np.empty_like(high)
        pair_low, pair_work = np.empty((2, self._pairs.shape[1], rows))
        for first in range(0, n, span):
            block = points[first : first + span]
            powers[1, 1, self._slots, : len(block)] = block.T
            powers[1, 1, :, len(block) :] = 0.0  # the last block's padding rows
            _split(powers[:, 1], 0.0)
            for e, k in enumerate(self._spans, 2):
                _product(powers[:, e - 1, :k], powers[:, 1, :k], powers[1, e, :k], power_low[:k], power_work[:k])
                _split(powers[:, e, :k], power_low[:k])
            for at in range(0, len(block), rows):
                np.take(table[:, :, at : at + rows], self._pairs, axis=1, out=ends, mode="clip")
                _product(ends[:, 0], ends[:, 1], split[1], pair_low, pair_work)
                _split(split, pair_low)
                np.take(split, self._which, axis=1, out=parts, mode="clip")
                # a monomial is high + low: the product of its pair entries
                _product(parts[:, 0], parts[:, 1], high, low, work)
                # lead: a multiple of 2^(e + headroom - 53) at most 2^e, with e
                # set by the largest head product of the row's degree class, so
                # its products with integer coefficients and all their partial
                # sums within a class fit in 53 bits (the cap keeps the grid
                # finite near overflow).  An int64 view orders doubles of one
                # sign as their values, and reduceat runs faster on it.
                _, e = np.frexp(np.maximum.reduceat(np.abs(high, out=work).view(np.int64), self._starts).view(float))
                grid = np.repeat(np.ldexp(1.0, np.minimum(e + self._headroom, 1023)), self._counts, axis=0)
                lead = np.add(high, grid, out=work)
                lead -= grid
                high -= lead  # exact: high now holds the remainder
                high += low
                values = out[first + at : first + at + rows]
                np.matmul(lead.T, self.coeffs, out=values)
                values += high.T @ self.coeffs
        return out[:n]


d111 = Poly.variable(0)
d122 = Poly.variable(1)
d123 = Poly.variable(2)
d223 = Poly.variable(3)

I2_CANONICAL = 4 * d111**2 + 6 * d122 * d111 + 6 * d122**2 + 6 * d123**2 + 4 * d223**2

I4_CANONICAL = 2 * (
    4 * d111**4
    + 12 * d122 * d111**3
    + (18 * d122**2 + 12 * d123**2 + 5 * d223**2) * d111**2
    + 12 * d122 * (d122**2 + d123**2 + d223**2) * d111
    + 6 * d122**4
    + 6 * d123**4
    + 4 * d223**4
    + 12 * d123**2 * d223**2
    + 12 * d122**2 * (d123**2 + d223**2)
)

I6_CANONICAL = 4 * (
    4 * (d122**2 + d223**2) * d111**4
    + 8 * d122 * (d122**2 + d123**2 + 3 * d223**2) * d111**3
    + (4 * d122**4 + (8 * d123**2 + 37 * d223**2) * d122**2 + 4 * d123**4 + d223**4 - 3 * d123**2 * d223**2)
    * d111**2
    + 4 * d122 * (5 * d122**2 - 7 * d123**2) * d223**2 * d111
    + 4 * (d122**2 + d123**2) ** 2 * d223**2
)

I10_CANONICAL = -8 * (
    8 * (d122**3 - 3 * d122 * d223**2) * d111**7
    + 4 * (6 * d122**4 + (6 * d123**2 - 39 * d223**2) * d122**2 - 5 * d223**4 - 6 * d123**2 * d223**2)
    * d111**6
    + 6
    * d122
    * (4 * d122**4 + (8 * d123**2 - 73 * d223**2) * d122**2 + 4 * d123**4 - 21 * d223**4 - 8 * d123**2 * d223**2)
    * d111**5
    + (
        8 * d122**6
        + 24 * (d123**2 - 26 * d223**2) * d122**4
        + 3 * (8 * d123**4 - 28 * d223**2 * d123**2 - 109 * d223**4) * d122**2
        + 8 * d123**6
        + d223**6
        + 72 * d123**2 * d223**4
        + 84 * d123**4 * d223**2
    )
    * d111**4
    - 2
    * d122
    * d223**2
    * (231 * d122**4 + 2 * (69 * d123**2 + 101 * d223**2) * d122**2 - 45 * d123**4 - 78 * d123**2 * d223**2)
    * d111**3
    - 6
    * d223**2
    * (
        28 * d122**6
        + (32 * d123**2 + 41 * d223**2) * d122**4
        + 2 * (6 * d123**4 - 11 * d123**2 * d223**2) * d122**2
        + 8 * d123**6
        + 9 * d123**4 * d223**2
    )
    * d111**2
    - 24
    * d122
    * d223**2
    * (
        d122**6
        - (d123**2 - 3 * d223**2) * d122**4
        - (5 * d123**4 + 14 * d223**2 * d123**2) * d122**2
        - d123**4 * (3 * d123**2 + d223**2)
    )
    * d111
    + 8 * (-(d122**6) + 15 * d123**2 * d122**4 - 15 * d123**4 * d122**2 + d123**6) * d223**4
)

CANONICAL_BASIS = (I2_CANONICAL, I4_CANONICAL, I6_CANONICAL, I10_CANONICAL)

# The four invariants share their exact one-point evaluator.
_INVARIANT_SUM = _ExactSum(CANONICAL_BASIS)

# The determinant of the 4x4 Jacobian of the basis with respect to
# (d111, d122, d123, d223) splits into four polynomial factors: the
# coordinates d123 and d223**3 plus one quartic and one decic.  It vanishes
# identically on the union of the four factors' zero sets and nowhere else.
DET_FACTOR_4 = (
    9 * d111**4
    + 24 * d122 * d111**3
    - 24 * (d122**2 + d123**2) * d111**2
    - 32 * d122 * (3 * d122**2 + d123**2) * d111
    + 16 * (-3 * d122**4 - 2 * d123**2 * d122**2 + d123**4)
)

DET_FACTOR_10 = (
        16 * (3 * d122**2 - d223**2) * d111**8
        + 32 * (d122**3 + 3 * d123**2 * d122) * d111**7
        - 8
        * (18 * d122**4 + 3 * (4 * d123**2 + 3 * d223**2) * d122**2 - 6 * d123**4 - 5 * d223**4 - 18 * d123**2 * d223**2)
        * d111**6
        - 24
        * d122
        * (8 * d122**4 + (16 * d123**2 - d223**2) * d122**2 + 8 * d123**4 + d223**4 + 3 * d123**2 * d223**2)
        * d111**5
        - (
            64 * d122**6
            + 48 * (4 * d123**2 - 7 * d223**2) * d122**4
            + 3 * (64 * d123**4 + 96 * d223**2 * d123**2 + 7 * d223**4) * d122**2
            + 64 * d123**6
            + 25 * d223**6
            + 132 * d123**2 * d223**4
            + 240 * d123**4 * d223**2
        )
        * d111**4
        + 6
        * d122
        * d223**2
        * (48 * d122**4 + 4 * (8 * d123**2 - 3 * d223**2) * d122**2 - 16 * d123**4 + 5 * d223**4 - 8 * d123**2 * d223**2)
        * d111**3
        + 4
        * d223**2
        * (
            16 * d122**6
            + 6 * (8 * d123**2 - 7 * d223**2) * d122**4
            + (48 * d123**4 + 78 * d223**2 * d123**2 + 9 * d223**4) * d122**2
            + 16 * d123**6
            + 3 * d123**2 * d223**4
            + 12 * d123**4 * d223**2
        )
        * d111**2
        - 8 * d122 * (d122**2 - 3 * d123**2) * d223**4 * (12 * d122**2 - d223**2) * d111
        - 16 * (d122**3 - 3 * d122 * d123**2) ** 2 * d223**4
)

DET_JACOBIAN = 27648 * d123 * DET_FACTOR_4 * d223**3 * DET_FACTOR_10
