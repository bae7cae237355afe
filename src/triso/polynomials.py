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

Real points have one evaluator (``_MonomialTable``): a table of powers per
coordinate, the monomial matrix gathered from it and one matmul, in chunks
of rows.  The four invariants share one (``_INVARIANT_TABLE``);
``Poly.eval_many`` is the one-polynomial case and ``Poly.__call__`` its
one-point case.
"""

from __future__ import annotations

import numpy as np

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
    and integer powers; differentiation is exact as well.  Evaluation
    converts to float arithmetic.
    """

    __slots__ = ("terms", "_eval_cache")

    def __init__(self, terms: dict | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}
        self._eval_cache = None

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
        return float(self.eval_many(np.reshape(point, (1, NVARS)))[0])

    def eval_many(self, points) -> np.ndarray:
        """Evaluate at an (n, 4) array of real points: the one-polynomial case of _MonomialTable."""
        if self._eval_cache is None:
            self._eval_cache = _MonomialTable((self,))
        return self._eval_cache(points)[:, 0]

    def __repr__(self):
        return f"Poly({len(self.terms)} terms, degree {self.degree()})"


# Rows evaluated at once: peak memory stays flat however many points come in.
_CHUNK_ROWS = 128


class _MonomialTable:
    """Evaluate a fixed tuple of polynomials at many points at once.

    The polynomials share one table of M monomials, the union of their
    terms, and one constant (M, P) float coefficient matrix.  At an (n, 4)
    real array (a complex one raises TypeError), the powers of each
    coordinate up to the top exponent come from repeated multiplication; the
    (M, n) monomial matrix is gathered from them, and a matmul gives the
    (n, P) values.  Rows run in chunks of _CHUNK_ROWS.

    Points are evaluated more accurately than plain double arithmetic
    allows, since the Jacobian entries and determinant factors cancel by up to
    seven digits at some sampled points.  Monomials are formed in extended
    precision (np.longdouble, a 64-bit significand on x86) and split into two
    doubles; the leading double is cut to a per-point grid coarse enough that
    its products with integer coefficients, and every partial sum, are exact
    in any summation order.  Only the small remainder is summed in plain
    double arithmetic.  The error is then near 2^-64 times the sum of |terms|,
    where plain double evaluation leaves 2^-53 times it or more.  Where
    np.longdouble is a plain double, the low part is 0 and only the summation
    stays exact.
    """

    def __init__(self, polys):
        monomials = sorted(set().union(*(p.terms for p in polys)))
        row = {e: i for i, e in enumerate(monomials)}
        self.exponents = np.array(monomials, dtype=np.intp).reshape(len(monomials), NVARS)
        self.coeffs = np.zeros((len(monomials), len(polys)))
        for j, p in enumerate(polys):
            for e, c in p.terms.items():
                self.coeffs[row[e], j] = float(c)
        self._top = int(self.exponents.max(initial=0))
        # each monomial is (x0^a x1^b) (x2^c x3^d): the distinct exponent pairs
        # of each half, as rows of a chunk's flattened (top + 1, NVARS) power
        # table, and which pair every monomial takes
        self._halves = []
        for cols in ((0, 1), (2, 3)):
            pairs, which = np.unique(self.exponents[:, cols], axis=0, return_inverse=True)
            self._halves.append(((pairs * NVARS + cols).T.copy(), which.reshape(-1)))
        # bits above a point's largest monomial that any partial sum can reach:
        # the coefficients' largest column sum of magnitudes is below 2^(headroom - 1)
        self._headroom = int(np.frexp(max(np.abs(self.coeffs).sum(axis=0).max(initial=0.0), 1.0))[1]) + 1

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points)
        if np.iscomplexobj(points):
            raise TypeError("points must be real, got a complex array")
        points = points.astype(float, copy=False).reshape(-1, NVARS)
        n = len(points)
        rows = max(1, min(n, _CHUNK_ROWS))
        out = np.empty((-(-n // rows) * rows, self.coeffs.shape[1]))
        # work buffers shared by every chunk: powers[e, k, row] = x_k^e, and
        # the (M, rows) monomial matrix as the product of its two halves
        powers = np.empty((max(self._top, 1) + 1, NVARS, rows), np.longdouble)
        monomials = np.empty((len(self.exponents), rows), np.longdouble)
        factor = np.empty_like(monomials)
        for start in range(0, n, rows):
            chunk = points[start : start + rows]
            powers[0] = 1.0
            powers[1, :, : len(chunk)] = chunk.T
            powers[1, :, len(chunk) :] = 0.0  # the last chunk's padding rows
            for e in range(2, self._top + 1):
                np.multiply(powers[e - 1], powers[1], out=powers[e])
            table = powers.reshape(-1, rows)
            for target, ((first, second), which) in zip((monomials, factor), self._halves):
                np.take(table[first] * table[second], which, axis=0, out=target, mode="clip")
            monomials *= factor
            block = out[start : start + rows]
            high = monomials.astype(float)
            low = (monomials - high).astype(float)
            # lead: a multiple of 2^(e + headroom - 53) at most 2^e, so its
            # products with integer coefficients and all their partial
            # sums fit in 53 bits (the cap keeps the grid finite near overflow)
            _, e = np.frexp(np.max(np.abs(high), axis=0, initial=0.0))
            grid = np.ldexp(1.0, np.minimum(e + self._headroom, 1023))
            lead = (high + grid) - grid
            np.matmul(lead.T, self.coeffs, out=block)
            block += ((high - lead) + low).T @ self.coeffs
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

# The four invariants share their evaluator: (n, 4) points give (n, 4) values.
_INVARIANT_TABLE = _MonomialTable(CANONICAL_BASIS)

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
