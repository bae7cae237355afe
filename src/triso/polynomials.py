"""Exact polynomial tables for the canonical-coordinate invariants.

After canonicalization a tensor is described by four parameters
(d111, d122, d123, d223), and each of the four isotropic invariants is a
closed-form polynomial in them, as is the determinant of their 4x4 Jacobian.
Those polynomials are transcribed here once, as monomial tables with exact
integer coefficients; evaluation and exact differentiation both run off the
tables, so a single audited transcription backs every consumer.  Any
transcription slip surfaces immediately against the full-array contraction
path (see tests).
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

    def _tables(self):
        if self._eval_cache is None:
            exponents = np.array(sorted(self.terms), dtype=np.int64).reshape(len(self.terms), NVARS)
            coeffs = np.array([float(self.terms[tuple(e)]) for e in exponents])
            self._eval_cache = (exponents, coeffs)
        return self._eval_cache

    def __call__(self, point) -> float:
        point = np.asarray(point, dtype=float).reshape(NVARS)
        if not self.terms:
            return 0.0
        exponents, coeffs = self._tables()
        return float(np.prod(point[None, :] ** exponents, axis=1) @ coeffs)

    def _eval_complex_many(self, points) -> np.ndarray:
        """Evaluate at an (n, 4) array of complex points, for complex steps.

        Powers come from repeated multiplication, so an imaginary part far
        below the real one (a step of 1e-30) is carried as in exact
        arithmetic, up to roundoff relative to itself.
        """
        points = np.asarray(points, dtype=complex).reshape(-1, NVARS)
        if not self.terms:
            return np.zeros(len(points), dtype=complex)
        exponents, coeffs = self._tables()
        n, top = len(points), int(exponents.max())
        steps = np.broadcast_to(points[:, None, :], (n, top, NVARS))
        powers = np.cumprod(np.concatenate([np.ones((n, 1, NVARS)), steps], axis=1), axis=1)
        return np.prod(powers[:, exponents, np.arange(NVARS)], axis=2) @ coeffs

    def eval_many(self, points) -> np.ndarray:
        """Evaluate at an (n, 4) array of points."""
        points = np.asarray(points, dtype=float).reshape(-1, NVARS)
        if not self.terms:
            return np.zeros(len(points))
        exponents, coeffs = self._tables()
        return np.prod(points[:, None, :] ** exponents[None, :, :], axis=2) @ coeffs

    def __repr__(self):
        return f"Poly({len(self.terms)} terms, degree {self.degree()})"


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
