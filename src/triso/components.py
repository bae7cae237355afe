"""The seven-component layer, with no numpy at import time.

A symmetric traceless third-order tensor in three dimensions has seven free
components; the remaining entries follow from index symmetry and the
vanishing of every single-index trace.  This module holds the
seven-component value type, the one place that completes the traces and
lays out the three symmetric slices D_k (``_slices``, which
``tensor_core.expand`` and the invariants read), the kernels on them that
read the tensor in a rotated frame (``_in_frame``) and take its norm
(``_norm``, ``_scaled_norm``), the one scale rule of the kernels (a pass
on the components as given, run again at ``_unit_scale``'s power of two
only for a nonzero tensor whose ||T||^2 = I2 leaves ``_in_window``), the
checks an orthogonal transform's rows must pass (``_check_orthogonal``),
the rotation of a unit quaternion (``_quaternion_rows``), the tensor
JSON form, the integer core of every exact path (``_dyadic``: finite
floats as integers over one power of two; ``_rounded``: one correctly
rounded int / int, +-inf past the double range), and the constant and
error type that the command line's parser and ``main`` need (``GROUPS``,
``ConvergenceError``).  The value types are ``_Record`` subclasses, whose
``__init__`` sets each field through its slot's own setter, collected
once per class as ``_setters``.

Everything here is plain Python, so a command that needs only this layer,
the invariants and ``canonical_core`` (``triso invariants``,
``canonicalize`` and ``orbit-compare``) never imports numpy.  The array
code lives in ``tensor_core``, which re-exports these names as the same
objects, as ``canonical_form`` does for ``GROUPS`` and the error.
"""

from __future__ import annotations

import math

__all__ = [
    "COMPONENT_NAMES",
    "GROUPS",
    "ConvergenceError",
    "SymTraceless3",
    "tensor_to_json_obj",
    "tensor_from_json_obj",
]

COMPONENT_NAMES = ("d111", "d112", "d113", "d122", "d123", "d222", "d223")

# The groups a canonical form or an alignment can be taken under.
GROUPS = ("SO(3)", "O(3)")

# Orthogonality tolerance for transform validation.
ORTHO_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """The maximizer misses the stationarity tolerance."""


class _Record:
    """An immutable value with the fields named in ``__slots__``.

    It compares, hashes and prints by its field values in order, and
    refuses assignment, as a frozen dataclass does, without importing
    ``dataclasses`` (and the ``inspect`` it pulls in) on the numpy-free path
    of ``triso invariants``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each field's slot setter, in __slots__ order: a subclass's __init__
        # calls these, which cost less than object.__setattr__ by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class SymTraceless3(_Record):
    """The seven free components of a symmetric traceless third-order tensor."""

    __slots__ = COMPONENT_NAMES

    def __init__(self, d111=0.0, d112=0.0, d113=0.0, d122=0.0, d123=0.0, d222=0.0, d223=0.0):
        for name, setter, value in zip(COMPONENT_NAMES, self._setters, (d111, d112, d113, d122, d123, d222, d223)):
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"component {name} must be finite, got {value!r}")
            setter(self, value)

    def as_array(self):
        import numpy as np

        return np.array([getattr(self, name) for name in COMPONENT_NAMES])

    @classmethod
    def from_array(cls, values) -> "SymTraceless3":
        import numpy as np

        values = np.asarray(values, dtype=float).reshape(7)
        return cls(*values)


def _slices(d111, d112, d113, d122, d123, d222, d223) -> tuple:
    """The three symmetric slices (D_k)_ij = D_ijk of the tensor.

    Each is a 6-tuple in the layout (11, 22, 33, 12, 13, 23).  The three
    constrained diagonal families come from the vanishing traces:
    d133 = -d111-d122, d233 = -d112-d222 and d333 = -d113-d223.  Only +
    and unary -, so Fractions give exact results.
    """
    d133 = -d111 - d122
    d233 = -d112 - d222
    d333 = -d113 - d223
    return (
        (d111, d122, d133, d112, d113, d123),
        (d112, d222, d233, d122, d123, d223),
        (d113, d223, d333, d123, d133, d233),
    )


# Entry (i, j) of a symmetric matrix in the slice layout sits at _LAYOUT[i][j].
_LAYOUT = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _inner(p, q):
    """<P, Q> = sum_ij P_ij Q_ij of symmetric matrices in the slice layout."""
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2] + 2 * (p[3] * q[3] + p[4] * q[4] + p[5] * q[5])


def _in_frame(c, rows) -> tuple:
    """The seven components of the tensor c read in the orthonormal frame rows.

    Component abc is D(row_a, row_b, row_c): for the rows of g, g . T.  One
    straight-line pass over the slices: with A = D(row_1) and B = D(row_2),
    the symmetric matrices D_ijk x_k in the slice layout, it forms A row_1,
    A row_2 and B row_2 and dots each with the rows it pairs with.
    """
    ((p11, p22, p33, p12, p13, p23), (q11, q22, q33, q12, q13, q23),
     (r11, r22, r33, r12, r13, r23)) = _slices(*c)
    (x1, x2, x3), (y1, y2, y3), (z1, z2, z3) = rows
    a11, a22, a33 = p11 * x1 + q11 * x2 + r11 * x3, p22 * x1 + q22 * x2 + r22 * x3, p33 * x1 + q33 * x2 + r33 * x3
    a12, a13, a23 = p12 * x1 + q12 * x2 + r12 * x3, p13 * x1 + q13 * x2 + r13 * x3, p23 * x1 + q23 * x2 + r23 * x3
    b11, b22, b33 = p11 * y1 + q11 * y2 + r11 * y3, p22 * y1 + q22 * y2 + r22 * y3, p33 * y1 + q33 * y2 + r33 * y3
    b12, b13, b23 = p12 * y1 + q12 * y2 + r12 * y3, p13 * y1 + q13 * y2 + r13 * y3, p23 * y1 + q23 * y2 + r23 * y3
    e1, e2, e3 = a11 * x1 + a12 * x2 + a13 * x3, a12 * x1 + a22 * x2 + a23 * x3, a13 * x1 + a23 * x2 + a33 * x3
    f1, f2, f3 = a11 * y1 + a12 * y2 + a13 * y3, a12 * y1 + a22 * y2 + a23 * y3, a13 * y1 + a23 * y2 + a33 * y3
    h1, h2, h3 = b11 * y1 + b12 * y2 + b13 * y3, b12 * y1 + b22 * y2 + b23 * y3, b13 * y1 + b23 * y2 + b33 * y3
    return (e1 * x1 + e2 * x2 + e3 * x3, e1 * y1 + e2 * y2 + e3 * y3, e1 * z1 + e2 * z2 + e3 * z3,
            f1 * y1 + f2 * y2 + f3 * y3, f1 * z1 + f2 * z2 + f3 * z3,
            h1 * y1 + h2 * y2 + h3 * y3, h1 * z1 + h2 * z2 + h3 * z3)


def _det(rows) -> float:
    """The determinant of a 3x3 matrix of Python floats, by cofactors of the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _check_orthogonal(rows, det_sign) -> None:
    """Raise ValueError unless the 3x3 rows of Python floats are finite, orthogonal
    (m.T m = I within ORTHO_TOL) and of determinant det_sign (+1 or -1)."""
    if not all(math.isfinite(x) for row in rows for x in row):
        raise ValueError("matrix entries must be finite")
    if det_sign not in (1, -1):
        raise ValueError(f"det_sign must be +1 or -1, got {det_sign!r}")
    # entry (i, j) of m.T m is the dot product of columns i and j
    c0, c1, c2 = zip(*rows)
    err = max(abs(_dot(c0, c0) - 1.0), abs(_dot(c1, c1) - 1.0), abs(_dot(c2, c2) - 1.0),
              abs(_dot(c0, c1)), abs(_dot(c0, c2)), abs(_dot(c1, c2)))
    if err > ORTHO_TOL:
        raise ValueError(f"matrix is not orthogonal: max |m.T m - I| = {err:.3g}")
    det = _det(rows)
    if abs(det - det_sign) > ORTHO_TOL:
        raise ValueError(f"det(m) = {det:.17g} does not match det_sign = {det_sign:+d}")


def _quaternion_rows(w, x, y, z) -> list:
    """The rows of the rotation of the unit quaternion (w, x, y, z)."""
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def _ldexp(x: float, n: int) -> float:
    """x * 2**n, rounded as a double; +-inf where that overflows."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


def _dyadic(values) -> tuple[list, int]:
    """The finite floats values as integers over one common power of two: (numerators, 2^s)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _rounded(num: int, den: int) -> float:
    """num / den for integers, den > 0, rounded once to nearest even; +-inf past the double range."""
    try:  # int / int rounds correctly, and raises where the quotient leaves the double range
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _unit_scale(c) -> tuple:
    """k, and the components times the exact factor 2^-k that puts the largest in [1/2, 1)."""
    k = math.frexp(max(map(abs, c)))[1]
    return k, [math.ldexp(x, -k) for x in c]


def _in_window(i2: float) -> bool:
    """Whether a kernel pass on the components as given stands: ||T||^2 = I2 in [2^-120, 2^118).

    That is ||T|| in [2^-60, 2^59), and the largest component is in
    [||T|| / 7, ||T||], so every term of degree up to 10 stays below about
    2^600 and the dominant ones stay normal.  A power of two commutes with
    each + and *, so such a pass has the bits of a run at unit scale (short
    of terms that underflow at one scale and not the other, which takes
    components some 150 decades apart).  A nonzero tensor whose I2 is
    outside, +inf or 0.0 included, is run again at ``_unit_scale``'s k, the
    only scale that keeps the terms in range there.
    """
    return 2.0**-120 <= i2 < 2.0**118


def _squared_norm(c) -> float:
    """||T||^2 = <D_1, D_1> + <D_2, D_2> + <D_3, D_3>, in one pass on c as given."""
    s1, s2, s3 = _slices(*c)
    return _inner(s1, s1) + _inner(s2, s2) + _inner(s3, s3)


def _scaled_norm(c) -> tuple:
    """(n, k, c 2^-k) with ||T|| = n 2^k: k = 0 while ||T||^2 is in ``_in_window``, and
    otherwise ``_unit_scale``'s k, with a second pass.  So nothing overflows or underflows on
    the way, and n is finite even where ||T|| is beyond the double range.  The square root
    commutes with the power of four, so the bits are those of a run at unit scale."""
    n2 = _squared_norm(c)
    if not _in_window(n2) and any(c):
        k, c = _unit_scale(c)
        return math.sqrt(_squared_norm(c)), k, c
    return math.sqrt(n2), 0, c


def _norm(c) -> float:
    """||T|| = n 2^k from ``_scaled_norm``; +inf only beyond a double."""
    n, k, _ = _scaled_norm(c)
    return _ldexp(n, k)


def _is_number(value) -> bool:
    """Whether value is what a JSON number parses to: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_float(value, where: str) -> float:
    """float(value), raising ValueError naming where for an integer beyond the double range."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{where} must be within the double range, got an integer of {value.bit_length()} bits"
        ) from None


def check_json_numbers(value, where: str) -> None:
    """Raise ValueError, naming where, unless value is a number or nested lists of them.

    Every number must also convert to a double: JSON integers have no bound.
    """
    if isinstance(value, list):
        for item in value:
            check_json_numbers(item, where)
    elif not _is_number(value):
        raise ValueError(f"{where} must hold numbers, got {type(value).__name__}")
    else:
        _json_float(value, where)


def tensor_to_json_obj(s: SymTraceless3) -> dict:
    """Component dict with upper-case keys D111 ... D223."""
    return {name.upper(): getattr(s, name) for name in COMPONENT_NAMES}


def tensor_from_json_obj(obj: dict) -> SymTraceless3:
    """Parse a tensor from its JSON object form.

    Accepts either the seven component keys D111 ... D223 (missing keys
    default to zero) or, alone, a 27-element row-major list under the key
    "full", which ``compress`` validates like any raw array.  Any other
    key raises ValueError, as does any value that is not a JSON number,
    naming its key.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    known = {"full"} if "full" in obj else {name.upper() for name in COMPONENT_NAMES}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown tensor keys: {sorted(unknown)}")
    if "full" in obj:
        import numpy as np

        from .tensor_core import FullTensor3, compress

        check_json_numbers(obj["full"], 'key "full"')
        flat = np.asarray(obj["full"], dtype=float)
        if flat.size != 27:
            raise ValueError(f'key "full" must hold 27 numbers, got {flat.size}')
        return compress(FullTensor3(flat.reshape(3, 3, 3)))
    values = {}
    for name in COMPONENT_NAMES:
        value = obj.get(name.upper(), 0.0)
        if not _is_number(value):
            raise ValueError(f'key "{name.upper()}" must be a number, got {type(value).__name__}')
        values[name] = _json_float(value, f'key "{name.upper()}"')
    return SymTraceless3(**values)
