"""The seven-component layer, with no numpy at import time.

A symmetric traceless third-order tensor in three dimensions has seven free
components; the remaining entries follow from index symmetry and the
vanishing of every single-index trace.  This module holds the
seven-component value type, the one place that completes the traces and
lays out the three symmetric slices D_k (``_slices``, which
``tensor_core.expand`` and the invariants read), the tensor JSON form, and
the constant and error type that the command line's parser and ``main``
need (``GROUPS``, ``ConvergenceError``).

Everything here is plain Python, so a command that needs only this layer
and the invariants (``triso invariants``) never imports numpy.  The array
code lives in ``tensor_core``, which re-exports these names as the same
objects, as ``canonical_form`` does for ``GROUPS`` and the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class ConvergenceError(RuntimeError):
    """The maximizer misses the stationarity tolerance."""


@dataclass(frozen=True)
class SymTraceless3:
    """The seven free components of a symmetric traceless third-order tensor."""

    d111: float = 0.0
    d112: float = 0.0
    d113: float = 0.0
    d122: float = 0.0
    d123: float = 0.0
    d222: float = 0.0
    d223: float = 0.0

    def __post_init__(self):
        for name in COMPONENT_NAMES:
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"component {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

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
