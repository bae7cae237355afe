"""Isotropic invariants of third-order 3D symmetric traceless tensors.

Computes the degree-(2, 4, 6, 10) Smith-Bao integrity basis, canonical
forms under the orthogonal group, numerical evidence for the basis's
functional independence, and an alignment through canonical frames that
cross-validates invariant-based orbit tests.

Each public name is imported from its module the first time it is used
(PEP 562), so ``import triso`` loads no numerical module and a caller pays
only for the modules it touches.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# The module that defines each public name.
_EXPORTS = {
    **dict.fromkeys(
        ("CanonicalResult", "ConvergenceError", "SphereMaximizer", "canonicalize",
         "maximize_cubic_on_sphere", "stationarity_residual"),
        "canonical_form",
    ),
    **dict.fromkeys(
        ("IndependenceReport", "JacobianReport", "det_jacobian_closed_form",
         "independence_report", "jacobian_canonical", "jacobian_report"),
        "independence",
    ),
    **dict.fromkeys(
        ("CanonicalParams", "InvariantTuple", "canonical_invariants", "invariant_distance",
         "moment_matrix", "relative_error", "smith_bao", "v_vector"),
        "invariants",
    ),
    **dict.fromkeys(
        ("AlignmentResult", "best_alignment", "degree_normalized_invariants", "same_orbit"),
        "orbit_oracle",
    ),
    **dict.fromkeys(("CANONICAL_BASIS", "DET_JACOBIAN", "Poly"), "polynomials"),
    **dict.fromkeys(
        ("GapReport", "ReferenceCase", "f_of_t", "f_root", "i6_gap_check", "reference_cases",
         "run_report"),
        "reference_cases",
    ),
    **dict.fromkeys(
        ("FullTensor3", "OrthogonalTransform3", "SymTraceless3", "act", "compress", "expand",
         "random_orthogonal", "random_tensor", "st_dimension", "tensor_from_json_obj",
         "tensor_to_json_obj"),
        "tensor_core",
    ),
}

__all__ = sorted(_EXPORTS)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # The first import of a submodule binds it here.  The function
        # reference_cases shares its module's name, and the function stays
        # bound, as it did when this package imported every module.
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS.values()))
