"""Isotropic invariants of third-order 3D symmetric traceless tensors.

Computes the degree-(2, 4, 6, 10) Smith-Bao integrity basis, canonical
forms under the orthogonal group, numerical evidence for the basis's
functional independence, and an alignment through canonical frames that
cross-validates invariant-based orbit tests.
"""

from .canonical_form import (
    CanonicalResult,
    ConvergenceError,
    SphereMaximizer,
    canonicalize,
    maximize_cubic_on_sphere,
    stationarity_residual,
)
from .independence import (
    IndependenceReport,
    JacobianReport,
    det_jacobian_closed_form,
    independence_report,
    jacobian_canonical,
    jacobian_report,
)
from .invariants import (
    CanonicalParams,
    InvariantTuple,
    canonical_invariants,
    moment_matrix,
    relative_error,
    smith_bao,
    v_vector,
)
from .orbit_oracle import (
    AlignmentResult,
    best_alignment,
    degree_normalized_invariants,
    invariant_distance,
    same_orbit,
)
from .polynomials import CANONICAL_BASIS, DET_JACOBIAN, Poly
from .reference_cases import (
    GapReport,
    ReferenceCase,
    f_of_t,
    f_root,
    i6_gap_check,
    reference_cases,
    run_report,
)
from .tensor_core import (
    FullTensor3,
    OrthogonalTransform3,
    SymTraceless3,
    act,
    compress,
    expand,
    random_orthogonal,
    random_tensor,
    st_dimension,
    tensor_from_json_obj,
    tensor_to_json_obj,
)

__version__ = "0.1.0"
