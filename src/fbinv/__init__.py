"""fbinv: exact decision procedures for output-feedback invariants.

Everything is computed over exact rationals: homogeneous autoregressive
systems, state-space and pencil conversions, nondegeneracy and the geometric
(semi)stability criterion, and the Grassmannian invariant of single-output
systems.
"""

from .arsys import (
    ARSystem,
    SyzygyBasis,
    act_T,
    compute_Q,
    is_observable,
    observable_part,
    rho_embedding,
    validate,
)
from .grassmann import GrassmannPoint
from .ideals import GroebnerBudget, IdealStatus, IdealVerdict, groebner, solve_if_zero_dimensional
from .linalg import RatMatrix, Rational, frac, rref
from .miso import ambient_dimension_N, miso_equivalent, miso_invariant
from .multipoly import MultiPoly
from .pencil import (
    PencilSystem,
    act_pencil,
    from_state_space,
    is_admissible,
    is_controllable,
    to_ar,
    to_state_space,
)
from .poly import HomPoly, UniPoly, dehomogenize, homogenize
from .polymatrix import (
    HomPolyMatrix,
    determinant,
    generic_rank,
    maximal_minors,
    poly_gcd_list,
    rank_at_point,
)
from .realization import (
    MFD,
    FeedbackTransform,
    StateSpace,
    apply_extended_feedback,
    apply_full_feedback,
    extended_action_consistency,
    left_coprime_mfd,
    to_hom_ar,
)
from .stability import (
    DegeneracyStatus,
    DegeneracyVerdict,
    GradedBound,
    StabilityMode,
    StabilityStatus,
    StabilityVerdict,
    is_nondegenerate,
    stability_check,
)

__version__ = "0.1.0"
