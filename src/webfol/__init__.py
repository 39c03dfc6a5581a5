"""Exact-arithmetic toolkit for webs and foliations on projective space.

Submodules:

- :mod:`webfol.poly` -- sparse multivariate polynomials over the rationals;
- :mod:`webfol.forms` -- twisted k-symmetric 1-forms in homogeneous
  coordinates (validation, degree, Lie derivatives, line restriction,
  pointwise square-freeness);
- :mod:`webfol.projective` -- the PGL action: pullback, invariance, the
  polynomial system cutting out the symmetry group, finite closure;
- :mod:`webfol.blowup` -- plane blow-ups, reduced singularities, and
  intersection-number transport;
- :mod:`webfol.bounds` -- exact big-integer order bounds;
- :mod:`webfol.cli` -- the ``fol`` command-line front end.
"""

from .blowup import (
    BlowupResult,
    LocalFoliation,
    Reducedness,
    SurfaceNumbers,
    ampleness_necessary_check,
    blowup_point,
    canonical_transform,
    reduced_check,
)
from .bounds import (
    BoundReport,
    CharNumbers,
    check_report_size,
    decimal_digit_count,
    duality_transform,
    foliation_aut_bound,
    int_to_decimal,
    pluricanonical_multiple,
    power_digit_count,
    section_bound,
    tangency_numbers,
    very_ampleness_threshold,
    web_aut_bound,
    web_bound_parts,
)
from .errors import (
    CapExceededError,
    ComputationError,
    GeneratorError,
    InputError,
    NonGenericLineError,
    SingularPointError,
    ValidationError,
    WebfolError,
)
from .forms import (
    BinaryForm,
    SymForm,
    SymTensor,
    euler_contraction,
    generic_sample_points,
    is_integrable,
    is_squarefree_at,
    kf_degree,
    lie_derivative,
    flow_preserves,
    multi_indices,
    proportionality_constant,
    restrict_to_line,
    sample_schedule,
    specialise_at_point,
    web_degree,
)
from .poly import Polynomial, poly_gcd, poly_gcd_many
from .projective import (
    DEFAULT_CLOSURE_CAP,
    BezoutSystem,
    FiniteGroup,
    ProjMap,
    export_system,
    group_closure,
    invariance_system,
    invariance_system_symbolic,
    parse_system,
    preserves,
    preserving_candidates,
    pullback,
    pullback_tensor,
    signed_permutations,
    verify_bound,
)

__version__ = "0.1.0"
