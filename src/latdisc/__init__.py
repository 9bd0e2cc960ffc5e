"""Exact-arithmetic toolkit for integration lattices.

Spectral tests, certified isotropic-discrepancy bounds, constructions, and
a CLI.  All core quantities are exact rationals; irrational values (square
roots, pi, Gamma at half-integers) are handled as two-sided rational
enclosures with directed rounding, so every printed digit and every
inequality verdict is certified.

The integer kernels (Gauss and LLL reduction, shortest-vector enumeration)
are plain Python; `kernel_implementation` is the constant "pure", kept so that
recorded results can say which kernels produced them.
"""

kernel_implementation = "pure"

from .errors import (
    CapExceededError,
    InputError,
    InvariantViolationError,
    LatdiscError,
    NotIntegrationLatticeError,
    RankDeficientError,
    UndecidableComparisonError,
)
from .linalg import gram_schmidt, hnf, inverse
from .lattice import (
    IntegrationLattice,
    PointSet,
    dual,
    enumerate_points,
    from_basis,
    from_json,
    from_rank1,
    to_json,
)
from .reduction import (
    SpectralResult,
    shortest_vector,
    spectral_test,
)
from .volume import (
    AxisBox,
    ConvexBody,
    Halfspace,
    Slab,
    body_contains,
    body_to_dict,
    body_volume,
    halfspace_cube_volume,
    local_discrepancy,
)
from .discrepancy import (
    DiscrepancyEstimate,
    HyperplaneCountCertificate,
    SlabCertificate,
    estimate_isotropic_discrepancy,
    hyperplane_count_certificate,
    slab_certificate,
)
from .constructions import (
    GeneratorSearchResult,
    bad_lattice,
    fibonacci_lattice,
    korobov_lattice,
    korobov_search,
    scaled_integer_lattice,
)
from .bounds import (
    BoundsReport,
    GammaValue,
    gamma_half_integer,
    minkowski_sigma_check,
    verify_lattice,
)
from .directed import Bounds, decimal_str, pi_bounds, sqrt_bounds

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "kernel_implementation",
    # errors
    "LatdiscError",
    "InputError",
    "RankDeficientError",
    "NotIntegrationLatticeError",
    "CapExceededError",
    "UndecidableComparisonError",
    "InvariantViolationError",
    # linear algebra
    "inverse",
    "hnf",
    "gram_schmidt",
    # lattices
    "IntegrationLattice",
    "PointSet",
    "from_rank1",
    "from_basis",
    "from_json",
    "to_json",
    "dual",
    "enumerate_points",
    # reduction and spectral test
    "shortest_vector",
    "SpectralResult",
    "spectral_test",
    # bodies and volumes
    "Halfspace",
    "Slab",
    "AxisBox",
    "ConvexBody",
    "halfspace_cube_volume",
    "body_volume",
    "body_contains",
    "local_discrepancy",
    "body_to_dict",
    # discrepancy
    "SlabCertificate",
    "slab_certificate",
    "HyperplaneCountCertificate",
    "hyperplane_count_certificate",
    "DiscrepancyEstimate",
    "estimate_isotropic_discrepancy",
    # constructions
    "fibonacci_lattice",
    "scaled_integer_lattice",
    "bad_lattice",
    "korobov_lattice",
    "korobov_search",
    "GeneratorSearchResult",
    # bounds and verification
    "GammaValue",
    "gamma_half_integer",
    "minkowski_sigma_check",
    "BoundsReport",
    "verify_lattice",
    # directed arithmetic
    "Bounds",
    "sqrt_bounds",
    "pi_bounds",
    "decimal_str",
]
