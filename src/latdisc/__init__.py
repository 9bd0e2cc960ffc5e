"""Exact-arithmetic toolkit for integration lattices.

Spectral tests, certified isotropic-discrepancy bounds, constructions, and
a CLI.  All core quantities are exact rationals; irrational values (square
roots, pi, Gamma at half-integers) are handled as two-sided rational
enclosures with directed rounding, so every printed digit and every
inequality verdict is certified.

The integer kernels (Gauss and LLL reduction, shortest-vector enumeration)
are plain Python; `kernel_implementation` is the constant "pure", kept so that
recorded results can say which kernels produced them.

The package loads its modules lazily: `import latdisc` imports none of
them, `import latdisc.<module>` imports that module and what it imports,
and a public name such as `latdisc.spectral_test` imports its module on
first use.  Each access looks the name up in its module again, so
`latdisc.X is latdisc.<module>.X` always holds.
"""

__version__ = "0.1.0"
kernel_implementation = "pure"

from importlib import import_module as _import_module

# every library module -> its public names, in the order of `__all__`
_EXPORTS = {
    "errors": (
        "LatdiscError", "InputError", "RankDeficientError",
        "NotIntegrationLatticeError", "CapExceededError",
        "UndecidableComparisonError", "InvariantViolationError",
    ),
    "linalg": ("inverse", "hnf", "gram_schmidt"),
    "kernels": (),
    "lattice": (
        "IntegrationLattice", "PointSet", "from_rank1", "from_basis",
        "from_json", "to_json", "dual", "enumerate_points",
    ),
    "reduction": ("shortest_vector", "SpectralResult", "spectral_test"),
    "volume": (
        "Halfspace", "Slab", "AxisBox", "ConvexBody", "halfspace_cube_volume",
        "body_volume", "body_contains", "local_discrepancy", "body_to_dict",
    ),
    "discrepancy": (
        "SlabCertificate", "slab_certificate", "HyperplaneCountCertificate",
        "hyperplane_count_certificate", "DiscrepancyEstimate",
        "estimate_isotropic_discrepancy",
    ),
    "constructions": (
        "fibonacci_lattice", "scaled_integer_lattice", "bad_lattice",
        "korobov_lattice", "korobov_search", "GeneratorSearchResult",
    ),
    "bounds": (
        "GammaValue", "gamma_half_integer", "minkowski_sigma_check",
        "BoundsReport", "verify_lattice",
    ),
    "directed": ("Bounds", "sqrt_bounds", "pi_bounds", "decimal_str"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "kernel_implementation", *_MODULE_OF]


def __getattr__(name):
    # not cached in the package globals: a caller sees whatever the module
    # holds now, e.g. a wrapper a tracer has installed there
    if name in _MODULE_OF:
        return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
