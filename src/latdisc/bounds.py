"""Certified inequalities and the per-lattice verification report.

The quantities tying the spectral test sigma(L) to the isotropic
discrepancy J_N of the node set are

    J_N >= sigma / sqrt(d)                  (thick empty slab),
    J_N <= d^2 2^d sigma                    (convex bodies meet few slabs),
    sigma >= mink_d N^{-1/d}                (Minkowski's convex body theorem),
    J_N  >= c_d N^{-1/d}                    (combining the first and third),

with mink_d = (sqrt(pi)/2) Gamma(d/2+1)^{-1/d} and c_d = mink_d / sqrt(d).
verify_lattice certifies each of them for one lattice: the Minkowski floor
through minkowski_sigma_check, c_d N^{-1/d} through two-sided rational
enclosures built from directed arithmetic (Gamma at half-integers is an
exact rational times sqrt(pi), so enclosures tighten on demand), and
d^2 2^d sigma through discrepancy.sigma_upper_bound.  Every inequality is
either decided in exact rational arithmetic (all squared or d = 1 cases)
or by refining enclosures until they separate.

A dimension-free constant c > 0 with J_N >= c N^{-1/d} for every d is known
to exist, but no explicit value is available; only the dimension-dependent
coefficients above are certified here (see DIMENSION_FREE_NOTE).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import directed, discrepancy, lattice as lattice_mod, reduction
from .directed import Bounds
from .errors import InputError
from .lattice import IntegrationLattice

DIMENSION_FREE_NOTE = (
    "a dimension-free constant c > 0 with J_N >= c N^(-1/d) exists for all "
    "dimensions simultaneously, but no explicit value is known; only the "
    "dimension-dependent coefficients reported here are certified"
)


# ---------------------------------------------------------------------------
# Gamma at half-integer arguments and the Minkowski floor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaValue:
    """Gamma at an integer or half-integer point: rational * sqrt(pi)^{0,1}."""

    rational: Fraction
    sqrt_pi: bool


def gamma_half_integer(two_z: int) -> GammaValue:
    """Exact Gamma(two_z / 2) for positive integer two_z.

    Gamma(n) = (n-1)! and Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!).
    """
    if two_z <= 0:
        raise InputError("gamma_half_integer needs a positive argument")
    if two_z % 2 == 0:
        z = two_z // 2
        return GammaValue(Fraction(factorial(z - 1)), False)
    n = two_z // 2
    return GammaValue(Fraction(factorial(2 * n), 4**n * factorial(n)), True)


def _minkowski_sq_bounds(gamma: GammaValue, d: int, digits: int) -> Bounds:
    """Enclosure of mink_d^2 = (pi/4) Gamma(d/2+1)^{-2/d}, d >= 2."""
    # Gamma^{-2/d} via (Gamma^2)^{-1/d}; Gamma^2 is rational or rational *
    # pi, so the root sees a tight base interval
    pi_b = directed.pi_bounds(digits)
    sq = Fraction(gamma.rational) ** 2
    base = directed.scale(pi_b, sq) if gamma.sqrt_pi else directed.exact(sq)
    gamma_pow = directed.recip(directed.root_of_bounds(base, d, digits))
    return directed.mul(directed.scale(pi_b, Fraction(1, 4)), gamma_pow)


def minkowski_sigma_check(
    d: int, n_points: int, lam_sq, digits: int = directed.DEFAULT_DIGITS
) -> bool:
    """Decide sigma >= mink_d N^{-1/d} given the squared dual minimum.

    Raising the inequality to the 2d-th power clears every root: with
    Gamma(d/2+1) = r sqrt(pi)^s it reads

        4^d r^2 N^2  >=  pi^(d-s) (lambda_1^2)^d.

    For d = 1 the exponent d - s vanishes and the comparison is exact
    rational (equality occurs, e.g. for Z itself); for d >= 2 the right
    side is a positive rational times a positive power of pi, so the two
    sides are never equal and interval refinement always decides.
    """
    if d < 1:
        raise InputError("dimension must be positive")
    gamma = gamma_half_integer(d + 2)
    s = 1 if gamma.sqrt_pi else 0
    lhs = 4**d * gamma.rational**2 * n_points**2
    rhs_rational = lam_sq**d
    e = d - s
    if e == 0:
        return rhs_rational <= lhs

    def rhs(dg):
        pi = directed.pi_bounds(dg)  # pi > 0 and e >= 1
        return directed.scale(directed.Bounds(pi.lo**e, pi.hi**e), rhs_rational)

    return directed.certify_le(rhs, lambda dg: directed.exact(lhs), digits)


# ---------------------------------------------------------------------------
# per-lattice verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Certified bounds and consistency checks for one integration lattice.

    All decimal strings are directed: lower bounds render down, upper
    bounds render up, so the printed digits are themselves certified.
    """

    name: str
    dim: int
    n_points: int
    sigma_sq: Fraction
    sigma_decimal: str
    minkowski_sigma_lb_decimal: str
    jn_upper_sq: Fraction
    jn_upper_decimal: str
    certified_jn_lb: Fraction
    certified_jn_lb_decimal: str
    checks: dict
    digits: int
    slab_certificate: discrepancy.SlabCertificate
    plane_certificate: discrepancy.HyperplaneCountCertificate

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dim": self.dim,
            "n_points": self.n_points,
            "sigma_sq": str(self.sigma_sq),
            "sigma": self.sigma_decimal,
            "minkowski_sigma_lb": self.minkowski_sigma_lb_decimal,
            "jn_upper_sq": str(self.jn_upper_sq),
            "jn_upper": self.jn_upper_decimal,
            "certified_jn_lb": str(self.certified_jn_lb),
            "certified_jn_lb_decimal": self.certified_jn_lb_decimal,
            "checks": dict(self.checks),
            "digits": self.digits,
            "slab_certificate": self.slab_certificate.to_dict(),
            "plane_certificate": self.plane_certificate.to_dict(),
            "note": DIMENSION_FREE_NOTE,
        }


def verify_lattice(
    lat: IntegrationLattice,
    name: str = "lattice",
    digits: int = directed.DEFAULT_DIGITS,
    svp_cap: int = reduction.DEFAULT_SVP_CAP,
    enum_cap: int = lattice_mod.DEFAULT_ENUM_CAP,
) -> BoundsReport:
    """Run every certified bound and cross-check on one lattice.

    Checks (all exact or interval-certified):
      sigma_vs_minkowski:       sigma >= mink_d N^{-1/d};
      certified_lb_vs_sigma_ub: the certified J_N lower bound stays below
                                the d^2 2^d sigma upper bound;
      pigeonhole_count:         max plane count satisfies
                                (max/N)^2 d >= sigma^2;
      lb_sandwich_consistent:   c_d N^{-1/d} <= sigma/sqrt(d).

    The d = 1 cases of the two interval checks degenerate to exact integer
    comparisons (the constants are exactly 1 there, so equality is possible
    and interval refinement could never terminate).
    """
    digits = directed._check_digits(digits)
    d = lat.dim
    n = lat.n_points
    spectral = reduction.spectral_test(lat, digits=digits, svp_cap=svp_cap)
    lam_sq = spectral.shortest_dual_norm_sq
    pts = lattice_mod.enumerate_points(lat, cap=enum_cap)
    planes = discrepancy.hyperplane_count_certificate(lat, pts, spectral)
    slab = discrepancy.slab_certificate(planes)
    certified = max(slab.implied_lower_bound, planes.implied_lower_bound)

    gamma = gamma_half_integer(d + 2)
    n_sq = n**2

    def mink_over_root_sq(dg: int) -> Bounds:
        # (mink_d N^{-1/d})^2 = (pi/4) Gamma^{-2/d} / N^{2/d}
        return directed.div(
            _minkowski_sq_bounds(gamma, d, dg), directed.nth_root_bounds(n_sq, d, dg)
        )

    checks = {}
    checks["sigma_vs_minkowski"] = minkowski_sigma_check(d, n, lam_sq, digits)
    # (c_d N^{-1/d})^2 = mink^2 N^{-2/d} / d vs sigma^2 / d: the same
    # inequality scaled by 1/d on both sides, but certified through the
    # independent enclosure pipeline as a cross-check of the exact path
    if d == 1:
        checks["lb_sandwich_consistent"] = lam_sq <= n_sq
    else:
        checks["lb_sandwich_consistent"] = directed.certify_le(
            lambda dg: directed.scale(mink_over_root_sq(dg), Fraction(1, d)),
            lambda dg: directed.exact(spectral.sigma_sq / d),
            digits,
        )
    jn_upper_sq, jn_upper_decimal = discrepancy.sigma_upper_bound(
        d, spectral.sigma_sq, digits
    )
    checks["certified_lb_vs_sigma_ub"] = certified**2 <= jn_upper_sq
    checks["pigeonhole_count"] = planes.max_count**2 * d * lam_sq >= n_sq

    mink_lb = mink_over_root_sq(digits) if d > 1 else directed.exact(Fraction(1, n) ** 2)
    return BoundsReport(
        name=name,
        dim=d,
        n_points=n,
        sigma_sq=spectral.sigma_sq,
        sigma_decimal=spectral.sigma_decimal,
        minkowski_sigma_lb_decimal=directed.decimal_str(
            directed.root_of_bounds(mink_lb, 2, digits).lo, digits, "down"
        ),
        jn_upper_sq=jn_upper_sq,
        jn_upper_decimal=jn_upper_decimal,
        certified_jn_lb=certified,
        certified_jn_lb_decimal=directed.decimal_str(certified, digits, "down"),
        checks=checks,
        digits=digits,
        slab_certificate=slab,
        plane_certificate=planes,
    )

