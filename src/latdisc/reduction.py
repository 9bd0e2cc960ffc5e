"""Basis reduction, exact shortest vectors, and the spectral test.

The spectral test of an integration lattice L is

    sigma(L) = 1 / min{ ||h||_2 : h in L-perp, h != 0 },

the reciprocal of the length of a shortest nonzero dual vector.  Its
geometric meaning: the points of L lie on a family of parallel hyperplanes
orthogonal to that shortest dual vector h, consecutive planes exactly
sigma(L) apart, so a large sigma certifies a coarse hyperplane structure.

Everything here is exact.  LLL reduction runs in all-integer arithmetic on a
scaled copy of the basis and its defining inequalities are re-checked on the
output (rather than trusted).  The shortest vector comes from a
Fincke-Pohst enumeration over the reduced basis that runs in integers only:
it works on the same integral Gram-Schmidt data as LLL (Gram determinants
d_i and lambda_ij = d_{j+1} mu_ij), scales every partial squared norm by one
common multiple of the d_i d_{i+1}, and bounds each coefficient with an
integer square root, so no Fraction and no float enters the tree.  Squared
norms are the working currency throughout, which keeps every comparison
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import directed, kernels, lattice as lattice_mod, linalg
from .errors import CapExceededError, InputError, InvariantViolationError
from .linalg import RationalMatrix, Vector, dot

DEFAULT_SVP_CAP = 12


# ---------------------------------------------------------------------------
# LLL with post-hoc certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedBasis:
    """An LLL-reduced basis together with its exact Gram-Schmidt data.

    Construction re-derives the Gram-Schmidt orthogonalization in rational
    arithmetic and checks, exactly:

    - size reduction: |mu_{i,j}| <= 1/2 for j < i;
    - the Lovasz condition at the reduction parameter delta;
    - (a) ||b*_j||^2 <= 2^(i-j) ||b*_i||^2 for all j <= i;
    - (b) ||b_i||^2 <= 2^(d-1) ||b*_i||^2;
    - the chain  2^(d-1) ||b*_d||^2 >= max_i ||b*_i||^2  and
      2^(d-1) max_i ||b*_i||^2 >= max_i ||b_i||^2.

    (a) and (b) are checked with base 2 regardless of delta; for
    delta >= 3/4 they are theorems, for smaller delta construction may
    legitimately fail with InvariantViolationError.
    """

    basis: RationalMatrix
    gso: RationalMatrix
    mu: RationalMatrix
    delta: Fraction

    def __post_init__(self):
        failures = [name for name, ok in self.check_properties().items() if not ok]
        if failures:
            raise InvariantViolationError(
                f"reduced-basis certificate failed: {', '.join(failures)}"
            )

    @property
    def dim(self) -> int:
        return self.basis.n_rows

    def row_norms_sq(self) -> list[Fraction]:
        return [dot(row, row) for row in self.basis.rows]

    def gso_norms_sq(self) -> list[Fraction]:
        return [dot(row, row) for row in self.gso.rows]

    def check_properties(self) -> dict[str, bool]:
        """Exact re-verification of every reducedness claim; see class doc."""
        n = self.dim
        norms = self.row_norms_sq()
        star = self.gso_norms_sq()
        mu = self.mu
        half = Fraction(1, 2)
        size_reduced = all(
            abs(mu[i, j]) <= half for i in range(n) for j in range(i)
        )
        lovasz = all(
            star[k] >= (self.delta - mu[k, k - 1] ** 2) * star[k - 1]
            for k in range(1, n)
        )
        prop_a = all(
            star[j] <= 2 ** (i - j) * star[i]
            for i in range(n)
            for j in range(i + 1)
        )
        prop_b = all(norms[i] <= 2 ** (n - 1) * star[i] for i in range(n))
        max_star = max(star)
        chain = (
            2 ** (n - 1) * star[n - 1] >= max_star
            and 2 ** (n - 1) * max_star >= max(norms)
        )
        return {
            "size_reduced": size_reduced,
            "lovasz": lovasz,
            "prop_a": prop_a,
            "prop_b": prop_b,
            "chain": chain,
        }


def lll_reduce(basis: RationalMatrix, delta: Fraction = Fraction(3, 4)) -> ReducedBasis:
    """LLL-reduce the rows of `basis` (exact, all-integer core).

    The rows must be linearly independent; they may be rational (the lattice
    is scaled to integers and back, which commutes with reduction).  Returns
    a ReducedBasis spanning the same lattice; every claimed inequality is
    re-checked exactly on the output.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise InputError("delta must satisfy 1/4 < delta < 1")
    ints, scale = basis.scaled_integer_rows()
    try:
        reduced = kernels.lll_reduce(ints, delta.numerator, delta.denominator)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rows = RationalMatrix(
        [[Fraction(x, scale) for x in row] for row in reduced]
    )
    gso, mu = linalg.gram_schmidt(rows)
    return ReducedBasis(rows, gso, mu, delta)


# ---------------------------------------------------------------------------
# exact shortest vector
# ---------------------------------------------------------------------------

def _shortest_vector_int(
    rows: list[list[int]], beat: int | None = None
) -> tuple[tuple[int, ...], int] | None:
    """Shortest nonzero vector of the integer lattice spanned by `rows`, as
    (vector, norm_sq).

    Ties are broken deterministically: among all minimal vectors, after
    flipping signs so the first nonzero coordinate is positive, the
    lexicographically smallest is returned.  With `beat` set, returns None
    as soon as the lattice is known to hold a nonzero vector of squared
    norm <= beat: inside LLL when an input row or a new first row
    qualifies, else at the first such vector the enumeration reaches.
    """
    n = len(rows)
    if n == 1:
        if not any(rows[0]):
            raise InputError("zero row is not a lattice basis")
        vec = kernels.canonical_sign(rows[0])
        least = sum(x * x for x in vec)
    elif n == 2:
        try:
            u, v = kernels.gauss_reduce_2d(rows)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        candidates = [u, v] + [[a + s * b for a, b in zip(u, v)] for s in (1, -1)]
        norms = [sum(x * x for x in c) for c in candidates]
        least = min(norms)
        vec = min(kernels.canonical_sign(c) for c, nm in zip(candidates, norms) if nm == least)
    else:
        try:
            reduced = kernels.lll_reduce(rows, beat=beat)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if reduced is None:
            return None
        found = kernels.shortest_vectors(reduced, beat)
        if found is None:
            return None
        least, (vec, *_) = found
    if beat is not None and least <= beat:
        return None
    return vec, least


def shortest_vector(
    basis: RationalMatrix, svp_cap: int = DEFAULT_SVP_CAP
) -> tuple[Vector, Fraction]:
    """Exact shortest nonzero vector of the lattice spanned by the rows.

    Returns (vector, norm_sq).  Deterministic tie-break: sign-normalize so
    the first nonzero coordinate is positive, then take the
    lexicographically smallest minimal vector.  Rational bases are scaled to
    integers (shortest vectors commute with uniform scaling).  Dimensions
    above `svp_cap` are refused with CapExceededError.
    """
    if basis.n_rows > svp_cap:
        raise CapExceededError(
            f"shortest vector in dimension {basis.n_rows} exceeds cap {svp_cap}"
        )
    ints, scale = basis.scaled_integer_rows()
    vec, norm = _shortest_vector_int(ints)
    return (
        tuple(Fraction(x, scale) for x in vec),
        Fraction(norm, scale * scale),
    )


# ---------------------------------------------------------------------------
# spectral test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralResult:
    """Spectral test of a lattice, exact in squared form.

    sigma_sq is exactly 1 / ||h||^2 for the shortest dual vector h;
    sigma_decimal renders sigma rounded down at the requested precision.
    """

    shortest_dual_vector: tuple
    shortest_dual_norm_sq: Fraction
    sigma_sq: Fraction
    sigma_decimal: str
    digits: int

    def sigma_bounds(self) -> directed.Bounds:
        return directed.sqrt_bounds(self.sigma_sq, self.digits)


def spectral_test(
    lat: "lattice_mod.IntegrationLattice",
    digits: int = directed.DEFAULT_DIGITS,
    svp_cap: int = DEFAULT_SVP_CAP,
) -> SpectralResult:
    """Spectral test sigma(L): shortest dual vector, exactly.

    For integration lattices the dual is integral, so the witness vector is
    returned with int coordinates.
    """
    dual = lattice_mod.dual(lat)
    vec, norm_sq = shortest_vector(dual.basis, svp_cap=svp_cap)
    if all(x.denominator == 1 for x in vec):
        vec = tuple(int(x) for x in vec)
    sigma_sq = 1 / norm_sq
    sigma_lo = directed.sqrt_bounds(sigma_sq, digits).lo
    return SpectralResult(
        shortest_dual_vector=vec,
        shortest_dual_norm_sq=norm_sq,
        sigma_sq=sigma_sq,
        sigma_decimal=directed.decimal_str(sigma_lo, digits, "down"),
        digits=digits,
    )


# ---------------------------------------------------------------------------
# diameter of the fundamental cell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiameterBound:
    """Certified bound diam(cell) <= sum_i ||b_i|| <= d * 2^(d-1) * sigma.

    sum_norm_bounds encloses sum_i ||b_i|| with directed rounding; the
    inequality chain against sigma is certified exactly in squared form via
    `checks` (see unit_cell_diameter_bound).
    """

    sum_norm_bounds: directed.Bounds
    max_norm_sq: Fraction
    last_gso_norm_sq: Fraction
    dual_min_norm_sq: Fraction
    spectral_bound_sq: Fraction
    checks: dict[str, bool]
    certified: bool


def unit_cell_diameter_bound(
    rb: ReducedBasis,
    digits: int = directed.DEFAULT_DIGITS,
    svp_cap: int = DEFAULT_SVP_CAP,
) -> DiameterBound:
    """Bound the diameter of the fundamental cell of an LLL-reduced basis.

    The cell P = { sum t_i b_i : 0 <= t_i < 1 } has diam(P) <= sum ||b_i||.
    For an LLL-reduced basis that sum is at most d * 2^(d-1) * sigma of the
    lattice, which is certified here through three exact squared-form
    inequalities:

    - max_i ||b_i||^2 <= 4^(d-1) * ||b*_d||^2     (reducedness),
    - ||b*_d||^2 * lambda1(dual)^2 <= 1           (b*_d / ||b*_d||^2 is dual),
    - hence d^2 * max_i ||b_i||^2 * lambda1^2 <= (d * 2^(d-1))^2.
    """
    d = rb.dim
    norms = rb.row_norms_sq()
    max_norm_sq = max(norms)
    last_gso = rb.gso_norms_sq()[-1]
    dual_basis = linalg.inverse(rb.basis).transpose()
    _, dual_min = shortest_vector(dual_basis, svp_cap=svp_cap)
    checks = {
        "max_row_vs_last_gso": max_norm_sq <= 4 ** (d - 1) * last_gso,
        "last_gso_vs_dual_min": last_gso * dual_min <= 1,
        "diameter_vs_sigma": d**2 * max_norm_sq * dual_min <= (d * 2 ** (d - 1)) ** 2,
    }
    total = directed.exact(0)
    for nm in norms:
        total = directed.add(total, directed.sqrt_bounds(nm, digits))
    return DiameterBound(
        sum_norm_bounds=total,
        max_norm_sq=max_norm_sq,
        last_gso_norm_sq=last_gso,
        dual_min_norm_sq=dual_min,
        spectral_bound_sq=Fraction((d * 2 ** (d - 1)) ** 2, 1) / dual_min,
        checks=checks,
        certified=all(checks.values()),
    )
