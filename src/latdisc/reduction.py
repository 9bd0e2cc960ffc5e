"""Basis reduction, exact shortest vectors, and the spectral test.

The spectral test of an integration lattice L is

    sigma(L) = 1 / min{ ||h||_2 : h in L-perp, h != 0 },

the reciprocal of the length of a shortest nonzero dual vector.  Its
geometric meaning: the points of L lie on a family of parallel hyperplanes
orthogonal to that shortest dual vector h, consecutive planes exactly
sigma(L) apart, so a large sigma certifies a coarse hyperplane structure.

Everything here is exact and runs on integer rows: spectral_test hands
shortest_vector the integral dual basis.  Every rank, 1 and 2 included,
takes one path, the two kernel calls korobov_search also makes itself:
all-integer LLL, then a Fincke-Pohst enumeration that runs in integers
only; both raise InputError, a ValueError, on a zero or dependent row.
The enumeration works on LLL's integral Gram-Schmidt data (Gram
determinants d_i and lambda_ij = d_{j+1} mu_ij), scales every partial
squared norm by one common multiple of the d_i d_{i+1}, and bounds each
coefficient with an integer square root, so no Fraction and no float
enters the tree.  The enumeration is exact on any basis of the lattice;
LLL reduction only makes its tree smaller, so its output is not re-checked
at run time.  The LLL inequalities are certified by the test suite's
oracle (`lll_certificate` in tests/oracles.py).  Squared norms are the
working currency throughout and stay ints, the shortest dual norm of
SpectralResult included, which keeps every comparison exact; the one
Fraction is sigma^2 = 1 / ||h||^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import directed, kernels, lattice as lattice_mod
from .errors import CapExceededError

DEFAULT_SVP_CAP = 12


# ---------------------------------------------------------------------------
# exact shortest vector
# ---------------------------------------------------------------------------

def shortest_vector(
    rows: list[list[int]], beat: int | None = None
) -> tuple[tuple[int, ...], int] | None:
    """Shortest nonzero vector of the integer lattice spanned by `rows`, as
    (vector, norm_sq): kernels.lll_reduce, then shortest_vectors, at every rank.

    Ties are broken deterministically: among all minimal vectors, after
    flipping signs so the first nonzero coordinate is positive, the
    lexicographically smallest is returned.  With `beat` set, returns None
    as soon as the lattice is known to hold a nonzero vector of squared
    norm <= beat: when LLL stops on an input row or a new first row that
    qualifies, else at the first such vector the enumeration reaches.
    Zero or dependent rows raise InputError, a ValueError, once LLL reaches
    them, so with `beat` a None, still true, can come first.  The rows are
    integers: a rational basis is scaled to integers first, since shortest
    vectors commute with uniform scaling.
    """
    found = kernels.shortest_vectors(kernels.lll_reduce(rows, beat=beat), beat)
    if found is None:
        return None
    least, ties = found
    return ties[0], least


# ---------------------------------------------------------------------------
# spectral test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralResult:
    """Spectral test of a lattice, exact in squared form.

    shortest_dual_norm_sq is the int ||h||^2 for the shortest dual vector
    h and sigma_sq exactly the Fraction 1 / ||h||^2; sigma_decimal renders
    sigma rounded down at the requested precision.
    """

    shortest_dual_vector: tuple
    shortest_dual_norm_sq: int
    sigma_sq: Fraction
    sigma_decimal: str
    digits: int


def spectral_test(
    lat: "lattice_mod.IntegrationLattice",
    digits: int = directed.DEFAULT_DIGITS,
    svp_cap: int = DEFAULT_SVP_CAP,
) -> SpectralResult:
    """Spectral test sigma(L): shortest dual vector, exactly.

    The dual is integral (lattice.dual checks it), so its rows go to
    shortest_vector as they are and the witness has int coordinates.
    Dimensions above `svp_cap` are refused with CapExceededError.
    """
    if lat.dim > svp_cap:
        raise CapExceededError(
            f"shortest vector in dimension {lat.dim} exceeds cap {svp_cap}"
        )
    vec, norm_sq = shortest_vector(lattice_mod.dual(lat))
    sigma_sq = Fraction(1, norm_sq)
    sigma_lo = directed.sqrt_bounds(sigma_sq, digits).lo
    return SpectralResult(
        shortest_dual_vector=vec,
        shortest_dual_norm_sq=norm_sq,
        sigma_sq=sigma_sq,
        sigma_decimal=directed.decimal_str(sigma_lo, digits, "down"),
        digits=digits,
    )

