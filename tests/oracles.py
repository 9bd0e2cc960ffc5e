"""Exhaustive-search oracles for shortest-vector claims (test support).

The production shortest-vector path (LLL preprocessing plus pruned
enumeration) is efficient but intricate; this module provides slow,
obviously-correct cross-checks built on literal box scans.  Only the tests
use it, so it lives with them rather than in the package.

The soundness argument never relies on reduction quality.  Given any basis
of the lattice under test and any radius R known to dominate the lattice
minimum (for instance the norm of a concrete lattice vector), every lattice
vector v = sum c_i b_i with ||v|| <= R has

    |c_j| <= R / ||b*_j|| + sum_{k > j} |c_k| |mu_{k,j}|,

because the coefficient of b*_j in v is c_j + sum_{k>j} c_k mu_{k,j} and is
bounded by R / ||b*_j|| in absolute value.  Resolving these bounds from the
last row down gives finite per-coefficient widths, and scanning that box
provably visits a shortest vector.  For the rank-1 dual (integer vectors h
with <h, g> == 0 mod n) the coordinates themselves are bounded by
floor(sqrt(R^2)), so a plain cube suffices.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, isqrt

from latdisc import directed, linalg
from latdisc.errors import InputError
from latdisc.kernels import lll_reduce


def min_norm_in_coeff_box(rows, widths):
    """Minimum squared norm over nonzero integer combinations c . rows with
    |c_i| <= widths[i].

    Returns (vector, norm_sq) for the first minimizer in scan order.  Only
    combinations whose first nonzero coefficient is positive are scanned
    (the box is symmetric, so this loses nothing).  Raises ValueError if the
    box contains no nonzero combination.
    """
    n = len(rows)
    dim = len(rows[0])
    best_norm = None
    best_vec = None
    vec = [0] * dim

    def recurse(level, any_nonzero):
        nonlocal best_norm, best_vec
        if level == n:
            if not any_nonzero:
                return
            norm = 0
            for x in vec:
                norm += x * x
            if best_norm is None or norm < best_norm:
                best_norm = norm
                best_vec = vec[:]
            return
        row = rows[level]
        w = widths[level]
        lo = 0 if not any_nonzero else -w
        saved = vec[:]
        for c in range(lo, w + 1):
            if c == 0:
                vec[:] = saved
            else:
                for i in range(dim):
                    vec[i] = saved[i] + c * row[i]
            recurse(level + 1, any_nonzero or c != 0)
        vec[:] = saved

    recurse(0, False)
    if best_norm is None:
        raise ValueError("coefficient box contains no nonzero vector")
    return best_vec, best_norm


def rank1_dual_min_in_box(n, g, width):
    """Minimum squared norm over nonzero integer h with |h_i| <= width and
    h . g == 0 (mod n)  --  a literal scan of the dual of the rank-1 lattice
    generated by g/n, restricted to a box.

    Returns (vector, norm_sq) for the first minimizer in scan order.
    Raises ValueError if no nonzero dual vector lies in the box.
    """
    if n <= 0:
        raise ValueError("modulus must be positive")
    d = len(g)
    g0 = g[0] % n
    shared = gcd(g0, n)
    modulus = n // shared
    # g0 * h0 == -acc (mod n) is solvable iff shared | acc, and then
    # h0 == r0 (mod modulus) with r0 below.
    g0_inv = pow(g0 // shared, -1, modulus) if modulus > 1 else 0
    best_norm = None
    best_vec = None
    h = [0] * d

    def recurse(level, acc, tail_norm):
        # acc = sum of g[i]*h[i] over already-fixed coordinates 1..level-1
        nonlocal best_norm, best_vec
        if level == d:
            if acc % shared != 0:
                return
            r0 = ((-acc // shared) * g0_inv) % modulus
            h0 = ((r0 + width) % modulus) - width
            while h0 <= width:
                if h0 != 0 or tail_norm != 0:
                    norm = h0 * h0 + tail_norm
                    if best_norm is None or norm < best_norm:
                        best_norm = norm
                        best_vec = [h0] + h[1:]
                h0 += modulus
            return
        for c in range(-width, width + 1):
            h[level] = c
            recurse(level + 1, acc + g[level] * c, tail_norm + c * c)
        h[level] = 0

    recurse(1, 0, 0)
    if best_norm is None:
        raise ValueError("no nonzero dual vector in the box")
    return best_vec, best_norm


def _ceil_sqrt(x) -> int:
    """Smallest integer s with s*s >= x, for rational x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise InputError("negative radicand")
    s = directed.floor_sqrt(x)
    return s if s * s >= x else s + 1


def coeff_box_widths(rows, radius_sq) -> list[int]:
    """Coefficient widths covering every lattice vector with norm^2 <= radius_sq.

    rows must be independent integer rows; the widths are computed from their
    exact Gram-Schmidt data, from the last row down, so the guarantee holds
    for the given rows regardless of how (or whether) they were reduced.
    """
    matrix = linalg.RationalMatrix(rows)
    gso, mu = linalg.gram_schmidt(matrix)
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        raise InputError("radius_sq must be nonnegative")
    n = matrix.n_rows
    widths = [0] * n
    for j in range(n - 1, -1, -1):
        norm_sq = linalg.dot(gso.rows[j], gso.rows[j])
        bound = Fraction(_ceil_sqrt(radius_sq / norm_sq))
        for k in range(j + 1, n):
            bound += widths[k] * abs(mu[k, j])
        widths[j] = ceil(bound)
    return widths


def shortest_vector_bruteforce(rows, radius_sq=None):
    """Shortest nonzero vector of the integer lattice spanned by rows.

    When radius_sq is None the search radius comes from an LLL run (the
    first reduced row is a concrete lattice vector, so its norm dominates
    the minimum); pass an explicit radius_sq to keep the check independent
    of the reduction code.  Returns (vector, norm_sq), the first minimizer
    in scan order with positive leading coefficient.
    """
    rows = [list(r) for r in rows]
    if radius_sq is None:
        reduced = lll_reduce(rows)
        radius_sq = sum(x * x for x in reduced[0])
        rows = reduced
    widths = coeff_box_widths(rows, radius_sq)
    return min_norm_in_coeff_box(rows, widths)


def rank1_dual_shortest_bruteforce(n: int, generator, radius_sq: int):
    """Shortest nonzero integer h with <h, generator> == 0 (mod n), given
    any radius_sq that dominates the squared dual minimum.

    Any h with ||h||^2 <= radius_sq has |h_i| <= isqrt(radius_sq), so the
    cube scan is exhaustive below the radius: if the returned norm equals a
    claimed minimum, the claim is proven.  Returns (vector, norm_sq).
    """
    if radius_sq <= 0:
        raise InputError("radius_sq must be positive")
    width = isqrt(radius_sq)
    return rank1_dual_min_in_box(n, [int(x) for x in generator], width)
