"""Slow, obviously-correct references the tests compare the package with.

- Shortest vectors: the production path (LLL preprocessing plus pruned
  enumeration) is efficient but intricate; the oracles below are literal
  box scans.
- Halfspace volumes: the Fraction inclusion-exclusion loop over all 2^m
  vertex subsets, one bit mask at a time, against the integer vertex-sum
  kernel volume.CubeSection.
- The discrepancy search: FractionSearch builds every candidate body and
  its Fraction discrepancy and spends the budget in its own loop, against
  the integer candidate stream of discrepancy._Search.
- LLL reduction: lll_certificate re-derives the Gram-Schmidt data of the
  integer kernel's output in Fractions and checks every reducedness claim;
  lll_reduce_reference is the structured form of the kernel's flat loop,
  which must return the same rows; lattice_contains tests lattice
  membership through the inverse basis.
- Fraction matrices, as tuples of rows, independent of the package's
  integer linear algebra: identity, matmul, det by Gaussian elimination,
  inverse by Gauss-Jordan elimination, and basis, the rational basis H / q
  of a lattice.
- Small exact helpers no command needs: gamma_bounds, the enclosure of a
  GammaValue, point_set, a PointSet built from arbitrary rational points,
  and nodes, the Fraction tuples of a PointSet.
- Directed decimals: decimal_str_reference locates the leading digit and
  carries the rounding in integers, against the one correctly rounded
  `decimal` division of directed.decimal_str.

Only the tests use them, so they live with the tests rather than in the
package.

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

from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil, factorial, gcd, isqrt, lcm

from latdisc import directed, discrepancy, lattice, linalg, volume
from latdisc.errors import InputError
from latdisc.kernels import integral_gso, lll_reduce
from latdisc.linalg import as_fraction, as_vector
from latdisc.volume import AxisBox, Halfspace, Slab


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
    s = isqrt(x.numerator * x.denominator) // x.denominator
    return s if s * s >= x else s + 1


def coeff_box_widths(rows, radius_sq) -> list[int]:
    """Coefficient widths covering every lattice vector with norm^2 <= radius_sq.

    rows must be independent integer rows; the widths are computed from their
    exact Gram-Schmidt data, from the last row down, so the guarantee holds
    for the given rows regardless of how (or whether) they were reduced.
    """
    gso, mu = linalg.gram_schmidt(rows)
    radius_sq = Fraction(radius_sq)
    if radius_sq < 0:
        raise InputError("radius_sq must be nonnegative")
    n = len(rows)
    widths = [0] * n
    for j in range(n - 1, -1, -1):
        norm_sq = _dot(gso[j], gso[j])
        bound = Fraction(_ceil_sqrt(radius_sq / norm_sq))
        for k in range(j + 1, n):
            bound += widths[k] * abs(mu[k][j])
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


def lattice_contains(basis, x) -> bool:
    """Whether the rational vector x lies in the lattice spanned by the rows
    of the square matrix `basis`: its coordinates x B^-1 are all integers."""
    return all(c.denominator == 1 for c in matmul([x], inverse(basis))[0])


def identity(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The n x n identity matrix."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def matmul(a, b) -> tuple[tuple[Fraction, ...], ...]:
    """The exact product a b of two matrices given as rows."""
    cols = list(zip(*b))
    return tuple(tuple(Fraction(_dot(row, col)) for col in cols) for row in a)


def det(rows) -> Fraction:
    """The exact determinant of a square matrix, by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    result = Fraction(1)
    for col in range(len(m)):
        pivot = next((i for i in range(col, len(m)) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return result


def inverse(rows) -> tuple[tuple[Fraction, ...], ...] | None:
    """The exact inverse of a square matrix by Gauss-Jordan elimination on
    the augmented matrix, or None when it is singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def basis(lat: lattice.IntegrationLattice) -> tuple[tuple[Fraction, ...], ...]:
    """The rational basis H / q of a lattice, rows are basis vectors."""
    return tuple(tuple(Fraction(x, lat.denominator) for x in row) for row in lat.rows)


def nodes(pts: lattice.PointSet) -> list[tuple[Fraction, ...]]:
    """The nodes of a PointSet as exact Fraction tuples, in node order."""
    q = pts.denominator
    return [tuple(Fraction(v, q) for v in x) for x in zip(*pts.columns)]


def point_set(points, dim: int) -> lattice.PointSet:
    """The PointSet of arbitrary rational points in dimension dim, over the
    least common multiple of their denominators (1 for no points)."""
    rows = [as_vector(p) for p in points]
    q = lcm(*(x.denominator for p in rows for x in p))
    columns = [array("q", [int(p[j] * q) for p in rows]) for j in range(dim)]
    return lattice.PointSet(columns, q)


def gamma_bounds(gamma, digits: int) -> directed.Bounds:
    """Enclosure of a bounds.GammaValue, rational * sqrt(pi)^{0,1}."""
    if not gamma.sqrt_pi:
        return directed.exact(gamma.rational)
    root = directed.root_of_bounds(directed.pi_bounds(digits), 2, digits)
    return directed.scale(root, gamma.rational)


def _ge_pow10(x: Fraction, e: int) -> bool:
    if e >= 0:
        return x.numerator >= x.denominator * 10**e
    return x.numerator * 10**-e >= x.denominator


def _floor_log10(x: Fraction) -> int:
    e = len(str(x.numerator)) - len(str(x.denominator))
    while not _ge_pow10(x, e):
        e -= 1
    while _ge_pow10(x, e + 1):
        e += 1
    return e


def decimal_str_reference(
    x, sig: int = directed.DEFAULT_DIGITS, direction: str = "down"
) -> str:
    """Plain-decimal rendering of a rational with `sig` significant digits,
    rounded toward -infinity ("down") or +infinity ("up").

    The direction refers to the rendered value versus the true value, so a
    lower bound stays a lower bound after rendering with "down" and an upper
    bound stays one with "up".
    """
    if sig < 1:
        raise InputError("need at least one significant digit")
    if direction not in ("down", "up"):
        raise InputError("direction must be 'down' or 'up'")
    x = Fraction(x)
    if x == 0:
        return "0"
    negative = x < 0
    ax = -x if negative else x
    e = _floor_log10(ax)
    p = sig - 1 - e
    if p >= 0:
        t = ax.numerator * 10**p
        den = ax.denominator
    else:
        t = ax.numerator
        den = ax.denominator * 10**-p
    magnitude_up = (direction == "up") != negative
    if magnitude_up:
        m = -((-t) // den)
    else:
        m = t // den
    if m == 10**sig:
        m //= 10
        e += 1
    digits = str(m)
    if e >= sig - 1:
        body = digits + "0" * (e - sig + 1)
    elif e >= 0:
        body = digits[: e + 1] + "." + digits[e + 1 :]
    else:
        body = "0." + "0" * (-e - 1) + digits
    return "-" + body if negative else body


def lll_certificate(rows, reduced) -> dict[str, bool]:
    """Exact re-check that `reduced` is an LLL-reduced basis of the lattice
    spanned by `rows`, from Fraction Gram-Schmidt data:

    - size_reduced: |mu_{i,j}| <= 1/2 for j < i;
    - lovasz: the Lovasz condition at delta = 3/4, the kernel's;
    - prop_a: ||b*_j||^2 <= 2^(i-j) ||b*_i||^2 for all j <= i;
    - prop_b: ||b_i||^2 <= 2^(d-1) ||b*_i||^2;
    - chain: 2^(d-1) ||b*_d||^2 >= max_i ||b*_i||^2 and
      2^(d-1) max_i ||b*_i||^2 >= max_i ||b_i||^2;
    - same_lattice: each basis is an integer combination of the other.
    """
    gso, mu = linalg.gram_schmidt(reduced)
    n = len(reduced)
    norms = [Fraction(_dot(b, b)) for b in reduced]
    star = [_dot(b, b) for b in gso]
    max_star = max(star)
    top = 2 ** (n - 1)
    return {
        "size_reduced": all(
            abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i)
        ),
        "lovasz": all(
            star[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * star[k - 1]
            for k in range(1, n)
        ),
        "prop_a": all(
            star[j] <= 2 ** (i - j) * star[i] for i in range(n) for j in range(i + 1)
        ),
        "prop_b": all(norms[i] <= top * star[i] for i in range(n)),
        "chain": top * star[n - 1] >= max_star and top * max_star >= max(norms),
        "same_lattice": all(
            x.denominator == 1
            for a, b in ((rows, reduced), (reduced, rows))
            for row in matmul(a, inverse(b))
            for x in row
        ),
    }


def _dot(u, v):
    s = 0
    for a, b in zip(u, v):
        s += a * b
    return s


def _round_div(a, b):
    # nearest integer to a/b for b > 0, ties rounded toward +infinity
    return (2 * a + b) // (2 * b)


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division in all-integer LLL (bug)")
    return q


def lll_reduce_reference(rows, beat=None):
    """The structured all-integer LLL that kernels.lll_reduce flattens:
    size reduction and the swap as closures over the integral Gram-Schmidt
    data, every division through _exact_div.  The kernel must return the
    same rows, and stop with `beat` on the same inputs with the same basis:
    the first input row of squared norm <= beat moved to the front, or the
    rows as they stand after the swap at k = 1 that brings one first.
    """
    b = [list(row) for row in rows]
    for i, row in enumerate(b):
        if beat is not None and _dot(row, row) <= beat:
            return [row, *b[:i], *b[i + 1 :]]
    n = len(b)
    if n == 1:
        return b
    d, lam = integral_gso(b)

    def reduce_row(k, l):
        # size reduction: make |mu_{k,l}| <= 1/2, i.e. 2|lambda| <= d[l+1]
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = _round_div(lam[k][l], d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap_rows(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_k = lam[k][k - 1]
        new_dk = _exact_div(d[k - 1] * d[k + 1] + lam_k * lam_k, d[k])
        for i in range(k + 1, n):
            old_hi = lam[i][k - 1]
            old_lo = lam[i][k]
            lam[i][k] = _exact_div(d[k + 1] * old_hi - lam_k * old_lo, d[k])
            lam[i][k - 1] = _exact_div(lam_k * old_hi + d[k - 1] * old_lo, d[k])
        d[k] = new_dk

    k = 1
    while k < n:
        reduce_row(k, k - 1)
        lam_k = lam[k][k - 1]
        # Lovasz test at delta = 3/4, in integers
        if 4 * (d[k - 1] * d[k + 1] + lam_k * lam_k) < 3 * d[k] * d[k]:
            swap_rows(k)
            if k == 1 and beat is not None and d[1] <= beat:
                return b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_row(k, l)
            k += 1
    return b


def halfspace_cube_volume(normal, offset) -> Fraction:
    """Exact volume of { x in [0,1]^d : <normal, x> <= offset }, summed in
    Fractions over every vertex subset of the active axes:

        vol = ( sum over subsets I of (-1)^|I| max(0, t - sum_{i in I} c_i)^m )
              / ( m! * prod_i c_i ),

    after flipping negative coordinates by x_i -> 1 - x_i."""
    a = as_vector(normal)
    t = as_fraction(offset)
    if all(x == 0 for x in a):
        raise InputError("volume of a halfspace needs a nonzero normal")
    coeffs = []
    for x in a:
        if x > 0:
            coeffs.append(x)
        elif x < 0:
            coeffs.append(-x)  # substitute x_i -> 1 - x_i
            t -= x
    m = len(coeffs)
    if m > volume._SUBSET_LIMIT:
        raise InputError(f"halfspace volume limited to {volume._SUBSET_LIMIT} active axes")
    if t <= 0:
        return Fraction(0)
    if t >= sum(coeffs):
        return Fraction(1)
    total = Fraction(0)
    for mask in range(1 << m):
        s = t
        bits = 0
        mm = mask
        idx = 0
        while mm:
            if mm & 1:
                s -= coeffs[idx]
                bits += 1
            mm >>= 1
            idx += 1
        if s > 0:
            total += (-1) ** bits * s**m
    product = Fraction(1)
    for c in coeffs:
        product *= c
    return total / (factorial(m) * product)


def body_volume(body) -> Fraction:
    """volume.body_volume, with halfspace volumes from the reference above."""
    if isinstance(body, Halfspace):
        return halfspace_cube_volume(body.normal, body.offset)
    if isinstance(body, Slab):
        if body.lo == body.hi:
            return Fraction(0)
        return halfspace_cube_volume(body.normal, body.hi) - halfspace_cube_volume(
            body.normal, body.lo
        )
    product = Fraction(1)
    for a, b in zip(body.lo, body.hi):
        product *= b - a
    return product


class FractionSearch(discrepancy._Search):
    """The budgeted search, body by body: every candidate becomes a body
    whose Fraction discrepancy goes to `record`, with volumes from the
    reference above and one pass over the nodes per axis projection.

    The scans yield (phase, body, delta), and `evaluate` pulls at most
    `budget` of them one at a time, so `phases` names the scan that spent
    each evaluation ("halfspace", "slab", "axis_box" or "random_box") and a
    test can pick budgets that run out inside a given loop.  `record` tests
    tie membership by equality with each witness in turn, where the search
    hashes the body."""

    def __init__(self, points, seed):
        super().__init__(points, seed)
        self.nodes = list(zip(*points.columns))  # numerator vectors, node order
        self.phases: list[str] = []
        self._projections: dict[int, list[int]] = {}

    def record(self, body, delta):
        magnitude = abs(delta)
        if magnitude > self.best:
            self.best = magnitude
            self.witnesses = {body: None}
        elif magnitude == self.best and magnitude > 0:
            if not any(body == w for w in self.witnesses):
                self.witnesses[body] = None

    def evaluate(self, candidates, budget):
        stream = iter(candidates)
        while self.evaluations < budget:
            candidate = next(stream, None)
            if candidate is None:
                return
            phase, body, delta = candidate
            self.evaluations += 1
            self.phases.append(phase)
            self.record(body, delta)

    def scan_normal(self, direction, counts=None):
        # the node counts along the direction are recounted from the nodes
        if direction in self.scanned:
            return
        self.scanned.add(direction)
        values = sorted(self.points.products(direction))
        unique = sorted(set(values))
        n, q = self.n, self.q
        cube_lo = q * sum(min(a, 0) for a in direction)
        cube_hi = q * sum(max(a, 0) for a in direction)
        for v in unique:
            body = Halfspace(direction, Fraction(v, q), closed=True)
            yield "halfspace", body, Fraction(bisect_right(values, v), n) - body_volume(body)
            body = Halfspace(direction, Fraction(v, q), closed=False)
            yield "halfspace", body, Fraction(bisect_left(values, v), n) - body_volume(body)
        previous = cube_lo
        for v in unique + [cube_hi]:
            if v > previous:
                body = Slab(direction, Fraction(previous, q), Fraction(v, q), open=True)
                inside = bisect_left(values, v) - bisect_right(values, previous)
                yield "slab", body, Fraction(inside, n) - body_volume(body)
            previous = max(previous, v)

    def _interior_projection(self, axis):
        if axis not in self._projections:
            proj = [
                x[axis]
                for x in self.nodes
                if all(0 < xc < self.q for k, xc in enumerate(x) if k != axis)
            ]
            self._projections[axis] = sorted(proj)
        return self._projections[axis]

    def scan_axis_boxes(self, axis):
        proj = self._interior_projection(axis)
        q = self.q
        pool = sorted(set(x[axis] for x in self.nodes if 0 < x[axis] < q))
        d = self.dim
        ones = tuple(Fraction(1) for _ in range(d))
        zeros = tuple(Fraction(0) for _ in range(d))
        for v in pool + [q]:
            cut = Fraction(v, q)
            if v > 0:
                hi = tuple(cut if k == axis else Fraction(1) for k in range(d))
                body = AxisBox(zeros, hi, open=True)
                inside = bisect_left(proj, v) - bisect_right(proj, 0)
                yield "axis_box", body, Fraction(inside, self.n) - body_volume(body)
            if v < q:
                lo = tuple(cut if k == axis else Fraction(0) for k in range(d))
                body = AxisBox(lo, ones, open=True)
                inside = bisect_left(proj, q) - bisect_right(proj, v)
                yield "axis_box", body, Fraction(inside, self.n) - body_volume(body)

    def random_box(self):
        num, den, make, args = super().random_box()
        return "random_box", make(*args), Fraction(num, den)
