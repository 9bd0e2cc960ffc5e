"""Integer lattice kernels.

These are the inner loops of the whole package: LLL reduction, the
integral Gram-Schmidt data both LLL and the enumeration work on, and the
exact shortest-vector enumeration; every shortest-vector computation, at
every rank, is lll_reduce followed by shortest_vectors.  The 2d Gauss
reduction serves one caller: the shared prefix basis of the exhaustive
d = 3 generator search.  Everything works on plain Python ints (arbitrary
precision, no overflow by construction) and is deterministic.

All functions take and return lists of ints.  None of them knows about
Fractions or lattices; callers scale rational bases to integers first.
"""

from math import isqrt, lcm


def _dot(u, v):
    s = 0
    for a, b in zip(u, v):
        s += a * b
    return s


def _round_div(a, b):
    # nearest integer to a/b for b > 0, ties rounded toward +infinity
    return (2 * a + b) // (2 * b)


def gauss_reduce_2d(rows):
    """Lagrange-Gauss reduce a rank-2 integer basis.

    Used only to reduce the 2d prefix dual basis that an exhaustive d = 3
    generator search shares across n - 1 generators.

    Returns [u, v] spanning the same lattice with ||u|| <= ||v|| and
    |2 <u, v>| <= ||u||^2, so u attains the lattice minimum.  Raises
    ValueError on dependent or zero rows.
    """
    u = list(rows[0])
    v = list(rows[1])
    nu = _dot(u, u)
    nv = _dot(v, v)
    if nu == 0 or nv == 0:
        raise ValueError("zero row in 2d basis")
    while True:
        if nv < nu:
            u, v = v, u
            nu, nv = nv, nu
        t = _dot(u, v)
        q = _round_div(t, nu)
        if q == 0:
            break
        v = [b - q * a for a, b in zip(u, v)]
        nv = nv - q * (2 * t - q * nu)
        if nv == 0:
            raise ValueError("dependent rows in 2d basis")
    return [u, v]


def canonical_sign(vec):
    """vec or -vec as a tuple, whichever has a positive first nonzero entry."""
    return tuple(vec) if next(x for x in vec if x) > 0 else tuple(-x for x in vec)


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division in all-integer LLL (bug)")
    return q


def integral_gso(rows):
    """Integral Gram-Schmidt data of independent integer rows.

    Returns (d, lam): d[i] is the Gram determinant of the first i rows
    (d[0] = 1, d[i + 1] / d[i] = ||b*_i||^2) and lam[i][j] = d[j + 1] * mu_{i,j}
    for j < i, all integers; every division below is exact.  Raises
    ValueError on dependent rows.
    """
    n = len(rows)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = _dot(rows[i], rows[j])
            for k in range(j):
                u = _exact_div(d[k + 1] * u - lam[i][k] * lam[j][k], d[k])
            if j < i:
                lam[i][j] = u
            elif u <= 0:
                raise ValueError("dependent rows in LLL input")
            else:
                d[i + 1] = u
    return d, lam


def lll_reduce(rows, beat=None):
    """All-integer LLL reduction (de Weger variant) of independent rows.

    Works entirely on the integers d_i (Gram determinants of leading blocks)
    and lambda[i][j] = d_{j+1} * mu_{i,j}; every division below is exact.

    Returns a new list of rows spanning the same lattice, LLL-reduced with
    parameter delta = 3/4.  Raises ValueError on dependent rows.

    With `beat` set, returns None as soon as the lattice is known to hold a
    nonzero vector of squared norm <= beat, as shortest_vectors does: at
    entry when an input row qualifies, and right after each swap at k = 1,
    when the new first row qualifies (d[1] = ||b_0||^2; only that swap
    changes b_0).  Otherwise the result is the same as without `beat`.
    """
    if beat is not None and min(_dot(row, row) for row in rows) <= beat:
        return None
    b = [list(row) for row in rows]
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
                return None
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_row(k, l)
            k += 1
    return b


def shortest_vectors(rows, beat=None):
    """Exact shortest nonzero vectors of the lattice spanned by independent
    integer rows (LLL-reduce them first to keep the search tree small).

    Fincke-Pohst enumeration on integral_gso data: with S_i = sum_{j>i}
    c_j lam[j][i], level i adds (c_i d[i+1] + S_i)^2 / (d[i] d[i+1]) to the
    squared norm of sum_i c_i rows[i].  Partial sums are scaled by
    m = lcm_i(d[i] d[i+1]), so with w_i = m / (d[i] d[i+1]) the interval
    |c_i d[i+1] + S_i| <= isqrt((R m - partial) // w_i) is exact for radius R.

    Returns (min_norm_sq, ties), ties being every minimal vector with its
    first nonzero coordinate positive, sorted; or None, when `beat` is set,
    as soon as a nonzero vector of squared norm <= beat turns up.
    """
    best = min(_dot(row, row) for row in rows)
    if beat is not None and best <= beat:
        return None
    n = len(rows)
    d, lam = integral_gso(rows)
    m = lcm(*(d[i] * d[i + 1] for i in range(n)))
    w = [m // (d[i] * d[i + 1]) for i in range(n)]
    coeff = [0] * n
    ties = set()

    def descend(i, partial, all_zero):
        # True once a vector of squared norm <= beat is known
        nonlocal best, ties
        rem = best * m - partial
        if rem < 0 or (i < 0 and all_zero):
            return False
        if i < 0:
            norm = partial // m
            if beat is not None and norm <= beat:
                return True
            if norm < best:
                best, ties = norm, set()
            ties.add(canonical_sign([_dot(coeff, col) for col in zip(*rows)]))
            return False
        s = sum(coeff[j] * lam[j][i] for j in range(i + 1, n))
        t = isqrt(rem // w[i])
        step = d[i + 1]
        lo = 0 if all_zero else -((t + s) // step)
        for c in range(lo, (t - s) // step + 1):
            coeff[i] = c
            if descend(i - 1, partial + w[i] * (c * step + s) ** 2, all_zero and c == 0):
                return True
        coeff[i] = 0
        return False

    if descend(n - 1, 0, True):
        return None
    return best, sorted(ties)
