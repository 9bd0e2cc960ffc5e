"""Integer lattice kernels.

These are the inner loops of the whole package: LLL reduction, the
integral Gram-Schmidt data (LLL builds a row as it first reaches it, the
enumeration takes all rows), and the exact shortest-vector enumeration;
every shortest-vector computation is lll_reduce then shortest_vectors.
The 2d Gauss reduction gives the generator search's dual bases a reduced
block before LLL; the search reduces each unit row against that block too,
so LLL's entry check often stops on a basis outright, and hands LLL the rows
sorted by squared norm, so fewer swaps bring the shortest ones forward.
LLL with `beat` returns the basis it stopped on, the short row first, and
the search starts the reduction of each generator's mirror from it.
Everything works on plain Python ints (arbitrary precision, no overflow by
construction) and is deterministic.

All functions take and return lists of ints.  None of them knows about
Fractions or lattices; callers scale rational bases to integers first.
"""

from math import isqrt, lcm
from operator import mul


def _dot(u, v):
    return sum(map(mul, u, v))


def _round_div(a, b):
    # nearest integer to a/b for b > 0, ties rounded toward +infinity
    return (2 * a + b) // (2 * b)


def gauss_reduce_2d(rows):
    """Lagrange-Gauss reduce a basis of a rank-2 lattice in Z^2.

    The generator search reduces with it the dual of (1, g[1]) that its
    dual bases are built from: once per Korobov generator, and once per
    exhaustive prefix at d >= 3, on the four scalar components of its two
    rows.

    Returns [u, v] spanning the same lattice with ||u|| <= ||v|| and
    |2 <u, v>| <= ||u||^2, so u attains the lattice minimum.  Raises
    ValueError on dependent or zero rows.
    """
    (u0, u1), (v0, v1) = rows
    nu = u0 * u0 + u1 * u1
    nv = v0 * v0 + v1 * v1
    if nu == 0 or nv == 0:
        raise ValueError("zero row in 2d basis")
    while True:
        if nv < nu:
            u0, u1, v0, v1 = v0, v1, u0, u1
            nu, nv = nv, nu
        t = u0 * v0 + u1 * v1
        q = _round_div(t, nu)
        if q == 0:
            break
        v0, v1 = v0 - q * u0, v1 - q * u1
        nv = nv - q * (2 * t - q * nu)
        if nv == 0:
            raise ValueError("dependent rows in 2d basis")
    return [[u0, u1], [v0, v1]]


def canonical_sign(vec):
    """vec or -vec as a tuple, whichever has a positive first nonzero entry."""
    return tuple(vec) if next(x for x in vec if x) > 0 else tuple(-x for x in vec)


_INEXACT = "inexact division in all-integer LLL (bug)"


def _gso_row(b, d, lam, i):
    # fill lam[i][:i] and d[i + 1] from rows 0..i of b and the data of rows < i
    row = b[i]
    lam_i = lam[i]
    for j in range(i + 1):
        u = _dot(row, b[j])
        for k in range(j):
            u, r = divmod(d[k + 1] * u - lam_i[k] * lam[j][k], d[k])
            if r:
                raise ArithmeticError(_INEXACT)
        if j < i:
            lam_i[j] = u
        elif u <= 0:
            raise ValueError("dependent rows in LLL input")
        else:
            d[i + 1] = u


def integral_gso(rows):
    """Integral Gram-Schmidt data of independent integer rows.

    Returns (d, lam): d[i] is the Gram determinant of the first i rows
    (d[0] = 1, d[i + 1] / d[i] = ||b*_i||^2) and lam[i][j] = d[j + 1] * mu_{i,j}
    for j < i, all integers; every division below is exact.  Raises
    ValueError on dependent rows.  lll_reduce builds the same rows lazily.
    """
    n = len(rows)
    d, lam = [1] + [0] * n, [[0] * n for _ in range(n)]
    for i in range(n):
        _gso_row(rows, d, lam, i)
    return d, lam


def lll_reduce(rows, beat=None):
    """All-integer LLL reduction (de Weger variant) of independent rows.

    Works entirely on the integers d_i (Gram determinants of leading blocks)
    and lambda[i][j] = d_{j+1} * mu_{i,j}; every division below is exact.
    Row k's data is computed when k first exceeds k_max and a swap updates
    lambda in rows k+1..k_max only (Cohen, Alg. 2.6.7), so a reduction that
    `beat` cuts short never builds the rows it does not reach.

    Returns a new list of rows spanning the same lattice, LLL-reduced with
    parameter delta = 3/4.  Raises ValueError on dependent rows.

    With `beat` set, stops as soon as the lattice is known to hold a
    nonzero vector of squared norm <= beat, and returns the basis it holds
    then, that vector first, so shortest_vectors' entry check gives up on
    it at once: at entry the first input row that qualifies moves to the
    front, and right after each swap at k = 1 whose new first row qualifies
    (d[1] = ||b_0||^2; only that swap changes b_0) the rows are returned as
    they stand.  Otherwise the result is the same as without `beat`, so the
    result leads with a row of squared norm <= beat exactly when the call
    stopped.  A dependent row raises when reached, so with `beat` a call
    may stop (still a true "a vector <= beat exists") before a later one.
    """
    b = [list(row) for row in rows]
    if beat is not None:
        for i, row in enumerate(b):
            if _dot(row, row) <= beat:
                b.insert(0, b.pop(i))
                return b
    n = len(b)
    if n == 1:
        return b
    d, lam = [1] + [0] * n, [[0] * n for _ in range(n)]
    _gso_row(b, d, lam, 0)
    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            _gso_row(b, d, lam, k)
        row = b[k]
        lam_k = lam[k]
        # size-reduce row k against rows k-1, ..., 0 (|mu_{k,l}| <= 1/2,
        # i.e. 2|lambda| <= d[l+1]); after l = k-1, the Lovasz test at
        # delta = 3/4, in integers, may cut the loop short for a swap
        for l in range(k - 1, -1, -1):
            dl = d[l + 1]
            x = lam_k[l]
            if 2 * abs(x) > dl:
                q = _round_div(x, dl)
                row = [s - q * t for s, t in zip(row, b[l])]
                lam_k[l] = x = x - q * dl
                lam_l = lam[l]
                for i in range(l):
                    lam_k[i] -= q * lam_l[i]
            if l == k - 1 and 4 * (d[l] * d[k + 1] + x * x) < 3 * dl * dl:
                break
        else:
            b[k] = row
            k += 1
            continue
        # swap rows l = k-1 and k; x = lambda[k][k-1] stays as it is
        b[k] = b[l]
        b[l] = row
        lam_k[:l], lam[l][:l] = lam[l][:l], lam_k[:l]
        d_lo, d_hi = d[l], d[k + 1]
        new_dk, r = divmod(d_lo * d_hi + x * x, dl)
        if r:
            raise ArithmeticError(_INEXACT)
        for i in range(k + 1, k_max + 1):
            lam_i = lam[i]
            old_hi = lam_i[l]
            old_lo = lam_i[k]
            lam_i[k], r = divmod(d_hi * old_hi - x * old_lo, dl)
            lam_i[l], r2 = divmod(x * old_hi + d_lo * old_lo, dl)
            if r or r2:
                raise ArithmeticError(_INEXACT)
        d[k] = new_dk
        if k > 1:
            k -= 1
        elif beat is not None and new_dk <= beat:
            return b
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
    # a basis LLL stopped with `beat` leads with its qualifying row
    best = _dot(rows[0], rows[0])
    if beat is not None and best <= beat:
        return None
    for row in rows[1:]:
        best = min(best, _dot(row, row))
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
