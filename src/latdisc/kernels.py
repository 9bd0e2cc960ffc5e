"""Integer lattice kernels.

These are the inner loops of the whole package: basis reduction and the
brute-force search boxes used as independent oracles.  Everything works on
plain Python ints (arbitrary precision, no overflow by construction) and is
deterministic.

All functions take and return lists of ints.  None of them knows about
Fractions or lattices; callers scale rational bases to integers first.
"""


def _dot(u, v):
    s = 0
    for a, b in zip(u, v):
        s += a * b
    return s


def _round_div(a, b):
    # nearest integer to a/b for b > 0, ties rounded toward +infinity
    return (2 * a + b) // (2 * b)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def gauss_reduce_2d(rows):
    """Lagrange-Gauss reduce a rank-2 integer basis.

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


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact division in all-integer LLL (bug)")
    return q


def lll_reduce(rows, delta_num=3, delta_den=4):
    """All-integer LLL reduction (de Weger variant) of independent rows.

    Works entirely on the integers d_i (Gram determinants of leading blocks)
    and lambda[i][j] = d_{j+1} * mu_{i,j}; every division below is exact.
    delta = delta_num/delta_den must satisfy 1/4 < delta < 1.

    Returns a new list of rows spanning the same lattice, LLL-reduced with
    parameter delta.  Raises ValueError on dependent rows.
    """
    if not (4 * delta_num > delta_den and delta_num < delta_den):
        raise ValueError("delta must satisfy 1/4 < delta < 1")
    b = [list(row) for row in rows]
    n = len(b)
    if n == 1:
        return b
    d = [0] * (n + 1)
    d[0] = 1
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = _dot(b[i], b[j])
            for k in range(j):
                u = _exact_div(d[k + 1] * u - lam[i][k] * lam[j][k], d[k])
            if j < i:
                lam[i][j] = u
            else:
                if u <= 0:
                    raise ValueError("dependent rows in LLL input")
                d[i + 1] = u

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
        if delta_den * (d[k - 1] * d[k + 1] + lam_k * lam_k) < delta_num * d[k] * d[k]:
            swap_rows(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_row(k, l)
            k += 1
    return b


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
    shared = _gcd(g0, n)
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
