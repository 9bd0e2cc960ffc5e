"""Exact linear algebra on integer rows.

A lattice basis is a list of integer *rows*, the basis vectors; a rational
lattice L is carried as the integer rows of q L for one integer q, so the
matrix work below never meets a fraction.  The Hermite normal form used
throughout is the row-style one: pivots on the diagonal, positive, with the
entries above each pivot reduced modulo it.  It is the canonical
representative of the row span, so two bases generate the same lattice
exactly when their HNFs are equal, and the determinant of a basis in HNF
is the product of its pivots.  The matrices are small (lattice bases, a
handful of rows), so clarity wins over asymptotics.

as_fraction and as_vector parse the rational entries of user input (basis
documents, bodies); gram_schmidt is the one Fraction computation here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, RankDeficientError

Vector = tuple[Fraction, ...]


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to Fraction.

    Floats are rejected on purpose: admitting them silently would launder
    rounding error into a pipeline whose whole point is exactness.  So are
    booleans, which Python counts as ints but which are never numbers here.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {value!r}") from exc
    raise InputError(f"expected int, Fraction, or 'p/q' string, got {type(value).__name__}")


def as_vector(values: Iterable) -> Vector:
    return tuple(as_fraction(v) for v in values)


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise InputError("dot product of vectors with different lengths")
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


def hnf(rows: Sequence[Sequence[int]], n_cols: int) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of integer rows spanning full column rank.

    The rows may be any generating set (more rows than columns is fine).
    Returns the n_cols x n_cols upper-triangular basis of their span with
    positive diagonal and 0 <= entry < pivot above each pivot.  Raises
    RankDeficientError if the rows do not span rank n_cols.
    """
    work = [list(row) for row in rows]
    n_rows = len(work)
    pivot = 0
    for col in range(n_cols):
        while True:
            nonzero = [i for i in range(pivot, n_rows) if work[i][col] != 0]
            if not nonzero:
                raise RankDeficientError(
                    f"rows do not have full column rank (stuck at column {col})"
                )
            best = min(nonzero, key=lambda i: (abs(work[i][col]), i))
            work[pivot], work[best] = work[best], work[pivot]
            done = True
            for i in range(pivot + 1, n_rows):
                if work[i][col] != 0:
                    q = work[i][col] // work[pivot][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[pivot])]
                    if work[i][col] != 0:
                        done = False
            if done:
                break
        if work[pivot][col] < 0:
            work[pivot] = [-a for a in work[pivot]]
        for i in range(pivot):
            q = work[i][col] // work[pivot][col]
            if q != 0:
                work[i] = [a - q * b for a, b in zip(work[i], work[pivot])]
        pivot += 1
    for i in range(pivot, n_rows):
        if any(a != 0 for a in work[i]):
            raise InputError("rows outside the span of the computed HNF (bug)")
    return tuple(map(tuple, work[:n_cols]))


def inverse(
    rows: Sequence[Sequence[int]], scale: int
) -> list[tuple[int, ...] | None]:
    """The rows of scale * H^-1 for the upper-triangular integer rows H of
    an HNF, with None for each row that is not integral.

    Row i, x, solves x H = scale e_i.  H is upper triangular, so x_j = 0
    for j < i and column j fixes x_j from x_i .. x_{j-1}:

        x_j = (scale [i == j] - sum_{i <= k < j} x_k H_kj) / H_jj,

    a forward substitution in which the first inexact division proves the
    row non-integral.
    """
    d = len(rows)
    out = []
    for i in range(d):
        x = [0] * d
        for j in range(i, d):
            num = (scale if i == j else 0) - sum(x[k] * rows[k][j] for k in range(i, j))
            x[j], rem = divmod(num, rows[j][j])
            if rem:
                out.append(None)
                break
        else:
            out.append(tuple(x))
    return out


def gram_schmidt(
    rows: Sequence[Sequence],
) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Exact Gram-Schmidt orthogonalization (no normalization).

    Returns (gso, mu) as tuples of Fraction rows: gso[i] is the orthogonal
    vector b*_i and mu is unit lower triangular with
    mu[i][j] = <b_i, b*_j> / <b*_j, b*_j>.  Raises RankDeficientError if
    the rows are linearly dependent.
    """
    n = len(rows)
    gso: list[list[Fraction]] = []
    norms: list[Fraction] = []
    mu = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        star = [Fraction(x) for x in rows[i]]
        for j in range(i):
            coeff = dot(rows[i], gso[j]) / norms[j]
            mu[i][j] = coeff
            star = [a - coeff * b for a, b in zip(star, gso[j])]
        norm = dot(star, star)
        if norm == 0:
            raise RankDeficientError(f"row {i} is linearly dependent on earlier rows")
        gso.append(star)
        norms.append(norm)
    return tuple(map(tuple, gso)), tuple(map(tuple, mu))
