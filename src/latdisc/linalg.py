"""Exact linear algebra over the rationals.

Everything in this module is exact: entries are fractions.Fraction, there is
no floating point anywhere, and results are reproducible bit for bit.  The
matrices involved are small (lattice bases, a handful of rows), so clarity
wins over asymptotics; the one concession to speed is the fraction-free
Bareiss elimination used for determinants, which keeps intermediate integers
from exploding the way naive integer Gaussian elimination does.

Conventions
-----------
Matrices are immutable and stored as tuples of tuples of Fraction.  A basis
is a matrix whose *rows* are the basis vectors.  The Hermite normal form used
throughout is the row-style one: pivots on the diagonal, positive, with the
entries above each pivot reduced modulo it.  It is the canonical
representative of the row span, so two bases generate the same lattice
exactly when their HNFs are equal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError, RankDeficientError, SingularMatrixError

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


class RationalMatrix:
    """An immutable matrix of Fractions.

    Parameters
    ----------
    rows : iterable of iterables
        Entries may be ints, Fractions, or 'p/q' strings.

    Notes
    -----
    Row vectors are the unit of meaning here (bases are lists of row
    vectors), so iteration and indexing are row first.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        materialized = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        if not materialized or not materialized[0]:
            raise InputError("matrix must have at least one row and one column")
        width = len(materialized[0])
        if any(len(row) != width for row in materialized):
            raise InputError("ragged rows in matrix")
        object.__setattr__(self, "rows", materialized)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, index) -> Fraction:
        i, j = index
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix([{body}])"

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.rows)))

    def scaled_integer_rows(self) -> tuple[list[list[int]], int]:
        """Return (integer rows, scale) with integer_rows == scale * self.

        scale is the least common multiple of all entry denominators, so it
        is the smallest positive integer making every entry integral.
        """
        scale = 1
        for row in self.rows:
            for x in row:
                scale = scale * x.denominator // math.gcd(scale, x.denominator)
        ints = [[int(x * scale) for x in row] for row in self.rows]
        return ints, scale

    def to_string_rows(self) -> list[list[str]]:
        """Entries as exact 'p/q' strings (used by the JSON/CSV writers)."""
        return [[str(x) for x in row] for row in self.rows]


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss elimination).

    Intermediate entries are themselves determinants of minors, so the
    divisions below are exact and entry growth stays polynomial.
    """
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det(matrix: RationalMatrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if not matrix.is_square:
        raise InputError("determinant requires a square matrix")
    ints, scale = matrix.scaled_integer_rows()
    n = matrix.n_rows
    return Fraction(_bareiss_det(ints), scale**n)


def inverse(matrix: RationalMatrix) -> RationalMatrix:
    """Exact inverse via Gauss-Jordan elimination on an augmented matrix."""
    if not matrix.is_square:
        raise InputError("inverse requires a square matrix")
    n = matrix.n_rows
    aug = [
        list(matrix.rows[i]) + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return RationalMatrix([row[n:] for row in aug])


def _hnf_int(rows: list[list[int]], n_cols: int) -> list[list[int]]:
    """Row-style Hermite normal form of integer rows spanning full column rank.

    Returns an n_cols x n_cols upper-triangular matrix with positive diagonal
    and 0 <= entry < pivot above each pivot.  Raises RankDeficientError if the
    rows do not span rank n_cols.
    """
    work = [row[:] for row in rows]
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
    return work[:n_cols]


def hnf(matrix: RationalMatrix) -> RationalMatrix:
    """Canonical (row-style Hermite) form of the row span of `matrix`.

    The rows may be any generating set (more rows than columns is fine);
    the result is the unique upper-triangular basis with positive diagonal
    and entries above each pivot reduced modulo it.  It is computed on the
    rows scaled to integers by the lcm of the entry denominators.

    Raises RankDeficientError when the rows do not span full column rank.
    """
    ints, scale = matrix.scaled_integer_rows()
    reduced = _hnf_int(ints, matrix.n_cols)
    return RationalMatrix([[Fraction(a, scale) for a in row] for row in reduced])


def gram_schmidt(basis: RationalMatrix) -> tuple[RationalMatrix, RationalMatrix]:
    """Exact Gram-Schmidt orthogonalization (no normalization).

    Returns (gso, mu) where gso rows are the orthogonal vectors b*_i and mu
    is unit lower triangular with mu[i][j] = <b_i, b*_j> / <b*_j, b*_j>.
    Raises RankDeficientError if the rows are linearly dependent.
    """
    rows = [list(r) for r in basis.rows]
    n = len(rows)
    gso: list[list[Fraction]] = []
    norms: list[Fraction] = []
    mu = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        star = list(rows[i])
        for j in range(i):
            coeff = dot(rows[i], gso[j]) / norms[j]
            mu[i][j] = coeff
            star = [a - coeff * b for a, b in zip(star, gso[j])]
        norm = dot(star, star)
        if norm == 0:
            raise RankDeficientError(f"row {i} is linearly dependent on earlier rows")
        gso.append(star)
        norms.append(norm)
    return RationalMatrix(gso), RationalMatrix(mu)
