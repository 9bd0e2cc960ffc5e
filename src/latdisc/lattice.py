"""Integration lattices, their duals, and point enumeration.

An integration lattice is a full-rank lattice L in R^d that contains the
integer lattice Z^d; it is the only kind of lattice this package builds, and
a basis whose lattice misses a unit vector is refused with that vector as
the witness.  Its node set P = L intersected with [0,1)^d is finite,
of size N = 1/det(L) (det taken over any basis), and is exactly the point
set a lattice rule integrates over.  The dual lattice

    L-perp = { h : <h, x> in Z for every x in L }

is an integer lattice of determinant N and drives everything quantitative in
this package: the spectral test of L is sigma(L) = 1 / min{ ||h|| : h in
L-perp, h != 0 }.

Bases are canonicalized to Hermite normal form on construction, so two
lattices are equal iff their `basis` attributes are equal.  Everything is
exact; nothing here rounds.  Bases are Fractions; nodes are integer
numerators over one shared denominator q (the lcm of the HNF denominators,
a divisor of N for an integration lattice), so per-node work is integer.
"""

from __future__ import annotations

import json
import math
from array import array
from fractions import Fraction
from itertools import chain, count, islice, repeat
from typing import Iterable, Iterator, Sequence

from . import linalg
from .errors import (
    CapExceededError,
    InputError,
    InvariantViolationError,
    NotIntegrationLatticeError,
)
from .linalg import RationalMatrix, Vector, as_vector

DEFAULT_ENUM_CAP = 10**6
_BLOCK = 1 << 15  # nodes per block of a products stream


class IntegrationLattice:
    """A lattice L with Z^d <= L < R^d, canonical HNF basis rows.

    Attributes
    ----------
    basis : RationalMatrix
        Canonical (HNF) basis, rows are basis vectors.
    dim : int
    n_points : int
        N = det(dual) = number of nodes in [0,1)^d.
    rank1_data : (n, generator) or None
        Set when the lattice was built as a rank-1 rule; presentational
        only (serialization uses it for the compact JSON form).
    """

    __slots__ = ("basis", "dim", "n_points", "rank1_data")

    def __init__(self, basis, dim, n_points, rank1_data=None):
        self.basis = basis
        self.dim = dim
        self.n_points = n_points
        self.rank1_data = rank1_data

    def __eq__(self, other):
        return isinstance(other, IntegrationLattice) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        if self.rank1_data is not None:
            n, g = self.rank1_data
            return f"IntegrationLattice(rank1, n={n}, generator={list(g)})"
        return f"IntegrationLattice(dim={self.dim}, n={self.n_points})"

    def spec_string(self) -> str:
        """Short human-readable description for reports."""
        if self.rank1_data is not None:
            n, g = self.rank1_data
            return f"rank1({n},{','.join(str(x) for x in g)})"
        return f"basis(d={self.dim},n={self.n_points})"


class DualLattice:
    """The dual L-perp of an integration lattice, canonical HNF basis.

    For an integration lattice the dual is a sublattice of Z^d with
    determinant N, so `basis` has integer entries and det_value == N.
    """

    __slots__ = ("basis", "dim", "det_value")

    def __init__(self, basis, dim, det_value):
        self.basis = basis
        self.dim = dim
        self.det_value = det_value

    def __eq__(self, other):
        return isinstance(other, DualLattice) and self.basis == other.basis

    def __repr__(self):
        return f"DualLattice(dim={self.dim}, det={self.det_value})"


class PointSet:
    """The nodes of a lattice in [0,1)^d, in deterministic enumeration order.

    Node x is stored as the integer vector X = q * x over one shared
    denominator q: `columns` holds one array('q') per coordinate, entry i of
    column j being X_j of node i, so per-node passes are integer arithmetic
    over flat machine-integer arrays.  Built from rational points, q is the
    least common multiple of their denominators.  Iterating, len and == give
    the exact Fraction tuples, built on demand; no hot path uses that view.
    """

    __slots__ = ("columns", "denominator", "dim")

    def __init__(self, points: Sequence[Vector], dim: int):
        rows = [as_vector(p) for p in points]
        q = math.lcm(*(x.denominator for p in rows for x in p))
        self.columns = tuple(array("q", [int(p[j] * q) for p in rows]) for j in range(dim))
        self.denominator, self.dim = q, dim

    def __iter__(self):
        q = self.denominator
        return (tuple(Fraction(v, q) for v in x) for x in zip(*self.columns))

    def __len__(self):
        return len(self.columns[0])

    def __eq__(self, other):
        return isinstance(other, PointSet) and set(self) == set(other)

    def __repr__(self):
        return f"PointSet(n={len(self)}, dim={self.dim})"

    def products(self, a) -> Iterator[int]:
        """<a, X> for every numerator vector X, in node order, as a stream:
        summed one column at a time, skipping zero coefficients, over blocks
        of _BLOCK nodes, so no list of all N products is ever alive."""
        (c0, col0), *terms = [(c, col) for c, col in zip(a, self.columns) if c]

        def blocks():
            for lo in range(0, len(self), _BLOCK):
                acc = [c0 * x for x in col0[lo : lo + _BLOCK]]
                for c, col in terms:
                    acc = [s + c * x for s, x in zip(acc, col[lo : lo + _BLOCK])]
                yield acc

        return chain.from_iterable(blocks())


def from_rank1(n: int, generator: Iterable[int]) -> IntegrationLattice:
    """The rank-1 lattice generated by Z^d together with generator/n.

    Its nodes are the fractional parts {(k/n) * generator}, k = 0..n-1,
    which repeat with period N = n / gcd(n, g_1, ..., g_d): that is the node
    count, and the determinant of the dual.
    """
    if not isinstance(n, int) or n < 1:
        raise InputError("rank-1 modulus n must be a positive integer")
    g = tuple(int(x) for x in generator)
    if not g:
        raise InputError("rank-1 generator must be nonempty")
    d = len(g)
    rows = [[Fraction(x, n) for x in g]]
    rows.extend(
        [Fraction(int(i == j)) for j in range(d)] for i in range(d)
    )
    basis = linalg.hnf(RationalMatrix(rows))
    n_points = _point_count_from_basis(basis)
    return IntegrationLattice(basis, d, n_points, rank1_data=(n, g))


def from_basis(rows) -> IntegrationLattice:
    """Integration lattice spanned by the given basis rows, canonicalized to
    HNF.  Raises NotIntegrationLatticeError, with the first unit vector the
    lattice misses as witness, when it does not contain Z^d.
    """
    matrix = rows if isinstance(rows, RationalMatrix) else RationalMatrix(rows)
    if not matrix.is_square:
        raise InputError("a lattice basis must be square (d independent rows)")
    basis = linalg.hnf(matrix)
    d = matrix.n_cols
    inv = linalg.inverse(basis)
    # Z^d <= L  iff  every unit vector e_i is an integer combination of the
    # basis rows; the coefficient vector of e_i is row i of basis^-1.
    for i, row in enumerate(inv.rows):
        if any(c.denominator != 1 for c in row):
            raise NotIntegrationLatticeError(
                f"unit vector e_{i + 1} is not in the lattice",
                witness=tuple(int(j == i) for j in range(d)),
            )
    return IntegrationLattice(basis, d, _point_count_from_basis(basis))


def _point_count_from_basis(basis: RationalMatrix) -> int:
    determinant = linalg.det(basis)
    n = 1 / determinant
    if n.denominator != 1 or n <= 0:
        raise InputError("basis determinant is not the reciprocal of a point count")
    return int(n)


def dual(lattice: IntegrationLattice) -> DualLattice:
    """The dual lattice, with canonical HNF basis.

    The dual basis of an integration lattice is integral and its determinant
    equals the node count N; both facts are verified here.
    """
    inv_t = linalg.inverse(lattice.basis).transpose()
    basis = linalg.hnf(inv_t)
    det_value = linalg.det(basis)
    if any(x.denominator != 1 for row in basis.rows for x in row):
        raise InputError("dual of an integration lattice must be integral (bug)")
    if det_value != lattice.n_points:
        raise InputError("dual determinant does not equal the node count (bug)")
    return DualLattice(basis, lattice.dim, det_value)


def enumerate_points(
    lattice: IntegrationLattice, cap: int = DEFAULT_ENUM_CAP
) -> PointSet:
    """All lattice points in [0,1)^d, exactly, in deterministic order.

    Scales the HNF basis by q to integer rows: upper triangular, and each
    pivot p_j divides q, since q e_j is in L.  Fixing coordinates left to
    right turns 0 <= X < q into one run of q / p_j integers per level.  If
    row 0 has pivot 1 and every later row is q e_j (a rank-1 rule with
    g_0 = 1), node k is (k, k g_1 mod q, ...): the closed-form branch.
    Otherwise the walk recurses down to the last level, whose runs fill the
    last column.  Raises CapExceededError, before the walk, when the N nodes
    are more than `cap` (a desk-scale limit, not a failure of the input).
    """
    if lattice.n_points > cap:
        raise CapExceededError(
            f"lattice has {lattice.n_points} points, cap is {cap}"
        )
    d = lattice.dim
    rows, q = lattice.basis.scaled_integer_rows()
    points = PointSet((), d)
    points.denominator = q
    if rows[0][0] == 1 and all(rows[i][i] == q for i in range(1, d)):
        # then row i >= 1 is q e_i: q e_i is in L and HNF entries lie in [0, q)
        points.columns = tuple(
            array("q", map(q.__rmod__, islice(count(0, g), q))) for g in rows[0]
        )
        return points

    leaves = []  # the combinations of rows 0..d-2 that fix X_1..X_(d-1)

    def walk(level: int, v: tuple[int, ...]):
        # v = the fixed levels' combination of rows; its level-th entry is
        # the base that 0 <= base + c * pivot < q (pivot > 0) bounds c around
        row = rows[level]
        pivot, base = row[level], v[level]
        cs = range(-(base // pivot), (q - 1 - base) // pivot + 1)
        children = (tuple(a + c * b for a, b in zip(v, row)) for c in cs)
        if level < d - 2:  # d >= 2: at d = 1 the HNF is [[1/N]], closed form
            for child in children:
                walk(level + 1, child)
        else:
            leaves.extend(children)

    walk(0, (0,) * d)
    p = rows[-1][-1]  # each leaf's last level is the run range(base % p, q, p)
    *heads, bases = zip(*leaves)
    runs = map(range, map(p.__rmod__, bases), repeat(q), repeat(p))
    points.columns = tuple(
        array("q", chain.from_iterable(map(repeat, h, repeat(q // p)))) for h in heads
    ) + (array("q", chain.from_iterable(runs)),)
    return points


def to_json(lattice: IntegrationLattice) -> str:
    """Serialize to the interchange JSON (compact rank-1 form when known)."""
    if lattice.rank1_data is not None:
        n, g = lattice.rank1_data
        payload = {
            "dim": lattice.dim,
            "kind": "rank1",
            "n": n,
            "generator": list(g),
        }
    else:
        payload = {
            "dim": lattice.dim,
            "kind": "basis",
            "n": lattice.n_points,
            "basis": lattice.basis.to_string_rows(),
        }
    return json.dumps(payload, sort_keys=True)


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not counts.
    return isinstance(value, int) and not isinstance(value, bool)


def from_json(text: str) -> IntegrationLattice:
    """Parse the interchange JSON; raises InputError on malformed input."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("lattice JSON must be an object")
    kind = payload.get("kind")
    dim = payload.get("dim")
    if not _is_int(dim) or dim < 1:
        raise InputError("lattice JSON needs a positive integer 'dim'")
    if kind == "rank1":
        n = payload.get("n")
        g = payload.get("generator")
        if not _is_int(n) or not isinstance(g, list) or len(g) != dim:
            raise InputError("rank1 JSON needs integer 'n' and a d-vector 'generator'")
        if not all(_is_int(x) for x in g):
            raise InputError("rank1 generator entries must be integers")
        return from_rank1(n, g)
    if kind == "basis":
        rows = payload.get("basis")
        if not isinstance(rows, list) or len(rows) != dim:
            raise InputError("basis JSON needs a d x d 'basis' array")
        lattice = from_basis(rows)
        stated_n = payload.get("n")
        if stated_n is not None and not _is_int(stated_n):
            raise InputError("basis JSON 'n' must be an integer")
        if stated_n is not None and lattice.n_points != stated_n:
            raise InputError(
                f"stated n={stated_n} disagrees with basis (n={lattice.n_points})"
            )
        return lattice
    raise InputError(f"unknown lattice kind {kind!r}")
