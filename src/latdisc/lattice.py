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
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    CapExceededError,
    InputError,
    InvariantViolationError,
    NotIntegrationLatticeError,
)
from .linalg import RationalMatrix, Vector, as_vector

DEFAULT_ENUM_CAP = 10**6


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
    denominator q (`numerators`, `denominator`), so per-node passes are
    integer arithmetic.  Built from rational points, q is the least common
    multiple of their denominators.  Iterating, `points`, len and == give
    the exact Fraction tuples, built on demand; no hot path uses that view.
    """

    __slots__ = ("numerators", "denominator", "dim")

    def __init__(self, points: Sequence[Vector], dim: int):
        rows = [as_vector(p) for p in points]
        q = math.lcm(*(x.denominator for p in rows for x in p))
        self.numerators = tuple(tuple(int(x * q) for x in p) for p in rows)
        self.denominator, self.dim = q, dim

    @classmethod
    def from_numerators(cls, numerators, denominator: int, dim: int) -> "PointSet":
        """The point set with nodes X / denominator, X in `numerators`."""
        pts = cls((), dim)
        pts.numerators, pts.denominator = tuple(numerators), denominator
        return pts

    @property
    def points(self) -> tuple[Vector, ...]:
        return tuple(self)

    @property
    def n_points(self) -> int:
        return len(self.numerators)

    def __iter__(self):
        q = self.denominator
        return (tuple(Fraction(v, q) for v in x) for x in self.numerators)

    def __len__(self):
        return len(self.numerators)

    def __eq__(self, other):
        return isinstance(other, PointSet) and set(self) == set(other)

    def __repr__(self):
        return f"PointSet(n={len(self.numerators)}, dim={self.dim})"

    def products(self, a) -> list:
        """<a, X> for every numerator vector X, in node order."""
        return [sum(map(mul, a, x)) for x in self.numerators]

    def plane_values(self, normal) -> list[int]:
        """The integers <normal, x>, one per node; InvariantViolationError
        when a node is off the plane family (q does not divide <normal, X>)."""
        q = self.denominator
        values = self.products(normal)
        if any(v % q for v in values):
            raise InvariantViolationError(
                f"a node has non-integer product with dual vector {normal}"
            )
        return [v // q for v in values]


def from_rank1(n: int, generator: Iterable[int]) -> IntegrationLattice:
    """The rank-1 lattice generated by Z^d together with generator/n.

    Its nodes are the N = n fractional parts {(k/n) * generator}, k = 0..n-1,
    when gcd considerations do not collapse them; in general the node count
    is n / gcd-related factors, but the lattice itself is always well defined
    and N = det of its dual.
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

    Walks the HNF basis, scaled by q to integer rows, level by level: since
    the basis is upper triangular with positive diagonal, fixing coordinates
    left to right turns the cube constraint 0 <= X < q into one integer
    interval per level.  Raises CapExceededError, before the walk, when the
    N nodes are more than `cap` (a desk-scale limit, not a failure of the
    input).
    """
    if lattice.n_points > cap:
        raise CapExceededError(
            f"lattice has {lattice.n_points} points, cap is {cap}"
        )
    d = lattice.dim
    rows, q = lattice.basis.scaled_integer_rows()
    nodes: list[tuple[int, ...]] = []

    def walk(level: int, v: tuple[int, ...]):
        # v = the fixed levels' combination of rows; its level-th entry is
        # the base that 0 <= base + c * pivot < q (pivot > 0) bounds c around
        row = rows[level]
        pivot, base = row[level], v[level]
        cs = range(-(base // pivot), (q - 1 - base) // pivot + 1)
        if level < d - 1:
            for c in cs:
                walk(level + 1, tuple(a + c * b for a, b in zip(v, row)))
            return
        nodes.extend(v[:-1] + (base + c * pivot,) for c in cs)

    walk(0, (0,) * d)
    return PointSet.from_numerators(nodes, q, d)


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
