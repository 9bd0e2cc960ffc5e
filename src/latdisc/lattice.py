"""Integration lattices, their duals, and point enumeration.

An integration lattice is a full-rank lattice L in R^d that contains the
integer lattice Z^d.  Its node set P = L intersected with [0,1)^d is finite,
of size N = 1/det(L) (det taken over any basis), and is exactly the point
set a lattice rule integrates over.  The dual lattice

    L-perp = { h : <h, x> in Z for every x in L }

is an integer lattice of determinant N and drives everything quantitative in
this package: the spectral test of L is sigma(L) = 1 / min{ ||h|| : h in
L-perp, h != 0 }.

Bases are canonicalized to Hermite normal form on construction, so two
lattices are equal iff their `basis` attributes are equal.  Everything is
exact (Fractions); nothing here rounds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    CapExceededError,
    InputError,
    NotIntegrationLatticeError,
)
from .linalg import RationalMatrix, Vector, as_fraction, as_vector

DEFAULT_ENUM_CAP = 10**6


class IntegrationLattice:
    """A lattice L with Z^d <= L < R^d, canonical HNF basis rows.

    Attributes
    ----------
    basis : RationalMatrix
        Canonical (HNF) basis, rows are basis vectors.
    dim : int
    n_points : int or None
        N = det(dual) = number of nodes in [0,1)^d.  None for lattices
        admitted by the relaxed constructor, where the unit-cube count is
        whatever enumerate_points finds.
    is_integration : bool
        True when Z^d <= L was verified.
    rank1_data : (n, generator) or None
        Set when the lattice was built as a rank-1 rule; presentational
        only (serialization uses it for the compact JSON form).
    """

    __slots__ = ("basis", "dim", "n_points", "is_integration", "rank1_data")

    def __init__(self, basis, dim, n_points, is_integration, rank1_data=None):
        self.basis = basis
        self.dim = dim
        self.n_points = n_points
        self.is_integration = is_integration
        self.rank1_data = rank1_data

    def __eq__(self, other):
        return (
            isinstance(other, IntegrationLattice)
            and self.basis == other.basis
            and self.is_integration == other.is_integration
        )

    def __hash__(self):
        return hash((self.basis, self.is_integration))

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

    def integer_rows(self) -> list[list[int]]:
        """Basis rows as plain ints; raises if any entry is fractional."""
        rows = []
        for row in self.basis.rows:
            if any(x.denominator != 1 for x in row):
                raise InputError("dual basis is not integral (relaxed lattice)")
            rows.append([int(x) for x in row])
        return rows


class PointSet:
    """The nodes of a lattice in [0,1)^d, in deterministic enumeration order."""

    __slots__ = ("points", "dim")

    def __init__(self, points: Sequence[Vector], dim: int):
        self.points = tuple(tuple(p) for p in points)
        self.dim = dim

    @property
    def n_points(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, PointSet) and set(self.points) == set(other.points)

    def __repr__(self):
        return f"PointSet(n={len(self.points)}, dim={self.dim})"


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
    basis = linalg.hnf(RationalMatrix(rows), scale=n)
    n_points = _point_count_from_basis(basis)
    return IntegrationLattice(basis, d, n_points, True, rank1_data=(n, g))


def from_basis(rows, relaxed: bool = False) -> IntegrationLattice:
    """Lattice spanned by the given basis rows, canonicalized to HNF.

    By default the result must be an integration lattice (contain Z^d);
    a violating unit vector is reported otherwise.  With relaxed=True any
    full-rank lattice is accepted, for the constructions and bounds that
    hold without the Z^d <= L hypothesis.
    """
    matrix = rows if isinstance(rows, RationalMatrix) else RationalMatrix(rows)
    if not matrix.is_square:
        raise InputError("a lattice basis must be square (d independent rows)")
    basis = linalg.hnf(matrix)
    d = matrix.n_cols
    inv = linalg.inverse(basis)
    # Z^d <= L  iff  every unit vector e_i is an integer combination of the
    # basis rows; the coefficient vector of e_i is row i of basis^-1.
    if all(c.denominator == 1 for row in inv.rows for c in row):
        return IntegrationLattice(basis, d, _point_count_from_basis(basis), True)
    if not relaxed:
        for i in range(d):
            if any(c.denominator != 1 for c in inv.rows[i]):
                raise NotIntegrationLatticeError(
                    f"unit vector e_{i + 1} is not in the lattice",
                    witness=tuple(int(j == i) for j in range(d)),
                )
    return IntegrationLattice(basis, d, None, False)


def _point_count_from_basis(basis: RationalMatrix) -> int:
    determinant = linalg.det(basis)
    n = 1 / determinant
    if n.denominator != 1 or n <= 0:
        raise InputError("basis determinant is not the reciprocal of a point count")
    return int(n)


def dual(lattice: IntegrationLattice) -> DualLattice:
    """The dual lattice, with canonical HNF basis.

    For integration lattices the dual basis is integral and its determinant
    equals the node count N; both facts are verified here.
    """
    inv_t = linalg.inverse(lattice.basis).transpose()
    basis = linalg.hnf(inv_t)
    det_value = linalg.det(basis)
    if lattice.is_integration:
        if any(x.denominator != 1 for row in basis.rows for x in row):
            raise InputError("dual of an integration lattice must be integral (bug)")
        if det_value != lattice.n_points:
            raise InputError("dual determinant does not equal the node count (bug)")
    return DualLattice(basis, lattice.dim, det_value)


def membership(lattice: IntegrationLattice, x) -> bool:
    """Exact test whether the rational vector x lies in the lattice."""
    vec = as_vector(x)
    if len(vec) != lattice.dim:
        raise InputError("vector dimension does not match the lattice")
    coeffs = linalg.solve_right(lattice.basis.transpose(), vec)
    return all(c.denominator == 1 for c in coeffs)


def enumerate_points(
    lattice: IntegrationLattice, cap: int = DEFAULT_ENUM_CAP
) -> PointSet:
    """All lattice points in [0,1)^d, exactly, in deterministic order.

    Walks the HNF basis level by level: since the basis is upper triangular
    with positive diagonal, fixing coordinates left to right turns the cube
    constraint into one integer interval per level.  Raises CapExceededError
    when more than `cap` points would be produced (a desk-scale limit, not a
    failure of the input).
    """
    if lattice.n_points is not None and lattice.n_points > cap:
        raise CapExceededError(
            f"lattice has {lattice.n_points} points, cap is {cap}"
        )
    d = lattice.dim
    rows = lattice.basis.rows
    points: list[Vector] = []
    shift = [Fraction(0)] * d  # contributions of the fixed levels per coordinate
    coords: list[Fraction] = []

    def recurse(level: int):
        if level == d:
            points.append(tuple(coords))
            if len(points) > cap:
                raise CapExceededError(f"more than {cap} lattice points in the cube")
            return
        pivot = rows[level][level]
        base = shift[level]
        # 0 <= base + c * pivot < 1 with pivot > 0 bounds c to one interval
        lo = -(base // pivot)
        hi = -((base - 1) // pivot) - 1
        for c in range(lo, hi + 1):
            coords.append(base + c * pivot)
            for j in range(level + 1, d):
                shift[j] += c * rows[level][j]
            recurse(level + 1)
            for j in range(level + 1, d):
                shift[j] -= c * rows[level][j]
            coords.pop()

    recurse(0)
    return PointSet(points, d)


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
        if not lattice.is_integration:
            payload["integration"] = False
    return json.dumps(payload, sort_keys=True)


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not counts.
    return isinstance(value, int) and not isinstance(value, bool)


def from_json(text: str) -> IntegrationLattice:
    """Parse the interchange JSON; raises InputError on malformed input."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
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
        relaxed = payload.get("integration") is False
        lattice = from_basis(rows, relaxed=relaxed)
        stated_n = payload.get("n")
        if stated_n is not None and not _is_int(stated_n):
            raise InputError("basis JSON 'n' must be an integer")
        if stated_n is not None and lattice.n_points != stated_n:
            raise InputError(
                f"stated n={stated_n} disagrees with basis (n={lattice.n_points})"
            )
        return lattice
    raise InputError(f"unknown lattice kind {kind!r}")
