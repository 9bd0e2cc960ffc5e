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

A lattice is held in integers: L = H Z^d / q for the canonical (HNF)
integer basis H of q L and the least such q, so two lattices are equal iff
their (rows, denominator) pairs are.  Each pivot of H divides q (q e_l is in
q L), N = q^d / prod(pivots), and the nodes are integer numerators over the
same q, so per-node work is integer.  Everything is exact; nothing here
rounds.
"""

from __future__ import annotations

import json
from array import array
from fractions import Fraction
from itertools import chain, count, islice, repeat
from math import gcd, lcm, prod
from operator import sub
from typing import Iterable

from . import linalg
from .errors import (
    CapExceededError,
    InputError,
    NotIntegrationLatticeError,
)

DEFAULT_ENUM_CAP = 10**6
_BLOCK = 1 << 15  # nodes per block of a products stream


class IntegrationLattice:
    """A lattice L with Z^d <= L < R^d, held as L = H Z^d / q.

    Built from `rows`, the HNF of scale L for some positive integer scale,
    and `scale`; their common factor is divided out, so q is the least
    denominator: gcd(q, every entry of H) = 1.

    Attributes
    ----------
    rows : tuple of tuples of int
        H, the canonical (HNF) basis of q L, rows are basis vectors.
    denominator : int
        q.
    dim : int
    n_points : int
        N = q^d / prod(pivots of H) = number of nodes in [0,1)^d.
    rank1_data : (n, generator) or None
        Set when the lattice was built as a rank-1 rule; presentational
        only (serialization uses it for the compact JSON form).
    """

    __slots__ = ("rows", "denominator", "dim", "n_points", "rank1_data", "_inverse")

    def __init__(self, rows, scale, rank1_data=None):
        g = gcd(scale, *chain.from_iterable(rows))
        self.rows = tuple(tuple(x // g for x in row) for row in rows)
        self.denominator = q = scale // g
        self.dim = d = len(rows)
        self.n_points = q**d // prod(row[i] for i, row in enumerate(self.rows))
        self.rank1_data = rank1_data
        self._inverse = None  # rows of q H^-1, when from_basis has them

    def __eq__(self, other):
        return isinstance(other, IntegrationLattice) and (
            self.rows, self.denominator
        ) == (other.rows, other.denominator)

    def __hash__(self):
        return hash((self.rows, self.denominator))

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


class PointSet:
    """The nodes of a lattice in [0,1)^d, in deterministic enumeration order.

    Node x is stored as the integer vector X = q * x over one shared
    denominator q: `columns` holds one array('q') per coordinate, entry i of
    column j being X_j of node i, so per-node passes are integer arithmetic
    over flat machine-integer arrays, and dim = len(columns).  len is the
    node count; node x_i is Fraction(columns[j][i], q) in coordinate j.
    """

    __slots__ = ("columns", "denominator", "dim")

    def __init__(self, columns: Iterable[array], denominator: int):
        self.columns = tuple(columns)
        self.denominator, self.dim = denominator, len(self.columns)

    def __len__(self):
        return len(self.columns[0])

    def __repr__(self):
        return f"PointSet(n={len(self)}, dim={self.dim})"

    def products(self, a) -> Iterable[int]:
        """<a, X> for every numerator vector X, in node order: the column
        itself for a unit vector a, else a stream summed one column at a
        time, skipping zero coefficients, over blocks of _BLOCK nodes, so no
        list of all N products is ever alive."""
        (c0, col0), *terms = [(c, col) for c, col in zip(a, self.columns) if c]
        if c0 == 1 and not terms:
            return col0

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
    if not _is_int(n) or n < 1:
        raise InputError("rank-1 modulus n must be a positive integer")
    g = tuple(generator)
    if not g:
        raise InputError("rank-1 generator must be nonempty")
    if not all(map(_is_int, g)):
        raise InputError("rank-1 generator entries must be integers")
    d = len(g)
    # n L is spanned by g and n e_1, ..., n e_d
    rows = [g, *([n * (i == j) for j in range(d)] for i in range(d))]
    return IntegrationLattice(linalg.hnf(rows, d), n, rank1_data=(n, g))


def from_basis(rows) -> IntegrationLattice:
    """Integration lattice spanned by the given basis rows (ints, Fractions
    or 'p/q' strings), canonicalized to HNF.  Raises
    NotIntegrationLatticeError, with the first unit vector the lattice
    misses as witness, when it does not contain Z^d.
    """
    matrix = [linalg.as_vector(row) for row in rows]
    d = len(matrix)
    if not d or any(len(row) != d for row in matrix):
        raise InputError("a lattice basis must be square (d independent rows)")
    scale = lcm(*(x.denominator for row in matrix for x in row))
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in matrix]
    lattice = IntegrationLattice(linalg.hnf(ints, d), scale)
    # Z^d <= L  iff  every unit vector e_i is an integer combination of the
    # basis rows H / q; the coefficient vector of e_i is row i of q H^-1.
    lattice._inverse = linalg.inverse(lattice.rows, lattice.denominator)
    for i, row in enumerate(lattice._inverse):
        if row is None:
            raise NotIntegrationLatticeError(
                f"unit vector e_{i + 1} is not in the lattice",
                witness=tuple(int(j == i) for j in range(d)),
            )
    return lattice


def dual(lattice: IntegrationLattice) -> tuple[tuple[int, ...], ...]:
    """The canonical HNF basis of the dual lattice, integer rows that are
    basis vectors: the HNF of the columns of q H^-1, the inverse of the
    basis H / q.

    The dual basis of an integration lattice is integral and its determinant,
    the product of its pivots, equals the node count N; both facts are
    verified here.
    """
    inv = lattice._inverse or linalg.inverse(lattice.rows, lattice.denominator)
    if None in inv:
        raise InputError("dual of an integration lattice must be integral (bug)")
    basis = linalg.hnf(list(zip(*inv)), lattice.dim)
    if prod(row[i] for i, row in enumerate(basis)) != lattice.n_points:
        raise InputError("dual determinant does not equal the node count (bug)")
    return basis


def enumerate_points(
    lattice: IntegrationLattice, cap: int = DEFAULT_ENUM_CAP
) -> PointSet:
    """All lattice points in [0,1)^d, exactly, in deterministic order.

    Walks the integer rows H of q L: upper triangular, and each pivot p_l
    divides q, since q e_l is in q L.  If row 0 has pivot 1 and
    every later row is q e_j (a rank-1 rule with g_0 = 1), node k is
    (k, k g_1 mod q, ...): the closed-form branch.  Otherwise the walk
    fixes one coordinate per level, breadth first, one column at a time.
    Level l adds c times row l to each parent combination v; exactly
    m = q / p_l values of c put X_l = v_l + c p_l in [0, q), so column j of
    the children is one run of m values per parent, of step r_j (row l's
    entry), filled by one range (or repeat, where r_j = 0) per parent or by
    one strided slice per child, whichever loop is shorter.  Children
    follow their parent in order of X_l, so the nodes come out in lex order
    of their numerator vectors, as a depth-first walk would give them.  A
    parent's subtree depends only on the coordinates it has fixed (q e_j is
    in qL), so its later entries are kept reduced mod q, below q^2.  Raises
    CapExceededError, before the walk, when the N nodes are more than `cap`
    (a desk-scale limit, not a failure of the input).
    """
    if lattice.n_points > cap:
        raise CapExceededError(
            f"lattice has {lattice.n_points} points, cap is {cap}"
        )
    d = lattice.dim
    rows, q = lattice.rows, lattice.denominator
    if rows[0][0] == 1 and all(rows[i][i] == q for i in range(1, d)):
        # then row i >= 1 is q e_i: q e_i is in q L and HNF entries lie in [0, q)
        # column 0 is k itself (g_0 = 1); a later g may be 0, which range refuses
        later = (array("q", map(q.__rmod__, islice(count(0, g), q))) for g in rows[0][1:])
        return PointSet((array("q", range(q)), *later), q)

    columns = [array("q", [0])] * d  # one parent, the zero combination
    for level, row in enumerate(rows):
        pivot = row[level]
        m = q // pivot
        if any(row[level + 1 :]):
            # the first child adds c0 = -(v_l // pivot) times the row
            shifts = list(map(pivot.__rfloordiv__, columns[level]))
        children = []
        for j, (column, r) in enumerate(zip(columns, row)):
            if j == level:
                children.append(_progressions(list(map(pivot.__rmod__, column)), pivot, m))
            elif r:
                starts = list(map(q.__rmod__, map(sub, column, map(r.__mul__, shifts))))
                children.append(_progressions(starts, r, m))
            else:  # every j < level, and zeros above later pivots
                children.append(_stretch(column, m))
        columns = children
    return PointSet(columns, q)


def _stretch(column: array, m: int) -> array:
    """Each entry of column repeated m times in place."""
    if m > len(column):  # loop in Python over the shorter count
        return array("q", chain.from_iterable(map(repeat, column, repeat(m))))
    out = array("q", [0]) * (len(column) * m)
    for c in range(m):
        out[c::m] = column
    return out


def _progressions(starts: list, step: int, m: int) -> array:
    """start, start + step, ..., start + (m - 1) step for each start."""
    if m >= len(starts):  # loop in Python over the shorter count
        stops = map((m * step).__add__, starts)
        return array("q", chain.from_iterable(map(range, starts, stops, repeat(step))))
    out = array("q", [0]) * (len(starts) * m)
    for c in range(m):
        out[c::m] = array("q", map((c * step).__add__, starts))
    return out


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
            "basis": [
                [str(Fraction(x, lattice.denominator)) for x in row]
                for row in lattice.rows
            ],
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
        if not isinstance(rows, list) or len(rows) != dim or not all(
            isinstance(row, list) and len(row) == dim for row in rows
        ):
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
