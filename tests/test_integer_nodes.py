"""Integer node arithmetic against the literal rational definitions.

Nodes are integer numerators over a shared denominator, and every per-node
pass compares integers against thresholds scaled once per body.  These
properties pin that to the rational reference on the cases that matter:
rank-1 rules with gcd > 1 and g[0] != 1, re-presented bases, lattices
given by an arbitrary integer dual basis, and bodies whose offsets and
corners sit exactly on node values, open and closed.  Both branches of the
node walk, the closed-form rank-1 columns and the general HNF walk, must
give the Fraction walk's nodes in its order, and the text `points` prints
for each numerator must be the Fraction's.
"""

import random
from array import array
from fractions import Fraction
from hashlib import sha256
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latdisc import cli, constructions, lattice, volume
from latdisc.volume import AxisBox, Halfspace, Slab

F = Fraction
CAP = 5000


def _fraction_walk(lat):
    """The HNF walk in Fraction arithmetic: the reference node order."""
    d = lat.dim
    rows = oracles.basis(lat)
    points = []
    shift = [F(0)] * d
    coords = []

    def recurse(level):
        if level == d:
            points.append(tuple(coords))
            return
        pivot = rows[level][level]
        base = shift[level]
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
    return points


def _assert_matches_fraction_walk(pts, lat):
    """pts holds the nodes of lat in the reference order, as one array('q')
    per coordinate with every numerator in [0, q); returns the reference."""
    reference = _fraction_walk(lat)
    assert oracles.nodes(pts) == reference
    assert len(pts) == len(reference) == lat.n_points
    q = pts.denominator
    assert len(pts.columns) == lat.dim
    for column in pts.columns:
        assert isinstance(column, array) and column.typecode == "q"
        assert all(0 <= x < q for x in column)
    return reference


def _closed_form_shape(lat):
    """Whether the scaled HNF is [[1, g_1, ...], q e_1, ..., q e_(d-1)]."""
    rows, q = lat.rows, lat.denominator
    return rows[0][0] == 1 and all(
        row == tuple(q * (j == i) for j in range(lat.dim))
        for i, row in enumerate(rows)
        if i
    )


def _axes(*m):
    """(1/m_1)Z x ... x (1/m_d)Z."""
    return lattice.from_basis([[F(int(i == j), mj) for j, mj in enumerate(m)] for i in range(len(m))])


def _fills(lat):
    """The (column kind, regime) pairs of the general walk's fills on lat.
    The kind is "level" for the coordinate a level fixes, "entry" for a
    column under a nonzero row entry and "zero" for the rest; the regime is
    "strided" where a loop over the m children per parent is the shorter
    (m < P parents for runs, m <= P for zero columns), else "per-parent"."""
    rows, q = lat.rows, lat.denominator
    parents, fills = 1, set()
    for level, row in enumerate(rows):
        m = q // row[level]
        for j, r in enumerate(row):
            if j == level or r:
                kind = "level" if j == level else "entry"
                fills.add((kind, "strided" if m < parents else "per-parent"))
            else:
                fills.add(("zero", "strided" if m <= parents else "per-parent"))
        parents *= m
    return fills


@st.composite
def rank1_rules(draw):
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 60))
    g = draw(st.lists(st.integers(0, 2 * n), min_size=d, max_size=d))
    return lattice.from_rank1(n, g)


@st.composite
def unimodular(draw, d):
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, d - 1))
        j = draw(st.integers(0, d - 1))
        if i != j:
            k = draw(st.integers(-3, 3))
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    return u


@st.composite
def represented_rules(draw):
    """A rank-1 rule handed in as a non-canonical basis of the same lattice."""
    lat = draw(rank1_rules())
    u = draw(unimodular(lat.dim))
    return lattice.from_basis(oracles.matmul(u, oracles.basis(lat)))


@st.composite
def dual_spanned(draw):
    """The integration lattice whose dual is spanned by a random integer
    basis: its basis is the inverse transpose of that one.  Entries bounded
    by k keep N = |det| <= (k sqrt(d))^d (Hadamard) under CAP: 1296 at
    d = 4 with k = 3, and 1789 at d = 5 with k = 2."""
    d = draw(st.integers(1, 5))
    k = 3 if d <= 4 else 2
    m = draw(
        st.lists(
            st.lists(st.integers(-k, k), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        ).filter(lambda m: oracles.det(m) != 0)
    )
    return lattice.from_basis(list(zip(*oracles.inverse(m))))


lattices = st.one_of(rank1_rules(), represented_rules(), dual_spanned())


@st.composite
def normals(draw, d):
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    return tuple(draw(st.lists(entries, min_size=d, max_size=d).filter(any)))


@st.composite
def lattices_with_bodies(draw):
    lat = draw(lattices)
    nodes = _fraction_walk(lat)
    d = lat.dim
    node = st.sampled_from(nodes)
    shape = draw(st.sampled_from(["halfspace", "slab", "box"]))
    closed = draw(st.booleans())
    if shape == "box":
        corners = [draw(node), draw(node)]
        if draw(st.booleans()):
            corners[1] = tuple(F(1) for _ in range(d))
        lo = tuple(min(a, b) for a, b in zip(*corners))
        hi = tuple(max(a, b) for a, b in zip(*corners))
        return lat, AxisBox(lo, hi, open=not closed)
    a = draw(normals(d))
    value = lambda x: sum(c * xi for c, xi in zip(a, x))
    if shape == "halfspace":
        return lat, Halfspace(a, value(draw(node)), closed=closed)
    lo, hi = sorted((value(draw(node)), value(draw(node))))
    if lo == hi:
        closed = True
    return lat, Slab(a, lo, hi, open=not closed)


class TestIntegerNodes:
    @given(lattices)
    @settings(max_examples=150, deadline=None)
    def test_enumeration_matches_fraction_walk(self, lat):
        pts = lattice.enumerate_points(lat, cap=CAP)
        reference = _assert_matches_fraction_walk(pts, lat)
        same = oracles.point_set(reference, lat.dim)
        assert set(oracles.nodes(pts)) == set(oracles.nodes(same))

    @given(lattices_with_bodies())
    @settings(max_examples=300, deadline=None)
    def test_counts_match_literal_membership(self, lat_body):
        lat, body = lat_body
        pts = lattice.enumerate_points(lat, cap=CAP)
        literal = sum(volume.body_contains(body, x) for x in oracles.nodes(pts))
        expected = F(literal, len(pts)) - volume.body_volume(body)
        # the rational constructor picks its own shared denominator
        for node_set in (pts, oracles.point_set(oracles.nodes(pts), lat.dim)):
            assert volume.count_inside(node_set, body) == literal
            assert volume.local_discrepancy(node_set, body) == expected


class TestRank1:
    @given(rank1_rules())
    @settings(max_examples=150, deadline=None)
    def test_node_count_formula(self, lat):
        n, g = lat.rank1_data
        assert lat.n_points == n // gcd(n, *g)


class TestWalkBranches:
    @pytest.mark.parametrize(
        "lat",
        [
            constructions.fibonacci_lattice(10),
            constructions.korobov_lattice(61, 17, 3),
            lattice.from_rank1(12, (1, 24, 5)),
            lattice.from_rank1(7, (3,)),
        ],
        ids=["fibonacci", "korobov", "zero-column", "d=1"],
    )
    def test_closed_form(self, lat):
        assert _closed_form_shape(lat)
        _assert_matches_fraction_walk(lattice.enumerate_points(lat), lat)

    @pytest.mark.parametrize(
        "lat",
        [
            lattice.from_rank1(12, (2, 3)),
            lattice.from_rank1(30, (6, 10, 15)),
            constructions.bad_lattice(5, 3),
            constructions.bad_lattice(4),
            constructions.scaled_integer_lattice(4, 3),
            constructions.bad_lattice(3, 5),
            # one level has a single child (q / p = 1), all rows diagonal
            lattice.from_basis([[1, 0], [0, F(1, 2)]]),
            lattice.from_basis([[F(1, 2), 0, 0], [0, 1, 0], [0, 0, F(1, 3)]]),
            # the same, under nonzero off-diagonal entries: scaled rows
            # [[1, 2, 3], [0, 3, 3], [0, 0, 6]], and [[3, 0, 6], [0, 4, 0],
            # [0, 0, 12]] with a zero above one later pivot
            lattice.from_basis(
                [[F(1, 6), F(1, 3), F(1, 2)], [0, F(1, 2), F(1, 2)], [0, 0, 1]]
            ),
            lattice.from_rank1(12, (3, 4, 6)),
        ],
        ids=[
            "g0-12-2", "g0-30-6", "bad-3d", "bad-2d", "grid-3d", "bad-5d",
            "single-child-first", "single-child-middle", "single-child-last",
            "single-child-zero-above",
        ],
    )
    def test_general_walk(self, lat):
        assert not _closed_form_shape(lat)
        _assert_matches_fraction_walk(lattice.enumerate_points(lat), lat)

    @pytest.mark.parametrize(
        "lat, fill",
        [
            # (1/2)Z x (1/5)Z: q = 10, H = diag(5, 2); level 1 has 2 parents
            # of 5 children
            (_axes(2, 5), ("zero", "per-parent")),
            (_axes(2, 5), ("level", "per-parent")),
            # (1/5)Z x (1/2)Z: H = diag(2, 5); 5 parents of 2 children
            (_axes(5, 2), ("zero", "strided")),
            (_axes(5, 2), ("level", "strided")),
            # (1/4)Z^2: 4 parents of 4 children, where a stretch is strided
            # and a run is one range per parent
            (_axes(4, 4), ("zero", "strided")),
            (_axes(4, 4), ("level", "per-parent")),
            # scaled rows [[3, 0, 0], [0, 2, 4], [0, 0, 6]]: the entry 4
            # at level 1, 2 parents of 3 children
            (lattice.from_rank1(6, (3, 2, 4)), ("entry", "per-parent")),
            # [[3, 2, 16], [0, 6, 12], [0, 0, 18]]: the entry 12 at level 1,
            # 6 parents of 3 children
            (lattice.from_rank1(18, (15, 10, 8)), ("entry", "strided")),
        ],
        ids=[
            "zero-per-parent", "level-per-parent", "zero-strided", "level-strided",
            "m=P-zero", "m=P-level", "entry-per-parent", "entry-strided",
        ],
    )
    def test_fill_regimes(self, lat, fill):
        assert not _closed_form_shape(lat)
        assert fill in _fills(lat)
        _assert_matches_fraction_walk(lattice.enumerate_points(lat), lat)

    @pytest.mark.parametrize(
        "axes, fill, digests",
        [
            # 100000 parents of 2 children
            (
                (100000, 2),
                ("level", "strided"),
                (
                    "cf4f86daf5a5a29440b83a5179b71f566cd9e70c625f4e5b5f50e9617335178e",
                    "5300c388bce2d715a1b48072cd55c5b5443e6dea109c9ea7f4d28c07edae7d7f",
                ),
            ),
            # 2 parents of 100000 children
            (
                (2, 100000),
                ("level", "per-parent"),
                (
                    "f93cc7aa6e05fe3dee07f8eacb32e0269193bbde6a73d5cf8ea0a0df1bf570d1",
                    "98e351ac519063a9dbc345291cf8a7158a405e002a83088e7e3eda4412c6ee24",
                ),
            ),
        ],
        ids=["wide-then-narrow", "narrow-then-wide"],
    )
    def test_lopsided(self, axes, fill, digests):
        """N = 200000 is too many nodes for the Fraction walk: each column's
        SHA-256 over its comma-joined numerators was recorded from the walk
        that built one range or repeat per parent at every level."""
        lat = _axes(*axes)
        assert fill in _fills(lat)
        pts = lattice.enumerate_points(lat, cap=200000)
        digest = [sha256(",".join(map(str, c)).encode()).hexdigest() for c in pts.columns]
        assert len(pts) == 200000 and tuple(digest) == digests

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("axes", [(16, 16, 16), (45, 45, 2)], ids=["scaled-16", "bad-45"])
    def test_benchmark_grids(self, axes, seed):
        """The grids of the benchmark's grid3d workload, given by a basis
        re-presented with a seeded unimodular matrix, as the workload does."""
        rng = random.Random(seed)
        order = rng.sample(range(3), 3)
        u = [[int(j == order[i]) * rng.choice((1, -1)) for j in range(3)] for i in range(3)]
        for _ in range(8):
            i, j = rng.sample(range(3), 2)
            k = rng.choice((-2, -1, 1, 2))
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        lat = lattice.from_basis([[F(x, m) for x, m in zip(row, axes)] for row in u])
        assert lat == _axes(*axes) and u != [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        _assert_matches_fraction_walk(lattice.enumerate_points(lat), lat)


class TestNumeratorTexts:
    @pytest.mark.parametrize("q", [1, 2, 90, 97, 360, 5040, 10946])
    def test_each_text_is_the_fraction(self, q):
        texts = cli._numerator_texts(q)
        assert texts == [str(F(x, q)) for x in range(q)]
