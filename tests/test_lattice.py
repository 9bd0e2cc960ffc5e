"""Lattice construction, duals, point enumeration, and JSON interchange."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latdisc import linalg, lattice, reduction
from latdisc.errors import (
    CapExceededError,
    InputError,
    NotIntegrationLatticeError,
    RankDeficientError,
)

F = Fraction


def _rank1_nodes(n, g):
    d = len(g)
    return {tuple(F(k * g[j] % n, n) for j in range(d)) for k in range(n)}


class TestFromRank1:
    def test_known_small_rule(self):
        lat = lattice.from_rank1(5, (1, 3))
        assert lat.dim == 2
        assert lat.n_points == 5
        assert lat.rank1_data == (5, (1, 3))
        assert lat.spec_string() == "rank1(5,1,3)"

    def test_generator_with_common_factor_collapses(self):
        # (2/6, 4/6) reduces to (1/3, 2/3): only 3 distinct nodes
        lat = lattice.from_rank1(6, (2, 4))
        assert lat.n_points == 3
        nodes = oracles.nodes(lattice.enumerate_points(lat))
        assert set(nodes) == _rank1_nodes(6, (2, 4))

    def test_trivial_rule_is_integer_lattice(self):
        lat = lattice.from_rank1(1, (0, 0, 0))
        assert lat.n_points == 1
        assert lat.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert lat.denominator == 1

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            lattice.from_rank1(0, (1,))
        with pytest.raises(InputError):
            lattice.from_rank1(5, ())
        with pytest.raises(InputError):
            lattice.from_rank1(F(5, 2), (1,))

    @pytest.mark.parametrize(
        "n,g",
        [
            (5, (F(1, 2), 3)),  # was truncated to the generator (0, 3)
            (5, (1.7, 3)),  # was truncated to (1, 3)
            (5, ("1", 3)),
            (5, (True, 3)),
            (True, (1,)),  # was accepted as n = 1, printed as n=True
            (5.0, (1, 3)),
        ],
    )
    def test_non_integer_inputs_rejected(self, n, g):
        with pytest.raises(InputError):
            lattice.from_rank1(n, g)

    def test_integer_rows_over_the_least_denominator(self):
        # (6; 2, 4) is the rule (3; 1, 2): H = [[1, 2], [0, 3]] over q = 3
        lat = lattice.from_rank1(6, (2, 4))
        assert (lat.rows, lat.denominator) == (((1, 2), (0, 3)), 3)


@st.composite
def rational_bases(draw):
    """Square rational bases, d <= 4: random small fractions (mostly missing
    a unit vector, sometimes singular), or the inverse transpose of an
    integer matrix (an integration lattice), half of them with their
    columns scaled by small integers, which can drop any unit vector."""
    d = draw(st.integers(1, 4))

    def square(entries):
        return st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)

    if draw(st.integers(0, 2)) == 0:
        return draw(square(st.fractions(min_value=-3, max_value=3, max_denominator=4)))
    m = draw(square(st.integers(-3, 3)).filter(lambda m: oracles.det(m) != 0))
    scales = [1] * d
    if draw(st.booleans()):
        scales = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=d, max_size=d))
    inv = oracles.inverse(m)
    return [[inv[j][i] * scales[j] for j in range(d)] for i in range(d)]


class TestFromBasis:
    def test_identity_is_z_d(self):
        lat = lattice.from_basis([[1, 0], [0, 1]])
        assert lat.n_points == 1
        assert lat.spec_string() == "basis(d=2,n=1)"

    def test_equals_rank1_presentation(self):
        rows = [[F(1, 5), F(3, 5)], [0, 1]]
        assert lattice.from_basis(rows) == lattice.from_rank1(5, (1, 3))

    @pytest.mark.parametrize(
        "rows,witness",
        [
            ([[2, 0], [0, 1]], (1, 0)),
            ([[1, 0], [0, 2]], (0, 1)),
            ([[F(1, 2), 0, 0], [0, F(2, 3), F(1, 3)], [0, 0, 1]], (0, 1, 0)),
        ],
    )
    def test_non_integration_reports_witness(self, rows, witness):
        with pytest.raises(NotIntegrationLatticeError) as exc:
            lattice.from_basis(rows)
        assert exc.value.witness == witness

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            lattice.from_basis([[1, 0, 0], [0, 1, 0]])

    def test_singular_rejected(self):
        with pytest.raises(InputError):
            lattice.from_basis([[1, 2], [2, 4]])

    @given(rational_bases())
    @settings(max_examples=300, deadline=None)
    def test_against_fraction_oracle(self, rows):
        inv = oracles.inverse(rows)
        if inv is None:
            with pytest.raises(RankDeficientError):
                lattice.from_basis(rows)
            return
        missing = [i for i, row in enumerate(inv) if any(x.denominator != 1 for x in row)]
        if missing:
            # the witness is the unit vector of the first non-integral row of B^-1
            with pytest.raises(NotIntegrationLatticeError) as exc:
                lattice.from_basis(rows)
            d = len(rows)
            assert exc.value.witness == tuple(int(j == missing[0]) for j in range(d))
            return
        lat = lattice.from_basis(rows)
        q = lat.denominator
        assert lat.n_points == 1 / abs(oracles.det(rows))
        assert gcd(q, *(x for row in lat.rows for x in row)) == 1
        # q is the least common denominator of the rational HNF basis H / q
        assert q == lcm(*(x.denominator for row in oracles.basis(lat) for x in row))
        # H / q spans the lattice of the rows
        for a, b in ((rows, oracles.basis(lat)), (oracles.basis(lat), rows)):
            assert all(x.denominator == 1 for row in oracles.matmul(a, oracles.inverse(b)) for x in row)
        if lat.n_points <= 2000:
            assert lattice.enumerate_points(lat).denominator == q


class TestDual:
    def test_known_dual_basis(self):
        lat = lattice.from_rank1(5, (1, 3))
        assert lattice.dual(lat) == ((1, 3), (0, 5))
        assert oracles.det(lattice.dual(lat)) == 5

    def test_dual_of_z_d_is_z_d(self):
        assert lattice.dual(lattice.from_basis([[1, 0], [0, 1]])) == oracles.identity(2)

    def test_dual_vectors_pair_integrally_with_nodes(self):
        lat = lattice.from_rank1(7, (1, 2, 3))
        for row in lattice.dual(lat):
            for p in oracles.nodes(lattice.enumerate_points(lat)):
                assert sum(h * x for h, x in zip(row, p)).denominator == 1


class TestInverseReuse:
    """from_basis keeps the rows of q H^-1 it computes to test Z^d <= L,
    and dual reuses them instead of inverting H again."""

    # (1/4)Z x (1/3)Z x (1/2)Z, re-presented by a unimodular matrix
    ROWS = [[F(1, 4), F(1, 3), 0], [0, F(1, 3), F(1, 2)], [F(1, 4), F(2, 3), 1]]

    @pytest.fixture
    def inverse_calls(self, monkeypatch):
        calls = []

        def spy(rows, scale):
            calls.append(rows)
            return inverse(rows, scale)

        inverse = linalg.inverse
        monkeypatch.setattr(linalg, "inverse", spy)
        return calls

    def test_dual_of_from_basis_inverts_once(self, inverse_calls):
        lat = lattice.from_basis(self.ROWS)
        basis = lattice.dual(lat)
        assert len(inverse_calls) == 1
        assert basis == lattice.dual(lattice.IntegrationLattice(lat.rows, lat.denominator))

    def test_basis_json_then_spectral_test_inverts_once(self, inverse_calls):
        lat = lattice.from_json(lattice.to_json(lattice.from_basis(self.ROWS)))
        inverse_calls.clear()
        lat = lattice.from_json(lattice.to_json(lat))
        reduction.spectral_test(lat)
        assert len(inverse_calls) == 1

    def test_direct_construction_still_inverts(self, inverse_calls):
        lat = lattice.from_basis(self.ROWS)
        direct = lattice.IntegrationLattice(lat.rows, lat.denominator)
        inverse_calls.clear()
        assert lattice.dual(direct) == lattice.dual(lat)
        assert len(inverse_calls) == 1

    def test_kept_rows_do_not_change_identity(self):
        lat = lattice.from_basis(self.ROWS)
        direct = lattice.IntegrationLattice(lat.rows, lat.denominator)
        assert lat._inverse is not None and direct._inverse is None
        assert lat == direct and hash(lat) == hash(direct)
        assert repr(lat) == repr(direct)


class TestMembership:
    """Nodes and other vectors checked against the lattice through
    oracles.lattice_contains (integer coordinates in the HNF basis)."""

    def test_nodes_are_members(self):
        lat = lattice.from_rank1(5, (1, 3))
        for p in oracles.nodes(lattice.enumerate_points(lat)):
            assert oracles.lattice_contains(oracles.basis(lat), p)
        assert oracles.lattice_contains(oracles.basis(lat), (1, 1))
        assert oracles.lattice_contains(oracles.basis(lat), (F(6, 5), F(8, 5)))

    def test_non_members(self):
        lat = lattice.from_rank1(5, (1, 3))
        assert not oracles.lattice_contains(oracles.basis(lat), (F(1, 5), F(2, 5)))
        assert not oracles.lattice_contains(oracles.basis(lat), (F(1, 2), F(1, 2)))


class TestEnumeratePoints:
    def test_matches_closed_form(self):
        lat = lattice.from_rank1(5, (1, 3))
        pts = lattice.enumerate_points(lat)
        assert len(pts) == 5
        assert set(oracles.nodes(pts)) == _rank1_nodes(5, (1, 3))

    def test_deterministic_order(self):
        lat = lattice.from_rank1(8, (1, 5))
        assert oracles.nodes(lattice.enumerate_points(lat)) == oracles.nodes(
            lattice.enumerate_points(lat)
        )

    def test_cap_from_known_count(self):
        lat = lattice.from_rank1(100, (1, 33))
        with pytest.raises(CapExceededError):
            lattice.enumerate_points(lat, cap=99)

    @given(
        st.integers(2, 60),
        st.lists(st.integers(0, 59), min_size=1, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_rank1_enumeration_matches_closed_form(self, n, g):
        lat = lattice.from_rank1(n, g)
        pts = lattice.enumerate_points(lat)
        expected = _rank1_nodes(n, g)
        assert set(oracles.nodes(pts)) == expected
        assert len(pts) == len(expected) == lat.n_points


class TestJSON:
    def test_rank1_round_trip(self):
        lat = lattice.from_rank1(5, (1, 3))
        again = lattice.from_json(lattice.to_json(lat))
        assert again == lat
        assert again.rank1_data == (5, (1, 3))

    def test_basis_round_trip(self):
        lat = lattice.from_basis([[F(1, 5), F(3, 5)], [0, 1]])
        again = lattice.from_json(lattice.to_json(lat))
        assert again == lat
        assert again.n_points == 5

    def test_serialization_is_stable(self):
        lat = lattice.from_rank1(5, (1, 3))
        assert lattice.to_json(lat) == lattice.to_json(lat)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"kind": "rank1"}',
            '{"kind": "rank1", "dim": 2, "n": 5, "generator": [1]}',
            '{"kind": "rank1", "dim": 2, "n": 5, "generator": [1, "3"]}',
            '{"kind": "basis", "dim": 2, "basis": [["1"]]}',
            '{"kind": "mystery", "dim": 2}',
            '{"kind": "rank1", "dim": 0, "n": 5, "generator": []}',
            '{"kind": "basis", "dim": 2, "n": 7, "basis": [["1/5", "3/5"], ["0", "1"]]}',
            # JSON booleans load as Python bools, which subclass int
            '{"kind": "rank1", "dim": 2, "n": true, "generator": [1, 3]}',
            '{"kind": "rank1", "dim": true, "n": 5, "generator": [1]}',
            '{"kind": "rank1", "dim": 2, "n": 5, "generator": [true, 3]}',
            '{"kind": "basis", "dim": 2, "basis": [[true, 0], [0, 1]]}',
            '{"kind": "basis", "dim": 2, "n": true, "basis": [["1", "0"], ["0", "1"]]}',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(InputError):
            lattice.from_json(text)


class TestStructuralInvariants:
    @given(
        st.integers(1, 40),
        st.lists(st.integers(-20, 20), min_size=1, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_rank1_invariants(self, n, g):
        lat = lattice.from_rank1(n, g)
        # N = det(dual) and N divides n (collapsing only ever shrinks)
        assert oracles.det(lattice.dual(lat)) == lat.n_points
        assert n % (lat.n_points * gcd(n, *g, n)) in (0, n % lat.n_points)
        assert lat.n_points == n // gcd(n, *(list(g) + [n]))
        # the generator node itself is a member
        assert oracles.lattice_contains(oracles.basis(lat), [F(x, n) for x in g])
        # round trip through JSON is the identity
        assert lattice.from_json(lattice.to_json(lat)) == lat

    def test_equality_and_hash(self):
        a = lattice.from_rank1(5, (1, 3))
        b = lattice.from_basis([[F(1, 5), F(3, 5)], [0, 1]])
        c = lattice.from_rank1(5, (1, 2))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "rank1(5,1,3)"
