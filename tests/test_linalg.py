"""Exact linear algebra on integer rows: HNF, the scaled inverse of an HNF,
Gram-Schmidt; checked against the Fraction matrices of tests/oracles.py."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latdisc.errors import InputError, RankDeficientError
from latdisc.linalg import as_fraction, dot, gram_schmidt, hnf, inverse

F = Fraction


class TestAsFraction:
    def test_int_fraction_string(self):
        assert as_fraction(3) == F(3)
        assert as_fraction(F(2, 7)) == F(2, 7)
        assert as_fraction("3/5") == F(3, 5)
        assert as_fraction("-4") == F(-4)

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            as_fraction(0.5)

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            as_fraction("3/5/7")
        with pytest.raises(InputError):
            as_fraction(None)


@st.composite
def hnf_rows(draw, max_d=4, max_pivot=12):
    """An upper-triangular integer matrix in HNF: positive pivots, entries
    above each pivot in [0, pivot)."""
    d = draw(st.integers(1, max_d))
    pivots = draw(st.lists(st.integers(1, max_pivot), min_size=d, max_size=d))
    return tuple(
        tuple(
            pivots[j] if j == i
            else draw(st.integers(0, pivots[j] - 1)) if j > i
            else 0
            for j in range(d)
        )
        for i in range(d)
    )


class TestInverse:
    def test_hand_value(self):
        # the rank-1 rule (5; 1, 3): H = [[1, 3], [0, 5]] over q = 5
        assert inverse(((1, 3), (0, 5)), 5) == [(5, -3), (0, 1)]

    def test_non_integral_rows_are_none(self):
        assert inverse(((2, 0), (0, 1)), 1) == [None, (0, 1)]
        assert inverse(((1, 0), (0, 2)), 1) == [(1, 0), None]

    @given(hnf_rows(), st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_inverse(self, rows, scale):
        # row i is scale times row i of H^-1 when that is integral, else None
        reference = oracles.inverse(rows)
        for got, row in zip(inverse(rows, scale), reference):
            scaled = tuple(scale * x for x in row)
            if all(x.denominator == 1 for x in scaled):
                assert got == scaled
            else:
                assert got is None


class TestHNF:
    def test_hand_value_rank1_dual(self):
        assert hnf([[1, 3], [5, 0], [0, 5]], 2) == ((1, 3), (0, 5))

    def test_hand_value_three_generators(self):
        assert hnf([[2, 0], [0, 2], [1, 1]], 2) == ((1, 1), (0, 2))

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            hnf([[1, 2], [2, 4]], 2)

    def test_idempotent(self):
        h = hnf([[4, 7], [2, 9]], 2)
        assert hnf(h, 2) == h

    @given(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=2, max_size=2),
            min_size=2,
            max_size=4,
        ),
        st.lists(st.integers(-2, 2), min_size=2, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_row_operations_preserve_hnf(self, rows, coeffs):
        # adding an integer combination of other rows to a generating set
        # does not change the lattice, hence not the canonical form
        try:
            base = hnf(rows, 2)
        except RankDeficientError:
            return
        extra = [
            sum(c * row[j] for c, row in zip(coeffs, rows))
            for j in range(2)
        ]
        assert hnf(list(rows) + [extra], 2) == base

    @given(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_hnf_shape_invariants(self, rows):
        try:
            h = hnf(rows, 3)
        except RankDeficientError:
            assert oracles.det(rows) == 0
            return
        n = len(h)
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i):
                assert h[i][j] == 0
        for j in range(n):
            for i in range(j):
                assert 0 <= h[i][j] < h[j][j]
        # determinant is preserved up to sign
        assert abs(oracles.det(rows)) == prod(h[i][i] for i in range(n))


class TestGramSchmidt:
    def test_hand_value(self):
        gso, mu = gram_schmidt([[2, 0], [3, 4]])
        assert gso[0] == (F(2), F(0))
        assert gso[1] == (F(0), F(4))
        assert mu[1][0] == F(3, 2)

    def test_dependent_rows_raise(self):
        with pytest.raises(RankDeficientError):
            gram_schmidt([[1, 2], [2, 4]])

    @given(
        st.lists(
            st.lists(st.integers(-8, 8), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_orthogonality_and_reconstruction(self, rows):
        try:
            gso, mu = gram_schmidt(rows)
        except RankDeficientError:
            return
        for i in range(3):
            for j in range(i):
                assert dot(gso[i], gso[j]) == 0
        # b_i == sum_j mu[i][j] * b*_j with mu[i][i] == 1
        for i in range(3):
            recon = [F(0)] * 3
            for j in range(i + 1):
                recon = [r + mu[i][j] * g for r, g in zip(recon, gso[j])]
            assert recon == rows[i]
