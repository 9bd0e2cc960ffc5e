"""Exact linear algebra: determinants, inverses, HNF, Gram-Schmidt."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latdisc.errors import InputError, RankDeficientError, SingularMatrixError
from latdisc.linalg import (
    RationalMatrix,
    as_fraction,
    det,
    dot,
    gram_schmidt,
    hnf,
    inverse,
)

F = Fraction


def M(rows):
    return RationalMatrix(rows)


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


class TestMatrixBasics:
    def test_shape_validation(self):
        with pytest.raises(InputError):
            M([[1, 2], [3]])
        with pytest.raises(InputError):
            M([])

    def test_immutable(self):
        m = M([[1, 2], [3, 4]])
        with pytest.raises(AttributeError):
            m.rows = ()

    def test_matmul_identity(self):
        m = M([["1/5", "3/5"], [0, 1]])
        assert oracles.matmul(m, oracles.identity(2)) == m

    def test_scaled_integer_rows(self):
        m = M([["1/5", "3/5"], [0, "1/2"]])
        ints, scale = m.scaled_integer_rows()
        assert scale == 10
        assert ints == [[2, 6], [0, 5]]


class TestDetInverse:
    def test_det_hand_value(self):
        assert det(M([["1/5", "3/5"], [0, 1]])) == F(1, 5)

    def test_inverse_hand_value(self):
        inv = inverse(M([["1/5", "3/5"], [0, 1]]))
        assert inv == M([[5, -3], [0, 1]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(M([[1, 2], [2, 4]]))
        assert det(M([[1, 2], [2, 4]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            det(M([[1, 2, 3], [4, 5, 6]]))

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_det_times_inverse(self, rows):
        m = M(rows)
        d = det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                inverse(m)
        else:
            assert oracles.matmul(m, inverse(m)) == oracles.identity(3)
            assert oracles.matmul(inverse(m), m) == oracles.identity(3)

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.lists(
            st.lists(st.integers(-6, 6), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_det_multiplicative(self, a, b):
        assert det(oracles.matmul(M(a), M(b))) == det(M(a)) * det(M(b))

    def test_det_triangular_is_diagonal_product(self):
        m = M([[2, 5, 7], [0, 3, 1], [0, 0, "1/4"]])
        assert det(m) == F(2) * 3 * F(1, 4)


class TestHNF:
    def test_hand_value_rank1_dual(self):
        got = hnf(M([[1, 3], [5, 0], [0, 5]]))
        assert got == M([[1, 3], [0, 5]])

    def test_hand_value_three_generators(self):
        got = hnf(M([[2, 0], [0, 2], [1, 1]]))
        assert got == M([[1, 1], [0, 2]])

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficientError):
            hnf(M([[1, 2], [2, 4]]))

    def test_idempotent(self):
        m = M([[4, 7], [2, 9]])
        assert hnf(hnf(m)) == hnf(m)

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
        m = M(rows)
        try:
            base = hnf(m)
        except RankDeficientError:
            return
        extra = [
            sum(c * row[j] for c, row in zip(coeffs, rows))
            for j in range(2)
        ]
        assert hnf(M(list(rows) + [extra])) == base

    @given(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_hnf_shape_invariants(self, rows):
        m = M(rows)
        try:
            h = hnf(m)
        except RankDeficientError:
            return
        n = h.n_rows
        for i in range(n):
            assert h[i, i] > 0
            for j in range(i):
                assert h[i, j] == 0
            for j in range(i + 1, n):
                pass
        for j in range(n):
            for i in range(j):
                assert 0 <= h[i, j] < h[j, j]
        # determinant is preserved up to sign
        assert abs(det(m)) == det(h)


class TestGramSchmidt:
    def test_hand_value(self):
        gso, mu = gram_schmidt(M([[2, 0], [3, 4]]))
        assert gso.rows[0] == (F(2), F(0))
        assert gso.rows[1] == (F(0), F(4))
        assert mu[1, 0] == F(3, 2)

    def test_dependent_rows_raise(self):
        with pytest.raises(RankDeficientError):
            gram_schmidt(M([[1, 2], [2, 4]]))

    @given(
        st.lists(
            st.lists(st.integers(-8, 8), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_orthogonality_and_reconstruction(self, rows):
        m = M(rows)
        try:
            gso, mu = gram_schmidt(m)
        except RankDeficientError:
            return
        for i in range(3):
            for j in range(i):
                assert dot(gso.rows[i], gso.rows[j]) == 0
        # b_i == sum_j mu[i][j] * b*_j with mu[i][i] == 1
        for i in range(3):
            recon = [F(0)] * 3
            for j in range(i + 1):
                recon = [
                    r + mu[i, j] * g for r, g in zip(recon, gso.rows[j])
                ]
            assert tuple(recon) == m.rows[i]
