"""Basis reduction, exact shortest vectors, and the spectral test."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latdisc import directed, kernels, lattice, linalg, reduction
from latdisc.errors import CapExceededError, InputError

F = Fraction

SQRT_FIFTH_50 = "0.44721359549995793928183473374625524708812367192230"


def _lll(rows):
    """kernels.lll_reduce on rational rows: scale to integers, reduce, and
    scale back (reduction commutes with uniform scaling)."""
    scale = lcm(*(F(x).denominator for row in rows for x in row))
    reduced = kernels.lll_reduce([[int(x * scale) for x in row] for row in rows])
    return [[F(x, scale) for x in row] for row in reduced]


class TestLLLReduce:
    """The integer LLL kernel, certified by oracles.lll_certificate."""

    def test_certificate_properties_hold(self):
        rows = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
        cert = oracles.lll_certificate(rows, kernels.lll_reduce(rows))
        assert all(cert.values()), cert

    def test_same_lattice(self):
        rows = [[4, 7], [3, 5]]
        assert oracles.lll_certificate(rows, kernels.lll_reduce(rows))["same_lattice"]

    def test_rational_basis_scaled_correctly(self):
        rows = [[F(1, 5), F(3, 5)], [0, 1]]
        reduced = _lll(rows)
        assert oracles.lll_certificate(rows, reduced)["same_lattice"]
        assert min(linalg.dot(b, b) for b in reduced) == F(1, 5)

    def test_dependent_rows_rejected(self):
        # rows 0 and 2 are dependent; row 1 between them is not
        with pytest.raises(ValueError):
            kernels.lll_reduce([[1, 2, 3], [1, 0, 0], [2, 4, 6]])

    @given(
        st.lists(
            st.lists(st.integers(-25, 25), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ).filter(lambda rows: oracles.det(rows) != 0)
    )
    @settings(max_examples=80, deadline=None)
    def test_randomized_reduction_preserves_lattice(self, rows):
        cert = oracles.lll_certificate(rows, kernels.lll_reduce(rows))
        assert all(cert.values()), cert


class TestShortestVector:
    def test_known_dual_minimum(self):
        dl = lattice.dual(lattice.from_rank1(5, (1, 3)))
        vec, norm = reduction.shortest_vector(dl)
        assert (vec, norm) == ((1, -2), 5)

    def test_tie_break_is_canonical(self):
        # Z^2 has four minimal vectors; sign rule keeps (0,1) and (1,0),
        # lexicographic rule then picks (0,1).
        vec, norm = reduction.shortest_vector([[1, 0], [0, 1]])
        assert (vec, norm) == ((0, 1), 1)

    def test_scaling_invariance(self):
        rows = [[4, 7, 1], [3, 5, 0], [0, 2, 9]]
        vec, norm = reduction.shortest_vector(rows)
        svec, snorm = reduction.shortest_vector([[7 * x for x in row] for row in rows])
        assert snorm == 49 * norm
        assert svec == tuple(7 * x for x in vec)

    def test_zero_row_is_input_error(self):
        # zero and dependent rows at rank 1 and 2 reach LLL's Gram-Schmidt
        for rows in ([[0]], [[0, 0], [1, 2]], [[1, 2], [2, 4]]):
            with pytest.raises(InputError):
                reduction.shortest_vector(rows)

    def test_agrees_with_bruteforce_oracle(self):
        rng = random.Random(31337)
        for _ in range(40):
            n = rng.randint(1, 4)
            while True:
                rows = [
                    [rng.randint(-12, 12) for _ in range(n)] for _ in range(n)
                ]
                if oracles.det(rows) != 0:
                    break
            vec, norm = reduction.shortest_vector(rows)
            ovec, onorm = oracles.shortest_vector_bruteforce(rows)
            # the oracle certifies the minimum norm; the canonical witness
            # is production's own tie-break, checked by norm and membership
            assert norm == onorm
            assert sum(x * x for x in vec) == norm
            assert oracles.lattice_contains(rows, vec)

    def test_rank1_duals_agree_with_cube_oracle(self):
        rng = random.Random(777)
        for _ in range(25):
            n = rng.randint(3, 80)
            d = rng.randint(2, 3)
            g = [1] + [rng.randint(1, n - 1) for _ in range(d - 1)]
            lat = lattice.from_rank1(n, g)
            res = reduction.spectral_test(lat)
            ovec, onorm = oracles.rank1_dual_shortest_bruteforce(
                n, g, res.shortest_dual_norm_sq
            )
            assert res.shortest_dual_norm_sq == onorm


class TestSpectralTest:
    def test_frozen_small_rule(self):
        res = reduction.spectral_test(lattice.from_rank1(5, (1, 3)))
        assert res.shortest_dual_vector == (1, -2)
        assert res.shortest_dual_norm_sq == 5
        assert res.sigma_sq == F(1, 5)
        assert type(res.shortest_dual_norm_sq) is int
        assert type(res.sigma_sq) is F
        assert res.sigma_decimal == SQRT_FIFTH_50
        assert res.digits == 50

    def test_decimal_is_rounded_down(self):
        res = reduction.spectral_test(lattice.from_rank1(5, (1, 3)), digits=30)
        assert res.sigma_decimal == SQRT_FIFTH_50[: 2 + 30]
        b = directed.sqrt_bounds(res.sigma_sq, res.digits)
        assert b.lo ** 2 <= res.sigma_sq <= b.hi ** 2

    def test_integer_lattice_sigma_one(self):
        res = reduction.spectral_test(lattice.from_basis([[1, 0], [0, 1]]))
        assert res.sigma_sq == 1
        assert res.shortest_dual_norm_sq == 1

    def test_witness_is_integral_for_integration_lattices(self):
        res = reduction.spectral_test(lattice.from_rank1(21, (1, 13, 8)))
        assert all(isinstance(x, int) for x in res.shortest_dual_vector)

    def test_cap(self):
        d = reduction.DEFAULT_SVP_CAP + 1
        lat = lattice.from_basis(oracles.identity(d))
        message = f"^shortest vector in dimension {d} exceeds cap {d - 1}$"
        with pytest.raises(CapExceededError, match=message):
            reduction.spectral_test(lat)
        assert reduction.spectral_test(lat, svp_cap=d).shortest_dual_norm_sq == 1

    def test_witness_in_dual(self):
        lat = lattice.from_rank1(13, (1, 5))
        res = reduction.spectral_test(lat)
        # <h, x> integral for every node
        for p in oracles.nodes(lattice.enumerate_points(lat)):
            v = sum(h * x for h, x in zip(res.shortest_dual_vector, p))
            assert F(v).denominator == 1


class TestDiameterBound:
    """The upper chain behind J_N <= d^2 2^d sigma, exact in squared form, on
    LLL-reduced bases b_1..b_d with lambda_1 the dual minimum: the cell
    diagonal is at most sum ||b_i|| <= d max ||b_i|| <= d 2^(d-1) sigma."""

    BASES = (
        [[1, 0], [0, 1]],
        [[F(1, 5), F(3, 5)], [0, 1]],
        [[2, 1, 0], [1, 3, 1], [0, 1, 4]],
    )

    @staticmethod
    def _chain(rows):
        """(reduced basis, squared row norms, dual minimum lambda_1^2)."""
        reduced = _lll(rows)
        dual = list(zip(*oracles.inverse(reduced)))
        scale = lcm(*(x.denominator for row in dual for x in row))
        _, norm = reduction.shortest_vector([[int(x * scale) for x in row] for row in dual])
        return reduced, [linalg.dot(b, b) for b in reduced], F(norm, scale**2)

    def test_certified_on_reduced_bases(self):
        for rows in self.BASES:
            reduced, norms, dual_min = self._chain(rows)
            d = len(rows)
            gso, _ = linalg.gram_schmidt(reduced)
            last_gso = linalg.dot(gso[-1], gso[-1])
            assert all(oracles.lll_certificate(rows, reduced).values())
            assert max(norms) <= 4 ** (d - 1) * last_gso
            # b*_d / ||b*_d||^2 is a nonzero dual vector
            assert last_gso * dual_min <= 1
            assert d**2 * max(norms) * dual_min <= (d * 2 ** (d - 1)) ** 2

    def test_bound_dominates_cell_diagonal(self):
        # the long diagonal of the cell is a chord, so it obeys the bound:
        # diag^2 <= (sum ||b_i||)^2 <= d sum ||b_i||^2
        for rows in self.BASES:
            reduced, norms, dual_min = self._chain(rows)
            d = len(rows)
            diag = [sum(col) for col in zip(*reduced)]
            diag_sq = linalg.dot(diag, diag)
            assert diag_sq <= d * sum(norms)
            assert diag_sq * dual_min <= (d * 2 ** (d - 1)) ** 2
