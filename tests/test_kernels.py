"""Kernel-level postconditions, including inputs with huge entries and
boxes of high dimension.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latdisc
import oracles
from latdisc import constructions, kernels, reduction

# Every test that takes `mod` runs once, on the kernels module, under the id
# "pure"; the ids keep these tests' names stable.  The box scans live in the
# tests' oracles module and run under the same id.
pure = pytest.mark.parametrize("mod", [kernels], ids=["pure"])
box = pytest.mark.parametrize("mod", [oracles], ids=["pure"])


def _det2(rows):
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


independent_2d = st.tuples(
    st.lists(st.integers(-300, 300), min_size=2, max_size=2),
    st.lists(st.integers(-300, 300), min_size=2, max_size=2),
).filter(lambda rows: _det2(rows) != 0)


class TestGauss:
    @pure
    def test_reduced_conditions(self, mod):
        u, v = mod.gauss_reduce_2d([[31, 59], [41, 76]])
        assert _dot(u, u) <= _dot(v, v)
        assert abs(2 * _dot(u, v)) <= _dot(u, u)

    @pure
    def test_dependent_rejected(self, mod):
        with pytest.raises(ValueError):
            mod.gauss_reduce_2d([[2, 4], [1, 2]])
        with pytest.raises(ValueError):
            mod.gauss_reduce_2d([[0, 0], [1, 2]])

    @given(independent_2d)
    @settings(max_examples=120, deadline=None)
    def test_same_lattice_and_minimum(self, rows):
        rows = [list(rows[0]), list(rows[1])]
        u, v = kernels.gauss_reduce_2d([r[:] for r in rows])
        assert abs(_det2([u, v])) == abs(_det2(rows))
        # u attains the minimum: no shorter vector among small combinations
        nu = _dot(u, u)
        for a in range(-3, 4):
            for b in range(-3, 4):
                if a == b == 0:
                    continue
                w = [a * u[i] + b * v[i] for i in range(2)]
                assert _dot(w, w) >= nu

    def test_huge_entries(self):
        big = 1 << 40
        rows = [[31 * big, 59 * big], [41 * big, 76 * big + 1]]
        u, v = kernels.gauss_reduce_2d([r[:] for r in rows])
        assert _dot(u, u) <= _dot(v, v)
        assert abs(2 * _dot(u, v)) <= _dot(u, u)
        assert abs(_det2([u, v])) == abs(_det2(rows))


class TestLLL:
    @pure
    def test_dependent_rejected(self, mod):
        with pytest.raises(ValueError):
            mod.lll_reduce([[1, 2], [2, 4]])

    def test_huge_entries(self):
        rng = random.Random(7)
        rows = [[rng.randint(-(10**25), 10**25) for _ in range(4)] for _ in range(4)]
        cert = oracles.lll_certificate(rows, kernels.lll_reduce([r[:] for r in rows]))
        assert all(cert.values()), cert

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0], [0, F(1, 2)]],
            [[4, 0], [-6, F(5, 2)]],
            [[-1, F(5, 2), -6], [0, 1, 2], [-1, -3, -6]],
            [[0, 6, -6, 4], [0, -4, 0, -4], [-6, -2, 0, F(5, 2)], [0, 4, -5, -3]],
        ],
        ids=["gso", "swap-d", "swap-lambda-k", "swap-lambda-k-1"],
    )
    def test_inexact_division_raises(self, rows):
        # rows outside Z^d make the all-integer divisions inexact: in the
        # Gram-Schmidt set-up, in the swap's new d[k], and in each of the two
        # lambda updates below the swapped pair.  Each input reaches one of
        # them first, and its remainder check must raise rather than let a
        # truncated quotient through
        with pytest.raises(ArithmeticError, match="inexact division"):
            kernels.lll_reduce(rows)

    @pytest.mark.parametrize("dependent", [[0, 8, 0, 0], [0, 0, 0, 0]], ids=["sum", "zero"])
    @pytest.mark.parametrize("at", [0, 1, 2, 3], ids=["first", "second", "third", "last"])
    def test_dependent_row_raises_wherever_it_sits(self, dependent, at):
        # (0, 8, 0, 0) = a - 2b + c for the three independent rows below;
        # without `beat` the reduction reaches every row, so it always raises
        rows = [[2, 1, 0, -1], [1, -3, 2, 0], [0, 1, 4, 1]]
        rows.insert(at, dependent)
        with pytest.raises(ValueError, match="dependent rows"):
            kernels.lll_reduce(rows)

    def test_beat_may_return_before_a_dependent_row(self):
        # the last row is the sum of the others; the swap at k = 1 brings
        # (-1, 0, 0) first, and with beat = 1 LLL stops there before row 3
        # is reached: still true, the lattice holds a vector of norm 1
        rows = [[3, 1, 0], [2, 1, 0], [0, 0, 7], [5, 2, 7]]
        assert kernels.lll_reduce(rows, beat=1) == [
            [-1, 0, 0], [3, 1, 0], [0, 0, 7], [5, 2, 7]
        ]
        with pytest.raises(ValueError, match="dependent rows"):
            kernels.lll_reduce(rows)

    @staticmethod
    def _count_gso_rows(monkeypatch):
        rows_built = []
        original = kernels._gso_row

        def counting(b, d, lam, i):
            rows_built.append(i)
            return original(b, d, lam, i)

        monkeypatch.setattr(kernels, "_gso_row", counting)
        return rows_built

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_unaborted_reduction_builds_each_row_once(self, monkeypatch, n):
        rng = random.Random(n)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        rows_built = self._count_gso_rows(monkeypatch)
        reduced = kernels.lll_reduce(rows)
        assert rows_built == list(range(n))
        assert oracles.lll_certificate(rows, reduced)["same_lattice"]

    def test_aborted_reduction_builds_fewer_rows(self, monkeypatch):
        # the korobov d = 6 dual basis of a = 8 modulo 503 with its unit
        # rows e_i - g[i] e_0 unreduced, reduced with the search's incumbent
        # norm 7 at that generator: the swap at k = 1 that stops it comes
        # with rows 0..3 built, so rows 4 and 5 never are
        rows = [
            [-8, 1, 0, 0, 0, 0],
            [7, 62, 0, 0, 0, 0],
            [-64, 0, 1, 0, 0, 0],
            [-9, 0, 0, 1, 0, 0],
            [-72, 0, 0, 0, 1, 0],
            [-73, 0, 0, 0, 0, 1],
        ]
        rows_built = self._count_gso_rows(monkeypatch)
        stopped = kernels.lll_reduce(rows, beat=7)
        assert _dot(stopped[0], stopped[0]) <= 7
        assert rows_built == [0, 1, 2, 3]
        assert oracles.lll_reduce_reference(rows, beat=7) == stopped
        # the search's own basis of that generator has its unit rows
        # reduced against the Gauss block: (-1, -1, 0, 1, 0, 0) of norm 3
        # is among them, so LLL stops at entry with no row built and hands
        # that row back first
        g = constructions._korobov_generator(503, 8, 6)
        rows_built.clear()
        stopped = kernels.lll_reduce(constructions._dual_rows_unit_leading(503, g), beat=7)
        assert stopped[0] == [-1, -1, 0, 1, 0, 0]
        assert rows_built == []

    def _record_entry_stops(self, monkeypatch):
        # one bool per lll_reduce call: whether it stopped at entry, that is
        # with a row <= beat first and no Gram-Schmidt row built
        rows_built = self._count_gso_rows(monkeypatch)
        original = kernels.lll_reduce
        at_entry = []

        def recording(rows, beat=None):
            before = len(rows_built)
            reduced = original(rows, beat=beat)
            stopped = beat is not None and _dot(reduced[0], reduced[0]) <= beat
            at_entry.append(stopped and len(rows_built) == before)
            return reduced

        monkeypatch.setattr(kernels, "lll_reduce", recording)
        return at_entry

    @pytest.mark.parametrize("n,d,entry", [(61, 3, 2855), (31, 4, 23402)])
    def test_search_rejects_most_exhaustive_bases_at_entry(self, monkeypatch, n, d, entry):
        # the unit rows come reduced against the Gauss block, so LLL's entry
        # check rejects most exhaustive candidates before it builds a row:
        # each generator's own basis, handed over in generator order with
        # the shortest norm found so far (handed the raw rows e_i - g[i] e_0
        # it rejected 1225 and 8118)
        at_entry = self._record_entry_stops(monkeypatch)
        best = None
        for g in constructions._generators(n, d, "exhaustive"):
            rows = sorted(constructions._dual_rows_unit_leading(n, g), key=constructions._norm_sq)
            found = reduction.shortest_vector(rows, beat=best)
            if found is not None:
                best = found[1]
        assert len(at_entry) == (n - 1) ** (d - 1)
        # the entry check is a min over the rows, so the order in which
        # they are handed over does not move these counts
        assert sum(at_entry) == entry
        assert best == constructions.korobov_search(n, d, "exhaustive").norm_sq

    @pytest.mark.parametrize("n,d,entry", [(61, 3, 3223), (31, 4, 25194)])
    def test_search_stops_every_mirror_at_entry(self, monkeypatch, n, d, entry):
        # the search hands LLL each representative's basis, then its
        # mirror's, which starts from the twin's returned basis: that leads
        # with a row no longer than the incumbent when the twin stopped,
        # and when the twin won, its LLL-reduced basis here holds the
        # shortest vector as a row, so every mirror stops at entry and the
        # search's count beats the 2855 and 23402 of each generator's own
        # basis
        at_entry = self._record_entry_stops(monkeypatch)
        r = constructions.korobov_search(n, d, "exhaustive")
        assert r.n_searched == (n - 1) ** (d - 1)
        searched = at_entry[: r.n_searched]
        assert all(searched[1::2])
        assert sum(searched) == entry

    def test_sorted_bases_build_fewer_rows(self, monkeypatch):
        # the search hands LLL each dual basis sorted by squared norm, so
        # fewer swaps move a short unit row to the front, and a reduction
        # the incumbent cuts short reaches fewer rows; over one whole
        # korobov d = 6 search at n = 503, LLL, enumeration and the
        # winner's re-check included, the rows in the order they were built
        # (the Gauss block first) cost 2229 Gram-Schmidt rows, and sorted
        # 1788.  Each mirror's LLL starts from its twin's stopping basis,
        # which leads with the short row, and builds no row: 932
        rows_built = self._count_gso_rows(monkeypatch)
        r = constructions.korobov_search(503, 6)
        assert (r.generator, r.norm_sq) == ((1, 27, 226, 66, 273, 329), 10)
        assert len(rows_built) == 932

    def test_input_not_mutated(self):
        rows = [[3, 5], [4, 9]]
        snapshot = [r[:] for r in rows]
        kernels.lll_reduce(rows)
        assert rows == snapshot


class TestCoeffBox:
    @box
    def test_identity_lattice(self, mod):
        vec, norm = mod.min_norm_in_coeff_box([[1, 0], [0, 1]], [2, 2])
        assert norm == 1

    @box
    def test_empty_box_rejected(self, mod):
        with pytest.raises(ValueError):
            mod.min_norm_in_coeff_box([[1, 0], [0, 1]], [0, 0])

    def test_huge_entries(self):
        big = 10**12
        assert oracles.min_norm_in_coeff_box([[big, 1], [0, big]], [2, 2]) == (
            [0, big],
            big**2,
        )

    def test_seventeen_rows(self):
        n = 17
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        widths = [1, 1] + [0] * (n - 2)  # tiny box, still 17-dimensional
        vec, norm = oracles.min_norm_in_coeff_box(rows, widths)
        assert (vec, norm) == ([0, 1] + [0] * (n - 2), 1)


class TestRank1Box:
    @box
    def test_known_case(self, mod):
        vec, norm = mod.rank1_dual_min_in_box(5, [1, 3], 2)
        assert norm == 5
        assert (vec[0] + 3 * vec[1]) % 5 == 0

    @box
    def test_nonunit_leading_coordinate(self, mod):
        # gcd(g0, n) > 1 exercises the general congruence solve
        vec, norm = mod.rank1_dual_min_in_box(12, [8, 3], 12)
        assert (8 * vec[0] + 3 * vec[1]) % 12 == 0
        assert norm >= 1
        # exhaustive double check within the box
        best = min(
            a * a + b * b
            for a in range(-12, 13)
            for b in range(-12, 13)
            if (a, b) != (0, 0) and (8 * a + 3 * b) % 12 == 0
        )
        assert norm == best

    @box
    def test_empty_box_rejected(self, mod):
        with pytest.raises(ValueError):
            mod.rank1_dual_min_in_box(5, [1, 3], 0)

    def test_huge_modulus(self):
        n = 10**10
        assert oracles.rank1_dual_min_in_box(n, [1, 5 * 10**9], 2) == ([0, -2], 4)


class TestSelection:
    def test_default_import_exposes_kernels(self):
        assert latdisc.kernel_implementation == "pure"
        assert callable(kernels.lll_reduce)
