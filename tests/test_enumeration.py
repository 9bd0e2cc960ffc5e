"""Integer shortest-vector enumeration and the generator search's early abort.

The production enumeration (`kernels.shortest_vectors`) runs on integral
Gram-Schmidt data.  The reference below enumerates over Fraction
Gram-Schmidt data with Fraction interval bounds (`_max_shift`); the two must
agree on the minimum and on the sorted sign-canonical minimal vectors.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from latdisc import constructions, kernels, linalg, reduction
from latdisc.errors import InvariantViolationError
from latdisc.linalg import dot

_canonical_sign = kernels.canonical_sign


# ---------------------------------------------------------------------------
# the Fraction reference
# ---------------------------------------------------------------------------

def _max_shift(center: Fraction, rem: Fraction, norm_sq: Fraction) -> int:
    """Largest integer t with (t - center)^2 * norm_sq <= rem, or, when no
    integer satisfies it, a value below every integer that would."""
    ratio = rem / norm_sq
    s = math.isqrt(ratio.numerator * ratio.denominator) // ratio.denominator
    cand = math.floor(center) + s + 2
    stop = math.floor(center) - s - 2
    while cand >= stop and (cand - center) ** 2 * norm_sq > rem:
        cand -= 1
    return cand


def _enumerate_min_vectors(rows: list[list[int]]) -> tuple[int, list[tuple[int, ...]]]:
    """Exact shortest-vector enumeration over an integer basis (ideally
    LLL-reduced first, which keeps the search tree small).

    Returns (min_norm_sq, ties) where ties are all sign-canonicalized
    minimal vectors in deterministic order.
    """
    n = len(rows)
    gso, mu = linalg.gram_schmidt(rows)
    star = [dot(r, r) for r in gso]

    best = min(sum(x * x for x in row) for row in rows)
    ties: list[tuple[int, ...]] = []
    coeff = [0] * n

    def leaf():
        nonlocal best, ties
        vec = [0] * len(rows[0])
        for j in range(n):
            cj = coeff[j]
            if cj:
                row = rows[j]
                for t in range(len(vec)):
                    vec[t] += cj * row[t]
        norm = sum(x * x for x in vec)
        if norm == 0:
            return
        if norm < best:
            best = norm
            ties = [_canonical_sign(vec)]
        elif norm == best:
            canon = _canonical_sign(vec)
            if canon not in ties:
                ties.append(canon)

    def recurse(i: int, partial: Fraction, tail_zero: bool):
        if i < 0:
            if not tail_zero:
                leaf()
            return
        center = -sum(coeff[j] * mu[j][i] for j in range(i + 1, n))
        rem = best - partial
        if rem < 0:
            return
        hi = _max_shift(center, rem, star[i])
        lo = -_max_shift(-center, rem, star[i])
        if tail_zero:
            lo = max(lo, 0)
        for ci in range(lo, hi + 1):
            contribution = (ci - center) ** 2 * star[i]
            if partial + contribution > best:
                continue
            coeff[i] = ci
            recurse(i - 1, partial + contribution, tail_zero and ci == 0)
        coeff[i] = 0

    recurse(n - 1, Fraction(0), True)
    if not ties:
        raise InvariantViolationError("shortest-vector enumeration found nothing")
    return best, sorted(ties)


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@st.composite
def random_bases(draw, dims=(3, 6), bound=40):
    d = draw(st.integers(*dims))
    rows = draw(
        st.lists(
            st.lists(st.integers(-bound, bound), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        ).filter(lambda rows: oracles.det(rows) != 0)
    )
    return rows


@st.composite
def rank1_dual_bases(draw, dims=(3, 6)):
    d = draw(st.integers(*dims))
    n = draw(st.integers(2, 5000))
    g = [1] + draw(st.lists(st.integers(1, n - 1), min_size=d - 1, max_size=d - 1))
    if d == 1:
        return [[n]]  # the dual of the rule (1) / n; searches start at d = 2
    return constructions._dual_rows_unit_leading(n, g)


any_basis = st.one_of(random_bases(), rank1_dual_bases())


def _raw_dual_rows(n, g):
    # the unreduced unit-leading dual basis: (n, 0, ..., 0) and, for each
    # i >= 1, -g[i] in column 0 with 1 in column i
    d = len(g)
    rows = [[n] + [0] * (d - 1)]
    for i in range(1, d):
        rows.append([-g[i] if j == 0 else int(j == i) for j in range(d)])
    return rows


_PRIMES = [p for p in range(2, 10**4) if constructions._is_prime(p)]


@st.composite
def unit_row_cases(draw):
    # (n, g1, c): a prime modulus up to 10^4, the generator's second
    # coordinate and the residue whose unit row is reduced
    n = draw(st.sampled_from(_PRIMES))
    return n, draw(st.integers(1, n - 1)), draw(st.integers(0, n - 1))


def _assert_babai_reduced(t, u, v, n):
    """t is reduced against the Gauss block [u, v] (determinant +-n) by one
    Babai nearest-plane step: 2|<t, v*>| <= ||v*||^2 and 2|<t, u>| <= ||u||^2,
    the first scaled to integers by ||u||^2, as ||v*||^2 = n^2 / ||u||^2."""
    nu, p = dot(u, u), dot(u, v)
    assert 2 * abs(dot(t, u)) <= nu
    assert 2 * abs(dot(t, v) * nu - p * dot(t, u)) <= n * n


def _anchored_beat(rows, full, anchor):
    """The `beat` value named by anchor: the shortest input row, the first
    row of the unaborted LLL output `full`, the lattice minimum, or 0."""
    if anchor == "zero":
        return 0
    if anchor == "entry":
        return min(dot(row, row) for row in rows)
    if anchor == "first":
        return dot(full[0], full[0])
    return kernels.shortest_vectors(full)[0]


beat_anchors = st.sampled_from(["entry", "first", "minimum", "zero"])


class TestIntegralGSO:
    @given(random_bases(dims=(1, 6)))
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_gram_schmidt(self, rows):
        d, lam = kernels.integral_gso(rows)
        gso, mu = linalg.gram_schmidt(rows)
        assert d[0] == 1
        for i, star in enumerate(gso):
            assert Fraction(d[i + 1], d[i]) == dot(star, star)
            for j in range(i):
                assert lam[i][j] == d[j + 1] * mu[i][j]

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            kernels.integral_gso([[1, 2, 3], [2, 4, 6], [0, 0, 1]])


class TestIntegerEnumeration:
    @given(any_basis)
    @settings(max_examples=300, deadline=None)
    def test_equals_fraction_reference(self, rows):
        reduced = kernels.lll_reduce(rows)
        assert kernels.shortest_vectors(reduced) == _enumerate_min_vectors(reduced)

    def test_cubic_lattice_ties(self):
        least, ties = kernels.shortest_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert (least, ties) == (1, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])


class TestBeat:
    @given(st.one_of(random_bases(dims=(1, 5)), rank1_dual_bases()), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_abort_only_when_beaten(self, rows, slack):
        full = reduction.shortest_vector(rows)
        least = full[1]
        assert reduction.shortest_vector(rows, beat=least - 1 - slack) == full
        assert reduction.shortest_vector(rows, beat=least + slack) is None

    def test_zero_beat_never_aborts(self):
        rows = [[5, 0, 0], [0, 7, 0], [0, 0, 9]]
        assert reduction.shortest_vector(rows, beat=0) == ((5, 0, 0), 25)


def _stopped(reduced, beat):
    """Whether lll_reduce stopped with `beat`: a stopped basis leads with a
    row of squared norm <= beat, and an unstopped one never does."""
    return beat is not None and dot(reduced[0], reduced[0]) <= beat


class TestLLLBeat:
    """kernels.lll_reduce with `beat`: it stops only when the lattice holds
    a nonzero vector of squared norm <= beat, and returns a basis of the
    same lattice that leads with such a vector; else the unstopped output.

    It stops exactly when an input row or the fully reduced first row is
    that short: a swap at k = 1 is the only step that changes the first
    row, it shrinks d[1] = ||b_0||^2, and the last such swap leaves the
    final first row, so checking after each of them is checking the end."""

    @given(any_basis, beat_anchors, st.integers(-2, 2))
    @settings(max_examples=300, deadline=None)
    def test_abort_contract(self, rows, anchor, offset):
        full = kernels.lll_reduce(rows)
        least = kernels.shortest_vectors(full)[0]
        entry = min(dot(row, row) for row in rows)
        first = dot(full[0], full[0])
        beat = _anchored_beat(rows, full, anchor) + offset
        reduced = kernels.lll_reduce(rows, beat=beat)
        stopped = _stopped(reduced, beat)
        assert linalg.hnf(reduced, len(rows)) == linalg.hnf(rows, len(rows))
        if stopped:
            assert least <= beat
            assert kernels.shortest_vectors(reduced, beat) is None
        else:
            assert reduced == full
        assert stopped == (entry <= beat or first <= beat)

    def test_abort_after_first_swap(self):
        # the input rows have squared norms 10, 5, 49; size reduction turns
        # the second into (-1, 0, 0) and the swap at k = 1 brings it first,
        # where beat = 1 stops with the rows as they stand
        rows = [[3, 1, 0], [2, 1, 0], [0, 0, 7]]
        full = [[-1, 0, 0], [0, 1, 0], [0, 0, 7]]
        assert kernels.lll_reduce(rows) == full
        assert kernels.lll_reduce(rows, beat=0) == full
        assert kernels.lll_reduce(rows, beat=1) == [[-1, 0, 0], [3, 1, 0], [0, 0, 7]]

    def test_entry_stop_moves_the_first_short_row_first(self):
        # rows 1 and 2 both have squared norm <= 9; the first of them moves
        # to the front and the others keep their order
        rows = [[5, 0, 0], [0, 3, 0], [0, 0, 2]]
        assert kernels.lll_reduce(rows, beat=9) == [[0, 3, 0], [5, 0, 0], [0, 0, 2]]
        assert kernels.lll_reduce(rows, beat=4) == [[0, 0, 2], [5, 0, 0], [0, 3, 0]]


class TestLLLReference:
    """kernels.lll_reduce, one flat loop, against the structured
    oracles.lll_reduce_reference: the same rows at every rank, and the same
    stopping basis on exactly the same (rows, beat) pairs."""

    @given(
        st.one_of(
            random_bases(dims=(1, 7)),
            rank1_dual_bases(dims=(1, 7)),
            random_bases(dims=(1, 7), bound=10**25),
        ),
        beat_anchors,
        st.integers(-2, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference(self, rows, anchor, offset):
        full = oracles.lll_reduce_reference(rows)
        assert kernels.lll_reduce(rows) == full
        beat = _anchored_beat(rows, full, anchor) + offset
        assert kernels.lll_reduce(rows, beat=beat) == oracles.lll_reduce_reference(
            rows, beat=beat
        )

    @pytest.mark.parametrize(
        "mode,n,d",
        [("korobov", n, d) for d in (3, 4, 5, 6) for n in (31, 61)]
        + [("korobov", 503, 6), ("exhaustive", 13, 3), ("exhaustive", 7, 4)],
    )
    def test_search_stream_equals_reference(self, monkeypatch, mode, n, d):
        # every (rows, beat) pair korobov_search hands LLL, mirrors and the
        # winner's re-verification included, against the eager reference
        stream = []
        original = kernels.lll_reduce

        def recording(rows, beat=None):
            reduced = original(rows, beat=beat)
            stream.append(([list(row) for row in rows], beat, reduced))
            return reduced

        monkeypatch.setattr(kernels, "lll_reduce", recording)
        r = constructions.korobov_search(n, d, mode)
        assert len(stream) == r.n_searched + 1
        assert any(_stopped(reduced, beat) for _, beat, reduced in stream)
        for rows, beat, reduced in stream:
            assert reduced == oracles.lll_reduce_reference(rows, beat=beat)


class TestGeneratorSearch:
    @pytest.mark.parametrize("mode", ["korobov", "exhaustive"])
    @pytest.mark.parametrize("n,d", [(13, 3), (31, 3), (7, 4), (11, 5)])
    def test_generators_strictly_increasing(self, n, d, mode):
        gens = [tuple(g) for g in constructions._generators(n, d, mode)]
        assert all(a < b for a, b in zip(gens, gens[1:]))

    @pytest.mark.parametrize(
        "n,d,mode",
        [
            (n, d, mode)
            for mode in ("korobov", "exhaustive")
            for d in (3, 4)
            for n in (13, 29, 31)
        ]
        + [
            (n, d, mode)
            for mode in ("korobov", "exhaustive")
            for n, d in ((5, 2), (13, 2), (7, 3), (5, 5), (7, 5))
        ]
        # n = 2: the one generator is its own mirror; n = 3: one pair
        + [(n, d, mode) for mode in ("korobov", "exhaustive") for n in (2, 3) for d in (2, 3)],
    )
    def test_search_equals_unpruned_scan(self, n, d, mode):
        best = None
        searched = 0
        for g in constructions._generators(n, d, mode):
            searched += 1
            _, norm = reduction.shortest_vector(
                constructions._dual_rows_unit_leading(n, g)
            )
            key = (-norm, tuple(g))
            if best is None or key < best:
                best = key
        r = constructions.korobov_search(n, d, mode)
        assert (r.generator, r.norm_sq, r.n_searched) == (best[1], -best[0], searched)

    @pytest.mark.parametrize("mode", ["korobov", "exhaustive"])
    @pytest.mark.parametrize(
        "n,d", [(5, 2), (7, 2), (5, 3), (13, 3), (5, 4), (7, 4), (5, 5), (3, 6), (5, 6)]
    )
    def test_dual_bases_span_the_dual(self, n, d, mode):
        # the bases come for the representatives g (2 g[1] <= n) in
        # _generators order, and each is built as the generator's
        # unit-leading basis: it spans the same lattice as the raw
        # unit-leading dual basis, starts with a Gauss-reduced 2d block,
        # and every row after that block is a unit row reduced against it.
        # The rows handed over are those rows sorted by squared norm, ties
        # in build order
        pairs = list(constructions._dual_bases(n, d, mode))
        assert [g for g, _ in pairs] == [
            g for g in constructions._generators(n, d, mode) if 2 * g[1] <= n
        ]
        for g, rows in pairs:
            built = constructions._dual_rows_unit_leading(n, g)
            raw = _raw_dual_rows(n, g)
            assert linalg.hnf(built, d) == linalg.hnf(raw, d)
            u, v = built[0], built[1]
            assert u[2:] == v[2:] == [0] * (d - 2)
            assert dot(u, u) <= dot(v, v)
            assert abs(2 * dot(u, v)) <= dot(u, u)
            for i in range(2, d):
                assert built[i][2:] == [int(j == i) for j in range(2, d)]
                _assert_babai_reduced(built[i][:2], u[:2], v[:2], n)
            order = sorted(range(d), key=lambda i: (dot(built[i], built[i]), i))
            assert rows == [built[i] for i in order]

    @given(unit_row_cases())
    @example((2, 1, 0))
    @example((2, 1, 1))
    @example((3, 1, 2))
    @example((3, 2, 1))
    @settings(max_examples=300, deadline=None)
    def test_unit_row_is_babai_reduced(self, case):
        # the row e_2 - c e_0 reduced against the Gauss block of (1, g1)
        # stays in its coset of the block's lattice and within the bounds
        n, g1, c = case
        u, v = kernels.gauss_reduce_2d([[n, 0], [-g1, 1]])
        babai = constructions._babai_constants([u, v])
        row = constructions._unit_row(babai, n, c, 2, 3)
        t = row[:2]
        assert row[2] == 1
        assert (t[0] + g1 * t[1] + c) % n == 0
        _assert_babai_reduced(t, u, v, n)

    @pytest.mark.parametrize(
        "mode,n,d",
        [
            ("korobov", 31, 3),
            ("exhaustive", 31, 3),
            ("exhaustive", 13, 4),
            ("korobov", 31, 2),
            ("exhaustive", 13, 2),
            ("korobov", 503, 6),
        ],
    )
    def test_one_lll_per_generator(self, monkeypatch, mode, n, d):
        # the search may cut LLL and enumeration short, but each generator
        # still costs one reduction, plus one for re-verifying the winner
        calls = []
        original = kernels.lll_reduce

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernels, "lll_reduce", counting)
        r = constructions.korobov_search(n, d, mode)
        assert len(calls) == r.n_searched + 1

    @pytest.mark.parametrize("mode", ["korobov", "exhaustive"])
    @pytest.mark.parametrize("n", [2, 3, 13, 31])
    @pytest.mark.parametrize("d", [2, 3])
    def test_every_lll_basis_spans_its_generators_dual(self, monkeypatch, mode, n, d):
        # the search hands LLL each representative's basis, then its
        # mirror's (none at n = 2), then the winner's for re-verification.
        # Each of the first spans the raw unit-leading dual of the generator
        # it stands for, the mirror taken here from its definition (the
        # Korobov generator of n - a, or n minus each free coordinate), and
        # together they stand for every generator once
        bases = []
        original = kernels.lll_reduce

        def recording(rows, beat=None):
            bases.append([list(row) for row in rows])
            return original(rows, beat=beat)

        monkeypatch.setattr(kernels, "lll_reduce", recording)
        r = constructions.korobov_search(n, d, mode)
        gens = []
        for g in constructions._generators(n, d, mode):
            if 2 * g[1] > n:
                continue
            gens.append(g)
            if 2 * g[1] < n:
                if mode == "korobov":
                    gens.append(constructions._korobov_generator(n, n - g[1], d))
                else:
                    gens.append([1, *(n - x for x in g[1:])])
        assert len(bases) == len(gens) + 1 == r.n_searched + 1
        for g, rows in zip(gens, bases):
            assert linalg.hnf(rows, d) == linalg.hnf(_raw_dual_rows(n, g), d)
        assert sorted(map(tuple, gens)) == [
            tuple(g) for g in constructions._generators(n, d, mode)
        ]
