"""Lattice families and the exhaustive generator searches."""

import json
from fractions import Fraction

import pytest

from latdisc import constructions, lattice, reduction
from latdisc.errors import CapExceededError, InputError

F = Fraction


class TestFibonacci:
    @pytest.mark.parametrize(
        "m, n, generator",
        [
            (2, 1, (1, 1)),
            (3, 2, (1, 1)),
            (5, 5, (1, 3)),
            (8, 21, (1, 13)),
            (12, 144, (1, 89)),
        ],
    )
    def test_known_members(self, m, n, generator):
        lat = constructions.fibonacci_lattice(m)
        assert lat.rank1_data == (n, generator)
        assert lat.n_points == n

    def test_consecutive_fibonacci_relation(self):
        prev = constructions.fibonacci_lattice(10)
        cur = constructions.fibonacci_lattice(11)
        n_prev, g_prev = prev.rank1_data
        n_cur, g_cur = cur.rank1_data
        # n_{m+1} = n_m + generator tail of m+1 is n of m... the defining
        # recurrence: generator tail of step m equals n of step m-1
        assert g_cur[1] == n_prev
        assert n_cur == n_prev + g_prev[1]

    def test_small_m_rejected(self):
        for bad in (1, 0, -3):
            with pytest.raises(InputError):
                constructions.fibonacci_lattice(bad)

    def test_golden_ratio_quality(self):
        # Fibonacci rules have sigma^2 * N bounded; spot check growth
        for m in (8, 10, 12, 14):
            lat = constructions.fibonacci_lattice(m)
            res = reduction.spectral_test(lat)
            assert res.sigma_sq * lat.n_points < F(5, 2)


class TestScaledInteger:
    def test_grid(self):
        lat = constructions.scaled_integer_lattice(3, 2)
        assert lat.n_points == 9
        assert reduction.spectral_test(lat).sigma_sq == F(1, 9)

    def test_one_dimensional(self):
        lat = constructions.scaled_integer_lattice(4, 1)
        assert lat.n_points == 4
        assert reduction.spectral_test(lat).sigma_sq == F(1, 16)

    def test_m_one_is_integer_lattice(self):
        lat = constructions.scaled_integer_lattice(1, 3)
        assert lat.n_points == 1

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            constructions.scaled_integer_lattice(0, 2)
        with pytest.raises(InputError):
            constructions.scaled_integer_lattice(2, 0)


class TestBadLattice:
    @pytest.mark.parametrize("m", [2, 3, 10, 50])
    def test_sigma_stuck_at_half(self, m):
        lat = constructions.bad_lattice(m)
        assert reduction.spectral_test(lat).sigma_sq == F(1, 4)
        assert lat.n_points == 2 * m

    def test_higher_dimension(self):
        lat = constructions.bad_lattice(3, d=3)
        assert lat.n_points == 2 * 3 * 3
        assert reduction.spectral_test(lat).sigma_sq == F(1, 4)

    def test_m_one_degenerates(self):
        # with m = 1 the only non-integer direction is the halved axis,
        # whose dual vector (0, 2) is no longer shortest: sigma is 1, not 1/2
        lat = constructions.bad_lattice(1)
        assert reduction.spectral_test(lat).sigma_sq == 1

    def test_discrepancy_floor(self):
        # the halved axis keeps an empty slab of volume 1/2 at every m
        from latdisc import discrepancy

        for m in (2, 5, 20):
            lat = constructions.bad_lattice(m)
            planes = discrepancy.hyperplane_count_certificate(
                lat, lattice.enumerate_points(lat), reduction.spectral_test(lat)
            )
            cert = discrepancy.slab_certificate(planes)
            assert cert.implied_lower_bound >= F(1, 2)


class TestKorobovLattice:
    def test_power_generator(self):
        lat = constructions.korobov_lattice(7, 3, 3)
        assert lat.rank1_data == (7, (1, 3, 2))

    def test_matches_rank1(self):
        assert constructions.korobov_lattice(5, 2, 2) == lattice.from_rank1(5, (1, 2))

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            constructions.korobov_lattice(5, 0, 2)
        with pytest.raises(InputError):
            constructions.korobov_lattice(0, 1, 2)
        with pytest.raises(InputError):
            constructions.korobov_lattice(5, 2, 0)


class TestKorobovSearch:
    def test_frozen_tiny_prime(self):
        r = constructions.korobov_search(5, 2)
        assert r.generator == (1, 2)
        assert r.norm_sq == 5
        assert r.sigma_sq == F(1, 5)
        assert r.n_searched == 4

    def test_frozen_two_point_rule(self):
        r = constructions.korobov_search(2, 2)
        assert r.generator == (1, 1)
        assert r.norm_sq == 2

    def test_frozen_medium_prime(self):
        r = constructions.korobov_search(101, 2)
        assert r.generator == (1, 30)
        assert r.norm_sq == 109
        assert r.mode == "korobov"
        assert r.n_searched == 100

    def test_result_lattice_round_trip(self):
        r = constructions.korobov_search(17, 2)
        lat = lattice.from_rank1(r.n, r.generator)
        assert lat.rank1_data == (17, r.generator)
        assert reduction.spectral_test(lat).sigma_sq == r.sigma_sq

    def test_exhaustive_agrees_on_two_dims(self):
        # for d = 2 both modes scan the same generator space
        for n in (5, 7, 11, 13):
            k = constructions.korobov_search(n, 2)
            e = constructions.korobov_search(n, 2, mode="exhaustive")
            assert (k.generator, k.norm_sq) == (e.generator, e.norm_sq)

    def test_exhaustive_never_worse_in_three_dims(self):
        k = constructions.korobov_search(29, 3)
        e = constructions.korobov_search(29, 3, mode="exhaustive")
        assert e.norm_sq >= k.norm_sq
        assert (k.generator, k.norm_sq) == ((1, 3, 9), 10)
        assert (e.generator, e.norm_sq) == ((1, 3, 9), 10)
        assert e.n_searched == 28 * 28

    def test_tie_break_lex_min(self):
        # scan every candidate and confirm the reported winner is the
        # lexicographically smallest among maximizers
        n = 13
        best = None
        for a in range(1, n):
            g = (1, a)
            lam = reduction.spectral_test(lattice.from_rank1(n, g)).shortest_dual_norm_sq
            key = (-lam, g)
            if best is None or key < best:
                best = key
        r = constructions.korobov_search(n, 2)
        assert (-r.norm_sq, r.generator) == best

    def test_composite_n_rejected(self):
        with pytest.raises(InputError):
            constructions.korobov_search(9, 2)
        with pytest.raises(InputError):
            constructions.korobov_search(1, 2)

    def test_dimension_limits(self):
        with pytest.raises(InputError):
            constructions.korobov_search(5, 1)
        with pytest.raises(CapExceededError):
            constructions.korobov_search(5, 3, svp_cap=2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError):
            constructions.korobov_search(5, 2, mode="stochastic")

    def test_to_dict_json_safe(self):
        data = constructions.korobov_search(7, 2).to_dict()
        text = json.dumps(data, sort_keys=True)
        assert json.loads(text)["generator"] == list(data["generator"])
