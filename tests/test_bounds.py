"""Dimension constants, the Minkowski floor, and the verification reports.

The verify CSV row is written by the CLI (tests/test_cli.py, TestVerifyCSV)."""

import json
from fractions import Fraction

import pytest

import oracles
from latdisc import bounds, constructions, directed, discrepancy, lattice, reduction
from latdisc.errors import InputError

F = Fraction

MINK2 = ("0.886226925452758013649083741670", "0.886226925452758013649083741671")
C2 = ("0.626657068657750125603941321202", "0.626657068657750125603941321203")
INV_SQRT2 = ("0.707106781186547524400844362104", "0.707106781186547524400844362105")
GAMMA_5_HALVES = ("1.32934038817913702047362561250", "1.32934038817913702047362561251")


def _decimal_pair(b, digits=30):
    lo = directed.decimal_str(b.lo, digits, "down")
    return lo, directed.decimal_str(b.hi, digits, "up")


def _mink_sq(d, digits=directed.DEFAULT_DIGITS):
    """verify_lattice's enclosure of mink_d^2, d >= 2."""
    return bounds._minkowski_sq_bounds(bounds.gamma_half_integer(d + 2), d, digits)


def _c_d(d, digits=directed.DEFAULT_DIGITS):
    """c_d = mink_d / sqrt(d), from c_d^2 = mink_d^2 / d as verify_lattice
    scales it (exact on rational bounds)."""
    c_sq = directed.scale(_mink_sq(d, digits), F(1, d))
    return directed.root_of_bounds(c_sq, 2, digits)


def _mink(d, digits=directed.DEFAULT_DIGITS):
    return directed.root_of_bounds(_mink_sq(d, digits), 2, digits)


# e to ten digits: up to d = 32, c_d stays more than 6% below
# sqrt(pi e / 2) / d and its ratio to it rises by more than 0.001 per step,
# gaps far wider than this enclosure
E = directed.Bounds(F(2718281828, 10**9), F(2718281829, 10**9))


class TestGammaHalfInteger:
    @pytest.mark.parametrize(
        "two_z, rational, has_pi",
        [
            (2, F(1), False),  # Gamma(1)
            (4, F(1), False),  # Gamma(2)
            (6, F(2), False),  # Gamma(3)
            (8, F(6), False),  # Gamma(4)
            (1, F(1), True),  # Gamma(1/2) = sqrt(pi)
            (3, F(1, 2), True),  # Gamma(3/2)
            (5, F(3, 4), True),  # Gamma(5/2)
            (7, F(15, 8), True),  # Gamma(7/2)
        ],
    )
    def test_closed_forms(self, two_z, rational, has_pi):
        g = bounds.gamma_half_integer(two_z)
        assert (g.rational, g.sqrt_pi) == (rational, has_pi)

    def test_recurrence(self):
        # Gamma(z + 1) = z * Gamma(z), in both parity classes
        for two_z in range(1, 12):
            g = bounds.gamma_half_integer(two_z)
            g_next = bounds.gamma_half_integer(two_z + 2)
            assert g_next.rational == F(two_z, 2) * g.rational
            assert g_next.sqrt_pi == g.sqrt_pi

    def test_decimal_enclosure(self):
        enclosure = oracles.gamma_bounds(bounds.gamma_half_integer(5), 30)
        assert _decimal_pair(enclosure) == GAMMA_5_HALVES

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            bounds.gamma_half_integer(0)


class TestDimensionConstants:
    """The constants verify_lattice certifies, through the enclosures it
    computes them with."""

    def test_frozen_two_dimensional_values(self):
        assert _decimal_pair(_c_d(2)) == C2
        assert _decimal_pair(_mink(2)) == MINK2
        assert _decimal_pair(directed.recip(directed.sqrt_bounds(2))) == INV_SQRT2

    def test_one_dimensional_constants_are_exact_ones(self):
        # verify's d = 1 branch: the floor mink_1 / N and the sandwich
        # c_1 / N both meet sigma = 1/N on Z/N, and d^2 2^d = 2
        rep = bounds.verify_lattice(constructions.scaled_integer_lattice(5, 1))
        assert rep.all_passed
        assert rep.sigma_sq == F(1, 25)
        assert rep.minkowski_sigma_lb_decimal == rep.sigma_decimal
        assert F(rep.minkowski_sigma_lb_decimal) == F(1, 5)
        assert rep.jn_upper_sq == 2**2 * rep.sigma_sq

    def test_identity_ties_the_three_constants(self):
        # c_d = (1 / sqrt(d)) * mink_d, checked as interval overlap
        for d in range(2, 9):
            c = _c_d(d)
            prod = directed.mul(directed.recip(directed.sqrt_bounds(d)), _mink(d))
            assert prod.lo <= c.hi and c.lo <= prod.hi

    def test_upper_factor_growth(self):
        factors_sq = [
            discrepancy.sigma_upper_bound(d, F(1), 30)[0] for d in (1, 2, 3, 4)
        ]
        assert factors_sq == [2**2, 16**2, 72**2, 256**2]

    def test_enclosures_tighten_with_digits(self):
        for constant in (_c_d, _mink):
            wide = constant(3, digits=30)
            tight = constant(3, digits=60)
            assert tight.hi - tight.lo < wide.hi - wide.lo
            assert wide.lo <= tight.lo and tight.hi <= wide.hi

    def test_constants_approach_asymptote_from_below(self):
        # (c_d / (sqrt(pi e / 2) / d))^2 = c_d^2 2 d^2 / (pi e) stays below 1
        # and rises with d
        half_pi_e = directed.scale(directed.mul(directed.pi_bounds(30), E), F(1, 2))
        ratios = [
            directed.div(directed.scale(_mink_sq(d, 30), F(d)), half_pi_e)
            for d in range(2, 33)
        ]
        for r, next_r in zip(ratios, ratios[1:]):
            assert r.hi < next_r.lo
        assert ratios[-1].hi < 1
        assert ratios[-1].lo > F(9, 10) ** 2


class TestMinkowskiSigmaCheck:
    def test_one_dimensional_equality_holds(self):
        # Z itself meets the floor with equality: N = 1, lambda^2 = 1
        assert bounds.minkowski_sigma_check(1, 1, 1)
        assert bounds.minkowski_sigma_check(1, 5, 25)

    def test_one_dimensional_rejection(self):
        assert not bounds.minkowski_sigma_check(1, 5, 26)

    def test_two_dimensional_threshold(self):
        # floor is 16 N^2 >= pi^2 lambda^4; at N = 5 the cutoff sits
        # between lambda^2 = 6 (400 > 355.3) and lambda^2 = 7 (400 < 483.6)
        assert bounds.minkowski_sigma_check(2, 5, 5)
        assert bounds.minkowski_sigma_check(2, 5, 6)
        assert not bounds.minkowski_sigma_check(2, 5, 7)

    def test_odd_dimension_with_sqrt_pi_gamma(self):
        assert bounds.minkowski_sigma_check(3, 1, 1)
        assert not bounds.minkowski_sigma_check(3, 1, 3)

    def test_holds_on_actual_lattices(self):
        # the floor is a theorem: every integration lattice satisfies it
        cases = [
            lattice.from_rank1(n, g)
            for n, g in [(5, (1, 3)), (13, (1, 5)), (21, (1, 13)), (8, (1, 3))]
        ]
        cases += [
            constructions.bad_lattice(4),
            constructions.korobov_lattice(29, 3, 3),
            constructions.scaled_integer_lattice(3, 2),
        ]
        for lat in cases:
            res = reduction.spectral_test(lat)
            assert bounds.minkowski_sigma_check(
                lat.dim, lat.n_points, res.shortest_dual_norm_sq
            )


class TestVerifyLattice:
    def test_frozen_small_rule_report(self):
        rep = bounds.verify_lattice(lattice.from_rank1(5, (1, 3)), name="fib5")
        assert rep.all_passed
        assert rep.checks == {
            "sigma_vs_minkowski": True,
            "lb_sandwich_consistent": True,
            "certified_lb_vs_sigma_ub": True,
            "pigeonhole_count": True,
        }
        assert rep.sigma_sq == F(1, 5)
        assert rep.certified_jn_lb == F(3, 5)
        assert rep.jn_upper_sq == F(256, 5)
        assert rep.dim == 2 and rep.n_points == 5
        assert rep.name == "fib5"

    def test_families_all_verify(self):
        for lat in (
            constructions.fibonacci_lattice(9),
            constructions.bad_lattice(3),
            constructions.bad_lattice(1),
            constructions.korobov_lattice(11, 7, 2),
            constructions.scaled_integer_lattice(2, 3),
            lattice.from_basis([[1, 0], [0, 1]]),
        ):
            rep = bounds.verify_lattice(lat)
            assert rep.all_passed, rep.checks

    def test_certified_lb_below_upper(self):
        rep = bounds.verify_lattice(constructions.fibonacci_lattice(10))
        assert rep.certified_jn_lb**2 <= rep.jn_upper_sq

    def test_to_dict_json_safe(self):
        rep = bounds.verify_lattice(lattice.from_rank1(5, (1, 3)))
        text = json.dumps(rep.to_dict(), sort_keys=True)
        data = json.loads(text)
        assert data["checks"]["sigma_vs_minkowski"] is True
        assert data["note"] == bounds.DIMENSION_FREE_NOTE

