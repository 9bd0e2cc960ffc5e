"""Dimension constants, the Minkowski floor, and the verification reports."""

import dataclasses
import io
import json
from fractions import Fraction

import pytest

import oracles
from latdisc import bounds, constructions, directed, lattice, reduction
from latdisc.errors import InputError

F = Fraction

MINK2 = ("0.886226925452758013649083741670", "0.886226925452758013649083741671")
C2 = ("0.626657068657750125603941321202", "0.626657068657750125603941321203")
INV_SQRT2 = ("0.707106781186547524400844362104", "0.707106781186547524400844362105")
GAMMA_5_HALVES = ("1.32934038817913702047362561250", "1.32934038817913702047362561251")


def _decimal_pair(b, digits=30):
    return directed.bounds_decimal(b, digits)


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
        assert directed.bounds_decimal(enclosure, 30) == GAMMA_5_HALVES

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            bounds.gamma_half_integer(0)


class TestDimensionConstants:
    def test_frozen_two_dimensional_values(self):
        c = bounds.constants_for(2)
        assert _decimal_pair(c.jn_lb_coeff) == C2
        assert _decimal_pair(c.sigma_lb_coeff) == MINK2
        assert _decimal_pair(c.jn_lb_sigma_coeff) == INV_SQRT2
        assert c.jn_ub_sigma_factor == 16

    def test_one_dimensional_constants_are_exact_ones(self):
        c = bounds.constants_for(1)
        for b in (c.jn_lb_coeff, c.sigma_lb_coeff, c.jn_lb_sigma_coeff):
            assert b.lo == b.hi == 1
        assert c.jn_ub_sigma_factor == 2

    def test_identity_ties_the_three_constants(self):
        # c_d = (1 / sqrt(d)) * mink_d, checked as interval overlap
        for d in range(1, 9):
            c = bounds.constants_for(d)
            prod = directed.mul(c.jn_lb_sigma_coeff, c.sigma_lb_coeff)
            assert prod.lo <= c.jn_lb_coeff.hi and c.jn_lb_coeff.lo <= prod.hi

    def test_upper_factor_growth(self):
        assert [bounds.constants_for(d).jn_ub_sigma_factor for d in (1, 2, 3, 4)] == [
            2,
            16,
            72,
            256,
        ]

    def test_enclosures_tighten_with_digits(self):
        lo_p = bounds.constants_for(3, digits=30)
        hi_p = bounds.constants_for(3, digits=60)
        for attr in ("jn_lb_coeff", "sigma_lb_coeff", "asymptote"):
            wide = getattr(lo_p, attr)
            tight = getattr(hi_p, attr)
            assert tight.hi - tight.lo < wide.hi - wide.lo
            assert wide.lo <= tight.lo and tight.hi <= wide.hi

    def test_asymptote_decreases_with_dimension(self):
        # sqrt(pi e / 2) / d is the scaled large-d limit of c_d
        values = [bounds.constants_for(d).asymptote for d in (2, 4, 8)]
        assert values[0].lo > values[1].hi > 0
        assert values[1].lo > values[2].hi > 0

    def test_constants_approach_asymptote_from_below(self):
        ratios = []
        for d in (2, 4, 8, 16, 32):
            c = bounds.constants_for(d)
            ratios.append((c.jn_lb_coeff.lo / c.asymptote.hi, c.jn_lb_coeff.hi / c.asymptote.lo))
        for (lo, hi), (next_lo, _) in zip(ratios, ratios[1:]):
            assert hi < 1
            assert lo < next_lo
        assert ratios[-1][0] > F(9, 10)

    def test_perfect_square_dimension_exact_inverse_root(self):
        c = bounds.constants_for(4)
        assert c.jn_lb_sigma_coeff.lo == c.jn_lb_sigma_coeff.hi == F(1, 2)

    def test_to_dict_carries_note(self):
        data = bounds.constants_for(2).to_dict()
        assert data["note"] == bounds.DIMENSION_FREE_NOTE
        json.dumps(data)

    def test_input_validation(self):
        with pytest.raises(InputError):
            bounds.constants_for(0)
        with pytest.raises(InputError):
            bounds.constants_for(2, digits=10)


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
                lat.dim, lat.n_points, int(res.shortest_dual_norm_sq)
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


class TestReportsCSV:
    def test_header_and_row_shape(self):
        reps = [
            bounds.verify_lattice(lattice.from_rank1(5, (1, 3)), name="fib5"),
            bounds.verify_lattice(constructions.bad_lattice(2), name="bad2"),
        ]
        buf = io.StringIO()
        bounds.write_reports_csv(reps, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].split(",") == bounds.REPORT_COLUMNS
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "fib5"
        assert first[-1] == "pass"
        assert first[3] == "1/5"

    def test_failing_check_changes_verdict(self):
        rep = bounds.verify_lattice(lattice.from_rank1(5, (1, 3)), name="x")
        broken = dataclasses.replace(
            rep, checks={**rep.checks, "pigeonhole_count": False}
        )
        assert not broken.all_passed
        assert bounds.report_row(broken)[-1] == "fail:pigeonhole_count"

    def test_bytes_stable(self):
        rep = bounds.verify_lattice(lattice.from_rank1(5, (1, 3)), name="r")
        a, b = io.StringIO(), io.StringIO()
        bounds.write_reports_csv([rep], a)
        bounds.write_reports_csv([rep], b)
        assert a.getvalue() == b.getvalue()
