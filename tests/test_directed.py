"""Directed rational enclosures: roots, pi, rendering, certified compares."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latdisc import directed
from latdisc.directed import (
    Bounds,
    certify_le,
    decimal_str,
    exact,
    integer_nth_root,
    nth_root_bounds,
    pi_bounds,
    sqrt_bounds,
)
from latdisc.errors import InputError

F = Fraction

# truncated references: the true constant lies in [REF, REF + REF_GAP]
PI_REF = F(31415926535897932384626433832795028841971693993751, 10**49)
PI_GAP = F(1, 10**49)


class TestIntegerRoots:
    @given(st.integers(0, 10**24), st.integers(2, 7))
    @settings(max_examples=300, deadline=None)
    def test_integer_nth_root_floor(self, v, n):
        r = integer_nth_root(v, n)
        assert r**n <= v < (r + 1) ** n


class TestRootBounds:
    def test_sqrt_perfect_square_exact(self):
        b = sqrt_bounds(F(9, 4), 30)
        assert b.lo == b.hi == F(3, 2)

    def test_sqrt2_encloses(self):
        b = sqrt_bounds(2, 40)
        assert b.lo**2 <= 2 <= b.hi**2
        assert b.hi - b.lo <= F(1, 10**38)

    @given(
        st.fractions(min_value=F(1, 1000), max_value=10**6),
        st.integers(2, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_nth_root_bounds_enclose(self, x, n):
        b = nth_root_bounds(x, n, 30)
        assert b.lo >= 0
        assert b.lo**n <= x <= b.hi**n
        assert b.hi - b.lo <= F(1, 10**28) * max(1, b.hi)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            sqrt_bounds(-1, 30)

    def test_low_precision_rejected(self):
        with pytest.raises(InputError):
            sqrt_bounds(2, 10)


class TestConstants:
    def test_pi_enclosure(self):
        b = pi_bounds(50)
        assert b.hi - b.lo <= F(1, 10**48)
        # the enclosure and the reference interval must overlap
        assert b.lo <= PI_REF + PI_GAP
        assert PI_REF <= b.hi

    def test_more_digits_tighten(self):
        coarse = pi_bounds(30)
        fine = pi_bounds(120)
        assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi


class TestIntervalArithmetic:
    def test_mul_signs(self):
        a = Bounds(F(-2), F(3))
        b = Bounds(F(-5), F(7))
        prod = directed.mul(a, b)
        corners = [F(-2) * F(-5), F(-2) * 7, F(3) * F(-5), F(3) * 7]
        assert prod.lo == min(corners) and prod.hi == max(corners)

    def test_recip_requires_sign(self):
        with pytest.raises(InputError):
            directed.recip(Bounds(F(-1), F(1)))
        r = directed.recip(Bounds(F(2), F(4)))
        assert (r.lo, r.hi) == (F(1, 4), F(1, 2))


class TestCertify:
    def test_certify_true_and_false(self):
        assert certify_le(lambda d: sqrt_bounds(2, d), lambda d: exact(F(3, 2)), 30)
        assert not certify_le(
            lambda d: exact(F(3, 2)), lambda d: sqrt_bounds(2, d), 30
        )
        assert certify_le(lambda d: pi_bounds(d), lambda d: exact(4), 30)

    def test_certify_refines(self):
        # 355/113 approximates pi to 2.7e-7, so 30-digit enclosures decide
        # it immediately, but a coarse starting interval must still refine
        assert certify_le(
            lambda d: pi_bounds(max(d, 30)), lambda d: exact(F(355, 113)), 30
        )


class TestDecimalRendering:
    def test_directions(self):
        x = F(1, 3)
        assert decimal_str(x, 30, "down") == "0." + "3" * 30
        assert decimal_str(x, 30, "up") == "0." + "3" * 29 + "4"

    def test_negative_value_directions(self):
        x = F(-1, 3)
        assert F(decimal_str(x, 30, "down")) <= x <= F(decimal_str(x, 30, "up"))
        assert decimal_str(x, 30, "down") == "-0." + "3" * 29 + "4"
        assert decimal_str(x, 30, "up") == "-0." + "3" * 30

    def test_integer_value(self):
        assert decimal_str(F(5), 30, "down") == "5." + "0" * 29
        assert decimal_str(F(5), 30, "up") == "5." + "0" * 29

    def test_large_value_padding(self):
        assert decimal_str(F(10) ** 35, 30, "down") == "1" + "0" * 35

    def test_carry_overflow(self):
        # rounding 0.999... up must bump into 1.0000..., not drop a digit
        x = F(10**40 - 1, 10**40)
        up = decimal_str(x, 30, "up")
        assert F(up) >= x
        assert up.startswith("1.")

    @given(
        st.fractions(min_value=F(1, 10**6), max_value=F(10**6)),
        st.integers(30, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_rendering_is_directed(self, x, sig):
        down = F(decimal_str(x, sig, "down"))
        up = F(decimal_str(x, sig, "up"))
        assert down <= x <= up
        assert up - down <= F(10) ** (-(sig - 1)) * max(1, x)

    def test_zero(self):
        assert decimal_str(F(0), 30, "down") == "0"
        assert decimal_str(F(0), 30, "up") == "0"


class TestDecimalAgainstReference:
    """decimal_str against the integer carry-and-format rendering it
    replaced, digit for digit."""

    SIGS = (1, 2, 30, 50, 51, 1600)

    @staticmethod
    def _values(rng):
        """Random rationals from 10^-80 to 10^80, exact powers of ten, and
        values just below and just above them, with both signs."""
        for _ in range(400):
            x = F(rng.randrange(1, 10 ** rng.randint(1, 60)),
                  rng.randrange(1, 10 ** rng.randint(1, 60)))
            yield x * F(10) ** rng.randint(-80, 80)
        for k in range(-80, 81, 8):
            ten_k = F(10) ** k
            yield ten_k
            yield ten_k * (1 - F(1, 10 ** rng.randint(1, 1700)))
            yield ten_k * (1 + F(1, 10 ** rng.randint(1, 1700)))

    def test_matches_reference(self):
        rng = random.Random(2024)
        compared = 0
        for x in self._values(rng):
            for value in (x, -x):
                for sig in self.SIGS:
                    for direction in ("down", "up"):
                        expected = oracles.decimal_str_reference(value, sig, direction)
                        assert decimal_str(value, sig, direction) == expected
                        compared += 1
        assert compared >= 10**4
