"""Certified enclosures of irrational quantities, with directed rounding.

The inequality certificates in this package never trust floating point.
Whenever an irrational value (pi, a square or d-th root, a Gamma value)
enters a comparison, it is replaced by a Bounds pair of rationals that
provably enclose it; lower bounds are only ever rounded down and upper
bounds up.  A strict inequality between two quantities is certified by
separating their enclosures, refining precision as needed; exact rational
comparisons never go through this module at all.

Precision arguments count significant decimal digits.  The package default
is 50 and anything below 30 is refused: renderings are meant to make the
certified comparisons reproducible, not to look approximately right.
Anything above 1600 is refused too: that is where certified comparisons stop
refining.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, UndecidableComparisonError

DEFAULT_DIGITS = 50
MIN_DIGITS = 30
MAX_DIGITS = 1600


def _check_digits(digits: int) -> int:
    if digits < MIN_DIGITS:
        raise InputError(f"precision below {MIN_DIGITS} significant digits is refused")
    if digits > MAX_DIGITS:
        raise InputError(f"precision above {MAX_DIGITS} significant digits is refused")
    return digits


@dataclass(frozen=True)
class Bounds:
    """A certified enclosure lo <= value <= hi, both rational."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InputError("empty bounds interval")


def exact(x) -> Bounds:
    f = x if isinstance(x, Fraction) else Fraction(x)
    return Bounds(f, f)


def mul(a: Bounds, b: Bounds) -> Bounds:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Bounds(min(products), max(products))


def scale(a: Bounds, r) -> Bounds:
    r = Fraction(r)
    if r >= 0:
        return Bounds(a.lo * r, a.hi * r)
    return Bounds(a.hi * r, a.lo * r)


def recip(a: Bounds) -> Bounds:
    if a.lo <= 0 <= a.hi:
        raise InputError("reciprocal of an interval containing zero")
    return Bounds(1 / a.hi, 1 / a.lo)


def div(a: Bounds, b: Bounds) -> Bounds:
    return mul(a, recip(b))


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def integer_nth_root(v: int, n: int) -> int:
    """floor(v ** (1/n)) for v >= 0, n >= 1, exactly (Newton plus correction)."""
    if v < 0 or n < 1:
        raise InputError("integer_nth_root needs v >= 0, n >= 1")
    if n == 1 or v in (0, 1):
        return v
    if n == 2:
        return math.isqrt(v)
    x = 1 << -(-v.bit_length() // n)  # >= true root
    while True:
        y = ((n - 1) * x + v // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x**n > v:
        x -= 1
    while (x + 1) ** n <= v:
        x += 1
    return x


def sqrt_bounds(x, digits: int = DEFAULT_DIGITS) -> Bounds:
    """Enclosure of sqrt(x) for rational x >= 0; exact for perfect squares."""
    return nth_root_bounds(x, 2, digits)


def nth_root_bounds(x, n: int, digits: int = DEFAULT_DIGITS) -> Bounds:
    """Enclosure of x ** (1/n) for rational x >= 0 and integer n >= 1."""
    x = Fraction(x)
    _check_digits(digits)
    if n < 1:
        raise InputError("root index must be >= 1")
    if x < 0:
        raise InputError("n-th root of a negative value")
    if x == 0:
        return exact(0)
    rn = integer_nth_root(x.numerator, n)
    rd = integer_nth_root(x.denominator, n)
    if rn**n == x.numerator and rd**n == x.denominator:
        return exact(Fraction(rn, rd))
    scale_int = 10**digits
    scale_pow = scale_int**n
    lo_arg = (x.numerator * scale_pow) // x.denominator
    lo = Fraction(integer_nth_root(lo_arg, n), scale_int)
    hi_arg = -((-x.numerator * scale_pow) // x.denominator)  # ceil
    root = integer_nth_root(hi_arg, n)
    if root**n < hi_arg:
        root += 1
    hi = Fraction(root, scale_int)
    return Bounds(lo, hi)


def root_of_bounds(a: Bounds, n: int, digits: int = DEFAULT_DIGITS) -> Bounds:
    """Enclosure of the n-th root of a nonnegative enclosure."""
    return Bounds(
        nth_root_bounds(a.lo, n, digits).lo,
        nth_root_bounds(a.hi, n, digits).hi,
    )


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

def _arctan_recip(x: int, digits: int) -> Bounds:
    # arctan(1/x) for integer x >= 2: alternating series with strictly
    # decreasing terms, so the limit lies between consecutive partial sums
    target = Fraction(1, 10 ** (digits + 4))
    x_sq = x * x
    s = Fraction(0)
    sign = 1
    k = 0
    power = Fraction(1, x)  # x ** -(2k+1)
    while True:
        term = power / (2 * k + 1)
        if term < target:
            break
        s += sign * term
        sign = -sign
        k += 1
        power /= x_sq
    other = s + sign * term
    return Bounds(min(s, other), max(s, other))


@lru_cache(maxsize=None)
def pi_bounds(digits: int = DEFAULT_DIGITS) -> Bounds:
    """Enclosure of pi via Machin's formula 16*arctan(1/5) - 4*arctan(1/239)."""
    _check_digits(digits)
    a = _arctan_recip(5, digits + 2)
    b = _arctan_recip(239, digits + 2)
    return Bounds(16 * a.lo - 4 * b.hi, 16 * a.hi - 4 * b.lo)


# ---------------------------------------------------------------------------
# certified comparison with refinement
# ---------------------------------------------------------------------------

def certify_le(make_a, make_b, digits: int = DEFAULT_DIGITS) -> bool:
    """Decide a <= b where make_a(digits), make_b(digits) return enclosures
    of a and b that tighten as digits grows.

    Returns True when a < b is certified, False when a > b is certified.
    Only usable when a == b is impossible; equality cases must be routed
    through exact rational arithmetic by the caller.  Raises
    UndecidableComparisonError if the enclosures still overlap at
    MAX_DIGITS -- which, for quantities that are provably unequal, means a
    bug rather than bad luck.
    """
    d = _check_digits(digits)
    while True:
        a = make_a(d)
        b = make_b(d)
        if a.hi < b.lo:
            return True
        if a.lo > b.hi:
            return False
        if d >= MAX_DIGITS:
            raise UndecidableComparisonError(
                f"enclosures still overlap at {d} digits: "
                f"[{a.lo}, {a.hi}] vs [{b.lo}, {b.hi}]"
            )
        d = min(2 * d, MAX_DIGITS)


# ---------------------------------------------------------------------------
# decimal rendering
# ---------------------------------------------------------------------------

def decimal_str(x, sig: int = DEFAULT_DIGITS, direction: str = "down") -> str:
    """Plain-decimal rendering of a rational with `sig` significant digits,
    rounded toward -infinity ("down") or +infinity ("up").

    The direction refers to the rendered value versus the true value, so a
    lower bound stays a lower bound after rendering with "down" and an upper
    bound stays one with "up".  `decimal` rounds the one division correctly
    in either direction; quantize then pads exact quotients to `sig` digits.
    """
    if sig < 1:
        raise InputError("need at least one significant digit")
    if direction not in ("down", "up"):
        raise InputError("direction must be 'down' or 'up'")
    x = Fraction(x)
    if x == 0:
        return "0"
    rounding = ROUND_FLOOR if direction == "down" else ROUND_CEILING
    ctx = Context(prec=sig, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN)
    q = ctx.divide(Decimal(x.numerator), Decimal(x.denominator))
    exponent = Decimal((0, (1,), q.adjusted() - sig + 1))
    return f"{q.quantize(exponent, context=ctx):f}"
