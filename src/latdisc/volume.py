"""Convex test bodies and their exact volumes inside the unit cube.

The discrepancy certificates compare exact point counts against exact
volumes, so the volume of every supported body is computed as a Fraction.
Three body shapes cover everything the certificates and the search need:

- Halfspace: { x : <a, x> <= t } (or strict);
- Slab: { x : lo < <a, x> < hi } (or closed), the region between two
  parallel hyperplanes; a degenerate closed slab with lo == hi is the
  hyperplane itself (volume zero), which is how a plane of lattice points
  enters a certificate as a convex body;
- AxisBox: an axis-parallel box inside the cube.

The workhorse is CubeSection, one integer kernel for every halfspace
volume.  For an integer direction a and a denominator q, flip each negative
entry by the substitution x_i -> 1 - x_i (which shifts the offset by
q |a_i|), drop the zero entries, and let c_1..c_m be the remaining |a_i|.
The classical inclusion-exclusion form then reads, in integers,

    vol{ x in [0,1]^d : <a, x> <= v/q } = num(v) / den,
    num(v) = sum over vertex sums S < T of sign(S) * (T - S)^m,
    den    = q^m * m! * c_1 * ... * c_m,

with T = v + shift.  The vertex sums S = q * sum_{i in I} c_i over subsets I
of the active axes carry the sign (-1)^|I|; the table is built once per
direction by doubling it for each c_i, and equal sums are merged into one
signed multiplicity, so it never holds more than 2^m terms.  num is 0 for
T <= 0 and den for T >= q * sum c_i.  halfspace_cube_volume clears the
denominators of a rational normal and offset into this form and builds one
Fraction at the end.  Volume is insensitive to the open/closed flags;
membership tests honor them exactly.

body_contains is the single-point reference; count_inside runs the same test
over a node set's integer numerators X = q x, against integer thresholds
derived once per body: a box narrows the node indices one coordinate column
at a time, and a halfspace or slab counts a stream of the products <a, X>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor, lcm, prod
from typing import Union

from .errors import InputError
from .lattice import PointSet
from .linalg import as_fraction, as_vector

_SUBSET_LIMIT = 24  # inclusion-exclusion is 2^m terms; refuse absurd dimensions


@dataclass(frozen=True)
class Halfspace:
    """{ x : <normal, x> <= offset }, strict when closed=False."""

    normal: tuple
    offset: Fraction
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vector(self.normal))
        object.__setattr__(self, "offset", as_fraction(self.offset))
        if all(x == 0 for x in self.normal):
            raise InputError("halfspace normal must be nonzero")


@dataclass(frozen=True)
class Slab:
    """{ x : lo < <normal, x> < hi } (open) or with <= (closed).

    lo == hi is allowed only for a closed slab and denotes the hyperplane
    <normal, x> = lo itself, a legitimate convex body of volume zero.
    """

    normal: tuple
    lo: Fraction
    hi: Fraction
    open: bool = True

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vector(self.normal))
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if all(x == 0 for x in self.normal):
            raise InputError("slab normal must be nonzero")
        if self.lo > self.hi:
            raise InputError("slab needs lo <= hi")
        if self.lo == self.hi and self.open:
            raise InputError("an open slab needs lo < hi")


@dataclass(frozen=True)
class AxisBox:
    """An axis-parallel box contained in [0,1]^d; open excludes all faces."""

    lo: tuple
    hi: tuple
    open: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", as_vector(self.lo))
        object.__setattr__(self, "hi", as_vector(self.hi))
        if len(self.lo) != len(self.hi):
            raise InputError("box corners must have the same dimension")
        for a, b in zip(self.lo, self.hi):
            if not (0 <= a <= b <= 1):
                raise InputError("box must satisfy 0 <= lo <= hi <= 1 componentwise")


ConvexBody = Union[Halfspace, Slab, AxisBox]


class CubeSection:
    """Halfspace volumes in the unit cube for one integer direction and one
    denominator q: vol{ x in [0,1]^d : <direction, x> <= v/q } is
    numerator(v) / den for every integer v (see the module docstring)."""

    __slots__ = ("m", "shift", "top", "den", "_coeffs", "_q", "_terms")

    def __init__(self, direction, q: int):
        coeffs = []
        shift = 0
        for a in direction:
            if a > 0:
                coeffs.append(a)
            elif a < 0:
                coeffs.append(-a)  # substitute x_i -> 1 - x_i
                shift -= a
        m = len(coeffs)
        if m == 0:
            raise InputError("volume of a halfspace needs a nonzero normal")
        if m > _SUBSET_LIMIT:
            raise InputError(f"halfspace volume limited to {_SUBSET_LIMIT} active axes")
        self.m, self.shift, self.top = m, q * shift, q * sum(coeffs)
        self.den = q**m * factorial(m) * prod(coeffs)
        self._coeffs, self._q, self._terms = coeffs, q, None

    def terms(self) -> list[tuple[int, int]]:
        """The signed vertex sums (S, multiplicity), ascending in S; built
        on first use, so offsets outside the cube never pay for it."""
        if self._terms is None:
            table = {0: 1}
            for c in self._coeffs:
                step = self._q * c
                doubled = dict(table)
                for s, sign in table.items():
                    doubled[s + step] = doubled.get(s + step, 0) - sign
                table = doubled
            self._terms = sorted((s, sign) for s, sign in table.items() if sign)
        return self._terms

    def numerator(self, v: int) -> int:
        t = v + self.shift
        if t <= 0:
            return 0
        if t >= self.top:
            return self.den
        m = self.m
        total = 0
        for s, sign in self.terms():
            if s >= t:
                break
            total += sign * (t - s) ** m
        return total


def halfspace_cube_volume(normal, offset) -> Fraction:
    """Exact volume of { x in [0,1]^d : <normal, x> <= offset }."""
    a = as_vector(normal)
    scale = lcm(*(x.denominator for x in a))
    t = as_fraction(offset) * scale
    section = CubeSection([int(x * scale) for x in a], t.denominator)
    return Fraction(section.numerator(t.numerator), section.den)


def body_volume(body: ConvexBody) -> Fraction:
    """Exact volume of the body intersected with the unit cube."""
    if isinstance(body, Halfspace):
        return halfspace_cube_volume(body.normal, body.offset)
    if isinstance(body, Slab):
        if body.lo == body.hi:
            return Fraction(0)
        return halfspace_cube_volume(body.normal, body.hi) - halfspace_cube_volume(
            body.normal, body.lo
        )
    if isinstance(body, AxisBox):
        return prod(b - a for a, b in zip(body.lo, body.hi))
    raise InputError(f"unknown body type {type(body).__name__}")


def body_contains(body: ConvexBody, point) -> bool:
    """Exact membership of a rational point, honoring open/closed flags.
    A point whose dimension is not the body's raises InputError."""
    x = as_vector(point)
    if isinstance(body, AxisBox):
        _check_dim(body.lo, len(x))
        if body.open:
            return all(a < xi < b for a, xi, b in zip(body.lo, x, body.hi))
        return all(a <= xi <= b for a, xi, b in zip(body.lo, x, body.hi))
    if not isinstance(body, (Halfspace, Slab)):
        raise InputError(f"unknown body type {type(body).__name__}")
    _check_dim(body.normal, len(x))
    s = sum(a * xi for a, xi in zip(body.normal, x))
    if isinstance(body, Halfspace):
        return s <= body.offset if body.closed else s < body.offset
    return body.lo < s < body.hi if body.open else body.lo <= s <= body.hi


def _integer_range(lo: Fraction, hi: Fraction, open_: bool) -> tuple[int, int]:
    """Inclusive bounds on the integers in (lo, hi) if open_, else [lo, hi]."""
    if open_:
        return floor(lo) + 1, ceil(hi) - 1
    return ceil(lo), floor(hi)


def _check_dim(entries: tuple, dim: int) -> None:
    if len(entries) != dim:
        raise InputError(
            f"body of dimension {len(entries)} against points of dimension {dim}"
        )


def count_inside(points: PointSet, body: ConvexBody) -> int:
    """Number of nodes x with body_contains(body, x), in integer arithmetic:
    the normal is cleared of denominators, offsets and corners are scaled by
    q, and each open or closed side is rounded to the integers it admits.
    A body whose dimension is not the nodes' raises InputError; pairing its
    entries with the node columns would silently drop the extra ones."""
    q = points.denominator
    if isinstance(body, AxisBox):
        _check_dim(body.lo, points.dim)
        inside = range(len(points))
        for column, lo, hi in zip(points.columns, body.lo, body.hi):
            a, b = _integer_range(lo * q, hi * q, body.open)
            inside = [i for i in inside if a <= column[i] <= b]
        return len(inside)
    if not isinstance(body, (Halfspace, Slab)):
        raise InputError(f"unknown body type {type(body).__name__}")
    _check_dim(body.normal, points.dim)
    scale = lcm(*(a.denominator for a in body.normal))
    values = points.products([int(a * scale) for a in body.normal])
    scale *= q
    if isinstance(body, Halfspace):
        t = body.offset * scale
        _, b = _integer_range(t, t, not body.closed)
        return sum(1 for v in values if v <= b)
    a, b = _integer_range(body.lo * scale, body.hi * scale, body.open)
    return sum(1 for v in values if a <= v <= b)


def local_discrepancy(points: PointSet, body: ConvexBody) -> Fraction:
    """Exact signed discrepancy count/N - vol of one convex body."""
    if len(points) == 0:
        raise InputError("empty point set")
    return Fraction(count_inside(points, body), len(points)) - body_volume(body)


def body_to_dict(body: ConvexBody) -> dict:
    """JSON-ready description of a body (exact 'p/q' strings)."""
    if isinstance(body, Halfspace):
        return {
            "shape": "halfspace",
            "normal": [str(x) for x in body.normal],
            "offset": str(body.offset),
            "closed": body.closed,
        }
    if isinstance(body, Slab):
        return {
            "shape": "slab",
            "normal": [str(x) for x in body.normal],
            "lo": str(body.lo),
            "hi": str(body.hi),
            "open": body.open,
        }
    if isinstance(body, AxisBox):
        return {
            "shape": "axis_box",
            "lo": [str(x) for x in body.lo],
            "hi": [str(x) for x in body.hi],
            "open": body.open,
        }
    raise InputError(f"unknown body type {type(body).__name__}")

