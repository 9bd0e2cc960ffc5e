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

The workhorse is halfspace_cube_volume: for a normal with all-positive
entries the volume of { x in [0,1]^d : <a, x> <= t } has the classical
inclusion-exclusion form

    vol = ( sum over vertices v of {0,1}^d of (-1)^|v| max(0, t - <a, v>)^d )
          / ( d! * prod_i a_i ),

zero coordinates of the normal marginalize out, and negative coordinates are
flipped by the substitution x_i -> 1 - x_i.  Volume is insensitive to the
open/closed flags; membership tests honor them exactly.

body_contains is the single-point reference; count_inside runs the same test
over a node set's integer numerators X = q x, against integer thresholds
derived once per body.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor, lcm
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


def halfspace_cube_volume(normal, offset) -> Fraction:
    """Exact volume of { x in [0,1]^d : <normal, x> <= offset }."""
    a = as_vector(normal)
    t = as_fraction(offset)
    if all(x == 0 for x in a):
        raise InputError("volume of a halfspace needs a nonzero normal")
    coeffs = []
    for x in a:
        if x > 0:
            coeffs.append(x)
        elif x < 0:
            coeffs.append(-x)  # substitute x_i -> 1 - x_i
            t -= x
    m = len(coeffs)
    if m > _SUBSET_LIMIT:
        raise InputError(f"halfspace volume limited to {_SUBSET_LIMIT} active axes")
    if t <= 0:
        return Fraction(0)
    if t >= sum(coeffs):
        return Fraction(1)
    total = Fraction(0)
    for mask in range(1 << m):
        s = t
        bits = 0
        mm = mask
        idx = 0
        while mm:
            if mm & 1:
                s -= coeffs[idx]
                bits += 1
            mm >>= 1
            idx += 1
        if s > 0:
            total += (-1) ** bits * s**m
    return total / (factorial(m) * _product(coeffs))


def _product(values) -> Fraction:
    result = Fraction(1)
    for v in values:
        result *= v
    return result


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
        return _product(b - a for a, b in zip(body.lo, body.hi))
    raise InputError(f"unknown body type {type(body).__name__}")


def body_contains(body: ConvexBody, point) -> bool:
    """Exact membership of a rational point, honoring open/closed flags."""
    x = as_vector(point)
    if isinstance(body, Halfspace):
        s = sum(a * xi for a, xi in zip(body.normal, x))
        return s <= body.offset if body.closed else s < body.offset
    if isinstance(body, Slab):
        s = sum(a * xi for a, xi in zip(body.normal, x))
        if body.open:
            return body.lo < s < body.hi
        return body.lo <= s <= body.hi
    if isinstance(body, AxisBox):
        if body.open:
            return all(a < xi < b for a, xi, b in zip(body.lo, x, body.hi))
        return all(a <= xi <= b for a, xi, b in zip(body.lo, x, body.hi))
    raise InputError(f"unknown body type {type(body).__name__}")


def _integer_range(lo: Fraction, hi: Fraction, open_: bool) -> tuple[int, int]:
    """Inclusive bounds on the integers in (lo, hi) if open_, else [lo, hi]."""
    if open_:
        return floor(lo) + 1, ceil(hi) - 1
    return ceil(lo), floor(hi)


def count_inside(points: PointSet, body: ConvexBody) -> int:
    """Number of nodes x with body_contains(body, x), in integer arithmetic:
    the normal is cleared of denominators, offsets and corners are scaled by
    q, and each open or closed side is rounded to the integers it admits."""
    q = points.denominator
    if isinstance(body, AxisBox):
        inside = points.numerators
        for k, (lo, hi) in enumerate(zip(body.lo, body.hi)):
            a, b = _integer_range(lo * q, hi * q, body.open)
            inside = [x for x in inside if a <= x[k] <= b]
        return len(inside)
    if not isinstance(body, (Halfspace, Slab)):
        raise InputError(f"unknown body type {type(body).__name__}")
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


def body_from_dict(data: dict) -> ConvexBody:
    """Inverse of body_to_dict; raises InputError on malformed data."""
    try:
        shape = data["shape"]
        if shape == "halfspace":
            return Halfspace(tuple(data["normal"]), data["offset"], data["closed"])
        if shape == "slab":
            return Slab(tuple(data["normal"]), data["lo"], data["hi"], data["open"])
        if shape == "axis_box":
            return AxisBox(tuple(data["lo"]), tuple(data["hi"]), data["open"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed body description: {exc}") from exc
    raise InputError(f"unknown body shape {data.get('shape')!r}")
