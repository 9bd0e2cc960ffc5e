"""Certified bounds and randomized estimation of isotropic discrepancy.

The isotropic discrepancy J_N of a point set is the worst absolute
difference |count/N - vol| over all convex subsets of the unit cube.  It is
a supremum over an infinite family, so this module never claims to compute
it; instead it produces

- certified lower bounds: explicit convex bodies whose exact local
  discrepancy is an exact rational, established by the structure of the
  lattice (an empty slab between two occupied dual hyperplanes, and the
  most heavily occupied hyperplane itself), and

- a budgeted randomized search that evaluates more candidate bodies
  (halfspaces, slabs, and axis boxes at point-induced critical offsets) and
  keeps the best exactly-verified witness.

Both certificates rest on one lattice fact: every node lies on a plane
<h, x> in Z of the shortest dual vector h behind sigma(L).  The plane
certificate counts the caller's nodes on those planes in one pass; the slab
certificate reads its empty slab off the counts, and the estimator, which
takes the finished certificates, starts its scan of h from them.

Every quantity reported as a bound is an exact Fraction backed by a witness
body; before it returns, the estimator re-verifies each distinct claim (a
certificate body at its bound, a winning witness at the best value) with
one literal pass over the points.  The only irrational quantity, the
sigma-based upper bound d^2 2^d sigma(L), is carried in exact squared form.

The search is one stream of candidates, and its budget is a slice of the
stream: each scan is a generator that yields a candidate's discrepancy in
integers (integer node counts against the integer volume numerators of
volume.CubeSection), and one loop takes the first `budget` candidates and
builds a body and a Fraction only for one that ties or beats the
incumbent.  The gap slabs between adjacent node values are empty by
construction, like the slab certificate.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt

from . import directed, kernels, reduction, volume
from .errors import InputError, InvariantViolationError
from .lattice import IntegrationLattice, PointSet
from .volume import AxisBox, ConvexBody, Halfspace, Slab

DEFAULT_BUDGET = 10000
_RANDOM_NORMAL_RANGE = 10


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlabCertificate:
    """An empty open slab between two adjacent occupied dual hyperplanes.

    Every node satisfies <normal, x> in Z, so no node (and no occupied plane
    of the plane certificate) lies in the open slab between the planes k0
    and k0 + 1; its volume is therefore a certified lower bound on J_N
    (|0/N - vol| = vol).  The slab is chosen to contain the cube center when
    possible, and the neighbor just above the center plane otherwise (the
    one just below has the same volume).
    """

    body: Slab
    n_points_checked: int
    volume: Fraction
    implied_lower_bound: Fraction

    def to_dict(self) -> dict:
        return {
            "certificate": "empty_slab",
            "body": volume.body_to_dict(self.body),
            "n_points_checked": self.n_points_checked,
            "volume": str(self.volume),
            "implied_lower_bound": str(self.implied_lower_bound),
        }


@dataclass(frozen=True)
class HyperplaneCountCertificate:
    """Exact node counts on the dual hyperplane family <normal, x> = k.

    The most occupied plane is a convex set (a degenerate closed slab) of
    volume zero holding max_count points, so max_count/N is a certified
    lower bound on J_N.  The pigeonhole inequality
    (max_count/N)^2 * d >= sigma^2 is re-verified exactly, as is the bound
    floor(sqrt(d)/sigma) + 1 on the number of occupied planes.  The slab
    certificate and the estimator's first scan read these counts.
    """

    normal: tuple
    plane_counts: tuple
    max_count: int
    n_points: int
    implied_lower_bound: Fraction
    sigma_sq: Fraction
    plane_count_limit: int
    witness_body: Slab

    def to_dict(self) -> dict:
        return {
            "certificate": "hyperplane_counts",
            "normal": [str(x) for x in self.normal],
            "plane_counts": [[k, c] for k, c in self.plane_counts],
            "max_count": self.max_count,
            "n_points": self.n_points,
            "implied_lower_bound": str(self.implied_lower_bound),
            "sigma_sq": str(self.sigma_sq),
            "plane_count_limit": self.plane_count_limit,
            "witness_body": volume.body_to_dict(self.witness_body),
        }


def slab_certificate(planes: HyperplaneCountCertificate) -> SlabCertificate:
    """Certified empty-slab lower bound on J_N; see SlabCertificate.

    `planes` is the plane certificate of the node set, whose counts were
    checked against every node: the slab is empty when no occupied plane
    lies strictly between its lo and hi."""
    normal = planes.normal
    # the slab holding the cube's center, or the one just above the plane
    # through it: x -> 1 - x maps the slab just below that plane onto this
    # one, so neither is larger
    k = sum(normal) // 2
    slab = Slab(normal, k, k + 1, open=True)
    inside = sum(c for j, c in planes.plane_counts if slab.lo < j < slab.hi)
    if inside != 0:
        raise InvariantViolationError(
            f"slab {slab} between adjacent dual planes contains {inside} nodes"
        )
    vol = volume.body_volume(slab)
    if vol == 0:
        raise InvariantViolationError("degenerate empty slab of zero volume")
    return SlabCertificate(
        body=slab,
        n_points_checked=planes.n_points,
        volume=vol,
        implied_lower_bound=vol,
    )


def hyperplane_count_certificate(
    lat: IntegrationLattice,
    points: PointSet,
    spectral: reduction.SpectralResult,
) -> HyperplaneCountCertificate:
    """Certified plane-count lower bound on J_N; see the class docstring.

    `points` are the nodes of `lat` and `spectral` its spectral test; every
    node's plane value is checked to be an integer."""
    if len(points) != lat.n_points:
        raise InputError("point set does not match the lattice node count")
    normal, q, n = spectral.shortest_dual_vector, points.denominator, len(points)
    counts = Counter(points.products(normal))  # by <normal, X> = q * plane value
    if any(v % q for v in counts):
        raise InvariantViolationError(
            f"a node has non-integer product with dual vector {normal}"
        )
    counts = Counter({v // q: c for v, c in counts.items()})
    if sum(counts.values()) != n:
        raise InvariantViolationError("plane counts do not add up to N")
    max_count = max(counts.values())
    d = lat.dim
    lam_sq = spectral.shortest_dual_norm_sq
    # pigeonhole: (max_count/N)^2 * d >= sigma^2, exactly
    if max_count**2 * d * lam_sq < n**2:
        raise InvariantViolationError("pigeonhole bound failed (bug)")
    limit = isqrt(d * lam_sq) + 1
    if len(counts) > limit:
        raise InvariantViolationError(
            f"{len(counts)} occupied planes exceed the spacing limit {limit}"
        )
    best_k = min(k for k, c in counts.items() if c == max_count)
    return HyperplaneCountCertificate(
        normal=tuple(normal),
        plane_counts=tuple(sorted(counts.items())),
        max_count=max_count,
        n_points=n,
        implied_lower_bound=Fraction(max_count, n),
        sigma_sq=spectral.sigma_sq,
        plane_count_limit=limit,
        witness_body=Slab(normal, best_k, best_k, open=False),
    )


# ---------------------------------------------------------------------------
# randomized estimation
# ---------------------------------------------------------------------------

def sigma_upper_bound(d: int, sigma_sq: Fraction, digits: int) -> tuple[Fraction, str]:
    """The upper bound J_N <= d^2 2^d sigma: its exact square (d^2 2^d)^2
    sigma^2, and its square root rendered up to `digits` digits."""
    upper_sq = (d**2 * 2**d) ** 2 * sigma_sq
    hi = directed.sqrt_bounds(upper_sq, digits).hi
    return upper_sq, directed.decimal_str(hi, digits, "up")


@dataclass(frozen=True)
class DiscrepancyEstimate:
    """Best certified lower bound found within an evaluation budget, with
    the two-sided bound it sits in.

    lower_bound is exact and every witness body achieves it exactly;
    upper_bound_sq is the exact (d^2 2^d sigma)^2 from the plane
    certificate's sigma_sq (squared form keeps it rational), and
    upper_bound_decimal its square root rendered up.
    """

    lower_bound: Fraction
    upper_bound_sq: Fraction
    upper_bound_decimal: str
    witnesses: tuple
    evaluations: int
    budget: int
    seed: int
    n_points: int
    dim: int

    def to_dict(self) -> dict:
        return {
            "lower_bound": str(self.lower_bound),
            "upper_bound_sq": str(self.upper_bound_sq),
            "upper_bound_decimal": self.upper_bound_decimal,
            "witnesses": [volume.body_to_dict(b) for b in self.witnesses],
            "evaluations": self.evaluations,
            "budget": self.budget,
            "seed": self.seed,
            "n_points": self.n_points,
            "dim": self.dim,
        }


def _primitive_direction(vec) -> tuple[int, ...] | None:
    """Scale an integer vector to primitive form with positive leading sign."""
    g = gcd(*vec)
    if g == 0:
        return None
    return kernels.canonical_sign([x // g for x in vec])


class _Search:
    """Deterministic search state (internal to the estimator).

    Each scan is a generator of candidates (num, den, make, args): the
    discrepancy count/N - vol as the integers num/den, and the builder
    make(*args) of its body.  Node counts are running counts over the
    sorted distinct values of one Counter.  `evaluate` alone spends the
    budget, so a scan the budget never reaches does no setup work, and
    `record` sees exactly the bodies and values a body-by-body search would
    have recorded.  Per-node passes read the node set's numerator columns:
    one products stream per direction not given its counts, and one column
    per axis."""

    def __init__(self, points: PointSet, seed: int):
        self.points, self.q = points, points.denominator
        self.n = len(points)
        self.dim = points.dim
        self.evaluations = 0
        self.best = Fraction(0)
        self.witnesses: dict[ConvexBody, None] = {}  # insertion-ordered ties
        self.rng = random.Random(seed)
        self.scanned: set[tuple[int, ...]] = set()
        self._axis_interior: list[Counter] | None = None
        self._axis_pools: dict[int, list[int]] = {}

    def record(self, body: ConvexBody, delta: Fraction):
        magnitude = -delta if delta < 0 else delta
        if magnitude > self.best:
            self.best = magnitude
            self.witnesses = {body: None}
        elif magnitude == self.best and magnitude > 0:
            self.witnesses[body] = None  # a repeated tie keeps its place

    def evaluate(self, candidates, budget: int) -> None:
        """Evaluate the first `budget` candidates of the stream: a candidate
        with discrepancy num/den (den > 0) goes to `record` when it beats
        the incumbent, or ties it at a nonzero value."""
        best_num, best_den = self.best.numerator, self.best.denominator
        for num, den, make, args in islice(candidates, budget):
            self.evaluations += 1
            if num and abs(num) * best_den >= best_num * den:
                self.record(make(*args), Fraction(num, den))
                best_num, best_den = self.best.numerator, self.best.denominator

    # -- normal-direction scans -------------------------------------------

    def _halfspace(self, direction, v: int, closed: bool) -> Halfspace:
        return Halfspace(direction, Fraction(v, self.q), closed=closed)

    def _slab(self, direction, lo: int, hi: int) -> Slab:
        return Slab(direction, Fraction(lo, self.q), Fraction(hi, self.q), open=True)

    def scan_normal(self, direction: tuple[int, ...], counts: Counter | None = None):
        """The halfspaces and gap slabs of one normal direction at all
        point-induced critical offsets, from `counts` of <direction, X> over
        the nodes when given, else from a products pass.

        A candidate's discrepancy is (count * den - N * num(v)) / (N * den),
        with num(v) / den its volume from one CubeSection per direction; a
        slab's volume is num(hi) - num(lo) over the same den.  A gap slab
        lies between adjacent node values (or a node value and an end of
        the cube), so it holds no node."""
        if direction in self.scanned:
            return
        self.scanned.add(direction)
        if counts is None:
            counts = Counter(self.points.products(direction))
        unique = sorted(counts)
        n = self.n
        section = volume.CubeSection(direction, self.q)
        den = section.den
        total = n * den
        halfspace, slab = self._halfspace, self._slab
        nums = []
        below = 0
        for v in unique:
            num = section.numerator(v)
            nums.append(num)
            yield (below + counts[v]) * den - n * num, total, halfspace, (direction, v, True)
            yield below * den - n * num, total, halfspace, (direction, v, False)
            below += counts[v]
        previous, low = -section.shift, 0
        for v, high in zip(unique + [section.top - section.shift], nums + [den]):
            if v > previous:
                yield -n * (high - low), total, slab, (direction, previous, v)
                previous, low = v, high

    # -- axis boxes ---------------------------------------------------------

    def _interior_projections(self) -> list[Counter]:
        """Per axis, a Counter of the numerators along it of the nodes
        interior (0 < X_k < q) in every other coordinate: the whole column,
        less the nodes on the cube's boundary in some other axis."""
        if self._axis_interior is None:
            q, columns = self.q, self.points.columns
            edges = [{i for i, x in enumerate(col) if not 0 < x < q} for col in columns]
            self._axis_interior = []
            for k, col in enumerate(columns):
                others = set().union(*edges[:k], *edges[k + 1 :])
                self._axis_interior.append(Counter(col) - Counter(col[i] for i in others))
        return self._axis_interior

    def _box(self, axis: int, v: int, below: bool) -> AxisBox:
        """The open box of the cube below (or above) the cut x_axis = v/q."""
        lo, hi = [Fraction(0)] * self.dim, [Fraction(1)] * self.dim
        (hi if below else lo)[axis] = Fraction(v, self.q)
        return AxisBox(tuple(lo), tuple(hi), open=True)

    def scan_axis_boxes(self, axis: int):
        """Open boxes spanning the cube except along one axis, cut at every
        point-induced critical value v in (0, q].

        The box cut at v / q has volume v / q (or (q - v) / q), so its
        discrepancy is (count * q - N * v) / (N * q); the counts run over
        the projections in (0, v) and in (v, q)."""
        counts = self._interior_projections()[axis]
        n, q = self.n, self.q
        total = n * q
        box = self._box
        below, above = 0, sum(counts.values()) - counts[0]
        for v in self._pool(axis)[1:]:
            yield below * q - n * v, total, box, (axis, v, True)
            if v < q:
                above -= counts[v]
                yield above * q - n * (q - v), total, box, (axis, v, False)
                below += counts[v]

    def _pool(self, axis: int) -> list[int]:
        """The sorted numerators 0, q and every node's along `axis`."""
        if axis not in self._axis_pools:
            self._axis_pools[axis] = sorted({0, self.q, *self.points.columns[axis]})
        return self._axis_pools[axis]

    def random_box(self):
        """One seeded random box with corners among the pools, as a
        candidate whose discrepancy is its literal local_discrepancy."""
        lo = []
        hi = []
        for axis in range(self.dim):
            pool = self._pool(axis)
            a = self.rng.choice(pool)
            b = self.rng.choice(pool)
            if a > b:
                a, b = b, a
            lo.append(Fraction(a, self.q))
            hi.append(Fraction(b, self.q))
        is_open = self.rng.random() < 0.5
        if is_open and any(a == b for a, b in zip(lo, hi)):
            is_open = False
        args = (tuple(lo), tuple(hi), is_open)
        delta = volume.local_discrepancy(self.points, AxisBox(*args))
        return delta.numerator, delta.denominator, AxisBox, args

    def random_normal(self) -> tuple[int, ...] | None:
        raw = [
            self.rng.randint(-_RANDOM_NORMAL_RANGE, _RANDOM_NORMAL_RANGE)
            for _ in range(self.dim)
        ]
        return _primitive_direction(raw)


def _candidates(search: _Search, normals: list[tuple[int, ...]], counts: Counter):
    """The search's candidate stream: the halfspaces and slabs of `normals`
    in order (the first from its node `counts`), the axis-box families, then
    seeded random normals and random boxes until 2000 were zero or scanned."""
    for direction in normals:
        yield from search.scan_normal(direction, counts)
        counts = None
    for axis in range(search.dim):
        yield from search.scan_axis_boxes(axis)
    duds = 0
    while duds < 2000:
        direction = search.random_normal()
        if direction is None or direction in search.scanned:
            duds += 1
        else:
            yield from search.scan_normal(direction)
        yield search.random_box()


def estimate_isotropic_discrepancy(
    points: PointSet,
    certificates: tuple[SlabCertificate, HyperplaneCountCertificate],
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    digits: int = directed.DEFAULT_DIGITS,
) -> DiscrepancyEstimate:
    """Search convex bodies for the largest exact local discrepancy.

    `certificates` is the (slab, planes) pair built for this node set.  The
    search is deterministic given (points, certificates, budget, seed).  It
    always starts with the mandatory candidates: both certificate witness
    bodies enter budget-free at their claimed bounds, and the planes' normal
    heads the normal list, scanned from the planes' counts
    (InputError if those are not counts of N nodes).  The candidate stream then
    runs the halfspaces and slabs of those normals and the axis directions,
    the axis-box families at point-induced critical offsets, and finally
    seeded random integer normals in [-10, 10]^d and random boxes, until
    2000 random normals were zero or already scanned.  The search evaluates
    the first `budget` candidates of that stream, each one budget unit.
    Every distinct (body, claimed value) pair, the certificate bodies at
    their bounds and the winning witnesses at the best value, is then
    re-verified with one literal pass over the point set
    (InvariantViolationError on a mismatch).  The sigma upper bound
    d^2 2^d sigma(L) is attached in exact squared form, from the planes'
    sigma_sq.
    """
    if budget < 0:
        raise InputError("budget must be nonnegative")
    n, d = len(points), points.dim
    if n == 0:
        raise InputError("empty point set")
    slab_cert, plane_cert = certificates
    if plane_cert.n_points != n or sum(c for _, c in plane_cert.plane_counts) != n:
        raise InputError("the certificates were not built for this node set")
    search = _Search(points, seed)
    certified = [
        (slab_cert.body, slab_cert.implied_lower_bound),
        (plane_cert.witness_body, plane_cert.implied_lower_bound),
    ]
    for body, bound in certified:
        search.record(body, bound)
    upper_sq, upper_decimal = sigma_upper_bound(d, plane_cert.sigma_sq, digits)

    # the planes' normal h is a nonzero shortest dual vector, then the axes;
    # h = s * (h/s) with s = +-gcd(h), so <h/s, X> = k q / s on the plane k
    h = plane_cert.normal
    normals = [_primitive_direction(h)]
    s = next(a // b for a, b in zip(h, normals[0]) if b)
    counts = Counter({k * search.q // s: c for k, c in plane_cert.plane_counts})
    normals += [tuple(int(k == axis) for k in range(d)) for axis in range(d)]

    search.evaluate(_candidates(search, normals, counts), budget)

    # each distinct (body, claimed value) pair is counted once over all N
    # nodes: a certificate body that is also a witness claims the same value
    claims = certified + [(body, search.best) for body in search.witnesses]
    for body, value in dict.fromkeys(claims):
        if abs(volume.local_discrepancy(points, body)) != value:
            raise InvariantViolationError(
                "claimed bound disagrees with literal re-verification"
            )
    witnesses = tuple(
        sorted(search.witnesses, key=lambda b: json.dumps(volume.body_to_dict(b)))
    )
    return DiscrepancyEstimate(
        lower_bound=search.best,
        upper_bound_sq=upper_sq,
        upper_bound_decimal=upper_decimal,
        witnesses=witnesses,
        evaluations=search.evaluations,
        budget=budget,
        seed=seed,
        n_points=n,
        dim=d,
    )
