"""Exact volumes of halfspaces, slabs, and boxes inside the unit cube."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latdisc import lattice, volume
from latdisc.errors import InputError
from latdisc.volume import AxisBox, Halfspace, Slab

F = Fraction


class TestHalfspaceCubeVolume:
    @pytest.mark.parametrize(
        "normal, offset, expected",
        [
            ((1, 1), 1, F(1, 2)),  # triangle below the anti-diagonal
            ((1, 1), F(1, 2), F(1, 8)),
            ((1, 1), F(3, 2), F(7, 8)),
            ((1, 1), 2, F(1)),
            ((1, 1), 0, F(0)),
            ((1, 0), F(1, 3), F(1, 3)),
            ((2, 0), F(1, 3), F(1, 6)),
            ((1, -1), 0, F(1, 2)),  # x <= y
            ((-1, -1), -1, F(1, 2)),  # mirror of the first case
            ((1, 1, 1), 1, F(1, 6)),  # corner simplex
            ((1, 1, 1), 2, F(5, 6)),
            ((1, 2), 1, F(1, 4)),
            ((3,), F(1, 2), F(1, 6)),  # 1d: x <= 1/6
        ],
    )
    def test_frozen_values(self, normal, offset, expected):
        assert volume.halfspace_cube_volume(normal, offset) == expected

    def test_zero_normal_rejected(self):
        with pytest.raises(InputError):
            volume.halfspace_cube_volume((0, 0), 1)

    def test_matches_grid_count(self):
        # Riemann-style check on a fine rational grid for one skew halfspace
        normal, offset = (2, -3), F(1, 4)
        m = 60
        count = sum(
            1
            for i in range(m)
            for j in range(m)
            if 2 * F(2 * i + 1, 2 * m) - 3 * F(2 * j + 1, 2 * m) <= offset
        )
        vol = volume.halfspace_cube_volume(normal, offset)
        assert abs(F(count, m * m) - vol) < F(4, m)

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(
            lambda a: any(x != 0 for x in a)
        ),
        st.fractions(min_value=-6, max_value=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_complement_identity(self, normal, offset):
        # vol{<a,x> <= t} + vol{<-a,x> <= -t} = 1 (the boundary is null)
        v1 = volume.halfspace_cube_volume(normal, offset)
        v2 = volume.halfspace_cube_volume([-x for x in normal], -offset)
        assert v1 + v2 == 1

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(
            lambda a: any(x != 0 for x in a)
        ),
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=0, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_offset(self, normal, offset, bump):
        assert volume.halfspace_cube_volume(normal, offset) <= (
            volume.halfspace_cube_volume(normal, offset + bump)
        )


def _random_entry(rng):
    """A normal coordinate: zero, a small integer, or a proper Fraction."""
    kind = rng.randrange(3)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.choice((-1, 1)) * rng.randint(1, 6)
    return F(rng.randint(-9, 9), rng.randint(2, 7))


class TestIntegerKernelMatchesReference:
    """The integer vertex-sum kernel against the Fraction bit-mask loop of
    oracles.halfspace_cube_volume, which it replaced in the package."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_random_normals_and_offsets(self, d):
        rng = random.Random(1000 + d)
        for _ in range(30):
            normal = [_random_entry(rng) for _ in range(d)]
            if all(x == 0 for x in normal):
                normal[rng.randrange(d)] = F(-3, 2)
            lo = sum(min(a, 0) for a in normal)
            hi = sum(max(a, 0) for a in normal)
            vertices = list(itertools.product((0, 1), repeat=d))
            if len(vertices) > 8:
                vertices = rng.sample(vertices, 8)
            offsets = [
                lo - F(rng.randint(1, 9), rng.randint(1, 4)),  # below the cube
                hi + F(rng.randint(1, 9), rng.randint(1, 4)),  # above it
                lo + (hi - lo) * F(rng.randint(1, 99), 100),
                *(sum(a * b for a, b in zip(normal, v)) for v in vertices),
            ]
            for t in offsets:
                assert volume.halfspace_cube_volume(normal, t) == (
                    oracles.halfspace_cube_volume(normal, t)
                ), (normal, t)

    @pytest.mark.parametrize("seed", range(4))
    def test_section_numerators(self, seed):
        # the search reads CubeSection directly: num(v) / den at every
        # integer offset v / q, across and beyond the cube
        rng = random.Random(seed)
        d = rng.randint(1, 5)
        direction = [rng.randint(-4, 4) for _ in range(d)]
        direction[0] = direction[0] or 1
        q = rng.randint(1, 7)
        section = volume.CubeSection(direction, q)
        lo = q * sum(min(a, 0) for a in direction)
        hi = q * sum(max(a, 0) for a in direction)
        for v in range(lo - 2, hi + 3):
            assert F(section.numerator(v), section.den) == (
                oracles.halfspace_cube_volume(direction, F(v, q))
            )

    def test_rejects_zero_normal_and_too_many_axes(self):
        limit = volume._SUBSET_LIMIT
        with pytest.raises(InputError):
            volume.halfspace_cube_volume((0, 0, 0), 1)
        with pytest.raises(InputError):
            volume.CubeSection((0, 0), 5)
        with pytest.raises(InputError):
            volume.halfspace_cube_volume((1,) * (limit + 1), 0)
        with pytest.raises(InputError):
            volume.halfspace_cube_volume((0,) * 5 + (F(-1, 3),) * (limit + 1), 1)
        # zero coordinates are not active axes
        assert volume.halfspace_cube_volume((0,) * 5 + (1,) * limit, 0) == 0


class TestBodyValidation:
    def test_slab_needs_ordered_bounds(self):
        with pytest.raises(InputError):
            Slab((1, 0), 1, 0)

    def test_open_slab_needs_width(self):
        with pytest.raises(InputError):
            Slab((1, 0), 1, 1, open=True)
        assert volume.body_volume(Slab((1, 0), 1, 1, open=False)) == 0

    def test_zero_normal_rejected(self):
        with pytest.raises(InputError):
            Slab((0, 0), 0, 1)
        with pytest.raises(InputError):
            Halfspace((0, 0), 1)

    def test_box_must_sit_in_cube(self):
        with pytest.raises(InputError):
            AxisBox((0, 0), (F(1, 2), 2))
        with pytest.raises(InputError):
            AxisBox((F(3, 4),), (F(1, 4),))
        with pytest.raises(InputError):
            AxisBox((0, 0), (1,))

    def test_string_fractions_accepted(self):
        s = Slab(("1", "-2"), "-1/2", "1/2")
        assert s.lo == F(-1, 2)
        assert s.normal == (1, -2)


class TestBodyVolume:
    def test_slab_between_diagonal_planes(self):
        assert volume.body_volume(Slab((1, 1), F(1, 2), 1)) == F(3, 8)

    def test_slab_volume_ignores_openness(self):
        a = volume.body_volume(Slab((1, -2), -1, 0, open=True))
        b = volume.body_volume(Slab((1, -2), -1, 0, open=False))
        assert a == b == F(1, 2)

    def test_box_volume(self):
        assert volume.body_volume(
            AxisBox((0, F(1, 4)), (F(1, 2), F(3, 4)))
        ) == F(1, 4)

    def test_degenerate_box(self):
        assert volume.body_volume(AxisBox((F(1, 2),), (F(1, 2),), open=False)) == 0

    @pytest.mark.parametrize("d", range(1, 7))
    def test_slabs_beside_the_center_plane_have_equal_volume(self, d):
        # x -> 1 - x maps the slab just below a plane through the cube's
        # center onto the slab just above it, which slab_certificate takes
        # without comparing the two
        rng = random.Random(3000 + d)
        checked = 0
        while checked < 200:
            normal = [rng.randint(-60, 60) for _ in range(d)]
            if sum(normal) % 2 or not any(normal):
                continue
            k = sum(normal) // 2
            assert volume.body_volume(Slab(normal, k - 1, k)) == (
                volume.body_volume(Slab(normal, k, k + 1))
            ), normal
            checked += 1


class TestContainsAndDiscrepancy:
    def test_open_vs_closed_boundary_points(self):
        plane = F(1, 2)
        assert volume.body_contains(Halfspace((1, 0), plane), (plane, 0))
        assert not volume.body_contains(
            Halfspace((1, 0), plane, closed=False), (plane, 0)
        )
        s_open = Slab((1, 0), 0, plane)
        s_closed = Slab((1, 0), 0, plane, open=False)
        assert not volume.body_contains(s_open, (plane, 0))
        assert volume.body_contains(s_closed, (plane, 0))
        box_open = AxisBox((0, 0), (plane, plane))
        box_closed = AxisBox((0, 0), (plane, plane), open=False)
        assert not volume.body_contains(box_open, (0, 0))
        assert volume.body_contains(box_closed, (plane, 0))

    def test_local_discrepancy_known_rule(self):
        pts = lattice.enumerate_points(lattice.from_rank1(5, (1, 3)))
        # the open slab -1 < <(1,-2), x> < 0 contains no node but has volume 1/2
        body = Slab((1, -2), -1, 0)
        assert volume.local_discrepancy(pts, body) == -F(1, 2)
        # the full cube as a closed box: all 5 nodes, volume 1
        cube = AxisBox((0, 0), (1, 1), open=False)
        assert volume.local_discrepancy(pts, cube) == 0

    def test_empty_point_set_rejected(self):
        empty = oracles.point_set([], 2)
        assert len(empty) == 0 and oracles.nodes(empty) == []
        with pytest.raises(InputError):
            volume.local_discrepancy(empty, Halfspace((1, 0), 1))

    @pytest.mark.parametrize(
        "body",
        [
            Halfspace((1, 2, 3), F(1, 2)),
            Halfspace((1,), F(1, 2)),
            Slab((1, 2, 3), 0, F(1, 2)),
            Slab((1,), 0, F(1, 2)),
            AxisBox((0,), (F(1, 2),)),
            AxisBox((0, 0, 0), (1, 1, 1)),
        ],
    )
    def test_body_of_wrong_dimension_rejected(self, body):
        # the 8 nodes of the 2d Fibonacci rule (1, 5) / 8
        pts = lattice.enumerate_points(lattice.from_rank1(8, (1, 5)))
        with pytest.raises(InputError, match="dimension"):
            volume.count_inside(pts, body)
        with pytest.raises(InputError, match="dimension"):
            volume.local_discrepancy(pts, body)
        for point in [(0, 0), ("3/4", "1/4")]:
            with pytest.raises(InputError, match="dimension"):
                volume.body_contains(body, point)

    @given(
        st.integers(2, 30),
        st.lists(st.integers(0, 29), min_size=2, max_size=2),
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value=0, max_value=1),
    )
    @settings(max_examples=80, deadline=None)
    def test_box_discrepancy_matches_direct_count(self, n, g, a, b):
        lo, hi = min(a, b), max(a, b)
        pts = lattice.enumerate_points(lattice.from_rank1(n, g))
        box = AxisBox((lo, 0), (hi, 1), open=False)
        manual = sum(1 for p in oracles.nodes(pts) if lo <= p[0] <= hi)
        assert volume.local_discrepancy(pts, box) == (
            F(manual, len(pts)) - (hi - lo)
        )


class TestDictRoundTrip:
    BODIES = [
        Halfspace((1, -2), F(3, 7)),
        Halfspace((1,), F(1, 2), closed=False),
        Slab((1, -2), -1, 0),
        Slab((0, 3), F(1, 3), F(1, 3), open=False),
        AxisBox((0, F(1, 4)), (F(1, 2), F(3, 4))),
        AxisBox((0,), (1,), open=False),
    ]

    @staticmethod
    def _read_back(data):
        """The body a body_to_dict description names, rebuilt from its
        exact 'p/q' strings."""
        if data["shape"] == "halfspace":
            return Halfspace(data["normal"], data["offset"], data["closed"])
        if data["shape"] == "slab":
            return Slab(data["normal"], data["lo"], data["hi"], data["open"])
        return AxisBox(data["lo"], data["hi"], data["open"])

    @pytest.mark.parametrize("body", BODIES, ids=lambda b: type(b).__name__)
    def test_round_trip(self, body):
        data = volume.body_to_dict(body)
        again = self._read_back(data)
        assert again == body
        assert volume.body_to_dict(again) == data

    def test_dict_is_json_safe(self):
        import json

        for body in self.BODIES:
            data = volume.body_to_dict(body)
            assert json.loads(json.dumps(data, sort_keys=True)) == data

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            volume.body_to_dict(object())


class TestCutPolytopeCrossCheck:
    def test_simplex_slices_sum_to_one(self):
        # partition of the cube by integer levels of <(1,1,1), x>
        total = F(0)
        for k in range(3):
            total += volume.body_volume(Slab((1, 1, 1), k, k + 1))
        assert total == 1

    def test_eulerian_numbers(self):
        # slab volumes of unit width under sum(x) are Eulerian / d!
        for d, expected in [(2, [F(1, 2), F(1, 2)]), (3, [F(1, 6), F(4, 6), F(1, 6)]), (4, [F(1, 24), F(11, 24), F(11, 24), F(1, 24)])]:
            got = [
                volume.body_volume(Slab((1,) * d, k, k + 1)) for k in range(d)
            ]
            assert got == expected

    def test_brute_subset_sum_agreement(self):
        # compare against direct inclusion-exclusion computed independently
        normal, offset = (1, 2, 3), F(7, 2)
        total = F(0)
        coeffs = [1, 2, 3]
        for r in range(4):
            for subset in itertools.combinations(range(3), r):
                s = offset - sum(coeffs[i] for i in subset)
                if s > 0:
                    total += (-1) ** r * s**3
        expected = total / (6 * 1 * 2 * 3)
        assert volume.halfspace_cube_volume(normal, offset) == expected
