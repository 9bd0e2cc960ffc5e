"""Certified lower bounds and the budgeted discrepancy search."""

import dataclasses
import json
from collections import Counter
from fractions import Fraction

import pytest

import oracles
from latdisc import constructions, discrepancy, lattice, reduction, volume
from latdisc.errors import InputError, InvariantViolationError

F = Fraction


def _rule(n, g):
    lat = lattice.from_rank1(n, g)
    return lat, lattice.enumerate_points(lat)


def _facts(lat):
    """The arguments the certificates take: lattice, nodes, spectral test."""
    return lat, lattice.enumerate_points(lat), reduction.spectral_test(lat)


def _certificates(lat, pts):
    """The (slab, planes) pair the estimator takes, built on `pts`."""
    planes = discrepancy.hyperplane_count_certificate(
        lat, pts, reduction.spectral_test(lat)
    )
    return discrepancy.slab_certificate(planes), planes


def _slab(lat):
    """The slab certificate of the lattice's own nodes."""
    return _certificates(lat, lattice.enumerate_points(lat))[0]


def _replace_node(pts, point):
    """A point set of the same size with the first node replaced by point."""
    nodes = oracles.nodes(pts)
    nodes[0] = point
    return oracles.point_set(nodes, pts.dim)


def _off_family_set(lat, pts):
    # shift one node along x1 by 1/(2N): <h, x> moves by h1/(2N), not an integer
    h = reduction.spectral_test(lat).shortest_dual_vector
    assert h[0] != 0 and h[0] % (2 * len(pts)) != 0
    x = oracles.nodes(pts)[0]
    return _replace_node(pts, (x[0] + F(1, 2 * len(pts)), *x[1:]))


def _in_slab_set(lat, pts):
    slab = _certificates(lat, pts)[0].body
    m = 4 * len(pts)
    point = next(
        (F(i, m), F(j, m))
        for i in range(m)
        for j in range(m)
        if volume.body_contains(slab, (F(i, m), F(j, m)))
    )
    return _replace_node(pts, point)


class TestLiteralRecheck:
    """The certificates re-check every node, so a bad node set is caught."""

    BAD_SETS = [_off_family_set, _in_slab_set]

    @pytest.mark.parametrize("bad_set", BAD_SETS, ids=lambda f: f.__name__)
    def test_plane_count_certificate_catches_bad_node(self, bad_set):
        lat, pts = _rule(21, (1, 13))
        bad = bad_set(lat, pts)
        with pytest.raises(InvariantViolationError):
            discrepancy.hyperplane_count_certificate(
                lat, bad, reduction.spectral_test(lat)
            )

    def test_slab_certificate_catches_node_in_empty_slab(self):
        lat, pts = _rule(21, (1, 13))
        bad = _in_slab_set(lat, pts)
        with pytest.raises(InvariantViolationError):
            # the node inside the slab is off the planes the slab is read from
            discrepancy.slab_certificate(
                discrepancy.hyperplane_count_certificate(
                    lat, bad, reduction.spectral_test(lat)
                )
            )
        # certificates built on the good nodes: the estimator's own literal
        # re-check against the bad nodes must raise
        certificates = _certificates(lat, pts)
        with pytest.raises(InvariantViolationError):
            discrepancy.estimate_isotropic_discrepancy(bad, certificates, budget=10)

    def test_good_node_set_passes(self):
        lat, pts = _rule(21, (1, 13))
        same = oracles.point_set(oracles.nodes(pts), 2)
        spectral = reduction.spectral_test(lat)
        discrepancy.slab_certificate(
            discrepancy.hyperplane_count_certificate(lat, same, spectral)
        )

    def test_slab_certificate_rejects_occupied_plane_inside(self):
        # a forged plane count with an occupied plane strictly inside the slab
        lat, pts = _rule(21, (1, 13))
        planes = _certificates(lat, pts)[1]
        k = sum(planes.normal) // 2
        forged = dataclasses.replace(
            planes, plane_counts=planes.plane_counts + ((k + F(1, 2), 1),)
        )
        with pytest.raises(InvariantViolationError):
            discrepancy.slab_certificate(forged)

    @pytest.mark.parametrize("which", [0, 1], ids=["slab", "planes"])
    def test_estimator_rejects_forged_certificate_bound(self, which):
        # a bound forged above every true discrepancy: the forged body wins
        # the search, so its claim and the witness's are one pair, still
        # counted against every node before anything is returned
        lat, pts = _rule(21, (1, 13))
        certificates = list(_certificates(lat, pts))
        cert = certificates[which]
        certificates[which] = dataclasses.replace(
            cert, implied_lower_bound=cert.implied_lower_bound + 1
        )
        with pytest.raises(InvariantViolationError):
            discrepancy.estimate_isotropic_discrepancy(
                pts, tuple(certificates), budget=100
            )


class TestSlabCertificate:
    def test_frozen_small_rule(self):
        lat, pts = _rule(5, (1, 3))
        cert = _slab(lat)
        assert cert.body == volume.Slab((1, -2), -1, 0)
        assert cert.volume == F(1, 2)
        assert cert.implied_lower_bound == F(1, 2)
        assert cert.n_points_checked == 5
        # literal emptiness against the nodes
        assert not any(volume.body_contains(cert.body, p) for p in oracles.nodes(pts))

    def test_integer_lattice_gets_full_gap(self):
        z2 = lattice.from_basis([[1, 0], [0, 1]])
        cert = _slab(z2)
        assert cert.volume == 1
        assert cert.implied_lower_bound == 1

    def test_halved_axis_lattice_exposes_coordinate_gap(self):
        # all nodes lie on y = 0, so the whole open strip above is empty
        lat = lattice.from_basis([[F(1, 2), 0], [0, 1]])
        cert = _slab(lat)
        assert cert.body == volume.Slab((0, 1), 0, 1)
        assert cert.implied_lower_bound == 1

    def test_halved_grid(self):
        lat = lattice.from_basis([[F(1, 2), 0], [0, F(1, 2)]])
        cert = _slab(lat)
        assert cert.volume == F(1, 2)
        assert cert.implied_lower_bound == F(1, 2)
        pts = lattice.enumerate_points(lat)
        assert not any(volume.body_contains(cert.body, p) for p in oracles.nodes(pts))

    def test_dict_round_trips_body(self):
        lat, _ = _rule(5, (1, 3))
        data = _slab(lat).to_dict()
        assert data["certificate"] == "empty_slab"
        assert data["body"] == volume.body_to_dict(volume.Slab((1, -2), -1, 0))
        json.dumps(data)  # JSON-safe


class TestHyperplaneCountCertificate:
    def test_frozen_small_rule(self):
        lat, _ = _rule(5, (1, 3))
        cert = discrepancy.hyperplane_count_certificate(*_facts(lat))
        assert cert.normal == (1, -2)
        assert dict(cert.plane_counts) == {-1: 2, 0: 3}
        assert cert.max_count == 3
        assert cert.implied_lower_bound == F(3, 5)
        assert cert.plane_count_limit == 4
        assert cert.witness_body == volume.Slab((1, -2), 0, 0, open=False)
        assert cert.sigma_sq == F(1, 5)

    def test_counts_match_direct_tally(self):
        lat, pts = _rule(13, (1, 5))
        cert = discrepancy.hyperplane_count_certificate(*_facts(lat))
        tally: dict = {}
        for p in oracles.nodes(pts):
            v = sum(h * x for h, x in zip(cert.normal, p))
            assert F(v).denominator == 1
            tally[int(v)] = tally.get(int(v), 0) + 1
        assert dict(cert.plane_counts) == tally
        assert cert.max_count == max(tally.values())

    def test_pigeonhole_count_bound(self):
        # some plane must carry at least N / #planes points
        for n, g in [(5, (1, 3)), (13, (1, 5)), (8, (1, 3)), (21, (1, 13))]:
            lat, _ = _rule(n, g)
            cert = discrepancy.hyperplane_count_certificate(*_facts(lat))
            planes = len(cert.plane_counts)
            assert planes <= cert.plane_count_limit
            assert cert.max_count * cert.plane_count_limit >= n
            assert sum(c for _, c in cert.plane_counts) == n

    def test_implied_bound_is_max_count_over_n(self):
        lat, _ = _rule(21, (1, 13))
        cert = discrepancy.hyperplane_count_certificate(*_facts(lat))
        assert cert.implied_lower_bound == F(cert.max_count, 21)
        assert volume.body_volume(cert.witness_body) == 0

    def test_dict_is_json_safe(self):
        lat, _ = _rule(5, (1, 3))
        json.dumps(discrepancy.hyperplane_count_certificate(*_facts(lat)).to_dict())


class TestEstimate:
    def test_finds_certificate_bound_on_small_rule(self):
        lat, pts = _rule(5, (1, 3))
        est = discrepancy.estimate_isotropic_discrepancy(
            pts, budget=500, seed=0, certificates=_certificates(lat, pts)
        )
        assert est.lower_bound == F(3, 5)
        assert est.upper_bound_sq == F(256, 5)
        assert est.n_points == 5 and est.dim == 2

    def test_byte_identical_reruns(self):
        lat, pts = _rule(13, (1, 5))
        kwargs = dict(budget=800, seed=3, certificates=_certificates(lat, pts))
        a = discrepancy.estimate_isotropic_discrepancy(pts, **kwargs)
        b = discrepancy.estimate_isotropic_discrepancy(pts, **kwargs)
        assert json.dumps(a.to_dict(), sort_keys=True) == (
            json.dumps(b.to_dict(), sort_keys=True)
        )

    def test_budget_is_recorded_and_respected(self):
        lat, pts = _rule(13, (1, 5))
        est = discrepancy.estimate_isotropic_discrepancy(
            pts, budget=200, seed=0, certificates=_certificates(lat, pts)
        )
        assert est.budget == 200
        assert est.evaluations <= 200

    def test_witnesses_attain_the_bound(self):
        lat, pts = _rule(13, (1, 5))
        est = discrepancy.estimate_isotropic_discrepancy(
            pts, budget=600, seed=1, certificates=_certificates(lat, pts)
        )
        assert est.witnesses
        for body in est.witnesses:
            delta = volume.local_discrepancy(pts, body)
            assert abs(delta) == est.lower_bound

    def test_lower_bound_below_upper_bound(self):
        lat, pts = _rule(34, (1, 21))
        est = discrepancy.estimate_isotropic_discrepancy(
            pts, budget=400, seed=0, certificates=_certificates(lat, pts)
        )
        assert est.lower_bound**2 <= est.upper_bound_sq

    def test_seed_changes_search_not_soundness(self):
        lat, pts = _rule(21, (1, 13))
        bounds = set()
        for seed in (0, 1, 2):
            est = discrepancy.estimate_isotropic_discrepancy(
                pts, budget=300, seed=seed, certificates=_certificates(lat, pts)
            )
            for body in est.witnesses:
                assert abs(volume.local_discrepancy(pts, body)) == est.lower_bound
            bounds.add(est.lower_bound)
        # certificates anchor every run to at least the pigeonhole bound
        cert = discrepancy.hyperplane_count_certificate(*_facts(lat))
        assert all(b >= cert.implied_lower_bound for b in bounds)

    def test_certificates_do_not_consume_budget(self):
        lat, pts = _rule(5, (1, 3))
        est = discrepancy.estimate_isotropic_discrepancy(
            pts, budget=0, seed=0, certificates=_certificates(lat, pts)
        )
        assert est.lower_bound >= F(1, 2)
        assert est.evaluations == 0

    def test_empty_points_rejected(self):
        lat, pts = _rule(5, (1, 3))
        with pytest.raises(InputError):
            discrepancy.estimate_isotropic_discrepancy(
                oracles.point_set([], 2), _certificates(lat, pts), budget=10, seed=0
            )

    def test_certificates_of_another_node_set_rejected(self):
        # the first scan trusts the plane counts, so they must count these N
        lat, pts = _rule(21, (1, 13))
        other = _rule(34, (1, 21))
        with pytest.raises(InputError):
            discrepancy.estimate_isotropic_discrepancy(
                pts, _certificates(*other), budget=10
            )
        slab, planes = _certificates(lat, pts)
        short = dataclasses.replace(planes, plane_counts=planes.plane_counts[1:])
        with pytest.raises(InputError):
            discrepancy.estimate_isotropic_discrepancy(pts, (slab, short), budget=10)

    def test_dict_shape(self):
        lat, pts = _rule(5, (1, 3))
        est = discrepancy.estimate_isotropic_discrepancy(
            pts, budget=100, seed=0, certificates=_certificates(lat, pts)
        )
        data = est.to_dict()
        assert set(data) == {
            "lower_bound",
            "upper_bound_sq",
            "upper_bound_decimal",
            "witnesses",
            "evaluations",
            "budget",
            "seed",
            "n_points",
            "dim",
        }
        assert est.witnesses
        assert data["witnesses"] == [volume.body_to_dict(w) for w in est.witnesses]


class TestSeededFirstScan:
    """The scan of the planes' primitive normal h/g starts from the plane
    certificate's counts: the same counts, and so the same candidates, as a
    fresh products pass along h/g, whether or not h is primitive."""

    LATTICES = {
        "fibonacci13": lambda: constructions.fibonacci_lattice(13),  # (8, -13)
        "fibonacci12": lambda: constructions.fibonacci_lattice(12),  # (8, 8)
        "scaled4_d3": lambda: constructions.scaled_integer_lattice(4, 3),
        "bad5_d3": lambda: constructions.bad_lattice(5, 3),
    }

    @pytest.mark.parametrize("name", sorted(LATTICES))
    def test_seeded_scan_equals_fresh_scan(self, monkeypatch, name):
        lat = self.LATTICES[name]()
        pts = lattice.enumerate_points(lat)
        certificates = _certificates(lat, pts)
        scan = discrepancy._Search.scan_normal
        seeded = []

        def spy(self, direction, counts=None):
            if counts is not None:
                seeded.append((direction, counts))
            return scan(self, direction, counts)

        monkeypatch.setattr(discrepancy._Search, "scan_normal", spy)
        discrepancy.estimate_isotropic_discrepancy(pts, certificates, budget=1)
        ((direction, counts),) = seeded
        assert direction == discrepancy._primitive_direction(certificates[1].normal)
        assert counts == Counter(pts.products(direction))

        def candidates(counts):
            stream = scan(discrepancy._Search(pts, 0), direction, counts)
            return [(num, den, make.__name__, args) for num, den, make, args in stream]

        assert candidates(counts) == candidates(None)


class TestIntegerSearchMatchesReference:
    """The integer scans against oracles.FractionSearch, which builds every
    candidate body and its Fraction discrepancy: the same incumbent, the
    same witnesses in the same order and the same evaluation count, for
    budgets that run out inside the halfspace, slab and axis-box loops or
    just as the slab, axis-box and random-box phases begin, and the same
    sequence of changes to the incumbent and its ties on the way.  The
    reference recounts the first normal's nodes where the estimator starts
    from the plane counts."""

    LATTICES = {
        "fibonacci55": lambda: lattice.from_rank1(55, (1, 34)),
        "korobov31_d3": lambda: constructions.korobov_lattice(31, 12, 3),
        "scaled6_d3": lambda: constructions.scaled_integer_lattice(6, 3),
        "bad7_d3": lambda: constructions.bad_lattice(7, 3),
        "rank1_gcd2_d3": lambda: lattice.from_rank1(60, (4, 10, 6)),
        "rank1_n17_d8": lambda: lattice.from_rank1(17, (1, 2, 4, 8, 16, 15, 13, 9)),
    }
    FULL_BUDGET = 800
    SHIPPED = discrepancy._Search  # taken before any test patches the name

    @staticmethod
    def _search(search_class, monkeypatch, pts, budget, seed, certificates):
        """Run the estimator on `search_class`, or with certificates None
        the candidate stream alone; return its search state, with `changes`
        listing every (body, best) that changed the incumbent or the
        witness list, in order."""
        made = []

        class Kept(search_class):
            def __init__(self, *args):
                super().__init__(*args)
                self.changes = []
                made.append(self)

            def record(self, body, delta):
                before = (self.best, len(self.witnesses))
                super().record(body, delta)
                if (self.best, len(self.witnesses)) != before:
                    self.changes.append((body, self.best))

        if certificates is None:
            # bare: the scans alone from a zero incumbent, axis normals only
            axes = [tuple(int(k == a) for k in range(pts.dim)) for a in range(pts.dim)]
            search = Kept(pts, seed)
            search.evaluate(discrepancy._candidates(search, axes, None), budget)
        else:
            monkeypatch.setattr(discrepancy, "_Search", Kept)
            discrepancy.estimate_isotropic_discrepancy(
                pts, certificates, budget=budget, seed=seed
            )
        (search,) = made
        return search

    @pytest.mark.parametrize(
        "certified, seed",
        [(True, 0), (True, 4), (False, 4)],
        ids=["certified", "certified-seed4", "bare"],
    )
    @pytest.mark.parametrize("name", sorted(LATTICES))
    def test_same_search_as_reference(self, monkeypatch, name, certified, seed):
        lat = self.LATTICES[name]()
        pts = lattice.enumerate_points(lat)
        certificates = _certificates(lat, pts) if certified else None
        full = self._search(
            oracles.FractionSearch, monkeypatch, pts, self.FULL_BUDGET, seed, certificates
        )
        phases = full.phases
        assert "random_box" in phases  # the full run reaches the random phase
        budgets = [0, self.FULL_BUDGET]
        for phase in ("halfspace", "slab", "axis_box"):
            first = phases.index(phase)
            end = first
            while end < len(phases) and phases[end] == phase:
                end += 1
            assert end - first >= 2, (phase, first, end)
            budget = (first + end + 1) // 2
            # the last evaluation and the first candidate left untaken are
            # both from this loop
            assert phases[budget - 1] == phases[budget] == phase
            budgets.append(budget)
        for phase in ("slab", "axis_box", "random_box"):
            # the previous loop takes the last evaluation, and the first
            # candidate of this phase is left untaken
            budget = phases.index(phase)
            assert phases[budget - 1] != phase
            budgets.append(budget)
        for budget in budgets:
            ref = full if budget == self.FULL_BUDGET else self._search(
                oracles.FractionSearch, monkeypatch, pts, budget, seed, certificates
            )
            ours = self._search(
                self.SHIPPED, monkeypatch, pts, budget, seed, certificates
            )
            assert ours.evaluations == ref.evaluations == min(budget, len(phases))
            assert ours.changes == ref.changes, budget
            assert ours.best == ref.best, budget
            assert ours.witnesses == ref.witnesses, budget
