"""Command-line interface: subcommands, exit codes, and stable output."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latdisc
from latdisc import (
    __version__, bounds, cli, constructions, directed, kernels, lattice, linalg,
    reduction, volume,
)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args)
    return code, json.loads(out)


class TestEnvelope:
    def test_shape_and_version(self, capsys):
        code, data = run_json(capsys, "spectral", "--family", "fibonacci", "--m", "5")
        assert code == 0
        assert set(data) == {"tool", "version", "command", "parameters", "result"}
        assert data["tool"] == "latdisc"
        assert data["version"] == __version__
        assert data["command"] == "spectral"
        assert data["result"]["sigma_sq"] == "1/5"
        assert data["result"]["shortest_dual_vector"] == ["1", "-2"]

    def test_reruns_byte_identical(self, capsys):
        args = ("certify", "--family", "fibonacci", "--m", "8", "--budget", "200")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestConstruct:
    def test_emits_interchange_json(self, capsys):
        code, out = run_cli(capsys, "construct", "--family", "fibonacci", "--m", "5")
        assert code == 0
        lat = lattice.from_json(out)
        assert lat.rank1_data == (5, (1, 3))

    def test_round_trip_through_file(self, capsys, tmp_path):
        path = tmp_path / "lat.json"
        code, _ = run_cli(
            capsys, "construct", "--family", "korobov", "--n", "7", "--a", "3",
            "--d", "3", "--out", str(path),
        )
        assert code == 0
        code, data = run_json(capsys, "spectral", "--in", str(path))
        assert code == 0
        assert data["parameters"]["lattice"] == "rank1(7,1,3,2)"

    def test_explicit_generator(self, capsys):
        code, out = run_cli(
            capsys, "construct", "--n", "13", "--generator", "1,5"
        )
        assert code == 0
        assert lattice.from_json(out).rank1_data == (13, (1, 5))

    @pytest.mark.parametrize(
        "args",
        [
            ("construct",),  # no source
            ("construct", "--family", "fibonacci"),  # missing --m
            ("construct", "--family", "korobov", "--n", "7"),  # missing --a/--d
            ("construct", "--n", "13"),  # missing --generator
            ("construct", "--n", "13", "--generator", "1,x"),
        ],
    )
    def test_input_errors_exit_2(self, capsys, args):
        assert cli.main(list(args)) == 2


class TestPoints:
    def test_json_points(self, capsys):
        code, data = run_json(capsys, "points", "--family", "fibonacci", "--m", "5")
        assert code == 0
        pts = data["result"]["points"]
        assert len(pts) == 5
        assert ["0", "0"] in pts
        assert ["1/5", "3/5"] in pts

    def test_csv_points(self, capsys):
        code, out = run_cli(
            capsys, "points", "--family", "fibonacci", "--m", "5",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 6
        assert "1/5,3/5" in lines

    def test_cap_exit_3(self, capsys):
        code = cli.main(
            ["points", "--family", "scaled", "--m", "100", "--d", "3", "--cap", "10"]
        )
        assert code == 3


class TestPointsOutput:
    """The node set as printed, pinned to the SHA-256 of the output printed
    while the general HNF walk recursed depth first and each node's text
    was looked up in a dict of its distinct numerators: the rank-1 closed
    form with q = N, the general walk with q = 90 < N = 4050, a grid, a
    d = 4 Korobov rule and a rank-1 rule whose g_0 is not 1.  The JSON
    pins of the bad family (q = 90 < N), a d = 1 rule and N = 1 were
    recorded while JSON points still went through json.dumps whole."""

    DIGESTS = {
        "points --family fibonacci --m 21 --format csv":
            "3e0e005100afdbbfe61936b1f7d2e6115fda0af868b0b53adb5415f3d30c35de",
        "points --family bad --m 45 --d 3 --format csv":
            "4bfded6a3f5f2736c8df5f1ac3f4af8dd5bdb069416a75ccbb984b6edb639d8a",
        "points --family scaled --m 16 --d 3":
            "7c058778869240bd50e99575640c646a382a19a2cfccf710118b0f633ef6977f",
        "points --family korobov --n 1009 --a 76 --d 4 --format csv":
            "c209503852ba6febd06922d34eb844ea87bab6367255ad3cb8a1d94369530c92",
        "points --n 60 --generator 4,10,6":
            "a2d54a4b419c0626dfed517afd6da609f980086b8c341ddd44d21219dd328c9b",
        "points --family bad --m 45 --d 3":
            "67952d6f42681b23d939abddb908bc692b0f7e79a601105cd4cb719b27081640",
        "points --n 7 --generator 3":
            "a223d345678bf293cea77c26fb5d60f9de48f2b6aab2e420565993dbcaf2762d",
        "points --n 1 --generator 0":
            "df80cfcb7c82716a9459f72f2f5698615354a22551118e85172cd6b989dd87c9",
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS))
    def test_output_unchanged(self, capsys, args):
        code, out = run_cli(capsys, *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[args]

    @pytest.mark.parametrize(
        "args",
        ["--family bad --m 45 --d 3", "--n 60 --generator 4,10,6",
         "--n 7 --generator 3", "--n 1 --generator 0"],
    )
    def test_json_and_csv_agree(self, capsys, args):
        _, data = run_json(capsys, "points", *args.split())
        _, out = run_cli(capsys, "points", *args.split(), "--format", "csv")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert data["result"]["points"] == rows


class TestParserOutput:
    """argparse's help, version and usage errors, pinned to the exit code
    and the SHA-256 of stdout and stderr at 80 columns, as printed while
    every subcommand's arguments were added on each call."""

    EMPTY = hashlib.sha256(b"").hexdigest()
    # argv -> (exit code, stdout SHA-256, stderr SHA-256)
    DIGESTS = {
        "--help": (
            0, "c1a7c634688358036747a3d8484a65bfc2d079c6963b39939822e76c986c795b", EMPTY),
        "-h": (
            0, "c1a7c634688358036747a3d8484a65bfc2d079c6963b39939822e76c986c795b", EMPTY),
        "--version": (
            0, "d0885ed86b9e172f60ee27f86e5394af742ae0dc5b3e2b0b73ce3fb62fb2f1a6", EMPTY),
        "-h points": (
            0, "c1a7c634688358036747a3d8484a65bfc2d079c6963b39939822e76c986c795b", EMPTY),
        "construct --help": (
            0, "2edc18736625e149b4bac63ee2ff75b84538ac8e332763ce93cff39b1c3b2933", EMPTY),
        "spectral --help": (
            0, "be37702e91352312287e37dd258619cacbfaa9f4d2c6b0afe9a57f21293f982f", EMPTY),
        "points --help": (
            0, "e2f933b300989f75c1159da3636ca02c0b29cb264a61705ce3aeb97783ddccdd", EMPTY),
        "certify --help": (
            0, "bf942fdfb584590c2b70e7d0b03d8f82dbdcd9dae137fe026dd86d02bdb571f3", EMPTY),
        "search --help": (
            0, "9ff79fec83ec7d3aa6aa22d23f8ab1a47ba34604f82d482f1ce6799201e3cb08", EMPTY),
        "verify --help": (
            0, "15bc29bb3dd38ee6ca0130e466a690601eaa7170713da6837c66cadbccf53a9b", EMPTY),
        "bogus": (
            2, EMPTY, "d5d6fd38ca14c895621107992179cda9bb8dc99dfcb908b2028743365ff6a9b4"),
        "points --bogus": (
            2, EMPTY, "36a94ba03f05439940bf44cd37b486c335c50f856a4f719f94f7aafda8467d4b"),
        "search --n 61": (
            2, EMPTY, "112ce7160471bd723fec13f1db903b69ad5260ab85c2e6a6feef61435df2d6fe"),
        "points --family fibonacci --m 5 --format xml": (
            2, EMPTY, "70887b01d16e6f553985e932b7b781f2f5c81ce9ae662bd7f37b61482614430f"),
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS))
    def test_output_unchanged(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            cli.main(args.split())
        captured = capsys.readouterr()
        assert (
            exc.value.code,
            hashlib.sha256(captured.out.encode()).hexdigest(),
            hashlib.sha256(captured.err.encode()).hexdigest(),
        ) == self.DIGESTS[args]


class TestOneSubparser:
    """A call adds arguments to the one subcommand its argv names, and to
    none when argv names none; --help and the usage errors stay whole."""

    CALLS = {
        **{f"{command} --help": [command] for command in cli._COMMANDS},
        "points --family fibonacci --m 5": ["points"],
        "verify --family fibonacci --m 5 --format csv": ["verify"],
        "-h points": ["points"],
        "--help": [],
        "--version": [],
        "bogus": [],
        "": [],
    }

    @pytest.mark.parametrize("args", sorted(CALLS))
    def test_only_the_named_builder_runs(self, capsys, monkeypatch, args):
        built = []

        def spy(name, add_arguments):
            def recorded(parser):
                built.append(name)
                add_arguments(parser)
            return recorded

        monkeypatch.setattr(cli, "_COMMANDS", {
            name: (help_text, spy(name, add_arguments), handler)
            for name, (help_text, add_arguments, handler) in cli._COMMANDS.items()
        })
        with contextlib.suppress(SystemExit):
            cli.main(args.split())
        assert built == self.CALLS[args]


class TestCertify:
    def test_certificates_present(self, capsys):
        code, data = run_json(
            capsys, "certify", "--family", "fibonacci", "--m", "5",
            "--budget", "100",
        )
        assert code == 0
        result = data["result"]
        assert result["slab_certificate"]["implied_lower_bound"] == "1/2"
        assert result["plane_certificate"]["implied_lower_bound"] == "3/5"
        assert result["estimate"]["lower_bound"] == "3/5"
        assert result["estimate"]["seed"] == 0

    def test_seed_and_budget_flags(self, capsys):
        code, data = run_json(
            capsys, "certify", "--family", "fibonacci", "--m", "8",
            "--budget", "50", "--seed", "9",
        )
        assert code == 0
        assert data["result"]["estimate"]["budget"] == 50
        assert data["result"]["estimate"]["seed"] == 9


class TestHighDimensionFewNodes:
    """A rank-1 rule with 17 nodes in d = 8: random normals have up to 8
    active axes, so a halfspace volume sums over up to 2^8 = 256 vertex
    subsets, far more than there are nodes.  The output is pinned to the
    SHA-256 of the JSON that the body-by-body Fraction search printed."""

    ARGS = ("certify", "--n", "17", "--generator", "1,2,4,8,16,15,13,9")
    DIGESTS = {
        "500": "1a2da62bb804a633d121615a59b5f2065ff43aac9c6b5574a887458503292e2b",
        "3000": "a30a17001af8c1edb40d0341c3a4bb4eba4cce62de87d85203e30398e821d944",
    }

    @pytest.mark.parametrize("budget", sorted(DIGESTS))
    def test_certify_output_unchanged(self, capsys, budget):
        code, out = run_cli(capsys, *self.ARGS, "--budget", budget)
        assert code == 0
        estimate = json.loads(out)["result"]["estimate"]
        assert estimate["dim"] == 8 and estimate["n_points"] == 17
        assert estimate["evaluations"] == int(budget)
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[budget]


class TestLowRankShortestVector:
    """Rank-1 and rank-2 dual lattices take the same LLL + enumeration path
    as higher ranks.  The outputs are pinned to the SHA-256 of the JSON that
    the separate rank-1 rule and 2d Gauss reduction printed."""

    DIGESTS = {
        "spectral --family fibonacci --m 30":
            "330e882954021f9d92b87d11ac5c67558404aba2399fb5f32a61afc671ef3b03",
        "search --n 1009 --d 2":
            "a0a791c14fb11dc5542569457f09a0cb30bbdd1bfc5b8a7080f1bbb163d018fe",
        "search --n 61 --d 2 --mode exhaustive":
            "7c9e8c5ab636c59e5b164b0ade873f21e9804348f48881a439e15dcb17c1ff18",
        "verify --family bad --m 1 --d 2":
            "3189a7ff405cb55f76c158952e1b367b4f2b486d60df48ce091a4f72eb64ecd8",
        "spectral --n 7 --generator 1":
            "12928e945e529fd290d28c96926eb2d923207d15d92954b26f72e9a3c3597a37",
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS))
    def test_output_unchanged(self, capsys, args):
        code, out = run_cli(capsys, *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[args]


class TestSpectralOutput:
    """The spectral test at d = 3 and 4, pinned to the SHA-256 of the output
    printed while it went through a Fraction shortest-vector wrapper that
    scaled the dual to integers and back."""

    DIGESTS = {
        "spectral --family bad --m 3 --d 3":
            "9162efd70169d27daf0fb61a89ae1c43ab4007cad9fce09385f4c7614ab85e4d",
        "spectral --family korobov --n 101 --a 30 --d 4 --digits 60":
            "ecf260b2c745642f7dedc565a15d6732a59d95a00cec49b638eab741ab49e006",
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS))
    def test_output_unchanged(self, capsys, args):
        code, out = run_cli(capsys, *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[args]

    def test_cap_exceeded(self, capsys):
        code = cli.main(["spectral", "--family", "scaled", "--m", "2", "--d", "13"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.splitlines() == [
            "latdisc: cap exceeded: shortest vector in dimension 13 exceeds cap 12"
        ]


class TestBasisJsonOutput:
    """`kind: basis` lattices, pinned to the SHA-256 of the output printed
    while the lattice held its HNF basis as a matrix of Fractions: two
    families, and a non-canonical basis (negative and rational entries,
    the rank-1 rule (12; 1, 5, 7) times a unimodular matrix) read back."""

    DIGESTS = {
        "construct --family scaled --m 4 --d 3":
            "c0aef03bb1643b27ce38754cc229effd3e723704466eac7fee144bde1a38e097",
        "construct --family bad --m 5 --d 3":
            "9c55a1b5e53da98ab5997159b001e58ce89ec2efb64454bc5d82373af48069ea",
        "construct --in":
            "0b449b2e6a86489aa88ee7685751847593b66503483fd8397629cc941b4cb2c6",
        "spectral --in":
            "b8679fd959aa7cb20e96b930a512ffdbd4ce805448c6da08ec6cbc679e69096f",
    }
    DOC = {
        "dim": 3,
        "kind": "basis",
        "basis": [
            ["1/12", "-19/12", "19/12"],
            ["-1/12", "31/12", "-19/12"],
            [0, -1, 1],
        ],
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS))
    def test_output_unchanged(self, capsys, tmp_path, args):
        argv = args.split()
        if argv[-1] == "--in":
            path = tmp_path / "basis.json"
            path.write_text(json.dumps(self.DOC))
            argv.append(str(path))
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[args]


class TestGeneratorSearchOutput:
    """Generator searches, pinned to the SHA-256 of the output printed
    before the change each guards: at d >= 3, while LLL ran as structured
    closures and only the exhaustive d = 3 search started from a
    Gauss-reduced 2d block; exhaustive at d = 2, while its dual bases were
    the raw [[n, 0], [-a, 1]]."""

    DIGESTS = {
        "search --n 61 --d 3 --mode exhaustive":
            "252a883ecb56660d3bcfb9bdca0af06005d9917e3bbe62aeffa02796711037ff",
        "search --n 1009 --d 4":
            "3e694629fc0456bdf6c28af78b3a3c9ac3d78d9f77a60b3d4fbb744f40e3c5c8",
        "search --n 503 --d 6 --format csv":
            "dd56cc3b1eb792e4c87ff055b65cebaf15751c6888d82e170b319d3870d51199",
        "search --n 31 --d 4 --mode exhaustive":
            "6be5b98f667d0efe2fe435ab5a3df56ec33087d7c1e847154292f6b8bcb10e40",
        "search --n 13 --d 5 --mode exhaustive":
            "940283b1be9e147ad70b3921beb2139683265e65829c5738acf6aefba91e963d",
        "search --n 4001 --d 2 --mode exhaustive":
            "4f4200369f756f061998cc2694b393f51b900a10a5c0727511f0d0fe5264ffff",
        "search --n 1009 --d 2 --mode exhaustive --format csv":
            "9c17e642593ec70f9c40e98658c11027aef82d9f7472fa440254b7ba0b4fcb15",
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS))
    def test_output_unchanged(self, capsys, args):
        code, out = run_cli(capsys, *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[args]


class TestCertifyVerifyOutput:
    """The certify and verify envelopes, pinned to the SHA-256 of the output
    printed while the estimator still had a certificate-less mode and the
    sigma upper bound was computed separately by each command; the last two
    pins were taken while the search still stopped its scans by raising an
    exception at the end of the budget."""

    DIGESTS = {
        "certify --family fibonacci --m 13 --budget 2000 --seed 3":
            "41de4d145556f6f84f855dc51919eeec521254636f94054272d59f4f56913e8a",
        "certify --family bad --m 5 --d 3 --budget 20000":
            "f30b8c1c1d4edfad6242a1755994a23ad7d9c2fa61bcb536c67d60aec8a40007",
        "certify --family korobov --n 1 --a 5 --d 3 --budget 10":
            "d8e87aa58db54655d0a9f97fd5bed77b13192c2fe71bd35531405b6622814e12",
        "verify --family scaled --m 4 --d 3":
            "0f8b43227c2da0f39610622361432a48011a57d36f555c44de760fb454647816",
        "verify --family korobov --n 101 --a 30 --d 3 --format csv":
            "8e4fcf3fc3be875c72f1ae98956f75e7a5a3027d3226901c98dd99f127876f34",
        "certify --family fibonacci --m 8 --budget 1000000":
            "cfa6308d83e2463920d4d05a4221d538c9b181abcb7e9c5d52a72dc49efb6259",
        "certify --family scaled --m 16 --d 3 --budget 1000":
            "540fd07b5c2ade422d0a9776951bb08c5b28565872cd1f1c94feda77faa58741",
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS))
    def test_output_unchanged(self, capsys, args):
        code, out = run_cli(capsys, *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[args]

    def test_duds_end_the_search_before_the_budget(self, capsys):
        # 2000 random normals that are zero or already scanned end the
        # random phase, so the pinned run above spends less than its budget
        lat = ["--family", "fibonacci", "--m", "8"]
        _, data = run_json(capsys, "certify", *lat, "--budget", "1000000")
        assert data["result"]["estimate"]["evaluations"] < 1000000

    def test_one_sigma_upper_bound(self, capsys):
        lat = ["--family", "fibonacci", "--m", "10", "--digits", "60"]
        _, report = run_json(capsys, "verify", *lat)
        _, certified = run_json(capsys, "certify", *lat)
        estimate = certified["result"]["estimate"]
        assert report["result"]["jn_upper"] == estimate["upper_bound_decimal"]
        assert report["result"]["jn_upper_sq"] == estimate["upper_bound_sq"]


class TestDirectedDecimalOutput:
    """Directed decimals at both ends of the precision range, pinned to the
    SHA-256 of the output printed while decimal_str located the leading
    digit and carried the rounding by hand: 1600 digits of sigma, of the
    Minkowski floor and of the upper bound, and 30 digits in CSV."""

    DIGESTS = {
        "spectral --family korobov --n 1009 --a 76 --d 3 --digits 1600":
            "9a7cfdd2593ef51ba92d478a420996b4e06b3d127ea1ce6182666bbe65175323",
        "verify --family fibonacci --m 16 --digits 30 --format csv":
            "7e44378e2eb39324e65a3307995ce790a0d5da87a1fcb1e948d27be9ff84b9fa",
        "verify --family bad --m 5 --d 3 --digits 1600":
            "7a44b395bd04436f1b06112620304c44a0cdde11c05ffe910bdef00d27761e56",
        "search --n 101 --d 3 --digits 1600":
            "117e13e5d777cb5fab7d8a11d0b282aa76ca9989b81b872611f63db3a741cedd",
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS))
    def test_output_unchanged(self, capsys, args):
        code, out = run_cli(capsys, *args.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[args]


class TestLatticeFactsOnce:
    """One spectral test, one dual and one node enumeration per command:
    the certificates and the estimator take them from the command."""

    @pytest.mark.parametrize("command", ["certify", "verify"])
    @pytest.mark.parametrize(
        "lat",
        [
            ["--family", "fibonacci", "--m", "8"],
            ["--family", "scaled", "--m", "3", "--d", "3"],
        ],
        ids=["fibonacci", "scaled3d"],
    )
    def test_each_fact_computed_once(self, capsys, monkeypatch, command, lat):
        calls = Counter()
        for module, name in (
            (reduction, "spectral_test"),
            (lattice, "dual"),
            (lattice, "enumerate_points"),
        ):
            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        assert cli.main([command, *lat]) == 0
        assert calls == {"spectral_test": 1, "dual": 1, "enumerate_points": 1}


class TestOnePlanePass:
    """One products pass along the shortest dual vector h per command: the
    plane certificate's counts prove the empty slab and start the search's
    scan of h/gcd(h).  The estimator still re-checks both certificate bodies
    and every witness with a literal pass over all N nodes, one pass per
    distinct body."""

    LATTICES = {
        "fibonacci13": ["--family", "fibonacci", "--m", "13"],  # h = (8, -13)
        "fibonacci12": ["--family", "fibonacci", "--m", "12"],  # h = (8, 8)
        "scaled3d": ["--family", "scaled", "--m", "4", "--d", "3"],  # (0, 0, 4)
    }

    @staticmethod
    def _spy(monkeypatch):
        """Record the coefficients of every products stream and the body of
        every literal local_discrepancy pass."""
        streams, checked = [], []
        products, local = lattice.PointSet.products, volume.local_discrepancy

        def counting_products(self, a):
            streams.append(tuple(a))
            return products(self, a)

        def counting_local(points, body):
            checked.append(volume.body_to_dict(body))
            return local(points, body)

        monkeypatch.setattr(lattice.PointSet, "products", counting_products)
        monkeypatch.setattr(volume, "local_discrepancy", counting_local)
        return streams, checked

    @staticmethod
    def _along(vectors, h):
        """The vectors among `vectors` that are multiples of h."""
        return [
            a for a in vectors
            if all(a[i] * h[j] == a[j] * h[i] for i, j in combinations(range(len(h)), 2))
        ]

    @pytest.mark.parametrize("lat", sorted(LATTICES))
    def test_verify_streams_h_once(self, capsys, monkeypatch, lat):
        streams, _ = self._spy(monkeypatch)
        code, data = run_json(capsys, "verify", *self.LATTICES[lat])
        h = tuple(int(x) for x in data["result"]["plane_certificate"]["normal"])
        assert code == 0
        assert streams == [h]

    @pytest.mark.parametrize("lat", sorted(LATTICES))
    def test_certify_streams_h_once_plus_literal_checks(self, capsys, monkeypatch, lat):
        streams, checked = self._spy(monkeypatch)
        code, data = run_json(capsys, "certify", *self.LATTICES[lat], "--budget", "2000")
        result = data["result"]
        h = tuple(int(x) for x in result["plane_certificate"]["normal"])
        certified = [
            result["slab_certificate"]["body"],
            result["plane_certificate"]["witness_body"],
        ]
        others = [w for w in result["estimate"]["witnesses"] if w not in certified]
        other_normals = [
            tuple(Fraction(x) for x in w["normal"]) for w in others if "normal" in w
        ]
        assert code == 0
        # the plane pass, the two certificate re-checks, and one pass per
        # witness that is not a certificate body
        assert len(self._along(streams, h)) == 3 + len(self._along(other_normals, h))
        # the claims are checked last (random boxes are counted during the
        # search), each body once
        claims = checked[len(checked) - len(certified) - len(others):]
        assert claims[:2] == certified
        assert sorted(claims[2:], key=json.dumps) == others
        assert max(Counter(json.dumps(b, sort_keys=True) for b in checked).values()) == 1


class TestSearch:
    def test_json_search(self, capsys):
        code, data = run_json(capsys, "search", "--n", "101", "--d", "2")
        assert code == 0
        assert data["result"]["generator"] == [1, 30]
        assert data["result"]["norm_sq"] == "109"

    def test_csv_search(self, capsys):
        code, out = run_cli(
            capsys, "search", "--n", "17", "--d", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "17"

    def test_mirror_win_exit_4(self, capsys, monkeypatch):
        # a mirror generator's dual is isometric to its twin's, so a result
        # from its reduction breaks an invariant; faked here on the search's
        # second enumeration, the mirror of the first generator
        original = kernels.shortest_vectors
        calls = []

        def fake_win(rows, beat=None):
            calls.append(beat)
            found = original(rows, beat)
            if len(calls) == 2:
                found = (beat + 1, [tuple(rows[0])])
            return found

        monkeypatch.setattr(kernels, "shortest_vectors", fake_win)
        code = cli.main(["search", "--n", "13", "--d", "3"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.splitlines() == [
            "latdisc: invariant violation: generator search: a mirror generator beat its twin"
        ]

    @pytest.mark.parametrize("twin", [7, 6])
    def test_orbit_twin_win_exit_4(self, capsys, monkeypatch, twin):
        # the Korobov generator of b = 2^-1 = 7 mod 13 is that of 2 reversed
        # times a unit, so b's dual and n - b = 6's are isometric to 2's,
        # and a result from either one's reduction breaks the same
        # invariant; faked here on the enumeration of the basis that spans
        # the twin's dual, found by its HNF
        dual = linalg.hnf(
            constructions._dual_rows_unit_leading(
                13, constructions._korobov_generator(13, twin, 3)
            ),
            3,
        )
        original = kernels.shortest_vectors
        faked = []

        def fake_win(rows, beat=None):
            found = original(rows, beat)
            if beat is not None and linalg.hnf(rows, 3) == dual:
                faked.append(beat)
                found = (beat + 1, [tuple(rows[0])])
            return found

        monkeypatch.setattr(kernels, "shortest_vectors", fake_win)
        code = cli.main(["search", "--n", "13", "--d", "3"])
        captured = capsys.readouterr()
        assert len(faked) == 1
        assert code == 4 and captured.out == ""
        assert captured.err.splitlines() == [
            "latdisc: invariant violation: generator search: a mirror generator beat its twin"
        ]

    def test_composite_n_exit_2(self, capsys):
        assert cli.main(["search", "--n", "10", "--d", "2"]) == 2

    def test_svp_cap_exit_3(self, capsys):
        assert cli.main(["search", "--n", "5", "--d", "4", "--svp-cap", "3"]) == 3

    @pytest.mark.parametrize(
        "args,err",
        [
            ("--n 1009 --d 6 --mode exhaustive",
             "search over 1008^5 generators exceeds cap 1000000"),
            ("--n 1000000007 --d 2",
             "search over 1000000006 generators exceeds cap 1000000"),
            ("--n 2305843009213693951 --d 2",
             "search over 2305843009213693950 generators exceeds cap 1000000"),
            ("--n 1000003 --d 2 --mode exhaustive",
             "search over 1000002 generators exceeds cap 1000000"),
            ("--n 61 --d 1000000000 --mode exhaustive",
             "search in dimension 1000000000 exceeds cap 12"),
            ("--n 61 --d 1000000000 --mode exhaustive --svp-cap 1000000000",
             "search over 60^999999999 generators exceeds cap 1000000"),
        ],
    )
    def test_work_cap_exit_3(self, capsys, monkeypatch, args, err):
        # refused by counting the generators, before the primality test
        # (2^61 - 1 would take about 7.6e8 trial divisions) and before any
        # LLL call, and without forming (n - 1)^(d - 1) for a huge d
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past the work cap")

        monkeypatch.setattr(constructions, "_is_prime", unreachable)
        monkeypatch.setattr(kernels, "lll_reduce", unreachable)
        start = time.perf_counter()
        code = cli.main(["search", *args.split()])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.splitlines() == [f"latdisc: cap exceeded: {err}"]

    def test_work_cap_boundary(self, capsys):
        # n - 1 = 10^6 generators is at the cap, not over it: 1000001 then
        # fails the primality test instead
        assert constructions.SEARCH_CAP == 10**6
        assert cli.main(["search", "--n", "1000001", "--d", "2"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "latdisc: input error: generator search needs a prime modulus, got 1000001"
        ]


class TestVerify:
    def test_passes_on_good_rule(self, capsys):
        code, data = run_json(capsys, "verify", "--family", "fibonacci", "--m", "8")
        assert code == 0
        assert data["result"]["checks"]["sigma_vs_minkowski"] is True

    def test_passes_on_bad_family(self, capsys):
        # the bad family has poor discrepancy but every theorem still holds
        code, _ = run_json(capsys, "verify", "--family", "bad", "--m", "3")
        assert code == 0

    def test_csv_report(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--family", "fibonacci", "--m", "5",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("name,dim,n_points")
        assert lines[1].endswith("pass")


class TestVerifyCSV:
    """verify --format csv: one header and one row per command, the row's
    cells read from report.to_dict() and the verdict last."""

    HEADER = (
        "name,dim,n_points,sigma_sq,sigma,minkowski_sigma_lb,jn_upper,"
        "certified_jn_lb,certified_jn_lb_decimal,verdict"
    )
    FIB5 = ["--n", "5", "--generator", "1,3"]

    def test_header_and_pass_rows(self, capsys):
        for lat, name, sigma_sq in (
            (self.FIB5, "fib5", "1/5"),
            (["--family", "bad", "--m", "2"], "bad2", "1/4"),
        ):
            code, out = run_cli(
                capsys, "verify", *lat, "--name", name, "--format", "csv"
            )
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == self.HEADER
            assert len(lines) == 2
            row = lines[1].split(",")
            assert row[0] == name
            assert row[3] == sigma_sq
            assert row[-1] == "pass"

    def test_failing_check_changes_verdict(self, capsys, monkeypatch):
        verify_lattice = bounds.verify_lattice

        def broken(*args, **kwargs):
            rep = verify_lattice(*args, **kwargs)
            return dataclasses.replace(
                rep, checks={**rep.checks, "pigeonhole_count": False}
            )

        monkeypatch.setattr(bounds, "verify_lattice", broken)
        code, out = run_cli(capsys, "verify", *self.FIB5, "--format", "csv")
        assert code == 4
        assert out.splitlines()[1].endswith(",fail:pigeonhole_count")

    def test_bytes_stable(self, capsys):
        args = ("verify", *self.FIB5, "--name", "r", "--format", "csv")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)

    def test_name_is_quoted(self, capsys):
        name = 'a,"b"'
        code, out = run_cli(
            capsys, "verify", *self.FIB5, "--name", name, "--format", "csv"
        )
        assert code == 0
        row = out.splitlines()[1]
        assert row.startswith('"a,""b""",2,5,')
        assert next(csv.reader([row]))[0] == name


class TestFormatOption:
    """--format exists only where there is a choice: points, search and
    verify take json or csv; the other commands write one format."""

    ARGS = {
        "construct": ["--family", "fibonacci", "--m", "5"],
        "spectral": ["--family", "fibonacci", "--m", "5"],
        "certify": ["--family", "fibonacci", "--m", "5", "--budget", "10"],
        "points": ["--family", "fibonacci", "--m", "5"],
        "search": ["--n", "17", "--d", "2"],
        "verify": ["--family", "fibonacci", "--m", "5"],
    }

    @pytest.mark.parametrize("command", ["construct", "spectral", "certify"])
    def test_one_format_commands_refuse_the_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *self.ARGS[command], "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", ["points", "search", "verify"])
    def test_choice_commands_take_both(self, capsys, command, fmt):
        code, out = run_cli(capsys, command, *self.ARGS[command], "--format", fmt)
        assert code == 0
        assert out.startswith("{") == (fmt == "json")


class TestPrecision:
    def test_digits_flag(self, capsys):
        code, data = run_json(
            capsys, "spectral", "--family", "fibonacci", "--m", "5",
            "--digits", "40",
        )
        assert code == 0
        assert len(data["result"]["sigma"].split(".")[1]) == 40

    def test_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("LATDISC_PRECISION", "35")
        code, data = run_json(capsys, "spectral", "--family", "fibonacci", "--m", "5")
        assert code == 0
        assert data["parameters"]["digits"] == 35

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LATDISC_PRECISION", "35")
        code, data = run_json(
            capsys, "spectral", "--family", "fibonacci", "--m", "5",
            "--digits", "42",
        )
        assert code == 0
        assert data["parameters"]["digits"] == 42

    def test_low_precision_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("LATDISC_PRECISION", "10")
        assert cli.main(["spectral", "--family", "fibonacci", "--m", "5"]) == 2

    def test_low_precision_refused_before_enumeration(self, capsys, monkeypatch):
        # a node cap the lattice exceeds must not mask the bad precision
        args = ["certify", "--family", "fibonacci", "--m", "20", "--cap", "5"]
        assert cli.main(args + ["--digits", "5"]) == 2
        monkeypatch.setenv("LATDISC_PRECISION", "5")
        assert cli.main(args) == 2
        refused = "latdisc: input error: precision below 30 significant digits is refused"
        assert capsys.readouterr().err.splitlines() == [refused, refused]

    def test_high_precision_exit_2(self, capsys, monkeypatch):
        args = ["spectral", "--family", "fibonacci", "--m", "5"]
        assert cli.main(args + ["--digits", str(directed.MAX_DIGITS)]) == 0
        assert cli.main(args + ["--digits", "100000"]) == 2
        monkeypatch.setenv("LATDISC_PRECISION", "100000")
        assert cli.main(args) == 2
        refused = "latdisc: input error: precision above 1600 significant digits is refused"
        assert capsys.readouterr().err.splitlines() == [refused, refused]


class TestNumbersOfAnySize:
    def test_commands_past_the_digit_cap(self, capsys, tmp_path, default_digit_cap):
        # N has 3000 digits, so the lattice (1/N) Z^2 has N^2 points (6000
        # digits) and its dual N Z^2 has shortest norm N^2, as has that of
        # the rank-1 rule (N, (1)); main prints them whole and hands the
        # caller back its cap
        n = int("7" * 3000)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"kind": "basis", "dim": 2, "basis": [[f"1/{n}", "0"], ["0", f"1/{n}"]]}
        ))
        runs = []
        for args in (
            ["spectral", "--in", str(path)],
            ["construct", "--in", str(path)],
            ["verify", "--in", str(path)],
            ["spectral", "--n", str(n), "--generator", "1"],
        ):
            code = cli.main(args)
            assert sys.get_int_max_str_digits() == default_digit_cap
            runs.append((code, capsys.readouterr()))
        assert [code for code, _ in runs] == [0, 0, 3, 0]
        sys.set_int_max_str_digits(0)  # to read the outputs back here
        n_sq = n * n
        spectral = json.loads(runs[0][1].out)["result"]
        assert (spectral["n_points"], spectral["shortest_dual_norm_sq"]) == (n_sq, str(n_sq))
        assert json.loads(runs[1][1].out) == {
            "basis": [[f"1/{n}", "0"], ["0", f"1/{n}"]], "dim": 2, "kind": "basis",
            "n": n_sq,
        }
        assert runs[2][1] == (
            "", f"latdisc: cap exceeded: lattice has {n_sq} points, cap is 1000000\n"
        )
        rank1 = json.loads(runs[3][1].out)["result"]
        assert (rank1["shortest_dual_norm_sq"], rank1["sigma_sq"]) == (str(n_sq), f"1/{n_sq}")


class TestErrorPaths:
    def test_malformed_lattice_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["spectral", "--in", str(path)]) == 2

    def test_non_utf8_lattice_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        assert cli.main(["spectral", "--in", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not UTF-8" in err[0]

    def test_non_utf8_stdin_exit_2(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert cli.main(["spectral", "--in", "-"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not UTF-8" in err[0]

    def test_deeply_nested_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert cli.main(["spectral", "--in", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("latdisc: input error:")

    @pytest.mark.parametrize(
        "rows", [[None, None], [1, 2], ["10", "01"], [{"1": 0}, {"0": 1}]],
        ids=["null", "number", "string", "object"],
    )
    def test_basis_rows_not_arrays_exit_2(self, capsys, tmp_path, rows):
        # a string row once split into digits: ["10", "01"] read as I_2
        path = tmp_path / "rows.json"
        path.write_text(json.dumps({"dim": 2, "kind": "basis", "basis": rows}))
        assert cli.main(["spectral", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "latdisc: input error: basis JSON needs a d x d 'basis' array"
        ]

    @pytest.mark.parametrize(
        "args",
        [
            ["points", "--family", "fibonacci", "--m", "5", "--cap", "-1"],
            ["verify", "--family", "fibonacci", "--m", "5", "--cap", "-1"],
            ["spectral", "--family", "fibonacci", "--m", "5", "--svp-cap", "-1"],
            ["search", "--n", "5", "--d", "2", "--svp-cap", "-1"],
            # refused before enumeration, whose cap is exceeded too
            ["certify", "--family", "fibonacci", "--m", "20", "--budget", "-1",
             "--cap", "5"],
        ],
    )
    def test_negative_cap_exit_2(self, capsys, args):
        assert cli.main(args) == 2
        err = capsys.readouterr().err.splitlines()
        flag = args[args.index("-1") - 1]
        assert err == [f"latdisc: input error: {flag} must be nonnegative, got -1"]

    def test_zero_cap_is_a_cap_overrun(self, capsys):
        lat = ["--family", "fibonacci", "--m", "5"]
        assert cli.main(["points", *lat, "--cap", "0"]) == 3
        assert cli.main(["spectral", *lat, "--svp-cap", "0"]) == 3

    def test_missing_file_exit_2(self, capsys, tmp_path):
        assert cli.main(["spectral", "--in", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("d", [2, 13])
    @pytest.mark.parametrize(
        "command", ["construct", "spectral", "points", "certify", "verify"]
    )
    def test_non_integration_basis_refused_before_svp(
        self, capsys, tmp_path, d, command
    ):
        # diag(2, 1, ..., 1); at d = 13 the shortest-vector cap (12) would
        # also be exceeded, so this checks which error comes first.  The
        # retired "integration": false key changes nothing.
        basis = [[str(2 if i == j == 0 else int(i == j)) for j in range(d)]
                 for i in range(d)]
        for extra in ({}, {"integration": False}):
            path = tmp_path / "rel.json"
            path.write_text(json.dumps(
                {"kind": "basis", "dim": d, "basis": basis, **extra}
            ))
            assert cli.main([command, "--in", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "latdisc: input error: unit vector e_1 is not in the lattice"
            ]

    def test_unknown_family_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["construct", "--family", "mystery"])
        assert exc.value.code == 2


# the grammar the exit-code contract draws from: the flags each command
# takes, as (flag, values it accepts, values it refuses).  A call is built
# from accepted values, then at most one fault is put in.
_SOURCES = {
    "fibonacci": [("--m", ["2", "3", "13"], ["-1", "0", "1"])],
    "scaled": [("--m", ["2", "3", "13"], ["-1", "0"]),
               ("--d", ["1", "3", "13"], ["-1", "0"])],
    "bad": [("--m", ["1", "2", "13"], ["-1", "0"]),
            ("--d", ["2", "3", "25"], ["-1", "0", "1"])],
    "korobov": [("--n", ["5", "101", str(2**63)], ["-7", "0"]),
                ("--a", ["2", "76"], ["-3", "0"]),
                ("--d", ["1", "3", "13"], ["-1", "0"])],
    "rank1": [("--n", ["5", "13", "2001", str(2**63)], ["-7", "0"]),
              ("--generator", ["1,3", "1", "1, 5", "1,2,4"],
               ["", "1,,3", "1,x", ","])],
}
_DIGITS = ("--digits", ["30", "50"], ["29", "1601"])
_COMMAND_FLAGS = {
    "construct": [],
    "spectral": [_DIGITS],
    "points": [("--format", ["json", "csv"], [])],
    "certify": [_DIGITS, ("--budget", ["0", "1", "50"], ["-1"]),
                ("--seed", ["-1", "7", str(10**23)], [])],
    # 2^61 - 1 is prime, but its n - 1 generators are over the search's cap
    "search": [("--n", ["2", "5", "13", str(2**61 - 1)], ["-7", "0", "1", "9"]),
               ("--d", ["2", "3", "4", "7"], ["-1", "0", "1"]),
               ("--mode", ["korobov", "exhaustive"], []), _DIGITS,
               ("--format", ["json", "csv"], [])],
    "verify": [_DIGITS, ("--format", ["json", "csv"], [])],
}
_DOCUMENTS = [
    {"kind": "rank1", "dim": 2, "n": 5, "generator": [1, 3]},
    {"kind": "rank1", "dim": 3, "n": 10**30, "generator": [1, 10**30, 7]},
    {"kind": "rank1", "dim": 1, "n": 2000, "generator": [1]},
    {"kind": "basis", "dim": 2, "n": 5, "basis": [["1/5", "3/5"], [0, 1]]},
    {"kind": "basis", "dim": 3, "n": 12, "basis": [
        ["1/12", "-19/12", "19/12"], ["-1/12", "31/12", "-19/12"], [0, -1, 1]]},
]
_BAD_ENTRIES = ["1/2", "1/0", "1e3", 1.5, True, None, "x", [1], 0]


@st.composite
def _lattice_document(draw, faulty):
    """A valid interchange document as bytes, or with one fault: a field set
    to a bad value or dropped, one bad entry, or bytes that are not a JSON
    object in UTF-8."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_DOCUMENTS))))
    fault = faulty and draw(st.sampled_from(["field", "field", "entry", "text"]))
    if fault == "field":
        key = draw(st.sampled_from(sorted(doc)))
        bad = draw(st.sampled_from(["drop", "other", 0, 4, "2", None, 1.5, 7]))
        if bad == "drop":
            doc.pop(key, None)
        else:
            doc[key] = bad
    elif fault == "entry":
        rows = doc["basis"] if doc["kind"] == "basis" else [doc["generator"]]
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_BAD_ENTRIES))
    elif fault == "text":
        return draw(st.sampled_from(
            [b"[]", b"3", b'"x"', b"{", b"", b"[" * 2000, b"\xff\xfe{"]
        ))
    return json.dumps(doc).encode()


@st.composite
def _argv(draw):
    """(argv, stdin bytes, LATDISC_PRECISION) for one call; budgets stay at
    most 50 and the caps at --cap 2000 and --svp-cap 6, so each call takes
    milliseconds."""
    command = draw(st.sampled_from(list(_COMMAND_FLAGS)))
    argv, stdin, slots = [command], b"", []
    fault = draw(st.sampled_from(
        ["none", "refused", "refused", "omitted", "unparsed", "environment"]
    ))
    if command != "search":
        source = draw(st.sampled_from(["in", "in", "in", *_SOURCES]))
        if source == "in":
            argv += ["--in", "-"]
            if draw(st.booleans()):
                fault = "none"  # the document's instead
                stdin = draw(_lattice_document(True))
            else:
                stdin = draw(_lattice_document(False))
        else:
            if source != "rank1":
                slots.append(("--family", [source], []))
            slots += _SOURCES[source]
    slots += _COMMAND_FLAGS[command]
    precision = draw(st.sampled_from(
        ["29", "1601", "x"] if fault == "environment" else ["", "50"]
    ))
    if fault == "environment" and _DIGITS in slots:
        slots.remove(_DIGITS)  # the variable is read only without --digits
    target = draw(st.integers(0, len(slots) - 1)) if slots else None
    for i, (flag, accepted, refused) in enumerate(slots):
        values = accepted
        if i == target and fault == "omitted":
            continue
        if i == target and fault == "refused" and refused:
            values = refused
        if i == target and fault == "unparsed":
            values = ["x"]
        argv += [flag, draw(st.sampled_from(values))]
    if command in ("points", "certify", "verify"):
        argv += ["--cap", "2000"]
    if command not in ("construct", "points"):
        argv += ["--svp-cap", "6"]
    return argv, stdin, precision


class TestExitCodeContract:
    """Every input, good or bad, ends in a documented exit code: 0, 2 input,
    3 cap, 4 invariant or failed check.  Nothing but argparse's SystemExit
    escapes cli.main, and each failure explains itself on stderr."""

    @given(_argv())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_documented_exit_codes(self, call):
        argv, stdin, precision = call
        stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), \
                mock.patch.dict(os.environ, {"LATDISC_PRECISION": precision}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2
                assert err.getvalue().startswith("usage: latdisc")
                return
        assert code in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            if "csv" in argv:
                rows = list(csv.reader(io.StringIO(out.getvalue())))
                assert len({len(row) for row in rows}) == 1
            else:
                json.loads(out.getvalue())
        elif code == 4 and argv[0] == "verify" and not lines:
            assert out.getvalue()  # the report names the failed check
        else:
            assert len(lines) == 1 and lines[0].startswith("latdisc: ")
            assert out.getvalue() == ""


class TestConsoleScript:
    @staticmethod
    def run_module(*args):
        # The child imports the latdisc under test, installed or not.
        package_root = os.path.dirname(os.path.dirname(latdisc.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "latdisc.cli", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_installed_entry_point(self):
        out = self.run_module("spectral", "--family", "fibonacci", "--m", "5")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["result"]["sigma_sq"] == "1/5"

    @pytest.mark.parametrize(
        "args",
        ["points --family fibonacci --m 5 --format csv", "--help"],
    )
    def test_argv_from_the_process(self, capsys, args):
        # main() with no argv reads sys.argv: it prints what main(argv) does
        try:
            code = cli.main(args.split())
        except SystemExit as exc:
            code = exc.code
        out = self.run_module(*args.split())
        assert (out.returncode, out.stdout) == (code, capsys.readouterr().out)
