"""Output gate: every command's exit code and stdout are checked.

Two layers of checks:

- digests: `digests.json` maps command keys (see workloads.py) to the
  sha256 of the stdout recorded for them; a recorded key must match exactly.
- structural checks, run for every command whether or not a digest exists:
  the node set printed by `points` is exactly the expected lattice, `verify`
  passes every check on N nodes, `certify` reports certificates over all N
  nodes within its budget, and `search` covered every generator.

`check` returns None for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_nodes(expect: dict) -> set[tuple[str, ...]]:
    """The node set in [0,1)^d as rendered strings, built independently of
    latdisc: {k g / n mod 1} for a rank-1 rule, a product grid otherwise."""
    if "rank1" in expect:
        n, g = expect["rank1"]
        return {tuple(str(Fraction(k * gj % n, n)) for gj in g) for k in range(n)}
    axes = expect["axes"]
    return {
        tuple(str(Fraction(i, m)) for i, m in zip(index, axes))
        for index in product(*(range(m) for m in axes))
    }


def _check_points(out: str, expect: dict) -> str | None:
    lines = out.splitlines()
    if not lines:
        return "points printed nothing"
    rows = [tuple(line.split(",")) for line in lines[1:]]
    d = len(rows[0]) if rows else 0
    if lines[0] != ",".join(f"x{i + 1}" for i in range(d)):
        return f"points header {lines[0]!r}"
    if len(rows) != expect["n_points"]:
        return f"points printed {len(rows)} nodes, expected {expect['n_points']}"
    if set(rows) != expected_nodes(expect):
        return "points node set differs from the lattice"
    return None


def _envelope(out: str, command: str) -> dict:
    doc = json.loads(out)
    if doc.get("tool") != "latdisc" or doc.get("command") != command:
        raise ValueError(f"not a latdisc {command} envelope")
    return doc["result"]


def _check_verify(out: str, expect: dict) -> str | None:
    result = _envelope(out, "verify")
    if result["n_points"] != expect["n_points"]:
        return f"verify n_points {result['n_points']}"
    if not all(result["checks"].values()):
        return f"verify checks failed: {result['checks']}"
    if result["slab_certificate"]["n_points_checked"] != expect["n_points"]:
        return "verify slab certificate did not check every node"
    return None


def _check_certify(out: str, expect: dict) -> str | None:
    result = _envelope(out, "certify")
    n = expect["n_points"]
    estimate = result["estimate"]
    if result["slab_certificate"]["n_points_checked"] != n:
        return "certify slab certificate did not check every node"
    if result["plane_certificate"]["n_points"] != n or estimate["n_points"] != n:
        return "certify node count differs from N"
    if estimate["seed"] != expect["seed"] or estimate["budget"] != expect["budget"]:
        return "certify echoed another seed or budget"
    if not 0 < estimate["evaluations"] <= expect["budget"]:
        return f"certify spent {estimate['evaluations']} of {expect['budget']} evaluations"
    certified = max(
        Fraction(result["slab_certificate"]["implied_lower_bound"]),
        Fraction(result["plane_certificate"]["implied_lower_bound"]),
    )
    if Fraction(estimate["lower_bound"]) < certified or not estimate["witnesses"]:
        return "certify estimate is below its own certificates"
    return None


def _check_search(out: str, expect: dict) -> str | None:
    result = _envelope(out, "search")
    n, d, mode = expect["n"], expect["d"], expect["mode"]
    if (result["n"], result["dim"], result["mode"]) != (n, d, mode):
        return "search echoed other parameters"
    covered = (n - 1) ** (d - 1) if mode == "exhaustive" else n - 1
    if result["n_searched"] != covered:
        return f"search covered {result['n_searched']} generators, expected {covered}"
    g = result["generator"]
    if len(g) != d or g[0] != 1 or not all(0 < x < n for x in g):
        return f"search winner {g} is not a generator mod {n}"
    if Fraction(result["sigma_sq"]) * int(result["norm_sq"]) != 1:
        return "search sigma_sq is not 1/norm_sq"
    return None


# keyed by the latdisc subcommand
_STRUCTURAL = {
    "points": _check_points,
    "verify": _check_verify,
    "certify": _check_certify,
    "search": _check_search,
}


def check(command, rc: int, out: str, digests: dict[str, str]) -> str | None:
    """None if `command` exited 0 with a correct stdout, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    recorded = digests.get(command.key)
    if recorded is not None and sha256(out) != recorded:
        return "stdout differs from the recorded digest"
    try:
        return _STRUCTURAL[command.argv[0]](out, command.expect)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unparseable {command.kind} output: {exc!r}"
