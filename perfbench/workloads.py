"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed list of `latdisc` commands; the seed only chooses
among inputs of equal size, so every seed does the same amount of work:

- fib2d: a Fibonacci rank-1 rule in d = 2, read from a rank-1 JSON file;
  the seed is passed on as `certify --seed`.
- grid3d: the scaled grid and the bad family in d = 3, read from basis JSON
  whose rows the seed multiplies by a random unimodular matrix, so the
  program receives a non-canonical basis of the same lattice.
- gensearch: `search --mode exhaustive` in d = 3 at a fixed prime, then
  the default korobov search in d = 4 and in d = 6, each at a prime the
  seed picks from a pair.  The exhaustive prime is fixed because its work
  grows as (n-1)^2: the closest twin primes of a usable size, 71 and 73,
  differ by 6% in work, and that gap alone was most of the run-to-run
  spread the benchmark allows.

Every workload runs three kinds of command, in a fixed order; run.py
reports the median of each kind as command1, command2 and command3.

Every command carries a `key` that names the command and its lattice but
not the presentation of the input, so recorded output digests apply to
every seed that produces the same key.  `expect` holds the facts the
structural output checks need.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

NAMES = ("fib2d", "grid3d", "gensearch")

SIZES = {
    "full": {
        "fib_m": 21,
        "fib_budget": 2000,
        "grids": (("scaled", 16), ("bad", 45)),
        "grid_budget": 1000,
        # (mode, d, the primes the seed picks from)
        "searches": (
            ("exhaustive", 3, (61,)),
            ("korobov", 4, (1009, 1013)),
            ("korobov", 6, (503, 509)),
        ),
    },
    "smoke": {
        "fib_m": 12,
        "fib_budget": 200,
        "grids": (("scaled", 4), ("bad", 4)),
        "grid_budget": 100,
        "searches": (
            ("exhaustive", 3, (13,)),
            ("korobov", 3, (31, 37)),
            ("korobov", 4, (31, 37)),
        ),
    },
}


@dataclass(frozen=True)
class Command:
    kind: str
    key: str
    argv: tuple[str, ...]
    expect: dict


def fibonacci(m: int) -> tuple[int, int]:
    """(F_m, F_{m-1}) with F_1 = F_2 = 1."""
    a, b = 1, 1
    for _ in range(m - 2):
        a, b = b, a + b
    return b, a


def random_unimodular(rng: random.Random, d: int, steps: int = 8) -> list[list[int]]:
    """A random integer matrix of determinant +-1: a row permutation, sign
    flips and `steps` elementary row additions with multipliers in [-2, 2]."""
    order = list(range(d))
    rng.shuffle(order)
    u = [[int(j == order[i]) * rng.choice((1, -1)) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    return u


def _grid_axes(family: str, m: int) -> tuple[int, int, int]:
    # the scaled grid is (1/m) Z^3; the bad family is (1/m) Z^2 x (1/2) Z
    return (m, m, m) if family == "scaled" else (m, m, 2)


def _fib2d(size: dict, seed: int, inputs: Path) -> list[Command]:
    m = size["fib_m"]
    n, a = fibonacci(m)
    path = inputs / f"fib{m}.json"
    doc = {"dim": 2, "kind": "rank1", "n": n, "generator": [1, a]}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    lattice = f"rank1({n},1,{a})"
    expect = {"n_points": n, "rank1": [n, [1, a]]}
    budget = size["fib_budget"]
    return [
        Command("points", f"points csv {lattice}", ("points", "--in", str(path), "--format", "csv"), expect),
        Command("verify", f"verify {lattice}", ("verify", "--in", str(path)), expect),
        Command(
            "certify",
            f"certify {lattice} budget={budget} seed={seed}",
            ("certify", "--in", str(path), "--budget", str(budget), "--seed", str(seed)),
            dict(expect, budget=budget, seed=seed),
        ),
    ]


def _grid3d(size: dict, seed: int, inputs: Path) -> list[Command]:
    rng = random.Random(seed)
    budget = size["grid_budget"]
    per_lattice = []
    for family, m in size["grids"]:
        axes = _grid_axes(family, m)
        u = random_unimodular(rng, 3)
        rows = [[str(Fraction(u[i][j], axes[j])) for j in range(3)] for i in range(3)]
        n = axes[0] * axes[1] * axes[2]
        path = inputs / f"{family}{m}.json"
        doc = {"dim": 3, "kind": "basis", "n": n, "basis": rows}
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        lattice = f"{family}(m={m},d=3)"
        expect = {"n_points": n, "axes": list(axes)}
        per_lattice.append(
            [
                Command("points", f"points csv {lattice}", ("points", "--in", str(path), "--format", "csv"), expect),
                Command("verify", f"verify {lattice}", ("verify", "--in", str(path)), expect),
                Command(
                    "certify",
                    f"certify {lattice} budget={budget} seed=0",
                    ("certify", "--in", str(path), "--budget", str(budget)),
                    dict(expect, budget=budget, seed=0),
                ),
            ]
        )
    # one command kind after the other, as in fib2d
    return [cmd for group in zip(*per_lattice) for cmd in group]


def _gensearch(size: dict, seed: int, inputs: Path) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for mode, d, primes in size["searches"]:
        n = rng.choice(primes)
        commands.append(
            Command(
                f"search_{mode}_d{d}",
                f"search n={n} d={d} mode={mode}",
                ("search", "--n", str(n), "--d", str(d), "--mode", mode),
                {"n": n, "d": d, "mode": mode},
            )
        )
    return commands


_GENERATORS = {"fib2d": _fib2d, "grid3d": _grid3d, "gensearch": _gensearch}


def build(name: str, seed: int, size: str, inputs: Path) -> list[Command]:
    """Write the workload's input files under `inputs` and return one pass
    of its commands, in order."""
    inputs.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[name](SIZES[size], seed, inputs)
