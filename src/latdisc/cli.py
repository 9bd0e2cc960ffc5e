"""Command line interface.

Subcommands:

- construct: build a lattice from a named family or rank-1 data and emit
  its JSON document (round-trippable back in through --in);
- spectral: spectral test (shortest dual vector, sigma);
- points: enumerate the node set inside the unit cube;
- certify: discrepancy certificates plus the budgeted randomized search;
- search: exhaustive rank-1 generator search modulo a prime;
- verify: the full certified bounds report.

Outputs are deterministic: the same arguments (including --seed) produce
byte-identical bytes, so results can be diffed across runs and machines.
JSON results are wrapped in an envelope recording tool version, subcommand,
and effective parameters; construct emits the bare lattice document.
points, search and verify also write CSV (--format csv), a header and rows.
The points CSV is joined by hand, not through csv.writer: each value is
digits with at most one '/', so no value ever needs quoting.  search and
verify write one row through _write_csv, since a verify name can hold
commas and quotes.  JSON points is the envelope json.dumps prints with an
empty points array, the rows spliced in, joined from the CSV's text table
in the layout indent=2 prints.  A call registers all six subcommands, for
the help and usage errors, but adds arguments only to the one it names.

Exit codes: 0 success (for verify: every check passed), 2 malformed input,
3 a configured cap was exceeded, 4 an invariant or verification check
failed.  The default precision is 50 significant digits, overridable per
call with --digits or globally with the LATDISC_PRECISION environment
variable; values below 30 or above 1600 are refused.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from itertools import repeat

from . import __version__, bounds, constructions, directed, discrepancy
from . import lattice as lattice_mod
from . import reduction
from .errors import (
    CapExceededError,
    InputError,
    InvariantViolationError,
    UndecidableComparisonError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4


def _add_lattice_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("lattice input")
    g.add_argument(
        "--in",
        dest="infile",
        metavar="FILE",
        help="read a lattice JSON document ('-' for stdin)",
    )
    g.add_argument(
        "--family",
        choices=["fibonacci", "scaled", "bad", "korobov"],
        help="named family (see --m/--d/--n/--a)",
    )
    g.add_argument(
        "--m",
        type=int,
        help="family index (fibonacci/scaled/bad; bad: sigma = 1/2 for m >= 2, 1 at m = 1)",
    )
    g.add_argument("--d", type=int, help="dimension, where the family needs one")
    g.add_argument("--n", type=int, help="number of points (rank-1 / korobov)")
    g.add_argument("--a", type=int, help="korobov multiplier")
    g.add_argument(
        "--generator", metavar="G1,G2,...", help="rank-1 generator, used with --n"
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="write here instead of stdout")


def _add_format_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=["json", "csv"],
        default="json",
        help="output format (default json)",
    )


def _add_precision_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--digits",
        type=int,
        default=None,
        help=(
            f"significant digits for decimal output, {directed.MIN_DIGITS} "
            f"to {directed.MAX_DIGITS} (default: $LATDISC_PRECISION or "
            f"{directed.DEFAULT_DIGITS})"
        ),
    )


def _add_caps(p: argparse.ArgumentParser, enum=True, svp=True) -> None:
    if enum:
        p.add_argument(
            "--cap",
            type=int,
            default=lattice_mod.DEFAULT_ENUM_CAP,
            help="refuse to enumerate more than this many points",
        )
    if svp:
        p.add_argument(
            "--svp-cap",
            type=int,
            default=reduction.DEFAULT_SVP_CAP,
            help="refuse shortest-vector searches above this dimension",
        )


def _construct_args(p: argparse.ArgumentParser) -> None:
    _add_lattice_args(p)
    _add_output_args(p)


def _spectral_args(p: argparse.ArgumentParser) -> None:
    _add_lattice_args(p)
    _add_output_args(p)
    _add_precision_arg(p)
    _add_caps(p, enum=False)


def _points_args(p: argparse.ArgumentParser) -> None:
    _add_lattice_args(p)
    _add_output_args(p)
    _add_format_arg(p)
    _add_caps(p, svp=False)


def _certify_args(p: argparse.ArgumentParser) -> None:
    _add_lattice_args(p)
    _add_output_args(p)
    _add_precision_arg(p)
    _add_caps(p)
    p.add_argument(
        "--budget",
        type=int,
        default=discrepancy.DEFAULT_BUDGET,
        help="number of convex-body evaluations for the search",
    )
    p.add_argument("--seed", type=int, default=0, help="search seed")


def _search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="prime modulus")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument(
        "--mode", choices=["korobov", "exhaustive"], default="korobov"
    )
    _add_output_args(p)
    _add_format_arg(p)
    _add_precision_arg(p)
    _add_caps(p, enum=False)


def _verify_args(p: argparse.ArgumentParser) -> None:
    _add_lattice_args(p)
    _add_output_args(p)
    _add_format_arg(p)
    _add_precision_arg(p)
    _add_caps(p)
    p.add_argument("--name", default=None, help="label used in the report")


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`.  Every subcommand is registered, so the help,
    the usage line and an invalid choice print in full, but only the one
    `argv` names gets its arguments: the first token without a leading '-',
    since no top-level option takes a value."""
    parser = argparse.ArgumentParser(
        prog="latdisc",
        description=(
            "exact spectral tests and certified isotropic-discrepancy "
            "bounds for integration lattices"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((token for token in argv if not token.startswith("-")), None)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == named:
            add_arguments(p)
    return parser


def _parse_generator(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad generator {text!r}: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _lattice_from_args(args) -> lattice_mod.IntegrationLattice:
    if args.infile:
        try:
            if args.infile == "-":
                text = sys.stdin.read()
            else:
                with open(args.infile, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"lattice input is not UTF-8 text: {exc}") from exc
        return lattice_mod.from_json(text)
    if args.family == "fibonacci":
        _require(args.m is not None, "--family fibonacci needs --m")
        return constructions.fibonacci_lattice(args.m)
    if args.family == "scaled":
        _require(
            args.m is not None and args.d is not None,
            "--family scaled needs --m and --d",
        )
        return constructions.scaled_integer_lattice(args.m, args.d)
    if args.family == "bad":
        _require(args.m is not None, "--family bad needs --m")
        return constructions.bad_lattice(args.m, args.d if args.d is not None else 2)
    if args.family == "korobov":
        _require(
            args.n is not None and args.a is not None and args.d is not None,
            "--family korobov needs --n, --a and --d",
        )
        return constructions.korobov_lattice(args.n, args.a, args.d)
    if args.n is not None and args.generator is not None:
        return lattice_mod.from_rank1(args.n, _parse_generator(args.generator))
    raise InputError(
        "no lattice given: use --in FILE, --family ..., or --n with --generator"
    )


def _digits_for(args) -> int:
    digits = args.digits
    env = os.environ.get("LATDISC_PRECISION")
    if digits is None and env:
        try:
            digits = int(env)
        except ValueError as exc:
            raise InputError(
                f"LATDISC_PRECISION must be an integer, got {env!r}"
            ) from exc
    return directed._check_digits(
        directed.DEFAULT_DIGITS if digits is None else digits
    )


def _write_text(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(args, header: list, row: list) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, row])
    _write_text(args, buf.getvalue())


def _envelope(command: str, parameters: dict, result) -> str:
    envelope = {
        "tool": "latdisc",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "result": result,
    }
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _cmd_construct(args) -> int:
    lat = _lattice_from_args(args)
    _write_text(args, lattice_mod.to_json(lat) + "\n")
    return EXIT_OK


def _cmd_spectral(args) -> int:
    lat = _lattice_from_args(args)
    digits = _digits_for(args)
    res = reduction.spectral_test(lat, digits=digits, svp_cap=args.svp_cap)
    result = {
        "dim": lat.dim,
        "n_points": lat.n_points,
        "shortest_dual_vector": [str(x) for x in res.shortest_dual_vector],
        "shortest_dual_norm_sq": str(res.shortest_dual_norm_sq),
        "sigma_sq": str(res.sigma_sq),
        "sigma": res.sigma_decimal,
        "digits": res.digits,
    }
    params = {
        "lattice": lat.spec_string(),
        "digits": digits,
        "svp_cap": args.svp_cap,
    }
    _write_text(args, _envelope("spectral", params, result))
    return EXIT_OK


def _numerator_texts(q: int) -> list[str]:
    """str(Fraction(x, q)) for every numerator 0 <= x < q, entry x."""
    xs = range(q)
    texts = [f"{x // g}/{q // g}" for x, g in zip(xs, map(math.gcd, xs, repeat(q)))]
    texts[0] = "0"
    return texts


def _cmd_points(args) -> int:
    lat = _lattice_from_args(args)
    pts = lattice_mod.enumerate_points(lat, cap=args.cap)
    # q divides N, so the table is no larger than the node set
    text = _numerator_texts(pts.denominator).__getitem__
    rows = zip(*(map(text, column) for column in pts.columns))
    if args.format == "csv":
        header = ",".join(f"x{i + 1}" for i in range(lat.dim))
        body = "\n".join(map(",".join, rows))
        _write_text(args, f"{header}\n{body}\n")
        return EXIT_OK
    result = {"dim": lat.dim, "n_points": len(pts), "points": []}
    params = {"lattice": lat.spec_string(), "cap": args.cap}
    head, _, tail = _envelope("points", params, result).partition('"points": []')
    # the rows as json.dumps(indent=2) lays them out at this depth; a text
    # is digits and '/', so it needs no escaping
    body = '"\n      ],\n      [\n        "'.join(map('",\n        "'.join, rows))
    _write_text(args, "".join((
        head, '"points": [\n      [\n        "', body, '"\n      ]\n    ]', tail
    )))
    return EXIT_OK


def _cmd_certify(args) -> int:
    lat = _lattice_from_args(args)
    digits = _digits_for(args)
    pts = lattice_mod.enumerate_points(lat, cap=args.cap)
    spectral = reduction.spectral_test(lat, svp_cap=args.svp_cap)
    planes = discrepancy.hyperplane_count_certificate(lat, pts, spectral)
    slab = discrepancy.slab_certificate(planes)
    estimate = discrepancy.estimate_isotropic_discrepancy(
        pts, (slab, planes), budget=args.budget, seed=args.seed, digits=digits
    )
    result = {
        "slab_certificate": slab.to_dict(),
        "plane_certificate": planes.to_dict(),
        "estimate": estimate.to_dict(),
    }
    params = {
        "lattice": lat.spec_string(),
        "budget": args.budget,
        "seed": args.seed,
        "digits": digits,
        "cap": args.cap,
        "svp_cap": args.svp_cap,
    }
    _write_text(args, _envelope("certify", params, result))
    return EXIT_OK


def _cmd_search(args) -> int:
    digits = _digits_for(args)
    res = constructions.korobov_search(
        args.n, args.d, mode=args.mode, digits=digits, svp_cap=args.svp_cap
    )
    if args.format == "csv":
        _write_csv(
            args,
            ["n", "dim", "mode", "generator", "norm_sq", "sigma_sq", "sigma",
             "n_searched"],
            [res.n, res.dim, res.mode, " ".join(map(str, res.generator)),
             res.norm_sq, res.sigma_sq, res.sigma_decimal, res.n_searched],
        )
        return EXIT_OK
    params = {
        "n": args.n,
        "d": args.d,
        "mode": args.mode,
        "digits": digits,
        "svp_cap": args.svp_cap,
    }
    _write_text(args, _envelope("search", params, res.to_dict()))
    return EXIT_OK


# the report.to_dict() keys of a verify CSV row, before its verdict
VERIFY_COLUMNS = [
    "name", "dim", "n_points", "sigma_sq", "sigma", "minkowski_sigma_lb",
    "jn_upper", "certified_jn_lb", "certified_jn_lb_decimal",
]


def _cmd_verify(args) -> int:
    lat = _lattice_from_args(args)
    digits = _digits_for(args)
    name = args.name if args.name is not None else lat.spec_string()
    report = bounds.verify_lattice(
        lat, name=name, digits=digits, svp_cap=args.svp_cap, enum_cap=args.cap
    )
    result = report.to_dict()
    if args.format == "csv":
        failed = sorted(k for k, ok in report.checks.items() if not ok)
        verdict = "fail:" + ",".join(failed) if failed else "pass"
        _write_csv(
            args,
            [*VERIFY_COLUMNS, "verdict"],
            [*(result[k] for k in VERIFY_COLUMNS), verdict],
        )
    else:
        params = {
            "lattice": lat.spec_string(),
            "digits": digits,
            "cap": args.cap,
            "svp_cap": args.svp_cap,
        }
        _write_text(args, _envelope("verify", params, result))
    return EXIT_OK if report.all_passed else EXIT_INVARIANT


# subcommand -> (help line, argument builder, handler), in the help's order
_COMMANDS = {
    "construct": ("build a lattice and emit its JSON", _construct_args, _cmd_construct),
    "spectral": ("spectral test of a lattice", _spectral_args, _cmd_spectral),
    "points": ("enumerate the node set", _points_args, _cmd_points),
    "certify": (
        "discrepancy certificates and randomized search", _certify_args, _cmd_certify
    ),
    "search": ("best rank-1 generator modulo a prime", _search_args, _cmd_search),
    "verify": ("certified bounds report", _verify_args, _cmd_verify),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # every number printed is exact, so Python's cap on the digits of an
    # int <-> str conversion is lifted while a command runs; an in-process
    # caller gets its own cap back
    digit_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser(argv).parse_args(argv)
        for flag in ("cap", "svp_cap", "budget"):
            value = getattr(args, flag, 0)
            if value < 0:
                flag = flag.replace("_", "-")
                raise InputError(f"--{flag} must be nonnegative, got {value}")
        return _COMMANDS[args.command][2](args)
    except InputError as exc:
        print(f"latdisc: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"latdisc: i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"latdisc: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InvariantViolationError, UndecidableComparisonError) as exc:
        print(f"latdisc: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    sys.exit(main())
