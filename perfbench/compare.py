"""Compare two benchmark results written by run.py.

    python3 perfbench/compare.py BASE.json CHANGE.json

Both files come from .perfbench_out/result-<workload>-seed<n>-trace<t>.json.
Prints each metric of the base next to the change and their ratio.  Refuses
(exit 2) when the two results differ in workload, size, trace mode, Python
version or kernel implementation, because their timings are not comparable.
"""

from __future__ import annotations

import argparse
import json
import sys

MUST_MATCH = ("workload", "size", "trace")
ENV_MUST_MATCH = ("python", "kernel_implementation")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(base: dict, change: dict) -> list[str]:
    found = [
        f"{key}: {base[key]} vs {change[key]}"
        for key in MUST_MATCH
        if base[key] != change[key]
    ]
    found += [
        f"{key}: {base['env'][key]} vs {change['env'][key]}"
        for key in ENV_MUST_MATCH
        if base["env"][key] != change["env"][key]
    ]
    return found


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    base, change = load(args.base), load(args.change)
    refused = mismatches(base, change)
    if refused:
        print("perfbench: refusing to compare results from different set-ups:", file=sys.stderr)
        for line in refused:
            print(f"  {line}", file=sys.stderr)
        return 2
    print(f"{'metric':<48} {'base':>12} {'change':>12} {'ratio':>8}")
    for name, b in base["metrics"].items():
        c = change["metrics"].get(name)
        if c is None:
            print(f"{name:<48} {b['value']:>12.6g} {'missing':>12}")
            continue
        ratio = f"{c['value'] / b['value']:.3f}" if b["value"] else "-"
        print(f"{name:<48} {b['value']:>12.6g} {c['value']:>12.6g} {ratio:>8}  {b['unit']}")
    for side, doc in (("base", base), ("change", change)):
        print(f"{side}: {doc['failed']} of {doc['attempted']} commands failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
