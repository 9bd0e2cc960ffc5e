"""Record the sha256 of every command's stdout for the committed seeds.

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs each distinct command of every workload, at both sizes, for seeds
0 .. SEEDS-1, and writes digests.json.  A command is recorded only if it
exits 0 and passes the structural checks, so the file never pins a wrong
output.  Re-record only when an output change is intended.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from worker import run_command

SEEDS = 32


def main() -> int:
    from latdisc import cli

    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for size in sorted(workloads.SIZES):
            for name in workloads.NAMES:
                for seed in range(SEEDS):
                    for command in workloads.build(name, seed, size, Path(tmp)):
                        if command.key in digests:
                            continue
                        rc, out, err, _ = run_command(cli, command)
                        reason = checks.check(command, rc, out, {})
                        if reason is not None:
                            print(f"{command.key}: {reason}\n{err}", file=sys.stderr)
                            return 1
                        digests[command.key] = checks.sha256(out)
                        print(command.key, flush=True)
    checks.DIGESTS_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
