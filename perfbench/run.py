"""End-to-end benchmark of the latdisc command line.

    python3 perfbench/run.py --workload fib2d --seed 1 --seconds 40 --trace 0

Run from the root of a latdisc checkout.  Workloads (see workloads.py):
fib2d, grid3d, gensearch.  Each run starts one fresh worker process that
calls `latdisc.cli.main(argv)` in-process on the workload's seeded inputs,
with PYTHONPATH=src, and checks every command's output.

--trace 0 times the set-up (prepare.py) in fresh interpreters, runs
untraced passes for --seconds and reports the end-to-end metrics;
--trace 1 runs untraced and traced passes in turn and reports the
per-layer metrics of layers.py and the tracing overhead.  Timings are
normalized to a reference machine speed (see worker.REF_LOOP_S); the raw
wall times are printed alongside.  README.md lists every metric.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric with
its unit and sample count, the error rate and the environment stamp.  The
full result is also written to .perfbench_out/, for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_LOOP_S, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 15
TIME_LIMIT_S = 170


def run_script(script: str, args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="latdisc end-to-end benchmark")
    p.add_argument("--workload", required=True, choices=("fib2d", "grid3d", "gensearch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "latdisc" / "cli.py").is_file():
        return fail(f"no latdisc sources under {ROOT / 'src'}; run from a latdisc checkout")
    OUT_DIR.mkdir(exist_ok=True)
    start = time.perf_counter()

    setup_raw_s, setup_s = [], []
    if not args.trace:
        inputs = OUT_DIR / "setup-inputs"
        before = reference_loop()
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            proc = run_script(
                "prepare.py", [args.workload, str(args.seed), args.size, str(inputs)], timeout=60
            )
            raw = time.perf_counter() - t0
            shutil.rmtree(inputs, ignore_errors=True)
            if proc.returncode != 0:
                return fail(f"set-up failed:\n{proc.stderr}")
            after = reference_loop()
            setup_raw_s.append(raw)
            setup_s.append(raw * REF_LOOP_S / ((before + after) / 2))
            before = after

    remaining = TIME_LIMIT_S - (time.perf_counter() - start)
    proc = run_script(
        "worker.py",
        [
            *("--workload", args.workload, "--seed", str(args.seed), "--size", args.size),
            *("--seconds", str(args.seconds), "--trace", str(args.trace)),
        ],
        timeout=remaining,
    )
    if proc.returncode != 0:
        return fail(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])

    # metric name -> (value, unit, sample count)
    shown: dict[str, tuple[float, str, int]] = {}
    labels: dict[str, str] = {}  # command metric -> the command kind it times
    gated: list[str] = []
    if args.trace:
        passes = result["trace"]["passes"]
        for name, (value, unit) in result["trace"]["metrics"].items():
            shown[name] = (value, unit, passes)
        gated = list(shown)
    else:
        measured = result["measure"]
        passes = len(measured["pass_s"])
        shown["pass_raw_s"] = (statistics.median(measured["pass_s"]), "s", passes)
        shown["pass_norm_s"] = (statistics.median(measured["pass_norm_s"]), "s", passes)
        # every workload runs three kinds of command, in a fixed order
        for i, (kind, samples) in enumerate(measured["commands_norm_s"].items(), 1):
            shown[f"command{i}_norm_s"] = (statistics.median(samples), "s", passes)
            labels[f"command{i}_norm_s"] = kind
        shown["setup_raw_s"] = (statistics.median(setup_raw_s), "s", len(setup_raw_s))
        shown["setup_s"] = (statistics.median(setup_s), "s", len(setup_s))
        shown["peak_rss_mb"] = (result["peak_rss_mb"], "MB", 1)
        gated = [*labels, "setup_s", "peak_rss_mb"]

    attempted, failed = result["attempted"], result["failed"]
    env = result["env"]
    print(
        f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in env.items())
    )
    for name, (value, unit, n) in shown.items():
        label = f"  ({labels[name]})" if name in labels else ""
        print(f"  {name:<48} {value:>14.6g} {unit:<6} n={n}{label}")
    print(f"  {'error_rate':<48} {failed / attempted:>14.6g} {'':<6} ({failed} of {attempted} commands failed)")
    for message in result["failures"]:
        print(f"  FAILED {message}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"],
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in shown.items()},
        "commands": labels,
    }
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": shown[k][0], "unit": shown[k][1]} for k in gated},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
