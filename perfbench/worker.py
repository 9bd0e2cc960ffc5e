"""One benchmark worker: runs a workload's commands in-process through
`latdisc.cli.main(argv)` and prints one JSON line with its measurements.

Started by run.py with PYTHONPATH pointing at the library sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def environment() -> dict:
    """What a result depends on besides the workload and seed."""
    import latdisc

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "python": platform.python_version(),
        "kernel_implementation": latdisc.kernel_implementation,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def run_command(cli, command) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, wall seconds) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # start each command from the same heap state
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(command.argv))
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed command, not a crash
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
        seconds = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds


class Gate:
    """Checks every output and counts failed command runs."""

    def __init__(self):
        self.digests = checks.load_digests()
        self.attempted = 0
        self.failed: set[int] = set()  # indices of failed command runs
        self.messages: list[str] = []

    def fail(self, run: int, message: str) -> None:
        self.failed.add(run)
        self.messages.append(message)

    def __call__(self, command, rc: int, out: str, err: str) -> int:
        """Check one command run; returns the run's index."""
        run = self.attempted
        self.attempted += 1
        reason = checks.check(command, rc, out, self.digests)
        if reason is not None:
            last = err.strip().splitlines()[-1:]
            self.fail(run, f"{command.key}: {reason}" + "".join(f" ({e})" for e in last))
        return run


# The timings are normalized to a fixed machine speed: each command's wall
# time is scaled by REF_LOOP_S over the time reference_loop() took right
# before and right after it.  The loop runs three small kernels in the style
# of latdisc's hot paths (Fraction sums, an integer coefficient enumeration,
# a Fraction Gram-Schmidt) but no latdisc code, so it tracks how fast this
# shared machine runs such Python at the moment while staying the same for
# every version of the library.  No single kernel tracks every workload: the
# Fraction sums alone left twice the run-to-run spread on gensearch.
REF_LOOP_S = 0.025


def _fraction_sums() -> None:
    total = Fraction(0)
    for k in range(1, 2000):
        total += Fraction(k % 7, k)


def _coefficient_enumeration() -> None:
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(6)] for i in range(6)]

    def recurse(level: int, vec: list[int]) -> int:
        if level == 0:
            return sum(x * x for x in vec)
        return sum(
            recurse(level - 1, [a + c * b for a, b in zip(vec, rows[level])])
            for c in (-1, 0, 1)
        )

    for _ in range(15):
        recurse(5, [0] * 6)


def _gram_schmidt() -> None:
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5) for j in range(5)] for i in range(5)]
    for _ in range(15):
        gso: list[list[Fraction]] = []
        for row in rows:
            vec = list(row)
            for g in gso:
                mu = sum(a * b for a, b in zip(row, g)) / sum(x * x for x in g)
                vec = [a - mu * b for a, b in zip(vec, g)]
            gso.append(vec)


def reference_loop() -> float:
    """Mean of two timings of the three reference kernels, in seconds."""
    total = 0.0
    for _ in range(2):
        t0 = time.perf_counter()
        _fraction_sums()
        _coefficient_enumeration()
        _gram_schmidt()
        total += time.perf_counter() - t0
    return total / 2


class Pass:
    """Timings of one pass over a workload's commands."""

    def __init__(self):
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.kinds_s: dict[str, float] = {}  # normalized, summed per kind
        self.outputs: list[tuple[int, str]] = []  # (run index, stdout)


def run_pass(cli, commands, gate) -> Pass:
    """Run every command once, checking each output."""
    result = Pass()
    before = reference_loop()
    for command in commands:
        rc, out, err, dt = run_command(cli, command)
        after = reference_loop()
        norm = dt * REF_LOOP_S / ((before + after) / 2)
        before = after
        result.raw_s += dt
        result.norm_s += norm
        result.kinds_s[command.kind] = result.kinds_s.get(command.kind, 0.0) + norm
        result.outputs.append((gate(command, rc, out, err), out))
    return result


def measure(cli, commands, seconds: float, gate) -> dict:
    """Passes until `seconds` would be exceeded; the samples of each."""
    samples: dict[str, list[float]] = {command.kind: [] for command in commands}
    raw_s: list[float] = []
    norm_s: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one = run_pass(cli, commands, gate)
        wall = time.perf_counter() - t0
        raw_s.append(one.raw_s)
        norm_s.append(one.norm_s)
        for kind, dt in one.kinds_s.items():
            samples[kind].append(dt)
        if time.perf_counter() - start + wall > seconds:
            break
    return {"pass_s": raw_s, "pass_norm_s": norm_s, "commands_norm_s": samples}


def layer_metrics(tracer, commands, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass; times scaled by `scale` to the
    reference machine speed."""
    metrics: dict[str, tuple[float, str]] = {}
    for i, fn in enumerate(tracer.names):
        if fn != "cli.main":
            metrics[f"{fn}.calls"] = (tracer.calls[i], "count")
            metrics[f"{fn}.s"] = (tracer.total_s[i] * scale, "s")
    self_times = {
        "cli.self_s": ("cli.main",),
        "reduction.svp_self_s": ("reduction.spectral_test", "constructions.korobov_search"),
        "discrepancy.search_self_s": ("discrepancy.estimate_isotropic_discrepancy",),
        "bounds.verify_self_s": ("bounds.verify_lattice",),
    }
    for metric, fns in self_times.items():
        metrics[metric] = (sum(tracer.self_time(fn) for fn in fns) * scale, "s")
    metrics["lattice.nodes"] = (tracer.nodes, "count")
    metrics["discrepancy.search.evaluations"] = (tracer.evaluations, "count")
    metrics["volume.literal_passes"] = (tracer.count("volume.local_discrepancy"), "count")
    roots = tracer.root_spans()
    for kind in ("verify", "certify"):
        mine = {r for r, c in zip(roots, commands) if c.kind == kind}
        calls = tracer.calls_under_roots("reduction.spectral_test", mine)
        metrics[f"reduction.spectral_test.per_{kind}"] = (calls / len(mine) if mine else 0, "count")
    return metrics


def cross_check(tracer, commands, plain: Pass, traced_pass: Pass, gate) -> None:
    """Traced stdout must equal untraced stdout, and every searched
    generator must cost exactly one LLL reduction."""
    for command, (_, a), (run, b) in zip(commands, plain.outputs, traced_pass.outputs):
        if a != b:
            gate.fail(run, f"{command.key}: traced stdout differs from untraced")
    searches = [
        (run, out) for command, (run, out) in zip(commands, traced_pass.outputs)
        if command.argv[0] == "search" and run not in gate.failed
    ]
    # one LLL per generator, plus one in the spectral test that re-verifies
    # the winner
    expected = sum(json.loads(out)["result"]["n_searched"] + 1 for _, out in searches)
    calls = tracer.count("kernels.lll_reduce")
    if searches and calls != expected:
        for run, _ in searches:
            gate.fail(run, f"kernels.lll_reduce ran {calls} times, expected {expected}")


def traced(cli, name: str, seed: int, commands, seconds: float, gate) -> dict:
    """A warm-up pass, then untraced and traced passes in turn until
    `seconds` would be exceeded.  Per-layer metrics are medians over the
    traced passes; trace.overhead is the median traced pass over the median
    untraced one."""
    start = time.perf_counter()
    plain = run_pass(cli, commands, gate)
    untraced_s: list[float] = []
    traced_s: list[float] = []
    per_pass: list[dict[str, tuple[float, str]]] = []
    spans = []
    while True:
        t0 = time.perf_counter()
        untraced_s.append(run_pass(cli, commands, gate).norm_s)
        with layers.Tracer() as tracer:
            traced_pass = run_pass(cli, commands, gate)
        traced_s.append(traced_pass.norm_s)
        cross_check(tracer, commands, plain, traced_pass, gate)
        per_pass.append(layer_metrics(tracer, commands, traced_pass.norm_s / traced_pass.raw_s))
        spans.append(tracer.spans_doc())
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    with open(OUT_DIR / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"passes": spans}, fh)

    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m in per_pass]
    if any(c != counts[0] for c in counts):
        gate.fail(gate.attempted - 1, "layer counts differ between traced passes")
    metrics = {
        k: (statistics.median(m[k][0] for m in per_pass), unit)
        for k, (_, unit) in per_pass[0].items()
    }
    overhead = statistics.median(traced_s) / statistics.median(untraced_s)
    metrics["trace.overhead"] = (overhead, "ratio")
    return {"metrics": metrics, "passes": len(per_pass)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    from latdisc import cli

    inputs = OUT_DIR / f"inputs-{os.getpid()}"
    try:
        commands = workloads.build(args.workload, args.seed, args.size, inputs)
        gate = Gate()
        result = {"env": environment()}
        if args.trace:
            result["trace"] = traced(cli, args.workload, args.seed, commands, args.seconds, gate)
        else:
            result["measure"] = measure(cli, commands, args.seconds, gate)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["attempted"] = gate.attempted
        result["failed"] = len(gate.failed)
        result["failures"] = gate.messages
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
