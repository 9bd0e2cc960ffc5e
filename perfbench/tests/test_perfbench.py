"""Smoke tests of the benchmark itself, at the smoke size of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:3][0::2] == [metric["name"], metric["unit"]]
            for line in lines[:-1]
            if line.startswith("  ")
        ), metric["name"]
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_corrupted_output_raises_error_rate(workload, tmp_path, monkeypatch):
    from latdisc import cli

    commands = workloads.build(workload, 0, "smoke", tmp_path)
    gate = worker.Gate()
    worker.measure(cli, commands, 0, gate)
    assert gate.attempted == len(commands) and not gate.failed

    real_main = cli.main
    victim = commands[-1].argv

    def corrupting_main(argv):
        rc = real_main(argv)
        if tuple(argv) == victim:
            sys.stdout.write(" ")
        return rc

    monkeypatch.setattr(cli, "main", corrupting_main)
    gate = worker.Gate()
    worker.measure(cli, commands, 0, gate)
    assert len(gate.failed) == 1 and gate.attempted == len(commands)


def test_recorded_digest_catches_a_changed_output(tmp_path):
    from latdisc import cli

    command = workloads.build("fib2d", 0, "smoke", tmp_path)[0]
    digests = checks.load_digests()
    assert command.key in digests
    rc, out, _, _ = worker.run_command(cli, command)
    assert checks.check(command, rc, out, digests) is None
    # the structural checks accept this reordering; only the digest does not
    header, *rows = out.splitlines()
    reordered = "\n".join([header, *reversed(rows)]) + "\n"
    assert checks.check(command, rc, reordered, {}) is None
    assert checks.check(command, rc, reordered, digests) is not None


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "fib2d", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_other_kernel_implementation(tmp_path):
    env = {"python": "3.11.7", "kernel_implementation": "pure"}
    doc = {"workload": "fib2d", "size": "full", "trace": 0, "env": env,
           "metrics": {}, "attempted": 1, "failed": 0}
    other = dict(doc, env=dict(env, kernel_implementation="compiled"))
    (tmp_path / "a.json").write_text(json.dumps(doc))
    (tmp_path / "b.json").write_text(json.dumps(other))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
        assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
