"""The set-up that run.py times: a fresh interpreter imports the latdisc
CLI and writes one workload's inputs, as every CLI invocation must.

    PYTHONPATH=src python3 perfbench/prepare.py WORKLOAD SEED SIZE DIR

latdisc.cli is imported first and nothing of the benchmark's own comes
before it, so every module it loads counts towards setup_s.
"""

import sys

import latdisc.cli  # noqa: F401  (importing it is what is timed)

from pathlib import Path

import workloads

name, seed, size, inputs = sys.argv[1:]
workloads.build(name, int(seed), size, Path(inputs))
