"""Smoke runs of the benchmark: its bitwise checks and span wrappers still hold.

Each run is a short ``perfbench/run.py`` call from the repository root. The
benchmark checks, among others, that its step loop reproduces ``fit``
bitwise and that a window sampled alone equals ``evaluate_split``'s; any
failed check shows as ``failed`` > 0 on the last line.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "workload, trace",
    [("train_s8", 0), ("train_s32", 0), ("eval_ett7_s100", 0), ("eval_ett7_s100", 1)],
)
def test_run_passes_its_checks(workload, trace):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "2", "--trace", str(trace)]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] > 0 and result["metrics"]
