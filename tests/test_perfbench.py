"""The benchmark's traced mode still runs against covloop.

`perfbench/spans.py` wraps covloop functions by name and reads fields of
their results (`ExecutionOutcome.timed_out` and `exit_status` among them),
so renaming any of them breaks the traced benchmark. It runs in a process of
its own: leaving a traced pass puts back plain functions where the class
held descriptors, which would leak into later tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Per-pass counts of c-deep at seed 1. The stub backend makes them exact, so
# any change in them is a change in what the loop does.
C_DEEP_SEED_1 = {
    "harness.run_test.calls": 625,
    "agents.complete.test_cases.calls": 12,
    "agents.complete.refinement.calls": 24,
    "cache.proposed": 673,
    "cache.duplicates": 48,
    "cache.novel": 625,
    "prompts.chars": 4381,
    "driver.iterations": 12,
}


def test_traced_benchmark_is_correct(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "c-deep", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] is True, proc.stdout
    counts = {name: final["metrics"][name]["value"] for name in C_DEEP_SEED_1}
    assert counts == C_DEEP_SEED_1
