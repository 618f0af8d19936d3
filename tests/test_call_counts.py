"""Python calls per unit of work may only go down (benchmarks/perf/call_counts.py)."""

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "call_counts.py"


def test_call_counts_stay_at_or_below_their_ceilings():
    # a fresh interpreter without REPRO_* settings: the counts are those
    # of a default process, whatever the tests before this one left set
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    run = subprocess.run([sys.executable, str(TOOL)], env=env, timeout=300,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
