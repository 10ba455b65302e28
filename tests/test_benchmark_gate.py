"""The benchmark's own output gate, run on this checkout.

`perfbench/run.py` checks every job's output against `perfbench/expected/`
before it reports a time, and refuses a run with a wrong output.  A change
to any benchmark output therefore fails here first, on the one round that
`--seconds 0` runs (a few seconds per workload).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ("residual", "coderive", "calculus"))
def test_benchmark_outputs_match_the_expected_records(workload):
    result = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                             "--seed", "1", "--seconds", "0"],
                            cwd=REPO, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    assert last["attempted"] >= 100, last
