"""The last stdout line of the benchmark harness is the record that its
callers parse: strict JSON with the four end-to-end metrics, all finite."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["lowdim_v4", "sweep_csv"])
def test_result_line_is_strict_json(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    record = json.loads(proc.stdout.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert record["correct"] is True
    assert record["failed"] == 0
    metrics = record["metrics"]
    assert set(metrics) == {"wall_s", "setup_s", "peak_rss_mb", "nmi"}
    for name, entry in metrics.items():
        assert isinstance(entry["value"], (int, float)), name
        assert math.isfinite(entry["value"]), name
