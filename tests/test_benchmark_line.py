"""The last stdout line of the benchmark harness is the record that its
callers parse: strict JSON, all values finite, with the four end-to-end
metrics untraced and exactly the per-layer metrics of BENCHMARK.json
traced. The harness runs from a copy of the checkout's src/, perfbench/
code and BENCHMARK.json, so its records go to the copy's perfbench/out/
and not over a benchmark run's."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (root / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, root / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def _last_record(checkout, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    record = json.loads(proc.stdout.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert record["correct"] is True
    assert record["failed"] == 0
    for name, entry in record["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        assert math.isfinite(entry["value"]), name
    return record


@pytest.mark.parametrize("workload", ["lowdim_v4", "sweep_csv"])
def test_result_line_is_strict_json(checkout, workload):
    metrics = _last_record(checkout, workload, trace=0)["metrics"]
    assert set(metrics) == {"wall_s", "setup_s", "peak_rss_mb", "nmi"}


@pytest.mark.parametrize("workload", ["lowdim_v4", "sweep_csv"])
def test_traced_result_line_has_every_layer_metric(checkout, workload):
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = _last_record(checkout, workload, trace=1)["metrics"]
    assert set(metrics) == {entry["name"] for entry in spec["per_layer"]}
