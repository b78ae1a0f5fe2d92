"""Smoke test of the benchmark: every workload once, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run prints every metric BENCHMARK.json names, with its
unit, and that the spans of a traced run nest: each parent exists, encloses
its child in time, and runs on the child's thread unless the child is a
suite check started by the worker fan-out.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
# Paths per ensemble: small enough that every workload runs in seconds.
TINY_PATHS = 60


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace),
           "--paths", str(TINY_PATHS)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_spans_nest(workload, tmp_path):
    spans_file = tmp_path / "spans.json"
    spec = {"root": ROOT, "workload": workload, "seed": 5,
            "n_paths": TINY_PATHS, "out_dir": str(tmp_path / "runs"),
            "trace": True, "spans_file": str(spans_file)}
    env = dict(os.environ, CHAOSKIT_WORKERS=str(workloads.WORKLOADS[workload]["workers"]))
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    spans = {s[0]: s for s in json.loads(spans_file.read_text())}
    assert spans
    roots = [s for s in spans.values() if s[5] == 0]
    assert {s[1] for s in roots} <= {"bench.setup", "bench.run"}
    for sid, name, layer, start, end, parent, thread in spans.values():
        assert end >= start
        if parent == 0:
            continue
        assert parent in spans, f"{name} names a missing parent"
        up = spans[parent]
        assert up[3] <= start and end <= up[4], f"{name} is not inside {up[1]}"
        if thread != up[6]:
            assert name.startswith("check.") and up[1] == "suites.run_suite"
    threads = {s[6] for s in spans.values()}
    assert len(threads) <= workloads.WORKLOADS[workload]["workers"] + 1
    summary = json.loads(out.stdout.strip().splitlines()[-1])["trace"]
    assert summary["problems"] == []
    assert abs(summary["identity_gap_s"]) < 1e-6
