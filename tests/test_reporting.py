"""Report serialization: deterministic bytes, lossless value round trips."""
import hashlib
import json
import os
import platform

import numpy as np
import pytest
import scipy

import chaoskit
from chaoskit.integrals import ENGINE_VERSION
from chaoskit.levy import STREAM_VERSION
from chaoskit.reporting import (
    CheckRecord,
    emit_report,
    format_value,
    make_run_dir,
    parse_value,
    read_report_csv,
    summary_line,
)


def test_format_value_forms():
    assert format_value(None) == ""
    assert format_value(0.5) == "0.5"
    assert format_value(2) == "2.0"
    assert format_value(1.0 + 2.0j) == "1.0+2.0i"
    assert format_value(1.0 - 2.0j) == "1.0-2.0i"
    assert format_value(complex(-0.25, 0.0)) == "-0.25+0.0i"


def test_format_value_handles_array_scalars():
    assert "np." not in format_value(np.float64(0.5))
    assert "np." not in format_value(np.complex128(1.5 - 0.25j))
    assert format_value(np.complex128(1.5 - 0.25j)) == "1.5-0.25i"


@pytest.mark.parametrize(
    "v",
    [
        0.0,
        -1.5,
        3.0e-17,
        1.2345678901234567,
        complex(1.5e-07, -2e-08),
        complex(-0.1, -0.2),
        complex(0.0, 1e300),
        None,
    ],
)
def test_parse_inverts_format(v):
    assert parse_value(format_value(v)) == v


def test_parse_value_rejects_ambiguous_literals():
    with pytest.raises(ValueError):
        parse_value("1.0+2.0+3.0i")
    with pytest.raises(ValueError):
        parse_value("1.0i")


def test_record_status_is_validated():
    with pytest.raises(ValueError):
        CheckRecord("x", "maybe", 0.0, 0.0, 1.0)
    rec = CheckRecord("x", "pass", 0.0, 0.0, 1.0)
    assert rec.passed
    assert "runtime_ms" not in rec.row()


def test_summary_line_counts():
    recs = [
        CheckRecord("a", "pass", 0.0, 0.0, 1.0),
        CheckRecord("b", "fail", 9.0, 0.0, 1.0),
        CheckRecord("c", "pass", 0.0, 0.0, 1.0),
    ]
    assert summary_line(recs) == "2/3 pass"


def test_make_run_dir_never_reuses_a_directory(tmp_path):
    base = os.fspath(tmp_path / "runs")
    first = make_run_dir(base)
    second = make_run_dir(base)
    assert first != second
    assert os.path.isdir(first) and os.path.isdir(second)
    assert os.path.basename(first).startswith("run-")


def records_with_runtime(ms):
    return [
        CheckRecord("alg.one", "pass", 3.25e-14, 0.0, 1e-12, runtime_ms=ms),
        CheckRecord(
            "mc.two", "pass", 1.5 - 0.25j, 1.5, 4.0, se=0.125, runtime_ms=ms, note="z"
        ),
        CheckRecord("bad.three", "fail", 9.0, 0.0, 1e-10, runtime_ms=ms),
    ]


def test_emit_report_bytes_ignore_runtime(tmp_path):
    run_a = os.fspath(tmp_path / "a")
    run_b = os.fspath(tmp_path / "b")
    os.makedirs(run_a)
    os.makedirs(run_b)
    manifest = {"suite": "fock", "seed": 3}
    summary = emit_report(records_with_runtime(1.0), run_a, manifest)
    assert summary == "2/3 pass"
    emit_report(records_with_runtime(250.0), run_b, manifest)
    for name in ("report.jsonl", "report.csv", "manifest.json"):
        with open(os.path.join(run_a, name), "rb") as fa:
            with open(os.path.join(run_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name
    with open(os.path.join(run_a, "timing.jsonl")) as fh:
        timings = [json.loads(line) for line in fh]
    assert [t["runtime_ms"] for t in timings] == [1.0, 1.0, 1.0]
    assert [t["check"] for t in timings] == ["alg.one", "mc.two", "bad.three"]


def test_timing_names_the_check_that_timed_each_record(tmp_path):
    batch = [
        CheckRecord(f"sim.m.{k}", "pass", 0.0, 0.0, 1.0, runtime_ms=40.0, check="sim.m")
        for k in ("poisson", "brownian")
    ]
    records = batch + [CheckRecord("fock.ccr", "pass", 0.0, 0.0, 1.0, runtime_ms=2.5)]
    run_dir = os.fspath(tmp_path / "r")
    os.makedirs(run_dir)
    emit_report(records, run_dir, {"suite": "all", "seed": 1})
    with open(os.path.join(run_dir, "timing.jsonl")) as fh:
        timings = [json.loads(line) for line in fh]
    assert [t["check"] for t in timings] == ["sim.m", "sim.m", "fock.ccr"]
    per_check = {t["check"]: t["runtime_ms"] for t in timings}
    assert per_check == {"sim.m": 40.0, "fock.ccr": 2.5}
    with open(os.path.join(run_dir, "report.jsonl")) as fh:
        assert all("check" not in json.loads(line) for line in fh)
    rows = read_report_csv(os.path.join(run_dir, "report.csv"))
    assert all("check" not in row for row in rows)


def test_manifest_carries_counts_and_format(tmp_path):
    run_dir = os.fspath(tmp_path / "r")
    os.makedirs(run_dir)
    emit_report(records_with_runtime(1.0), run_dir, {"suite": "sim", "seed": 9})
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["artifact"] == "chaoskit"
    assert manifest["records"] == 3
    assert manifest["passed"] == 2
    assert manifest["failed"] == 1
    assert manifest["suite"] == "sim"
    assert "version" in manifest and "report_format" in manifest


def test_env_json_names_versions_source_and_stream(tmp_path):
    runs = []
    for name, ms in (("a", 1.0), ("b", 250.0)):
        run_dir = os.fspath(tmp_path / name)
        os.makedirs(run_dir)
        emit_report(records_with_runtime(ms), run_dir, {"suite": "fock", "seed": 3})
        with open(os.path.join(run_dir, "env.json"), "rb") as fh:
            runs.append(fh.read())
    assert runs[0] == runs[1]
    env = json.loads(runs[0])
    pkg = os.path.dirname(chaoskit.__file__)
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(pkg) if n.endswith(".py")):
        digest.update(name.encode())
        with open(os.path.join(pkg, name), "rb") as fh:
            digest.update(fh.read())
    assert env == {
        "chaoskit": chaoskit.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "engine": ENGINE_VERSION,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "source_sha256": digest.hexdigest(),
        "stream": STREAM_VERSION,
    }
    assert STREAM_VERSION == 1
    assert ENGINE_VERSION == 3


def test_csv_round_trips_through_the_reference_parser(tmp_path):
    run_dir = os.fspath(tmp_path / "csv")
    os.makedirs(run_dir)
    recs = records_with_runtime(1.0)
    emit_report(recs, run_dir, {})
    rows = read_report_csv(os.path.join(run_dir, "report.csv"))
    assert [r["check_id"] for r in rows] == ["alg.one", "mc.two", "bad.three"]
    assert rows[0]["value"] == 3.25e-14
    assert rows[1]["value"] == 1.5 - 0.25j
    assert rows[1]["se"] == 0.125
    assert rows[2]["status"] == "fail"
    assert rows[0]["se"] is None
