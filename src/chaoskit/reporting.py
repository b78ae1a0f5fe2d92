"""Check records and report emission.

Reports are append-only: every run gets a fresh timestamped directory and
nothing inside an existing run directory is ever rewritten.  The report
files themselves (report.jsonl, report.csv, manifest.json) are byte-stable
for a fixed config and seed; wall-clock data lives in timing.jsonl only, so
identical runs can be diffed file by file. env.json names what produced the
bundle: the Python, numpy, scipy and chaoskit versions, a sha256 of the
package source, the random stream version (`levy.STREAM_VERSION`), the
version of the power and chain engines (`integrals.ENGINE_VERSION`) and the
number of CPUs the process may run on; it is byte-stable in one environment.
One registered check can emit several records; each timing line names that
check in its `check` field and carries the check's batch total, so time sums
per check, not per record.

Complex values are serialized as "re+imi" with full-precision float reprs;
parse_value is the reference parser and round-trips everything format_value
emits.
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import sha256

import numpy as np
import scipy

from ._version import __version__
from .integrals import ENGINE_VERSION
from .levy import STREAM_VERSION

__all__ = [
    "REPORT_FORMAT",
    "CheckRecord",
    "emit_report",
    "format_value",
    "make_run_dir",
    "parse_value",
    "read_report_csv",
    "summary_line",
]

REPORT_FORMAT = 1

_CSV_COLUMNS = ("check_id", "status", "value", "expected", "tolerance", "se", "note")


@dataclass
class CheckRecord:
    check_id: str
    status: str
    value: complex | float
    expected: complex | float
    tolerance: float
    se: float | None = None
    runtime_ms: float = 0.0
    note: str = ""
    check: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be pass or fail, got {self.status!r}")
        if not self.check:
            self.check = self.check_id

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def row(self) -> dict:
        """Deterministic payload: runtime_ms and check are deliberately excluded.

        A non-finite se is written as its format_value string, as value is, so
        every line is strict JSON."""
        se = self.se
        if se is not None and not math.isfinite(se):
            se = format_value(se)
        return {
            "check_id": self.check_id,
            "status": self.status,
            "value": format_value(self.value),
            "expected": format_value(self.expected),
            "tolerance": self.tolerance,
            "se": se,
            "note": self.note,
        }


def format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, complex) and not isinstance(v, float):
        z = complex(v)
        sign = "+" if z.imag >= 0 else "-"
        return f"{z.real!r}{sign}{abs(z.imag)!r}i"
    return repr(float(v))


def parse_value(s: str):
    if s == "":
        return None
    if not s.endswith("i"):
        return float(s)
    body = s[:-1]
    cuts = [i for i in range(1, len(body)) if body[i] in "+-" and body[i - 1] not in "eE"]
    if len(cuts) != 1:
        raise ValueError(f"malformed complex literal {s!r}")
    cut = cuts[0]
    return complex(float(body[:cut]), float(body[cut:]))


def summary_line(records) -> str:
    n_pass = sum(1 for r in records if r.passed)
    return f"{n_pass}/{len(records)} pass"


def make_run_dir(base: str) -> str:
    os.makedirs(base, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    candidate = os.path.join(base, f"run-{stamp}")
    suffix = 0
    while os.path.exists(candidate):
        suffix += 1
        candidate = os.path.join(base, f"run-{stamp}-{suffix}")
    os.makedirs(candidate)
    return candidate


@lru_cache(maxsize=None)
def _source_sha256() -> str:
    """sha256 over the sorted names and bytes of the package's *.py files."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    digest = sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform
    cannot say (os.sched_getaffinity exists on Linux only)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _environment() -> dict:
    """The env.json payload: versions, source digest, stream and engine
    versions and the CPUs this process may run on (the suite runner's pool
    size derives from them)."""
    return {
        "chaoskit": __version__,
        "cpus": usable_cpus(),
        "engine": ENGINE_VERSION,
        "numpy": np.__version__,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "scipy": scipy.__version__,
        "source_sha256": _source_sha256(),
        "stream": STREAM_VERSION,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_report(records, run_dir: str, manifest: dict) -> str:
    """Write report.jsonl, report.csv, manifest.json, env.json, timing.jsonl.

    Returns the summary line.  `manifest` carries suite/config/hash fields;
    counts and format markers are filled in here.
    """
    rows = [r.row() for r in records]
    with open(os.path.join(run_dir, "report.jsonl"), "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    with open(os.path.join(run_dir, "report.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            out = dict(row)
            out["tolerance"] = format_value(out["tolerance"])
            out["se"] = "" if out["se"] is None else format_value(out["se"])
            writer.writerow(out)

    full = dict(manifest)
    full.update(
        {
            "artifact": "chaoskit",
            "version": __version__,
            "report_format": REPORT_FORMAT,
            "records": len(records),
            "passed": sum(1 for r in records if r.passed),
            "failed": sum(1 for r in records if not r.passed),
        }
    )
    _write_json(os.path.join(run_dir, "manifest.json"), full)
    _write_json(os.path.join(run_dir, "env.json"), _environment())

    with open(os.path.join(run_dir, "timing.jsonl"), "w") as fh:
        for r in records:
            timing = {
                "check": r.check,
                "check_id": r.check_id,
                "runtime_ms": round(r.runtime_ms, 3),
            }
            fh.write(json.dumps(timing, sort_keys=True) + "\n")
    return summary_line(records)


def read_report_csv(path: str) -> list[dict]:
    """Round-trip reader for report.csv; values come back as numbers."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        out = []
        for row in reader:
            parsed = dict(row)
            for key in ("value", "expected", "tolerance", "se"):
                parsed[key] = parse_value(row[key])
            out.append(parsed)
    return out
