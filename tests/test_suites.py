"""Suite registry and runner behavior at a small configuration."""
import math
from hashlib import sha256

import pytest

from chaoskit.config import SUITES, RunConfig
from chaoskit.indices import GuardLimitError
from chaoskit.suites import _check_seed, pool_size, run_suite, suite_checks

SMALL = dict(
    d=2,
    truncation=4,
    max_degree=4,
    n_time=8,
    chaos_n_time=4,
    chaos_truncation=2,
    n_paths=400,
    seed=7,
)


def test_all_is_the_concatenation_of_the_four_suites():
    parts = [suite_checks(s) for s in ("fock", "sim", "chaos", "malliavin")]
    assert suite_checks("all") == parts[0] + parts[1] + parts[2] + parts[3]
    assert set(SUITES) == {"all", "fock", "sim", "chaos", "malliavin"}


def test_check_ids_are_unique_and_prefixed():
    seen = set()
    for suite in ("fock", "sim", "chaos", "malliavin"):
        for fn in suite_checks(suite):
            assert fn.check_id.startswith(suite + ".")
            assert fn.check_id not in seen
            seen.add(fn.check_id)


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite"):
        suite_checks("warp")


def test_record_streams_are_keyed_by_seed_and_id():
    want = int.from_bytes(sha256(b"42:fock.ccr").digest()[:8], "big")
    assert _check_seed(42, "fock.ccr") == want
    assert _check_seed(42, "fock.ccr") != _check_seed(43, "fock.ccr")
    assert _check_seed(42, "fock.ccr") != _check_seed(42, "fock.lower_norm")


def test_fock_suite_passes_and_stamps_runtimes():
    records = run_suite(RunConfig(suite="fock", **SMALL))
    assert len(records) == 11
    assert [r.check_id for r in records] == [
        "fock.exp_gram",
        "fock.ccr",
        "fock.lower_norm",
        "fock.raise_norm",
        "fock.isometry",
        "fock.number_factorization",
        "fock.q_isometry",
        "fock.q_quadrature",
        "fock.ito_skorohod",
        "fock.contraction",
        "fock.exp_adjunction",
    ]
    for r in records:
        assert r.passed, f"{r.check_id}: {r.value} vs {r.expected}"
        assert r.runtime_ms > 0.0
    # one registered check times both Skorohod records as a batch
    assert records[8].check == records[9].check == "fock.ito_skorohod"
    assert records[9].runtime_ms == records[8].runtime_ms
    assert {r.check for r in records} == {fn.check_id for fn in suite_checks("fock")}


def test_guard_breach_becomes_a_single_failing_record():
    config = RunConfig(suite="fock", d=40, truncation=30)
    with pytest.raises(GuardLimitError):
        config.validate_guards()
    records = run_suite(config)
    assert len(records) == 1
    record = records[0]
    assert record.check_id == "config.guards"
    assert not record.passed
    assert record.value == math.inf
    assert "guard limit" in record.note


def test_worker_count_changes_wall_time_only(monkeypatch):
    config = RunConfig(suite="fock", **SMALL)
    serial = run_suite(config)
    monkeypatch.setenv("CHAOSKIT_WORKERS", "3")
    threaded = run_suite(config)
    assert [r.row() for r in threaded] == [r.row() for r in serial]


def test_pool_size_reads_and_caps_the_worker_count(monkeypatch):
    monkeypatch.delenv("CHAOSKIT_WORKERS", raising=False)
    assert pool_size(11) == 1
    monkeypatch.setenv("CHAOSKIT_WORKERS", "2")
    assert pool_size(11) == 2
    monkeypatch.setenv("CHAOSKIT_WORKERS", "10000")
    assert pool_size(11) == 11


@pytest.mark.parametrize("raw", ["0", "-3", "two", "1.5", ""])
def test_bad_worker_counts_are_refused(monkeypatch, raw):
    monkeypatch.setenv("CHAOSKIT_WORKERS", raw)
    with pytest.raises(ValueError, match="CHAOSKIT_WORKERS must be a positive integer"):
        pool_size(11)
    with pytest.raises(ValueError, match="CHAOSKIT_WORKERS"):
        run_suite(RunConfig(suite="fock", **SMALL))
