"""Acceptance gate.

One test per shipped guarantee, fifteen in all, every one exercised at the
default configuration (1e5 Monte Carlo paths, seed 42).  The whole suite runs
once in a module fixture; each test then pins the records it owns: pass
status, the exact tolerance the guarantee names, and a runtime budget where
one is promised.
"""
import json

import pytest

from chaoskit.config import RunConfig
from chaoskit.reporting import emit_report, make_run_dir
from chaoskit.suites import run_suite

# The module fixture runs the full default suite: `-m "not slow"` skips it.
pytestmark = pytest.mark.slow

MODELS = ("poisson", "brownian", "mixed")


@pytest.fixture(scope="module")
def records():
    recs = run_suite(RunConfig())
    by_id = {r.check_id: r for r in recs}
    assert len(by_id) == len(recs), "duplicate record ids"
    return by_id


def must_pass(by_id, check_id):
    record = by_id[check_id]
    assert record.passed, (
        f"{check_id}: value={record.value!r} expected={record.expected!r} "
        f"tolerance={record.tolerance!r} se={record.se!r} note={record.note}"
    )
    return record


def test_criterion_01_exponential_gram_within_tail_bound(records):
    record = must_pass(records, "fock.exp_gram")
    assert record.tolerance == 1.0
    assert "200 trials" in record.note and "roof 30" in record.note
    assert record.runtime_ms < 5_000.0


def test_criterion_02_commutation_residual(records):
    record = must_pass(records, "fock.ccr")
    assert record.tolerance == 1e-12
    assert "200 trials" in record.note


def test_criterion_03_ladder_operator_norms(records):
    assert must_pass(records, "fock.lower_norm").tolerance == 1e-10
    assert must_pass(records, "fock.raise_norm").tolerance == 1e-10
    assert must_pass(records, "fock.isometry").tolerance == 1e-12
    assert "n <= 6" in records["fock.lower_norm"].note


def test_criterion_04_number_operator_factorizations(records):
    assert must_pass(records, "fock.number_factorization").tolerance == 1e-12
    assert must_pass(records, "malliavin.number_factorization").tolerance == 1e-12


def test_criterion_05_scale_isometry_and_quadrature(records):
    assert must_pass(records, "fock.q_isometry").tolerance == 1e-12
    assert must_pass(records, "fock.q_quadrature").tolerance == 1e-8


def test_criterion_06_divergence_pairing_identity(records):
    assert must_pass(records, "fock.ito_skorohod").tolerance == 1e-11
    contraction = must_pass(records, "fock.contraction")
    assert contraction.tolerance == 1e-12


def test_criterion_07_shift_adjunctions(records):
    record = must_pass(records, "fock.exp_adjunction")
    assert record.tolerance == 1e-12


def test_criterion_08_cell_and_terminal_moments(records):
    for name in MODELS:
        for family in ("sim.cell_moments", "sim.characteristic", "sim.sample_moments"):
            record = must_pass(records, f"{family}.{name}")
            assert record.tolerance == 4.0
            assert record.se is not None
            # one batch covers all three models, so this bounds each model too
            assert record.runtime_ms < 60_000.0
    assert "{0.5, 1, 2}" in records["sim.characteristic.poisson"].note


def test_criterion_09_chaos_orthogonality(records):
    for name in ("poisson", "brownian"):
        record = must_pass(records, f"chaos.orthogonality.{name}")
        assert record.tolerance == 4.0
        assert "m,n <= 3" in record.note


def test_criterion_10_simplex_recursion_and_euler_order(records):
    assert must_pass(records, "sim.chain_power").tolerance == 1e-10
    euler = must_pass(records, "sim.euler_order")
    assert euler.expected == 1.0
    assert euler.tolerance == 0.3
    assert "8/16/32/64" in euler.note


def test_criterion_11_stochastic_exponential_closed_forms(records):
    assert must_pass(records, "sim.doleans_brownian").tolerance == 1e-12
    assert must_pass(records, "sim.doleans_poisson").tolerance == 1e-12
    assert must_pass(records, "sim.doleans_counting").tolerance == 1e-12
    for name in MODELS:
        assert must_pass(records, f"sim.doleans_martingale.{name}").tolerance == 4.0


def test_criterion_12_exponential_duality_tail(records):
    for name in ("poisson", "brownian"):
        record = must_pass(records, f"chaos.duality_tail.{name}")
        assert record.tolerance == 4.0
        assert "roofs 2..4" in record.note


def test_criterion_13_derivative_eigen_relation_and_embedding(records):
    assert must_pass(records, "malliavin.eigen_relation").tolerance == 1e-12
    assert must_pass(records, "malliavin.embed").tolerance == 1e-12


def test_criterion_14_skorohod_isometry(records):
    assert must_pass(records, "malliavin.skorohod_kernel").tolerance == 1e-10
    mc = must_pass(records, "malliavin.skorohod_mc")
    assert mc.tolerance == 4.0
    assert mc.se is not None
    assert must_pass(records, "malliavin.adapted_ito").tolerance == 1e-10


def test_criterion_15_reports_are_deterministic(tmp_path):
    config = RunConfig(suite="fock")
    manifest = {
        "suite": config.suite,
        "seed": config.seed,
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
    }
    bundles = []
    for tag in ("first", "second"):
        run_dir = make_run_dir(str(tmp_path / tag))
        emit_report(run_suite(config), run_dir, dict(manifest))
        bundle = {}
        for name in ("report.jsonl", "report.csv", "manifest.json"):
            with open(f"{run_dir}/{name}", "rb") as fh:
                bundle[name] = fh.read()
        bundles.append(bundle)
    assert bundles[0] == bundles[1]
    lines = bundles[0]["report.jsonl"].decode().strip().splitlines()
    assert len(lines) == 11
    assert all(json.loads(line)["status"] == "pass" for line in lines)
