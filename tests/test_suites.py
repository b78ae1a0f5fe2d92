"""Suite registry and runner behavior at a small configuration."""
import json
import math
import multiprocessing
import os
import signal
from dataclasses import replace
from hashlib import sha256
from types import SimpleNamespace

import numpy as np
import pytest

from chaoskit import reporting, suites
from chaoskit.chaos import ChaosCoefficients, MarkedChaos
from chaoskit.config import MIN_CELL_MASS, SUITES, RunConfig
from chaoskit.fock import FockVector, MarkedFock
from chaoskit.indices import GuardLimitError
from chaoskit.levy import CellGrid
from chaoskit.suites import (
    _check_seed,
    _make_record,
    _trials,
    _worst,
    _worst_of,
    run_suite,
    suite_checks,
)

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

# sha256 of each suite's report.jsonl payload at SMALL, taken before the suites
# were made table-driven (numpy 2.4.6, scipy 1.17.1). A refactor of the checks
# must keep every byte; a deliberate change of a record updates the digest and
# says so in CHANGES.md. "fock" was re-pinned when fock.q_quadrature moved from
# scipy's quad to the trapezoid route (value 9.66e-13 -> 0.0; no other line).
# "sim" and "chaos" were re-pinned when the power engine became one log sum
# and one series exp (ENGINE_VERSION 2: the values that go through
# power_integrals moved in their last digits, no status changed) and "sim"
# gained the sim.martingale_closed records. "sim" was re-pinned again when the
# chain engine began to compose one transfer per run in real arithmetic
# (ENGINE_VERSION 3: sim.chain_power 1.76e-15 -> 2.67e-15; no other line).
REPORT_SHA256 = {
    "fock": "0f4c686ef3391e429c95123ff1b4e155f6d5c9f5fae71711f96088b625f78d12",
    "sim": "a55e42b796ba7c09bd4dadc18425b9de5322d9a4954f8d883e01fba716a2747e",
    "chaos": "33bb318bf612ab706b7d0ada65b5dbd4ae018a6e846cdfa56dc72c09f85f0903",
    "malliavin": "24310f948ac131af746227e8b8b9e6579d586ef161e666a44e81af8c4445cab3",
}

# The Fock and Malliavin suites at the benchmark's algebra config (d = 3,
# truncation 6, max_degree 7) with fewer paths, where the Fock kernels work
# on larger levels than at SMALL; pinned like REPORT_SHA256.
ALGEBRA = dict(d=3, truncation=6, max_degree=7, n_paths=400, seed=7)
ALGEBRA_SHA256 = {
    "fock": "c14930d1a650a862fec5945821ef7735c2a752e8eb0f282e6213102a287cdf72",
    "malliavin": "ce19e279eac34e7c5c412ed427f87ef7cd13eaecf68559797a1924452fab594d",
}


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


def _per_model(family, models=("poisson", "brownian", "mixed")):
    return [(f"{family}.{name}", family) for name in models]


# (record id, registered check that timed it), in report order; the chaos
# suite is left out because its duality_tail records fail at SMALL
TIMED_UNDER = {
    "fock": [
        ("fock.exp_gram", "fock.exp_gram"),
        ("fock.ccr", "fock.ccr"),
        ("fock.lower_norm", "fock.ladder_norms"),
        ("fock.raise_norm", "fock.ladder_norms"),
        ("fock.isometry", "fock.ladder_norms"),
        ("fock.number_factorization", "fock.number_factorization"),
        ("fock.q_isometry", "fock.q_isometry"),
        ("fock.q_quadrature", "fock.q_isometry"),
        ("fock.ito_skorohod", "fock.ito_skorohod"),
        ("fock.contraction", "fock.ito_skorohod"),
        ("fock.exp_adjunction", "fock.exp_adjunction"),
    ],
    "sim": [
        *_per_model("sim.cell_moments"),
        *_per_model("sim.characteristic"),
        *_per_model("sim.sample_moments"),
        ("sim.chain_power", "sim.chain_power"),
        ("sim.euler_order", "sim.euler_order"),
        ("sim.doleans_brownian", "sim.doleans_closed"),
        ("sim.doleans_poisson", "sim.doleans_closed"),
        ("sim.doleans_counting", "sim.doleans_closed"),
        *_per_model("sim.doleans_martingale"),
        *_per_model("sim.exp_martingale"),
        *_per_model("sim.martingale_closed"),
        ("sim.representation", "sim.representation"),
    ],
}


@pytest.mark.parametrize("suite", sorted(TIMED_UNDER))
def test_suite_passes_and_stamps_runtimes(suite):
    records = run_suite(RunConfig(suite=suite, **SMALL))
    assert [(r.check_id, r.check) for r in records] == TIMED_UNDER[suite]
    runtime = {}
    for r in records:
        assert r.passed, f"{r.check_id}: {r.value} vs {r.expected}"
        assert r.runtime_ms > 0.0
        # one registered check times all of its records as a batch
        assert runtime.setdefault(r.check, r.runtime_ms) == r.runtime_ms, r.check_id
    assert list(runtime) == [fn.check_id for fn in suite_checks(suite)]


def _levels_drawn_per_level(rng, cls, space, truncation, zero_top, scale):
    """One standard_normal call per part per level: real, then imaginary."""
    levels = []
    for n, shape in enumerate(cls._shapes(space, truncation)):
        if n > truncation - zero_top:
            levels.append(None)
            continue
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        levels.append(z if scale is None else scale * z)
    return cls(space, truncation, levels)


@pytest.mark.parametrize("zero_top, scale", [(0, None), (1, 0.5), (2, 0.4), (9, None)])
def test_random_levels_match_a_draw_per_level_and_part(zero_top, scale):
    # one draw cut into levels gives the bits and the stream of a draw per
    # level and part
    grid = CellGrid(RunConfig(suite="malliavin", **SMALL).mixed_model(), 4)
    spaces = [(FockVector, 3), (MarkedFock, 3), (ChaosCoefficients, grid), (MarkedChaos, grid)]
    for cls, space in spaces:
        got_rng, want_rng = (np.random.default_rng(70) for _ in range(2))
        got = suites._random_levels(got_rng, cls, space, 4, zero_top, scale)
        want = _levels_drawn_per_level(want_rng, cls, space, 4, zero_top, scale)
        for a, b in zip(getattr(got, cls._LEVELS), getattr(want, cls._LEVELS)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("knob", ["sigma", "horizon"])
def test_configs_at_the_cell_mass_floor_are_refused_below_and_run_above(knob):
    # SMALL's finest grid has 8 steps over horizon 1, so the mixed model's
    # diffusion cells have mass sigma**2 / 8 and the presets' cells horizon / 8
    def config(factor):
        mass = MIN_CELL_MASS * factor
        if knob == "sigma":
            return RunConfig(suite="sim", **dict(SMALL, sigma=math.sqrt(8 * mass), atoms=[]))
        return RunConfig(suite="sim", **dict(SMALL, horizon=8 * mass))

    with pytest.raises(ValueError, match="smallest cell mass"):
        config(0.99)
    cfg = config(1.01)
    if knob == "sigma":
        records = run_suite(cfg)
    else:
        # the presets' jumps are too rare to count at this horizon, but
        # Euler's mean-square gap (the horizon squared) and the Brownian
        # chaos orthogonality (up to its cube, squared) must not underflow
        records = suites._check_euler_order(cfg) + [
            r for r in suites._orthogonality(cfg) if r.check_id.endswith("brownian")
        ]
    for r in records:
        assert r.passed and math.isfinite(r.value), (r.check_id, r.value, r.se)


def _usable_cpus(monkeypatch, n: int) -> None:
    """Make run_suite see n usable CPUs, so its pool has min(n, checks) workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("suite", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned_per_suite(monkeypatch, suite):
    # one usable CPU runs the checks in this process, two fan them out
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        records = run_suite(RunConfig(suite=suite, **SMALL))
        payload = "".join(json.dumps(r.row(), sort_keys=True) + "\n" for r in records)
        assert sha256(payload.encode()).hexdigest() == REPORT_SHA256[suite], cpus


@pytest.mark.parametrize("suite", sorted(ALGEBRA_SHA256))
def test_report_bytes_are_pinned_at_the_algebra_config(suite):
    records = run_suite(RunConfig(suite=suite, **ALGEBRA))
    assert all(r.passed for r in records)
    payload = "".join(json.dumps(r.row(), sort_keys=True) + "\n" for r in records)
    assert sha256(payload.encode()).hexdigest() == ALGEBRA_SHA256[suite]


@pytest.mark.parametrize("suite", ["sim", "chaos"])
def test_report_bytes_do_not_depend_on_the_path_blocks(monkeypatch, tmp_path, suite):
    # 37 paths per block on the 8-cell grids (18 on the 16-cell mixed grid),
    # so 400 paths end in an uneven block
    monkeypatch.setattr(suites, "_BLOCK_VALUES", 37 * 8)
    # the checks may run in forked workers, so the blocks are recorded in a file
    log = tmp_path / "blocks.jsonl"
    real = suites.sample_ensemble

    def recording(model, grid, seed, n_paths, first=0):
        with open(log, "a") as fh:
            fh.write(json.dumps([grid.n_cells, first, n_paths]) + "\n")
        return real(model, grid, seed, n_paths, first=first)

    monkeypatch.setattr(suites, "sample_ensemble", recording)
    records = run_suite(RunConfig(suite=suite, **SMALL))
    payload = "".join(json.dumps(r.row(), sort_keys=True) + "\n" for r in records)
    assert sha256(payload.encode()).hexdigest() == REPORT_SHA256[suite]
    blocks = [tuple(json.loads(line)) for line in log.read_text().splitlines()]
    assert (8, 370, 30) in blocks and (8, 333, 37) in blocks


@pytest.mark.parametrize("n", range(7))
def test_half_integral_agrees_with_quad_and_the_closed_form(n):
    from scipy.integrate import quad  # a reference route only; chaoskit never imports it

    # the same integral after t = u**2, integrated adaptively
    val, _ = quad(lambda u: 2.0 * math.exp(-(1.0 + n) * u * u), 0.0, math.inf)
    got = suites._half_integral(n)
    assert abs(got - val / math.sqrt(math.pi)) <= 1e-14
    assert abs(got - 1.0 / math.sqrt(1.0 + n)) <= 1e-14


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


def _logging_checks(monkeypatch, suite: str, log, faults=None):
    """Wrap each check of the suite so that it appends (check_id, pid) to log;
    a check named in faults calls its fault instead of running."""
    faults = faults or {}

    def logged(fn):
        def wrapped(cfg):
            with open(log, "a") as fh:
                fh.write(json.dumps([fn.check_id, os.getpid()]) + "\n")
            return faults.get(fn.check_id, fn)(cfg)

        wrapped.check_id = fn.check_id
        return wrapped

    checks = suite_checks(suite)
    monkeypatch.setitem(suites._SUITE_CHECKS, suite, [logged(fn) for fn in checks])
    return [fn.check_id for fn in checks]


def test_checks_run_in_the_calling_process_or_forked_workers(monkeypatch, tmp_path):
    # CHAOSKIT_WORKERS is set to show that no environment variable sizes the pool
    monkeypatch.setenv("CHAOSKIT_WORKERS", "3")
    log = tmp_path / "calls.jsonl"
    order = _logging_checks(monkeypatch, "fock", log)
    for cpus in (1, 2):
        log.write_text("")
        _usable_cpus(monkeypatch, cpus)
        records = run_suite(RunConfig(suite="fock", **SMALL))
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        assert sorted(check_id for check_id, _ in calls) == sorted(order)
        pids = {pid for _, pid in calls}
        if cpus == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids and 1 <= len(pids) <= 2
        assert list(dict.fromkeys(r.check for r in records)) == order


def test_without_sched_getaffinity_the_checks_run_in_the_calling_process(
    monkeypatch, tmp_path
):
    # os.sched_getaffinity exists on Linux only; elsewhere the runner sees one
    # usable CPU and env.json records it
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert reporting.usable_cpus() == 1
    assert reporting._environment()["cpus"] == 1
    log = tmp_path / "calls.jsonl"
    order = _logging_checks(monkeypatch, "fock", log)
    records = run_suite(RunConfig(suite="fock", **SMALL))
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert calls == [[check_id, os.getpid()] for check_id in order]
    payload = "".join(json.dumps(r.row(), sort_keys=True) + "\n" for r in records)
    assert sha256(payload.encode()).hexdigest() == REPORT_SHA256["fock"]


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs two CPUs this process may run on",
)
def test_each_pool_worker_is_pinned_to_its_own_cpu(monkeypatch, tmp_path):
    allowed = os.sched_getaffinity(0)
    log = tmp_path / "cpus.jsonl"

    def logged(fn):
        def wrapped(cfg):
            with open(log, "a") as fh:
                fh.write(json.dumps([os.getpid(), sorted(os.sched_getaffinity(0))]) + "\n")
            return fn(cfg)

        wrapped.check_id = fn.check_id
        return wrapped

    checks = suite_checks("fock")
    monkeypatch.setitem(suites._SUITE_CHECKS, "fock", [logged(fn) for fn in checks])
    records = run_suite(RunConfig(suite="fock", **SMALL))
    cpu_of = {}
    for pid, cpus in (json.loads(line) for line in log.read_text().splitlines()):
        assert pid != os.getpid() and len(cpus) == 1 and cpus[0] in allowed
        assert cpu_of.setdefault(pid, cpus[0]) == cpus[0]
    assert len(set(cpu_of.values())) == len(cpu_of) >= 1
    # the calling process keeps its own affinity, and the bytes are the pinned ones
    assert os.sched_getaffinity(0) == allowed
    payload = "".join(json.dumps(r.row(), sort_keys=True) + "\n" for r in records)
    assert sha256(payload.encode()).hexdigest() == REPORT_SHA256["fock"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="Linux only")
def test_adopt_hands_out_each_worker_index_once():
    # more workers than CPUs, started at once: a lost update of the shared
    # counter would hand two workers one index
    context = multiprocessing.get_context("fork")
    taken = context.Value("i", 0)
    cpus = sorted(os.sched_getaffinity(0))
    n = 4 * len(cpus)
    workers = [
        context.Process(target=suites._adopt, args=([], None, cpus, taken)) for _ in range(n)
    ]
    for p in workers:
        p.start()
    for p in workers:
        p.join(timeout=30)
        assert not p.is_alive() and p.exitcode == 0
    assert taken.value == n


def _broken(cfg):
    raise RuntimeError("fock.ccr broke")


def _killed(cfg):
    os.kill(os.getpid(), signal.SIGKILL)


def test_no_worker_outlives_run_suite(monkeypatch, tmp_path):
    _usable_cpus(monkeypatch, 2)
    run_suite(RunConfig(suite="fock", **SMALL))
    assert multiprocessing.active_children() == []
    # a check that raises, and a worker killed inside its check: both reach
    # the caller instead of hanging it
    for fault, message in ((_broken, "fock.ccr broke"), (_killed, "worker process died")):
        with monkeypatch.context() as patch:
            _logging_checks(patch, "fock", tmp_path / "calls.jsonl", {"fock.ccr": fault})
            with pytest.raises(RuntimeError, match=message):
                run_suite(RunConfig(suite="fock", **SMALL))
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("residuals", [[math.nan, 0.0], [0.0, math.nan], [0.5, math.nan, 2.0]])
def test_a_nan_residual_fails_its_record(residuals):
    it = iter(residuals)
    cfg = RunConfig(suite="fock", **SMALL)
    (rec,) = _trials(cfg, "fock.exp_gram", len(residuals), lambda rng: next(it), "identity", "")
    assert math.isnan(rec.value)
    assert rec.status == "fail"


@pytest.mark.parametrize(
    "stats",
    [
        [(1.0, 0.1), (math.nan, 0.2)],
        [(math.nan, 0.2), (1.0, 0.1)],
        [(0.5, 0.1), (math.nan, 0.2), (9.0, 0.3), (math.nan, 0.4)],
    ],
)
def test_a_nan_z_fails_its_record(stats):
    z, se = _worst(stats)
    assert math.isnan(z) and se == 0.2
    assert _make_record("sim.x", z, 0.0, 4.0, se=se).status == "fail"


def test_worst_keeps_the_first_largest_z():
    assert _worst([(2.0, 0.1), (3.0, 0.2), (3.0, 0.3)]) == (3.0, 0.2)
    assert _worst([]) == (0.0, None)


@pytest.mark.parametrize(
    "values", [[math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]]
)
def test_worst_of_keeps_a_nan_in_any_position(values):
    assert math.isnan(_worst_of(values))
    assert math.isnan(_worst_of(iter(values)))


def test_worst_of_is_floored_at_zero():
    assert _worst_of([-3.0, -1e-300]) == 0.0
    assert _worst_of([]) == 0.0
    assert _worst_of([0.5, 2.0, 1.0]) == 2.0


def _nan_const(real):
    return lambda *args, **kwargs: math.nan


def _nan_path(real):
    """The real per-path values with one path's value replaced by NaN."""

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        out[out.size // 2] = math.nan
        return out

    return fake


def _nan_second(real):
    """The real (value, mass) pair with the mass replaced by NaN."""
    return lambda *args, **kwargs: (real(*args, **kwargs)[0], math.nan)


def _nan_shift(real):
    # exp_shift results reach only the third adjunction residual
    return lambda *args, **kwargs: None


def _nan_gram(real):
    return lambda a, b: math.nan if a is None or b is None else real(a, b)


def _nan_ladder(real):
    return lambda phi1, phi2: replace(
        real(phi1, phi2), lhs=math.nan, div_norms=(math.nan, math.nan)
    )


def _nan_kernels(real):
    return lambda F: SimpleNamespace(kernels=[math.nan * k for k in real(F).kernels])


def _nan_errors(real):
    def fake(vals, ens, M):
        proj, se_map = real(vals, ens, M)
        return proj, {n: math.nan for n in se_map}

    return fake


# (check, what the suite imports, fake built from the real one, records that
# must fail); every NaN lands where a plain max fold would drop it
NAN_PROBES = [
    ("_check_ccr", [("create", _nan_second)], ["fock.ccr"]),
    (
        "_check_ladder_norms",
        [("operator_norm", _nan_const)],
        ["fock.lower_norm", "fock.raise_norm"],
    ),
    ("_check_ladder_norms", [("isometry_residual", _nan_const)], ["fock.isometry"]),
    (
        "_check_number_factorization",
        [("fock_divergence", _nan_second)],
        ["fock.number_factorization"],
    ),
    ("_check_q", [("graph_inner", _nan_const)], ["fock.q_isometry"]),
    (
        "_check_q",
        [("_half_integral", lambda real: lambda n: math.nan)],
        ["fock.q_quadrature"],
    ),
    (
        "_check_ito_skorohod",
        [("ito_skorohod", _nan_ladder)],
        ["fock.ito_skorohod", "fock.contraction"],
    ),
    (
        "_check_exp_adjunction",
        [("exp_shift", _nan_shift), ("exp_gram", _nan_gram)],
        ["fock.exp_adjunction"],
    ),
    (
        "_check_chain_power",
        [("iterated_chain", lambda real: lambda fields, ens: math.nan)],
        ["sim.chain_power"],
    ),
    (
        "_check_representation",
        [("representation_residual", _nan_path)],
        ["sim.representation"],
    ),
    ("_check_projection", [("project_mc", _nan_errors)], ["chaos.projection"]),
    (
        "_check_eigen_relation",
        [("chaos_gradient", _nan_kernels)],
        ["malliavin.eigen_relation"],
    ),
    ("_check_embed", [("chaos_divergence", _nan_second)], ["malliavin.embed"]),
    (
        "_check_skorohod_kernel",
        [("ito_skorohod", _nan_ladder)],
        ["malliavin.skorohod_kernel"],
    ),
    ("_check_skorohod_mc", [("chaos_divergence", _nan_second)], ["malliavin.skorohod_mc"]),
    ("_check_adapted_ito", [("chaos_divergence", _nan_second)], ["malliavin.adapted_ito"]),
    ("_check_split", [("split_divergence", _nan_second)], ["malliavin.split"]),
    (
        "_check_dom_monotone",
        [("dom_gradient_functional", _nan_const)],
        ["malliavin.dom_monotone"],
    ),
    (
        "_check_ou",
        [("chaos_sobolev_scale", lambda real: lambda C: math.nan * C)],
        ["malliavin.ou"],
    ),
]


@pytest.mark.parametrize(
    "check, patches, failing",
    NAN_PROBES,
    ids=[f"{check}-{patches[0][0]}" for check, patches, _ in NAN_PROBES],
)
def test_a_nan_inside_a_check_fails_its_records(monkeypatch, check, patches, failing):
    for name, fake in patches:
        monkeypatch.setattr(suites, name, fake(getattr(suites, name)))
    records = getattr(suites, check)(RunConfig(**SMALL))
    status = {r.check_id: r.status for r in records}
    assert [status[i] for i in failing] == ["fail"] * len(failing)
