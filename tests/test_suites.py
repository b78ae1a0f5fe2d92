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
# "malliavin" was re-pinned, here and in ALGEBRA_SHA256, when
# malliavin.adapted_ito became one passing record per noise type
# (malliavin.adapted_ito.{poisson,brownian,mixed}; no other line). "sim" was
# re-pinned when sim.cell_moments and sim.sample_moments began to score z with
# their closed-form standard errors (value, se and note of those six records;
# all still pass, no other line). "fock" was re-pinned, here and in
# ALGEBRA_SHA256, when the closed-form norms of the gradient and divergence of
# exponential vectors were appended (fock.grad_exp_norm and fock.div_exp_norm,
# two passing lines at the end; no other line).
REPORT_SHA256 = {
    "fock": "48c676bd635470c30dd7c9ecff2c937335196b91ed6997e50096141f994776cd",
    "sim": "a64477225e42eb21a6b700b56eff81759eb71b1ead6ea29dbb40855c29ea8b30",
    "chaos": "33bb318bf612ab706b7d0ada65b5dbd4ae018a6e846cdfa56dc72c09f85f0903",
    "malliavin": "d7464c2b3172877b6c5892a7160e6bcbb6fb51bdcd004353de4417d08d4a3d76",
}

# The Fock and Malliavin suites at the benchmark's algebra config (d = 3,
# truncation 6, max_degree 7) with fewer paths, where the Fock kernels work
# on larger levels than at SMALL; pinned like REPORT_SHA256.
ALGEBRA = dict(d=3, truncation=6, max_degree=7, n_paths=400, seed=7)
ALGEBRA_SHA256 = {
    "fock": "0b35298ec299adec9c1eb8f4e6df8d3226b7edc37ff62fdf6fce44aa6dee5fc9",
    "malliavin": "e49e9b2554e61fb3fa337411d90047d943003242c375b4c86d2b649d87784f4c",
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


def _per_ids(family, models=("poisson", "brownian", "mixed")):
    return [f"{family}.{name}" for name in models]


def _per_model(family, models=("poisson", "brownian", "mixed")):
    return [(record_id, family) for record_id in _per_ids(family, models)]


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
        ("fock.q_quadrature", "fock.q_quadrature"),
        ("fock.ito_skorohod", "fock.ito_skorohod"),
        ("fock.contraction", "fock.ito_skorohod"),
        ("fock.exp_adjunction", "fock.exp_adjunction"),
        ("fock.grad_exp_norm", "fock.grad_exp_norm"),
        ("fock.div_exp_norm", "fock.div_exp_norm"),
    ],
    "sim": [
        *_per_model("sim.cell_moments"),
        *_per_model("sim.characteristic"),
        *_per_model("sim.sample_moments"),
        ("sim.chain_power", "sim.chain_power"),
        ("sim.euler_order", "sim.euler_order"),
        ("sim.doleans_brownian", "sim.doleans_brownian"),
        ("sim.doleans_poisson", "sim.doleans_poisson"),
        ("sim.doleans_counting", "sim.doleans_counting"),
        *_per_model("sim.doleans_martingale"),
        *_per_model("sim.exp_martingale"),
        *_per_model("sim.martingale_closed"),
        ("sim.representation", "sim.representation"),
    ],
    "malliavin": [
        ("malliavin.eigen_relation", "malliavin.eigen_relation"),
        ("malliavin.embed", "malliavin.embed"),
        ("malliavin.number_factorization", "malliavin.number_factorization"),
        ("malliavin.duality", "malliavin.duality"),
        ("malliavin.skorohod_kernel", "malliavin.skorohod_kernel"),
        ("malliavin.skorohod_mc", "malliavin.skorohod_mc"),
        *_per_model("malliavin.adapted_ito"),
        ("malliavin.split", "malliavin.split"),
        ("malliavin.split_degenerate", "malliavin.split"),
        ("malliavin.dom_monotone", "malliavin.dom_monotone"),
        ("malliavin.ou", "malliavin.ou"),
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


def test_moments_where_no_path_jumps_are_scored_with_exact_standard_errors():
    # No path of 1000 jumps by this horizon, so every jump statistic has sample
    # se 0, and with it the moment records read z = inf. The exact se scores
    # them. sim.characteristic, sim.doleans_martingale and sim.exp_martingale
    # still use the sample se and fail here on Poisson noise.
    cfg = RunConfig(suite="sim", n_paths=1000, seed=42, horizon=1e-4)
    records = {r.check_id: r for r in suites._cell_moments(cfg) + suites._sample_moments(cfg)}
    for family in ("sim.cell_moments", "sim.sample_moments"):
        for record_id in _per_ids(family, ("poisson", "mixed")):
            record = records[record_id]
            assert record.passed and math.isfinite(record.value), (record_id, record.value)
    T, root_n = cfg.horizon, math.sqrt(cfg.n_paths)
    m = T / cfg.n_time  # every cell's mass: unit rate, and sigma 1 on the mixed model
    # Poisson paths are deterministic here. A cell increment is -m, whose z
    # sqrt(m N) beats its square's; X(T) and the jump count both miss their
    # targets by T with sd sqrt(T), and X(T) comes first.
    cell = records["sim.cell_moments.poisson"]
    assert cell.se == pytest.approx(math.sqrt(m) / root_n, rel=1e-15)
    assert cell.value == pytest.approx(math.sqrt(m * cfg.n_paths), rel=1e-12)
    terminal = records["sim.sample_moments.poisson"]
    assert terminal.se == pytest.approx(math.sqrt(T) / root_n, rel=1e-15)
    assert terminal.value == pytest.approx(math.sqrt(T * cfg.n_paths), rel=1e-12)
    # on mixed noise the paths are random, but the worst statistic's se is
    # still one of its family's closed forms
    cell_sds = (math.sqrt(m), math.sqrt(m + 2.0 * m * m), math.sqrt(2.0 * m * m))
    mixed = records["sim.cell_moments.mixed"].se * root_n
    assert any(mixed == pytest.approx(sd, rel=1e-14) for sd in cell_sds), mixed
    mixed = records["sim.sample_moments.mixed"].se * root_n
    assert any(mixed == pytest.approx(sd, rel=1e-14) for sd in (math.sqrt(2.0 * T), math.sqrt(T)))


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


@pytest.mark.parametrize("suites_in_turn", [("fock", "malliavin"), ("sim", "chaos")])
def test_run_suite_called_twice_in_one_process_keeps_the_pinned_bytes(
    monkeypatch, suites_in_turn
):
    # the benchmark's algebra and verify-jumps workloads run two suites in one
    # process, each call forking its own pool
    _usable_cpus(monkeypatch, 2)
    for suite in suites_in_turn:
        records = run_suite(RunConfig(suite=suite, **SMALL))
        payload = "".join(json.dumps(r.row(), sort_keys=True) + "\n" for r in records)
        assert sha256(payload.encode()).hexdigest() == REPORT_SHA256[suite], suite
        assert multiprocessing.active_children() == []


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
def test_a_nan_residual_fails_its_record(monkeypatch, residuals):
    # a fresh registry, so the check declared here joins no real suite
    monkeypatch.setattr(suites, "_SUITE_CHECKS", {"fock": []})
    check = suites._residual_family("fock.exp_gram", "identity", "")(
        lambda cfg, rng: iter(residuals)
    )
    assert suites._SUITE_CHECKS == {"fock": [check]}
    (rec,) = check(RunConfig(suite="fock", **SMALL))
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
    """The real per-path values with one path's values replaced by NaN."""

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        out[len(out) // 2] = math.nan
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
    # level 0 stays real, so the first level's residual is a number
    return lambda F: SimpleNamespace(
        kernels=[k if m == 0 else math.nan * k for m, k in enumerate(real(F).kernels)]
    )


def _nan_after(n_real):
    """A fake whose first n_real calls give the real results and later ones
    those times NaN, so the check's first residual is still a number."""

    def build(real):
        calls = []

        def fake(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs) * (1.0 if len(calls) <= n_real else math.nan)

        return fake

    return build


def _nan_errors(real):
    def fake(vals, ens, M):
        proj, se_map = real(vals, ens, M)
        return proj, {n: math.nan for n in se_map}

    return fake


# (check, what the suite imports, fake built from the real one, records that
# must fail); every NaN lands where a plain max fold would drop it
NAN_PROBES = [
    ("_check_exp_gram", [("gram_tail_bound", _nan_after(1))], ["fock.exp_gram"]),
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
    ("_check_q", [("graph_inner", _nan_after(1))], ["fock.q_isometry"]),
    (
        "_check_q_quadrature",
        [("_half_integral", _nan_after(1))],
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
    ("_check_grad_exp_norm", [("exp_vector", _nan_after(1))], ["fock.grad_exp_norm"]),
    ("_check_div_exp_norm", [("exp_vector", _nan_after(1))], ["fock.div_exp_norm"]),
    (
        "_check_chain_power",
        [("iterated_chain", lambda real: lambda fields, ens: math.nan)],
        ["sim.chain_power"],
    ),
    ("_check_euler_order", [("iterated_chain", _nan_path)], ["sim.euler_order"]),
    ("_check_doleans_brownian", [("doleans_exp", _nan_path)], ["sim.doleans_brownian"]),
    ("_check_doleans_poisson", [("doleans_exp", _nan_path)], ["sim.doleans_poisson"]),
    ("_check_doleans_counting", [("doleans_exp", _nan_path)], ["sim.doleans_counting"]),
    (
        "_check_martingale_closed",
        [("exp_martingale_grid", _nan_path)],
        _per_ids("sim.martingale_closed"),
    ),
    (
        "_check_representation",
        [("representation_residual", _nan_path)],
        ["sim.representation"],
    ),
    ("_check_engines", [("chaos_evaluate", _nan_path)], ["chaos.engines"]),
    ("_check_projection", [("project_mc", _nan_errors)], ["chaos.projection"]),
    (
        "_check_eigen_relation",
        [("chaos_gradient", _nan_kernels)],
        ["malliavin.eigen_relation"],
    ),
    ("_check_embed", [("chaos_divergence", _nan_second)], ["malliavin.embed"]),
    (
        "_check_number_chaos",
        [("number_factorization_residual", _nan_after(1))],
        ["malliavin.number_factorization"],
    ),
    ("_check_duality_adjoint", [("chaos_gradient", _nan_after(1))], ["malliavin.duality"]),
    (
        "_check_skorohod_kernel",
        [("ito_skorohod", _nan_ladder)],
        ["malliavin.skorohod_kernel"],
    ),
    ("_check_skorohod_mc", [("chaos_divergence", _nan_second)], ["malliavin.skorohod_mc"]),
    (
        "_check_adapted_ito",
        [("chaos_divergence", _nan_second)],
        _per_ids("malliavin.adapted_ito"),
    ),
    ("_check_split", [("split_divergence", _nan_second)], ["malliavin.split"]),
    (
        "_check_dom_monotone",
        # roof 4's functional is NaN, so the first difference is a number
        [("dom_gradient_functional", _nan_after(2))],
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


# The engine x noise matrix: each engine and the noise types on which an exact
# record checks it route against route, path by path. Filling a cell is an
# edit of this table.
ENGINE_MATRIX = {
    "iterated_chain": {"poisson"},
    "power_integrals": {"poisson"},
    "doleans_exp": {"poisson", "brownian"},
    "exp_martingale_grid": {"poisson", "brownian", "mixed"},
    "chaos_evaluate": {"poisson"},
    "representation_residual": {"poisson"},
    "chaos.divergence": {"poisson", "brownian", "mixed"},
}


def test_the_exact_records_cover_the_engine_noise_matrix():
    matrix = {}
    for fn in suite_checks("all"):
        for engine, model in getattr(fn, "engines", ()):
            matrix.setdefault(engine, set()).add(model)
    assert matrix == ENGINE_MATRIX


def test_a_failing_exact_record_names_its_worst_label_and_path(monkeypatch):
    real = suites.exp_martingale_grid

    def off_on_brownian(u, ens):
        out = real(u, ens)
        if not ens.grid.model.atoms:
            out[5, -1] += 1.0
        return out

    monkeypatch.setattr(suites, "exp_martingale_grid", off_on_brownian)
    records = suites._check_martingale_closed(RunConfig(**SMALL))
    assert [r.status for r in records] == ["pass", "fail", "pass"]
    assert records[1].note.endswith("400 paths; worst: horizon, path 5")
    assert all("worst" not in r.note for r in (records[0], records[2]))


def test_a_failing_scalar_gap_names_no_path(monkeypatch):
    monkeypatch.setattr(suites, "chaos_divergence", _nan_second(suites.chaos_divergence))
    records = suites._check_adapted_ito(RunConfig(**SMALL))
    assert all(r.note.endswith("paths; worst: dropped mass") for r in records)
