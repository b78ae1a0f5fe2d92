"""Check suites behind the command-line verifier.

Four suites (fock, sim, chaos, malliavin) mirror the library's contract: the
algebraic suites measure worst-case residuals over seeded random trials, the
simulation suites measure Monte Carlo z-scores against exact targets.  Every
record's random stream is derived from (config seed, record id) so reruns are
bit-identical and records can be reproduced in isolation.

A check is a function of the config that returns its records. Decorating it
with @_registered("<suite>.<name>") appends it to that suite, so a suite runs
its checks in definition order. A Monte Carlo family is declared once: its
stats(model, grid, ens) generator yields per-path values and their targets,
and decorating it with @_mc_family("<suite>.<name>", note) registers the check
that draws, evaluates and reduces it in path blocks, one record per model. A
check over seeded random trials returns _trials(...). Every check turns many
residuals into one value with _worst_of (z-scores with their standard errors:
_worst), so a NaN residual is kept and fails its record; per-path relative
errors go through _rel_gap, and every other ensemble is drawn by _ensemble
from the record's own stream.

A guard-rail breach inside a check becomes a failing record, not a crash;
anything else propagating out of a check is a bug and is allowed to surface.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import time
import warnings
from hashlib import sha256
from io import StringIO

import numpy as np

from .chaos import (
    ChaosCoefficients,
    MarkedChaos,
    bn_split,
    chaos_evaluate,
    divergence as chaos_divergence,
    dom_divergence_functional,
    dom_gradient_functional,
    embed_chaos,
    embed_marked,
    gradient as chaos_gradient,
    ito_skorohod_chaos,
    load_chaos,
    number_factorization_residual,
    ou_semigroup,
    project_mc,
    save_chaos,
    sobolev_scale as chaos_sobolev_scale,
)
from .config import RunConfig
from .dense import isometry_residual, lower_matrix, operator_norm, raise_matrix
from .exponential import (
    ExpCombo,
    exp_gram,
    exp_shift,
    pair_map,
    pair_merge,
)
from .fock import (
    FockVector,
    MarkedFock,
    annihilate,
    create,
    divergence as fock_divergence,
    exp_tail_bound,
    exp_vector,
    gradient as fock_gradient,
    gram_tail_bound,
    graph_inner,
    ito_skorohod,
    number_apply,
    sobolev_scale,
    split as fock_split,
    split_divergence,
    split_gradient,
)
from .indices import GuardLimitError, _table_cache, level_dim, raise_maps
from .integrals import (
    doleans_exp,
    exp_martingale_grid,
    iterated_chain,
    power_integrals,
    representation_residual,
)
from .levy import (
    CellGrid,
    StepField,
    brownian_preset,
    cell_increments,
    poisson_preset,
    sample_ensemble,
    terminal_value,
)
from .montecarlo import summarize
from .reporting import CheckRecord, usable_cpus

__all__ = ["run_suite", "suite_checks"]


# ---------------------------------------------------------------------------
# shared plumbing


def _check_seed(seed: int, check_id: str) -> int:
    digest = sha256(f"{seed}:{check_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _trial_rng(cfg: RunConfig, check_id: str) -> np.random.Generator:
    return np.random.default_rng(_check_seed(cfg.seed, check_id))


def _make_record(check_id, value, expected, tolerance, se=None, note="") -> CheckRecord:
    gap = abs(complex(value) - complex(expected))
    status = "pass" if gap <= tolerance else "fail"
    return CheckRecord(check_id, status, value, expected, tolerance, se=se, note=note)


def _zscore(stat, target) -> float:
    gap = abs(stat.mean - target)
    if stat.se == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return float(gap / stat.se)


def _nan_high(x: float) -> tuple[bool, float]:
    """Sort key under which NaN outranks every number, so a max keeps it."""
    return (math.isnan(x), x)


def _worst_of(values) -> float:
    """Largest of 0.0 and the values; the first NaN if there is one."""
    return max((0.0, *values), key=_nan_high)


def _worst(stats) -> tuple[float, float | None]:
    """Largest z in a list of (z, se) pairs; the first NaN z if there is one."""
    if not stats:
        return 0.0, None
    return max(stats, key=lambda t: _nan_high(t[0]))


def _rel_gap(got, want) -> float:
    """Largest per-path |got - want| relative to max(1, |want|)."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _ensemble(cfg: RunConfig, check_id: str, model, n_time: int, n_paths: int):
    """(grid, ensemble) of n_paths paths on an n_time grid from check_id's stream."""
    grid = CellGrid(model, n_time)
    return grid, sample_ensemble(model, grid, _check_seed(cfg.seed, check_id), n_paths)


def _unit_modes(rng, d: int, lo: float = 0.2, hi: float = 1.5) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        v[0] = 1.0
        nrm = 1.0
    return v * (rng.uniform(lo, hi) / nrm)


@_table_cache
def _draw_plan(shapes: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """(order, bounds): one draw of levels of these shapes, interleaved as complex.

    The draw holds each level's real part, then its imaginary part, level by
    level. Gathered through the read-only order, it reads as complex values,
    and level n is [bounds[n], bounds[n + 1]) of them.
    """
    sizes = [math.prod(shape) for shape in shapes]
    bounds = tuple(np.cumsum([0] + sizes).tolist())
    order = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [np.arange(2 * lo, 2 * hi).reshape(2, -1).T.ravel() for lo, hi in zip(bounds, bounds[1:])]
    )
    return order, bounds


def _random_levels(rng, cls, space, truncation: int, zero_top: int = 0, scale=None):
    """A cls value with standard complex normal levels, times a real scale if given.

    One draw serves every level: per level the real part comes before the
    imaginary part. The top zero_top levels stay zero and draw nothing, and
    the drawn levels are views of one buffer. Each part is scaled on its own,
    which gives the bits of scale * (re + 1j * im): the zero products of
    those complex operations vanish on nonzero draws.
    """
    shapes = cls._shapes(space, truncation)[: max(0, truncation + 1 - zero_top)]
    order, bounds = _draw_plan(shapes)
    values = rng.standard_normal(order.size)[order]
    if scale is not None:
        values *= scale
    z = values.view(np.complex128)
    levels = [z[bounds[n] : bounds[n + 1]].reshape(shape) for n, shape in enumerate(shapes)]
    return cls(space, truncation, levels + [None] * (truncation + 1 - len(shapes)))


def _profile_a(K: int) -> np.ndarray:
    k = np.arange(K)
    return (
        0.55
        + 0.35 * np.cos(2 * np.pi * k / K)
        + 0.15j * np.sin(2 * np.pi * k / K)
    )


def _profile_b(K: int) -> np.ndarray:
    k = np.arange(K)
    return (
        0.45
        - 0.25 * np.sin(2 * np.pi * k / K)
        + 0.2j * np.cos(4 * np.pi * k / K)
    )


def _profile_real(K: int, base: float = 0.7, amp: float = 0.25) -> np.ndarray:
    return base + amp * np.cos(2 * np.pi * np.arange(K) / K)


def _profile_winding(K: int) -> np.ndarray:
    # phase winds 5 turns so high-order jump products stay incoherent;
    # with a near-constant phase the tail estimator is rare-event dominated
    return _profile_a(K) * np.exp(2j * np.pi * 5 * np.arange(K) / K)


def _field_profiles(grid: CellGrid, prof: np.ndarray) -> StepField:
    """Same time profile on every bin column."""
    vals = np.repeat(np.asarray(prof, dtype=np.complex128)[:, None], grid.n_bins, axis=1)
    return StepField(grid, vals)


def _series_tail(x: float, roof: int) -> float:
    """sum_{n > roof} x^n / n! via the public tail helper."""
    return exp_tail_bound(np.array([math.sqrt(x)]), roof)


_SUITE_CHECKS = {"fock": [], "sim": [], "chaos": [], "malliavin": []}


def _registered(check_id: str):
    """Tag a check with its id and append it to the suite its id names."""

    def deco(fn):
        fn.check_id = check_id
        _SUITE_CHECKS[check_id.split(".")[0]].append(fn)
        return fn

    return deco


# values per Monte Carlo block (paths x grid cells): 10 000 paths on a 64-cell grid
_BLOCK_VALUES = 640_000


def _mc_family(family: str, note, models=("poisson", "brownian", "mixed")):
    """Register the Monte Carlo check `family` built on the decorated
    stats(model, grid, ens) generator, and return the check.

    The check makes one mc_sigmas record per model, id f"{family}.{model}":
    the worst z over the (per-path values, target) pairs that stats yields,
    the first one on a tie. note is a string or a function of (cfg, grid); a
    failing record whose worst statistic has non-finite samples says how many.

    The paths are drawn, evaluated and kept in blocks of consecutive paths;
    each statistic's values are joined in path order and summarized once, so
    the record does not depend on the block size."""

    def deco(stats):
        @_registered(family)
        def check(cfg: RunConfig) -> list[CheckRecord]:
            by_name = cfg.models()
            records = []
            for name in models:
                model = by_name[name]
                check_id = f"{family}.{name}"
                grid = CellGrid(model, cfg.n_time)
                seed = _check_seed(cfg.seed, check_id)
                step = max(1, _BLOCK_VALUES // grid.n_cells)
                blocks = []
                for lo in range(0, cfg.n_paths, step):
                    n = min(step, cfg.n_paths - lo)
                    ens = sample_ensemble(model, grid, seed, n, first=lo)
                    # copies, so a column view does not keep the block's arrays alive
                    blocks.append([(np.array(v), t) for v, t in stats(model, grid, ens)])
                pairs = []
                for col in zip(*blocks):
                    stat = summarize(np.concatenate([v for v, _ in col]))
                    pairs.append((_zscore(stat, col[0][1]), stat.se))
                worst = _worst(pairs)
                record = _make_record(
                    check_id,
                    worst[0],
                    0.0,
                    cfg.tolerances["mc_sigmas"],
                    se=worst[1],
                    note=note(cfg, grid) if callable(note) else note,
                )
                if not record.passed:
                    # the worst pair is the first one equal to it, as _worst picks it
                    k = pairs.index(worst)
                    bad = sum(int(np.count_nonzero(~np.isfinite(b[k][0]))) for b in blocks)
                    if bad:
                        total = sum(b[k][0].size for b in blocks)
                        record.note += f"; {bad} of {total} samples non-finite"
                records.append(record)
            return records

        return check

    return deco


def _trials(
    cfg: RunConfig, check_id: str, n: int, residual, tol: str, note: str
) -> list[CheckRecord]:
    """The check's one record: the worst residual(rng) over n trials drawn from
    the check's own stream. A NaN residual is kept, so the record fails."""
    rng = _trial_rng(cfg, check_id)
    worst = _worst_of(residual(rng) for _ in range(n))
    return [_make_record(check_id, worst, 0.0, cfg.tolerances[tol], note=note)]


# ---------------------------------------------------------------------------
# fock suite


@_registered("fock.exp_gram")
def _check_exp_gram(cfg: RunConfig):
    roof = 30

    def residual(rng):
        d = int(rng.integers(1, 5))
        f = _unit_modes(rng, d, 0.1, 1.5)
        g = _unit_modes(rng, d, 0.1, 1.5)
        approx = exp_vector(f, roof).inner(exp_vector(g, roof))
        exact = complex(np.exp(np.vdot(f, g)))
        allowed = gram_tail_bound(f, g, roof) + 1e-12 * (1.0 + abs(exact))
        return abs(approx - exact) / allowed

    return _trials(
        cfg,
        "fock.exp_gram",
        200,
        residual,
        "gram_ratio",
        "worst kernel error over (tail bound + float allowance), 200 trials, roof 30",
    )


@_registered("fock.ccr")
def _check_ccr(cfg: RunConfig):
    d, M = cfg.d, max(cfg.truncation, 3)

    def residual(rng):
        psi = _random_levels(rng, FockVector, d, M, zero_top=2)
        f = _unit_modes(rng, d)
        g = _unit_modes(rng, d)
        raised, spill = create(g, psi)
        left = annihilate(f, raised)
        right, _ = create(g, annihilate(f, psi))
        comm = left - right - psi * complex(np.vdot(f, g))
        return _worst_of((comm.norm() / psi.norm(), spill))

    return _trials(
        cfg,
        "fock.ccr",
        200,
        residual,
        "algebraic",
        f"commutator residual / norm, 200 trials, d={d}, roof {M}",
    )


@_registered("fock.ladder_norms")
def _check_ladder_norms(cfg: RunConfig):
    nmax = min(cfg.max_degree, 6)
    pairs = [(d, n) for d in (2, 3, 4) for n in range(1, nmax + 1)]
    worst_low = _worst_of(
        abs(operator_norm(lower_matrix(d, n)) - math.sqrt(n)) for d, n in pairs
    )
    worst_up = _worst_of(
        abs(operator_norm(raise_matrix(d, n)) - math.sqrt(n + 1)) for d, n in pairs
    )
    worst_iso = _worst_of(
        isometry_residual(lower_matrix(d, n) / np.sqrt(n)) for d, n in pairs
    )
    spectral = cfg.tolerances["spectral"]
    span = f"d in 2..4, n <= {nmax}, dense SVD"
    return [
        _make_record("fock.lower_norm", worst_low, 0.0, spectral, note=span),
        _make_record("fock.raise_norm", worst_up, 0.0, spectral, note=span),
        _make_record(
            "fock.isometry",
            worst_iso,
            0.0,
            cfg.tolerances["algebraic"],
            note="unitarity residual of the normalized lowering map, " + span,
        ),
    ]


@_registered("fock.number_factorization")
def _check_number_factorization(cfg: RunConfig):
    d, M = cfg.d, cfg.truncation

    def residual(rng):
        psi = _random_levels(rng, FockVector, d, M)
        assembled, dropped = fock_divergence(fock_gradient(psi))
        return _worst_of(((assembled - number_apply(psi)).norm() / psi.norm(), dropped))

    return _trials(
        cfg,
        "fock.number_factorization",
        100,
        residual,
        "algebraic",
        "divergence(gradient) vs number operator, 100 random vectors",
    )


def _half_integral(n: int) -> float:
    """(1/sqrt(pi)) * integral over t > 0 of exp(-t (1 + n)) / sqrt(t), numerically.

    With t = u**2 the integral is 2 * integral over u > 0 of exp(-(1 + n) u**2),
    a Gaussian, on which the trapezoid rule converges spectrally: step 0.05
    over 2000 nodes (to u = 100) leaves only rounding error for n <= 6.
    """
    h = 0.05
    f = np.exp(-(1.0 + n) * np.square(h * np.arange(2000)))
    return 2.0 * h * (float(f.sum()) - 0.5 * float(f[0])) / math.sqrt(math.pi)


@_registered("fock.q_isometry")
def _check_q(cfg: RunConfig):
    d, M = cfg.d, cfg.truncation

    def residual(rng):
        psi = _random_levels(rng, FockVector, d, M)
        phi = _random_levels(rng, FockVector, d, M)
        plain = psi.inner(phi)
        scaled = graph_inner(sobolev_scale(psi), sobolev_scale(phi))
        return abs(scaled - plain) / max(1.0, abs(plain))

    nmax = min(cfg.max_degree, 6)
    return _trials(
        cfg,
        "fock.q_isometry",
        100,
        residual,
        "algebraic",
        "graph inner of scaled pair vs plain inner, 100 random pairs",
    ) + [
        _make_record(
            "fock.q_quadrature",
            _worst_of(
                abs(_half_integral(n) - 1.0 / math.sqrt(1.0 + n)) for n in range(nmax + 1)
            ),
            0.0,
            cfg.tolerances["quadrature"],
            note=f"half-integral quadrature identity for the scale weights, n <= {nmax}",
        )
    ]


@_registered("fock.ito_skorohod")
def _check_ito_skorohod(cfg: RunConfig):
    rng = _trial_rng(cfg, "fock.ito_skorohod")
    d, M = cfg.d, cfg.truncation
    idents = [
        ito_skorohod(
            _random_levels(rng, MarkedFock, d, M, zero_top=1),
            _random_levels(rng, MarkedFock, d, M, zero_top=1),
        )
        for _ in range(200)
    ]
    return [
        _make_record(
            "fock.ito_skorohod",
            _worst_of(abs(s.lhs - s.rhs) / max(1.0, abs(s.lhs)) for s in idents),
            0.0,
            cfg.tolerances["identity"],
            note="divergence pairing vs base + exchange, 200 truncation-safe pairs",
        ),
        _make_record(
            "fock.contraction",
            _worst_of(
                (dn * dn - gn * gn) / max(1.0, gn * gn)
                for s in idents
                for dn, gn in zip(s.div_norms, s.graph_norms)
            ),
            0.0,
            cfg.tolerances["algebraic"],
            note="positive part of ||divergence||^2 - graph norm^2 over the same pairs",
        ),
    ]


@_registered("fock.exp_adjunction")
def _check_exp_adjunction(cfg: RunConfig):
    d = cfg.d

    def residual(rng):
        f = _unit_modes(rng, d)
        g = _unit_modes(rng, d)
        h = _unit_modes(rng, d)
        t = float(rng.uniform(-1.5, 1.5))
        cf = ExpCombo.single(f)
        cg = ExpCombo.single(g)
        cgh = ExpCombo.single(g, h)
        lhs = exp_gram(pair_map(t, cf), cgh)
        rhs = exp_gram(cf, pair_merge(t, cgh))
        closed = complex(np.exp(np.vdot(f, g) + t * np.vdot(f, h)))
        scale = max(1.0, abs(closed))
        lhs2 = exp_gram(exp_shift(h, cf, adjoint=True), cg)
        rhs2 = exp_gram(cf, exp_shift(h, cg))
        return _worst_of(
            (
                abs(lhs - rhs) / scale,
                abs(lhs - closed) / scale,
                abs(lhs2 - rhs2) / max(1.0, abs(lhs2)),
            )
        )

    return _trials(
        cfg,
        "fock.exp_adjunction",
        100,
        residual,
        "algebraic",
        "pairing and shift adjunctions vs kernel closed form, 100 random (f,g,h,t)",
    )


# ---------------------------------------------------------------------------
# sim suite


def _probe_cells(grid: CellGrid) -> list[int]:
    return sorted({0, grid.n_cells // 2, grid.n_cells - 1})


@_mc_family(
    "sim.cell_moments",
    lambda cfg, grid: f"max |z| over mean and second moment at cells "
    f"{_probe_cells(grid)}, {cfg.n_paths} paths",
)
def _cell_moments(model, grid, ens):
    inc = cell_increments(ens)
    for ci in _probe_cells(grid):
        yield inc[:, ci], 0.0
        yield inc[:, ci] ** 2, grid.cell_masses[ci]


@_mc_family(
    "sim.characteristic",
    "max |z| of the terminal characteristic function at u in {0.5, 1, 2}",
)
def _characteristic(model, grid, ens):
    x = terminal_value(ens)
    for u in (0.5, 1.0, 2.0):
        target = complex(np.exp(-model.horizon * model.symbol(u)))
        yield np.exp(1j * u * x), target


@_mc_family("sim.sample_moments", "max |z| over terminal mean and total jump count")
def _sample_moments(model, grid, ens):
    yield terminal_value(ens), model.mean_slope * model.horizon
    rate = sum(lam for _, lam in model.atoms) * model.horizon
    yield np.diff(ens.offsets).astype(float), rate


@_registered("sim.chain_power")
def _check_chain_power(cfg: RunConfig):
    check_id = "sim.chain_power"
    n_paths = min(cfg.n_paths, 400)
    grid, ens = _ensemble(
        cfg, check_id, poisson_preset(1.0, cfg.horizon), cfg.n_time, n_paths
    )
    field = StepField.from_columns(grid, bins={1: _profile_a(cfg.n_time)})
    powers = power_integrals(field, 3, ens)

    def gap(n):
        chain = iterated_chain([field] * n, ens)
        scale = max(1.0, float(np.abs(powers[:, n]).max()))
        return float(np.abs(powers[:, n] - math.factorial(n) * chain).max()) / scale

    return [
        _make_record(
            check_id,
            _worst_of(gap(n) for n in (1, 2, 3)),
            0.0,
            cfg.tolerances["pathwise"],
            note=f"multiple vs n! * simplex integrals, pure jump, n <= 3, {n_paths} paths",
        )
    ]


@_registered("sim.euler_order")
def _check_euler_order(cfg: RunConfig):
    check_id = "sim.euler_order"
    model = brownian_preset(cfg.horizon)
    n_paths = min(cfg.n_paths, 20_000)
    gaps = []
    for K in (8, 16, 32, 64):
        grid, ens = _ensemble(cfg, f"{check_id}.{K}", model, K, n_paths)
        field = StepField.from_columns(grid, diffusion=np.ones(K))
        j2 = iterated_chain([field, field], ens)
        b1 = terminal_value(ens)
        gap = 2.0 * j2 - (b1**2 - cfg.horizon)
        gaps.append(float(np.mean(np.abs(gap) ** 2)))
    slopes = [math.log2(gaps[i] / gaps[i + 1]) for i in range(len(gaps) - 1)]
    slope = sum(slopes) / len(slopes)
    return [
        _make_record(
            check_id,
            slope,
            1.0,
            cfg.tolerances["euler_slope"],
            note="mean-square gap to the degree-2 polynomial oracle, slope in the "
            "step size over 8/16/32/64 substeps",
        )
    ]


@_registered("sim.doleans_closed")
def _check_doleans_closed(cfg: RunConfig):
    records = []
    K = cfg.n_time
    n_paths = min(cfg.n_paths, 2000)

    grid, ens = _ensemble(
        cfg, "sim.doleans_brownian", brownian_preset(cfg.horizon), K, n_paths
    )
    prof = _profile_real(K, base=0.8, amp=0.5)
    field = StepField.from_columns(grid, diffusion=prof)
    vals = doleans_exp(field, ens)
    ito = ens.brownian @ prof
    oracle = np.exp(ito - 0.5 * float(np.sum(prof**2)) * grid.dt)
    records.append(
        _make_record(
            "sim.doleans_brownian",
            _rel_gap(vals, oracle),
            0.0,
            cfg.tolerances["algebraic"],
            note=f"exponential of the diffusion integral minus half the energy, "
            f"{n_paths} paths",
        )
    )

    model = poisson_preset(1.0, cfg.horizon)
    grid, ens = _ensemble(cfg, "sim.doleans_poisson", model, K, n_paths)
    prof = _profile_b(K)
    field = StepField.from_columns(grid, bins={1: prof})
    vals = doleans_exp(field, ens)
    base = np.exp(-float(grid.bin_rates[0]) * np.sum(prof) * grid.dt)
    oracle = np.empty(n_paths, dtype=np.complex128)
    jump_cells, offsets = ens.jump_cells, ens.offsets
    for i in range(n_paths):
        cells = jump_cells[offsets[i] : offsets[i + 1]]
        oracle[i] = base * (np.prod(1.0 + prof[cells]) if cells.size else 1.0)
    records.append(
        _make_record(
            "sim.doleans_poisson",
            _rel_gap(vals, oracle),
            0.0,
            cfg.tolerances["algebraic"],
            note="compensator exponential times the jump product, per path",
        )
    )

    grid, ens = _ensemble(cfg, "sim.doleans_counting", model, K, n_paths)
    ones = StepField.from_columns(grid, bins={1: np.ones(K)})
    vals = doleans_exp(ones, ens)
    counts = np.diff(ens.offsets)
    oracle = 2.0**counts * math.exp(-float(grid.bin_rates[0]) * cfg.horizon)
    records.append(
        _make_record(
            "sim.doleans_counting",
            _rel_gap(vals, oracle),
            0.0,
            cfg.tolerances["algebraic"],
            note="unit jump field: doubling per jump times the compensator decay",
        )
    )
    return records


@_mc_family(
    "sim.doleans_martingale",
    "unit mean of the stochastic exponential at the horizon and midway",
)
def _doleans_martingale(model, grid, ens):
    K = grid.n_time
    prof = 0.8 * _profile_a(K)
    half_prof = prof.copy()
    half_prof[K // 2 :] = 0.0
    yield doleans_exp(_field_profiles(grid, prof), ens), 1.0
    yield doleans_exp(_field_profiles(grid, half_prof), ens), 1.0


@_mc_family(
    "sim.exp_martingale",
    "unit mean of the symbol-compensated exponential at the horizon and midway",
)
def _exp_martingale(model, grid, ens):
    mart = exp_martingale_grid(_profile_real(grid.n_time), ens)
    yield mart[:, -1], 1.0
    yield mart[:, grid.n_time // 2], 1.0


@_registered("sim.martingale_closed")
def _check_martingale_closed(cfg: RunConfig):
    u = 0.7
    n_paths = min(cfg.n_paths, 2000)
    records = []
    for name, model in cfg.models().items():
        check_id = f"sim.martingale_closed.{name}"
        _, ens = _ensemble(cfg, check_id, model, cfg.n_time, n_paths)
        mart = exp_martingale_grid(np.full(cfg.n_time, u), ens)
        closed = np.exp(1j * u * terminal_value(ens) + model.horizon * model.symbol(u))
        records.append(
            _make_record(
                check_id,
                _rel_gap(mart[:, -1], closed),
                0.0,
                cfg.tolerances["pathwise"],
                note=f"martingale at the horizon vs exp(i u X(T) + T eta(u)), "
                f"constant u = {u}, {n_paths} paths",
            )
        )
    return records


@_registered("sim.representation")
def _check_representation(cfg: RunConfig):
    check_id = "sim.representation"
    n_paths = min(cfg.n_paths, 300)
    _, ens = _ensemble(
        cfg, check_id, poisson_preset(1.0, cfg.horizon), cfg.n_time, n_paths
    )
    prof = _profile_real(cfg.n_time, base=0.6, amp=0.3)
    return [
        _make_record(
            check_id,
            _worst_of(representation_residual(prof, ens).tolist()),
            0.0,
            cfg.tolerances["pathwise"],
            note=f"martingale representation residual, pure jump, {n_paths} paths",
        )
    ]


# ---------------------------------------------------------------------------
# chaos suite


@_mc_family(
    "chaos.orthogonality",
    lambda cfg, grid: f"max |z| over order pairs m,n <= 3, {cfg.n_paths} paths",
    models=("poisson", "brownian"),
)
def _orthogonality(model, grid, ens):
    fa = _field_profiles(grid, _profile_a(grid.n_time))
    fb = _field_profiles(grid, _profile_b(grid.n_time))
    pa = power_integrals(fa, 3, ens)
    pb = power_integrals(fb, 3, ens)
    ip = complex(fa.inner(fb))
    for m in range(4):
        for n in range(4):
            target = math.factorial(n) * ip**n if m == n else 0.0
            yield np.conj(pa[:, m]) * pb[:, n], target


@_mc_family(
    "chaos.duality_tail",
    "L2 distance to the truncated chaos sum vs the exact series tail, roofs 2..4",
    models=("poisson", "brownian"),
)
def _duality_tail(model, grid, ens):
    field = _field_profiles(grid, 0.9 * _profile_winding(grid.n_time))
    big = doleans_exp(field, ens)
    powers = power_integrals(field, 4, ens)
    energy = field.norm_sq()
    for roof in (2, 3, 4):
        partial = sum(powers[:, n] / math.factorial(n) for n in range(roof + 1))
        dist = np.abs(big - partial) ** 2
        yield dist, _series_tail(energy, roof)


@_registered("chaos.engines")
def _check_engines(cfg: RunConfig):
    check_id = "chaos.engines"
    Kc = cfg.chaos_n_time
    grid, ens = _ensemble(
        cfg, check_id, poisson_preset(1.0, cfg.horizon), Kc, min(cfg.n_paths, 2000)
    )
    M = min(cfg.chaos_truncation, 3)
    field1 = StepField.from_columns(grid, bins={1: _profile_a(Kc)})
    field2 = StepField.from_columns(grid, bins={1: _profile_b(Kc)})
    F = ChaosCoefficients.doleans(field1, M) + 0.7 * ChaosCoefficients.from_power(
        field2, 2, M
    )
    fast = chaos_evaluate(F, ens)
    dense = F.copy()
    dense.source = None
    return [
        _make_record(
            check_id,
            _rel_gap(fast, chaos_evaluate(dense, ens)),
            0.0,
            cfg.tolerances["pathwise"],
            note="generating-series route vs dense occupation route, per path",
        )
    ]


@_registered("chaos.projection")
def _check_projection(cfg: RunConfig):
    check_id = "chaos.projection"
    grid, ens = _ensemble(
        cfg, check_id, poisson_preset(1.0, cfg.horizon), cfg.chaos_n_time, cfg.n_paths
    )
    M = 2
    field = StepField.from_columns(grid, bins={1: _profile_b(cfg.chaos_n_time)})
    F = ChaosCoefficients.doleans(field, M)
    proj, se_map = project_mc(chaos_evaluate(F, ens), ens, M)

    def z_se(n):
        err = float(np.max(np.abs(proj.kernels[n] - F.kernels[n]), initial=0.0))
        se = max(se_map[n], 1e-15)
        return err / se, se

    worst, worst_se = _worst([z_se(n) for n in range(M + 1)])
    return [
        _make_record(
            check_id,
            worst,
            0.0,
            cfg.tolerances["mc_sigmas"],
            se=worst_se,
            note="kernel recovery by correlation against per-order worst standard error",
        )
    ]


@_registered("chaos.serialization")
def _check_serialization(cfg: RunConfig):
    check_id = "chaos.serialization"
    rng = _trial_rng(cfg, check_id)
    model = poisson_preset(1.0, cfg.horizon)
    grid = CellGrid(model, cfg.chaos_n_time)
    M = min(cfg.chaos_truncation, 3)
    F = _random_levels(rng, ChaosCoefficients, grid, M, scale=0.5)
    buf = StringIO()
    save_chaos(F, buf)
    text = buf.getvalue()
    back = load_chaos(StringIO(text), grid)
    exact = all(
        np.array_equal(a, b) for a, b in zip(F.kernels, back.kernels)
    )
    tampered = text.replace("term 0 - ", "term 0 -  ", 1)
    caught_tamper = False
    try:
        load_chaos(StringIO(tampered), grid)
    except ValueError:
        caught_tamper = True
    other = CellGrid(model, cfg.chaos_n_time * 2)
    caught_grid = False
    try:
        load_chaos(StringIO(text), other)
    except ValueError:
        caught_grid = True
    ok = exact and caught_tamper and caught_grid
    return [
        _make_record(
            check_id,
            0.0 if ok else 1.0,
            0.0,
            0.0,
            note="text round trip exact; tampered payload and foreign grid rejected",
        )
    ]


# ---------------------------------------------------------------------------
# malliavin suite


@_registered("malliavin.eigen_relation")
def _check_eigen_relation(cfg: RunConfig):
    check_id = "malliavin.eigen_relation"
    model = poisson_preset(1.0, cfg.horizon)
    grid = CellGrid(model, cfg.chaos_n_time)
    M = cfg.chaos_truncation
    field = StepField.from_columns(grid, bins={1: _profile_a(cfg.chaos_n_time)})
    F = ChaosCoefficients.doleans(field, M)
    G = chaos_gradient(F)
    fc = field.cell_values()
    scale = max(1.0, _worst_of(float(np.abs(k).max(initial=0.0)) for k in F.kernels))
    worst = _worst_of(
        float(np.abs(G.kernels[m] - F.kernels[m][:, None] * fc[None, :]).max(initial=0.0))
        / scale
        for m in range(M)
    )
    return [
        _make_record(
            check_id,
            worst,
            0.0,
            cfg.tolerances["algebraic"],
            note="derivative of the exponential functional is the profile times itself, "
            "kernel level; the top order sits above the truncation roof",
        )
    ]


@_registered("malliavin.embed")
def _check_embed(cfg: RunConfig):
    grid = CellGrid(cfg.mixed_model(), cfg.chaos_n_time)
    M = min(cfg.chaos_truncation, 3)

    def residual(rng):
        C = _random_levels(rng, ChaosCoefficients, grid, M, scale=0.5)
        D = _random_levels(rng, ChaosCoefficients, grid, M, scale=0.5)
        psi = embed_chaos(C)
        chi = embed_chaos(D)
        pair = C.inner(D)
        grad = fock_gradient(psi)
        u = _random_levels(rng, MarkedChaos, grid, M, scale=0.5)
        div_c, drop_c = chaos_divergence(u)
        div_f, drop_f = fock_divergence(embed_marked(u))
        return _worst_of(
            (
                abs(psi.inner(chi) - pair) / max(1.0, abs(pair)),
                (embed_marked(chaos_gradient(C)) - grad).norm() / max(1.0, grad.norm()),
                (embed_chaos(div_c) - div_f).norm() / max(1.0, div_f.norm()),
                abs(drop_c - drop_f) / max(1.0, drop_f),
            )
        )

    return _trials(
        cfg,
        "malliavin.embed",
        40,
        residual,
        "algebraic",
        "embedding intertwines inner products, derivative, divergence and "
        "dropped mass, 40 random draws",
    )


@_registered("malliavin.number_factorization")
def _check_number_chaos(cfg: RunConfig):
    grid = CellGrid(poisson_preset(1.0, cfg.horizon), cfg.chaos_n_time)
    M = min(cfg.chaos_truncation, 4)

    def residual(rng):
        C = _random_levels(rng, ChaosCoefficients, grid, M, scale=0.5)
        return number_factorization_residual(C) / max(1.0, C.norm())

    return _trials(
        cfg,
        "malliavin.number_factorization",
        100,
        residual,
        "algebraic",
        "divergence of the derivative equals the number operator, 100 draws",
    )


@_registered("malliavin.duality")
def _check_duality_adjoint(cfg: RunConfig):
    grid = CellGrid(poisson_preset(1.0, cfg.horizon), cfg.chaos_n_time)
    M = min(cfg.chaos_truncation, 3)

    def residual(rng):
        u = _random_levels(rng, MarkedChaos, grid, M, scale=0.5)
        F = _random_levels(rng, ChaosCoefficients, grid, M, scale=0.5)
        div, _ = chaos_divergence(u)
        lhs = div.inner(F)
        rhs = u.inner(chaos_gradient(F))
        return abs(lhs - rhs) / max(1.0, abs(lhs))

    return _trials(
        cfg,
        "malliavin.duality",
        100,
        residual,
        "identity",
        "divergence pairing vs process pairing with the derivative, "
        "100 random pairs",
    )


def _lift_marked(u: MarkedChaos) -> MarkedChaos:
    """Add one zero marked order so the divergence keeps everything."""
    grid, M = u.grid, u.truncation
    c = grid.n_cells
    top = np.zeros((level_dim(c, M + 1), c), dtype=np.complex128)
    return MarkedChaos(grid, M + 1, [k.copy() for k in u.kernels] + [top])


@_registered("malliavin.skorohod_kernel")
def _check_skorohod_kernel(cfg: RunConfig):
    grid = CellGrid(poisson_preset(1.0, cfg.horizon), cfg.chaos_n_time)
    M = min(cfg.chaos_truncation, 3)

    def residual(rng):
        u = _random_levels(rng, MarkedChaos, grid, M, scale=0.5)
        v = _random_levels(rng, MarkedChaos, grid, M, scale=0.5)
        sk = ito_skorohod_chaos(u, v)
        ladder = ito_skorohod(embed_marked(_lift_marked(u)), embed_marked(_lift_marked(v)))
        scale = max(1.0, abs(sk.lhs))
        return _worst_of(
            (
                sk.defect / scale,
                abs(sk.lhs - ladder.lhs) / scale,
                abs(sk.rhs - ladder.rhs) / scale,
            )
        )

    return _trials(
        cfg,
        "malliavin.skorohod_kernel",
        100,
        residual,
        "spectral",
        "kernel route vs abstract ladder route, both sides, 100 random pairs",
    )


@_registered("malliavin.skorohod_mc")
def _check_skorohod_mc(cfg: RunConfig):
    check_id = "malliavin.skorohod_mc"
    rng = _trial_rng(cfg, check_id)
    grid, ens = _ensemble(
        cfg, check_id, poisson_preset(1.0, cfg.horizon), cfg.chaos_n_time, cfg.n_paths
    )
    M = 2
    u = _random_levels(rng, MarkedChaos, grid, M, scale=0.4)
    v = _random_levels(rng, MarkedChaos, grid, M, scale=0.4)
    target = ito_skorohod_chaos(u, v).lhs
    du, drop_u = chaos_divergence(_lift_marked(u))
    dv, drop_v = chaos_divergence(_lift_marked(v))
    stat = summarize(np.conj(chaos_evaluate(du, ens)) * chaos_evaluate(dv, ens))
    return [
        _make_record(
            check_id,
            _worst_of((_zscore(stat, target), drop_u, drop_v)),
            0.0,
            cfg.tolerances["mc_sigmas"],
            se=stat.se,
            note="sample mean of the divergence pairing vs the kernel identity, "
            f"{cfg.n_paths} paths",
        )
    ]


@_registered("malliavin.adapted_ito")
def _check_adapted_ito(cfg: RunConfig):
    check_id = "malliavin.adapted_ito"
    n_paths = min(cfg.n_paths, 1000)
    grid, ens = _ensemble(
        cfg, check_id, poisson_preset(1.0, cfg.horizon), cfg.chaos_n_time, n_paths
    )
    c = grid.n_cells
    g = _profile_a(c)
    h = _profile_b(c)
    # level-one row of each cell: the vacuum raised by that cell
    row_of_cell = raise_maps(c, 0)[0][0]
    k1 = np.zeros((level_dim(c, 1), c), dtype=np.complex128)
    for s in range(c):
        before = grid.cell_time < grid.cell_time[s]
        k1[row_of_cell[before], s] = h[s] * g[before]
    u = MarkedChaos(grid, 1, [np.zeros((1, c), dtype=np.complex128), k1])
    du, dropped = chaos_divergence(_lift_marked(u))
    inc = cell_increments(ens)
    run = np.cumsum(g[None, :] * inc, axis=1) - g[None, :] * inc
    rhs = np.sum(h[None, :] * run * inc, axis=1)
    return [
        _make_record(
            check_id,
            _worst_of((_rel_gap(chaos_evaluate(du, ens), rhs), dropped)),
            0.0,
            cfg.tolerances["pathwise"],
            note="divergence of an adapted step process vs the time-ordered sum, "
            f"per path, {n_paths} paths",
        )
    ]


@_registered("malliavin.split")
def _check_split(cfg: RunConfig):
    records = []
    check_id = "malliavin.split"
    rng = _trial_rng(cfg, check_id)
    model = cfg.mixed_model()
    grid = CellGrid(model, cfg.chaos_n_time)
    M = min(cfg.chaos_truncation, 3)
    field = _field_profiles(grid, 0.6 * _profile_a(cfg.chaos_n_time))
    F = ChaosCoefficients.doleans(field, M)
    if model.sigma > 0 and model.atoms:
        sp = bn_split(F)
        total = F.norm_sq()
        scale = max(1.0, total)
        gaps = [abs(sp.total - total) / scale]
        for n in range(M + 1):
            level = sum(
                norm for (n1, n2), norm in sp.block_norms.items() if n1 + n2 == n
            )
            gaps.append(abs(level - F.level_norm_sq(n)) / scale)
        psi = embed_chaos(F)
        grad = fock_gradient(psi)
        sp_f = fock_split(psi, sp.diffusion_cells)
        both = split_gradient(sp_f, 1) + split_gradient(sp_f, 2)
        phi = _random_levels(rng, MarkedFock, grid.n_cells, M)
        via_split, drop_s = split_divergence(phi, sp.diffusion_cells)
        direct, drop_d = fock_divergence(phi)
        gaps += [
            (both - grad).norm() / max(1.0, grad.norm()),
            (via_split - direct).norm() / max(1.0, direct.norm()),
            abs(drop_s - drop_d) / max(1.0, drop_d),
        ]
        records.append(
            _make_record(
                check_id,
                _worst_of(gaps),
                0.0,
                cfg.tolerances["algebraic"],
                note="block norms are a partition of the squared norm; factor "
                "derivatives and divergences agree with the direct maps",
            )
        )
    else:
        records.append(
            _make_record(
                check_id,
                0.0,
                0.0,
                0.0,
                note="configured model has a single noise component; covered by the "
                "degenerate record",
            )
        )
    pois_grid = CellGrid(poisson_preset(1.0, cfg.horizon), cfg.chaos_n_time)
    pois_field = StepField.from_columns(
        pois_grid, bins={1: 0.5 * _profile_b(cfg.chaos_n_time)}
    )
    G = ChaosCoefficients.doleans(pois_field, M)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sp2 = bn_split(G)
    ok = (
        sp2.degenerate
        and len(caught) == 1
        and abs(sp2.total - G.norm_sq()) <= 1e-12 * max(1.0, G.norm_sq())
    )
    records.append(
        _make_record(
            "malliavin.split_degenerate",
            0.0 if ok else 1.0,
            0.0,
            0.0,
            note="single-component grid degenerates to one block and warns",
        )
    )
    return records


@_registered("malliavin.dom_monotone")
def _check_dom_monotone(cfg: RunConfig):
    check_id = "malliavin.dom_monotone"
    model = poisson_preset(1.0, cfg.horizon)
    grid = CellGrid(model, cfg.chaos_n_time)
    field = StepField.from_columns(grid, bins={1: _profile_a(cfg.chaos_n_time)})
    roofs = (2, 3, 4)
    grads = [dom_gradient_functional(ChaosCoefficients.doleans(field, M)) for M in roofs]
    divs = [
        dom_divergence_functional(chaos_gradient(ChaosCoefficients.doleans(field, M)))
        for M in roofs
    ]
    return [
        _make_record(
            check_id,
            _worst_of(a - b for seq in (grads, divs) for a, b in zip(seq, seq[1:])),
            0.0,
            cfg.tolerances["algebraic"],
            note="domain functionals grow with the truncation roof, roofs 2..4",
        )
    ]


@_registered("malliavin.ou")
def _check_ou(cfg: RunConfig):
    grid = CellGrid(poisson_preset(1.0, cfg.horizon), cfg.chaos_n_time)
    M = min(cfg.chaos_truncation, 3)

    def residual(rng):
        C = _random_levels(rng, ChaosCoefficients, grid, M, scale=0.5)
        s, t = float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.1, 0.6))
        twice = ou_semigroup(ou_semigroup(C, s), t)
        scaled = chaos_sobolev_scale(C)
        graph = sum((1.0 + n) * scaled.level_norm_sq(n) for n in range(M + 1))
        return _worst_of(
            (
                (twice - ou_semigroup(C, s + t)).norm() / max(1.0, C.norm()),
                # contraction: only growth counts
                (ou_semigroup(C, t).norm() - C.norm()) / max(1.0, C.norm()),
                abs(graph - C.norm_sq()) / max(1.0, C.norm_sq()),
            )
        )

    note = "semigroup law, contraction, scale isometry; negative time refused"
    try:
        ou_semigroup(ChaosCoefficients.zero(grid, M), -0.5)
    except ValueError:
        return _trials(cfg, "malliavin.ou", 50, residual, "algebraic", note)
    return [
        _make_record("malliavin.ou", math.inf, 0.0, cfg.tolerances["algebraic"], note=note)
    ]


# ---------------------------------------------------------------------------
# registry and runner


def suite_checks(suite: str):
    if suite == "all":
        return tuple(fn for checks in _SUITE_CHECKS.values() for fn in checks)
    try:
        return tuple(_SUITE_CHECKS[suite])
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}") from None


def _run_one(fn, cfg: RunConfig) -> list[CheckRecord]:
    start = time.perf_counter()
    try:
        records = fn(cfg)
    except GuardLimitError as exc:
        records = [
            CheckRecord(
                fn.check_id,
                "fail",
                math.inf,
                0.0,
                0.0,
                note=f"guard limit: {exc}",
            )
        ]
    elapsed = (time.perf_counter() - start) * 1000.0
    for record in records:
        record.runtime_ms = elapsed
        record.check = fn.check_id
    return records


# (checks, config) of the run a pool worker serves. _adopt sets it in each
# forked worker; the calling process never sets it.
_ADOPTED = None
# Pool never returns the check a dead worker held (one killed by a signal, for
# instance), so the runner looks for dead workers this often while it waits.
_WORKER_POLL_S = 1.0


def _adopt(checks, config: RunConfig, cpus: list[int], taken) -> None:
    """Pool initializer: keep the run, and pin this worker to the next CPU.

    A forked worker starts on its parent's CPU, and a kernel that does not
    balance load may leave every worker there; so worker i pins itself to
    cpus[i], counting workers in the shared counter taken. The pin is
    placement only: if the CPU cannot be had, the worker runs unpinned.
    """
    global _ADOPTED
    _ADOPTED = (checks, config)
    with taken.get_lock():
        index = taken.value
        taken.value += 1
    try:
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    except OSError:
        pass


def _run_adopted(index: int) -> list[CheckRecord]:
    checks, config = _ADOPTED
    return _run_one(checks[index], config)


def _forked_batches(checks, config: RunConfig, n_workers: int) -> list[list[CheckRecord]]:
    """Each check's records, in order, from a pool of n_workers forked workers."""
    before = multiprocessing.active_children()
    context = multiprocessing.get_context("fork")
    cpus = sorted(os.sched_getaffinity(0))
    pool = context.Pool(n_workers, _adopt, (checks, config, cpus, context.Value("i", 0)))
    workers = [p for p in multiprocessing.active_children() if p not in before]
    try:
        results = pool.imap(_run_adopted, range(len(checks)))
        batches = []
        while len(batches) < len(checks):
            try:
                batches.append(results.next(_WORKER_POLL_S))
            except multiprocessing.TimeoutError:
                if not all(p.is_alive() for p in workers):
                    raise RuntimeError("a suite worker process died during a check") from None
        return batches
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


def run_suite(config: RunConfig) -> list[CheckRecord]:
    """All records of the configured suite, in registry order.

    The checks are mapped over a pool of forked processes, one check at a
    time, with one worker per CPU this process may run on (at most one per
    check), each pinned to its own CPU of that set. A worker inherits the
    checks and the config through fork, is sent only a check's index and
    sends back that check's records, timed in the worker; so a check may be
    any callable, a wrapped one included. With one usable CPU
    (reporting.usable_cpus, which is 1 off Linux), the checks run one after
    another in the calling process. Every check draws from its own stream,
    so the records do not depend on where it ran. No worker outlives the
    call: an exception raised by a check, or a worker killed during a check,
    ends the pool and raises in the caller.
    """
    try:
        config.validate_guards()
    except GuardLimitError as exc:
        return [
            CheckRecord(
                "config.guards", "fail", math.inf, 0.0, 0.0, note=f"guard limit: {exc}"
            )
        ]
    checks = suite_checks(config.suite)
    n_workers = min(usable_cpus(), len(checks))
    if n_workers < 2:
        batches = [_run_one(fn, config) for fn in checks]
    else:
        batches = _forked_batches(checks, config, n_workers)
    return [record for batch in batches for record in batch]
