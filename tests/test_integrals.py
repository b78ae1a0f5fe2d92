"""Path-level integral engines checked against hand-computed formulas."""
import os
import subprocess
import sys
from math import factorial

import numpy as np
import pytest

import chaoskit

from chaoskit import integrals
from chaoskit.integrals import (
    doleans_exp,
    exp_martingale_grid,
    iterated_chain,
    power_integrals,
    representation_residual,
    stochastic_integral,
)
from chaoskit.levy import (
    CellGrid,
    LevyModel,
    PathEnsemble,
    StepField,
    brownian_preset,
    cell_increments,
    poisson_preset,
    sample_ensemble,
)
from chaoskit.montecarlo import summarize


def jump_field(grid, prof):
    return StepField.from_columns(grid, bins={1: prof})


def diffusion_field(grid, prof):
    return StepField.from_columns(grid, diffusion=prof)


def test_first_order_integral_is_the_weighted_increment_sum():
    model = poisson_preset(1.5, 1.0)
    grid = CellGrid(model, 6)
    prof = np.exp(0.4j * np.arange(6)) * (0.3 + 0.1 * np.arange(6))
    field = jump_field(grid, prof)
    ens = sample_ensemble(model, grid, seed=8, n_paths=64)
    inc = cell_increments(ens)
    want = inc @ prof
    got = stochastic_integral(field, ens)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(iterated_chain([field], ens), want, atol=1e-12)


def test_one_path_input_returns_length_one_arrays():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)
    field = jump_field(grid, np.full(4, 0.5))
    path = sample_ensemble(model, grid, 3, 1)
    for out in (
        stochastic_integral(field, path),
        iterated_chain([field, field], path),
        doleans_exp(field, path),
    ):
        assert isinstance(out, np.ndarray) and out.shape == (1,)
    assert power_integrals(field, 3, path).shape == (1, 4)
    assert exp_martingale_grid(np.full(4, 0.5), path).shape == (1, 5)


def test_representation_residual_returns_one_value_per_path():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)
    ens = sample_ensemble(model, grid, seed=3, n_paths=5)
    got = representation_residual(np.full(4, 0.5), ens)
    assert got.shape == (5,) and got.dtype == np.float64
    for i in range(5):
        one = representation_residual(np.full(4, 0.5), ens.paths(i, i + 1))
        assert one.shape == (1,) and one[0] == got[i]
    mixed = LevyModel(sigma=0.5, atoms=((1.0, 1.0),))
    paths = sample_ensemble(mixed, CellGrid(mixed, 4), seed=3, n_paths=3)
    with pytest.raises(ValueError, match="pure-jump"):
        representation_residual(np.full(4, 0.5), paths)


def test_chain_times_factorial_equals_power_integrals():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 8)
    prof = 0.6 + 0.2 * np.cos(2 * np.pi * np.arange(8) / 8) + 0.1j
    field = jump_field(grid, prof)
    ens = sample_ensemble(model, grid, seed=17, n_paths=200)
    powers = power_integrals(field, 3, ens)
    assert np.allclose(powers[:, 0], 1.0)
    for n in range(1, 4):
        chain = iterated_chain([field] * n, ens)
        scale = np.max(np.abs(powers[:, n])) + 1.0
        assert np.max(np.abs(factorial(n) * chain - powers[:, n])) <= 1e-10 * scale


def test_iterated_integral_is_the_repeated_chain():
    # pure jump: Y^2 = 2 J_2(g, g) + [Y], with [Y] the sum of g^2 over the jumps
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 6)
    prof = 0.7 + 0.2 * np.cos(np.arange(6)) + 0.1j * np.arange(6)
    field = jump_field(grid, prof)
    ens = sample_ensemble(model, grid, seed=21, n_paths=50)
    y = stochastic_integral(field, ens)
    bracket = np.zeros(ens.n_paths, dtype=np.complex128)
    np.add.at(bracket, ens.jump_paths, prof[ens.jump_cells] ** 2)
    assert ens.jump_times.size > 0
    assert np.allclose(iterated_chain([field] * 2, ens), (y * y - bracket) / 2, atol=1e-12)


def test_euler_first_order_is_exact_on_the_shared_grid():
    model = brownian_preset(1.0)
    grid = CellGrid(model, 16)
    prof = 0.4 + 0.3 * np.sin(2 * np.pi * np.arange(16) / 16)
    field = diffusion_field(grid, prof)
    ens = sample_ensemble(model, grid, seed=29, n_paths=80)
    got = iterated_chain([field], ens)
    assert np.allclose(got, stochastic_integral(field, ens), atol=1e-12)


def test_chain_refuses_fields_off_the_path_grid():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)
    field = jump_field(grid, np.ones(4))
    paths = sample_ensemble(model, grid, seed=2, n_paths=4)
    # a refinement of the fields' grid is refused like any other grid
    finer = sample_ensemble(model, CellGrid(model, 8), seed=2, n_paths=4)
    with pytest.raises(ValueError, match="different grids"):
        iterated_chain([field], finer)
    other = sample_ensemble(
        poisson_preset(2.0, 1.0), CellGrid(poisson_preset(2.0, 1.0), 4), seed=2, n_paths=4
    )
    with pytest.raises(ValueError, match="different grids"):
        iterated_chain([field], other)
    # every field is checked, not only the first
    coarse = jump_field(CellGrid(model, 2), np.ones(2))
    with pytest.raises(ValueError, match="different grids"):
        iterated_chain([field, coarse], paths)
    with pytest.raises(ValueError, match="at least one field"):
        iterated_chain([], paths)


def test_doleans_pure_jump_product_formula():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 6)
    prof = 0.8 + 0.3 * np.cos(2 * np.pi * np.arange(6) / 6)
    field = jump_field(grid, prof)
    for seed in (11, 12, 13):
        path = sample_ensemble(model, grid, seed, 1)
        got = doleans_exp(field, path)
        want = np.exp(-grid.dt * np.sum(prof))
        for t in path.jump_times:
            want *= 1.0 + prof[grid.cell_of_time(float(t))]
        assert got == pytest.approx(complex(want), rel=1e-12)


def test_doleans_diffusion_closed_form():
    model = brownian_preset(1.0)
    grid = CellGrid(model, 12)
    prof = 0.5 + 0.2 * np.sin(2 * np.pi * np.arange(12) / 12)
    field = diffusion_field(grid, prof)
    for seed in (21, 22):
        path = sample_ensemble(model, grid, seed, 1)
        got = doleans_exp(field, path)
        want = np.exp(np.sum(prof * path.brownian) - 0.5 * np.sum(prof**2) * grid.dt)
        assert got == pytest.approx(complex(want), rel=1e-12)


def test_doleans_unit_field_counts_jumps():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)
    field = jump_field(grid, np.ones(4))
    ens = sample_ensemble(model, grid, seed=51, n_paths=60)
    counts = np.diff(ens.offsets)
    want = 2.0**counts * np.exp(-model.horizon)
    assert np.allclose(doleans_exp(field, ens), want, rtol=1e-12)


def test_exp_martingale_has_unit_mean():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 8)
    prof = 0.7 + 0.25 * np.cos(2 * np.pi * np.arange(8) / 8)
    ens = sample_ensemble(model, grid, seed=61, n_paths=4000)
    grid_vals = exp_martingale_grid(prof, ens)
    stat = summarize(grid_vals[:, -1])
    assert abs(stat.mean - 1.0) <= 6.0 * stat.se
    assert np.allclose(grid_vals[:, 0], 1.0)


def test_exp_martingale_needs_a_real_profile():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)
    ens = sample_ensemble(model, grid, seed=7, n_paths=4)
    with pytest.raises(ValueError, match="real profile"):
        exp_martingale_grid(np.full(4, 0.1 + 0.2j), ens)


def test_representation_residual_vanishes_for_pure_jump_paths():
    model = poisson_preset(1.5, 1.0)
    grid = CellGrid(model, 8)
    prof = 0.6 + 0.3 * np.sin(2 * np.pi * np.arange(8) / 8)
    ens = sample_ensemble(model, grid, 71, 20)
    assert representation_residual(prof, ens).max() <= 1e-10


# ---------------------------------------------------------------------------
# the chain engine against its per-event reference walk

# the jump-dominated model of the verify-jumps benchmark: ~14 jumps per path
JUMPY = LevyModel(sigma=0.3, atoms=((1.0, 8.0), (-0.5, 6.0)))
MIXED = LevyModel(sigma=1.0, atoms=((1.0, 1.0),))


def _gap_powers(d, n):
    """[None, d, d^2 / 2!, ..., d^n / n!], the powers from products d * d."""
    out, pw = [None], d
    for p in range(1, n + 1):
        if p > 1:
            pw = pw * d
        out.append(pw / factorial(p))
    return out


def _scale(z, x):
    """A complex value times a real one, both parts scaled."""
    return complex(z.real * x, z.imag * x)


def _reference_transfer(M, v, lo):
    """v <- M v for a unit lower-triangular M; v_lo is 1, an absent entry zero.
    A jump update v_j += g_j v_{j-1} is the M with only the entries (j, j-1)."""
    for j in range(len(v) - 1, lo, -1):
        for l in range(lo, j):
            if (j, l) in M:
                v[j] += M[j, l] if l == lo else M[j, l] * v[l]


def _reference_chain(fields, ens):
    """The chain engine walked path by path and jump by jump in Python scalars.

    Per cell: the Euler step of the diffusion part, then the compensator flow
    over the cell, or, for a path with jumps in the cell, the flows and jump
    updates of those jumps composed into one transfer, column by column. The
    arithmetic is the engine's: order 0 is the constant 1 and its terms are
    added, complex products are Python complex products, a complex value
    times a real one scales both parts, and a cell flow's zero entries are
    left out.
    """
    grid = ens.grid
    n = len(fields)
    K, dt = grid.n_time, grid.dt
    rates = grid.bin_rates.tolist()  # nu per jump bin
    vals = [f.values.tolist() for f in fields]
    # per cell: flow weights prod_{l < i <= j} (-c_i), with c_j summed over bins
    weights = []
    for k in range(K):
        c = [sum((_scale(v[k][b], nu) for b, nu in enumerate(rates, 1)), 0j) for v in vals]
        w = {}
        for l in range(n + 1):
            prod = 1.0 + 0.0j
            for j in range(l + 1, n + 1):
                prod = prod * complex(-c[j - 1].real, -c[j - 1].imag)
                w[j, l] = prod
        weights.append(w)

    def flow(k, d):
        q = _gap_powers(d, n)
        return {(j, l): _scale(w, q[j - l]) for (j, l), w in weights[k].items()}

    cell_flows = [{key: f for key, f in flow(k, dt).items() if f != 0} for k in range(K)]
    cells = ens.jump_cells.tolist()
    bins = ens.jump_bins.tolist()
    times = ens.jump_times.tolist()
    sigma = grid.model.sigma
    out = np.empty(ens.n_paths, dtype=np.complex128)
    for p in range(ens.n_paths):
        mine = range(int(ens.offsets[p]), int(ens.offsets[p + 1]))
        by_cell = {}
        for e in sorted(mine, key=lambda e: (cells[e], times[e])):
            by_cell.setdefault(cells[e], []).append(e)
        z = [1.0 + 0.0j] + [0j] * n
        for k in range(K):
            if ens.brownian is not None:
                db = sigma * float(ens.brownian[p, k])
                euler = {(j, j - 1): _scale(v[k][0], db) for j, v in enumerate(vals, 1) if v[k][0]}
                _reference_transfer(euler, z, 0)
            if k not in by_cell:
                _reference_transfer(cell_flows[k], z, 0)
                continue
            # the run's transfer, one column at a time
            left = k * dt
            T = {}
            for l in range(n):
                col = [None] * l + [1.0 + 0.0j] + [0j] * (n - l)
                t_cur = left
                for i, e in enumerate(by_cell[k]):
                    gap = max(times[e] - t_cur, 0.0)
                    if i == 0:
                        col[l + 1 :] = [flow(k, gap)[j, l] for j in range(l + 1, n + 1)]
                    else:
                        _reference_transfer(flow(k, gap), col, l)
                    t_cur = max(t_cur, times[e])
                    g = {(j, j - 1): v[k][bins[e]] for j, v in enumerate(vals, 1)}
                    _reference_transfer(g, col, l)
                _reference_transfer(flow(k, max((k + 1) * dt - t_cur, 0.0)), col, l)
                T.update({(j, l): col[j] for j in range(l + 1, n + 1)})
            _reference_transfer(T, z, 0)
        out[p] = z[n]
    return out


def _random_fields(grid, count, rng, zero_share=0.3):
    """Complex fields on every bin of the grid, with some bins set to zero."""
    out = []
    for _ in range(count):
        vals = rng.standard_normal((grid.n_time, grid.n_bins)) + 1j * rng.standard_normal(
            (grid.n_time, grid.n_bins)
        )
        vals[rng.random(vals.shape) < zero_share] = 0.0
        out.append(StepField(grid, vals))
    return out


def _assert_same_bytes(got, want, label):
    assert got.shape == want.shape and got.dtype == want.dtype, label
    assert got.tobytes() == want.tobytes(), label


def test_chain_matches_the_reference_walk_on_drawn_paths():
    rng = np.random.default_rng(16)
    cases = [
        ("poisson", poisson_preset(1.0, 1.0), 8),
        ("mixed", MIXED, 8),
        ("no jumps drawn", LevyModel(sigma=0.5, atoms=((1.0, 1e-12),)), 4),
        ("brownian", brownian_preset(1.0), 4),
        ("jumpy", JUMPY, 4),
    ]
    for name, model, K in cases:
        grid = CellGrid(model, K)
        ens = sample_ensemble(model, grid, seed=K + 1, n_paths=150)
        if name == "no jumps drawn":
            assert ens.jump_times.size == 0
        for count in range(1, 5):
            fields = _random_fields(grid, count, rng)
            label = (name, count)
            _assert_same_bytes(iterated_chain(fields, ens), _reference_chain(fields, ens), label)
        # a constant field has no zero bins and repeats one field
        field = _random_fields(grid, 1, rng, zero_share=0.0)[0]
        for n in (1, 3):
            _assert_same_bytes(
                iterated_chain([field] * n, ens),
                _reference_chain([field] * n, ens),
                (name, "power", n),
            )


def _hand_built(model, grid, times_per_path, rng):
    """A PathEnsemble from explicit sorted jump times, atoms taken in turn."""
    times = np.concatenate([np.asarray(t, dtype=np.float64) for t in times_per_path])
    counts = [len(t) for t in times_per_path]
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    paths = np.repeat(np.arange(len(counts)), counts).astype(np.int64)
    atoms = (np.arange(times.size) % len(model.atoms)).astype(np.int64)
    brownian = None
    if model.sigma > 0:
        brownian = rng.normal(0.0, np.sqrt(grid.dt), (len(counts), grid.n_time))
    return PathEnsemble(grid, len(counts), brownian, times, atoms, paths, offsets)


def test_chain_matches_the_reference_walk_on_edge_times():
    rng = np.random.default_rng(17)
    below = np.nextafter(0.5, 0.0)  # K = 6 puts it in cell 3, below that cell's left edge
    times_per_path = [
        [0.5],  # exactly at the left edge of cell 3
        [0.2, 0.2, 0.7],  # two jumps of one path at the same time
        [1.0],  # at the horizon
        [],
        [1.0 / 6.0, below, 0.5, 0.5, 0.9, 1.0, 1.0],
    ]
    for model in (LevyModel(sigma=0.0, atoms=((1.0, 2.0), (-0.5, 1.0))), JUMPY):
        grid = CellGrid(model, 6)
        ens = _hand_built(model, grid, times_per_path, rng)
        assert ens.jump_cells.tolist() == [3, 1, 1, 4, 5, 1, 3, 3, 3, 5, 5, 5]
        for count in range(1, 5):
            fields = _random_fields(grid, count, rng)
            _assert_same_bytes(
                iterated_chain(fields, ens),
                _reference_chain(fields, ens),
                (model.sigma, count),
            )


def test_chain_rank_steps_do_not_grow_with_the_grid(monkeypatch):
    rng = np.random.default_rng(18)
    steps = []
    entries = integrals._flow_entries

    def counting(wr, wi, delta):
        if isinstance(delta, np.ndarray):  # a gap per run; the cell flow has one dt
            steps.append(delta.size)
        return entries(wr, wi, delta)

    monkeypatch.setattr(integrals, "_flow_entries", counting)
    for K in (4, 64):
        grid = CellGrid(JUMPY, K)
        ens = sample_ensemble(JUMPY, grid, seed=9, n_paths=400)
        steps.clear()
        field = _random_fields(grid, 1, rng, zero_share=0.0)[0]
        iterated_chain([field] * 3, ens)
        per_cell = np.zeros((ens.n_paths, K), dtype=np.int64)
        np.add.at(per_cell, (ens.jump_paths, ens.jump_cells), 1)
        # one step for the first gaps of all runs, then one per jump rank
        assert len(steps) <= per_cell.max() + 1
        assert steps[0] == np.count_nonzero(per_cell)


def test_chain_bits_do_not_depend_on_the_batch():
    rng = np.random.default_rng(21)
    models = {
        "poisson": poisson_preset(1.0, 1.0),
        "mixed": MIXED,
        "jumpy": JUMPY,
        "brownian": brownian_preset(1.0),
    }
    for name, model in models.items():
        for K in (4, 8, 64):
            grid = CellGrid(model, K)
            ens = sample_ensemble(model, grid, seed=5, n_paths=301)
            fields = _random_fields(grid, 3, rng)
            batch = iterated_chain(fields, ens)
            for lo, hi in ((0, 37), (37, 300), (300, 301)):
                _assert_same_bytes(
                    iterated_chain(fields, ens.paths(lo, hi)), batch[lo:hi], (name, K, lo)
                )
            for i in range(0, 301, 50):
                _assert_same_bytes(
                    iterated_chain(fields, ens.paths(i, i + 1)), batch[i : i + 1], (name, K, i)
                )


# Runs the chain on the ensembles and fields saved in argv[1] and writes the
# values to argv[2]; it draws nothing, since the sampler's bits may depend on
# the host's kernels.
CHAIN_CHILD = """
import sys
import numpy as np
from chaoskit.integrals import iterated_chain
from chaoskit.levy import CellGrid, LevyModel, PathEnsemble, StepField

data = np.load(sys.argv[1])
out = {}
for c in range(int(data["cases"])):
    get = lambda key: data[f"{c}.{key}"]
    atoms = tuple(map(tuple, get("atoms").tolist()))
    model = LevyModel(sigma=float(get("sigma")), atoms=atoms)
    grid = CellGrid(model, int(get("K")))
    brownian = get("brownian") if model.sigma > 0 else None
    ens = PathEnsemble(
        grid, int(get("P")), brownian, get("times"), get("atom"), get("paths"), get("offsets")
    )
    fields = [StepField(grid, v) for v in get("fields")]
    out[str(c)] = iterated_chain(fields, ens)
np.savez(sys.argv[2], **out)
"""

HOST_KERNELS = {
    "native": {},
    "numpy without AVX2 or AVX-512": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
    },
    "OpenBLAS on AVX2 kernels": {"OPENBLAS_CORETYPE": "Haswell"},
}


def test_chain_bytes_do_not_depend_on_the_host_kernels(tmp_path):
    rng = np.random.default_rng(22)
    models = [poisson_preset(1.0, 1.0), MIXED, JUMPY, brownian_preset(1.0)]
    saved = {"cases": len(models)}
    for c, model in enumerate(models):
        grid = CellGrid(model, 8)
        ens = sample_ensemble(model, grid, seed=c, n_paths=200)
        saved.update({
            f"{c}.sigma": model.sigma,
            f"{c}.atoms": np.array(model.atoms, dtype=np.float64).reshape(-1, 2),
            f"{c}.K": grid.n_time,
            f"{c}.P": ens.n_paths,
            f"{c}.brownian": ens.brownian if ens.brownian is not None else np.zeros(0),
            f"{c}.times": ens.jump_times,
            f"{c}.atom": ens.jump_atoms,
            f"{c}.paths": ens.jump_paths,
            f"{c}.offsets": ens.offsets,
            f"{c}.fields": np.stack([f.values for f in _random_fields(grid, 3, rng)]),
        })
    np.savez(tmp_path / "in.npz", **saved)
    src = os.path.dirname(os.path.dirname(os.path.abspath(chaoskit.__file__)))
    got = {}
    for name, extra in HOST_KERNELS.items():
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.update(extra)
        out = tmp_path / f"{len(got)}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", CHAIN_CHILD, str(tmp_path / "in.npz"), str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, (name, proc.stderr)
        with np.load(out) as data:
            got[name] = {key: data[key].tobytes() for key in data.files}
    assert len(got["native"]) == len(models)
    for name in HOST_KERNELS:
        assert got[name] == got["native"], name


# ---------------------------------------------------------------------------
# the representation walk against its per-path reference walk


def _reference_expm1_over(z, ell):
    """(exp(z ell) - 1) / z, stable near z = 0."""
    w = z * ell
    if abs(w) < 1e-8:
        return ell * (1.0 + w / 2.0 + w * w / 6.0)
    return (np.exp(w) - 1.0) / z


def _reference_representation(f, path):
    """The representation residual of a one-path ensemble, walked event by
    event in scalar complex arithmetic, with every cell constant recomputed."""
    assert path.n_paths == 1
    grid = path.grid
    model = grid.model
    prof = np.asarray(f, dtype=np.float64)
    K, dt = grid.n_time, grid.dt
    drift = model.b - model.small_jump_drift
    eta = np.array([model.symbol(u) for u in prof])
    atoms = model.atoms
    jump_cells = path.jump_cells
    order = np.argsort(path.jump_times, kind="stable")

    m_cur = 1.0 + 0.0j
    jump_sum = 0.0 + 0.0j
    comp_sum = 0.0 + 0.0j
    by_cell = {}
    for e in order:
        by_cell.setdefault(int(jump_cells[e]), []).append(int(e))
    for k in range(K):
        z = 1j * prof[k] * drift + eta[k]
        lam_fac = sum(lam * (np.exp(1j * prof[k] * x) - 1.0) for x, lam in atoms)
        t_cur = k * dt
        for e in by_cell.get(k, ()):
            t_e = float(path.jump_times[e])
            ell = t_e - t_cur
            comp_sum += lam_fac * m_cur * _reference_expm1_over(z, ell)
            m_cur = m_cur * np.exp(z * ell)
            x = atoms[int(path.jump_atoms[e])][0]
            phase = np.exp(1j * prof[k] * x)
            jump_sum += (phase - 1.0) * m_cur
            m_cur = m_cur * phase
            t_cur = t_e
        ell = (k + 1) * dt - t_cur
        comp_sum += lam_fac * m_cur * _reference_expm1_over(z, ell)
        m_cur = m_cur * np.exp(z * ell)
    recon = 1.0 + jump_sum - comp_sum
    return float(abs(m_cur - recon))


def _reference_residuals(prof, ens):
    return np.array(
        [_reference_representation(prof, ens.paths(i, i + 1)) for i in range(ens.n_paths)]
    )


def test_representation_matches_the_reference_walk_on_drawn_paths():
    rng = np.random.default_rng(19)
    cases = [
        # drift, an atom with |x| < 1 and two atoms in one bin
        (LevyModel(b=0.4, atoms=((0.5, 2.0), (-1.3, 1.0)), horizon=0.5), 8, ((0, 1),)),
        # one cell holding every jump of a path
        (LevyModel(b=-0.3, atoms=((1.0, 8.0), (-0.5, 6.0)), horizon=2.0), 1, None),
        (LevyModel(atoms=((0.3, 3.0), (1.7, 0.5), (-0.8, 1.5)), horizon=1.5), 16, ((0, 2), (1,))),
        (poisson_preset(1.0, 1.0), 64, None),
    ]
    most_in_a_cell, fewest_on_a_path = 0, np.inf
    for model, K, groups in cases:
        grid = CellGrid(model, K, groups)
        ens = sample_ensemble(model, grid, seed=K, n_paths=60)
        counts = np.zeros((ens.n_paths, K), dtype=np.int64)
        np.add.at(counts, (ens.jump_paths, ens.jump_cells), 1)
        most_in_a_cell = max(most_in_a_cell, counts.max())
        fewest_on_a_path = min(fewest_on_a_path, counts.sum(axis=1).min())
        profiles = [
            0.6 + 0.3 * np.cos(2 * np.pi * np.arange(K) / K),
            rng.normal(0.0, 1.0, K),
            np.zeros(K),  # z = 0: the series branch of the compensator integral
        ]
        for j, prof in enumerate(profiles):
            _assert_same_bytes(
                representation_residual(prof, ens), _reference_residuals(prof, ens), (K, j)
            )
    # paths with several jumps in one cell, and paths without a jump
    assert most_in_a_cell >= 5 and fewest_on_a_path == 0
    # no jump drawn at all
    model = LevyModel(b=0.2, atoms=((1.0, 1e-12),))
    ens = sample_ensemble(model, CellGrid(model, 4), seed=1, n_paths=20)
    assert ens.jump_times.size == 0
    prof = np.full(4, 0.7)
    _assert_same_bytes(representation_residual(prof, ens), _reference_residuals(prof, ens), "none")


def test_representation_matches_the_reference_walk_on_edge_times():
    rng = np.random.default_rng(20)
    below = np.nextafter(0.5, 0.0)  # K = 6 puts it in cell 3, below that cell's left edge
    times_per_path = [
        [0.5],  # exactly at the left edge of cell 3
        [0.2, 0.2, 0.7],  # two jumps of one path at the same time
        [1.0],  # at the horizon
        [],
        [1.0 / 6.0, below, 0.5, 0.5, 0.9, 1.0, 1.0],
    ]
    model = LevyModel(b=0.1, atoms=((1.0, 2.0), (-0.5, 1.0)))
    grid = CellGrid(model, 6)
    ens = _hand_built(model, grid, times_per_path, rng)
    for prof in (np.full(6, 0.6), rng.normal(0.0, 1.0, 6)):
        _assert_same_bytes(representation_residual(prof, ens), _reference_residuals(prof, ens), "")
