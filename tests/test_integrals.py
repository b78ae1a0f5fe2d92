"""Path-level integral engines checked against hand-computed formulas."""
from math import factorial

import numpy as np
import pytest

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


def _reference_transfer_matrix(comp, delta):
    """Closed-form flow of the compensator ODE z_j' = -comp[j-1] z_{j-1}."""
    n = comp.shape[0]
    L = np.eye(n + 1, dtype=np.complex128)
    for i in range(n + 1):
        prod = 1.0 + 0.0j
        for j in range(i + 1, n + 1):
            prod = prod * (-comp[j - 1])
            L[j, i] = prod * delta ** (j - i) / factorial(j - i)
    return L


def _reference_chain(fields, ens):
    """The chain engine walking every jump of every path on its own.

    Cell by cell: the Euler diffusion update, the cell-wide transfer for all
    paths, then each jumpy path's events in time order from its saved state.
    """
    grid = ens.grid
    n = len(fields)
    P = ens.n_paths
    K = grid.n_time
    dt = grid.dt
    rates = grid.bin_rates  # nu per jump bin
    n_bins = grid.n_bins

    # per-cell compensator rates c_j = sum_b g_j(cell, b) nu_b
    field_vals = [f.values for f in fields]
    comp = np.empty((K, n), dtype=np.complex128)
    for k in range(K):
        for j in range(n):
            comp[k, j] = np.sum(field_vals[j][k, 1:n_bins] * rates)

    # jumps sorted by (cell, path, time)
    cells = ens.jump_cells
    bins = ens.jump_bins
    order = np.lexsort((ens.jump_times, ens.jump_paths, cells))
    s_cells = cells[order]
    s_paths = ens.jump_paths[order]
    s_times = ens.jump_times[order]
    s_bins = bins[order]
    cell_start = np.searchsorted(s_cells, np.arange(K + 1))

    state = np.zeros((P, n + 1), dtype=np.complex128)
    state[:, 0] = 1.0
    sigma = grid.model.sigma
    for k in range(K):
        if ens.brownian is not None:
            db = sigma * ens.brownian[:, k]
            for j in range(n, 0, -1):
                g = field_vals[j - 1][k, 0]
                if g != 0:
                    state[:, j] += g * db * state[:, j - 1]
        L = _reference_transfer_matrix(comp[k], dt)
        lo, hi = cell_start[k], cell_start[k + 1]
        if lo == hi:
            state = state @ L.T
            continue
        seg = s_paths[lo:hi]
        jumpy = seg[np.concatenate(([True], seg[1:] != seg[:-1]))]
        saved = state[jumpy].copy()
        state = state @ L.T
        row_of = {int(p): r for r, p in enumerate(jumpy)}
        t_left = k * dt
        t_right = (k + 1) * dt
        # walk each jumpy path's events inside this cell
        idx = lo
        while idx < hi:
            p = int(s_paths[idx])
            stop = idx
            while stop < hi and s_paths[stop] == p:
                stop += 1
            z = saved[row_of[p]]
            t_cur = t_left
            for e in range(idx, stop):
                t_e = float(s_times[e])
                if t_e > t_cur:
                    z = _reference_transfer_matrix(comp[k], t_e - t_cur) @ z
                    t_cur = t_e
                b = int(s_bins[e])
                for j in range(n, 0, -1):
                    g = field_vals[j - 1][k, b]
                    if g != 0:
                        z[j] += g * z[j - 1]
            if t_right > t_cur:
                z = _reference_transfer_matrix(comp[k], t_right - t_cur) @ z
            state[p] = z
            idx = stop
    return state[:, n].copy()


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


def test_stacked_transfer_matrices_have_the_scalar_bits():
    rng = np.random.default_rng(15)
    dt = 0.125
    gaps = dt * (1.0 - rng.random(10_000))  # in (0, dt]
    gaps[:2] = (dt, np.nextafter(0.0, 1.0))
    # add gaps whose powers numpy's array power rounds differently from
    # Python's float pow, where this build of numpy has such gaps
    pool = dt * (1.0 - rng.random(200_000))
    for k in (2, 3, 4):
        python_pow = np.array([d**k for d in pool.tolist()])
        differ = pool[np.power(pool, k) != python_pow]
        gaps = np.concatenate((gaps, differ[:200]))
    for n in range(1, 5):
        # one compensator row per gap, and one row shared by all gaps
        comp = rng.standard_normal((gaps.size, n)) + 1j * rng.standard_normal((gaps.size, n))
        comp[rng.random(comp.shape) < 0.25] = 0.0
        weights = integrals._compensator_weights(comp)
        got = integrals._transfer_matrices(weights, gaps)
        shared = integrals._transfer_matrices(weights[:1], gaps)
        for out in (got, shared):
            assert out.shape == (gaps.size, n + 1, n + 1) and out.dtype == np.complex128
        for i, d in enumerate(gaps.tolist()):
            want = _reference_transfer_matrix(comp[i], d)
            assert got[i].tobytes() == want.tobytes(), (n, i, d)
            want = _reference_transfer_matrix(comp[0], d)
            assert shared[i].tobytes() == want.tobytes(), (n, i, d, "shared")


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


def test_chain_python_work_grows_with_event_ranks(monkeypatch):
    model = JUMPY
    K = 4
    grid = CellGrid(model, K)
    ens = sample_ensemble(model, grid, seed=9, n_paths=400)
    calls = []
    builder = integrals._transfer_matrices

    def counting(weights, deltas):
        calls.append(deltas.size)
        return builder(weights, deltas)

    monkeypatch.setattr(integrals, "_transfer_matrices", counting)
    field = _random_fields(grid, 1, np.random.default_rng(18), zero_share=0.0)[0]
    iterated_chain([field] * 3, ens)
    per_cell = np.zeros((ens.n_paths, K), dtype=np.int64)
    np.add.at(per_cell, (ens.jump_paths, ens.jump_cells), 1)
    bound = K + int(np.sum(per_cell.max(axis=0) + 1))
    assert len(calls) <= bound
    # the bound is far below one call per jump, so this is a real limit
    assert bound < ens.jump_times.size // 10


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
