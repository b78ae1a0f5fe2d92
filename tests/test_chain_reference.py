"""The chain engine against the cell-by-cell, rank-by-rank walk it replaced.

`reference_iterated_chain` keeps the earlier `integrals.iterated_chain`:
inside each cell it moves the jumpy paths one event rank at a time through
stacks of (n+1)^2 transfer matrices applied with a batched matmul, and it
carries every path over the cell by `state @ L.T`. The engine now composes
one whole-cell transfer per run (one path's jumps in one cell) for the whole
ensemble at once and applies it in real arithmetic, so the two agree to
rounding, not bit for bit: per path to 1e-12 relative to max(1, |reference|).
"""
from math import factorial

import numpy as np
import pytest
from test_integrals import JUMPY, MIXED, _hand_built, _random_fields

from chaoskit.integrals import _cmul, iterated_chain
from chaoskit.levy import (
    CellGrid,
    LevyModel,
    StepField,
    brownian_preset,
    poisson_preset,
    sample_ensemble,
)

REL_TOL = 1e-12


def _cell_events(ens):
    """Per cell, (paths, rows, events, bounds) of its jumps by rank, or None."""
    K = ens.grid.n_time
    cells = ens.jump_cells
    order = np.lexsort((ens.jump_times, ens.jump_paths, cells))
    s_cells = cells[order]
    s_paths = ens.jump_paths[order]
    cell_start = np.searchsorted(s_cells, np.arange(K + 1)).tolist()
    new_run = np.ones(s_cells.size, dtype=bool)
    new_run[1:] = (s_cells[1:] != s_cells[:-1]) | (s_paths[1:] != s_paths[:-1])
    run_start = np.flatnonzero(new_run)
    run_of = np.cumsum(new_run) - 1
    rank = np.arange(s_cells.size) - run_start[run_of]
    by_rank = np.lexsort((s_paths, rank, s_cells))
    out = []
    for lo, hi in zip(cell_start[:-1], cell_start[1:]):
        if lo == hi:
            out.append(None)
            continue
        seg = by_rank[lo:hi]
        ranks = rank[seg]
        out.append(
            (
                s_paths[run_start[run_of[lo] : run_of[hi - 1] + 1]],
                run_of[seg] - run_of[lo],
                order[seg],
                np.searchsorted(ranks, np.arange(ranks[-1] + 2)).tolist(),
            )
        )
    return out


def _compensator_weights(comp):
    C, n = comp.shape
    out = np.zeros((C, n + 1, n + 1), dtype=np.complex128)
    for c in range(C):
        for i in range(n + 1):
            out[c, i, i] = 1.0
            prod = 1.0 + 0.0j
            for j in range(i + 1, n + 1):
                prod = prod * (-comp[c, j - 1])
                out[c, j, i] = prod
    return out


def _transfer_matrices(weights, deltas):
    size = weights.shape[-1]
    order = np.maximum(np.subtract.outer(np.arange(size), np.arange(size)), 0)
    gaps = deltas.tolist()
    pw = np.array([[d**k for d in gaps] for k in range(size)])[order].transpose(2, 0, 1)
    L = _cmul(weights, pw)
    L /= np.array([float(factorial(k)) for k in range(size)])[order]
    return L


def _flow(weights, deltas, Z):
    return np.matmul(_transfer_matrices(weights, deltas), Z[:, :, None])[:, :, 0]


def reference_iterated_chain(fields, ens):
    """The earlier engine: per cell, the Euler step, `state @ L.T` for every
    path, and the jumpy paths walked rank by rank through stacked flows."""
    grid = ens.grid
    n = len(fields)
    P = ens.n_paths
    K = grid.n_time
    dt = grid.dt
    rates = grid.bin_rates
    n_bins = grid.n_bins
    field_vals = [f.values for f in fields]
    comp = np.empty((K, n), dtype=np.complex128)
    for k in range(K):
        for j in range(n):
            comp[k, j] = np.sum(field_vals[j][k, 1:n_bins] * rates)
    weights = _compensator_weights(comp)
    cell_flow = _transfer_matrices(weights, np.full(K, dt))

    jump_times = ens.jump_times
    jump_bins = ens.jump_bins
    state = np.zeros((P, n + 1), dtype=np.complex128)
    state[:, 0] = 1.0
    sigma = grid.model.sigma
    for k, cell in enumerate(_cell_events(ens)):
        if ens.brownian is not None:
            db = sigma * ens.brownian[:, k]
            for j in range(n, 0, -1):
                g = field_vals[j - 1][k, 0]
                if g != 0:
                    state[:, j] += g * db * state[:, j - 1]
        L = cell_flow[k]
        w = weights[k : k + 1]
        if cell is None:
            state = state @ L.T
            continue
        paths, rows, events, bounds = cell
        Z = state[paths]
        state = state @ L.T
        times = jump_times[events]
        bins = jump_bins[events]
        t_cur = np.full(paths.size, k * dt)
        for a, b in zip(bounds[:-1], bounds[1:]):
            r_rows, t_e = rows[a:b], times[a:b]
            move = t_e > t_cur[r_rows]
            if move.any():
                sub = r_rows[move]
                Z[sub] = _flow(w, t_e[move] - t_cur[sub], Z[sub])
                t_cur[sub] = t_e[move]
            for j in range(n, 0, -1):
                g = field_vals[j - 1][k, bins[a:b]]
                hit = g != 0
                if not hit.any():
                    continue
                hit_rows = r_rows[hit]
                Z[hit_rows, j] += _cmul(g[hit], Z[hit_rows, j - 1])
        t_right = (k + 1) * dt
        move = t_right > t_cur
        if move.any():
            Z[move] = _flow(w, t_right - t_cur[move], Z[move])
        state[paths] = Z
    return state[:, n].copy()


def assert_matches_reference(fields, ens):
    got = iterated_chain(fields, ens)
    want = reference_iterated_chain(fields, ens)
    assert got.shape == want.shape == (ens.n_paths,) and got.dtype == np.complex128
    gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert gap.max(initial=0.0) <= REL_TOL, gap.max()


MODELS = {
    "poisson": poisson_preset(1.0, 1.0),
    "brownian": brownian_preset(),
    "mixed": MIXED,
    "jumpy": JUMPY,
    "drift_small_atoms": LevyModel(b=0.4, atoms=((0.5, 2.0), (-1.3, 1.0)), horizon=0.5),
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("K", [1, 4, 8, 64])
def test_engine_matches_the_rank_walk(name, K):
    model = MODELS[name]
    grid = CellGrid(model, K)
    rng = np.random.default_rng(K)
    ens = sample_ensemble(model, grid, seed=K + 23, n_paths=200)
    for n in range(1, 5):
        assert_matches_reference(_random_fields(grid, n, rng), ens)


def test_two_atoms_in_one_bin():
    model = LevyModel(sigma=0.5, atoms=((1.0, 2.0), (-0.5, 3.0), (0.3, 1.0)))
    grid = CellGrid(model, 6, atom_groups=((0, 2), (1,)))
    ens = sample_ensemble(model, grid, seed=9, n_paths=200)
    rng = np.random.default_rng(4)
    for n in range(1, 5):
        assert_matches_reference(_random_fields(grid, n, rng), ens)


@pytest.mark.parametrize("zero_share", [0.0, 0.5, 1.0])
def test_complex_fields_with_zero_bins(zero_share):
    grid = CellGrid(JUMPY, 8)
    ens = sample_ensemble(JUMPY, grid, seed=5, n_paths=200)
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        assert_matches_reference(_random_fields(grid, n, rng, zero_share), ens)
    # a field zero on the diffusion bin only, and one zero on the jump bins only
    for cols in ([0], [1, 2]):
        fields = []
        for f in _random_fields(grid, 3, rng, zero_share):
            vals = f.values.copy()
            vals[:, cols] = 0.0
            fields.append(StepField(grid, vals))
        assert_matches_reference(fields, ens)


def test_edge_times():
    rng = np.random.default_rng(17)
    below = np.nextafter(0.5, 0.0)  # K = 6 puts it in cell 3, below that cell's left edge
    times_per_path = [
        [0.5],
        [0.2, 0.2, 0.7],
        [1.0],
        [],
        [1.0 / 6.0, below, 0.5, 0.5, 0.9, 1.0, 1.0],
    ]
    for model in (LevyModel(sigma=0.0, atoms=((1.0, 2.0), (-0.5, 1.0))), JUMPY):
        grid = CellGrid(model, 6)
        ens = _hand_built(model, grid, times_per_path, rng)
        for n in range(1, 5):
            assert_matches_reference(_random_fields(grid, n, rng), ens)


def test_one_path_ensembles_with_and_without_jumps():
    grid = CellGrid(JUMPY, 4)
    ens = sample_ensemble(JUMPY, grid, seed=11, n_paths=60)
    fields = _random_fields(grid, 3, np.random.default_rng(3))
    jumps = np.diff(ens.offsets)
    for i in (int(np.argmax(jumps)), int(np.argmin(jumps))):
        assert_matches_reference(fields, ens.paths(i, i + 1))
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)
    ens = sample_ensemble(model, grid, seed=11, n_paths=60)
    i = int(np.argmin(np.diff(ens.offsets)))
    empty = ens.paths(i, i + 1)
    assert empty.jump_times.size == 0
    assert_matches_reference(_random_fields(grid, 3, np.random.default_rng(3)), empty)
