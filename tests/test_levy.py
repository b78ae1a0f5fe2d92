"""Finite-activity models, cell grids, and the path sampler.

The characteristic-exponent reference values were computed to 40 digits
with an independent high-precision script and pasted in as literals.
"""
from hashlib import sha256

import numpy as np
import pytest

from chaoskit.levy import (
    CellGrid,
    LevyModel,
    brownian_preset,
    cell_increments,
    path_rng,
    poisson_preset,
    sample_ensemble,
    sample_path,
    terminal_value,
)

MIXED = LevyModel(b=0.0, sigma=1.0, atoms=((1.0, 1.0),), horizon=1.0)
# jump-dominated: about 14 jumps per path, two atoms, a small diffusion part
JUMPY = LevyModel(sigma=0.3, atoms=((1.0, 8.0), (-0.5, 6.0)))
# a seed in the upper half of the 64-bit range, as suites._check_seed yields
BIG_SEED = 2**64 - 59

# eta(u) for MIXED at u = 0.5, 1, 2
ETA_REF = {
    0.5: 0.24741743810962728388 - 0.47942553860420300027j,
    1.0: 0.9596976941318602826 - 0.84147098480789650665j,
    2.0: 3.416146836547142387 - 0.9092974268256816954j,
}


@pytest.mark.parametrize("u", sorted(ETA_REF))
def test_symbol_matches_reference(u):
    assert MIXED.symbol(u) == pytest.approx(ETA_REF[u], abs=1e-12)


def test_terminal_characteristic_target():
    # E[exp(i u X(T))] = exp(-T eta(u)); the u = 0.5 value, frozen
    want = 0.69278567584843170561 + 0.36016604170726871282j
    assert np.exp(-MIXED.horizon * MIXED.symbol(0.5)) == pytest.approx(want, abs=1e-12)


def test_small_jump_bookkeeping():
    m = LevyModel(b=0.3, sigma=0.0, atoms=((0.5, 2.0), (1.5, 1.0)), horizon=1.0)
    assert m.small_jump_drift == pytest.approx(1.0)
    assert m.mean_slope == pytest.approx(0.3 + 1.5)
    assert MIXED.small_jump_drift == 0.0
    assert MIXED.mean_slope == pytest.approx(1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        LevyModel(sigma=-1.0)
    with pytest.raises(ValueError):
        LevyModel(sigma=1.0, horizon=0.0)
    with pytest.raises(ValueError):
        LevyModel(sigma=0.0, atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        LevyModel(sigma=0.0, atoms=((1.0, -2.0),))
    with pytest.raises(ValueError):
        LevyModel(sigma=0.0, atoms=((1.0, 1.0), (1.0, 2.0)))


def test_pure_jump_grid_drops_the_diffusion_bin():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)
    assert grid.n_bins == 2
    assert list(grid.cells) == [(k, 1) for k in range(4)]
    assert np.allclose(grid.cell_masses, 0.25)


def test_diffusion_grid_keeps_only_bin_zero():
    grid = CellGrid(brownian_preset(2.0), 8)
    assert grid.n_bins == 1
    assert list(grid.cells) == [(k, 0) for k in range(8)]
    assert np.allclose(grid.cell_masses, 0.25)


def test_mixed_grid_masses_sum_to_variance_plus_rates():
    model = LevyModel(b=0.1, sigma=0.8, atoms=((1.0, 1.0), (0.5, 2.0)), horizon=2.0)
    grid = CellGrid(model, 6)
    assert grid.n_bins == 3
    assert list(grid.cells) == sorted(grid.cells)
    # jump bins carry compensated event counts, so their mass is the rate
    want = (model.sigma**2 + 1.0 + 2.0) * model.horizon
    assert grid.cell_masses.sum() == pytest.approx(want, rel=1e-12)


def test_grid_hash_tracks_the_spec():
    model = poisson_preset(1.0, 1.0)
    assert CellGrid(model, 4).grid_hash() == CellGrid(model, 4).grid_hash()
    assert CellGrid(model, 4).grid_hash() != CellGrid(model, 8).grid_hash()


def test_ensemble_matches_per_path_sampling():
    models = {
        "poisson": poisson_preset(1.0, 1.0),
        "brownian": brownian_preset(),
        "mixed": MIXED,
        "jumpy": JUMPY,
        "no jumps drawn": LevyModel(sigma=0.5, atoms=((1.0, 1e-12),)),
    }
    for name, model in models.items():
        grid = CellGrid(model, 8)
        for seed in (77, BIG_SEED):
            ens = sample_ensemble(model, grid, seed=seed, n_paths=24)
            assert ens.offsets[0] == 0, name
            assert ens.offsets[-1] == ens.jump_times.size, name
            for i in range(ens.n_paths):
                solo = sample_path(model, grid, seed=seed, index=i)
                batched = ens.path(i)
                lo, hi = ens.offsets[i], ens.offsets[i + 1]
                assert hi - lo == solo.jump_times.size, (name, seed, i)
                assert np.array_equal(ens.jump_paths[lo:hi], np.full(hi - lo, i))
                if solo.brownian is None:
                    assert batched.brownian is None
                else:
                    assert np.array_equal(solo.brownian, batched.brownian)
                assert np.array_equal(solo.jump_times, batched.jump_times)
                assert np.array_equal(solo.jump_atoms, batched.jump_atoms)
            assert ens.jump_atoms.dtype == np.int64
            if name == "no jumps drawn":
                assert ens.jump_times.size == 0


def test_ensemble_stream_is_pinned():
    # Pins the stream: a new digest means a stream change, which must be
    # deliberate and recorded with a stream version bump.
    grid = CellGrid(JUMPY, 8)
    ens = sample_ensemble(JUMPY, grid, seed=BIG_SEED, n_paths=16)
    digest = sha256()
    for arr in (ens.brownian, ens.jump_times, ens.jump_atoms, ens.jump_paths, ens.offsets):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert ens.jump_times.size == 204
    assert digest.hexdigest() == (
        "3820b2c2f58c1e568376308cc1436011f2ae399af3a03c3e16a298683edad08a"
    )


def test_seed_controls_the_draw():
    model = poisson_preset(2.0, 1.0)
    grid = CellGrid(model, 4)
    a = sample_ensemble(model, grid, seed=5, n_paths=50)
    b = sample_ensemble(model, grid, seed=5, n_paths=50)
    c = sample_ensemble(model, grid, seed=6, n_paths=50)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert not np.array_equal(np.diff(a.offsets), np.diff(c.offsets))


def test_path_rng_substreams():
    r1 = path_rng(9, 3)
    r2 = path_rng(9, 3)
    assert np.array_equal(r1.random(4), r2.random(4))
    assert not np.array_equal(path_rng(9, 0).random(4), path_rng(9, 1).random(4))


def test_cell_increments_follow_the_compensated_formula():
    model = LevyModel(b=0.2, sigma=0.7, atoms=((1.0, 2.0), (0.4, 3.0)), horizon=1.0)
    grid = CellGrid(model, 5)
    path = sample_path(model, grid, seed=123)
    inc = cell_increments(path)

    want = np.zeros(grid.n_cells)
    for ci, (k, b) in enumerate(grid.cells):
        if b == 0:
            want[ci] = model.sigma * path.brownian[k]
        else:
            want[ci] = -grid.bin_rates[b - 1] * grid.dt
    # each jump adds one event to its bin; sizes enter only at reconstruction
    for t, a in zip(path.jump_times, path.jump_atoms):
        k = grid.cell_of_time(float(t))
        want[grid.cell_index[(k, int(grid.atom_bin[a]))]] += 1.0
    assert path.jump_times.size > 0
    assert np.allclose(inc, want, atol=1e-12)


def test_ensemble_increments_match_the_per_path_route():
    grids = [
        CellGrid(MIXED, 4),
        CellGrid(JUMPY, 4),
        CellGrid(JUMPY, 4, atom_groups=((0, 1),)),
        # pure jump: the diffusion bin is dropped, so columns shift
        CellGrid(LevyModel(atoms=((1.0, 5.0), (2.0, 3.0))), 4),
    ]
    for grid in grids:
        ens = sample_ensemble(grid.model, grid, seed=BIG_SEED, n_paths=30)
        rows = cell_increments(ens)
        assert rows.shape == (30, grid.n_cells)
        shared = 0
        for i in range(ens.n_paths):
            path = ens.path(i)
            assert np.array_equal(rows[i], cell_increments(path))
            keys = list(zip(path.jump_cells.tolist(), path.jump_bins.tolist()))
            shared += len(keys) - len(set(keys))
        if grid.model is not MIXED:
            assert shared > 0  # some cell holds two jumps of one bin


def test_terminal_value_reconstructs_drift_diffusion_and_jumps():
    model = LevyModel(b=-0.3, sigma=0.6, atoms=((1.5, 1.0), (0.5, 2.0)), horizon=1.0)
    grid = CellGrid(model, 8)
    ens = sample_ensemble(model, grid, seed=31, n_paths=40)
    term = terminal_value(ens)
    sizes = np.array([x for x, _ in model.atoms])
    for i in (0, 7, 23, 39):
        p = ens.path(i)
        want = (
            model.b * model.horizon
            + model.sigma * p.brownian.sum()
            + sizes[p.jump_atoms].sum()
            - model.small_jump_drift * model.horizon
        )
        assert term[i] == pytest.approx(want, abs=1e-10)


def test_jump_times_stay_inside_the_horizon():
    model = poisson_preset(3.0, 0.5)
    grid = CellGrid(model, 4)
    ens = sample_ensemble(model, grid, seed=2, n_paths=200)
    assert np.all(ens.jump_times >= 0.0)
    assert np.all(ens.jump_times < model.horizon)
