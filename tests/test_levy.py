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
    poisson_preset,
    sample_ensemble,
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


# pure jump, pure diffusion, mixed, and two atoms grouped into one jump bin
LAYOUT_GRIDS = {
    "jump": CellGrid(poisson_preset(1.0, 1.0), 4),
    "diffusion": CellGrid(brownian_preset(), 3),
    "mixed": CellGrid(JUMPY, 5),
    "grouped": CellGrid(
        LevyModel(atoms=((1.0, 5.0), (2.0, 3.0))), 4, atom_groups=((0, 1),)
    ),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_GRIDS))
def test_layout_arrays_agree_with_the_cells(name):
    grid = LAYOUT_GRIDS[name]
    pairs = list(zip(grid.cell_time.tolist(), grid.cell_bin.tolist()))
    assert pairs == list(grid.cells)
    assert grid.column.shape == (grid.n_time, grid.n_bins)
    for k in range(grid.n_time):
        for b in range(grid.n_bins):
            if grid.bin_masses[b] > 0:
                assert grid.cells[grid.column[k, b]] == (k, b)
            else:
                assert grid.column[k, b] == -1
    assert sorted(grid.column[grid.column >= 0].tolist()) == list(range(grid.n_cells))
    if grid.model.sigma == 0:
        assert np.all(grid.column[:, 0] == -1)
    for table in (grid.cell_time, grid.cell_bin, grid.column):
        assert not table.flags.writeable


@pytest.mark.parametrize("name", ["diffusion", "mixed"])
def test_diffusion_columns_are_a_stride(name):
    # cell_increments writes the diffusion cells through this basic slice
    grid = LAYOUT_GRIDS[name]
    per_time = grid.n_cells // grid.n_time
    assert per_time * grid.n_time == grid.n_cells
    assert np.array_equal(grid.column[:, 0], np.arange(grid.n_cells)[::per_time])
    ens = sample_ensemble(grid.model, grid, seed=BIG_SEED, n_paths=20)
    want = np.tile(-grid.cell_masses, (ens.n_paths, 1))
    want[:, grid.column[:, 0]] = grid.model.sigma * ens.brownian
    if ens.jump_times.size:
        np.add.at(want, (ens.jump_paths, ens._jump_columns()), 1.0)
    assert cell_increments(ens).tobytes() == want.tobytes()


def test_same_as_is_identity_or_equal_spec():
    grid = CellGrid(JUMPY, 5)
    assert grid.same_as(grid)
    assert grid.same_as(CellGrid(JUMPY, 5)) and CellGrid(JUMPY, 5).same_as(grid)
    assert not grid.same_as(CellGrid(JUMPY, 4))
    assert not grid.same_as(CellGrid(JUMPY, 5, atom_groups=((0, 1),)))


@pytest.mark.parametrize("name", sorted(LAYOUT_GRIDS))
def test_cell_counts_match_a_hand_count(name):
    grid = LAYOUT_GRIDS[name]
    ens = sample_ensemble(grid.model, grid, seed=BIG_SEED, n_paths=20)
    counts = ens.cell_counts()
    # cell-major: one contiguous row of every path's count per cell
    assert counts.shape == (grid.n_cells, 20) and counts.dtype == np.float64
    assert counts.flags.c_contiguous
    index = {cell: ci for ci, cell in enumerate(grid.cells)}
    want = np.zeros((grid.n_cells, 20))
    for i in range(20):
        lo, hi = ens.offsets[i], ens.offsets[i + 1]
        for t, a in zip(ens.jump_times[lo:hi], ens.jump_atoms[lo:hi]):
            want[index[(grid.cell_of_time(float(t)), int(grid.atom_bin[a]))], i] += 1.0
    assert np.array_equal(counts, want)
    assert counts.sum() == ens.jump_times.size
    if name in ("mixed", "grouped"):
        assert counts.max() >= 2  # some cell holds two jumps
    for lo, hi in ((0, 20), (0, 1), (19, 20), (4, 13)):
        assert np.array_equal(ens.paths(lo, hi).cell_counts(), counts[:, lo:hi])


def _reference_path(model, grid, seed, index):
    """Path `index` drawn on its own, from a freshly jumped Philox stream.

    Gaussian increments first, then per atom a Poisson count and that many
    uniform jump times in (0, T], sorted stably by time.
    """
    bitgen = np.random.Philox(key=seed)
    if index:
        bitgen = bitgen.jumped(index)
    rng = np.random.Generator(bitgen)
    T = model.horizon
    brownian = None
    if model.sigma > 0:
        brownian = rng.normal(0.0, np.sqrt(grid.dt), grid.n_time)
    times = [np.zeros(0)]
    atoms = [np.zeros(0, dtype=np.int64)]
    for j, (_, lam) in enumerate(model.atoms):
        count = int(rng.poisson(lam * T))
        if count:
            times.append(T * (1.0 - rng.random(count)))
            atoms.append(np.full(count, j, dtype=np.int64))
    times = np.concatenate(times)
    order = np.argsort(times, kind="stable")
    return brownian, times[order], np.concatenate(atoms)[order]


def _assert_same_path(one, reference, label):
    brownian, times, atoms = reference
    assert one.n_paths == 1, label
    if brownian is None:
        assert one.brownian is None, label
    else:
        assert one.brownian.tobytes() == brownian.tobytes(), label
    assert one.jump_times.tobytes() == times.tobytes(), label
    assert one.jump_atoms.tobytes() == atoms.tobytes(), label
    assert one.jump_paths.tobytes() == np.zeros(times.size, dtype=np.int64).tobytes()
    assert one.offsets.tolist() == [0, times.size], label


PACKED = ("brownian", "jump_times", "jump_atoms", "jump_paths", "offsets")


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
                want = _reference_path(model, grid, seed, i)
                lo, hi = ens.offsets[i], ens.offsets[i + 1]
                assert np.array_equal(ens.jump_paths[lo:hi], np.full(hi - lo, i))
                _assert_same_path(ens.paths(i, i + 1), want, (name, seed, i))
                solo = sample_ensemble(model, grid, seed, 1, first=i)
                _assert_same_path(solo, want, (name, seed, i))
            # a block drawn from its first path on is that range of the ensemble
            for lo, n in ((0, 24), (0, 5), (5, 7), (12, 12), (23, 1)):
                part = ens.paths(lo, lo + n)
                block = sample_ensemble(model, grid, seed, n, first=lo)
                assert block.n_paths == n, (name, seed, lo)
                for attr in PACKED:
                    a, b = getattr(part, attr), getattr(block, attr)
                    label = (name, seed, lo, attr)
                    if a is None:
                        assert b is None, label
                    else:
                        assert a.dtype == b.dtype and np.array_equal(a, b), label
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


def test_paths_take_a_range_as_its_own_ensemble():
    for model in (poisson_preset(1.0, 1.0), brownian_preset(), MIXED, JUMPY):
        grid = CellGrid(model, 8)
        ens = sample_ensemble(model, grid, seed=BIG_SEED, n_paths=12)
        for lo, hi in ((0, 12), (0, 1), (11, 12), (3, 9), (5, 6)):
            part = ens.paths(lo, hi)
            j0, j1 = ens.offsets[lo], ens.offsets[hi]
            assert part.n_paths == hi - lo
            assert part.model is model and part.grid is grid
            if model.sigma > 0:
                assert part.brownian.tobytes() == ens.brownian[lo:hi].tobytes()
            else:
                assert part.brownian is None
            assert part.jump_times.tobytes() == ens.jump_times[j0:j1].tobytes()
            assert part.jump_atoms.tobytes() == ens.jump_atoms[j0:j1].tobytes()
            assert part.jump_paths.tolist() == (ens.jump_paths[j0:j1] - lo).tolist()
            assert part.offsets.tolist() == (ens.offsets[lo : hi + 1] - j0).tolist()
            assert np.array_equal(cell_increments(part), cell_increments(ens)[lo:hi])
            assert np.array_equal(terminal_value(part), terminal_value(ens)[lo:hi])


def test_paths_refuse_ranges_outside_the_ensemble():
    model = poisson_preset(1.0, 1.0)
    ens = sample_ensemble(model, CellGrid(model, 4), seed=4, n_paths=5)
    # the last path has two jumps; a negative index must not yield it empty
    assert ens.paths(4, 5).jump_times.size == 2
    for lo, hi in ((-1, 0), (-1, 5), (4, 4), (3, 2), (0, 6), (5, 6)):
        with pytest.raises(ValueError, match="path range"):
            ens.paths(lo, hi)


def test_sample_ensemble_refuses_paths_outside_the_stream(monkeypatch):
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing the range")

    monkeypatch.setattr(np.random, "Philox", no_draw)
    for first, n_paths in ((-1, 1), (2**64, 1), (2**64 - 2, 3)):
        with pytest.raises(ValueError, match="path indices"):
            sample_ensemble(model, grid, 4, n_paths, first=first)
    monkeypatch.undo()
    # the last path of the stream is still drawable
    assert sample_ensemble(model, grid, 4, 2, first=2**64 - 2).n_paths == 2
    with pytest.raises(ValueError, match="different model"):
        sample_ensemble(brownian_preset(), grid, 4, 1)


def test_seed_controls_the_draw():
    model = poisson_preset(2.0, 1.0)
    grid = CellGrid(model, 4)
    a = sample_ensemble(model, grid, seed=5, n_paths=50)
    b = sample_ensemble(model, grid, seed=5, n_paths=50)
    c = sample_ensemble(model, grid, seed=6, n_paths=50)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert not np.array_equal(np.diff(a.offsets), np.diff(c.offsets))


def _compensated_increments(ens, i):
    """Path i's cell increments, built by hand cell by cell."""
    grid = ens.grid
    index = {cell: ci for ci, cell in enumerate(grid.cells)}
    want = np.zeros(grid.n_cells)
    for ci, (k, b) in enumerate(grid.cells):
        if b == 0:
            want[ci] = grid.model.sigma * ens.brownian[i, k]
        else:
            want[ci] = -grid.bin_rates[b - 1] * grid.dt
    # each jump adds one event to its bin; sizes enter only at reconstruction
    lo, hi = ens.offsets[i], ens.offsets[i + 1]
    for t, a in zip(ens.jump_times[lo:hi], ens.jump_atoms[lo:hi]):
        k = grid.cell_of_time(float(t))
        want[index[(k, int(grid.atom_bin[a]))]] += 1.0
    return want


def test_cell_increments_follow_the_compensated_formula():
    model = LevyModel(b=0.2, sigma=0.7, atoms=((1.0, 2.0), (0.4, 3.0)), horizon=1.0)
    grid = CellGrid(model, 5)
    path = sample_ensemble(model, grid, 123, 1)
    inc = cell_increments(path)
    assert inc.shape == (1, grid.n_cells)
    assert path.jump_times.size > 0
    assert np.allclose(inc[0], _compensated_increments(path, 0), atol=1e-12)


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
            assert np.array_equal(rows[i], _compensated_increments(ens, i))
            lo, hi = ens.offsets[i], ens.offsets[i + 1]
            cells, bins = ens.jump_cells[lo:hi], ens.jump_bins[lo:hi]
            keys = list(zip(cells.tolist(), bins.tolist()))
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
        p = ens.paths(i, i + 1)
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
