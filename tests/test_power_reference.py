"""The power engine against the per-cell series product it replaced.

`reference_power_integrals` keeps the earlier `integrals.power_integrals`:
per time cell it multiplies the running series by the heat factor of the
diffusion bin and by the shifted binomial series of each jump bin, all paths
at once. The engine now sums one log series per path and takes one truncated
series exp, so the two agree to rounding, not bit for bit: per path to 1e-12
relative to max(1, |reference|). The reference keeps the heat factor's known
defect (its recursion is m h_m = x h_{m-1} - (m - 1) s h_{m-2}), and so does
the engine, in the one term `integrals._heat_defect`; without that term the
engine gives the heat-Hermite closed form.
"""
from math import comb, factorial

import numpy as np
import pytest

from chaoskit import integrals
from chaoskit.integrals import _series_exp, power_integrals
from chaoskit.levy import (
    CellGrid,
    LevyModel,
    StepField,
    brownian_preset,
    poisson_preset,
    sample_ensemble,
)

REL_TOL = 1e-12


def _binomial_series(counts, v, n_max):
    out = np.zeros((n_max + 1, counts.shape[0]), dtype=np.complex128)
    out[0] = 1.0
    binom = np.ones(counts.shape[0])
    for r in range(1, n_max + 1):
        binom = binom * (counts - (r - 1)) / r
        out[r] = binom * v**r
    return out


def _convolve_into(acc, fac):
    out = np.zeros_like(acc)
    for m in range(acc.shape[0]):
        for r in range(m + 1):
            out[m] += acc[r] * fac[m - r]
    return out


def reference_power_integrals(field, n_max, ens):
    """The per-cell series product: heat factor, then each jump bin's
    compensated binomial series, cell by cell."""
    grid = ens.grid
    model = grid.model
    P = ens.n_paths
    K = grid.n_time
    dt = grid.dt
    acc = np.zeros((n_max + 1, P), dtype=np.complex128)
    acc[0] = 1.0
    if n_max == 0:
        return acc.T.copy()
    counts = ens.cell_counts() if ens.jump_times.size else None
    expo = np.empty(n_max + 1, dtype=np.complex128)
    herm = np.zeros((n_max + 1, P), dtype=np.complex128)
    for k in range(K):
        if model.sigma > 0:
            v0 = field.values[k, 0]
            x = v0 * model.sigma * ens.brownian[:, k]
            s = v0 * v0 * model.sigma**2 * dt
            herm[0] = 1.0
            herm[1] = x
            for m in range(2, n_max + 1):
                herm[m] = (x * herm[m - 1] - (m - 1) * s * herm[m - 2]) / m
            acc = _convolve_into(acc, herm)
        for b in range(1, grid.n_bins):
            v = complex(field.values[k, b])
            a = grid.bin_rates[b - 1] * dt
            if v == 0:
                continue
            t = 1.0 + 0.0j
            for m in range(n_max + 1):
                expo[m] = t
                t = t * (-v * a) / (m + 1)
            if counts is None:
                acc = _convolve_into(acc, expo)
            else:
                binom = _binomial_series(counts[grid.column[k, b]], v, n_max)
                both = _convolve_into(binom, expo)
                acc = _convolve_into(acc, both)
    for m in range(n_max + 1):
        acc[m] *= factorial(m)
    return acc.T.copy()


def assert_matches_reference(field, n_max, ens):
    got = power_integrals(field, n_max, ens)
    want = reference_power_integrals(field, n_max, ens)
    assert got.shape == want.shape == (ens.n_paths, n_max + 1)
    assert got.dtype == np.complex128
    gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert gap.max(initial=0.0) <= REL_TOL, gap.max()


def random_field(grid, rng, scale=0.5, zero_columns=()):
    vals = scale * (
        rng.standard_normal((grid.n_time, grid.n_bins))
        + 1j * rng.standard_normal((grid.n_time, grid.n_bins))
    )
    vals[:, list(zero_columns)] = 0.0
    return StepField(grid, vals)


MODELS = {
    "poisson": poisson_preset(1.0, 1.0),
    "brownian": brownian_preset(),
    "mixed": LevyModel(sigma=1.0, atoms=((1.0, 1.0),)),
    "drift_small_atoms": LevyModel(b=0.4, sigma=0.6, atoms=((0.3, 2.0), (-0.6, 1.5))),
    "jumpy": LevyModel(sigma=0.3, atoms=((1.0, 8.0), (-0.5, 6.0))),
    "long_horizon": LevyModel(sigma=0.8, atoms=((2.0, 0.7),), horizon=2.5),
    "short_horizon": LevyModel(atoms=((-1.5, 3.0), (0.8, 1.0)), horizon=0.4),
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("K", [1, 4, 16])
def test_engine_matches_the_series_product(name, K):
    model = MODELS[name]
    grid = CellGrid(model, K)
    rng = np.random.default_rng(K)
    ens = sample_ensemble(model, grid, seed=K + 17, n_paths=200)
    assert_matches_reference(random_field(grid, rng), 4, ens)


@pytest.mark.parametrize("n_max", range(7))
def test_every_order_up_to_six(n_max):
    model = MODELS["drift_small_atoms"]
    grid = CellGrid(model, 5)
    ens = sample_ensemble(model, grid, seed=3, n_paths=150)
    assert_matches_reference(random_field(grid, np.random.default_rng(n_max)), n_max, ens)


def test_two_atoms_in_one_bin():
    model = LevyModel(sigma=0.5, atoms=((1.0, 2.0), (-0.5, 3.0), (0.3, 1.0)))
    grid = CellGrid(model, 6, atom_groups=((0, 2), (1,)))
    ens = sample_ensemble(model, grid, seed=9, n_paths=200)
    assert_matches_reference(random_field(grid, np.random.default_rng(4)), 5, ens)


@pytest.mark.parametrize("zero", [(0,), (1,), (0, 2), (1, 2)])
def test_complex_fields_with_zero_columns(zero):
    model = MODELS["drift_small_atoms"]
    grid = CellGrid(model, 8)
    ens = sample_ensemble(model, grid, seed=5, n_paths=200)
    field = random_field(grid, np.random.default_rng(7), zero_columns=zero)
    assert_matches_reference(field, 4, ens)
    # a field that is zero on some cells of a column, too
    vals = field.values.copy()
    vals[::3] = 0.0
    assert_matches_reference(StepField(grid, vals), 4, ens)


def test_zero_field_gives_only_order_zero():
    model = MODELS["mixed"]
    grid = CellGrid(model, 4)
    ens = sample_ensemble(model, grid, seed=2, n_paths=30)
    got = power_integrals(StepField(grid, np.zeros((4, grid.n_bins))), 3, ens)
    assert np.array_equal(got[:, 0], np.ones(30)) and not got[:, 1:].any()


@pytest.mark.parametrize("name", ["poisson", "mixed", "jumpy"])
def test_one_path_ensembles_with_and_without_jumps(name):
    model = MODELS[name]
    grid = CellGrid(model, 4)
    ens = sample_ensemble(model, grid, seed=11, n_paths=60)
    jumps = np.diff(ens.offsets)
    field = random_field(grid, np.random.default_rng(3))
    picked = [int(np.argmax(jumps)), int(np.argmin(jumps))]
    for i in picked:
        one = ens.paths(i, i + 1)
        assert_matches_reference(field, 4, one)
        assert np.array_equal(power_integrals(field, 4, one)[0], power_integrals(field, 4, ens)[i])
    if name != "jumpy":
        # an ensemble that holds no jump at all still carries the compensator
        empty = ens.paths(picked[1], picked[1] + 1)
        assert empty.jump_times.size == 0
        assert_matches_reference(field, 5, empty)


def test_series_exp_of_the_heat_log_is_heat_hermite():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50) + 0.3j * rng.standard_normal(50)
    s = 0.7 - 0.2j
    n_max = 6
    log = np.zeros((n_max + 1, 50), dtype=np.complex128)
    log[1] = x
    log[2] = -s / 2
    got = _series_exp(log)
    for m in range(n_max + 1):
        # m! h_m = He_m(x; s) = sum_j m! / (j! (m - 2j)!) (-s / 2)^j x^(m - 2j)
        he = sum(
            factorial(m) / (factorial(j) * factorial(m - 2 * j)) * (-s / 2) ** j * x ** (m - 2 * j)
            for j in range(m // 2 + 1)
        )
        want = he / factorial(m)
        assert np.max(np.abs(got[m] - want) / np.maximum(1.0, np.abs(want))) <= REL_TOL


def test_series_exp_of_the_jump_log_is_charlier():
    N = np.arange(0, 12, dtype=float)
    v, a = 0.8 - 0.3j, 1.3
    n_max = 6
    log = np.zeros((n_max + 1, N.size), dtype=np.complex128)
    for r in range(1, n_max + 1):
        log[r] = N * (-1) ** (r + 1) * v**r / r
    log[1] -= v * a
    got = _series_exp(log)
    for m in range(n_max + 1):
        # [z^m] (1 + v z)^N e^(-v a z)
        want = sum(
            np.array([comb(int(n), r) for n in N]) * v**r * (-v * a) ** (m - r) / factorial(m - r)
            for r in range(m + 1)
        )
        assert np.max(np.abs(got[m] - want) / np.maximum(1.0, np.abs(want))) <= REL_TOL


def test_without_the_defect_term_the_engine_is_the_heat_closed_form(monkeypatch):
    # a constant field c on the Brownian preset: I_n = He_n(c sigma B_T; c^2 sigma^2 T)
    model = brownian_preset()
    grid = CellGrid(model, 8)
    ens = sample_ensemble(model, grid, seed=21, n_paths=200)
    c = 0.7
    field = StepField.from_columns(grid, diffusion=np.full(8, c))
    x = c * ens.brownian.sum(axis=1)
    s = c * c * model.horizon
    n_max = 5
    he = [np.ones_like(x), x]
    for m in range(2, n_max + 1):
        he.append(x * he[m - 1] - (m - 1) * s * he[m - 2])
    with_defect = power_integrals(field, n_max, ens)
    monkeypatch.setattr(integrals, "_heat_defect", lambda *args: None)
    fixed = power_integrals(field, n_max, ens)
    for m in range(n_max + 1):
        gap = np.abs(fixed[:, m] - he[m]) / np.maximum(1.0, np.abs(he[m]))
        assert gap.max() <= REL_TOL, (m, gap.max())
        # the defect moves orders >= 3 only
        same = np.abs(with_defect[:, m] - fixed[:, m]).max() <= REL_TOL * np.abs(he[m]).max()
        assert same == (m < 3), m
