"""Path-level integral engines checked against hand-computed formulas."""
from math import factorial

import numpy as np
import pytest

from chaoskit.integrals import (
    doleans_exp,
    exp_martingale_grid,
    exp_martingale_terminal,
    iterated_chain,
    iterated_integral,
    power_integrals,
    product_integral,
    representation_residual,
    stochastic_integral,
)
from chaoskit.levy import (
    CellGrid,
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
    kern = np.full((4, 4), 0.25) - np.diag(np.full(4, 0.25))
    for out in (
        stochastic_integral(field, path),
        product_integral(kern, path),
        iterated_chain([field, field], path),
        iterated_integral(field, 2, path),
        doleans_exp(field, path),
        exp_martingale_terminal(np.full(4, 0.5), path),
    ):
        assert isinstance(out, np.ndarray) and out.shape == (1,)
    assert power_integrals(field, 3, path).shape == (1, 4)
    assert exp_martingale_grid(np.full(4, 0.5), path).shape == (1, 5)


def test_representation_residual_takes_exactly_one_path():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)
    ens = sample_ensemble(model, grid, seed=3, n_paths=2)
    with pytest.raises(ValueError, match="one path"):
        representation_residual(np.full(4, 0.5), ens)
    assert isinstance(representation_residual(np.full(4, 0.5), ens.paths(1, 2)), float)


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
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 6)
    field = jump_field(grid, np.full(6, 0.7))
    ens = sample_ensemble(model, grid, seed=21, n_paths=50)
    a = iterated_integral(field, 2, ens)
    b = iterated_chain([field, field], ens)
    assert np.allclose(a, b, atol=1e-13)


def test_euler_first_order_is_exact_on_the_shared_grid():
    model = brownian_preset(1.0)
    grid = CellGrid(model, 16)
    prof = 0.4 + 0.3 * np.sin(2 * np.pi * np.arange(16) / 16)
    field = diffusion_field(grid, prof)
    ens = sample_ensemble(model, grid, seed=29, n_paths=80)
    got = iterated_chain([field], ens)
    assert np.allclose(got, stochastic_integral(field, ens), atol=1e-12)


def test_path_grid_must_refine_the_field_grid():
    model = poisson_preset(1.0, 1.0)
    field = jump_field(CellGrid(model, 4), np.ones(4))
    coarse_paths = sample_ensemble(model, CellGrid(model, 6), seed=2, n_paths=4)
    with pytest.raises(ValueError, match="refine"):
        iterated_chain([field], coarse_paths)
    other = sample_ensemble(
        poisson_preset(2.0, 1.0), CellGrid(poisson_preset(2.0, 1.0), 8), seed=2, n_paths=4
    )
    with pytest.raises(ValueError, match="different models"):
        iterated_chain([field], other)


def test_product_integral_matches_dense_contraction():
    model = poisson_preset(2.0, 1.0)
    grid = CellGrid(model, 5)
    ens = sample_ensemble(model, grid, seed=37, n_paths=120)
    inc = cell_increments(ens)
    rng = np.random.default_rng(4)
    kern = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    np.fill_diagonal(kern, 0.0)
    want = np.einsum("st,ps,pt->p", kern, inc, inc)
    assert np.allclose(product_integral(kern, ens), want, atol=1e-11)

    kern3 = np.zeros((5, 5, 5), dtype=np.complex128)
    kern3[0, 2, 4] = 2.5 - 1j
    want3 = (2.5 - 1j) * inc[:, 0] * inc[:, 2] * inc[:, 4]
    assert np.allclose(product_integral(kern3, ens), want3, atol=1e-11)


def test_product_integral_rejects_diagonal_mass():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 3)
    ens = sample_ensemble(model, grid, seed=5, n_paths=4)
    kern = np.zeros((3, 3))
    kern[1, 1] = 1.0
    with pytest.raises(ValueError, match="diagonal"):
        product_integral(kern, ens)


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
    stat = summarize(exp_martingale_terminal(prof, ens))
    assert abs(stat.mean - 1.0) <= 6.0 * stat.se
    grid_vals = exp_martingale_grid(prof, ens)
    assert np.allclose(grid_vals[:, 0], 1.0)
    assert np.allclose(grid_vals[:, -1], exp_martingale_terminal(prof, ens))


def test_exp_martingale_needs_a_real_profile():
    model = poisson_preset(1.0, 1.0)
    grid = CellGrid(model, 4)
    ens = sample_ensemble(model, grid, seed=7, n_paths=4)
    with pytest.raises(ValueError, match="real profile"):
        exp_martingale_terminal(np.full(4, 0.1 + 0.2j), ens)


def test_representation_residual_vanishes_for_pure_jump_paths():
    model = poisson_preset(1.5, 1.0)
    grid = CellGrid(model, 8)
    prof = 0.6 + 0.3 * np.sin(2 * np.pi * np.arange(8) / 8)
    worst = 0.0
    for i in range(20):
        path = sample_ensemble(model, grid, 71, 1, first=i)
        worst = max(worst, representation_residual(prof, path))
    assert worst <= 1e-10
