"""The dense chaos route against closed forms built from terminal statistics.

For a constant field c, the multiple integrals have the generating function

    sum_n I_n(c^(x)n) z^n / n!
        = exp(z c sigma B_T - z^2 c^2 sigma^2 T / 2) * prod_j (1 + c z)^N_j e^(-c lambda_j T z)

on every noise type: heat-Hermite polynomials in B_T for the diffusion,
Charlier polynomials in each atom's jump count N_j for the jumps, and their
series product on a mixed model. `chaos_evaluate` takes the dense route when
an expansion records no power terms, and that route multiplies per-cell
compensated powers over the occupations; neither it nor this closed form
calls `integrals.power_integrals`, so the two are independent routes. The
closed form reads only B_T and the N_j of each path.

On the same random models: on pure-jump models (sigma = 0) the chain engine
times n! equals the power engine, n <= 3; on every model the chain gives a
path the same bits in the batch, in a slice and on its own; and the
characteristic-function martingale at the horizon equals its closed form
exp(i u X(T) + T eta(u)) for a constant profile u.
"""
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit.chaos import ChaosCoefficients, chaos_evaluate
from chaoskit.indices import level_dim
from chaoskit.integrals import exp_martingale_grid, iterated_chain, power_integrals
from chaoskit.levy import (
    CellGrid,
    LevyModel,
    StepField,
    brownian_preset,
    poisson_preset,
    sample_ensemble,
    terminal_value,
)

REL_TOL = 1e-9


def _series_product(a, b):
    out = np.zeros_like(a)
    for m in range(a.shape[0]):
        for r in range(m + 1):
            out[m] += a[r] * b[m - r]
    return out


def _generating_series(alpha, beta, counts, rate, c, n_max):
    """[z^n] exp(alpha z + beta z^2) prod_j (1 + c z)^N_j e^(-c rate z), n <= n_max.

    counts is a list of per-path count arrays; rate is sum_j lambda_j T.
    """
    P = alpha.shape[0]
    out = np.zeros((n_max + 1, P))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = alpha
    for n in range(2, n_max + 1):
        out[n] = (alpha * out[n - 1] + 2.0 * beta * out[n - 2]) / n
    for N in counts:
        binom = np.zeros((n_max + 1, P))
        binom[0] = 1.0
        for r in range(1, n_max + 1):
            binom[r] = binom[r - 1] * (N - (r - 1)) / r * c
        out = _series_product(out, binom)
    expo = np.array([(-c * rate) ** m / factorial(m) for m in range(n_max + 1)])
    return _series_product(out, np.repeat(expo[:, None], P, axis=1))


def closed_form(ens, c, n_max):
    """(I_n for n <= n_max, a bound on the magnitudes they are summed from).

    The bound is the same series with every sign made positive, n! times
    its coefficients: it dominates the sum of the absolute values of the
    monomials that make up I_n, so it scales the rounding of any route.
    """
    model = ens.model
    T = model.horizon
    b_T = ens.brownian.sum(axis=1) if ens.brownian is not None else np.zeros(ens.n_paths)
    counts = [
        np.bincount(ens.jump_paths[ens.jump_atoms == j], minlength=ens.n_paths)
        for j in range(len(model.atoms))
    ]
    rate = sum(lam for _, lam in model.atoms) * T
    alpha = c * model.sigma * b_T
    beta = -0.5 * c**2 * model.sigma**2 * T
    nfact = np.array([factorial(n) for n in range(n_max + 1)])[:, None]
    value = nfact * _generating_series(alpha, beta, counts, rate, c, n_max)
    bound = nfact * _generating_series(
        np.abs(alpha), -beta, counts, -abs(c) * rate, abs(c), n_max
    )
    return value, bound


def constant_field(grid, c):
    K = grid.n_time
    diffusion = np.full(K, c) if grid.model.sigma > 0 else None
    bins = {b: np.full(K, c) for b in range(1, grid.n_bins)}
    return StepField.from_columns(grid, diffusion=diffusion, bins=bins)


def assert_dense_route_matches(grid, ens, c, M):
    """from_power for n <= M and doleans, densely, against the closed form."""
    field = constant_field(grid, c)
    value, bound = closed_form(ens, c, M)
    for n in range(M + 1):
        F = ChaosCoefficients.from_power(field, n, M)
        F.source = None
        got = chaos_evaluate(F, ens)
        gap = np.abs(got - value[n]) / np.maximum(1.0, bound[n])
        assert gap.max() <= REL_TOL, (n, gap.max())
    E = ChaosCoefficients.doleans(field, M)
    E.source = None
    got = chaos_evaluate(E, ens)
    want = np.sum(value / np.array([factorial(n) for n in range(M + 1)])[:, None], axis=0)
    scale = np.sum(bound / np.array([factorial(n) for n in range(M + 1)])[:, None], axis=0)
    gap = np.abs(got - want) / np.maximum(1.0, scale)
    assert gap.max() <= REL_TOL, ("doleans", gap.max())


PRESETS = {
    "poisson": poisson_preset(1.0, 1.0),
    "brownian": brownian_preset(),
    "mixed": LevyModel(b=0.0, sigma=1.0, atoms=((1.0, 1.0),), horizon=1.0),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("c", [0.7, -0.45])
def test_dense_route_matches_the_closed_form_on_the_presets(name, c):
    model = PRESETS[name]
    grid = CellGrid(model, 8)
    ens = sample_ensemble(model, grid, seed=41, n_paths=200)
    assert_dense_route_matches(grid, ens, c, 4)


# each example stays below this many occupations at its top level, so that
# the property runs in a few seconds
MAX_TOP_LEVEL = 3000


@st.composite
def random_grids(draw, sigmas=(0.0, 0.4, 1.0, 1.7)):
    """A model with 1-3 atoms, drift, a horizon and a diffusion coefficient
    from sigmas, on a grid of 1-8 time cells whose bins may group atoms."""
    n_atoms = draw(st.integers(1, 3))
    sizes = draw(
        st.lists(
            st.sampled_from([-1.5, -0.6, -0.2, 0.3, 0.8, 1.0, 2.0]),
            min_size=n_atoms,
            max_size=n_atoms,
            unique=True,
        )
    )
    rates = draw(st.lists(st.floats(0.2, 4.0), min_size=n_atoms, max_size=n_atoms))
    sigma = draw(st.sampled_from(sigmas))
    model = LevyModel(
        b=draw(st.sampled_from([0.0, 0.5])),
        sigma=sigma,
        atoms=tuple(zip(sizes, rates)),
        horizon=draw(st.sampled_from([0.5, 1.0, 2.0])),
    )
    # a group label per atom; the labels in first-seen order name the bins
    labels = draw(st.lists(st.integers(0, n_atoms - 1), min_size=n_atoms, max_size=n_atoms))
    order = list(dict.fromkeys(labels))
    groups = tuple(
        tuple(j for j in range(n_atoms) if labels[j] == g) for g in order
    )
    return CellGrid(model, draw(st.integers(1, 8)), atom_groups=groups)


@st.composite
def models_and_grids(draw):
    grid = draw(random_grids())
    M = draw(st.integers(1, 4))
    while M > 1 and level_dim(grid.n_cells, M) > MAX_TOP_LEVEL:
        M -= 1
    c = draw(st.sampled_from([-1.2, -0.5, 0.3, 0.7, 1.1]))
    return grid, M, c, draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(models_and_grids())
def test_dense_route_matches_the_closed_form_on_random_models(case):
    grid, M, c, seed = case
    ens = sample_ensemble(grid.model, grid, seed=seed, n_paths=40)
    assert_dense_route_matches(grid, ens, c, M)


@settings(max_examples=60, deadline=None)
@given(random_grids(sigmas=(0.0,)), st.integers(0, 2**16))
def test_chain_times_factorial_is_the_power_engine_on_pure_jump_models(grid, seed):
    ens = sample_ensemble(grid.model, grid, seed=seed, n_paths=60)
    rng = np.random.default_rng(seed)
    shape = (grid.n_time, grid.n_bins)
    field = StepField(grid, 0.4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    powers = power_integrals(field, 3, ens)
    for n in (1, 2, 3):
        chain = factorial(n) * iterated_chain([field] * n, ens)
        gap = np.abs(chain - powers[:, n]) / np.maximum(1.0, np.abs(powers[:, n]))
        assert gap.max() <= REL_TOL, (n, gap.max())


@settings(max_examples=60, deadline=None)
@given(random_grids(), st.integers(1, 4), st.integers(0, 2**16))
def test_chain_bits_of_a_path_do_not_depend_on_its_batch(grid, n, seed):
    ens = sample_ensemble(grid.model, grid, seed=seed, n_paths=40)
    rng = np.random.default_rng(seed)
    shape = (grid.n_time, grid.n_bins)
    fields = []
    for _ in range(n):
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals[rng.random(shape) < 0.3] = 0.0
        fields.append(StepField(grid, vals))
    batch = iterated_chain(fields, ens)
    lo = int(rng.integers(0, 39))
    for a, b in ((lo, 40), (lo, lo + 1)):
        assert iterated_chain(fields, ens.paths(a, b)).tobytes() == batch[a:b].tobytes()


@settings(max_examples=60, deadline=None)
@given(random_grids(), st.sampled_from([-1.3, -0.4, 0.25, 0.7, 2.0]), st.integers(0, 2**16))
def test_martingale_at_the_horizon_is_the_closed_form(grid, u, seed):
    model = grid.model
    ens = sample_ensemble(model, grid, seed=seed, n_paths=60)
    got = exp_martingale_grid(np.full(grid.n_time, u), ens)[:, -1]
    want = np.exp(1j * u * terminal_value(ens) + model.horizon * model.symbol(u))
    gap = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert gap.max() <= REL_TOL, gap.max()
