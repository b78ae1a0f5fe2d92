"""Ladder and tensor-power kernels against their masked-loop references.

The vector kernels read lowering through the raise tables and build tensor
powers from a per-mode power table. The references below are the earlier
loop forms over `lower_maps`, and the kernels must reproduce them bit for
bit: each output element gets the same products, added in the same order.
"""
from math import factorial, sqrt

import numpy as np
import pytest

from chaoskit import chaos
from chaoskit.dense import operator_matrix
from chaoskit.fock import (
    FockVector,
    MarkedFock,
    annihilate,
    exp_vector,
    gradient,
    marked_lower,
    tensor_power,
)
from chaoskit.indices import factorial_ratio_sqrt, level_dim, lower_maps, occ_array
from chaoskit.levy import CellGrid, LevyModel

DIMS = [1, 2, 3, 4, 5]
TRUNCATION = 5


def _levels(rng, d, truncation, trailing=()):
    return [
        rng.standard_normal((level_dim(d, n),) + trailing)
        + 1j * rng.standard_normal((level_dim(d, n),) + trailing)
        for n in range(truncation + 1)
    ]


def reference_annihilate(fa, psi):
    d, M = psi.d, psi.truncation
    out = [np.zeros(level_dim(d, n), dtype=np.complex128) for n in range(M + 1)]
    for n in range(1, M + 1):
        target, weight = lower_maps(d, n)
        src = psi.levels[n]
        dst = out[n - 1]
        for i in range(d):
            valid = target[:, i] >= 0
            if not np.any(valid):
                continue
            dst[target[valid, i]] += np.conj(fa[i]) * weight[valid, i] * src[valid]
    return out


def reference_gradient(psi):
    d, M = psi.d, psi.truncation
    out = [np.zeros((level_dim(d, n), d), dtype=np.complex128) for n in range(M + 1)]
    for n in range(1, M + 1):
        target, weight = lower_maps(d, n)
        src = psi.levels[n]
        dst = out[n - 1]
        for i in range(d):
            valid = target[:, i] >= 0
            if not np.any(valid):
                continue
            dst[target[valid, i], i] = weight[valid, i] * src[valid]
    return out


def reference_marked_lower(phi):
    d, M = phi.d, phi.truncation
    out = [np.zeros((level_dim(d, n), d, d), dtype=np.complex128) for n in range(M)]
    for n in range(1, M + 1):
        target, weight = lower_maps(d, n)
        src = phi.levels[n]
        dst = out[n - 1]
        for i in range(d):
            valid = target[:, i] >= 0
            if not np.any(valid):
                continue
            dst[target[valid, i], i, :] = weight[valid, i, None] * src[valid, :]
    return out


def reference_symmetrize(grid, g, m):
    c = grid.n_cells
    occ = occ_array(c, m + 1)
    low_t = lower_maps(c, m + 1)[0]
    out = np.zeros(occ.shape[0], dtype=np.complex128)
    for s in range(c):
        col = low_t[:, s]
        hot = col >= 0
        if np.any(hot):
            out[hot] += occ[hot, s] * g[col[hot], s]
    return out / (m + 1)


def reference_tensor_coeffs(fa, n):
    d = fa.shape[0]
    table = fa[:, None] ** np.arange(n + 1)
    return factorial_ratio_sqrt(d, n) * np.prod(table[np.arange(d), occ_array(d, n)], axis=1)


def assert_levels_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


@pytest.mark.parametrize("d", DIMS)
def test_annihilate_matches_the_masked_loop(d):
    rng = np.random.default_rng(100 + d)
    psi = FockVector(d, TRUNCATION, _levels(rng, d, TRUNCATION))
    fa = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    assert_levels_equal(annihilate(fa, psi).levels, reference_annihilate(fa, psi))


@pytest.mark.parametrize("d", DIMS)
def test_gradient_matches_the_masked_loop(d):
    rng = np.random.default_rng(200 + d)
    psi = FockVector(d, TRUNCATION, _levels(rng, d, TRUNCATION))
    assert_levels_equal(gradient(psi).levels, reference_gradient(psi))


@pytest.mark.parametrize("d", DIMS)
def test_marked_lower_matches_the_masked_loop(d):
    rng = np.random.default_rng(300 + d)
    phi = MarkedFock(d, TRUNCATION, _levels(rng, d, TRUNCATION, (d,)))
    assert_levels_equal(marked_lower(phi), reference_marked_lower(phi))


@pytest.mark.parametrize("d", DIMS)
def test_gradient_matches_the_dense_lowering_matrix(d):
    rng = np.random.default_rng(400 + d)
    psi = FockVector(d, TRUNCATION, _levels(rng, d, TRUNCATION))
    grad = gradient(psi)
    for n in range(1, TRUNCATION + 1):
        dense = operator_matrix("lower", n, d).matrix @ psi.levels[n]
        want = dense.reshape(level_dim(d, n - 1), d)
        assert np.max(np.abs(grad.levels[n - 1] - want)) <= 1e-14


def _grids():
    mixed = LevyModel(b=0.0, sigma=1.0, atoms=((1.0, 1.0), (-0.5, 2.0)), horizon=1.0)
    pure_jump = LevyModel(b=0.0, sigma=0.0, atoms=((1.0, 1.5),), horizon=1.0)
    return [CellGrid(mixed, 2), CellGrid(pure_jump, 3), CellGrid(mixed, 1)]


def _marked_chaos(rng, grid, truncation):
    c = grid.n_cells
    return chaos.MarkedChaos(grid, truncation, _levels(rng, c, truncation, (c,)))


@pytest.mark.parametrize("k", range(3))
def test_symmetrize_matches_the_masked_loop(k):
    grid = _grids()[k]
    rng = np.random.default_rng(500 + k)
    u = _marked_chaos(rng, grid, 4)
    for m in range(5):
        got = chaos._symmetrize(grid, u.kernels[m], m)
        assert np.array_equal(got, reference_symmetrize(grid, u.kernels[m], m))


@pytest.mark.parametrize("k", range(3))
def test_chaos_divergence_matches_the_masked_loop(k, monkeypatch):
    grid = _grids()[k]
    rng = np.random.default_rng(600 + k)
    u = _marked_chaos(rng, grid, 3)
    got, got_dropped = chaos.divergence(u)
    got_dom = chaos.dom_divergence_functional(u)
    monkeypatch.setattr(chaos, "_symmetrize", reference_symmetrize)
    want, want_dropped = chaos.divergence(u)
    assert_levels_equal(got.kernels, want.kernels)
    assert got_dropped == want_dropped
    assert got_dom == chaos.dom_divergence_functional(u)


MODE_VECTORS = {
    "unit": [0.6 - 0.3j, -0.8 + 0.1j, 0.2j, 1.0, -0.45 - 0.9j, 0.3 + 0.7j],
    "with_zero": [0.0, 1.3 + 0.2j, -0.7j, 0.0, 0.9, 0.0],
    "tiny": [1e-5 + 2e-5j, -3e-5, 4e-5j, 1e-5 - 1e-5j, 2e-5 + 3e-5j, -1e-5j],
    "small": [1e-3 + 2e-3j, -4e-4, 3e-5j, 7e-3 - 1e-3j, 5e-4 + 5e-4j, -2e-3 + 1e-4j],
    "large": [35.0 - 12.0j, -8.5 + 60.0j, 120.0, 0.05j, -2.0 - 2.0j, -110.0 + 40.0j],
    "real": [0.7, -1.2, 3.5, -0.25, 1e-4, 80.0],
    "negative_zero": [
        complex(-0.0, 0.5),
        complex(1.5, -0.0),
        complex(-0.0, -0.0),
        complex(-0.3, -0.0),
        complex(0.0, -0.0),
        complex(-0.0, 2.0),
    ],
}
TENSOR_DIMS = range(1, 7)
DEGREES = [0, 1, 2, 7, 30]


def _mode_vector(kind, d):
    return np.array(MODE_VECTORS[kind][:d], dtype=np.complex128)


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", TENSOR_DIMS)
@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("kind", sorted(MODE_VECTORS))
def test_tensor_power_matches_the_occupation_product(d, n, kind):
    fa = _mode_vector(kind, d)
    assert_same_bytes(tensor_power(fa, n).coeffs, reference_tensor_coeffs(fa, n))


@pytest.mark.parametrize("d", TENSOR_DIMS)
@pytest.mark.parametrize("truncation", DEGREES)
@pytest.mark.parametrize("kind", sorted(MODE_VECTORS))
def test_exp_vector_matches_the_occupation_product(d, truncation, kind):
    fa = _mode_vector(kind, d)
    levels = exp_vector(fa, truncation).levels
    assert len(levels) == truncation + 1
    for n, got in enumerate(levels):
        assert_same_bytes(got, reference_tensor_coeffs(fa, n) / sqrt(factorial(n)))
