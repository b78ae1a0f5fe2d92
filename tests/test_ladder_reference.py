"""Ladder and tensor-power kernels against their masked-loop references.

The vector kernels read lowering through the raise tables, raise every level
of a vector at once, and build tensor powers from a per-mode power table.
The references below are per-level loop forms over `lower_maps`, and the
kernels must reproduce them bit for bit: each output element gets the same
products, added in the same order. The two routes to the Ito-Skorohod
isometry are held to earlier forms of themselves the same way: the ladder
route that lowered each input twice, the embedding that took a truncation,
and the kernel route's per-order loops.
"""
from math import factorial, sqrt

import numpy as np
import pytest

from chaoskit import chaos, fock
from chaoskit.dense import lower_matrix
from chaoskit.fock import (
    FockVector,
    MarkedFock,
    annihilate,
    create,
    divergence,
    exp_vector,
    gradient,
    ito_skorohod,
    marked_exchange,
    marked_lower,
)
from chaoskit.indices import (
    factorial_ratio_sqrt,
    level_dim,
    lower_maps,
    multiplicities,
    occ_array,
    raise_maps,
)
from chaoskit.levy import CellGrid, LevyModel, brownian_preset, poisson_preset
from chaoskit.suites import _lift_marked

DIMS = [1, 2, 3, 4, 5]
TRUNCATION = 5
LADDER_TRUNCATIONS = [0, 1, 5]
LADDER_KINDS = ["random", "negative_zero", "large"]


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


def reference_create(fa, psi):
    """Levels and spill norm of a*(f) psi, raising level n - 1 into level n."""
    d, M = psi.d, psi.truncation
    out = [np.zeros(level_dim(d, n), dtype=np.complex128) for n in range(M + 2)]
    for n in range(1, M + 2):
        target, weight = lower_maps(d, n)
        src = psi.levels[n - 1]
        for i in range(d):
            valid = target[:, i] >= 0
            out[n][valid] += fa[i] * weight[valid, i] * src[target[valid, i]]
    return out[: M + 1], float(np.linalg.norm(out[M + 1]))


def reference_divergence(phi):
    """Levels and dropped mass of the divergence, mark by mark in mode order."""
    d, M = phi.d, phi.truncation
    out = [np.zeros(level_dim(d, n), dtype=np.complex128) for n in range(M + 2)]
    for n in range(1, M + 2):
        target, weight = lower_maps(d, n)
        src = phi.levels[n - 1]
        for j in range(d):
            valid = target[:, j] >= 0
            out[n][valid] += weight[valid, j] * src[target[valid, j], j]
    return out[: M + 1], float(np.linalg.norm(out[M + 1]))


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


def level_loop_gradient(psi):
    """Levels of the gradient, gathered level by level through raise_maps."""
    d, M = psi.d, psi.truncation
    out = [np.zeros((level_dim(d, n), d), dtype=np.complex128) for n in range(M + 1)]
    for n in range(1, M + 1):
        target, weight = raise_maps(d, n - 1)
        out[n - 1][:] = weight * psi.levels[n][target]
    return out


def level_loop_marked_lower(phi):
    """The lowered marked levels, gathered level by level through raise_maps."""
    out = []
    for n in range(1, phi.truncation + 1):
        target, weight = raise_maps(phi.d, n - 1)
        out.append(weight[:, :, None] * phi.levels[n][target])
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


def assert_levels_bytes_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


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


def _fock_inputs(kind, d, truncation):
    """(f, psi): a mode vector and a vector with random or exponential levels."""
    rng = np.random.default_rng(700 + 10 * d + truncation)
    if kind == "random":
        fa = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return fa, FockVector(d, truncation, _levels(rng, d, truncation))
    fa = _mode_vector(kind, d)
    return fa, exp_vector(fa, truncation)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("truncation", LADDER_TRUNCATIONS)
@pytest.mark.parametrize("kind", LADDER_KINDS)
def test_create_matches_the_masked_loop(d, truncation, kind):
    fa, psi = _fock_inputs(kind, d, truncation)
    got, got_spill = create(fa, psi)
    want, want_spill = reference_create(fa, psi)
    assert_levels_bytes_equal(got.levels, want)
    assert got_spill == want_spill
    if truncation > 0 and kind != "random":
        assert got_spill > 0.0  # the exponential vector fills the top level


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("truncation", LADDER_TRUNCATIONS)
@pytest.mark.parametrize("kind", LADDER_KINDS)
def test_annihilate_matches_the_masked_loop_at_every_truncation(d, truncation, kind):
    fa, psi = _fock_inputs(kind, d, truncation)
    assert_levels_bytes_equal(annihilate(fa, psi).levels, reference_annihilate(fa, psi))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("truncation", LADDER_TRUNCATIONS)
@pytest.mark.parametrize("kind", LADDER_KINDS)
def test_divergence_matches_the_masked_loop(d, truncation, kind):
    # the marked levels are psi_n (x) f: signed zeros and large entries
    # reach every product of the kernel
    fa, psi = _fock_inputs(kind, d, truncation)
    phi = MarkedFock(d, truncation, [np.outer(lev, fa) for lev in psi.levels])
    got, got_dropped = divergence(phi)
    want, want_dropped = reference_divergence(phi)
    assert_levels_bytes_equal(got.levels, want)
    assert got_dropped == want_dropped


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("truncation", LADDER_TRUNCATIONS)
@pytest.mark.parametrize("kind", LADDER_KINDS)
def test_gradient_matches_the_level_loop(d, truncation, kind):
    _, psi = _fock_inputs(kind, d, truncation)
    got = gradient(psi).levels
    assert_levels_bytes_equal(got, level_loop_gradient(psi))
    assert_levels_bytes_equal(got, reference_gradient(psi))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("truncation", LADDER_TRUNCATIONS)
@pytest.mark.parametrize("kind", LADDER_KINDS)
def test_marked_lower_matches_the_level_loop(d, truncation, kind):
    fa, psi = _fock_inputs(kind, d, truncation)
    phi = MarkedFock(d, truncation, [np.outer(lev, fa) for lev in psi.levels])
    got = marked_lower(phi)
    assert_levels_bytes_equal(got, level_loop_marked_lower(phi))
    assert_levels_bytes_equal(got, reference_marked_lower(phi))


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
        dense = lower_matrix(d, n) @ psi.levels[n]
        want = dense.reshape(level_dim(d, n - 1), d)
        assert np.max(np.abs(grad.levels[n - 1] - want)) <= 1e-14


def _grids():
    mixed = LevyModel(b=0.0, sigma=1.0, atoms=((1.0, 1.0), (-0.5, 2.0)), horizon=1.0)
    pure_jump = LevyModel(b=0.0, sigma=0.0, atoms=((1.0, 1.5),), horizon=1.0)
    return [CellGrid(mixed, 2), CellGrid(pure_jump, 3), CellGrid(mixed, 1)]


def _marked_chaos(rng, grid, truncation):
    c = grid.n_cells
    return chaos.MarkedChaos(grid, truncation, _levels(rng, c, truncation, (c,)))


def _chaos_inputs(kind, grid, truncation, seed):
    """A marked process with random kernels, or psi_n (x) f for the exponential
    vector psi of a special mode vector f over the grid's cells."""
    if kind == "random":
        return _marked_chaos(np.random.default_rng(seed), grid, truncation)
    fa = _mode_vector(kind, grid.n_cells)
    psi = exp_vector(fa, truncation)
    return chaos.MarkedChaos(grid, truncation, [np.outer(lev, fa) for lev in psi.levels])


def level_loop_symmetrize(grid, kernels):
    return [reference_symmetrize(grid, g, m) for m, g in enumerate(kernels)]


@pytest.mark.parametrize("k", range(3))
def test_symmetrize_matches_the_masked_loop(k):
    # signed zeros and large entries reach every product and sum of the scatter
    grid = _grids()[k]
    for kind in LADDER_KINDS:
        u = _chaos_inputs(kind, grid, 4, 500 + k)
        assert_levels_bytes_equal(
            chaos._symmetrize(grid, u.kernels), level_loop_symmetrize(grid, u.kernels)
        )


@pytest.mark.parametrize("k", range(3))
def test_chaos_divergence_matches_the_masked_loop(k, monkeypatch):
    grid = _grids()[k]
    for kind in LADDER_KINDS:
        u = _chaos_inputs(kind, grid, 3, 600 + k)
        got, got_dropped = chaos.divergence(u)
        got_dom = chaos.dom_divergence_functional(u)
        with monkeypatch.context() as patch:
            patch.setattr(chaos, "_symmetrize", level_loop_symmetrize)
            want, want_dropped = chaos.divergence(u)
            want_dom = chaos.dom_divergence_functional(u)
        assert_levels_bytes_equal(got.kernels, want.kernels)
        assert np.float64(got_dropped).tobytes() == np.float64(want_dropped).tobytes()
        assert np.float64(got_dom).tobytes() == np.float64(want_dom).tobytes()


def test_scatters_keep_the_complex_multiply_on_infinite_entries():
    # in a sum from +0.0 a zero product's sign is lost, but 0 * inf is NaN:
    # the scatters must form w * z as (w zr - 0 zi, w zi + 0 zr)
    grid = _grids()[1]
    u = _marked_chaos(np.random.default_rng(660), grid, 3)
    for k in u.kernels:
        k[::2, 0] = complex(np.inf, 0.0)
        k[1::2, -1] = complex(-0.0, -np.inf)
    with np.errstate(invalid="ignore"):
        assert_levels_bytes_equal(
            chaos._symmetrize(grid, u.kernels), level_loop_symmetrize(grid, u.kernels)
        )
        phi = MarkedFock(grid.n_cells, 3, u.kernels)
        assert_levels_bytes_equal(divergence(phi)[0].levels, reference_divergence(phi)[0])


def test_symmetrize_and_divergence_scatter_in_two_bincounts_at_any_size(monkeypatch):
    # one bincount per real and imaginary part, whatever the cell, mode or
    # level count
    bincount = np.bincount
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return bincount(*args, **kwargs)

    mixed = LevyModel(b=0.0, sigma=1.0, atoms=((1.0, 1.0), (-0.5, 2.0)), horizon=1.0)
    rng = np.random.default_rng(650)
    for grid, truncation in ((CellGrid(mixed, 1), 4), (CellGrid(mixed, 8), 2)):
        u = _marked_chaos(rng, grid, truncation)
        chaos.divergence(u)  # builds the plan
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "bincount", counting)
            chaos.divergence(u)
            chaos.dom_divergence_functional(u)
        # one scatter takes every mark of every marked order
        terms = grid.n_cells * sum(level_dim(grid.n_cells, m) for m in range(truncation + 1))
        assert calls == [terms] * 4
    for d, truncation in ((1, 5), (5, 5)):
        phi = MarkedFock(d, truncation, _levels(rng, d, truncation, (d,)))
        divergence(phi)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "bincount", counting)
            divergence(phi)
        assert len(calls) == 2


def test_symmetrize_and_divergence_read_one_plan(monkeypatch):
    # the kernel route and the ladder route scatter through the same cached
    # mark-major plan of the raise targets, each with its own weights
    grid, truncation = _grids()[0], 3
    c = grid.n_cells
    scatter = chaos._weighted_scatter
    read = []

    def recording(target, weight, z, size):
        read.append((target, weight))
        return scatter(target, weight, z, size)

    u = _marked_chaos(np.random.default_rng(670), grid, truncation)
    with monkeypatch.context() as patch:
        patch.setattr(chaos, "_weighted_scatter", recording)
        patch.setattr(fock, "_weighted_scatter", recording)
        chaos._symmetrize(grid, u.kernels)
        divergence(MarkedFock(c, truncation, u.kernels))
    _, target, weight, count = fock._divergence_plan(c, truncation)
    assert len(read) == 2
    assert read[0][0] is target and read[1][0] is target
    assert read[0][1] is count and read[1][1] is weight


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
    # level n of the exponential vector is the tensor power over sqrt(n!)
    fa = _mode_vector(kind, d)
    want = reference_tensor_coeffs(fa, n) / sqrt(factorial(n))
    assert_same_bytes(exp_vector(fa, n).levels[n], want)


@pytest.mark.parametrize("d", TENSOR_DIMS)
@pytest.mark.parametrize("truncation", DEGREES)
@pytest.mark.parametrize("kind", sorted(MODE_VECTORS))
def test_exp_vector_matches_the_occupation_product(d, truncation, kind):
    fa = _mode_vector(kind, d)
    levels = exp_vector(fa, truncation).levels
    assert len(levels) == truncation + 1
    for n, got in enumerate(levels):
        assert_same_bytes(got, reference_tensor_coeffs(fa, n) / sqrt(factorial(n)))


@pytest.mark.parametrize("d", TENSOR_DIMS)
@pytest.mark.parametrize("kind", sorted(MODE_VECTORS))
def test_exp_vector_levels_do_not_depend_on_the_roof(d, kind):
    fa = _mode_vector(kind, d)
    roof = 7 if d > 3 else 30
    top = exp_vector(fa, roof).levels
    for n in range(roof + 1):
        assert_same_bytes(top[n], exp_vector(fa, n).levels[n])


# ---------------------------------------------------------------------------
# the two routes to the Ito-Skorohod isometry, against their earlier forms


def reference_ito_skorohod(phi1, phi2):
    """fock.ito_skorohod's fields as it computed them, lowering each input
    twice: once for the exchange term and once more for its graph norm."""
    d1, _ = divergence(phi1)
    d2, _ = divergence(phi2)
    lhs = d1.inner(d2)
    base = phi1.inner(phi2)
    low1 = marked_exchange(marked_lower(phi1))
    low2 = marked_lower(phi2)
    exchange = complex(sum(np.vdot(a, b) for a, b in zip(low1, low2)))
    graph = [
        np.sqrt(phi.norm_sq() + float(sum(np.vdot(a, a).real for a in marked_lower(phi))))
        for phi in (phi1, phi2)
    ]
    return lhs, base + exchange, base, exchange, (d1.norm(), d2.norm()), tuple(map(float, graph))


def identity_bytes(lhs, rhs, base, exchange, div_norms, graph_norms):
    scalars = np.array([lhs, rhs, base, exchange])
    return scalars.tobytes(), np.array(div_norms + graph_norms).tobytes()


def reference_embed_marked(u, truncation):
    """chaos.embed_marked as it took a truncation, zero levels above u's own."""
    grid, M = u.grid, u.truncation
    c = grid.n_cells
    root_mass = np.sqrt(grid.cell_masses)
    levels = []
    for n in range(truncation + 1):
        if n <= M:
            levels.append(chaos._embed_scale(grid, n)[:, None] * u.kernels[n] * root_mass[None, :])
        else:
            levels.append(np.zeros((level_dim(c, n), c), dtype=np.complex128))
    return MarkedFock(c, truncation, levels)


def reference_ito_skorohod_chaos(u, v):
    """(lhs, base, exchange) of the kernel route, one symmetrization loop per order."""
    grid, M = u.grid, u.truncation
    c = grid.n_cells
    masses = grid.cell_masses
    lhs = 0.0 + 0.0j
    for m in range(M + 1):
        tu = reference_symmetrize(grid, u.kernels[m], m)
        tv = reference_symmetrize(grid, v.kernels[m], m)
        lhs += factorial(m + 1) * chaos.kernel_inner(grid, m + 1, tu, tv)
    base = u.inner(v)
    exchange = 0.0 + 0.0j
    for m in range(1, M + 1):
        up_t = raise_maps(c, m - 1)[0]
        A = u.kernels[m][up_t]
        B = v.kernels[m][up_t]
        w = multiplicities(c, m - 1) * chaos._mass_weights(grid, m - 1)
        exchange += (
            m * factorial(m) * np.einsum("b,s,t,bts,bst->", w, masses, masses, np.conj(A), B)
        )
    return complex(lhs), complex(base), complex(exchange)


def reference_chaos_divergence(u):
    """chaos.divergence's kernels and dropped mass, one loop over the orders."""
    grid, M = u.grid, u.truncation
    out = chaos.ChaosCoefficients.zero(grid, M)
    dropped = 0.0
    for m in range(M + 1):
        tilde = reference_symmetrize(grid, u.kernels[m], m)
        if m + 1 <= M:
            out.kernels[m + 1][:] = tilde
        else:
            mass = factorial(m + 1) * chaos.kernel_inner(grid, m + 1, tilde, tilde).real
            dropped = float(np.sqrt(max(mass, 0.0)))
    return out.kernels, dropped


def reference_dom_divergence(u):
    grid = u.grid
    total = 0.0
    for m in range(u.truncation + 1):
        tilde = reference_symmetrize(grid, u.kernels[m], m)
        total += factorial(m + 1) * chaos.kernel_inner(grid, m + 1, tilde, tilde).real
    return float(total)


SKOROHOD_GRIDS = {
    "poisson": CellGrid(poisson_preset(1.0, 1.0), 3),
    "brownian": CellGrid(brownian_preset(), 3),
    "mixed": CellGrid(
        LevyModel(b=0.0, sigma=1.0, atoms=((1.0, 1.0), (-0.5, 2.0)), horizon=1.0), 2
    ),
}
SKOROHOD_TRUNCATIONS = range(5)
SKOROHOD_KINDS = ["random", "sparse"]


def _sparse(rng, arr):
    """Zero most entries of arr, half of them as -0.0, and keep the rest."""
    hit = rng.random(arr.shape) < 0.7
    sign = np.where(rng.random(arr.shape) < 0.5, -0.0, 0.0)
    zero = sign + 1j * np.where(rng.random(arr.shape) < 0.5, -0.0, 0.0)
    return np.where(hit, zero, arr)


def _marked_pair(kind, name, truncation):
    """Two marked processes with every order occupied, or sparse with signed zeros."""
    grid = SKOROHOD_GRIDS[name]
    rng = np.random.default_rng([800, sorted(SKOROHOD_GRIDS).index(name), truncation, len(kind)])
    pair = []
    for _ in range(2):
        u = _marked_chaos(rng, grid, truncation)
        if kind == "sparse":
            u = chaos.MarkedChaos(grid, truncation, [_sparse(rng, k) for k in u.kernels])
        pair.append(u)
    return pair


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("truncation", SKOROHOD_TRUNCATIONS)
@pytest.mark.parametrize("kind", SKOROHOD_KINDS)
def test_ladder_route_matches_the_twice_lowered_form(d, truncation, kind):
    rng = np.random.default_rng([900, d, truncation, len(kind)])
    phis = []
    for _ in range(2):
        levels = _levels(rng, d, truncation, (d,))
        if kind == "sparse":
            levels = [_sparse(rng, lev) for lev in levels]
        levels[truncation] = np.zeros_like(levels[truncation])
        phis.append(MarkedFock(d, truncation, levels))
    got = ito_skorohod(*phis)
    fields = (got.lhs, got.rhs, got.base_term, got.exchange_term, got.div_norms, got.graph_norms)
    assert identity_bytes(*fields) == identity_bytes(*reference_ito_skorohod(*phis))


@pytest.mark.parametrize("name", sorted(SKOROHOD_GRIDS))
@pytest.mark.parametrize("truncation", SKOROHOD_TRUNCATIONS)
@pytest.mark.parametrize("kind", SKOROHOD_KINDS)
def test_kernel_route_matches_the_order_loops(name, truncation, kind):
    u, v = _marked_pair(kind, name, truncation)
    sk = chaos.ito_skorohod_chaos(u, v)
    assert np.array([sk.lhs, sk.base, sk.exchange]).tobytes() == np.array(
        reference_ito_skorohod_chaos(u, v)
    ).tobytes()
    for w in (u, v):
        got = chaos.dom_divergence_functional(w)
        assert np.float64(got).tobytes() == np.float64(reference_dom_divergence(w)).tobytes()
        div, dropped = chaos.divergence(w)
        want, want_dropped = reference_chaos_divergence(w)
        assert_levels_bytes_equal(div.kernels, want)
        assert np.float64(dropped).tobytes() == np.float64(want_dropped).tobytes()


@pytest.mark.parametrize("name", sorted(SKOROHOD_GRIDS))
@pytest.mark.parametrize("truncation", SKOROHOD_TRUNCATIONS)
@pytest.mark.parametrize("kind", SKOROHOD_KINDS)
def test_lifted_embedding_matches_the_embedding_with_headroom(name, truncation, kind):
    u, v = _marked_pair(kind, name, truncation)
    lifted = [chaos.embed_marked(_lift_marked(w)) for w in (u, v)]
    headroom = [reference_embed_marked(w, truncation + 1) for w in (u, v)]
    for a, b in zip(lifted, headroom):
        assert a.truncation == b.truncation == truncation + 1
        assert_levels_bytes_equal(a.levels, b.levels)
    got, want = ito_skorohod(*lifted), ito_skorohod(*headroom)
    for field in ("lhs", "rhs", "base_term", "exchange_term", "div_norms", "graph_norms"):
        assert np.array(getattr(got, field)).tobytes() == np.array(getattr(want, field)).tobytes()
