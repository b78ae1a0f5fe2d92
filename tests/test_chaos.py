"""Chaos expansions over grid cells: calculus, embeddings, serialization."""
import io
import tracemalloc
import warnings
from hashlib import sha256
from math import factorial

import numpy as np
import pytest

from chaoskit import chaos
from chaoskit.chaos import (
    CHAOS_FORMAT,
    ChaosCoefficients,
    MarkedChaos,
    _dense_values,
    _occupation_plan,
    _power_table,
    bn_split,
    chaos_evaluate,
    divergence,
    dom_gradient_functional,
    embed_chaos,
    embed_marked,
    gradient,
    ito_skorohod_chaos,
    load_chaos,
    number_apply,
    number_factorization_residual,
    ou_semigroup,
    project_mc,
    save_chaos,
)
from chaoskit.fock import ito_skorohod
from chaoskit.indices import GuardLimitError, level_dim, multiplicities, occ_array
from chaoskit.integrals import power_integrals, stochastic_integral
from chaoskit.levy import (
    CellGrid,
    LevyModel,
    StepField,
    brownian_preset,
    poisson_preset,
    sample_ensemble,
)
from chaoskit.suites import _lift_marked

MIXED = LevyModel(b=0.0, sigma=1.0, atoms=((1.0, 1.0),), horizon=1.0)


def mixed_grid(n_time=3):
    return CellGrid(MIXED, n_time)


def jump_grid(n_time=4):
    model = poisson_preset(1.0, 1.0)
    return CellGrid(model, n_time)


def rand_chaos(rng, grid, truncation, scale=0.5):
    c = grid.n_cells
    kernels = [
        scale * (rng.standard_normal(level_dim(c, n)) + 1j * rng.standard_normal(level_dim(c, n)))
        for n in range(truncation + 1)
    ]
    return ChaosCoefficients(grid, truncation, kernels, None)


def rand_marked(rng, grid, truncation, zero_top=True):
    c = grid.n_cells
    kernels = []
    for n in range(truncation + 1):
        shape = (level_dim(c, n), c)
        if zero_top and n == truncation:
            kernels.append(np.zeros(shape, dtype=np.complex128))
        else:
            kernels.append(
                0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            )
    return MarkedChaos(grid, truncation, kernels)


def test_embedding_preserves_inner_products():
    rng = np.random.default_rng(15)
    grid = mixed_grid()
    F = rand_chaos(rng, grid, 3)
    G = rand_chaos(rng, grid, 3)
    want = F.inner(G)
    got = embed_chaos(F).inner(embed_chaos(G))
    assert got == pytest.approx(want, rel=1e-11)
    assert embed_chaos(F).norm_sq() == pytest.approx(F.norm_sq(), rel=1e-11)


def test_first_order_norm_is_the_field_mass():
    grid = jump_grid()
    prof = np.array([0.5, 0.2 - 0.1j, 0.8j, -0.3])
    field = StepField.from_columns(grid, bins={1: prof})
    F = ChaosCoefficients.from_power(field, 1, 2)
    assert F.level_norm_sq(1) == pytest.approx(float(field.norm_sq()), rel=1e-12)
    assert F.level_norm_sq(0) == 0.0
    # order-one occupation rows list the last cell first
    assert np.array_equal(F.kernels[1], prof[::-1])
    # the dense route must agree with the generating-series route once the
    # source hint is gone
    ens = sample_ensemble(grid.model, grid, seed=29, n_paths=8)
    via_source = chaos_evaluate(F, ens)
    F.source = None
    assert np.allclose(chaos_evaluate(F, ens), via_source, atol=1e-12)


def test_doleans_kernels_are_scaled_powers():
    grid = jump_grid()
    field = StepField.from_columns(grid, bins={1: np.array([0.4, 0.7, 0.1, 0.9])})
    E = ChaosCoefficients.doleans(field, 3)
    for n in range(4):
        want = ChaosCoefficients.from_power(field, n, 3, coeff=1.0 / factorial(n))
        assert np.allclose(E.kernels[n], want.kernels[n], atol=1e-14)
    assert len(E.source) == 4


def test_gradient_divergence_duality():
    rng = np.random.default_rng(18)
    grid = mixed_grid()
    F = rand_chaos(rng, grid, 3)
    u = rand_marked(rng, grid, 3, zero_top=True)
    div, dropped = divergence(u)
    assert dropped == 0.0
    assert div.inner(F) == pytest.approx(u.inner(gradient(F)), rel=1e-11)


def test_divergence_symmetrization_by_hand():
    grid = jump_grid(2)
    g = np.array([[1.0 + 2j, -0.5], [0.25j, 3.0]])
    u = MarkedChaos(
        grid,
        2,
        [
            np.zeros((1, 2), dtype=np.complex128),
            g,
            np.zeros((3, 2), dtype=np.complex128),
        ],
    )
    out, dropped = divergence(u)
    assert dropped == 0.0
    # occupations at order two enumerate (0,2), (1,1), (2,0); the level-one
    # rows list cell one first
    assert out.kernels[2][0] == pytest.approx(g[0, 1])
    assert out.kernels[2][1] == pytest.approx((g[0, 0] + g[1, 1]) / 2)
    assert out.kernels[2][2] == pytest.approx(g[1, 0])
    assert not np.any(out.kernels[1])


def test_number_operator_factorizes():
    rng = np.random.default_rng(19)
    grid = mixed_grid()
    F = rand_chaos(rng, grid, 3)
    counted = number_apply(F)
    for n in range(4):
        assert np.allclose(counted.kernels[n], n * F.kernels[n])
    assert number_factorization_residual(F) <= 1e-12 * F.norm()


def test_ou_semigroup_scales_orders():
    rng = np.random.default_rng(20)
    grid = jump_grid()
    F = rand_chaos(rng, grid, 2)
    out = ou_semigroup(F, 0.4)
    for n in range(3):
        assert np.allclose(out.kernels[n], np.exp(-0.4 * n) * F.kernels[n])
    with pytest.raises(ValueError):
        ou_semigroup(F, -0.2)


def test_dom_gradient_functional_weights_levels():
    rng = np.random.default_rng(22)
    grid = jump_grid()
    F = rand_chaos(rng, grid, 3)
    want = sum(n * F.level_norm_sq(n) for n in range(1, 4))
    assert dom_gradient_functional(F) == pytest.approx(want, rel=1e-12)


def test_skorohod_identity_kernel_and_ladder_routes():
    rng = np.random.default_rng(24)
    grid = mixed_grid()
    for _ in range(5):
        u = rand_marked(rng, grid, 2, zero_top=True)
        v = rand_marked(rng, grid, 2, zero_top=True)
        res = ito_skorohod_chaos(u, v)
        ladder = ito_skorohod(embed_marked(u), embed_marked(v))
        scale = abs(res.lhs) + abs(res.rhs) + 1.0
        assert res.defect <= 1e-10 * scale
        assert abs(ladder.lhs - res.lhs) <= 1e-10 * scale
        assert abs(ladder.rhs - res.rhs) <= 1e-10 * scale


def test_embed_marked_respects_process_inner():
    rng = np.random.default_rng(26)
    grid = mixed_grid()
    u = rand_marked(rng, grid, 2, zero_top=True)
    v = rand_marked(rng, grid, 2, zero_top=True)
    want = u.inner(v)
    got = embed_marked(_lift_marked(u)).inner(embed_marked(_lift_marked(v)))
    assert got == pytest.approx(want, rel=1e-11)
    assert embed_marked(u).inner(embed_marked(v)) == pytest.approx(want, rel=1e-11)


def test_evaluation_routes_agree():
    grid = jump_grid()
    model = grid.model
    field = StepField.from_columns(grid, bins={1: np.array([0.6, 0.2, 0.9, 0.4])})
    F = ChaosCoefficients.from_power(field, 2, 3)
    G = ChaosCoefficients(grid, 3, [k.copy() for k in F.kernels], None)
    ens = sample_ensemble(model, grid, seed=83, n_paths=300)
    via_series = chaos_evaluate(F, ens)
    via_dense = chaos_evaluate(G, ens)
    scale = np.max(np.abs(via_series)) + 1.0
    assert np.max(np.abs(via_series - via_dense)) <= 1e-10 * scale
    powers = power_integrals(field, 2, ens)
    assert np.allclose(via_series, powers[:, 2], atol=1e-10 * scale)


def _longest_jump_free_run(ens):
    best, start = (0, 0), None
    for i, n in enumerate(np.append(np.diff(ens.offsets), 1)):
        if n == 0 and start is None:
            start = i
        elif n and start is not None:
            best = max(best, (i - start, start))
            start = None
    return best[1], best[1] + best[0]


def test_power_table_of_a_path_range_matches_the_whole_ensemble():
    # _dense_values and project_mc take the table block by block through
    # ens.paths(lo, hi); at test sizes they run one block
    jumpy = LevyModel(sigma=0.3, atoms=((1.0, 8.0), (-0.5, 6.0)))
    grids = {
        "poisson": jump_grid(),
        "brownian": CellGrid(brownian_preset(), 4),
        "mixed": mixed_grid(),
        "jumpy": CellGrid(jumpy, 3),
    }
    for name, grid in grids.items():
        ens = sample_ensemble(grid.model, grid, seed=29, n_paths=40)
        whole = _power_table(ens, 4)
        ranges = [(0, 40), (0, 1), (39, 40), (7, 23), (23, 40)]
        lo, hi = _longest_jump_free_run(ens)
        if name != "jumpy":
            assert hi - lo >= 2, name
            ranges.append((lo, hi))
        for lo, hi in ranges:
            part = _power_table(ens.paths(lo, hi), 4)
            assert part.tobytes() == whole[:, :, lo:hi].tobytes(), (name, lo, hi)


def test_evaluation_rejects_foreign_paths():
    grid = jump_grid()
    F = ChaosCoefficients.zero(grid, 1)
    other_grid = jump_grid(8)
    ens = sample_ensemble(other_grid.model, other_grid, seed=1, n_paths=3)
    with pytest.raises(ValueError, match="different grids"):
        chaos_evaluate(F, ens)


def test_projection_recovers_a_first_order_functional():
    grid = jump_grid()
    model = grid.model
    prof = np.array([0.8, -0.3, 0.5, 1.1])
    field = StepField.from_columns(grid, bins={1: prof})
    ens = sample_ensemble(model, grid, seed=91, n_paths=3000)
    values = stochastic_integral(field, ens)
    est, se_max = project_mc(values, ens, 1)
    # order-one occupation rows list the last cell first
    assert np.max(np.abs(est.kernels[1] - prof[::-1])) <= 6.0 * se_max[1]
    assert abs(est.kernels[0][0]) <= 6.0 * se_max[0]


def test_serialization_round_trip():
    rng = np.random.default_rng(33)
    grid = jump_grid()
    F = rand_chaos(rng, grid, 2)
    F.kernels[1][2] = 0.0  # keep a structural zero out of the file
    buf = io.StringIO()
    save_chaos(F, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == CHAOS_FORMAT
    assert "np." not in text
    back = load_chaos(io.StringIO(text), grid)
    assert back.truncation == 2
    for a, b in zip(back.kernels, F.kernels):
        assert np.array_equal(a, b)


def test_serialization_rejects_tampering_and_foreign_grids():
    rng = np.random.default_rng(34)
    grid = jump_grid()
    F = rand_chaos(rng, grid, 1)
    buf = io.StringIO()
    save_chaos(F, buf)
    text = buf.getvalue()
    corrupt = text.replace("0.", "1.", 1)
    with pytest.raises(ValueError, match="hash"):
        load_chaos(io.StringIO(corrupt), grid)
    with pytest.raises(ValueError, match="different grid"):
        load_chaos(io.StringIO(text), jump_grid(8))
    with pytest.raises(ValueError, match="unrecognized"):
        load_chaos(io.StringIO("not-a-chaos-file\n" + text), grid)
    load_chaos(io.StringIO(text), grid)


@pytest.mark.parametrize(
    "edit, match",
    [
        # cell label 7 on a 4-cell grid
        (lambda body: body + ["term 1 7 1.0 0.0"], "cell label"),
        # order 3 above truncation 2
        (lambda body: body + ["term 3 0,1,2 1.0 0.0"], "order"),
        (lambda body: body + ["term -1 - 1.0 0.0"], "order"),
        (lambda body: body[:2] + ["truncation"] + body[3:], "header"),
        # the same occupation twice: no value may silently win
        (lambda body: body + ["term 1 1 1.0 0.0", "term 1 1 5.0 0.0"], "repeated"),
    ],
)
def test_serialization_refuses_hashed_bad_payloads(edit, match):
    grid = jump_grid()
    assert grid.n_cells == 4
    buf = io.StringIO()
    save_chaos(rand_chaos(np.random.default_rng(36), grid, 2), buf)
    body = "\n".join(edit(buf.getvalue().rstrip("\n").split("\n")[:-1]))
    payload = f"{body}\nhash {sha256(body.encode()).hexdigest()}\n"
    with pytest.raises(ValueError, match=match):
        load_chaos(io.StringIO(payload), grid)


def test_bn_split_is_a_unitary_decomposition():
    rng = np.random.default_rng(35)
    grid = mixed_grid()
    F = rand_chaos(rng, grid, 2)
    res = bn_split(F)
    assert not res.degenerate
    assert len(res.diffusion_cells) == 3 and len(res.jump_cells) == 3
    assert res.total == pytest.approx(F.norm_sq(), rel=1e-10)
    assert all(v >= 0 for v in res.block_norms.values())


def test_bn_split_warns_on_single_component_grids():
    rng = np.random.default_rng(36)
    grid = jump_grid()
    F = rand_chaos(rng, grid, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = bn_split(F)
    assert res.degenerate
    assert any("single block" in str(w.message) for w in caught)
    assert res.total == pytest.approx(F.norm_sq(), rel=1e-12)


# ---------------------------------------------------------------------------
# the dense route against the occupation loops it replaced


def _reference_power_table(ens, n_max):
    """Per-path cell powers, (n_paths, n_cells, n_max + 1), one cell at a time."""
    grid = ens.grid
    sigma = grid.model.sigma
    s = sigma**2 * grid.dt
    nb = ens.n_paths
    table = np.zeros((nb, grid.n_cells, n_max + 1))
    table[:, :, 0] = 1.0
    if n_max == 0:
        return table
    counts = ens.cell_counts().T if grid.n_bins > 1 else None
    for w, (k, b) in enumerate(grid.cells):
        if b == 0:
            x = sigma * ens.brownian[:, k]
            table[:, w, 1] = x
            for m in range(2, n_max + 1):
                table[:, w, m] = x * table[:, w, m - 1] - (m - 1) * s * table[:, w, m - 2]
            continue
        a = grid.bin_rates[b - 1] * grid.dt
        N = counts[:, w]
        binom = [np.ones(nb)]
        for r in range(1, n_max + 1):
            binom.append(binom[-1] * (N - (r - 1)) / r)
        for m in range(1, n_max + 1):
            acc = np.zeros(nb)
            for r in range(m + 1):
                acc += binom[r] * ((-a) ** (m - r) / factorial(m - r))
            table[:, w, m] = factorial(m) * acc
    return table


def _reference_dense_values(F, ens, block_entries=8_000_000):
    """One product per nonzero kernel entry: a copy of its first factor, then
    a multiply per further factor."""
    grid, M = F.grid, F.truncation
    c = grid.n_cells
    P = ens.n_paths
    out = np.full(P, complex(F.kernels[0][0]), dtype=np.complex128)
    plans = []
    for n in range(1, M + 1):
        occ = occ_array(c, n)
        mult = multiplicities(c, n)
        kern = F.kernels[n]
        plan = []
        for p in np.nonzero(kern)[0]:
            cols = np.nonzero(occ[p])[0]
            plan.append((kern[p] * mult[p], cols, occ[p, cols]))
        plans.append(plan)
    block = max(1, int(block_entries // max(c * (M + 1), 1)))
    for lo in range(0, P, block):
        hi = min(lo + block, P)
        table = _reference_power_table(ens.paths(lo, hi), M)
        for plan in plans:
            for coeff, cols, exps in plan:
                acc = table[:, cols[0], exps[0]].copy()
                for cc, ee in zip(cols[1:], exps[1:]):
                    acc *= table[:, cc, ee]
                out[lo:hi] += coeff * acc
    return out


def _reference_project_mc(values, ens, truncation, block_entries=8_000_000):
    """Kernels and se_max from one copy of the samples per occupation."""
    grid = ens.grid
    c = grid.n_cells
    P = ens.n_paths
    vals = np.asarray(values, dtype=np.complex128)
    sums = [np.zeros(level_dim(c, n), dtype=np.complex128) for n in range(truncation + 1)]
    sq_re = [np.zeros(level_dim(c, n)) for n in range(truncation + 1)]
    sq_im = [np.zeros(level_dim(c, n)) for n in range(truncation + 1)]
    scale = [
        1.0 / (factorial(n) * chaos._mass_weights(grid, n)) for n in range(truncation + 1)
    ]
    block = max(1, int(block_entries // max(c * (truncation + 1), 1)))
    for lo in range(0, P, block):
        hi = min(lo + block, P)
        table = _reference_power_table(ens.paths(lo, hi), truncation)
        v = vals[lo:hi]
        for n in range(truncation + 1):
            occ = occ_array(c, n)
            for p in range(occ.shape[0]):
                cols = np.nonzero(occ[p])[0]
                acc = v.copy()
                for cc in cols:
                    acc *= table[:, cc, occ[p, cc]]
                acc *= scale[n][p]
                sums[n][p] += acc.sum()
                sq_re[n][p] += np.sum(acc.real**2)
                sq_im[n][p] += np.sum(acc.imag**2)
    kernels = [s / P for s in sums]
    se_max = {}
    denom = max(P - 1, 1)
    for n in range(truncation + 1):
        mean = kernels[n]
        var_re = np.maximum(sq_re[n] / P - mean.real**2, 0.0) * P / denom
        var_im = np.maximum(sq_im[n] / P - mean.imag**2, 0.0) * P / denom
        se_max[n] = float(np.sqrt((var_re + var_im) / P).max(initial=0.0))
    return kernels, se_max


# Poisson, Brownian, mixed and jump-dominated grids; two atoms in one bin with
# drift and |x| < 1 atoms; one time cell; horizons 0.5 and 2
BYTE_GRIDS = {
    "poisson": CellGrid(poisson_preset(1.0, 1.0), 4),
    "brownian": CellGrid(brownian_preset(), 4),
    "mixed": CellGrid(MIXED, 3),
    "jumpy": CellGrid(LevyModel(sigma=0.3, atoms=((1.0, 8.0), (-0.5, 6.0))), 3),
    "grouped": CellGrid(
        LevyModel(b=0.4, sigma=0.5, atoms=((0.5, 2.0), (-0.3, 3.0), (1.5, 1.0))),
        2,
        atom_groups=((0, 1), (2,)),
    ),
    "one_cell": CellGrid(MIXED, 1),
    "short": CellGrid(LevyModel(sigma=0.7, atoms=((1.0, 2.0),), horizon=0.5), 4),
    "long": CellGrid(LevyModel(atoms=((0.8, 1.5),), horizon=2.0), 5),
}


def _byte_kernels(rng, grid, M, share=0.3):
    """Random kernels with a share of zero rows, and a zero level when M >= 3."""
    F = rand_chaos(rng, grid, M)
    for n, kern in enumerate(F.kernels):
        kern[rng.random(kern.shape[0]) < share] = 0.0
        if n == 2 and M >= 3:
            kern[:] = 0.0
    return F


def _same_bytes(got, want, label):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), label


@pytest.mark.parametrize("name", sorted(BYTE_GRIDS))
def test_power_table_is_the_reference_table_cell_major(name):
    grid = BYTE_GRIDS[name]
    ens = sample_ensemble(grid.model, grid, seed=57, n_paths=30)
    for M in range(5):
        want = _reference_power_table(ens, M).transpose(1, 2, 0)
        _same_bytes(_power_table(ens, M), np.ascontiguousarray(want), (name, M))


@pytest.mark.parametrize("name", sorted(BYTE_GRIDS))
def test_dense_route_has_the_reference_bytes(name):
    grid = BYTE_GRIDS[name]
    rng = np.random.default_rng(61)
    ens = sample_ensemble(grid.model, grid, seed=59, n_paths=40)
    field = StepField.from_columns(
        grid,
        diffusion=0.6 + 0.1 * np.arange(grid.n_time),
        bins={b: np.linspace(-0.8, 0.9, grid.n_time) for b in range(1, grid.n_bins)},
    )
    for M in range(5):
        forms = {
            "random": _byte_kernels(rng, grid, M),
            "sparse": _byte_kernels(rng, grid, M, share=0.9),
            "doleans": ChaosCoefficients.doleans(field, M),
        }
        for kind, F in forms.items():
            F.source = None
            for sub in (ens, ens.paths(17, 18)):
                label = (name, M, kind, sub.n_paths)
                values = _dense_values(F, sub)
                _same_bytes(values, _reference_dense_values(F, sub), label)
                kernels, se_max = project_mc(values, sub, M)
                want_kernels, want_se = _reference_project_mc(values, sub, M)
                for n in range(M + 1):
                    _same_bytes(kernels.kernels[n], want_kernels[n], label + (n,))
                _same_bytes(list(se_max.values()), list(want_se.values()), label)
                assert list(se_max) == list(want_se)


def test_dense_route_has_the_reference_bytes_over_several_blocks(monkeypatch):
    # 7 paths per block: the dense values do not depend on the block size,
    # and the projection's pairwise sums follow the reference's blocks
    grid = BYTE_GRIDS["grouped"]
    rng = np.random.default_rng(67)
    ens = sample_ensemble(grid.model, grid, seed=71, n_paths=40)
    M = 3
    F = _byte_kernels(rng, grid, M)
    whole = _dense_values(F, ens)
    entries = 7 * grid.n_cells * (M + 1)
    monkeypatch.setattr(chaos, "_BLOCK_ENTRIES", entries)
    values = _dense_values(F, ens)
    _same_bytes(values, whole, "dense block")
    _same_bytes(values, _reference_dense_values(F, ens, entries), "dense reference")
    kernels, se_max = project_mc(values, ens, M)
    want_kernels, want_se = _reference_project_mc(values, ens, M, entries)
    for n in range(M + 1):
        _same_bytes(kernels.kernels[n], want_kernels[n], n)
    assert se_max == want_se


@pytest.mark.parametrize("c, M", [(1, 6), (2, 5), (5, 4), (7, 3), (16, 3)])
def test_occupation_plan_rebuilds_every_factor_list(c, M):
    plan = _occupation_plan(c, M)
    for arr in plan[1:]:
        assert not arr.flags.writeable
    for n in range(M + 1):
        occ = occ_array(c, n)
        lo, hi = plan.bounds[n], plan.bounds[n + 1]
        assert hi - lo == occ.shape[0]
        prev = []
        for q in range(lo, hi):
            rows = prev[: plan.shared[q]] + plan.rest[plan.starts[q] : plan.starts[q + 1]].tolist()
            cols = np.nonzero(occ[q - lo])[0]
            assert rows == (cols * (M + 1) + occ[q - lo, cols]).tolist(), (n, q)
            # the shared prefix is the longest one
            if q > lo and plan.shared[q] < min(len(prev), len(rows)):
                assert prev[plan.shared[q]] != rows[plan.shared[q]]
            prev = rows
        assert plan.shared[lo] == 0


def test_occupation_plan_stays_small():
    # 16 cells (the mixed K=8 grid) to order 6: 74 613 occupations; the plan
    # holds two int64 per occupation plus the factors it does not share,
    # about 1.3 of them per occupation here (26 bytes per occupation)
    c, M = 16, 6
    plan = _occupation_plan(c, M)
    n_occ = plan.bounds[-1]
    assert n_occ == sum(level_dim(c, n) for n in range(M + 1)) == 74_613
    size = sum(arr.nbytes for arr in plan[1:])
    assert size <= 4 * 8 * n_occ
    assert plan.rest.size <= 1.5 * n_occ


def test_a_level_above_the_guard_is_refused_before_any_allocation():
    grid = CellGrid(MIXED, 8)
    ens = sample_ensemble(grid.model, grid, seed=3, n_paths=5)
    values = np.ones(5, dtype=np.complex128)
    # level 10 over 16 cells holds C(25, 10) = 3 268 760 coefficients
    tracemalloc.start()
    try:
        with pytest.raises(GuardLimitError, match="n=10"):
            project_mc(values, ens, 10)
        with pytest.raises(GuardLimitError, match="n=10"):
            _occupation_plan(16, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
