"""Truncated symmetric Fock space: vectors, ladder maps, mode splitting.

Reference numbers in this file were computed to 40 digits with an
independent high-precision script and pasted in as literals.
"""
from math import factorial

import numpy as np
import pytest

from chaoskit import fock
from chaoskit.fock import (
    FockVector,
    _fold_plan,
    _merge_positions,
    MarkedFock,
    annihilate,
    as_mode_vector,
    create,
    divergence,
    exp_tail_bound,
    exp_vector,
    gradient,
    gram_tail_bound,
    graph_inner,
    ito_skorohod,
    marked_exchange,
    marked_lower,
    number_apply,
    number_semigroup,
    sobolev_scale,
    split,
    split_divergence,
    split_gradient,
)
from chaoskit.indices import GuardLimitError, level_dim, occupations

F_PAIR = np.array([0.3 + 0.4j, -0.2 + 0.0j])
G_PAIR = np.array([0.1 - 0.5j, 0.25 + 0.25j])
IP_PAIR = -0.22 - 0.24j
EXP_IP_PAIR = 0.77951698399355895205 - 0.19076082603282812129j


def rand_fock(rng, d, truncation, zero_top=0):
    levels = []
    for n in range(truncation + 1):
        dim = level_dim(d, n)
        if n > truncation - zero_top:
            levels.append(np.zeros(dim, dtype=np.complex128))
        else:
            levels.append(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return FockVector(d, truncation, levels)


def rand_marked(rng, d, truncation, zero_top=1):
    levels = []
    for n in range(truncation + 1):
        dim = level_dim(d, n)
        if n > truncation - zero_top:
            levels.append(np.zeros((dim, d), dtype=np.complex128))
        else:
            levels.append(
                rng.standard_normal((dim, d)) + 1j * rng.standard_normal((dim, d))
            )
    return MarkedFock(d, truncation, levels)


def test_mode_inner_conjugates_the_left_argument():
    # the one-particle pairing is the pairing of the exponential vectors' level 1
    got = np.vdot(exp_vector(F_PAIR, 1).levels[1], exp_vector(G_PAIR, 1).levels[1])
    assert got == pytest.approx(IP_PAIR, abs=1e-15)


def test_as_mode_vector_checks_length():
    with pytest.raises(ValueError):
        as_mode_vector([1.0, 2.0], d=3)


def test_tensor_power_inner_is_inner_power():
    # level n of an exponential vector is the tensor power over sqrt(n!)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    ip = complex(np.vdot(f, g))
    ef, eg = exp_vector(f, 4), exp_vector(g, 4)
    for n in range(5):
        got = np.vdot(ef.levels[n], eg.levels[n]) * factorial(n)
        assert got == pytest.approx(ip**n, rel=1e-12, abs=1e-12)


def test_tensor_power_coefficients_follow_occupations():
    f = np.array([0.8 - 0.1j, 0.5 + 0.6j])
    level = exp_vector(f, 3).levels[3]
    for p, occ in enumerate(occupations(2, 3)):
        denom = 1
        for a in occ:
            denom *= factorial(a)
        expect = f[0] ** occ[0] * f[1] ** occ[1] / np.sqrt(denom)
        assert level[p] == pytest.approx(expect, rel=1e-14)


def test_tensor_power_rejects_negative_degree():
    with pytest.raises(ValueError):
        exp_vector(F_PAIR, -1)


def test_exp_vector_gram_matches_reference_kernel():
    lhs = exp_vector(F_PAIR, 30)
    rhs = exp_vector(G_PAIR, 30)
    assert lhs.inner(rhs) == pytest.approx(EXP_IP_PAIR, abs=1e-13)


def test_gram_tail_bound_covers_truncation_error():
    exact = EXP_IP_PAIR
    for roof in (2, 3, 5):
        approx = exp_vector(F_PAIR, roof).inner(exp_vector(G_PAIR, roof))
        assert abs(approx - exact) <= gram_tail_bound(F_PAIR, G_PAIR, roof) + 1e-15
    assert gram_tail_bound(F_PAIR, G_PAIR, 5) < gram_tail_bound(F_PAIR, G_PAIR, 2)


def test_exp_tail_bound_covers_norm_gap():
    x = float(np.vdot(F_PAIR, F_PAIR).real)
    for roof in (2, 4, 8):
        gap = np.exp(x) - exp_vector(F_PAIR, roof).norm_sq()
        assert 0.0 <= gap <= exp_tail_bound(F_PAIR, roof) + 1e-15


def test_vector_arithmetic_and_norms():
    rng = np.random.default_rng(5)
    psi = rand_fock(rng, 2, 3)
    phi = rand_fock(rng, 2, 3)
    combo = psi * 2.0 - phi + 0.5j * phi
    # inner is antilinear on the left, linear on the right
    want = 2.0 * psi.inner(psi) + (-1 + 0.5j) * psi.inner(phi)
    assert psi.inner(combo) == pytest.approx(want, abs=1e-12)
    assert combo.inner(psi) == pytest.approx(want.conjugate(), abs=1e-12)
    assert psi.norm_sq() == pytest.approx(psi.inner(psi).real, abs=1e-12)
    assert psi.norm() == pytest.approx(np.sqrt(psi.norm_sq()))


def test_create_is_adjoint_of_annihilate():
    rng = np.random.default_rng(23)
    d, M = 3, 4
    psi = rand_fock(rng, d, M, zero_top=1)
    phi = rand_fock(rng, d, M)
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    raised, spill = create(f, psi)
    assert spill == 0.0
    assert raised.inner(phi) == pytest.approx(psi.inner(annihilate(f, phi)), rel=1e-12)


def test_create_spill_only_from_occupied_top_level():
    rng = np.random.default_rng(29)
    psi = rand_fock(rng, 2, 3, zero_top=0)
    _, spill = create([1.0, 0.5], psi)
    assert spill > 0.0


def test_canonical_commutator_is_scalar():
    rng = np.random.default_rng(31)
    d, M = 2, 4
    psi = rand_fock(rng, d, M, zero_top=1)
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    raised, spill = create(g, psi)
    left = annihilate(f, raised)
    right, _ = create(g, annihilate(f, psi))
    comm = left - right - psi * complex(np.vdot(f, g))
    assert spill == 0.0
    assert comm.norm() <= 1e-12 * psi.norm()


def test_gradient_of_exponential_vector_marks_the_direction():
    f = F_PAIR
    M = 6
    e = exp_vector(f, M)
    grad = gradient(e)
    for n in range(M):
        want = np.outer(e.levels[n], f)
        assert np.allclose(grad.levels[n], want, atol=1e-13)
    assert not np.any(grad.levels[M])


def test_divergence_is_adjoint_of_gradient():
    rng = np.random.default_rng(37)
    d, M = 3, 4
    phi = rand_marked(rng, d, M, zero_top=1)
    psi = rand_fock(rng, d, M)
    div, dropped = divergence(phi)
    assert dropped == 0.0
    assert div.inner(psi) == pytest.approx(phi.inner(gradient(psi)), rel=1e-12)


def test_number_operator_counts_levels():
    rng = np.random.default_rng(41)
    psi = rand_fock(rng, 2, 4)
    counted = number_apply(psi)
    for n in range(5):
        assert np.allclose(counted.levels[n], n * psi.levels[n])


def test_number_semigroup_scales_levels():
    rng = np.random.default_rng(43)
    psi = rand_fock(rng, 2, 3)
    out = number_semigroup(psi, 0.7)
    for n in range(4):
        assert np.allclose(out.levels[n], np.exp(-0.7 * n) * psi.levels[n])
    same = number_semigroup(psi, 0.0)
    assert all(np.allclose(a, b) for a, b in zip(same.levels, psi.levels))
    with pytest.raises(ValueError):
        number_semigroup(psi, -0.1)


def test_sobolev_scale_is_unitary_onto_graph_norm():
    rng = np.random.default_rng(47)
    psi = rand_fock(rng, 3, 4)
    phi = rand_fock(rng, 3, 4)
    got = graph_inner(sobolev_scale(psi), sobolev_scale(phi))
    assert got == pytest.approx(psi.inner(phi), rel=1e-12)


def test_graph_inner_adds_gradient_pairing():
    rng = np.random.default_rng(53)
    psi = rand_fock(rng, 2, 4)
    phi = rand_fock(rng, 2, 4)
    want = psi.inner(phi) + gradient(psi).inner(gradient(phi))
    assert graph_inner(psi, phi) == pytest.approx(want, rel=1e-12)


def test_split_merge_round_trip_preserves_everything():
    rng = np.random.default_rng(73)
    psi = rand_fock(rng, 4, 3)
    first = (0, 2)
    sp = split(psi, first)
    # every coefficient lands where the merged occupation puts it back
    for n in range(psi.truncation + 1):
        back = np.zeros_like(psi.levels[n])
        seen = np.zeros(back.shape, dtype=np.int64)
        for n1 in range(n + 1):
            pos = _merge_positions(4, first, n1, n - n1)
            back[pos] = sp.blocks[(n1, n - n1)]
            np.add.at(seen, pos.ravel(), 1)
        assert np.array_equal(seen, np.ones_like(seen))
        assert np.array_equal(back, psi.levels[n])
    total = sum(np.vdot(blk, blk).real for blk in sp.blocks.values())
    assert total == pytest.approx(psi.norm_sq(), rel=1e-12)


def test_split_rejects_trivial_partitions():
    psi = exp_vector(np.zeros(3), 2)
    with pytest.raises(ValueError):
        split(psi, ())
    with pytest.raises(ValueError):
        split(psi, (0, 1, 2))
    with pytest.raises(ValueError):
        split(psi, (0, 5))


# (d, first): contiguous groups, single modes, and the interleaved even modes
# that the mixed grid's diffusion cells form
SPLIT_PARTITIONS = [
    (2, (1,)),
    (3, (0, 2)),
    (4, (1, 3)),
    (4, (0, 1)),
    (5, (0, 2, 4)),
    (6, (0, 2, 4)),
    (6, (5,)),
    (6, (0, 1, 2, 3)),
]


def test_split_exponential_vectors_factor_into_products():
    rng = np.random.default_rng(71)
    for d, first in SPLIT_PARTITIONS:
        f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        M = 4 if d <= 4 else 3
        sp = split(exp_vector(f, M), first)
        e1 = exp_vector(f[list(sp.first)], M)
        e2 = exp_vector(f[list(sp.second)], M)
        assert len(sp.blocks) == (M + 1) * (M + 2) // 2
        for (n1, n2), blk in sp.blocks.items():
            want = np.outer(e1.levels[n1], e2.levels[n2])
            assert np.all(np.abs(blk - want) <= 2e-15 * np.abs(want))


def test_split_gradient_factors_sum_to_the_gradient():
    rng = np.random.default_rng(79)
    for d, first in SPLIT_PARTITIONS:
        psi = rand_fock(rng, d, 3)
        sp = split(psi, first)
        total = split_gradient(sp, 1) + split_gradient(sp, 2)
        for a, b in zip(total.levels, gradient(psi).levels):
            assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        split_gradient(sp, 3)


def test_split_divergence_agrees_with_divergence():
    rng = np.random.default_rng(83)
    for d, first in SPLIT_PARTITIONS:
        for zero_top in (0, 1):
            phi = rand_marked(rng, d, 3, zero_top=zero_top)
            via_split, drop1 = split_divergence(phi, first)
            direct, drop2 = divergence(phi)
            assert drop1 == drop2
            for a, b in zip(via_split.levels, direct.levels):
                assert np.array_equal(a, b)


def test_skorohod_identity_on_random_marked_pairs():
    rng = np.random.default_rng(89)
    for _ in range(20):
        phi1 = rand_marked(rng, 2, 4, zero_top=1)
        phi2 = rand_marked(rng, 2, 4, zero_top=1)
        ident = ito_skorohod(phi1, phi2)
        scale = abs(ident.lhs) + abs(ident.rhs) + 1.0
        assert abs(ident.lhs - ident.rhs) <= 1e-11 * scale
        assert ident.rhs == ident.base_term + ident.exchange_term
        for dn, gn in zip(ident.div_norms, ident.graph_norms):
            assert dn * dn <= gn * gn * (1.0 + 1e-12) + 1e-14


def test_ito_skorohod_lowers_each_input_once(monkeypatch):
    calls = []

    def counting(phi):
        calls.append(phi)
        return marked_lower(phi)

    monkeypatch.setattr(fock, "marked_lower", counting)
    rng = np.random.default_rng(91)
    phi1 = rand_marked(rng, 3, 3)
    phi2 = rand_marked(rng, 3, 3)
    ito_skorohod(phi1, phi2)
    assert len(calls) == 2
    assert calls[0] is phi1 and calls[1] is phi2


def test_skorohod_rejects_occupied_top_mark():
    rng = np.random.default_rng(97)
    full = rand_marked(rng, 2, 3, zero_top=0)
    safe = rand_marked(rng, 2, 3, zero_top=1)
    with pytest.raises(ValueError):
        ito_skorohod(full, safe)


def test_marked_exchange_is_an_involution():
    rng = np.random.default_rng(101)
    phi = rand_marked(rng, 3, 3, zero_top=1)
    doubled = marked_lower(phi)
    twice = marked_exchange(marked_exchange(doubled))
    for a, b in zip(twice, doubled):
        assert np.array_equal(a, b)


def test_fold_plan_holds_no_more_than_the_per_level_index_tables():
    # the bound is d int64 gather indices per coefficient, one per mode
    d, M = 5, 20
    plan = _fold_plan(d, M)
    arrays = [plan.first, plan.weights, plan.roots, *(a for step in plan.steps for a in step)]
    assert all(not a.flags.writeable for a in arrays)
    assert plan.bounds[-1] == sum(level_dim(d, n) for n in range(M + 1))
    assert sum(a.nbytes for a in arrays) <= d * plan.bounds[-1] * 8


def test_a_roof_above_the_guard_is_refused_before_any_fold():
    # level 1999 of d = 3 is the first above the coefficient budget
    with pytest.raises(GuardLimitError, match="n=1999"):
        exp_vector(np.ones(3), 2000)
    with pytest.raises(GuardLimitError, match="n=1999"):
        exp_vector(np.ones(3), 1999)
