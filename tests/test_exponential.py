"""Exact term rewriting on exponential-vector combinations."""
import numpy as np
import pytest

from chaoskit.exponential import (
    ExpCombo,
    exp_gram,
    exp_shift,
    pair_map,
    pair_merge,
)
from chaoskit.fock import FockVector, exp_vector

F = np.array([0.3 + 0.4j, -0.2 + 0.0j])
G = np.array([0.1 - 0.5j, 0.25 + 0.25j])
EXP_IP = 0.77951698399355895205 - 0.19076082603282812129j


def test_kernel_is_exact():
    assert exp_gram(ExpCombo.single(F), ExpCombo.single(G)) == pytest.approx(
        EXP_IP, abs=1e-15
    )


def test_gram_is_sesquilinear_over_terms():
    rng = np.random.default_rng(3)
    f1, f2, g1 = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3))
    a = ExpCombo.single(f1) * (0.5 - 1j) + ExpCombo.single(f2)
    b = ExpCombo.single(g1) * 2.0
    want = (0.5 - 1j).conjugate() * 2.0 * np.exp(np.vdot(f1, g1)) + 2.0 * np.exp(
        np.vdot(f2, g1)
    )
    assert exp_gram(a, b) == pytest.approx(complex(want), rel=1e-13)


def test_gram_positivity():
    rng = np.random.default_rng(7)
    combos = [
        ExpCombo.single(0.8 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
        for _ in range(6)
    ]
    gram = np.array([[exp_gram(a, b) for b in combos] for a in combos])
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-10


def test_shift_multiplies_by_the_kernel():
    shifted = exp_shift(F, ExpCombo.single(G))
    (c, g), = shifted.terms
    assert np.array_equal(g, G)
    assert c == pytest.approx(complex(np.exp(np.vdot(F, G))), rel=1e-14)


def test_adjoint_shift_translates_the_direction():
    shifted = exp_shift(F, ExpCombo.single(G), adjoint=True)
    (c, g), = shifted.terms
    assert c == 1.0 + 0j
    assert np.allclose(g, G + F)


def test_shift_adjunction_through_the_gram():
    a = ExpCombo.single(F) + ExpCombo.single(0.4 * G) * 0.3j
    b = ExpCombo.single(G)
    h = np.array([0.2 - 0.1j, 0.15 + 0.05j])
    lhs = exp_gram(exp_shift(h, a), b)
    rhs = exp_gram(a, exp_shift(h, b, adjoint=True))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_unstamped_vector_is_refused():
    # a truncated vector carries no exponential structure to rewrite, even
    # when it is the truncation of an exponential vector
    for vec in (FockVector.zero(2, 3), exp_vector(F, 3)):
        with pytest.raises(TypeError, match="expected ExpCombo"):
            exp_shift(G, vec)
        with pytest.raises(TypeError, match="expected ExpCombo"):
            pair_map(0.5, vec)
        with pytest.raises(TypeError, match="expected ExpCombo"):
            pair_merge(0.5, vec)
    with pytest.raises(TypeError):
        exp_shift(F, 3.0)
    with pytest.raises(TypeError):
        pair_merge(0.5, ExpCombo.single(F))


def test_pair_map_doubles_against_the_factorized_kernel():
    t, s = 0.7, -0.4
    a2 = pair_map(t, ExpCombo.single(F))
    b2 = pair_map(s, ExpCombo.single(G))
    ip = complex(np.vdot(F, G))
    want = np.exp(ip + t * s * ip)
    assert exp_gram(a2, b2) == pytest.approx(complex(want), rel=1e-13)


def test_pair_merge_collapses_the_legs():
    x2 = ExpCombo.single(F, G) * (2.0 + 1j)
    merged = pair_merge(0.5, x2)
    (c, h), = merged.terms
    assert c == 2.0 + 1j
    assert np.allclose(h, F + 0.5 * G)


def test_dimension_mismatch_is_refused():
    with pytest.raises(ValueError):
        ExpCombo.single(F) + ExpCombo.single(np.ones(3))
    with pytest.raises(ValueError):
        exp_gram(ExpCombo.single(F), ExpCombo.single(np.ones(3)))


def test_leg_counts_are_enforced():
    one, two = ExpCombo.single(F), ExpCombo.single(F, G)
    assert (one.legs, two.legs) == (1, 2)
    with pytest.raises(ValueError):
        one + two
    with pytest.raises(ValueError):
        exp_gram(one, two)
    with pytest.raises(ValueError):
        ExpCombo(2, [(1.0, F)], legs=2)
    with pytest.raises(TypeError):
        pair_merge(0.5, one)
    with pytest.raises(TypeError):
        exp_shift(G, two)
    with pytest.raises(TypeError):
        pair_map(0.5, two)


def test_three_legs_pair_through_the_summed_exponent():
    rng = np.random.default_rng(13)
    fs = [0.5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(3)]
    gs = [0.5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(3)]
    a = ExpCombo.single(*fs) * (0.3 - 0.2j)
    b = ExpCombo.single(*gs)
    want = (0.3 - 0.2j).conjugate() * np.exp(sum(np.vdot(f, g) for f, g in zip(fs, gs)))
    assert a.legs == 3
    assert exp_gram(a, b) == pytest.approx(complex(want), rel=1e-13)
