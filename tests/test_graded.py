"""The graded-container contract shared by Fock vectors and chaos expansions."""
import numpy as np
import pytest

from chaoskit.chaos import ChaosCoefficients, MarkedChaos, chaos_evaluate
from chaoskit.exponential import ExpCombo, exp_shift
from chaoskit.fock import FockVector, MarkedFock, exp_vector
from chaoskit.indices import level_dim
from chaoskit.levy import CellGrid, LevyModel, StepField, poisson_preset, sample_ensemble

MIXED = LevyModel(b=0.0, sigma=1.0, atoms=((1.0, 1.0),), horizon=1.0)
GRID = CellGrid(MIXED, 3)
OTHER_GRID = CellGrid(poisson_preset(1.0, 1.0), 4)

# class, its space, a space of another shape, and the mark width per space
CONTAINERS = [
    (FockVector, 2, 3, lambda d: ()),
    (MarkedFock, 2, 3, lambda d: (d,)),
    (ChaosCoefficients, GRID, OTHER_GRID, lambda g: ()),
    (MarkedChaos, GRID, OTHER_GRID, lambda g: (g.n_cells,)),
]


def _parts(v) -> list:
    return v.kernels if isinstance(v, (ChaosCoefficients, MarkedChaos)) else v.levels


def _modes(space) -> int:
    return space if isinstance(space, int) else space.n_cells


def _levels(rng, space, truncation, mark):
    c = _modes(space)
    out = []
    for n in range(truncation + 1):
        shape = (level_dim(c, n),) + mark(space)
        out.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return out


@pytest.mark.parametrize("cls, space, other, mark", CONTAINERS)
def test_container_contract(cls, space, other, mark):
    rng = np.random.default_rng(5)
    levels = _levels(rng, space, 2, mark)
    x = cls(space, 2, levels)
    with pytest.raises(ValueError):
        cls(space, 2, levels[:2])
    with pytest.raises(ValueError):
        cls(space, 2, levels[:2] + [levels[2][:-1]])
    with pytest.raises(ValueError):
        cls(space, -1, [])
    for bad in (cls.zero(space, 3), cls.zero(other, 2)):
        with pytest.raises(ValueError):
            x + bad
        with pytest.raises(ValueError):
            x.inner(bad)

    zero = cls.zero(space, 2)
    for n, lev in enumerate(_parts(zero)):
        assert lev.shape == (level_dim(_modes(space), n),) + mark(space)
        assert lev.dtype == np.complex128
        assert not np.any(lev)
    assert (x + zero).norm() == x.norm()
    assert (x - x).norm() == 0.0
    assert (2.0 * x).norm() == pytest.approx(2.0 * x.norm(), rel=1e-14)

    dup = x.copy()
    for a, b in zip(_parts(dup), _parts(x)):
        assert a is not b and np.array_equal(a, b)
    _parts(dup)[1][0] += 1.0
    assert not np.array_equal(_parts(dup)[1], _parts(x)[1])


def _sources_equal(a, b) -> bool:
    if isinstance(a, ExpCombo):
        return a.legs == b.legs and len(a.terms) == len(b.terms) and all(
            all(np.array_equal(x, y) for x, y in zip(s, t))
            for s, t in zip(a.terms, b.terms)
        )
    return a == b


def test_difference_is_the_sum_with_the_negated_operand():
    rng = np.random.default_rng(17)
    f, g = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    field = StepField.from_columns(OTHER_GRID, bins={1: rng.standard_normal(4)})
    stamped = [
        (exp_vector(f, 4), 2.0 * exp_vector(g, 4)),
        (
            ChaosCoefficients.doleans(field, 3),
            ChaosCoefficients.from_power(field, 2, 3, coeff=0.5),
        ),
    ]
    plain = [
        (cls(space, 2, _levels(rng, space, 2, mark)), cls(space, 2, _levels(rng, space, 2, mark)))
        for cls, space, _, mark in CONTAINERS
    ]
    for psi, phi in stamped + plain:
        got, want = psi - phi, psi + (-1.0) * phi
        assert type(got) is type(want)
        for a, b in zip(_parts(got), _parts(want)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (got.source is None) == (want.source is None)
        if want.source is not None:
            assert _sources_equal(got.source, want.source)


def test_chaos_sources_follow_the_linear_arithmetic():
    # pure jump: the heat recursion of `power_integrals` is still wrong for
    # diffusion orders >= 3 (see ROADMAP), and this test is about the sources
    grid = OTHER_GRID
    rng = np.random.default_rng(11)
    f = StepField.from_columns(grid, bins={1: rng.standard_normal(4)})
    g = StepField.from_columns(grid, bins={1: rng.standard_normal(4)})
    F = ChaosCoefficients.doleans(f, 3)
    G = ChaosCoefficients.from_power(g, 2, 3, coeff=0.5)
    H = F - 2 * G
    scaled = [(complex(-1.0) * (complex(2) * c), fld, n) for c, fld, n in G.source]
    assert H.source == F.source + scaled
    assert H.copy().source == H.source
    ens = sample_ensemble(grid.model, grid, seed=3, n_paths=16)
    dense = H.copy()
    dense.source = None
    assert np.allclose(chaos_evaluate(H, ens), chaos_evaluate(dense, ens), atol=1e-12)
    assert (H + ChaosCoefficients.zero(grid, 3)).source is None


def test_sums_of_stamped_exponential_vectors_stay_stamped():
    f = np.array([0.3 + 0.4j, -0.2 + 0.0j])
    g = np.array([0.1 - 0.5j, 0.25 + 0.25j])
    h = np.array([0.2 - 0.1j, 0.15 + 0.05j])
    M = 8
    combo = ExpCombo.single(f) + 2 * ExpCombo.single(g)
    vec = exp_vector(f, M) + 2 * exp_vector(g, M)
    for adjoint in (False, True):
        got = exp_shift(h, vec, adjoint=adjoint)
        want = exp_shift(h, combo, adjoint=adjoint).to_fock(M)
        for a, b in zip(got.levels, want.levels):
            assert np.allclose(a, b, atol=1e-14)
    assert (vec - exp_vector(f, M)).source is not None
    assert (vec + FockVector.zero(2, M)).source is None
