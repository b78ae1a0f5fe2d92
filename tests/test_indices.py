"""Exact combinatorics of the occupation-vector enumeration."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaoskit import chaos, fock, indices, suites
from chaoskit.indices import (
    MAX_LEVEL_COEFFS,
    GuardLimitError,
    check_level,
    factorial_ratio_sqrt,
    level_dim,
    lower_maps,
    multiplicities,
    occ_array,
    occupations,
    position,
    raise_maps,
)
from chaoskit.levy import CellGrid, LevyModel

dims = st.integers(min_value=1, max_value=5)
degrees = st.integers(min_value=0, max_value=6)


@given(dims, degrees)
def test_level_dim_matches_enumeration(d, n):
    assert len(occupations(d, n)) == level_dim(d, n)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=8))
def test_level_dim_pascal_recurrence(d, n):
    assert level_dim(d, n) == level_dim(d - 1, n) + level_dim(d, n - 1)


def test_level_dim_edges():
    assert level_dim(1, 7) == 1
    assert level_dim(4, 0) == 1
    assert level_dim(4, 1) == 4


@given(dims, degrees)
def test_occupations_sum_sort_distinct(d, n):
    occ = occupations(d, n)
    assert all(sum(row) == n for row in occ)
    assert list(occ) == sorted(occ)
    assert len(set(occ)) == len(occ)


@given(dims, degrees)
def test_position_round_trip(d, n):
    for k, row in enumerate(occupations(d, n)):
        assert position(row) == k


def test_position_rejects_negative_entries():
    with pytest.raises(ValueError):
        position((2, -1))


def test_occ_array_is_read_only():
    arr = occ_array(3, 2)
    with pytest.raises(ValueError):
        arr[0, 0] = 5


def _arrays(table) -> list:
    if isinstance(table, np.ndarray):
        return [table]
    if isinstance(table, tuple):
        return [a for part in table for a in _arrays(part)]
    return []


_GRID = CellGrid(LevyModel(sigma=1.0, atoms=((1.0, 1.0),)), 2)


@pytest.mark.parametrize(
    "build, args",
    [
        pytest.param(build, args, id=f"{build.__module__}.{build.__name__}")
        for build, args in [
            (indices.occ_array, (3, 2)),
            (indices.lower_maps, (3, 2)),
            (indices.raise_maps, (3, 2)),
            (indices.factorial_ratio_sqrt, (3, 2)),
            (indices.multiplicities, (3, 2)),
            (indices._pascal, ()),
            (indices._pascal_exact, (5,)),
            (fock._fold_plan, (3, 3)),
            (fock._raise_stack, (3, 3)),
            (fock._divergence_plan, (3, 3)),
            (fock._split_positions, (3, 2, (0,))),
            (fock._merge_positions, (3, (0,), 1, 1)),
            (chaos._occupation_plan, (3, 3)),
            (chaos._symmetrize_scale, (3, 3)),
            (chaos._mass_weights, (_GRID, 2)),
            (chaos._pair_weights, (_GRID, 2)),
            (chaos._embed_scale, (_GRID, 2)),
            (suites._draw_plan, (((3,), (3, 2)),)),
        ]
    ],
)
def test_cached_tables_are_read_only(build, args):
    # every caller shares one cached table, so no caller may write it
    arrays = _arrays(build(*args))
    assert arrays
    assert not any(a.flags.writeable for a in arrays)


@given(dims, st.integers(min_value=0, max_value=5))
def test_raise_then_lower_returns_home(d, n):
    rt, rw = raise_maps(d, n)
    lt, lw = lower_maps(d, n + 1)
    for p in range(rt.shape[0]):
        for i in range(d):
            q = rt[p, i]
            assert lt[q, i] == p
            assert lw[q, i] == rw[p, i]


@given(dims, st.integers(min_value=1, max_value=6))
def test_lower_marks_empty_modes(d, n):
    occ = occ_array(d, n)
    target, weight = lower_maps(d, n)
    assert np.array_equal(target == -1, occ == 0)
    assert np.allclose(weight, np.sqrt(occ))


@given(dims, degrees)
def test_multiplicities_count_ordered_tuples(d, n):
    mult = multiplicities(d, n)
    assert mult.sum() == d**n
    assert np.array_equal(mult, np.round(mult))
    assert np.allclose(factorial_ratio_sqrt(d, n) ** 2, mult)


def test_level_one_enumerates_modes_in_reverse():
    # lexicographic order puts (0,...,0,1) first, so row p marks mode d-1-p
    occ = occ_array(4, 1)
    for p in range(4):
        assert occ[p, 4 - 1 - p] == 1


def test_guard_refuses_oversized_levels():
    assert level_dim(100, 10) > MAX_LEVEL_COEFFS
    with pytest.raises(GuardLimitError):
        check_level(100, 10)
    assert issubclass(GuardLimitError, ValueError)


def test_check_level_argument_validation():
    with pytest.raises(ValueError):
        check_level(0, 3)
    with pytest.raises(ValueError):
        check_level(2, -1)
