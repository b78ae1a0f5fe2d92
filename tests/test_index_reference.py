"""Index tables against the enumeration builders they replace, byte for byte.

`occ_array`, `raise_maps` and `factorial_ratio_sqrt` are built by array
arithmetic. The references below are the earlier builders: the recursive
tuple enumeration, the dict lookup per raised entry and the Python-integer
factorial loop. Every table must equal its reference in dtype, shape and
bytes.
"""
from functools import lru_cache
from math import factorial

import numpy as np
import pytest

from chaoskit.indices import (
    factorial_ratio_sqrt,
    level_dim,
    multiplicities,
    occ_array,
    occupations,
    raise_maps,
)

# Every degree up to MAX_DEGREE whose level has at most MAX_DIM vectors.
MAX_DIM = 60_000
MAX_DEGREE = 30


@lru_cache(maxsize=None)
def reference_occupations(d, n):
    if d == 1:
        return ((n,),)
    return tuple(
        (first,) + rest
        for first in range(n + 1)
        for rest in reference_occupations(d - 1, n - first)
    )


def reference_occ_array(d, n):
    return np.array(reference_occupations(d, n), dtype=np.int64).reshape(level_dim(d, n), d)


def reference_raise_maps(d, n):
    occ = reference_occupations(d, n)
    table = {row: k for k, row in enumerate(reference_occupations(d, n + 1))}
    target = np.empty((len(occ), d), dtype=np.int64)
    for p, row in enumerate(occ):
        for i in range(d):
            up = list(row)
            up[i] += 1
            target[p, i] = table[tuple(up)]
    weight = np.sqrt(reference_occ_array(d, n).astype(np.float64) + 1.0)
    return target, weight


def reference_factorial_ratio_sqrt(d, n):
    occ = reference_occupations(d, n)
    fac_n = factorial(n)
    vals = np.empty(len(occ), dtype=np.float64)
    for p, row in enumerate(occ):
        denom = 1
        for a in row:
            denom *= factorial(a)
        vals[p] = np.sqrt(fac_n / denom)
    return vals


@pytest.fixture(autouse=True)
def _drop_tables():
    # the tables of 16 mode counts take hundreds of MB if kept to the end
    yield
    reference_occupations.cache_clear()
    for table in (occ_array, occupations, raise_maps, factorial_ratio_sqrt, multiplicities):
        table.cache_clear()


def _degrees(d):
    return [n for n in range(MAX_DEGREE + 1) if level_dim(d, n) <= MAX_DIM]


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", range(1, 17))
def test_index_tables_match_the_enumeration_builders(d):
    for n in _degrees(d):
        assert_same_bytes(occ_array(d, n), reference_occ_array(d, n))
        assert occupations(d, n) == reference_occupations(d, n)
        want = reference_factorial_ratio_sqrt(d, n)
        assert_same_bytes(factorial_ratio_sqrt(d, n), want)
        assert_same_bytes(multiplicities(d, n), np.round(want**2).astype(np.float64))
        if level_dim(d, n + 1) <= MAX_DIM:
            got, ref = raise_maps(d, n), reference_raise_maps(d, n)
            assert_same_bytes(got[0], ref[0])
            assert_same_bytes(got[1], ref[1])


@pytest.mark.parametrize("n", [62, 63])
def test_factorial_ratios_on_both_sides_of_the_int64_guard(n):
    # 2**62 takes the int64 multinomials, 2**63 the Python-integer loop
    assert_same_bytes(factorial_ratio_sqrt(2, n), reference_factorial_ratio_sqrt(2, n))


@pytest.mark.parametrize("n", range(25, 31))
def test_factorial_ratios_above_the_int64_guard_at_six_modes(n):
    # 6**25 > 2**63: the Python-integer products of binomials, at the level
    # sizes exp_vector(f, 30) and tensor_power reach at d = 6
    assert_same_bytes(factorial_ratio_sqrt(6, n), reference_factorial_ratio_sqrt(6, n))


def test_occ_array_caches_no_sub_tables():
    occ_before = occ_array.cache_info().currsize
    tuples_before = occupations.cache_info().currsize
    occ_array(128, 1)
    assert occ_array.cache_info().currsize == occ_before + 1
    assert occupations.cache_info().currsize == tuples_before
