"""Occupation-number bookkeeping shared by all truncated symmetric-tensor code.

A degree-n symmetric level over d modes is coordinatized by occupation vectors
alpha = (alpha_1, ..., alpha_d) with sum(alpha) = n, enumerated in ascending
lexicographic order. The level dimension is C(n + d - 1, n); requests beyond
the coefficient budget raise GuardLimitError instead of allocating.

The raise tables also serve lowering. Every level-n vector alpha with
alpha_i >= 1 is beta + e_i for exactly one level-(n-1) beta, and the raise
weight sqrt(beta_i + 1) is the lower weight sqrt(alpha_i). So the vector
kernels in `fock` and `chaos` lower by gathering through raise_maps(d, n-1),
with no mask for empty modes. `lower_maps` stays as the reference table that
the dense matrices and the split route read, so those independent checks do
not share a table with the kernels they check.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

import numpy as np

MAX_LEVEL_COEFFS = 2_000_000

__all__ = [
    "MAX_LEVEL_COEFFS",
    "GuardLimitError",
    "level_dim",
    "check_level",
    "occupations",
    "occ_array",
    "position",
    "lower_maps",
    "raise_maps",
    "factorial_ratio_sqrt",
    "multiplicities",
]


class GuardLimitError(ValueError):
    """A requested level would exceed the coefficient budget."""


def level_dim(d: int, n: int) -> int:
    return comb(n + d - 1, n)


def check_level(d: int, n: int) -> int:
    """Validate (d, n) and return the level dimension."""
    if d < 1:
        raise ValueError(f"mode count must be positive, got d={d}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got n={n}")
    size = level_dim(d, n)
    if size > MAX_LEVEL_COEFFS:
        raise GuardLimitError(
            f"level (d={d}, n={n}) needs {size} coefficients, "
            f"budget is {MAX_LEVEL_COEFFS}"
        )
    return size


@lru_cache(maxsize=None)
def occupations(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All occupation vectors of degree n over d modes, lexicographic."""
    check_level(d, n)
    if d == 1:
        return ((n,),)
    out = []
    for first in range(n + 1):
        for rest in occupations(d - 1, n - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def occ_array(d: int, n: int) -> np.ndarray:
    """Occupation vectors as a read-only (dim, d) int array."""
    arr = np.array(occupations(d, n), dtype=np.int64).reshape(level_dim(d, n), d)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _pos_table(d: int, n: int) -> dict[tuple[int, ...], int]:
    return {occ: k for k, occ in enumerate(occupations(d, n))}


def position(occ: tuple[int, ...]) -> int:
    """Index of an occupation vector inside its level enumeration."""
    d = len(occ)
    n = int(sum(occ))
    try:
        return _pos_table(d, n)[tuple(int(a) for a in occ)]
    except KeyError:
        raise ValueError(f"not a valid occupation vector: {occ}") from None


@lru_cache(maxsize=None)
def lower_maps(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode lowering maps for level n >= 1.

    Returns (target, weight): target[p, i] is the level-(n-1) position of
    alpha - e_i for the level-n vector at position p (-1 where alpha_i = 0),
    weight[p, i] = sqrt(alpha_i).
    """
    if n < 1:
        raise ValueError("lowering needs degree >= 1")
    occ = occ_array(d, n)
    table = _pos_table(d, n - 1)
    dim = occ.shape[0]
    target = np.full((dim, d), -1, dtype=np.int64)
    for p in range(dim):
        row = occ[p]
        for i in range(d):
            if row[i] > 0:
                low = list(row)
                low[i] -= 1
                target[p, i] = table[tuple(low)]
    weight = np.sqrt(occ.astype(np.float64))
    target.setflags(write=False)
    weight.setflags(write=False)
    return target, weight


@lru_cache(maxsize=None)
def raise_maps(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode raising maps for level n.

    Returns (target, weight): target[p, i] is the level-(n+1) position of
    alpha + e_i, weight[p, i] = sqrt(alpha_i + 1).
    """
    occ = occ_array(d, n)
    table = _pos_table(d, n + 1)
    dim = occ.shape[0]
    target = np.empty((dim, d), dtype=np.int64)
    for p in range(dim):
        row = occ[p]
        for i in range(d):
            up = list(row)
            up[i] += 1
            target[p, i] = table[tuple(up)]
    weight = np.sqrt(occ.astype(np.float64) + 1.0)
    target.setflags(write=False)
    weight.setflags(write=False)
    return target, weight


@lru_cache(maxsize=None)
def factorial_ratio_sqrt(d: int, n: int) -> np.ndarray:
    """Array of sqrt(n! / alpha!) over the level enumeration.

    These are the coefficients tying symmetric-function values on index
    multisets to the orthonormal occupation coordinates.
    """
    occ = occupations(d, n)
    fac_n = factorial(n)
    vals = np.empty(len(occ), dtype=np.float64)
    for p, row in enumerate(occ):
        denom = 1
        for a in row:
            denom *= factorial(a)
        vals[p] = np.sqrt(fac_n / denom)
    vals.setflags(write=False)
    return vals


@lru_cache(maxsize=None)
def multiplicities(d: int, n: int) -> np.ndarray:
    """Orbit sizes n!/alpha!: how many ordered tuples share each multiset."""
    vals = factorial_ratio_sqrt(d, n) ** 2
    out = np.round(vals).astype(np.float64)
    out.setflags(write=False)
    return out
