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

The kernel tables are built by array arithmetic, with no Python loop over
entries:

- `occ_array` grows the enumeration from the trailing modes upward, one
  mode per step. The vectors over modes k..d-2 with entry sum <= n, in
  lexicographic order, are each value a of mode k in ascending order
  followed by the vectors over modes k+1..d-2 with sum <= n - a (a
  subsequence of the previous step, so still in order); the last mode takes
  the rest of n. Each step keeps only the new mode's values and pointers
  into the previous step, so the columns are read back by d gathers of the
  level's size. No sub-table is cached, and `occupations` derives its
  tuples from the array when something asks for them.
- `raise_maps` computes targets by lexicographic rank arithmetic. Let
  B(r, t) = C(r + t, t) count the vectors over t modes with sum <= r. The
  level-n rank of alpha is sum_k B(R_k, t_k) - B(R_{k+1}, t_k), where
  R_k = alpha_k + ... + alpha_{d-1} and t_k = d - 1 - k (hockey-stick
  identity). Raising mode i adds one to R_k for every k <= i, and the rank
  of alpha + e_i follows from the rank p of alpha by adding differences of
  B, with no search.
- `factorial_ratio_sqrt` forms n!/alpha! as an exact product of binomials
  C(alpha_0 + ... + alpha_k, alpha_k), from an int64 Pascal table whenever
  d**n < 2**63 (each multinomial is at most d**n) and from a Python-integer
  (object dtype) one above; either way the exact integer is rounded to
  float64 once, as float(n! / alpha!) is.

`lower_maps`, `position` and `fock._split_positions` stay on the tuple and
dict enumeration, so the dense matrices and the split route keep a table
builder that the kernels they check do not use.

Every cached builder of arrays, here and in `fock`, `chaos` and `suites`, is
a `_table_cache`, whose arrays are read-only: all callers share one copy.
"""
from __future__ import annotations

from functools import lru_cache, wraps
from math import comb

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


def _freeze(table):
    """Make table's arrays read-only, at any depth of tuples; returns table."""
    if isinstance(table, np.ndarray):
        table.setflags(write=False)
    elif isinstance(table, tuple):
        for part in table:
            _freeze(part)
    return table


def _table_cache(build):
    """An lru_cache of build (with its `cache_info`) that freezes each table."""

    @wraps(build)
    def frozen(*args):
        return _freeze(build(*args))

    return lru_cache(maxsize=None)(frozen)


def level_dim(d: int, n: int) -> int:
    return comb(n + d - 1, n)


@lru_cache(maxsize=None)
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


@_table_cache
def occ_array(d: int, n: int) -> np.ndarray:
    """Occupation vectors of degree n over d modes as a read-only (dim, d) int array."""
    check_level(d, n)
    # Step j lists the vectors over modes d-1-j..d-2 with sum <= n: the value
    # lead of mode d-1-j, and row, the previous step's vector after it.
    sums = np.zeros(1, dtype=np.int64)
    steps = []
    for _ in range(d - 1):
        lead, row = np.nonzero(sums[None, :] <= n - np.arange(n + 1)[:, None])
        steps.append((lead, row))
        sums = lead + sums[row]
    arr = np.empty((sums.size, d), dtype=np.int64)
    arr[:, d - 1] = n - sums
    pick = np.arange(sums.size)
    for k, (lead, row) in enumerate(reversed(steps)):
        arr[:, k] = lead[pick]
        pick = row[pick]
    return arr


@lru_cache(maxsize=None)
def occupations(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All occupation vectors of degree n over d modes, lexicographic."""
    return tuple(map(tuple, occ_array(d, n).tolist()))


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


@_table_cache
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
    return target, weight


def _sum_counts(rows: int, d: int) -> np.ndarray:
    """B[r, t] = C(r + t, t), the number of vectors over t modes with sum <= r."""
    out = np.ones((rows, d), dtype=np.int64)
    for t in range(1, d):
        out[:, t] = np.cumsum(out[:, t - 1])
    return out


@_table_cache
def raise_maps(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode raising maps for level n.

    Returns (target, weight): target[p, i] is the level-(n+1) position of
    alpha + e_i, weight[p, i] = sqrt(alpha_i + 1).
    """
    check_level(d, n + 1)
    occ = occ_array(d, n)
    B = _sum_counts(n + 2, d)
    gain = B[1:] - B[:-1]  # gain[r, t] = B(r + 1, t) - B(r, t)
    t = np.arange(d - 1, -1, -1)
    rest = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]  # R_k
    after = gain[rest - occ, t]  # at R_{k+1}
    # the rank p gains gain(R_k) - gain(R_{k+1}) at every k <= i, and
    # gain(R_{i+1}) at the raised mode i itself
    target = np.cumsum(gain[rest, t] - after, axis=1) + after + np.arange(occ.shape[0])[:, None]
    weight = np.sqrt(occ.astype(np.float64) + 1.0)
    return target, weight


@_table_cache
def _pascal_exact(rows: int) -> np.ndarray:
    """C(s, a) for 0 <= s, a < rows as Python integers (object dtype)."""
    out = np.zeros((rows, rows), dtype=object)
    out[:, 0] = 1
    for s in range(1, rows):
        out[s, 1:] = out[s - 1, 1:] + out[s - 1, :-1]
    return out


@_table_cache
def _pascal() -> np.ndarray:
    """C(s, a) for 0 <= s, a <= 62 as int64; C(62, 31) < 2**63."""
    return _pascal_exact(63).astype(np.int64)


@_table_cache
def factorial_ratio_sqrt(d: int, n: int) -> np.ndarray:
    """Array of sqrt(n! / alpha!) over the level enumeration.

    These are the coefficients tying symmetric-function values on index
    multisets to the orthonormal occupation coordinates.
    """
    # n!/alpha! = prod_k C(alpha_0 + ... + alpha_k, alpha_k), exact; it is at
    # most d**n, so int64 holds it below the guard
    table = _pascal() if n < 63 and d**n < 2**63 else _pascal_exact(n + 1)
    occ = occ_array(d, n)
    multinomial = np.prod(table[np.cumsum(occ, axis=1), occ], axis=1)
    return np.sqrt(multinomial.astype(np.float64))


@_table_cache
def multiplicities(d: int, n: int) -> np.ndarray:
    """Orbit sizes n!/alpha!: how many ordered tuples share each multiset."""
    vals = factorial_ratio_sqrt(d, n) ** 2
    return np.round(vals).astype(np.float64)
