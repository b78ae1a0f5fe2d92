"""Truncated symmetric Fock space over a d-mode one-particle space.

Levels 0..M are stored in occupation coordinates (see `indices`). The
coordinate convention is the tensor normalization, stated through the
exponential vector: level n of `exp_vector(f, M)` is the n-fold tensor power
of f, which has squared norm ||f||^(2n), divided by sqrt(n!). So level n of
exp_vector(f) paired with level n of exp_vector(g) is <f, g>^n / n!, and the
lowering map sends level n of exp_vector(f) to level n-1 (x) f.
Factorial-normalized symmetric powers, common in combinatorial treatments,
are sym_power(f, n) = n! times level n of exp_vector(f); in that dictionary
the lowering map sends sym_power(f, n) to n * sym_power(f, n-1) (x) f.

One-particle inner products are conjugate linear in the left argument, as is
every inner product in this package.

Values are dataclasses on the `Graded` base, which the chaos expansions of
`chaos` share: levels 0..M of fixed shapes, validated and cast to complex on
construction, with `zero`, `copy`, linear arithmetic and the plain pairing.
Treat them as immutable: operations never write into their inputs. The
levels of a kernel's output may be views of one buffer that stacks levels
0..M (`exp_vector`, `create`, `annihilate`, `divergence`), so a level may
keep that buffer alive; `copy` gives separate arrays.
Level-raising operations cannot write above the truncation roof: the
would-be top content is dropped and its norm is returned to the caller,
never silently discarded.

The kernels work on the whole level stack at once. `exp_vector` folds the
modes left to right over every prefix of every occupation up to the roof, so
each prefix product is computed once, and the ladder maps raise or lower all
levels through one stacked raise table, one numpy pass per mode. `divergence`
adds every mark's terms in one `np.bincount` per real and imaginary part over
a mark-major plan, which the kernel route in `chaos` shares, so each target
still adds its terms in ascending mark order. Every coefficient gets the same
products, added in the same order, as in a per-level loop, so the bits do not
depend on the roof.
"""
from __future__ import annotations

import math

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .indices import (
    _pos_table,
    _table_cache,
    check_level,
    factorial_ratio_sqrt,
    level_dim,
    lower_maps,
    occ_array,
    raise_maps,
)

__all__ = [
    "FockVector",
    "MarkedFock",
    "SplitFock",
    "SkorohodIdentity",
    "as_mode_vector",
    "exp_vector",
    "exp_tail_bound",
    "gram_tail_bound",
    "annihilate",
    "create",
    "gradient",
    "divergence",
    "number_apply",
    "number_semigroup",
    "sobolev_scale",
    "graph_inner",
    "split",
    "split_gradient",
    "split_divergence",
    "marked_lower",
    "marked_exchange",
    "ito_skorohod",
]


def as_mode_vector(f, d: int | None = None) -> np.ndarray:
    """Validate and cast a one-particle vector to a complex array."""
    arr = np.asarray(f, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("mode vector must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("mode vector has non-finite entries")
    if d is not None and arr.shape[0] != d:
        raise ValueError(f"mode dimension mismatch: expected {d}, got {arr.shape[0]}")
    return arr


class Graded:
    """Levels 0..truncation of one graded value, over a one-particle space.

    Subclasses are dataclasses whose fields start with the space (named by
    `_SPACE`), `truncation` and the level list (named by `_LEVELS`); level n
    is a complex array of shape `_shape(_size(space), n)`, read from a cache
    per (class, size, truncation) through `_shapes`. This base validates
    and casts the levels and supplies `zero`, `copy`, the linear arithmetic
    and the plain coefficient pairing. A level given as None starts at zero.

    Source rule, used by `chaos.ChaosCoefficients`: a value may record how it
    was generated in `source`, and a subclass that does defines
    `_scaled_source(z)`, the record of z times the value. The record follows
    `+`, `-` and scalar `*` when every operand carries one and becomes None
    otherwise; `copy` keeps it.
    """

    _SPACE = "d"
    _LEVELS = "levels"
    source = None

    @staticmethod
    def _size(space) -> int:
        """The mode count of the space, which alone fixes the level shapes."""
        return space

    @staticmethod
    def _shape(size: int, n: int) -> tuple[int, ...]:
        raise NotImplementedError

    @staticmethod
    def _same_space(a, b) -> bool:
        return a == b

    @classmethod
    def _shapes(cls, space, truncation: int) -> tuple[tuple[int, ...], ...]:
        """The shapes of levels 0..truncation over space."""
        return _level_shapes(cls, cls._size(space), truncation)

    def __post_init__(self):
        space, M = getattr(self, self._SPACE), self.truncation
        levels = getattr(self, self._LEVELS)
        if M < 0:
            raise ValueError("truncation must be >= 0")
        if len(levels) != M + 1:
            raise ValueError(f"expected {M + 1} levels, got {len(levels)}")
        casted = []
        for n, (lev, shape) in enumerate(zip(levels, self._shapes(space, M))):
            if lev is None:
                casted.append(np.zeros(shape, dtype=np.complex128))
                continue
            arr = np.asarray(lev, dtype=np.complex128)
            if arr.shape != shape:
                raise ValueError(f"level {n} expects shape {shape}, got {arr.shape}")
            casted.append(arr)
        setattr(self, self._LEVELS, casted)

    @classmethod
    def zero(cls, space, truncation: int):
        return cls(space, truncation, [None] * (truncation + 1))

    def _new(self, levels: list[np.ndarray], source=None):
        out = type(self)(getattr(self, self._SPACE), self.truncation, levels)
        if source is not None:
            out.source = source
        return out

    def _check_compatible(self, other: "Graded"):
        if (
            type(other) is not type(self)
            or self.truncation != other.truncation
            or not self._same_space(
                getattr(self, self._SPACE), getattr(other, self._SPACE)
            )
        ):
            raise ValueError(f"{type(self).__name__} operands are not compatible")

    def copy(self):
        return self._new([a.copy() for a in getattr(self, self._LEVELS)], self.source)

    def _levelwise(self, other, op, other_source):
        """op(self level, other level) per level; source self + other_source()."""
        self._check_compatible(other)
        src = None
        if self.source is not None and other.source is not None:
            src = self.source + other_source()
        pairs = zip(getattr(self, self._LEVELS), getattr(other, self._LEVELS))
        return self._new([op(a, b) for a, b in pairs], src)

    def __add__(self, other):
        return self._levelwise(other, np.add, lambda: other.source)

    def __sub__(self, other):
        # the source of self + (-1.0) * other, in one levelwise pass
        return self._levelwise(other, np.subtract, lambda: other._scaled_source(complex(-1.0)))

    def __mul__(self, scalar):
        z = complex(scalar)
        src = None if self.source is None else self._scaled_source(z)
        return self._new([z * a for a in getattr(self, self._LEVELS)], src)

    __rmul__ = __mul__

    def _map_levels(self, op):
        """The value with level n replaced by op(n, level); no source."""
        return self._new([op(n, a) for n, a in enumerate(getattr(self, self._LEVELS))])

    def inner(self, other) -> complex:
        self._check_compatible(other)
        pairs = zip(getattr(self, self._LEVELS), getattr(other, self._LEVELS))
        return complex(sum(np.vdot(a, b) for a, b in pairs))

    def norm_sq(self) -> float:
        return float(self.inner(self).real)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))


@lru_cache(maxsize=None)
def _level_shapes(cls, size: int, truncation: int) -> tuple[tuple[int, ...], ...]:
    return tuple(cls._shape(size, n) for n in range(truncation + 1))


@dataclass(eq=False)
class FockVector(Graded):
    """Truncated Fock vector: levels[n] holds the degree-n coefficients."""

    d: int
    truncation: int
    levels: list[np.ndarray]

    @staticmethod
    def _shape(d: int, n: int) -> tuple[int, ...]:
        return (check_level(d, n),)


@dataclass(eq=False)
class MarkedFock(Graded):
    """Element of (truncated Fock space) (x) H.

    levels[n] has shape (level_dim(d, n), d): a degree-n symmetric part and
    one free one-particle slot (the mark).
    """

    d: int
    truncation: int
    levels: list[np.ndarray]

    @staticmethod
    def _shape(d: int, n: int) -> tuple[int, ...]:
        return (check_level(d, n), d)


def _power_table(fa: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat real and imaginary parts of table[k, i] = f_i ** k for k = 0..n.

    The powers come from the same ufunc as fa ** occ; the table is
    C-contiguous (n + 1, d), so entry (k, i) sits at flat index k * d + i.
    """
    table = (fa[:, None] ** np.arange(n + 1)).T
    return table.real.ravel(), table.imag.ravel()


# coefficients per block of the fold's last step; temporaries this small are
# reused by the allocator instead of faulting in fresh pages on every call
_FOLD_BLOCK = 4096


class _FoldPlan(NamedTuple):
    """Left fold over the modes that builds prod_i f_i ** alpha_i for levels 0..M.

    Step 0 is the power-table index alpha_0 * d of every alpha_0 <= M. Step
    i >= 1 lists every prefix (alpha_0, ..., alpha_i) with sum <= M in
    lexicographic order, as its parent prefix's index in step i - 1 and the
    power-table index alpha_i * d + i. The last step is sorted stably by total
    degree, so it lists levels 0..M one after another, each in `occ_array`
    order: level n is the slice [bounds[n], bounds[n + 1]). `weights` is
    factorial_ratio_sqrt of each level, and `roots` is sqrt(n!) over level n.
    """

    first: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]
    bounds: tuple[int, ...]
    weights: np.ndarray
    roots: np.ndarray


@_table_cache
def _fold_plan(d: int, truncation: int) -> _FoldPlan:
    """The read-only fold plan of levels 0..truncation over d modes."""
    sizes = [check_level(d, n) for n in range(truncation + 1)]
    sums = np.arange(truncation + 1)
    first = sums * d
    steps = []
    for i in range(1, d):
        # each prefix takes alpha_i = 0..truncation - sum, in ascending order
        counts = truncation + 1 - sums
        parent = np.repeat(np.arange(sums.size), counts)
        alpha = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        sums = sums[parent] + alpha
        steps.append((parent, alpha * d + i))
    if steps:
        order = np.argsort(sums, kind="stable")
        steps[-1] = (steps[-1][0][order], steps[-1][1][order])
    weights = np.concatenate([factorial_ratio_sqrt(d, n) for n in range(truncation + 1)])
    roots = np.repeat([math.sqrt(factorial(n)) for n in range(truncation + 1)], sizes)
    bounds = tuple(np.cumsum([0] + sizes).tolist())
    return _FoldPlan(first, tuple(steps), bounds, weights, roots)


def _fold(fa: np.ndarray, truncation: int) -> np.ndarray:
    """prod_i f_i ** alpha_i over the stack of levels 0..truncation, one buffer.

    Each step multiplies a prefix product by f_i ** alpha_i on separate real
    and imaginary arrays, (ar*br - ai*bi, ar*bi + ai*br). That is the scalar
    complex multiply of np.prod's reduction over the modes, so every
    coefficient equals np.prod(table[arange(d), occ], axis=1) bit for bit,
    signed zeros included; numpy's vectorized complex `*` differs in the last
    bit on most rows. A prefix product is computed once and shared by every
    coefficient that extends it.
    """
    plan = _fold_plan(fa.shape[0], truncation)
    re_table, im_table = _power_table(fa, truncation)
    re, im = re_table[plan.first], im_table[plan.first]
    out = np.empty(plan.bounds[-1], dtype=np.complex128)
    if not plan.steps:
        out.real, out.imag = re, im
    for k, (parent, index) in enumerate(plan.steps):
        if k == len(plan.steps) - 1:
            new_re, new_im = out.real, out.imag
        else:
            new_re, new_im = np.empty(parent.size), np.empty(parent.size)
        for lo in range(0, parent.size, _FOLD_BLOCK):
            block = slice(lo, lo + _FOLD_BLOCK)
            ar, ai = re[parent[block]], im[parent[block]]
            br, bi = re_table[index[block]], im_table[index[block]]
            new_re[block] = ar * br - ai * bi
            new_im[block] = ar * bi + ai * br
        re, im = new_re, new_im
    return out


def exp_vector(f, truncation: int) -> FockVector:
    """Truncated exponential vector: level n is the n-fold tensor power of f over sqrt(n!).

    One fold builds every level, and the levels are views of one buffer.
    Level n does not depend on the truncation, bit for bit. The discarded
    tail has squared norm sum_{n>M} ||f||^(2n)/n!, reported by exp_tail_bound.
    """
    fa = as_mode_vector(f)
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    plan = _fold_plan(fa.shape[0], truncation)
    stack = plan.weights * _fold(fa, truncation) / plan.roots
    b = plan.bounds
    levels = [stack[b[n] : b[n + 1]] for n in range(truncation + 1)]
    return FockVector(fa.shape[0], truncation, levels)


def _exp_tail(x: float, truncation: int) -> float:
    # sum_{n > M} x^n / n! for x >= 0, summed forward until terms vanish
    term = x**truncation / factorial(truncation)
    total = 0.0
    n = truncation
    while True:
        n += 1
        term *= x / n
        new_total = total + term
        if new_total == total and n > truncation + 4:
            return total
        total = new_total
        if n > truncation + 10_000:  # pragma: no cover - x would be enormous
            return total


def exp_tail_bound(f, truncation: int) -> float:
    """Squared-norm mass of the discarded levels of exp_vector(f, truncation)."""
    fa = as_mode_vector(f)
    x = float(np.vdot(fa, fa).real)
    return _exp_tail(x, truncation)


def gram_tail_bound(f, g, truncation: int) -> float:
    """Bound on the Gram truncation error: sum_{n>M} (||f|| ||g||)^n / n!."""
    fa = as_mode_vector(f)
    ga = as_mode_vector(g, fa.shape[0])
    x = float(np.linalg.norm(fa) * np.linalg.norm(ga))
    return _exp_tail(x, truncation)


class _RaiseStack(NamedTuple):
    """raise_maps of levels 0..M stacked, so a mode raises every level at once.

    Row p of target and weight is the entry of the stack of levels 0..M, in
    which level n is [rows[n], rows[n + 1]). target[p, i] indexes the stack
    of levels 1..M+1, in which level n + 1 is [cols[n], cols[n + 1]); its last
    block is level M + 1, above the roof. weight[p, i] is as in raise_maps.
    Raising one mode is one-to-one, so a scatter-add through a column of
    target adds every term.
    """

    target: np.ndarray
    weight: np.ndarray
    rows: tuple[int, ...]
    cols: tuple[int, ...]


@_table_cache
def _raise_stack(d: int, truncation: int) -> _RaiseStack:
    """The read-only raising table of levels 0..truncation over d modes."""
    tables = [raise_maps(d, n) for n in range(truncation + 1)]
    rows = tuple(np.cumsum([0] + [w.shape[0] for _, w in tables]).tolist())
    sizes = [level_dim(d, n + 1) for n in range(truncation + 1)]
    cols = tuple(np.cumsum([0] + sizes).tolist())
    target = np.concatenate([t + lo for (t, _), lo in zip(tables, cols)])
    weight = np.concatenate([w for _, w in tables])
    return _RaiseStack(target, weight, rows, cols)


def _raised(d: int, truncation: int, stack: np.ndarray, cols) -> tuple[FockVector, float]:
    """Levels 1..M of a raised stack as a vector, and the norm of level M + 1."""
    levels = [None] + [stack[cols[n] : cols[n + 1]] for n in range(truncation)]
    return FockVector(d, truncation, levels), float(np.linalg.norm(stack[cols[truncation] :]))


def annihilate(f, psi: FockVector) -> FockVector:
    """Pointwise annihilation a(f): maps level n to level n-1.

    On occupation states: a(f)|alpha> = sum_i conj(f_i) sqrt(alpha_i)
    |alpha - e_i>. The top output level M is zero (its preimage lies above
    the truncation roof). Each mode gathers from levels 1..M at once through
    the raising table of levels 0..M-1; the output levels are views of one
    buffer.
    """
    fa = as_mode_vector(f, psi.d)
    d, M = psi.d, psi.truncation
    if M == 0:
        return FockVector.zero(d, 0)
    target, weight, rows, _ = _raise_stack(d, M - 1)
    src = np.concatenate(psi.levels[1:])
    out = np.zeros(rows[-1], dtype=np.complex128)
    for i in range(d):
        out += np.conj(fa[i]) * weight[:, i] * src[target[:, i]]
    return FockVector(d, M, [out[rows[n] : rows[n + 1]] for n in range(M)] + [None])


def create(f, psi: FockVector) -> tuple[FockVector, float]:
    """Pointwise creation a*(f): maps level n to level n+1.

    On occupation states: a*(f)|alpha> = sum_i f_i sqrt(alpha_i + 1)
    |alpha + e_i>. Content pushed above the truncation roof is dropped;
    returns (vector, dropped_mass) with dropped_mass the norm of that content.
    Each mode scatters all levels at once through the raising table of levels
    0..M; the output levels are views of one buffer.
    """
    fa = as_mode_vector(f, psi.d)
    d, M = psi.d, psi.truncation
    target, weight, _, cols = _raise_stack(d, M)
    src = np.concatenate(psi.levels)
    # the top block is the would-be level M+1
    stack = np.zeros(cols[-1], dtype=np.complex128)
    for i in range(d):
        stack[target[:, i]] += fa[i] * weight[:, i] * src
    return _raised(d, M, stack, cols)


def _lower(value: Graded) -> list[np.ndarray]:
    """Levels 1..M of a Fock or marked value lowered, the new mark on axis 1.

    One gather through the raising table of levels 0..M-1 takes every level.
    """
    d, M = value.d, value.truncation
    if M == 0:
        return []
    target, weight, rows, _ = _raise_stack(d, M - 1)
    out = np.concatenate(value.levels[1:])[target]
    out *= weight.reshape(weight.shape + (1,) * (out.ndim - 2))
    return [out[rows[n] : rows[n + 1]] for n in range(M)]


def gradient(psi: FockVector) -> MarkedFock:
    """Universal lowering map: |alpha> -> sum_i sqrt(alpha_i) |alpha - e_i> (x) slot_i.

    Sends level n of exp_vector(f) to level n - 1 (x) f. The output
    keeps the input truncation; its top marked level is zero. The output
    levels are views of one buffer.
    """
    return MarkedFock(psi.d, psi.truncation, _lower(psi) + [None])


def _weighted_scatter(target: np.ndarray, weight: np.ndarray, z: np.ndarray, size: int):
    """sum of weight[k] * z[k] over the terms k with target[k] == t, for t < size.

    Real weights times complex terms, in real arithmetic with the bits of
    numpy's complex multiply, zero products included: (w zr - 0 zi,
    w zi + 0 zr). `np.bincount` adds each target's terms in input order,
    starting from +0.0, as a loop of scatter-adds into zeros does.
    """
    re, im = z.real, z.imag
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(target, weight * re - 0.0 * im, minlength=size)
    out.imag = np.bincount(target, weight * im + 0.0 * re, minlength=size)
    return out


@_table_cache
def _divergence_plan(d: int, truncation: int) -> tuple[np.ndarray, ...]:
    """`_raise_stack` of levels 0..truncation read mark by mark, as one scatter.

    (source, target, weight, count): term k takes entry source[k] = p * d + j
    of the flattened marked stack, times weight[p, j] in `divergence` or
    count[p, j] = alpha_j + 1 in `chaos._symmetrize`, to target[p, j] of the
    raised stack.
    Marks run in ascending order, so each target adds its terms in ascending
    mark order.
    """
    target, weight, rows, _ = _raise_stack(d, truncation)
    source = np.arange(rows[-1] * d).reshape(rows[-1], d)
    count = np.concatenate([occ_array(d, m) + 1.0 for m in range(truncation + 1)])
    return tuple(np.ascontiguousarray(a.T).ravel() for a in (source, target, weight, count))


def divergence(phi: MarkedFock) -> tuple[FockVector, float]:
    """Adjoint of `gradient`: (|beta> (x) slot_j) -> sqrt(beta_j + 1) |beta + e_j>.

    Returns (vector, dropped_mass); dropped_mass is the norm of the content the
    top marked level would have produced above the truncation roof. Every
    mark's terms of every level go through one mark-major scatter, so marks
    are added in ascending order; the output levels are views of one buffer.
    """
    d, M = phi.d, phi.truncation
    cols = _raise_stack(d, M).cols
    source, target, weight, _ = _divergence_plan(d, M)
    terms = np.concatenate(phi.levels).ravel()[source]
    return _raised(d, M, _weighted_scatter(target, weight, terms, cols[-1]), cols)


def number_apply(psi: Graded) -> Graded:
    """Number operator: multiplies level n by n."""
    return psi._map_levels(lambda n, lev: n * lev)


def number_semigroup(psi: Graded, t: float) -> Graded:
    """Heat semigroup of the number operator: level n scales by exp(-t n).

    On chaos expansions this is the Ornstein-Uhlenbeck semigroup.
    """
    if t < 0:
        raise ValueError("semigroup time must be >= 0")
    return psi._map_levels(lambda n, lev: np.exp(-t * n) * lev)


def sobolev_scale(psi: Graded) -> Graded:
    """Scale level n by (1 + n)^(-1/2).

    Unitary from the plain norm onto the graph norm: graph_inner of two scaled
    vectors equals the plain inner product of the originals.
    """
    return psi._map_levels(lambda n, lev: lev / np.sqrt(1.0 + n))


def graph_inner(psi: FockVector, phi: FockVector) -> complex:
    """<psi, phi> + <gradient psi, gradient phi> = sum_n (1 + n) <psi_n, phi_n>."""
    psi._check_compatible(phi)
    return complex(
        sum((1.0 + n) * np.vdot(a, b) for n, (a, b) in enumerate(zip(psi.levels, phi.levels)))
    )


# ---------------------------------------------------------------------------
# splitting along a partition of the modes


@dataclass(eq=False)
class SplitFock:
    """Image of a Fock vector under the mode-partition isomorphism.

    blocks[(n1, n2)] has shape (dim_1(n1), dim_2(n2)) and collects the
    coefficients whose occupation restricted to the two mode groups has
    degrees n1 and n2.
    """

    d: int
    first: tuple[int, ...]
    second: tuple[int, ...]
    truncation: int
    blocks: dict[tuple[int, int], np.ndarray]


def _validate_partition(d: int, first) -> tuple[tuple[int, ...], tuple[int, ...]]:
    first = tuple(sorted(int(i) for i in first))
    if len(set(first)) != len(first) or any(i < 0 or i >= d for i in first):
        raise ValueError(f"invalid mode subset {first} for d={d}")
    if len(first) == 0 or len(first) == d:
        raise ValueError("partition must split the modes into two nonempty groups")
    second = tuple(i for i in range(d) if i not in set(first))
    return first, second


def _table_positions(sub: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Level positions of the rows of sub, whose entry sums are degree.

    Each degree's rows are looked up in the tuple and dict table of `position`.
    """
    out = np.empty(sub.shape[0], dtype=np.int64)
    for k in set(degree.tolist()):
        rows = np.flatnonzero(degree == k)
        table = _pos_table(sub.shape[1], k)
        out[rows] = [table[a] for a in map(tuple, sub[rows].tolist())]
    return out


@_table_cache
def _split_positions(d: int, n: int, first: tuple[int, ...]):
    """For each level-n position: (n1, pos1, pos2) under the partition.

    The one table of the mode-partition bijection, built on the tuple and
    dict enumeration of `position`; `_merge_positions` is its inverse.
    """
    occ = occ_array(d, n)
    second = [i for i in range(d) if i not in first]
    n1 = occ[:, list(first)].sum(axis=1)
    pos1 = _table_positions(occ[:, list(first)], n1)
    pos2 = _table_positions(occ[:, second], n - n1)
    return n1, pos1, pos2


@_table_cache
def _merge_positions(d: int, first: tuple[int, ...], n1: int, n2: int) -> np.ndarray:
    """Global level-(n1+n2) positions of merged (alpha1, alpha2) pairs."""
    n1s, pos1, pos2 = _split_positions(d, n1 + n2, first)
    sel = n1s == n1
    out = np.empty((level_dim(len(first), n1), level_dim(d - len(first), n2)), dtype=np.int64)
    out[pos1[sel], pos2[sel]] = np.flatnonzero(sel)
    return out


def _factor_merge(d: int, first: tuple[int, ...], factor: int, nf: int, no: int) -> np.ndarray:
    """`_merge_positions` with the chosen factor's degree nf on axis 0."""
    if factor == 1:
        return _merge_positions(d, first, nf, no)
    return _merge_positions(d, first, no, nf).T


def split(psi: FockVector, first) -> SplitFock:
    """Rearrange a Fock vector over the product of the two mode groups.

    Unitary: squared block norms sum to ||psi||^2. Exponential vectors split
    into products of exponential vectors of the restricted directions.
    """
    d, M = psi.d, psi.truncation
    first, second = _validate_partition(d, first)
    blocks = {
        (n1, n - n1): psi.levels[n][_merge_positions(d, first, n1, n - n1)]
        for n in range(M + 1)
        for n1 in range(n + 1)
    }
    return SplitFock(d, first, second, M, blocks)


def split_gradient(sp: SplitFock, factor: int) -> MarkedFock:
    """Lowering applied inside one factor of a split vector, merged back.

    The output marks live on the chosen factor's modes only; summing the two
    factors reproduces `gradient` of the merged vector.
    """
    if factor not in (1, 2):
        raise ValueError("factor must be 1 or 2")
    d, M = sp.d, sp.truncation
    modes = np.array(sp.first if factor == 1 else sp.second)
    out = MarkedFock.zero(d, M)
    for (n1, n2), blk in sp.blocks.items():
        # the chosen factor's axis first
        nf, no, blk = (n1, n2, blk) if factor == 1 else (n2, n1, blk.T)
        if nf == 0:
            continue
        target, weight = lower_maps(len(modes), nf)
        p, i = np.nonzero(target >= 0)
        # each lowered entry has one source per mode
        lowered = _factor_merge(d, sp.first, factor, nf - 1, no)[target[p, i]]
        out.levels[n1 + n2 - 1][lowered, modes[i, None]] = weight[p, i, None] * blk[p]
    return out


def split_divergence(phi: MarkedFock, first) -> tuple[FockVector, float]:
    """Raise each mark inside its own factor of the partition, merged back.

    Equals `divergence` of the same marked vector, bit for bit: marks are
    added in ascending order, as there. Exercised as the independent route
    for the split identity checks.
    """
    d, M = phi.d, phi.truncation
    first, second = _validate_partition(d, first)
    out = FockVector.zero(d, M)
    spill = np.zeros(level_dim(d, M + 1), dtype=np.complex128)
    for n in range(M + 1):
        dest = out.levels[n + 1] if n < M else spill
        for mark in range(d):
            factor, modes = (1, first) if mark in first else (2, second)
            local = modes.index(mark)
            for nf in range(n + 1):
                # raising inside a factor is one-to-one, so += adds every term
                src = phi.levels[n][_factor_merge(d, first, factor, nf, n - nf), mark]
                raised = _factor_merge(d, first, factor, nf + 1, n - nf)
                target, weight = raise_maps(len(modes), nf)
                dest[raised[target[:, local]]] += weight[:, local, None] * src
    return out, float(np.linalg.norm(spill))


# ---------------------------------------------------------------------------
# abstract Ito-Skorohod identity on marked vectors


def marked_lower(phi: MarkedFock) -> list[np.ndarray]:
    """Lower the symmetric part of each marked level.

    Output[n] has shape (dim_n, d, d); axis 1 is the new mark from lowering,
    axis 2 the original mark. The output levels are views of one buffer.
    """
    return _lower(phi)


def marked_exchange(doubled: list[np.ndarray]) -> list[np.ndarray]:
    """Swap the two marks (the exchange map on the double-marked levels)."""
    return [np.swapaxes(a, 1, 2) for a in doubled]


@dataclass
class SkorohodIdentity:
    lhs: complex
    rhs: complex
    base_term: complex
    exchange_term: complex
    div_norms: tuple[float, float]
    graph_norms: tuple[float, float]


def ito_skorohod(phi1: MarkedFock, phi2: MarkedFock) -> SkorohodIdentity:
    """Both sides of the abstract Skorohod-isometry identity.

    lhs = <div phi1, div phi2>; rhs = <phi1, phi2> + <exchange(lowered phi1),
    lowered phi2>. Inputs must be truncation safe (zero top marked level) so
    no mass is dropped by the divergences.
    """
    phi1._check_compatible(phi2)
    for phi in (phi1, phi2):
        if np.any(phi.levels[phi.truncation]):
            raise ValueError(
                "ito_skorohod requires truncation-safe inputs (zero top marked level)"
            )
    d1, drop1 = divergence(phi1)
    d2, drop2 = divergence(phi2)
    assert drop1 == 0.0 and drop2 == 0.0
    lhs = d1.inner(d2)
    base = phi1.inner(phi2)
    low1 = marked_lower(phi1)
    low2 = marked_lower(phi2)
    exchange = complex(sum(np.vdot(a, b) for a, b in zip(marked_exchange(low1), low2)))
    # graph norms ||phi||^2 + ||(lowering (x) id) phi||^2, read before the exchange
    g1, g2 = (
        np.sqrt(phi.norm_sq() + float(sum(np.vdot(a, a).real for a in low)))
        for phi, low in ((phi1, low1), (phi2, low2))
    )
    return SkorohodIdentity(
        lhs=lhs,
        rhs=base + exchange,
        base_term=base,
        exchange_term=exchange,
        div_norms=(d1.norm(), d2.norm()),
        graph_norms=(float(g1), float(g2)),
    )
