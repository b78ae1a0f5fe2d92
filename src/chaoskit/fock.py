"""Truncated symmetric Fock space over a d-mode one-particle space.

Levels 0..M are stored in occupation coordinates (see `indices`). The
coordinate convention is the tensor normalization: `tensor_power(f, n)` has
squared norm ||f||^(2n) and <tensor_power(f, n), tensor_power(g, n)> equals
<f, g>^n. Factorial-normalized symmetric powers, common in combinatorial
treatments, relate by sym_power(f, n) = sqrt(n!) * tensor_power(f, n); with
that dictionary the lowering map sends sym_power(f, n) to
n * sym_power(f, n-1) (x) f while in the coordinates used here it sends
tensor_power(f, n) to sqrt(n) * tensor_power(f, n-1) (x) f.

One-particle inner products are conjugate linear in the left argument, as is
every inner product in this package.

Values are dataclasses on the `Graded` base, which the chaos expansions of
`chaos` share: levels 0..M of fixed shapes, validated and cast to complex on
construction, with `zero`, `copy`, linear arithmetic and the plain pairing.
Treat them as immutable (operations always allocate fresh output). A value
may record its generator in `source` (for a Fock vector, the exponential
combination it truncates); the record follows `+`, `-` and scalar `*` when
every operand carries one and is dropped otherwise. Level-raising operations
cannot write above the truncation roof: the would-be top content is dropped
and its norm is returned to the caller, never silently discarded.
"""
from __future__ import annotations

import math

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Any

import numpy as np

from .indices import (
    check_level,
    factorial_ratio_sqrt,
    level_dim,
    lower_maps,
    occ_array,
    raise_maps,
)

__all__ = [
    "SymTensor",
    "FockVector",
    "MarkedFock",
    "SplitFock",
    "SkorohodIdentity",
    "as_mode_vector",
    "mode_inner",
    "tensor_power",
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
    "second_quantize",
    "conservation",
    "split",
    "merge",
    "split_gradient",
    "split_divergence",
    "marked_lower",
    "marked_exchange",
    "marked_graph_norm_sq",
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


def mode_inner(f, g) -> complex:
    """One-particle inner product, conjugate linear on the left."""
    fa = as_mode_vector(f)
    ga = as_mode_vector(g, fa.shape[0])
    return complex(np.vdot(fa, ga))


@dataclass(eq=False)
class SymTensor:
    """One symmetric level: degree-n coefficients in occupation order."""

    d: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        dim = check_level(self.d, self.degree)
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (dim,):
            raise ValueError(
                f"level (d={self.d}, n={self.degree}) expects {dim} coefficients, "
                f"got shape {self.coeffs.shape}"
            )

    def inner(self, other: "SymTensor") -> complex:
        if (self.d, self.degree) != (other.d, other.degree):
            raise ValueError("level mismatch in SymTensor.inner")
        return complex(np.vdot(self.coeffs, other.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


class Graded:
    """Levels 0..truncation of one graded value, over a one-particle space.

    Subclasses are dataclasses whose fields start with the space (named by
    `_SPACE`), `truncation` and the level list (named by `_LEVELS`); level n
    is a complex array of shape `_shape(space, n)`. This base validates and
    casts the levels and supplies `zero`, `copy`, the linear arithmetic and
    the plain coefficient pairing. A level given as None starts at zero.

    Source rule: a value may record how it was generated in `source`. The
    record follows `+`, `-` and scalar `*` when every operand carries one and
    becomes None otherwise; `copy` keeps it.
    """

    _SPACE = "d"
    _LEVELS = "levels"
    source = None

    @staticmethod
    def _shape(space, n: int) -> tuple[int, ...]:
        raise NotImplementedError

    @staticmethod
    def _same_space(a, b) -> bool:
        return a == b

    def _scaled_source(self, z: complex):
        return z * self.source

    def __post_init__(self):
        space, M = getattr(self, self._SPACE), self.truncation
        levels = getattr(self, self._LEVELS)
        if M < 0:
            raise ValueError("truncation must be >= 0")
        if len(levels) != M + 1:
            raise ValueError(f"expected {M + 1} levels, got {len(levels)}")
        shape_of = self._shape
        casted = []
        for n, lev in enumerate(levels):
            shape = shape_of(space, n)
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


@dataclass(eq=False)
class FockVector(Graded):
    """Truncated Fock vector: levels[n] holds the degree-n coefficients.

    source, when present, is the `ExpCombo` the vector truncates.
    """

    d: int
    truncation: int
    levels: list[np.ndarray]
    source: Any = field(default=None, repr=False)

    @staticmethod
    def _shape(d: int, n: int) -> tuple[int, ...]:
        return (check_level(d, n),)

    @classmethod
    def vacuum(cls, d: int, truncation: int) -> "FockVector":
        out = cls.zero(d, truncation)
        out.levels[0][0] = 1.0
        return out


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
    """Real and imaginary parts of table[k, i] = f_i ** k for k = 0..n.

    The powers come from the same ufunc as fa ** occ; each part is a
    C-contiguous (n + 1, d) array, so its flat index is k * d + i.
    """
    table = (fa[:, None] ** np.arange(n + 1)).T
    return np.ascontiguousarray(table.real), np.ascontiguousarray(table.imag)


@lru_cache(maxsize=None)
def _flat_index(d: int, n: int) -> np.ndarray:
    """index[i, p] = alpha_i * d + i for the level-n vector alpha at position p."""
    out = np.ascontiguousarray((occ_array(d, n) * d + np.arange(d)).T)
    out.setflags(write=False)
    return out


def _tensor_coeffs(table: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """sqrt(n!/alpha!) * prod_i f_i ** alpha_i over the level-n enumeration.

    The product is a left fold over the modes on separate real and imaginary
    arrays, (ar*br - ai*bi, ar*bi + ai*br) per step. That is the scalar
    complex multiply of np.prod's reduction, so the powers equal
    np.prod(table[arange(d), occ], axis=1) bit for bit, signed zeros
    included; numpy's vectorized complex `*` differs in the last bit on most
    rows.
    """
    re_table, im_table = (part.ravel() for part in table)
    d = table[0].shape[1]
    index = _flat_index(d, n)
    re, im = re_table[index[0]], im_table[index[0]]
    for i in range(1, d):
        br, bi = re_table[index[i]], im_table[index[i]]
        re, im = re * br - im * bi, re * bi + im * br
    powers = np.empty(re.shape, dtype=np.complex128)
    powers.real, powers.imag = re, im
    return factorial_ratio_sqrt(d, n) * powers


def tensor_power(f, n: int) -> SymTensor:
    """n-fold tensor power of f, so <tensor_power(f,n), tensor_power(g,n)> = <f,g>^n."""
    fa = as_mode_vector(f)
    if n < 0:
        raise ValueError("tensor power degree must be >= 0")
    return SymTensor(fa.shape[0], n, _tensor_coeffs(_power_table(fa, n), n))


def exp_vector(f, truncation: int) -> FockVector:
    """Truncated exponential vector: level n is tensor_power(f, n)/sqrt(n!).

    The result records its generating combination so exponential-only maps
    (exp_shift, pair maps) can act on it exactly. The discarded tail has
    squared norm sum_{n>M} ||f||^(2n)/n!, reported by exp_tail_bound.
    """
    from .exponential import ExpCombo  # local import to avoid a cycle

    fa = as_mode_vector(f)
    d = fa.shape[0]
    table = _power_table(fa, truncation)
    levels = [
        _tensor_coeffs(table, n) / math.sqrt(factorial(n)) for n in range(truncation + 1)
    ]
    return FockVector(d, truncation, levels, source=ExpCombo(d, [(1.0 + 0j, fa)]))


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


def annihilate(f, psi: FockVector) -> FockVector:
    """Pointwise annihilation a(f): maps level n to level n-1.

    On occupation states: a(f)|alpha> = sum_i conj(f_i) sqrt(alpha_i)
    |alpha - e_i>. The top output level M is zero (its preimage lies above
    the truncation roof).
    """
    fa = as_mode_vector(f, psi.d)
    d, M = psi.d, psi.truncation
    out = FockVector.zero(d, M)
    for n in range(1, M + 1):
        target, weight = raise_maps(d, n - 1)
        src = psi.levels[n]
        dst = out.levels[n - 1]
        for i in range(d):
            dst += np.conj(fa[i]) * weight[:, i] * src[target[:, i]]
    return out


def create(f, psi: FockVector) -> tuple[FockVector, float]:
    """Pointwise creation a*(f): maps level n to level n+1.

    On occupation states: a*(f)|alpha> = sum_i f_i sqrt(alpha_i + 1)
    |alpha + e_i>. Content pushed above the truncation roof is dropped;
    returns (vector, dropped_mass) with dropped_mass the norm of that content.
    """
    fa = as_mode_vector(f, psi.d)
    d, M = psi.d, psi.truncation
    out = FockVector.zero(d, M)
    for n in range(M):
        target, weight = raise_maps(d, n)
        src = psi.levels[n]
        dst = out.levels[n + 1]
        for i in range(d):
            dst[target[:, i]] += fa[i] * weight[:, i] * src
    # would-be level M+1 from the current top level
    target, weight = raise_maps(d, M)
    spill = np.zeros(level_dim(d, M + 1), dtype=np.complex128)
    src = psi.levels[M]
    for i in range(d):
        spill[target[:, i]] += fa[i] * weight[:, i] * src
    return out, float(np.linalg.norm(spill))


def gradient(psi: FockVector) -> MarkedFock:
    """Universal lowering map: |alpha> -> sum_i sqrt(alpha_i) |alpha - e_i> (x) slot_i.

    Sends tensor_power(f, n) to sqrt(n) tensor_power(f, n-1) (x) f. The output
    keeps the input truncation; its top marked level is zero.
    """
    d, M = psi.d, psi.truncation
    out = MarkedFock.zero(d, M)
    for n in range(1, M + 1):
        target, weight = raise_maps(d, n - 1)
        out.levels[n - 1][:] = weight * psi.levels[n][target]
    return out


def divergence(phi: MarkedFock) -> tuple[FockVector, float]:
    """Adjoint of `gradient`: (|beta> (x) slot_j) -> sqrt(beta_j + 1) |beta + e_j>.

    Returns (vector, dropped_mass); dropped_mass is the norm of the content the
    top marked level would have produced above the truncation roof.
    """
    d, M = phi.d, phi.truncation
    out = FockVector.zero(d, M)
    for n in range(M):
        target, weight = raise_maps(d, n)
        src = phi.levels[n]
        dst = out.levels[n + 1]
        for j in range(d):
            dst[target[:, j]] += weight[:, j] * src[:, j]
    target, weight = raise_maps(d, M)
    spill = np.zeros(level_dim(d, M + 1), dtype=np.complex128)
    src = phi.levels[M]
    for j in range(d):
        spill[target[:, j]] += weight[:, j] * src[:, j]
    return out, float(np.linalg.norm(spill))


def number_apply(psi: FockVector) -> FockVector:
    """Number operator: multiplies level n by n."""
    return psi._map_levels(lambda n, lev: n * lev)


def number_semigroup(psi: FockVector, t: float) -> FockVector:
    """Heat semigroup of the number operator: level n scales by exp(-t n)."""
    if t < 0:
        raise ValueError("semigroup time must be >= 0")
    return psi._map_levels(lambda n, lev: np.exp(-t * n) * lev)


def sobolev_scale(psi: FockVector) -> FockVector:
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


def _operator_norm(T: np.ndarray) -> float:
    return float(np.linalg.svd(T, compute_uv=False)[0])


def _apply_linear_form(vec: np.ndarray, ell: np.ndarray, d: int, k: int) -> np.ndarray:
    # multiply a degree-k monomial coefficient array by the linear form ell . z
    target, _ = raise_maps(d, k)
    out = np.zeros(level_dim(d, k + 1), dtype=np.complex128)
    for j in range(d):
        if ell[j] != 0:
            out[target[:, j]] += ell[j] * vec
    return out


def second_quantize(T, psi: FockVector) -> FockVector:
    """Functor of a one-particle contraction T: acts as T on every slot.

    Sends tensor_power(f, n) to tensor_power(Tf, n) and exp_vector(f, M) to
    exp_vector(Tf, M) level by level. Requires the largest singular value of T
    to be <= 1.
    """
    Tm = np.asarray(T, dtype=np.complex128)
    d, M = psi.d, psi.truncation
    if Tm.shape != (d, d):
        raise ValueError(f"operator shape {Tm.shape} does not match d={d}")
    if _operator_norm(Tm) > 1.0 + 1e-10:
        raise ValueError("second quantization requires a contraction (||T|| <= 1)")
    out = [psi.levels[0].copy()]
    # occupation state alpha corresponds to the monomial z^alpha / sqrt(alpha!);
    # applying T to every slot substitutes each z_i by the form (T^t z)_i
    rows = [Tm[:, i] for i in range(d)]  # row i of T^t
    for n in range(1, M + 1):
        occ = occ_array(d, n)
        ratio = factorial_ratio_sqrt(d, n)  # sqrt(n!/alpha!)
        fac_sqrt = math.sqrt(factorial(n)) / ratio  # sqrt(alpha!)
        mono = psi.levels[n] / fac_sqrt
        acc = np.zeros(level_dim(d, n), dtype=np.complex128)
        for p in range(occ.shape[0]):
            coeff = mono[p]
            if coeff == 0:
                continue
            vec = np.ones(1, dtype=np.complex128)
            k = 0
            for i in range(d):
                for _ in range(int(occ[p, i])):
                    vec = _apply_linear_form(vec, rows[i], d, k)
                    k += 1
            acc += coeff * vec
        out.append(acc * fac_sqrt)
    return FockVector(d, M, out)


def conservation(A, psi: FockVector) -> FockVector:
    """Quadratic (level-preserving) lift of a self-adjoint one-particle A.

    Acts as sum_{ij} A_ij a*_i a_j on each level; with A = I this is the
    number operator. The derivative of the second quantization of exp(itA)
    at t = 0 is i times this map.
    """
    Am = np.asarray(A, dtype=np.complex128)
    d, M = psi.d, psi.truncation
    if Am.shape != (d, d):
        raise ValueError(f"operator shape {Am.shape} does not match d={d}")
    scale = max(float(np.max(np.abs(Am))), 1.0)
    if float(np.max(np.abs(Am - Am.conj().T))) > 1e-12 * scale:
        raise ValueError("conservation requires a self-adjoint operator")
    out = [psi.levels[0] * 0.0]
    for n in range(1, M + 1):
        occ = occ_array(d, n)
        low_t, low_w = lower_maps(d, n)
        up_t, _ = raise_maps(d, n - 1)
        src = psi.levels[n]
        dst = np.zeros_like(src)
        for j in range(d):
            valid = low_t[:, j] >= 0
            if not np.any(valid):
                continue
            mid = low_t[valid, j]
            amp = low_w[valid, j] * src[valid]
            for i in range(d):
                w_up = np.sqrt(occ[valid, i] + 1.0 - (1.0 if i == j else 0.0))
                dst[up_t[mid, i]] += Am[i, j] * w_up * amp
        out.append(dst)
    return FockVector(d, M, out)


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


@lru_cache(maxsize=None)
def _split_positions(d: int, n: int, first: tuple[int, ...]):
    """For each level-n position: (n1, pos1, pos2) under the partition."""
    from .indices import position

    second = tuple(i for i in range(d) if i not in set(first))
    occ = occ_array(d, n)
    n1 = occ[:, list(first)].sum(axis=1)
    pos1 = np.empty(occ.shape[0], dtype=np.int64)
    pos2 = np.empty(occ.shape[0], dtype=np.int64)
    for p in range(occ.shape[0]):
        a1 = tuple(int(x) for x in occ[p, list(first)])
        a2 = tuple(int(x) for x in occ[p, list(second)])
        pos1[p] = position(a1)
        pos2[p] = position(a2)
    n1.setflags(write=False)
    pos1.setflags(write=False)
    pos2.setflags(write=False)
    return n1, pos1, pos2


def split(psi: FockVector, first) -> SplitFock:
    """Rearrange a Fock vector over the product of the two mode groups.

    Unitary: squared block norms sum to ||psi||^2. Exponential vectors split
    into products of exponential vectors of the restricted directions.
    """
    d, M = psi.d, psi.truncation
    first, second = _validate_partition(d, first)
    d1, d2 = len(first), len(second)
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for n in range(M + 1):
        n1s, pos1, pos2 = _split_positions(d, n, first)
        src = psi.levels[n]
        for n1 in range(n + 1):
            blk = blocks.setdefault(
                (n1, n - n1),
                np.zeros((level_dim(d1, n1), level_dim(d2, n - n1)), dtype=np.complex128),
            )
            sel = n1s == n1
            blk[pos1[sel], pos2[sel]] = src[sel]
    return SplitFock(d, first, second, M, blocks)


def merge(sp: SplitFock) -> FockVector:
    """Inverse of `split`."""
    d, M = sp.d, sp.truncation
    out = FockVector.zero(d, M)
    for n in range(M + 1):
        n1s, pos1, pos2 = _split_positions(d, n, sp.first)
        dst = out.levels[n]
        for n1 in range(n + 1):
            blk = sp.blocks[(n1, n - n1)]
            sel = n1s == n1
            dst[sel] = blk[pos1[sel], pos2[sel]]
    return out


@lru_cache(maxsize=None)
def _merge_positions(d: int, first: tuple[int, ...], n1: int, n2: int) -> np.ndarray:
    """Global level-(n1+n2) positions of merged (alpha1, alpha2) pairs."""
    from .indices import occupations, position

    second = tuple(i for i in range(d) if i not in set(first))
    occ1 = occupations(len(first), n1)
    occ2 = occupations(len(second), n2)
    out = np.empty((len(occ1), len(occ2)), dtype=np.int64)
    for p1, a1 in enumerate(occ1):
        for p2, a2 in enumerate(occ2):
            full = [0] * d
            for i, a in zip(first, a1):
                full[i] = a
            for i, a in zip(second, a2):
                full[i] = a
            out[p1, p2] = position(tuple(full))
    out.setflags(write=False)
    return out


def split_gradient(sp: SplitFock, factor: int) -> MarkedFock:
    """Lowering applied inside one factor of a split vector, merged back.

    The output marks live on the chosen factor's modes only; summing the two
    factors reproduces `gradient` of the merged vector.
    """
    if factor not in (1, 2):
        raise ValueError("factor must be 1 or 2")
    d, M = sp.d, sp.truncation
    modes = sp.first if factor == 1 else sp.second
    df = len(modes)
    out = MarkedFock.zero(d, M)
    for (n1, n2), blk in sp.blocks.items():
        nf = n1 if factor == 1 else n2
        if nf == 0 or n1 + n2 == 0:
            continue
        target, weight = lower_maps(df, nf)
        for i_local in range(df):
            valid = target[:, i_local] >= 0
            if not np.any(valid):
                continue
            if factor == 1:
                mpos = _merge_positions(d, sp.first, n1 - 1, n2)
                lowered = mpos[target[valid, i_local], :]
                vals = weight[valid, i_local, None] * blk[valid, :]
            else:
                mpos = _merge_positions(d, sp.first, n1, n2 - 1)
                lowered = mpos[:, target[valid, i_local]]
                vals = weight[None, valid, i_local] * blk[:, valid]
            dst = out.levels[n1 + n2 - 1]
            np.add.at(dst[:, modes[i_local]], lowered.ravel(), vals.ravel())
    return out


def split_divergence(phi: MarkedFock, first) -> tuple[FockVector, float]:
    """Raise each mark inside its own factor of the partition, merged back.

    Equals `divergence` of the same marked vector; exercised as the
    independent route for the split identity checks.
    """
    d, M = phi.d, phi.truncation
    first, second = _validate_partition(d, first)
    local_index = {}
    for k, i in enumerate(first):
        local_index[i] = (1, k)
    for k, i in enumerate(second):
        local_index[i] = (2, k)
    out = FockVector.zero(d, M)
    spill = np.zeros(level_dim(d, M + 1), dtype=np.complex128)
    for n in range(M + 1):
        n1s, pos1, pos2 = _split_positions(d, n, first)
        src = phi.levels[n]
        for mark in range(d):
            col = src[:, mark]
            if not np.any(col):
                continue
            factor, local = local_index[mark]
            for n1 in range(n + 1):
                sel = n1s == n1
                if not np.any(sel):
                    continue
                vals = col[sel]
                nz = vals != 0
                if not np.any(nz):
                    continue
                p1 = pos1[sel][nz]
                p2 = pos2[sel][nz]
                v = vals[nz]
                if factor == 1:
                    t, w = raise_maps(len(first), n1)
                    new_p1 = t[p1, local]
                    amp = w[p1, local] * v
                    if n + 1 <= M:
                        mpos = _merge_positions(d, first, n1 + 1, n - n1)
                        np.add.at(out.levels[n + 1], mpos[new_p1, p2], amp)
                    else:
                        mpos = _merge_positions(d, first, n1 + 1, n - n1)
                        np.add.at(spill, mpos[new_p1, p2], amp)
                else:
                    t, w = raise_maps(len(second), n - n1)
                    new_p2 = t[p2, local]
                    amp = w[p2, local] * v
                    if n + 1 <= M:
                        mpos = _merge_positions(d, first, n1, n - n1 + 1)
                        np.add.at(out.levels[n + 1], mpos[p1, new_p2], amp)
                    else:
                        mpos = _merge_positions(d, first, n1, n - n1 + 1)
                        np.add.at(spill, mpos[p1, new_p2], amp)
    return out, float(np.linalg.norm(spill))


# ---------------------------------------------------------------------------
# abstract Ito-Skorohod identity on marked vectors


def marked_lower(phi: MarkedFock) -> list[np.ndarray]:
    """Lower the symmetric part of each marked level.

    Output[n] has shape (dim_n, d, d); axis 1 is the new mark from lowering,
    axis 2 the original mark.
    """
    out = []
    for n in range(1, phi.truncation + 1):
        target, weight = raise_maps(phi.d, n - 1)
        out.append(weight[:, :, None] * phi.levels[n][target])
    return out


def marked_exchange(doubled: list[np.ndarray]) -> list[np.ndarray]:
    """Swap the two marks (the exchange map on the double-marked levels)."""
    return [np.swapaxes(a, 1, 2) for a in doubled]


def marked_graph_norm_sq(phi: MarkedFock) -> float:
    """||phi||^2 + ||(lowering (x) id) phi||^2."""
    doubled = marked_lower(phi)
    return phi.norm_sq() + float(sum(np.vdot(a, a).real for a in doubled))


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
    low1 = marked_exchange(marked_lower(phi1))
    low2 = marked_lower(phi2)
    exchange = complex(sum(np.vdot(a, b) for a, b in zip(low1, low2)))
    g1 = np.sqrt(marked_graph_norm_sq(phi1))
    g2 = np.sqrt(marked_graph_norm_sq(phi2))
    return SkorohodIdentity(
        lhs=lhs,
        rhs=base + exchange,
        base_term=base,
        exchange_term=exchange,
        div_norms=(d1.norm(), d2.norm()),
        graph_norms=(float(g1), float(g2)),
    )
