"""Chaos expansions over the simulation cells, and their Fock dictionary.

A square-integrable functional of the simulated noise is held as its list of
symmetric kernels, one per order, in occupation coordinates over the grid's
retained cells: kernels[n][p] is the kernel value on any argument tuple whose
cell multiset is the occupation at position p. All L2 pairings carry the cell
masses, so the stored objects are discretizations of the continuum kernels,
not abstract coefficient arrays.

`embed_chaos` transfers an expansion to the truncated Fock space over one
mode per cell; the transfer is an isometry for the E|F|^2 norm, sends the
stochastic exponential's kernels to an exponential vector, and intertwines
gradient with the universal lowering map and divergence with the raising map
coefficient for coefficient. That gives every identity here two independent
routes: a kernel-level sum in this module and a ladder-operator computation
in `fock` on the embedded values. The kernel route's divergence averages the
mark into the closed arguments of every marked order of a process at once,
in one `np.bincount` per real and imaginary part over the mark-major plan of
`fock.divergence`, with its own weights and the bits of a per-cell loop. The
routes are separate calls; for the Skorohod isometry they are
`ito_skorohod_chaos` here and `fock.ito_skorohod` on `embed_marked` of
processes with a zero top marked order. Pathwise, the same expansions are
evaluated by the engines in `integrals`, either through recorded power-term
structure or through the per-cell product decomposition of multiple
integrals.
"""
from __future__ import annotations

import functools
import json
import os
import warnings
import weakref
from dataclasses import dataclass
from hashlib import sha256
from math import factorial
from typing import NamedTuple

import numpy as np

from .fock import FockVector, Graded, MarkedFock
from .fock import _divergence_plan, _raise_stack, _weighted_scatter
# on chaos expansions the number semigroup is the Ornstein-Uhlenbeck semigroup
from .fock import number_apply, sobolev_scale
from .fock import number_semigroup as ou_semigroup
from .fock import split as fock_split
from .indices import (
    _freeze,
    _table_cache,
    check_level,
    level_dim,
    multiplicities,
    occ_array,
    position,
    raise_maps,
    factorial_ratio_sqrt,
)
from .integrals import power_integrals
from .levy import CellGrid, PathEnsemble, StepField

__all__ = [
    "ChaosCoefficients",
    "MarkedChaos",
    "kernel_inner",
    "embed_chaos",
    "embed_marked",
    "gradient",
    "divergence",
    "number_apply",
    "number_factorization_residual",
    "dom_gradient_functional",
    "dom_divergence_functional",
    "ou_semigroup",
    "sobolev_scale",
    "ChaosSkorohod",
    "ito_skorohod_chaos",
    "BNSplit",
    "bn_split",
    "chaos_evaluate",
    "project_mc",
    "save_chaos",
    "load_chaos",
]


def _per_grid(build):
    """Memoize the read-only table build(grid, n) per grid instance and order.

    A grid's cell masses are read-only, so an entry cannot go stale; the
    entries go with their grid.
    """
    tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def cached(grid: CellGrid, n: int) -> np.ndarray:
        per_order = tables.setdefault(grid, {})
        if n not in per_order:
            per_order[n] = _freeze(build(grid, n))
        return per_order[n]

    return cached


@_per_grid
def _mass_weights(grid: CellGrid, n: int) -> np.ndarray:
    """Product of cell masses over each occupation, mu^alpha."""
    if n == 0:
        return np.ones(1)
    return np.exp(occ_array(grid.n_cells, n) @ np.log(grid.cell_masses))


@_per_grid
def _pair_weights(grid: CellGrid, n: int) -> np.ndarray:
    """Weights of the order-n L2(mu^n) pairing: multiplicity times mu^alpha."""
    return multiplicities(grid.n_cells, n) * _mass_weights(grid, n)


def kernel_inner(grid: CellGrid, n: int, f: np.ndarray, g: np.ndarray) -> complex:
    """L2(mu^n) pairing of symmetric order-n kernels, conjugate on the left."""
    return complex(np.sum(np.conj(f) * g * _pair_weights(grid, n)))


class _OnGrid(Graded):
    """Graded value over a grid's retained cells, one kernel per order."""

    _SPACE = "grid"
    _LEVELS = "kernels"

    @staticmethod
    def _size(grid: CellGrid) -> int:
        return grid.n_cells

    @staticmethod
    def _same_space(a: CellGrid, b: CellGrid) -> bool:
        return a.same_as(b)


@dataclass(eq=False)
class ChaosCoefficients(_OnGrid):
    """Truncated chaos expansion sum_n I_n(kernels[n]).

    source, when present, records the expansion as power terms
    (coeff, field, degree) meaning coeff * I_degree(field tensor power); the
    kernels stay authoritative, the terms only let `chaos_evaluate` use the
    exact generating-series engine instead of the dense product route.
    """

    grid: CellGrid
    truncation: int
    kernels: list[np.ndarray]
    source: list | None = None

    @staticmethod
    def _shape(c: int, n: int) -> tuple[int, ...]:
        return (check_level(c, n),)

    def _scaled_source(self, z: complex) -> list:
        return [(z * c, f, n) for c, f, n in self.source]

    @classmethod
    def from_power(
        cls, field: StepField, degree: int, truncation: int, coeff=1.0
    ) -> "ChaosCoefficients":
        """coeff * I_degree of the tensor power of one field."""
        if not 0 <= degree <= truncation:
            raise ValueError("degree must lie within the truncation")
        out = cls.zero(field.grid, truncation)
        c = field.grid.n_cells
        vals = field.cell_values()
        occ = occ_array(c, degree)
        prod = np.full(occ.shape[0], complex(coeff), dtype=np.complex128)
        for i in range(c):
            hot = occ[:, i] > 0
            if np.any(hot):
                prod[hot] *= vals[i] ** occ[hot, i]
        out.kernels[degree][:] = prod
        out.source = [(complex(coeff), field if degree else None, degree)]
        return out

    @classmethod
    def doleans(cls, field: StepField, truncation: int) -> "ChaosCoefficients":
        """Chaos kernels of the stochastic exponential, field^n / n! per order."""
        out = cls.zero(field.grid, truncation)
        out.source = []
        for n in range(truncation + 1):
            term = cls.from_power(field, n, truncation, 1.0 / factorial(n))
            out.kernels[n][:] = term.kernels[n]
            out.source.extend(term.source)
        return out

    def inner(self, other: "ChaosCoefficients") -> complex:
        """E[conj(self) * other] under the chaos isometry."""
        self._check_compatible(other)
        total = 0.0 + 0.0j
        for n, (f, g) in enumerate(zip(self.kernels, other.kernels)):
            total += factorial(n) * kernel_inner(self.grid, n, f, g)
        return complex(total)

    def level_norm_sq(self, n: int) -> float:
        return float(
            (factorial(n) * kernel_inner(self.grid, n, self.kernels[n], self.kernels[n])).real
        )


@dataclass(eq=False)
class MarkedChaos(_OnGrid):
    """Cell-indexed process with chaos kernels per mark.

    kernels[n] has shape (dim_n, n_cells); column s holds the order-n kernel
    of the process value at cell s. Symmetry in the n closed arguments is
    automatic in occupation storage; no symmetry ties them to the mark.
    """

    grid: CellGrid
    truncation: int
    kernels: list[np.ndarray]

    @staticmethod
    def _shape(c: int, n: int) -> tuple[int, ...]:
        return (check_level(c, n), c)

    def inner(self, other: "MarkedChaos") -> complex:
        """L2(mu; chaos) pairing: sum over cells of mass times section pairings."""
        self._check_compatible(other)
        grid = self.grid
        total = 0.0 + 0.0j
        for n, (g, h) in enumerate(zip(self.kernels, other.kernels)):
            total += factorial(n) * np.einsum(
                "a,s,as,as->", _pair_weights(grid, n), grid.cell_masses, np.conj(g), h
            )
        return complex(total)


def gradient(F: ChaosCoefficients) -> MarkedChaos:
    """Malliavin derivative: order-n kernel at mark s is (n+1) f_{n+1}(., s).

    The top marked order is zero, mirroring the truncation roof.
    """
    grid, M = F.grid, F.truncation
    c = grid.n_cells
    out = MarkedChaos.zero(grid, M)
    for m in range(M):
        up_t = raise_maps(c, m)[0]
        out.kernels[m][:] = (m + 1) * F.kernels[m + 1][up_t]
    return out


@_table_cache
def _symmetrize_scale(c: int, truncation: int) -> np.ndarray:
    """1 / (m + 1) over order m + 1 of the stack of orders 1..truncation + 1."""
    sizes = [level_dim(c, m + 1) for m in range(truncation + 1)]
    return np.repeat([1.0 / (m + 1) for m in range(truncation + 1)], sizes)


def _symmetrize(grid: CellGrid, kernels: list[np.ndarray]) -> list[np.ndarray]:
    """Average the mark into the closed arguments: order m -> order m + 1.

    All marked orders go through one scatter over `fock._divergence_plan`,
    weighted by the counts alpha_s + 1, and the returned orders are views of
    one buffer. The division by m + 1 keeps the bits of numpy's complex
    division by a real: (zr + zi 0, zi - zr 0) times 1 / (m + 1).
    """
    c, M = grid.n_cells, len(kernels) - 1
    source, target, _, count = _divergence_plan(c, M)
    cols = _raise_stack(c, M).cols
    terms = np.concatenate(kernels).ravel()[source]
    summed = _weighted_scatter(target, count, terms, cols[-1])
    re, im = summed.real, summed.imag
    scale = _symmetrize_scale(c, M)
    out = np.empty_like(summed)
    out.real = (re + im * 0.0) * scale
    out.imag = (im - re * 0.0) * scale
    return [out[cols[m] : cols[m + 1]] for m in range(M + 1)]


def _symmetrized_pairing(grid: CellGrid, m: int, tu: np.ndarray, tv: np.ndarray):
    """(m + 1)! <tu, tv>: marked order m's share of E[conj(delta u) delta v].

    A self pairing (tv is tu) is a mass, returned as its real part.
    """
    inner = kernel_inner(grid, m + 1, tu, tv)
    return factorial(m + 1) * (inner.real if tv is tu else inner)


def divergence(u: MarkedChaos) -> tuple[ChaosCoefficients, float]:
    """Skorohod integral: symmetrized kernels one order up.

    Returns (expansion, dropped): dropped is the norm of the order that would
    land above the truncation roof.
    """
    grid, M = u.grid, u.truncation
    tilde = _symmetrize(grid, u.kernels)
    out = ChaosCoefficients(grid, M, [None] + tilde[:M])
    # the top order's symmetrized kernel lands above the roof
    mass = _symmetrized_pairing(grid, M, tilde[M], tilde[M])
    return out, float(np.sqrt(max(mass, 0.0)))


def number_factorization_residual(F: ChaosCoefficients) -> float:
    """Norm of divergence(gradient(F)) minus the number operator on F.

    Zero in exact arithmetic: the gradient's top marked order vanishes, so
    the composition never spills over the truncation roof.
    """
    composed, dropped = divergence(gradient(F))
    return float(np.hypot((composed - number_apply(F)).norm(), dropped))


def dom_gradient_functional(F: ChaosCoefficients) -> float:
    """Squared graph seminorm of the derivative: sum of n n! ||f_n||^2."""
    total = 0.0
    for n in range(1, F.truncation + 1):
        total += n * F.level_norm_sq(n)
    return float(total)


def dom_divergence_functional(u: MarkedChaos) -> float:
    """Divergence-domain functional: sum of (n+1)! ||symmetrized kernel||^2.

    Monotone under raising the truncation with the lower kernels fixed.
    """
    total = 0.0
    for m, tilde in enumerate(_symmetrize(u.grid, u.kernels)):
        total += _symmetrized_pairing(u.grid, m, tilde, tilde)
    return float(total)


# ---------------------------------------------------------------------------
# Fock dictionary


@_per_grid
def _embed_scale(grid: CellGrid, n: int) -> np.ndarray:
    c = grid.n_cells
    return (
        np.sqrt(float(factorial(n)))
        * factorial_ratio_sqrt(c, n)
        * np.sqrt(_mass_weights(grid, n))
    )


def embed_chaos(F: ChaosCoefficients) -> FockVector:
    """Isometry onto the Fock space with one mode per retained cell.

    The stochastic exponential's kernels land exactly on the exponential
    vector of the embedded field, and E[conj(F) G] becomes the Fock pairing.
    """
    grid, M = F.grid, F.truncation
    levels = [
        _embed_scale(grid, n) * F.kernels[n] for n in range(M + 1)
    ]
    return FockVector(grid.n_cells, M, levels)


def embed_marked(u: MarkedChaos) -> MarkedFock:
    """Marked-vector embedding, at the process's own truncation."""
    grid = u.grid
    root_mass = np.sqrt(grid.cell_masses)
    levels = [
        _embed_scale(grid, n)[:, None] * k * root_mass[None, :]
        for n, k in enumerate(u.kernels)
    ]
    return MarkedFock(grid.n_cells, u.truncation, levels)


# ---------------------------------------------------------------------------
# Skorohod isometry, kernel route


@dataclass(frozen=True)
class ChaosSkorohod:
    """Both sides of the Skorohod isometry for a pair of processes.

    lhs: E[conj(delta u) delta v] from the symmetrized kernels, untruncated.
    base: the L2(mu; chaos) pairing of the processes.
    exchange: the mark-exchanged derivative correction.
    """

    lhs: complex
    base: complex
    exchange: complex

    @property
    def rhs(self) -> complex:
        return self.base + self.exchange

    @property
    def defect(self) -> float:
        return abs(self.lhs - self.rhs)


def ito_skorohod_chaos(u: MarkedChaos, v: MarkedChaos) -> ChaosSkorohod:
    """Both sides of the Skorohod isometry by the kernel route only.

    E[conj(delta u) delta v] is summed over the symmetrized kernels of every
    marked order, the top one included, so nothing is truncated. The ladder
    route is the separate call `fock.ito_skorohod` on the embedded processes,
    each lifted by one zero marked order first.
    """
    u._check_compatible(v)
    grid, M = u.grid, u.truncation
    c = grid.n_cells
    masses = grid.cell_masses

    tus = _symmetrize(grid, u.kernels)
    tvs = tus if v is u else _symmetrize(grid, v.kernels)
    lhs = 0.0 + 0.0j
    for m, (tu, tv) in enumerate(zip(tus, tvs)):
        lhs += _symmetrized_pairing(grid, m, tu, tv)
    base = u.inner(v)

    exchange = 0.0 + 0.0j
    for m in range(1, M + 1):
        up_t = raise_maps(c, m - 1)[0]
        A = u.kernels[m][up_t]  # [beta, t, s] = g_m(beta + e_t; s)
        B = v.kernels[m][up_t]  # [beta, s, t] = h_m(beta + e_s; t)
        w = _pair_weights(grid, m - 1)
        exchange += (
            m
            * factorial(m)
            * np.einsum("b,s,t,bts,bst->", w, masses, masses, np.conj(A), B)
        )
    return ChaosSkorohod(complex(lhs), complex(base), complex(exchange))


# ---------------------------------------------------------------------------
# diffusion / jump mode split


@dataclass(frozen=True)
class BNSplit:
    """Block decomposition over the diffusion and jump cells."""

    diffusion_cells: tuple[int, ...]
    jump_cells: tuple[int, ...]
    block_norms: dict[tuple[int, int], float]
    total: float
    degenerate: bool


def bn_split(F: ChaosCoefficients) -> BNSplit:
    """Split E|F|^2 by how many arguments ride the diffusion bin.

    Runs through the Fock mode-partition isomorphism of the embedded vector,
    so the blocks are unitary pieces, not a regrouping heuristic. Grids with
    no diffusion cells or no jump cells degenerate to a single block and warn.
    """
    on_diffusion = F.grid.cell_bin == 0
    diff = tuple(np.flatnonzero(on_diffusion).tolist())
    jump = tuple(np.flatnonzero(~on_diffusion).tolist())
    if not diff or not jump:
        warnings.warn(
            "grid carries only one noise component; split is a single block",
            stacklevel=2,
        )
        blocks = {}
        for n in range(F.truncation + 1):
            key = (n, 0) if jump == () else (0, n)
            blocks[key] = F.level_norm_sq(n)
        return BNSplit(diff, jump, blocks, F.norm_sq(), True)
    sp = fock_split(embed_chaos(F), diff)
    norms = {
        key: float(np.vdot(blk, blk).real) for key, blk in sorted(sp.blocks.items())
    }
    return BNSplit(diff, jump, norms, float(sum(norms.values())), False)


# ---------------------------------------------------------------------------
# pathwise evaluation


def _power_table(ens: PathEnsemble, n_max: int) -> np.ndarray:
    """Per-path compensated cell powers, cell-major (n_cells, n_max + 1, n_paths).

    Row (w, m) is the m-fold integral of cell w's own indicator, one entry
    per path: monic heat Hermite in the Brownian increment on the diffusion
    bin, Charlier-style count polynomials on jump bins. These are the
    building blocks of every multiple integral via the occupation product
    formula. Row (w, m) is contiguous, and the recursions run one cell at a
    time, so their operands stay in cache.
    """
    grid = ens.grid
    sigma = grid.model.sigma
    s = sigma**2 * grid.dt
    nb = ens.n_paths
    table = np.empty((grid.n_cells, n_max + 1, nb))
    table[:, 0] = 1.0
    if n_max == 0:
        return table
    counts = ens.cell_counts() if grid.n_bins > 1 else None
    for w, (k, b) in enumerate(grid.cells):
        t = table[w]
        if b == 0:
            x = sigma * ens.brownian[:, k]
            t[1] = x
            for m in range(2, n_max + 1):
                t[m] = x * t[m - 1] - (m - 1) * s * t[m - 2]
            continue
        a = grid.bin_rates[b - 1] * grid.dt
        N = counts[w]
        # C(N, r) goes to row r; then, top down, row m becomes m! times the
        # convolution of C(N, r) with the exponential series, which reads
        # only rows r <= m
        for r in range(1, n_max + 1):
            t[r] = t[r - 1] * (N - (r - 1)) / r
        for m in range(n_max, 0, -1):
            acc = np.zeros(nb)
            for r in range(m + 1):
                acc += t[r] * ((-a) ** (m - r) / factorial(m - r))
            t[m] = factorial(m) * acc
    return table


class _OccupationPlan(NamedTuple):
    """The occupations of levels 0..M over c cells, as factor lists for `_walk`.

    An occupation's factors are its nonzero (cell w, exponent a) entries in
    ascending cell order, each named by its power-table row w * (M + 1) + a.
    Level n's occupations are positions bounds[n]..bounds[n + 1] - 1, in
    `occ_array` order. Position q shares its first shared[q] factors with
    position q - 1 of its level (none for a level's first); its other
    factors are rest[starts[q]:starts[q + 1]].
    """

    bounds: tuple[int, ...]
    shared: np.ndarray
    starts: np.ndarray
    rest: np.ndarray


@_table_cache
def _occupation_plan(c: int, truncation: int) -> _OccupationPlan:
    """The read-only occupation plan of levels 0..truncation over c cells."""
    sizes = [check_level(c, n) for n in range(truncation + 1)]
    shared, rest, n_rest = [], [], []
    for n in range(truncation + 1):
        occ = occ_array(c, n)
        row, col = np.nonzero(occ)
        # the first cell in which each occupation differs from the one before
        first = np.zeros(occ.shape[0], dtype=np.int64)
        first[1:] = np.argmax(occ[1:] != occ[:-1], axis=1)
        lead = col < first[row]
        shared.append(np.bincount(row[lead], minlength=occ.shape[0]))
        rest.append((col * (truncation + 1) + occ[row, col])[~lead])
        n_rest.append(np.bincount(row[~lead], minlength=occ.shape[0]))
    starts = np.concatenate([[0], np.cumsum(np.concatenate(n_rest))])
    return _OccupationPlan(
        tuple(np.cumsum([0] + sizes).tolist()),
        np.concatenate(shared),
        starts,
        np.concatenate(rest),
    )


def _walk(
    table: np.ndarray,
    plan: _OccupationPlan,
    n: int,
    start: np.ndarray,
    keep: list[bool] | None = None,
):
    """Yield (p, product) for each level-n occupation p, in enumeration order.

    keep, when given, marks the occupations to yield; the others cost no
    multiply. table is the power table with its rows flattened,
    (n_cells * (M + 1), n_paths). An occupation's product is start times its
    factor rows, multiplied one at a time in ascending cell order. The walk
    keeps one buffer per depth, depth d + 1 being depth d times the next
    factor, so an occupation recomputes only the depths past the factors it
    shares with the last occupation yielded: one multiply for most. A
    product is the walk's buffer (or start, at level 0); read it before the
    next step, never write it.
    """
    lo, hi = plan.bounds[n], plan.bounds[n + 1]
    shared = plan.shared[lo:hi].tolist()
    starts = plan.starts[lo : hi + 1].tolist()
    rest = plan.rest[starts[0] : starts[-1]].tolist()
    base = starts[0]
    depth = [start] + [np.empty_like(start) for _ in range(n)]
    factors: list[int] = []
    ready = 0  # depths of the stack that still hold prefixes of the factors
    for p in range(hi - lo):
        del factors[shared[p] :]
        factors += rest[starts[p] - base : starts[p + 1] - base]
        ready = min(ready, shared[p])
        if keep is not None and not keep[p]:
            continue
        for d in range(ready, len(factors)):
            np.multiply(depth[d], table[factors[d]], out=depth[d + 1])
        ready = len(factors)
        yield p, depth[ready]


# power-table entries per block of paths; project_mc's sums are pairwise within
# a block, so its records depend on this rule
_BLOCK_ENTRIES = 8_000_000


def _block_paths(c: int, truncation: int) -> int:
    return max(1, _BLOCK_ENTRIES // (c * (truncation + 1)))


def _dense_values(F: ChaosCoefficients, ens: PathEnsemble) -> np.ndarray:
    grid, M = F.grid, F.truncation
    c = grid.n_cells
    P = ens.n_paths
    out = np.full(P, complex(F.kernels[0][0]), dtype=np.complex128)
    plan = _occupation_plan(c, M)
    levels = [n for n in range(1, M + 1) if np.any(F.kernels[n])]
    if not levels:
        return out
    block = _block_paths(c, M)
    for lo in range(0, P, block):
        hi = min(lo + block, P)
        table = _power_table(ens.paths(lo, hi), M).reshape(c * (M + 1), hi - lo)
        part = out[lo:hi]
        # products start from 1.0, and 1.0 * t == t
        ones = np.ones(hi - lo)
        for n in levels:
            kern, mult = F.kernels[n], multiplicities(c, n)
            for p, prod in _walk(table, plan, n, ones, (kern != 0).tolist()):
                part += kern[p] * mult[p] * prod
    return out


def chaos_evaluate(F: ChaosCoefficients, ens: PathEnsemble) -> np.ndarray:
    """Per-path value of the truncated expansion.

    Recorded power terms go through the exact generating-series engine. The
    dense fallback adds, per occupation with a nonzero kernel entry, the
    entry times its multiplicity times the product of the occupation's
    compensated cell powers. The powers come from one cell-major table per
    block of paths, and the products from one walk over a cached plan of
    each level's occupations that shares every prefix product with the
    occupations after it. This route is exact too, but scales with the
    stored coefficient count.
    """
    if not ens.grid.same_as(F.grid):
        raise ValueError("expansion and paths live on different grids")
    if F.source is None:
        return _dense_values(F, ens)
    out = np.zeros(ens.n_paths, dtype=np.complex128)
    by_field: dict[int, tuple[StepField, list]] = {}
    for coeff, field, degree in F.source:
        if degree == 0:
            out += coeff
            continue
        key = id(field)
        by_field.setdefault(key, (field, []))[1].append((coeff, degree))
    for field, terms in by_field.values():
        n_max = max(deg for _, deg in terms)
        powers = power_integrals(field, n_max, ens)
        for coeff, deg in terms:
            out += coeff * powers[:, deg]
    return out


def project_mc(
    values: np.ndarray, ens: PathEnsemble, truncation: int
) -> tuple[ChaosCoefficients, dict[int, float]]:
    """Estimate chaos kernels of per-path samples by correlation.

    Monte Carlo, not exact: each kernel entry comes with a standard error,
    and the returned map gives the largest one per order. The order-n
    estimator correlates the samples against the occupation's compensated
    power product divided by n! and the occupation's mass. The products
    come from the same walk as the dense route of `chaos_evaluate`, started
    from the samples. Each entry's sum and sums of squares are pairwise
    sums within one block of paths, added up block by block, so the
    estimates depend on the block rule (`_block_paths`) bit for bit: keep it
    to keep the records.
    """
    grid = ens.grid
    c = grid.n_cells
    P = ens.n_paths
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != (P,):
        raise ValueError(f"expected {P} per-path samples, got shape {vals.shape}")
    plan = _occupation_plan(c, truncation)
    sums = [np.zeros(level_dim(c, n), dtype=np.complex128) for n in range(truncation + 1)]
    sq_re = [np.zeros(level_dim(c, n)) for n in range(truncation + 1)]
    sq_im = [np.zeros(level_dim(c, n)) for n in range(truncation + 1)]
    scale = [
        1.0 / (factorial(n) * _mass_weights(grid, n)) for n in range(truncation + 1)
    ]
    block = _block_paths(c, truncation)
    for lo in range(0, P, block):
        hi = min(lo + block, P)
        table = _power_table(ens.paths(lo, hi), truncation)
        table = table.reshape(c * (truncation + 1), hi - lo)
        acc = np.empty(hi - lo, dtype=np.complex128)
        for n in range(truncation + 1):
            sc = scale[n]
            for p, prod in _walk(table, plan, n, vals[lo:hi]):
                np.multiply(prod, sc[p], out=acc)
                sums[n][p] += acc.sum()
                sq_re[n][p] += (acc.real**2).sum()
                sq_im[n][p] += (acc.imag**2).sum()
    kernels = [s / P for s in sums]
    se_max: dict[int, float] = {}
    denom = max(P - 1, 1)
    for n in range(truncation + 1):
        mean = kernels[n]
        var_re = np.maximum(sq_re[n] / P - mean.real**2, 0.0) * P / denom
        var_im = np.maximum(sq_im[n] / P - mean.imag**2, 0.0) * P / denom
        se = np.sqrt((var_re + var_im) / P)
        se_max[n] = float(se.max(initial=0.0))
    return ChaosCoefficients(grid, truncation, kernels), se_max


# ---------------------------------------------------------------------------
# serialization

CHAOS_FORMAT = "chaoskit-chaos 1"


def _occ_label(occ_row: np.ndarray) -> str:
    cells: list[str] = []
    for i, a in enumerate(occ_row):
        cells.extend([str(i)] * int(a))
    return ",".join(cells) if cells else "-"


def save_chaos(F: ChaosCoefficients, dest) -> None:
    """Write a hashed, line-oriented text form; entries in enumeration order."""
    lines = [
        CHAOS_FORMAT,
        "grid " + json.dumps(F.grid.spec(), sort_keys=True, separators=(",", ":")),
        f"truncation {F.truncation}",
        f"cells {F.grid.n_cells}",
    ]
    c = F.grid.n_cells
    for n in range(F.truncation + 1):
        occ = occ_array(c, n)
        kern = F.kernels[n]
        for p in np.nonzero(kern)[0]:
            z = complex(kern[p])
            lines.append(f"term {n} {_occ_label(occ[p])} {z.real!r} {z.imag!r}")
    digest = sha256("\n".join(lines).encode()).hexdigest()
    lines.append(f"hash {digest}")
    payload = "\n".join(lines) + "\n"
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w") as fh:
            fh.write(payload)
    else:
        dest.write(payload)


def _header_int(line: str, key: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise ValueError(f"malformed header line: {line!r}")
    return int(parts[1])


def load_chaos(src, grid: CellGrid) -> ChaosCoefficients:
    """Read `save_chaos` output; validates the hash, the grid spec and every
    term's order and cell labels, and refuses an occupation listed twice. Any
    malformed payload raises ValueError."""
    if isinstance(src, (str, os.PathLike)):
        with open(src) as fh:
            text = fh.read()
    else:
        text = src.read()
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 5 or lines[0] != CHAOS_FORMAT:
        raise ValueError("unrecognized chaos serialization")
    if not lines[-1].startswith("hash "):
        raise ValueError("missing content hash")
    digest = sha256("\n".join(lines[:-1]).encode()).hexdigest()
    if lines[-1].removeprefix("hash ") != digest:
        raise ValueError("content hash mismatch")
    stored_spec = json.loads(lines[1].removeprefix("grid "))
    if stored_spec != grid.spec():
        raise ValueError("serialized expansion belongs to a different grid")
    truncation = _header_int(lines[2], "truncation")
    c = _header_int(lines[3], "cells")
    if c != grid.n_cells:
        raise ValueError("cell count mismatch")
    out = ChaosCoefficients.zero(grid, truncation)
    seen = set()
    for line in lines[4:-1]:
        parts = line.split()
        if len(parts) != 5 or parts[0] != "term":
            raise ValueError(f"malformed line: {line}")
        n = int(parts[1])
        if not 0 <= n <= truncation:
            raise ValueError(f"order outside 0..{truncation}: {line}")
        if parts[2] == "-":
            occ = (0,) * c
        else:
            labels = [int(x) for x in parts[2].split(",")]
            if not all(0 <= x < c for x in labels):
                raise ValueError(f"cell label outside 0..{c - 1}: {line}")
            occ = tuple(int(x) for x in np.bincount(labels, minlength=c))
        if sum(occ) != n:
            raise ValueError(f"occupation does not match order: {line}")
        if occ in seen:
            raise ValueError(f"repeated occupation: {line}")
        seen.add(occ)
        out.kernels[n][position(occ)] = complex(float(parts[3]), float(parts[4]))
    return out
