"""Exact calculus on finite combinations of exponential vectors.

A combination sum_k c_k e(f_k) is stored by its coefficients and directions;
all pairings go through the reproducing kernel <e(f), e(g)> = exp(<f, g>), so
no truncation enters. The shift family and the pairing family act by exact
term rewriting:

    shift:          e(g) -> exp(<f, g>) e(g),  adjoint  e(g) -> e(g + f)
    pair(t):        e(f) -> e(f) (x) e(t f)
    pair(t) adjoint: e(f) (x) e(g) -> e(f + t g)

A combination has one or more legs: a term (c, f_1, ..., f_k) stands for
c e(f_1) (x) ... (x) e(f_k). The shift family acts on one leg, the pairing
family maps one leg to two and its adjoint two legs back to one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import as_mode_vector

__all__ = [
    "ExpCombo",
    "exp_gram",
    "exp_shift",
    "pair_map",
    "pair_merge",
]


@dataclass(eq=False)
class ExpCombo:
    """Finite combination sum_k c_k e(f_k1) (x) ... (x) e(f_k,legs)."""

    d: int
    terms: list[tuple]
    legs: int = 1

    def __post_init__(self):
        if self.legs < 1:
            raise ValueError("a combination needs at least one leg")
        fixed = []
        for c, *fs in self.terms:
            if len(fs) != self.legs:
                raise ValueError(f"expected {self.legs} legs per term, got {len(fs)}")
            fixed.append((complex(c), *(as_mode_vector(f, self.d) for f in fs)))
        self.terms = fixed

    @classmethod
    def single(cls, f, *more) -> "ExpCombo":
        """The one-term combination e(f) (x) e(more[0]) (x) ..."""
        return cls(as_mode_vector(f).shape[0], [(1.0 + 0j, f, *more)], 1 + len(more))

    def _require_legs(self, legs: int) -> "ExpCombo":
        if self.legs != legs:
            raise TypeError(f"expected a {legs}-leg combination, got {self.legs} legs")
        return self

    def _check_compatible(self, other: "ExpCombo"):
        if (self.d, self.legs) != (other.d, other.legs):
            raise ValueError("combinations differ in mode dimension or leg count")

    def __add__(self, other: "ExpCombo") -> "ExpCombo":
        self._check_compatible(other)
        return ExpCombo(self.d, self.terms + other.terms, self.legs)

    def __mul__(self, scalar) -> "ExpCombo":
        z = complex(scalar)
        return ExpCombo(self.d, [(z * c, *fs) for c, *fs in self.terms], self.legs)

    __rmul__ = __mul__


def exp_gram(a: ExpCombo, b: ExpCombo) -> complex:
    """<a, b> via the exponential kernel, exact; over several legs the kernel
    factorizes, so its exponent sums the legs' pairings."""
    a._check_compatible(b)
    total = 0.0 + 0.0j
    for ca, *fa in a.terms:
        for cb, *fb in b.terms:
            ip = sum(np.vdot(f, g) for f, g in zip(fa, fb))
            total += np.conj(ca) * cb * np.exp(ip)
    return complex(total)


def _require_combo(x, legs: int = 1) -> ExpCombo:
    if not isinstance(x, ExpCombo):
        raise TypeError(f"expected ExpCombo, got {type(x).__name__}")
    return x._require_legs(legs)


def exp_shift(f, x, adjoint: bool = False) -> ExpCombo:
    """Exponential shift family along f.

    Plain mode: e(g) -> exp(<f, g>) e(g). Adjoint mode: e(g) -> e(g + f).
    Accepts a one-leg combination.
    """
    combo = _require_combo(x)
    fa = as_mode_vector(f, combo.d)
    if adjoint:
        return ExpCombo(combo.d, [(c, g + fa) for c, g in combo.terms])
    return ExpCombo(combo.d, [(c * np.exp(np.vdot(fa, g)), g) for c, g in combo.terms])


def pair_map(t: float, x) -> ExpCombo:
    """Pairing family: e(f) -> e(f) (x) e(t f), a two-leg combination."""
    combo = _require_combo(x)
    s = float(t)
    return ExpCombo(combo.d, [(c, f, s * f) for c, f in combo.terms], 2)


def pair_merge(t: float, x2: ExpCombo) -> ExpCombo:
    """Adjoint of the pairing family: e(f) (x) e(g) -> e(f + t g)."""
    combo = _require_combo(x2, 2)
    s = float(t)
    return ExpCombo(combo.d, [(c, f + s * g) for c, f, g in combo.terms])
