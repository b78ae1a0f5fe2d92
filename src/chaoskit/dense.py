"""Dense level matrices of the ladder operators.

Marked-space coordinates flatten (symmetric position p, mark i) to p * d + i.
Matrices exist to make spectra and residuals checkable; the vector operations
in `fock` never build them.
"""
from __future__ import annotations

import numpy as np

from .indices import level_dim, lower_maps, raise_maps

__all__ = [
    "lower_matrix",
    "raise_matrix",
    "operator_norm",
    "isometry_residual",
]


def lower_matrix(d: int, n: int) -> np.ndarray:
    """Level n -> (level n-1) (x) marks, entries sqrt(alpha_i)."""
    if n < 1:
        raise ValueError("lowering matrix needs degree >= 1")
    rows = level_dim(d, n - 1) * d
    cols = level_dim(d, n)
    target, weight = lower_maps(d, n)
    out = np.zeros((rows, cols), dtype=np.complex128)
    for p in range(cols):
        for i in range(d):
            if target[p, i] >= 0:
                out[target[p, i] * d + i, p] = weight[p, i]
    return out


def raise_matrix(d: int, n: int) -> np.ndarray:
    """(level n) (x) marks -> level n+1, entries sqrt(alpha_j + 1)."""
    rows = level_dim(d, n + 1)
    cols = level_dim(d, n) * d
    target, weight = raise_maps(d, n)
    out = np.zeros((rows, cols), dtype=np.complex128)
    for p in range(level_dim(d, n)):
        for j in range(d):
            out[target[p, j], p * d + j] = weight[p, j]
    return out


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def isometry_residual(m: np.ndarray) -> float:
    """Spectral norm of M* M - I (zero for an isometry)."""
    g = m.conj().T @ m - np.eye(m.shape[1])
    return float(np.linalg.norm(g, ord=2))
