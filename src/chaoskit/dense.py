"""Dense level matrices for the named homogeneous operators.

Marked-space coordinates flatten (symmetric position p, mark i) to p * d + i.
Matrices exist to make spectra and residuals checkable; the vector operations
in `fock` never build them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .indices import level_dim, lower_maps, occ_array, raise_maps

__all__ = [
    "DenseOperator",
    "operator_matrix",
    "operator_norm",
    "isometry_residual",
]

_KNOWN = ("lower", "raise", "isometry", "number", "conservation")


@dataclass(eq=False)
class DenseOperator:
    name: str
    d: int
    degree: int
    matrix: np.ndarray


def _lower_matrix(d: int, n: int) -> np.ndarray:
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


def _raise_matrix(d: int, n: int) -> np.ndarray:
    """(level n) (x) marks -> level n+1, entries sqrt(alpha_j + 1)."""
    rows = level_dim(d, n + 1)
    cols = level_dim(d, n) * d
    target, weight = raise_maps(d, n)
    out = np.zeros((rows, cols), dtype=np.complex128)
    for p in range(level_dim(d, n)):
        for j in range(d):
            out[target[p, j], p * d + j] = weight[p, j]
    return out


def _conservation_matrix(A: np.ndarray, d: int, n: int) -> np.ndarray:
    dim = level_dim(d, n)
    out = np.zeros((dim, dim), dtype=np.complex128)
    if n == 0:
        return out
    occ = occ_array(d, n)
    low_t, low_w = lower_maps(d, n)
    up_t, _ = raise_maps(d, n - 1)
    for p in range(dim):
        for j in range(d):
            if low_t[p, j] < 0:
                continue
            mid = low_t[p, j]
            for i in range(d):
                w = np.sqrt(occ[p, i] + 1.0 - (1.0 if i == j else 0.0))
                out[up_t[mid, i], p] += A[i, j] * low_w[p, j] * w
    return out


def operator_matrix(name: str, n: int, d: int, A=None) -> DenseOperator:
    """Build one dense level matrix.

    Names: "lower" (level n to marked level n-1), "raise" (marked level n to
    level n+1), "isometry" (lower / sqrt(n)), "number" (n on level n),
    "conservation" (quadratic lift of A on level n, A required).
    """
    if name not in _KNOWN:
        raise ValueError(f"unknown operator name {name!r}; known: {_KNOWN}")
    if name == "lower":
        mat = _lower_matrix(d, n)
    elif name == "raise":
        mat = _raise_matrix(d, n)
    elif name == "isometry":
        mat = _lower_matrix(d, n) / np.sqrt(n)
    elif name == "number":
        mat = n * np.eye(level_dim(d, n), dtype=np.complex128)
    else:
        if A is None:
            raise ValueError("conservation matrix needs the one-particle operator A")
        Am = np.asarray(A, dtype=np.complex128)
        if Am.shape != (d, d):
            raise ValueError(f"operator shape {Am.shape} does not match d={d}")
        mat = _conservation_matrix(Am, d, n)
    return DenseOperator(name, d, n, mat)


def operator_norm(op: DenseOperator) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(op.matrix, compute_uv=False)[0])


def isometry_residual(op: DenseOperator) -> float:
    """Spectral norm of M* M - I (zero for an isometry)."""
    m = op.matrix
    g = m.conj().T @ m - np.eye(m.shape[1])
    return float(np.linalg.norm(g, ord=2))
