"""Monte Carlo reduction with order-independent sums.

Per-path values come from the vectorized engines; the reduction here uses
compensated summation on the real and imaginary parts separately, so the
reported mean does not depend on path order or on how the ensemble was
blocked. Standard errors combine both parts in quadrature, and acceptance
margins elsewhere are stated as multiples of that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MCStat", "summarize"]


@dataclass(frozen=True)
class MCStat:
    mean: complex
    se: float
    se_re: float
    se_im: float
    n_paths: int


def _fsum_mean(x: np.ndarray) -> float:
    """Exact-sum mean; NaN where fsum raises (inf - inf, or a sum past the
    float range), so the statistic fails the way any NaN does."""
    try:
        return math.fsum(x.tolist()) / x.size
    except (ValueError, OverflowError):
        return math.nan


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Exact-sum mean of one real part and the standard error of that mean."""
    n = x.size
    mean = _fsum_mean(x)
    with np.errstate(over="ignore", invalid="ignore"):
        var = _fsum_mean((x - mean) ** 2) * n / max(n - 1, 1)
    return mean, math.sqrt(var / n)


def summarize(values: np.ndarray) -> MCStat:
    """Mean and standard error of per-path samples (real or complex)."""
    v = np.asarray(values)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("summarize expects a nonempty 1-d sample array")
    mean_re, se_re = _mean_se(np.ascontiguousarray(v.real, dtype=np.float64))
    mean_im, se_im = 0.0, 0.0
    if np.iscomplexobj(v):
        mean_im, se_im = _mean_se(np.ascontiguousarray(v.imag, dtype=np.float64))
    return MCStat(
        mean=complex(mean_re, mean_im),
        se=math.hypot(se_re, se_im),
        se_re=se_re,
        se_im=se_im,
        n_paths=v.size,
    )
