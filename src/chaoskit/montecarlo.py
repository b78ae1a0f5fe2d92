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


def summarize(values: np.ndarray) -> MCStat:
    """Mean and standard error of per-path samples (real or complex)."""
    v = np.asarray(values)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("summarize expects a nonempty 1-d sample array")
    n = v.size
    re = np.ascontiguousarray(v.real, dtype=np.float64)
    im = np.ascontiguousarray(v.imag, dtype=np.float64) if np.iscomplexobj(v) else None
    mean_re = _fsum_mean(re)
    with np.errstate(over="ignore", invalid="ignore"):
        var_re = _fsum_mean((re - mean_re) ** 2) * n / max(n - 1, 1)
    se_re = math.sqrt(var_re / n)
    if im is None:
        mean_im, se_im = 0.0, 0.0
    else:
        mean_im = _fsum_mean(im)
        with np.errstate(over="ignore", invalid="ignore"):
            var_im = _fsum_mean((im - mean_im) ** 2) * n / max(n - 1, 1)
        se_im = math.sqrt(var_im / n)
    return MCStat(
        mean=complex(mean_re, mean_im),
        se=math.hypot(se_re, se_im),
        se_re=se_re,
        se_im=se_im,
        n_paths=n,
    )
