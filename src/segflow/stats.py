"""Small statistical helpers shared by the estimation modules.

Only ``normal_cdf`` uses scipy (``scipy.special.ndtr``), and it imports it
when called: of the run kinds only clt reaches it, through
``kolmogorov_statistic``, so importing this module loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearFit",
    "ols_line",
    "normal_cdf",
    "kolmogorov_statistic",
    "weighted_degenerate_statistic",
    "bootstrap_se",
    "batch_means_se",
    "grouped_mean_se",
]

# Blocks of a batch-means standard error, when the series is long enough.
_BATCH_MEANS_BLOCKS = 16


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float
    se_slope: float
    n: int


def ols_line(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """Ordinary least squares y ~ a + b x with the slope's standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("degenerate abscissae")
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    se_slope = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else math.inf
    return LinearFit(slope, intercept, r2, se_slope, n)


def normal_cdf(z, sd: float = 1.0):
    """CDF of a centered normal with standard deviation ``sd``."""
    from scipy.special import ndtr

    return ndtr(np.asarray(z, dtype=float) / sd)


def kolmogorov_statistic(samples: np.ndarray, sd: float) -> float:
    """Exact sup-distance between the empirical CDF and a centered normal.

    Uses the order-statistic formula: for sorted samples z_(1..n) the sup is
    max_i of max(i/n - F(z_(i)), F(z_(i)) - (i-1)/n), exact for a step
    function against a continuous CDF.
    """
    if not sd > 0:
        raise ValueError("sd must be positive; use the weighted statistic for sd=0")
    z = np.sort(np.asarray(samples, dtype=float))
    n = z.size
    cdf = normal_cdf(z, sd)
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - cdf, cdf - (i - 1) / n).max())


def weighted_degenerate_statistic(samples: np.ndarray) -> float:
    """sup_z (1 and |z|) |F_emp(z) - 1_{z >= 0}| against the point mass at 0.

    Both CDFs are step functions, so on each interval between breakpoints the
    difference is constant and the weight is monotone toward the interval's
    outer end; the sup is attained at breakpoints (one-sided limits).  One
    ``searchsorted`` per side gives every breakpoint's one-sided empirical
    CDF values at once.
    """
    z = np.sort(np.asarray(samples, dtype=float))
    n = z.size
    points = np.unique(np.concatenate([z, [0.0]]))
    femp_left = np.searchsorted(z, points, side="left") / n
    femp_right = np.searchsorted(z, points, side="right") / n
    w = np.minimum(1.0, np.abs(points))
    at_left = w * np.abs(femp_left - (points > 0))
    at_right = w * np.abs(femp_right - (points >= 0))
    # interior of each gap up to the next breakpoint: constant difference,
    # weight maximal at the outer end (0 is itself a breakpoint, so no gap
    # straddles it)
    w_gap = np.minimum(1.0, np.maximum(np.abs(points[:-1]), np.abs(points[1:])))
    in_gap = w_gap * np.abs(femp_right[:-1] - (points[1:] > 0))
    return float(max(at_left.max(), at_right.max(), in_gap.max(initial=0.0)))


def bootstrap_se(samples: np.ndarray, statistic, n_boot: int, gen: np.random.Generator) -> float:
    """Nonparametric bootstrap standard error of ``statistic(samples)``."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    vals = np.empty(n_boot)
    for b in range(n_boot):
        vals[b] = statistic(samples[gen.integers(0, n, size=n)])
    return float(vals.std(ddof=1))


def batch_means_se(series: np.ndarray) -> float:
    """Standard error of the mean of a correlated series of n >= 2 values via
    batch means, over ``max(2, min(16, n // 2))`` blocks (16 is ``_BATCH_MEANS_BLOCKS``)."""
    series = np.asarray(series, dtype=float)
    n = series.size
    if n < 2:
        raise ValueError(f"batch means need at least 2 values, got {n}")
    b = max(2, min(_BATCH_MEANS_BLOCKS, n // 2))
    size = n // b
    means = series[: b * size].reshape(b, size).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(b))


def grouped_mean_se(values: np.ndarray, groups) -> tuple[float, float]:
    """Mean and standard error respecting group (trajectory) correlation.

    Without group labels this is the plain iid standard error.
    """
    values = np.asarray(values, dtype=float)
    if groups is None:
        n = values.size
        se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
        return float(values.mean()), se
    groups = np.asarray(groups)
    labels = np.unique(groups)
    means = np.array([values[groups == g].mean() for g in labels])
    k = means.size
    se = float(means.std(ddof=1) / math.sqrt(k)) if k > 1 else math.inf
    return float(values.mean()), se
