"""Small statistical helpers shared by the estimation modules.

Numpy and the standard library only: ``normal_cdf`` is a port of the Cephes
``ndtr`` that scipy ships, bit-identical to ``scipy.special.ndtr``, so no
run kind loads scipy through this module.
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


# Cephes ndtr (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), as scipy ships it: erf on |x| < 1, erfc's rational fits on [1, 8) and
# [8, inf), exp(-x^2) underflowing to 0 past MAXLOG = log(DBL_MAX).
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (  # leading coefficient 1
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (  # leading coefficient 1
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (  # leading coefficient 1
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule for the polynomial with coefficients ``coef``, highest first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """``_polevl`` with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes ``erf`` for |x| < 1, the only range ``_ndtr`` asks of it."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(x: float) -> float:
    """Cephes ``erfc`` for x >= 0, the only sign ``_ndtr`` asks of it."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    return (z * p) / q


def _ndtr(a: float) -> float:
    """Cephes ``ndtr``: the standard normal CDF at ``a``."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def normal_cdf(z, sd: float = 1.0):
    """CDF of a centered normal with standard deviation ``sd > 0``.

    A port of the Cephes ``ndtr`` on Python floats, bit-identical to
    ``scipy.special.ndtr(z / sd)`` and loading no scipy.  A Python loop costs
    about a hundred times numpy's per-value time, so callers evaluate it once
    per sample.  The result has the shape of ``z``; a scalar gives a numpy
    scalar.
    """
    if not sd > 0:
        raise ValueError(f"sd must be positive, got {sd}")
    x = np.asarray(z, dtype=float) / sd
    return np.fromiter(map(_ndtr, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)[()]


def _kolmogorov_sorted(cdf: np.ndarray) -> float:
    """The Kolmogorov distance of sorted samples from their CDF values ``cdf``."""
    n = cdf.size
    i = np.arange(1, n + 1)
    return float(np.maximum(i / n - cdf, cdf - (i - 1) / n).max())


def kolmogorov_statistic(samples: np.ndarray, sd: float) -> float:
    """Exact sup-distance between the empirical CDF and a centered normal.

    Uses the order-statistic formula: for sorted samples z_(1..n) the sup is
    max_i of max(i/n - F(z_(i)), F(z_(i)) - (i-1)/n), exact for a step
    function against a continuous CDF.
    """
    if not sd > 0:
        raise ValueError("sd must be positive; use the weighted statistic for sd=0")
    z = np.sort(np.asarray(samples, dtype=float))
    return _kolmogorov_sorted(normal_cdf(z, sd))


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
    """Nonparametric bootstrap standard error of ``statistic(samples)``, from
    ``n_boot >= 2`` resamples of the 1-d array ``samples``, which may hold
    values or indices into them."""
    if not n_boot >= 2:
        raise ValueError(f"a bootstrap standard error needs n_boot >= 2, got {n_boot}")
    samples = np.asarray(samples)
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
