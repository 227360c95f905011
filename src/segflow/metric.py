"""Quasi-metric on segments, observables, and empirical transport distance.

The distance used throughout is

    rho(x, y) = (1 and ||x - y||_inf^gamma) * sqrt(1 + ||x||_inf^p + ||y||_inf^p)

with grid-level uniform norms.  It is symmetric and separates points but does
*not* satisfy the triangle inequality, so nothing here assumes one.  For
d = 1 the uniform distance is the exact max of ``|x_k - y_k|`` over the
nodes, so distinct atoms keep a positive distance however close they are;
for d > 1 the node norms ``sqrt(sum of squares)`` underflow to 0 once the
differences fall below ~1e-162.  ``rho_pairs`` evaluates rho row by row on
two aligned batches, the coupled pairs of a mixing-rate fit, and equals the
diagonal of ``rho_matrix`` bitwise.  The transport distance between two
equal-size empirical measures reduces to a minimum-cost assignment, solved
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import CapacityError, ShapeError
from .segments import batch_sup_norms

__all__ = [
    "MetricParams",
    "Observable",
    "EmpiricalMeasure",
    "rho_matrix",
    "rho_pairs",
    "wasserstein",
    "DEFAULT_ASSIGNMENT_CAP",
]

DEFAULT_ASSIGNMENT_CAP = 512


@dataclass(frozen=True)
class MetricParams:
    """Exponents of the quasi-metric: moment weight p >= 1, roughness gamma in (0, 1]."""

    p: float = 2.0
    gamma: float = 1.0

    def __post_init__(self):
        if not (1.0 <= self.p < math.inf):
            raise ValueError(f"p must be >= 1 and finite, got {self.p}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class Observable:
    """A real statistic of one segment.

    ``eval_batch`` evaluates an ``(n, m+1, d)`` array of segments to an
    ``(n,)`` vector.  ``declared_norm`` is the claimed Lipschitz-class norm
    bound.
    """

    name: str
    eval_batch: Callable[[np.ndarray], np.ndarray]
    declared_norm: Optional[float] = None

    def values(self, seg_values: np.ndarray) -> np.ndarray:
        """Evaluate on a batch of segment value arrays (n, m+1, d)."""
        return np.asarray(self.eval_batch(seg_values), dtype=float)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Equal-weight sample of segments standing in for a law on path space.

    ``values`` has shape (n, m+1, d); ``groups`` optionally labels atoms by
    the independent trajectory that produced them, so standard errors can
    respect within-trajectory correlation.
    """

    values: np.ndarray
    delay: float
    step: float
    groups: Optional[np.ndarray] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3 or vals.shape[0] < 1:
            raise ShapeError("empirical measure needs a non-empty (n, m+1, d) array")
        if not np.isfinite(vals).all():
            raise ValueError("atoms must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.groups is not None:
            g = np.asarray(self.groups)
            if g.shape != (vals.shape[0],):
                raise ShapeError("groups must label each atom")
            object.__setattr__(self, "groups", g)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def take(self, indices: np.ndarray) -> "EmpiricalMeasure":
        g = None if self.groups is None else self.groups[indices]
        return EmpiricalMeasure(self.values[indices], self.delay, self.step, g)


def _compatible(a_vals: np.ndarray, b_vals: np.ndarray):
    if a_vals.shape[1:] != b_vals.shape[1:]:
        raise ShapeError(
            f"incompatible segment shapes {a_vals.shape[1:]} vs {b_vals.shape[1:]}"
        )


def rho_matrix(a_vals: np.ndarray, b_vals: np.ndarray, mp: MetricParams) -> np.ndarray:
    """Pairwise quasi-distances between two batches of segments.

    Returns the (na, nb) matrix rho(a_i, b_j), built in place in the
    returned array and one weight matrix, so a call forms two (na, nb)
    arrays whatever the exponents.  For d = 1 the uniform distance is one
    Chebyshev ``cdist`` over the nodes, raised and clipped where it lies.
    For d > 1 rows are chunked so the transient (chunk, nb, m+1, d)
    difference array stays small; a per-node Euclidean ``cdist`` would sum
    the d squares in another order from d = 8 on and move results by an
    ulp.  The weight is summed as ``1 + (|a|^p + |b|^p)``, so
    ``rho_matrix(a, b)`` is exactly ``rho_matrix(b, a).T``.
    """
    _compatible(a_vals, b_vals)
    if a_vals.shape[2] == 1:
        out = cdist(a_vals[:, :, 0], b_vals[:, :, 0], "chebyshev")
        out **= mp.gamma
        np.minimum(1.0, out, out=out)
    else:
        na, nb = a_vals.shape[0], b_vals.shape[0]
        out = np.empty((na, nb))
        chunk = max(1, int(2**22 // max(1, nb * a_vals.shape[1] * a_vals.shape[2])))
        for lo in range(0, na, chunk):
            hi = min(na, lo + chunk)
            diff = a_vals[lo:hi, None] - b_vals[None, :]  # (c, nb, m+1, d)
            dist = np.sqrt((diff**2).sum(axis=3)).max(axis=2)
            out[lo:hi] = np.minimum(1.0, dist**mp.gamma)
    weight = np.add.outer(batch_sup_norms(a_vals) ** mp.p, batch_sup_norms(b_vals) ** mp.p)
    weight += 1.0
    out *= np.sqrt(weight, out=weight)
    return out


def rho_pairs(a_vals: np.ndarray, b_vals: np.ndarray, mp: MetricParams) -> np.ndarray:
    """Quasi-distances ``rho(a_i, b_i)`` between aligned rows of two batches.

    Returns the (n,) vector with the node norms and the weight order
    ``1 + (|a|^p + |b|^p)`` of ``rho_matrix``, so it equals
    ``np.diag(rho_matrix(a_vals, b_vals, mp))`` bitwise at O(n) cost.
    Both batches must have the same shape: a single segment is not
    broadcast against a batch.
    """
    if a_vals.shape != b_vals.shape:
        raise ShapeError(f"paired batches differ in shape: {a_vals.shape} vs {b_vals.shape}")
    if a_vals.shape[2] == 1:
        out = np.abs(a_vals[:, :, 0] - b_vals[:, :, 0]).max(axis=1)
    else:
        out = np.sqrt(((a_vals - b_vals) ** 2).sum(axis=2)).max(axis=1)
    out **= mp.gamma
    np.minimum(1.0, out, out=out)
    weight = batch_sup_norms(a_vals) ** mp.p + batch_sup_norms(b_vals) ** mp.p
    weight += 1.0
    out *= np.sqrt(weight, out=weight)
    return out


def wasserstein(a: EmpiricalMeasure, b: EmpiricalMeasure, mp: MetricParams) -> float:
    """Exact transport distance between two equal-size empirical measures.

    Equal-weight empirical transport admits a permutation optimum, so the
    value is ``min over permutations pi of (1/n) sum_i rho(a_i, b_pi(i))``,
    computed by an exact minimum-cost assignment on the n x n cost matrix.
    The summation order of the optimal costs is canonicalized (sorted) so the
    result is bit-identical under any permutation of the atoms.

    Raises
    ------
    ShapeError: unequal atom counts or incompatible segment grids.
    CapacityError: ``n`` exceeds ``DEFAULT_ASSIGNMENT_CAP``; resample the
    measures upstream.
    """
    if a.n != b.n:
        raise ShapeError(f"atom counts differ: {a.n} vs {b.n}; resample to equalize")
    if a.n > DEFAULT_ASSIGNMENT_CAP:
        raise CapacityError(
            f"{a.n} atoms exceed the exact-solver cap {DEFAULT_ASSIGNMENT_CAP}; "
            "resample the measures"
        )
    cost = rho_matrix(a.values, b.values, mp)
    rows, cols = linear_sum_assignment(cost)
    chosen = np.sort(cost[rows, cols])
    return float(chosen.sum() / a.n)
