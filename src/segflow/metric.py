"""Quasi-metric on segments, Lipschitz norms, and empirical transport distance.

The distance used throughout is

    rho(x, y) = (1 and ||x - y||_inf^gamma) * sqrt(1 + ||x||_inf^p + ||y||_inf^p)

with grid-level uniform norms.  It is symmetric and separates points but does
*not* satisfy the triangle inequality, so nothing here assumes one.  The
transport distance between two equal-size empirical measures reduces to a
minimum-cost assignment, solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import CapacityError, MetricError, ShapeError
from .rng import RngStream
from .segments import Segment, batch_sup_norms

__all__ = [
    "MetricParams",
    "Observable",
    "EmpiricalMeasure",
    "rho",
    "rho_matrix",
    "wasserstein",
    "lip_norm_lower_bound",
    "DEFAULT_ASSIGNMENT_CAP",
]

DEFAULT_ASSIGNMENT_CAP = 512


@dataclass(frozen=True)
class MetricParams:
    """Exponents of the quasi-metric: moment weight p >= 1, roughness gamma in (0, 1]."""

    p: float = 2.0
    gamma: float = 1.0

    def __post_init__(self):
        if not self.p >= 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class Observable:
    """A real statistic of one segment.

    ``eval_batch`` (optional) evaluates an ``(n, m+1, d)`` array of segments
    to an ``(n,)`` vector; estimators fall back to a Python loop without it.
    ``declared_norm`` is the claimed Lipschitz-class norm bound, checkable
    against :func:`lip_norm_lower_bound`.
    """

    name: str
    eval: Callable[[Segment], float]
    declared_norm: Optional[float] = None
    eval_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def values(self, seg_values: np.ndarray) -> np.ndarray:
        """Evaluate on a batch of segment value arrays (n, m+1, d)."""
        if self.eval_batch is not None:
            return np.asarray(self.eval_batch(seg_values), dtype=float)
        out = np.empty(seg_values.shape[0])
        for i in range(seg_values.shape[0]):
            out[i] = self.eval(_BareSegment(seg_values[i]))
        return out


class _BareSegment:
    """Duck-typed segment wrapper for loop fallbacks (values only)."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values

    def endpoint(self) -> np.ndarray:
        return self.values[-1]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


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

    @classmethod
    def from_segments(cls, segments: Sequence[Segment]) -> "EmpiricalMeasure":
        if not segments:
            raise ShapeError("empirical measure needs at least one atom")
        first = segments[0]
        for s in segments[1:]:
            if s.values.shape != first.values.shape or s.delay != first.delay or s.step != first.step:
                raise ShapeError("all atoms must share dim, delay and step")
        return cls(np.stack([s.values for s in segments]), first.delay, first.step)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def atom(self, i: int) -> Segment:
        return Segment(self.values[i], self.delay, self.step)

    def take(self, indices: np.ndarray) -> "EmpiricalMeasure":
        g = None if self.groups is None else self.groups[indices]
        return EmpiricalMeasure(self.values[indices], self.delay, self.step, g)

    def canonical_order(self) -> np.ndarray:
        """Atom indices sorted by a value-lexicographic key.

        Reductions that partition atoms into blocks apply this first, which
        makes their results independent of the order atoms arrived in.
        """
        flat = self.values.reshape(self.n, -1)
        return np.lexsort(flat.T[::-1])

    def strided_blocks(self, block: int) -> list["EmpiricalMeasure"]:
        """Split into ``n // block`` disjoint blocks of size ``block``.

        Atoms are first put in canonical (value-sorted) order, then the
        blocks interleave across it (indices ``i::k``): block membership is a
        function of the atom multiset alone, and each block spans the whole
        value range.
        """
        k = self.n // block
        if k < 1:
            raise ShapeError(f"measure with {self.n} atoms cannot provide a block of {block}")
        idx = self.canonical_order()
        return [self.take(idx[i::k][:block]) for i in range(k)]


def _compatible(a_vals: np.ndarray, b_vals: np.ndarray):
    if a_vals.shape[1:] != b_vals.shape[1:]:
        raise ShapeError(
            f"incompatible segment shapes {a_vals.shape[1:]} vs {b_vals.shape[1:]}"
        )


def rho(x: Segment, y: Segment, mp: MetricParams) -> float:
    """Quasi-distance between two segments."""
    d = rho_matrix(x.values[None], y.values[None], mp)
    return float(d[0, 0])


def rho_matrix(a_vals: np.ndarray, b_vals: np.ndarray, mp: MetricParams) -> np.ndarray:
    """Pairwise quasi-distances between two batches of segments.

    Returns the (na, nb) matrix rho(a_i, b_j); rows are chunked so the
    transient (chunk, nb, m+1) difference array stays small.
    """
    _compatible(a_vals, b_vals)
    na, nb = a_vals.shape[0], b_vals.shape[0]
    norm_a = batch_sup_norms(a_vals)
    norm_b = batch_sup_norms(b_vals)
    weight = np.sqrt(1.0 + norm_a[:, None] ** mp.p + norm_b[None, :] ** mp.p)
    out = np.empty((na, nb))
    chunk = max(1, int(2**22 // max(1, nb * a_vals.shape[1] * a_vals.shape[2])))
    for lo in range(0, na, chunk):
        hi = min(na, lo + chunk)
        diff = a_vals[lo:hi, None] - b_vals[None, :]  # (c, nb, m+1, d)
        dist = np.sqrt((diff**2).sum(axis=3)).max(axis=2)
        out[lo:hi] = np.minimum(1.0, dist**mp.gamma)
    out *= weight
    return out


def wasserstein(
    a: EmpiricalMeasure,
    b: EmpiricalMeasure,
    mp: MetricParams,
    cap: int = DEFAULT_ASSIGNMENT_CAP,
) -> float:
    """Exact transport distance between two equal-size empirical measures.

    Equal-weight empirical transport admits a permutation optimum, so the
    value is ``min over permutations pi of (1/n) sum_i rho(a_i, b_pi(i))``,
    computed by an exact minimum-cost assignment on the n x n cost matrix.
    The summation order of the optimal costs is canonicalized (sorted) so the
    result is bit-identical under any permutation of the atoms.

    Raises
    ------
    ShapeError: unequal atom counts or incompatible segment grids.
    CapacityError: ``n`` exceeds ``cap``; resample the measures upstream.
    """
    if a.n != b.n:
        raise ShapeError(f"atom counts differ: {a.n} vs {b.n}; resample to equalize")
    if a.n > cap:
        raise CapacityError(
            f"{a.n} atoms exceed the exact-solver cap {cap}; resample the measures"
        )
    cost = rho_matrix(a.values, b.values, mp)
    rows, cols = linear_sum_assignment(cost)
    chosen = np.sort(cost[rows, cols])
    return float(chosen.sum() / a.n)


def lip_norm_lower_bound(
    f: Observable,
    sampler: Callable[[np.random.Generator], Segment],
    n: int,
    mp: MetricParams,
    rng: RngStream,
) -> float:
    """Certified-from-below estimate of the Lipschitz-class norm of ``f``.

    Draws ``n`` segments and returns

        max_i |f(xi_i)| / (1 + ||xi_i||_inf^{p/2})
        + max_{i<j} |f(xi_i) - f(xi_j)| / rho(xi_i, xi_j)

    The true norm takes suprema over all of path space, so this is a lower
    bound that can only grow with ``n``; it is the tool for sanity-checking a
    declared norm, never for certifying one.
    """
    if n < 2:
        raise ValueError("need at least 2 samples to bound the oscillation term")
    gen = rng.generator()
    segs = [sampler(gen) for _ in range(n)]
    vals = np.array([float(f.eval(s)) for s in segs])
    stacked = np.stack([s.values for s in segs])
    norms = batch_sup_norms(stacked)
    point_part = float(np.max(np.abs(vals) / (1.0 + norms ** (mp.p / 2.0))))
    dmat = rho_matrix(stacked, stacked, mp)
    iu = np.triu_indices(n, k=1)
    dists = dmat[iu]
    gaps = np.abs(vals[iu[0]] - vals[iu[1]])
    distinct = gaps > 0
    if np.any(distinct & (dists == 0.0)):
        raise MetricError("rho vanished for a pair with distinct f-values")
    pair_part = float(np.max(gaps[distinct] / dists[distinct])) if distinct.any() else 0.0
    return point_part + pair_part
