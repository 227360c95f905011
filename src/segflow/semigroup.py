"""Unit-time Markov chains, their transition semigroups, and test kernels.

Everything downstream of simulation that needs ``P_t f(xi) = E f(X_t^xi)``
goes through a :class:`SemigroupEvaluator`.  A chain is the evaluator of its
own semigroup: :class:`MonteCarloSemigroup` samples the SDE at integer times
and estimates ``P_t`` by simulation, :class:`IidChain` resamples independent
segments.  Synthetic kernels with closed-form action are injectable in their
place so the correction/variance machinery can be tested against exact
values.  State batches have shape ``(n, m+1, d)``, and every estimate at
several times reuses common paths (common random numbers), which makes
time-quadratures of semigroup values cheap and smooth.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError
from .metric import Observable
from .rng import RngStream
from .segments import ModelSpec, grid_steps, record, step_windows

__all__ = [
    "GridProfile",
    "SemigroupEvaluator",
    "MonteCarloSemigroup",
    "ExpDecayKernel",
    "IidKernel",
    "IidChain",
]


@dataclass(frozen=True)
class GridProfile:
    """Cumulative quadrature/sum profile of semigroup values for a state batch.

    ``grid`` holds the truncation checkpoints (times or integer lags) and
    ``values``/``ses`` the per-state running estimate and standard error at
    each checkpoint, shape (n_states, len(grid)).
    """

    grid: np.ndarray
    values: np.ndarray
    ses: np.ndarray


# Paths per simulated batch: states are grouped so replicas x states fits.
_MAX_WIDTH = 4096
# Profile rows per mean/SE reduction (at most 2 MiB at width 4096).
_BLOCK_ROWS = 64


class SemigroupEvaluator(ABC):
    """Time quadratures and unit-lag sums of ``P_t f`` at a batch of states.

    A discrete-time kernel keeps the default ``integral_profile``, which
    raises :class:`NotImplementedError`.
    """

    def integral_profile(
        self,
        f: Observable,
        states: np.ndarray,
        t_max: float,
        quad_step: float,
        replicas: int,
        rng: RngStream,
    ) -> GridProfile:
        """Cumulative trapezoid of ``t -> P_t f`` over the quad grid up to t_max."""
        raise NotImplementedError(f"{type(self).__name__} has no continuous-time action")

    @abstractmethod
    def discrete_profile(
        self,
        f: Observable,
        states: np.ndarray,
        k_from: int,
        k_max: int,
        replicas: int,
        rng: RngStream,
    ) -> GridProfile:
        """Cumulative sums ``sum_{k=k_from}^K P_k f`` for K = k_from .. k_max."""


class MonteCarloSemigroup(SemigroupEvaluator):
    """The SDE's unit-time chain and its semigroup, both by simulation.

    Profiles run ``replicas`` paths per state, one batch giving every time,
    with across-replica standard errors.  Only the unit-time methods need
    ``dt`` to divide the unit time, so any ``dt`` constructs.
    """

    def __init__(self, model: ModelSpec, dt: float):
        self.model = model
        self.dt = dt

    def unit_states(
        self, start_values: np.ndarray, n_units: int, rng: RngStream
    ) -> np.ndarray:
        """Run ``n_units`` unit steps; returns states (n_units+1, n, m+1, d)."""
        per_unit = grid_steps(1.0, self.dt, "unit time")
        n_steps = n_units * per_unit
        states, _ = record(
            self.model, start_values, n_steps, self.dt, rng,
            sample_at=range(0, n_steps + 1, per_unit),
        )
        return states

    def _profile(self, grid, f, states, sample_at, replicas, rng, h=None) -> GridProfile:
        """Per-state mean and SE over replicas of a running profile on ``grid``.

        ``f`` is sampled at the steps ``sample_at``, for each group of g
        states that fits one batch, run on ``rng.child(g0)``.  Each sampled
        row becomes its running trapezoid with spacing ``h`` (from 0.0) or,
        with ``h`` None, its running sum as it arrives, in an (r, g, replicas)
        block of ``r <= _BLOCK_ROWS`` rows whose last row carries into the
        next block.  Each full block is reduced to its mean and SE over the
        last axis, bitwise as the whole (n_rec, g, replicas) array would be.
        """
        states = np.asarray(states, dtype=float)
        n, n_rec = states.shape[0], len(sample_at)
        group = max(1, _MAX_WIDTH // max(1, replicas))
        rows = min(_BLOCK_ROWS, n_rec)
        values = np.empty((n, n_rec))
        ses = np.empty((n, n_rec))
        for g0 in range(0, n, group):
            g1 = min(n, g0 + group)
            init = np.repeat(states[g0:g1], replicas, axis=0)
            block = np.empty((rows, g1 - g0, replicas))
            last = np.empty(block.shape[1:])  # f at the previous node
            panel = np.empty(block.shape[1:])
            i = 0  # sampled rows so far
            # step_windows is looked up as a module global on each call, so
            # a wrapper installed on this module sees every step
            for j, window in step_windows(self.model, init, sample_at[-1], self.dt, rng.child(g0)):
                if j != sample_at[i]:
                    continue
                node = f.values(window).reshape(last.shape)  # may alias the ring buffer
                r = i % rows
                cum = block[r]  # block[r - 1] is the previous row, also across blocks
                if i == 0:
                    cum[...] = node if h is None else 0.0
                elif h is None:
                    np.add(block[r - 1], node, out=cum)
                else:
                    # panel = 0.5 * (last + node) * h, in that order, in place
                    np.add(last, node, out=panel)
                    panel *= 0.5
                    panel *= h
                    np.add(block[r - 1], panel, out=cum)
                if h is not None:
                    last[...] = node
                i += 1
                if r == rows - 1 or i == n_rec:
                    done = block[: r + 1]
                    values[g0:g1, i - r - 1 : i] = done.mean(axis=-1).T
                    ses[g0:g1, i - r - 1 : i] = (done.std(axis=-1, ddof=1) / math.sqrt(replicas)).T
        return GridProfile(grid, values, ses)

    def integral_profile(self, f, states, t_max, quad_step, replicas, rng):
        stride = grid_steps(quad_step, self.dt, "quad_step")
        n_steps = grid_steps(t_max, self.dt, "t_max")
        n_steps -= n_steps % stride
        h = stride * self.dt
        grid = np.arange(n_steps // stride + 1) * h
        return self._profile(
            grid, f, states, range(0, n_steps + 1, stride), replicas, rng, h,
        )

    def discrete_profile(self, f, states, k_from, k_max, replicas, rng):
        if k_from < 0 or k_max < k_from:
            raise ValueError("need 0 <= k_from <= k_max")
        per_unit = grid_steps(1.0, self.dt, "unit time")
        return self._profile(
            np.arange(k_from, k_max + 1), f, states,
            range(k_from * per_unit, k_max * per_unit + 1, per_unit), replicas, rng,
        )


def _closed_form(f: Observable, states: np.ndarray, grid: np.ndarray, cum: np.ndarray) -> GridProfile:
    """Profile ``f(states) ⊗ cum`` of a kernel that scales ``f`` by a known
    weight at each time; its standard errors are 0."""
    vals = f.values(np.asarray(states, dtype=float))[:, None] * cum[None, :]
    return GridProfile(grid, vals, np.zeros_like(vals))


class ExpDecayKernel(SemigroupEvaluator):
    """Synthetic rule ``P_t g = exp(-rate * t) * g`` applied to any observable."""

    def __init__(self, rate: float = 1.0):
        if not (rate > 0):  # a NaN rate fails too
            raise ValueError("rate must be positive")
        self.rate = rate

    def integral_profile(self, f, states, t_max, quad_step, replicas, rng):
        grid = np.arange(grid_steps(t_max, quad_step, "t_max") + 1) * quad_step
        shape = np.exp(-self.rate * grid)
        panels = 0.5 * (shape[:-1] + shape[1:]) * quad_step
        return _closed_form(f, states, grid, np.concatenate([[0.0], np.cumsum(panels)]))

    def discrete_profile(self, f, states, k_from, k_max, replicas, rng):
        ks = np.arange(k_from, k_max + 1)
        return _closed_form(f, states, ks, np.cumsum(np.exp(-self.rate * ks)))


class IidKernel(SemigroupEvaluator):
    """Synthetic rule for a chain that forgets its state in one step.

    ``P_0 f = f`` and ``P_k f = stationary_mean`` for k >= 1 (zero for a
    centered observable), so the shifted corrector vanishes identically.
    """

    def __init__(self, stationary_mean: float = 0.0):
        self.stationary_mean = stationary_mean

    def discrete_profile(self, f, states, k_from, k_max, replicas, rng):
        ks = np.arange(k_from, k_max + 1)
        terms = np.full(ks.size, self.stationary_mean)
        vals = np.tile(np.cumsum(terms), (states.shape[0], 1))
        if k_from == 0:
            vals += f.values(np.asarray(states, dtype=float))[:, None] - self.stationary_mean
        return GridProfile(ks, vals, np.zeros_like(vals))


class IidChain(IidKernel):
    """Degenerate chain that resamples an independent segment every unit step."""

    def __init__(self, sampler: Callable[[np.random.Generator, int], np.ndarray], stationary_mean: float = 0.0):
        """``sampler(gen, n)`` must return n fresh segment value arrays (n, m+1, d)."""
        super().__init__(stationary_mean)
        self.sampler = sampler

    def unit_states(self, start_values: np.ndarray, n_units: int, rng: RngStream) -> np.ndarray:
        start_values = np.asarray(start_values, dtype=float)
        n = start_values.shape[0]
        gen = rng.generator()
        out = np.empty((n_units + 1,) + start_values.shape)
        out[0] = start_values
        for k in range(1, n_units + 1):
            draw = np.asarray(self.sampler(gen, n), dtype=float)
            if draw.shape != start_values.shape:
                raise ShapeError("i.i.d. sampler returned mismatched segment shapes")
            out[k] = draw
        return out
