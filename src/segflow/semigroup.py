"""Transition-semigroup estimators and synthetic test kernels.

Everything downstream of simulation that needs ``P_t f(xi) = E f(X_t^xi)``
goes through a :class:`SemigroupEvaluator`.  The default evaluator runs the
integrator; synthetic kernels with closed-form action are injectable in its
place so the correction/variance machinery can be tested against exact
values.  All evaluators share one convention: state batches have shape
``(n, m+1, d)`` and every estimate at several times reuses common paths
(common random numbers), which is what makes time-quadratures of semigroup
values cheap and smooth.
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
from .segments import ModelSpec, grid_steps, record

__all__ = [
    "GridProfile",
    "SemigroupEvaluator",
    "MonteCarloSemigroup",
    "ExpDecayKernel",
    "GeometricKernel",
    "IidKernel",
    "SdeChain",
    "IidChain",
    "kernel_registry",
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


def _running_trapezoid(nodes: np.ndarray, h: float) -> np.ndarray:
    """Overwrite the rows of ``nodes`` with their cumulative trapezoid sums
    (spacing ``h``), accumulated from 0.0 in row order."""
    prev = nodes[0].copy()
    nodes[0] = 0.0
    for k in range(1, nodes.shape[0]):
        panel = 0.5 * (prev + nodes[k]) * h
        prev[:] = nodes[k]
        np.add(nodes[k - 1], panel, out=nodes[k])
    return nodes


class SemigroupEvaluator(ABC):
    """Time quadratures and unit-lag sums of ``P_t f`` at a batch of states."""

    @abstractmethod
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
    """Default evaluator: simulate replica trajectories from each state.

    One batch of ``replicas`` paths per state provides every requested time
    simultaneously; standard errors are across-replica.
    """

    def __init__(self, model: ModelSpec, dt: float):
        self.model = model
        self.dt = dt

    def _run(self, f, states, n_steps, record_steps, replicas, rng):
        """Simulate replicas per state; return f-values (n, n_rec, replicas)
        sampled at the (distinct) record_steps."""
        states = np.asarray(states, dtype=float)
        n = states.shape[0]
        group = max(1, _MAX_WIDTH // max(1, replicas))
        out = np.empty((n, len(record_steps), replicas))
        for g0 in range(0, n, group):
            g1 = min(n, g0 + group)
            init = np.repeat(states[g0:g1], replicas, axis=0)
            vals, _ = record(
                self.model, init, n_steps, self.dt, rng.child(g0),
                sample_at=record_steps, sample=f.values,
            )
            out[g0:g1] = vals.reshape(len(record_steps), g1 - g0, replicas).transpose(1, 0, 2)
        return out

    def integral_profile(self, f, states, t_max, quad_step, replicas, rng):
        dt = self.dt
        stride = grid_steps(quad_step, dt, "quad_step")
        n_steps = grid_steps(t_max, dt, "t_max")
        n_steps -= n_steps % stride
        n_q = n_steps // stride  # quadrature nodes past t=0

        states = np.asarray(states, dtype=float)
        n = states.shape[0]
        grid = np.arange(n_q + 1) * (stride * dt)
        group = max(1, _MAX_WIDTH // max(1, replicas))
        values = np.empty((n, n_q + 1))
        ses = np.empty((n, n_q + 1))
        for g0 in range(0, n, group):
            g1 = min(n, g0 + group)
            init = np.repeat(states[g0:g1], replicas, axis=0)
            nodes, _ = record(
                self.model, init, n_steps, dt, rng.child(g0),
                sample_at=range(0, n_steps + 1, stride), sample=f.values,
            )
            cums = _running_trapezoid(nodes, stride * dt).T.reshape(g1 - g0, replicas, n_q + 1)
            values[g0:g1] = cums.mean(axis=1)
            ses[g0:g1] = cums.std(axis=1, ddof=1) / math.sqrt(replicas)
        return GridProfile(grid, values, ses)

    def discrete_profile(self, f, states, k_from, k_max, replicas, rng):
        if k_from < 0 or k_max < k_from:
            raise ValueError("need 0 <= k_from <= k_max")
        per_unit = grid_steps(1.0, self.dt, "unit time")
        record = [k * per_unit for k in range(k_from, k_max + 1)]
        samples = self._run(f, states, k_max * per_unit, record, replicas, rng)
        cums = samples.cumsum(axis=1)  # (n, K, replicas)
        grid = np.arange(k_from, k_max + 1)
        return GridProfile(
            grid,
            cums.mean(axis=2),
            cums.std(axis=2, ddof=1) / math.sqrt(replicas),
        )


def _state_values(f: Observable, states: np.ndarray) -> np.ndarray:
    return f.values(np.asarray(states, dtype=float))


class ExpDecayKernel(SemigroupEvaluator):
    """Synthetic rule ``P_t g = exp(-rate * t) * g`` applied to any observable."""

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate

    def integral_profile(self, f, states, t_max, quad_step, replicas, rng):
        n_q = grid_steps(t_max, quad_step, "t_max")
        grid = np.arange(n_q + 1) * quad_step
        shape = np.exp(-self.rate * grid)
        # trapezoid of the decay shape, cumulative over the quad grid
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (shape[1:] + shape[:-1]) * quad_step)])
        base = _state_values(f, states)
        vals = base[:, None] * cum[None, :]
        return GridProfile(grid, vals, np.zeros_like(vals))

    def discrete_profile(self, f, states, k_from, k_max, replicas, rng):
        ks = np.arange(k_from, k_max + 1)
        cum = np.cumsum(np.exp(-self.rate * ks))
        base = _state_values(f, states)
        vals = base[:, None] * cum[None, :]
        return GridProfile(ks, vals, np.zeros_like(vals))


class GeometricKernel(SemigroupEvaluator):
    """Synthetic discrete rule ``P_k g = ratio^k * g``."""

    def __init__(self, ratio: float = 0.5):
        if not (0 < ratio < 1):
            raise ValueError("ratio must lie in (0, 1)")
        self.ratio = ratio

    def integral_profile(self, f, states, t_max, quad_step, replicas, rng):
        raise NotImplementedError("geometric kernel has no continuous-time action")

    def discrete_profile(self, f, states, k_from, k_max, replicas, rng):
        ks = np.arange(k_from, k_max + 1)
        cum = np.cumsum(self.ratio**ks.astype(float))
        base = _state_values(f, states)
        vals = base[:, None] * cum[None, :]
        return GridProfile(ks, vals, np.zeros_like(vals))


class IidKernel(SemigroupEvaluator):
    """Synthetic rule for a chain that forgets its state in one step.

    ``P_0 f = f`` and ``P_k f = stationary_mean`` for k >= 1 (zero for a
    centered observable), so the shifted corrector vanishes identically.
    """

    def __init__(self, stationary_mean: float = 0.0):
        self.stationary_mean = stationary_mean

    def integral_profile(self, f, states, t_max, quad_step, replicas, rng):
        raise NotImplementedError("i.i.d. kernel has no continuous-time action")

    def discrete_profile(self, f, states, k_from, k_max, replicas, rng):
        ks = np.arange(k_from, k_max + 1)
        terms = np.full(ks.size, self.stationary_mean)
        if k_from == 0:
            base = _state_values(f, states)
            vals = np.tile(np.cumsum(terms), (states.shape[0], 1))
            vals += base[:, None] - self.stationary_mean
            return GridProfile(ks, vals, np.zeros_like(vals))
        vals = np.tile(np.cumsum(terms), (states.shape[0], 1))
        return GridProfile(ks, vals, np.zeros_like(vals))


class SdeChain:
    """Unit-time skeleton of the SDE: states sampled at integer times."""

    def __init__(self, model: ModelSpec, dt: float):
        self.model = model
        self.dt = dt
        self.per_unit = grid_steps(1.0, dt, "unit time")

    def unit_states(
        self, start_values: np.ndarray, n_units: int, rng: RngStream
    ) -> np.ndarray:
        """Run ``n_units`` unit steps; returns states (n_units+1, n, m+1, d)."""
        n_steps = n_units * self.per_unit
        states, _ = record(
            self.model, start_values, n_steps, self.dt, rng,
            sample_at=range(0, n_steps + 1, self.per_unit),
        )
        return states

    def evaluator(self) -> SemigroupEvaluator:
        return MonteCarloSemigroup(self.model, self.dt)


class IidChain:
    """Degenerate chain that resamples an independent segment every unit step."""

    def __init__(self, sampler: Callable[[np.random.Generator, int], np.ndarray], stationary_mean: float = 0.0):
        """``sampler(gen, n)`` must return n fresh segment value arrays (n, m+1, d)."""
        self.sampler = sampler
        self.stationary_mean = stationary_mean

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

    def evaluator(self) -> SemigroupEvaluator:
        return IidKernel(self.stationary_mean)


def kernel_registry() -> dict[str, Callable[..., SemigroupEvaluator]]:
    """Synthetic kernels injectable by name (the default MC evaluator is built
    from a model and step size instead)."""
    return {
        "exp_decay": ExpDecayKernel,
        "geometric": GeometricKernel,
        "iid": IidKernel,
    }
