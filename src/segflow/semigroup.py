"""Unit-time Markov chains, their transition semigroups, and test kernels.

Everything downstream of simulation that needs ``P_t f(xi) = E f(X_t^xi)``
asks a :class:`SemigroupEvaluator`, through its one method
``profile_groups``, for running time quadratures of ``P_t f`` or unit-lag
sums ``sum_{k=0}^K P_k f`` at a batch of states: the corrector has this one
form.  A chain is the evaluator of its own semigroup:
:class:`MonteCarloSemigroup` samples the SDE at integer times and
estimates ``P_t`` by simulation, :class:`IidChain` resamples independent
segments and knows its semigroup in closed form.  :class:`ExpDecayKernel`
has closed-form action too and is injectable in their place, so the
correction/variance machinery can be tested against exact values.  State
batches have shape ``(n, m+1, d)``, and every estimate at several times
reuses common paths (common random numbers), which makes time-quadratures
of semigroup values cheap and smooth.  For an observable declared
``antithetic`` the paths come in mirrored pairs, driven by the normals ``z``
and ``-z`` (antithetic variates): a pair's mean is unbiased, it varies far
less than two independent paths, and the pair draws one set of normals.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Generator, Optional

import numpy as np

from .errors import ShapeError
from .metric import Observable
from .rng import RngStream
from .segments import ModelSpec, grid_steps, record, step_windows

__all__ = [
    "SemigroupEvaluator",
    "MonteCarloSemigroup",
    "ExpDecayKernel",
    "IidChain",
]


# Paths per simulated batch: states are grouped so replicas x states fits.
_MAX_WIDTH = 4096

# One state group of a streamed profile: states ``g0:g1`` and, checkpoint by
# checkpoint, their running values and standard errors (None when not asked).
ProfileGroup = tuple[int, int, Generator[tuple[np.ndarray, Optional[np.ndarray]], None, None]]


class SemigroupEvaluator(ABC):
    """Time quadratures and unit-lag sums of ``P_t f`` at a batch of states."""

    @abstractmethod
    def profile_groups(
        self,
        f: Observable,
        states: np.ndarray,
        horizon: float,
        replicas: int,
        rng: RngStream,
        quad_step: Optional[float] = None,
        ses: bool = True,
    ) -> tuple[np.ndarray, list[ProfileGroup]]:
        """A profile as state groups whose checkpoints arrive one at a time.

        Given ``quad_step`` it is the cumulative trapezoid of ``t -> P_t f``
        on the grid of step ``quad_step`` up to ``t_max = horizon`` (a
        discrete-time kernel raises :class:`NotImplementedError`), otherwise
        the cumulative sums ``sum_{k=0}^K P_k f`` for K = 0 .. ``horizon``.
        Returns the checkpoint grid and the groups, each ``(g0, g1,
        columns)``: ``columns`` yields, for checkpoint 0, 1, ...
        in turn, the values of states ``g0:g1`` and, with ``ses``, their
        standard errors over ``replicas``.
        """


class MonteCarloSemigroup(SemigroupEvaluator):
    """The SDE's unit-time chain and its semigroup, both by simulation.

    Profiles run ``replicas`` paths per state, one batch giving every time:
    ``replicas/2`` mirrored pairs for an antithetic observable and an even
    count of at least 4, with standard errors from the pair means, and
    otherwise independent paths with across-replica standard errors.  Only
    the unit-time methods need ``dt`` to divide the unit time, so any
    ``dt`` constructs.
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

    def profile_groups(self, f, states, horizon, replicas, rng, quad_step=None, ses=True):
        """Each group of g states that fits one batch of ``replicas`` paths
        per state runs on ``rng.child(g0)`` when its columns are read, and
        steps only as far as they are read."""
        if quad_step is None:
            per_unit = grid_steps(1.0, self.dt, "unit time")
            grid = np.arange(horizon + 1)
            sample_at = range(0, horizon * per_unit + 1, per_unit)
            h = None
        else:
            stride = grid_steps(quad_step, self.dt, "quad_step")
            panels = grid_steps(horizon, quad_step, "t_max")
            h = stride * self.dt
            grid = np.arange(panels + 1) * h
            sample_at = range(0, panels * stride + 1, stride)
        states = np.asarray(states, dtype=float)
        n = states.shape[0]
        group = max(1, _MAX_WIDTH // max(1, replicas))
        return grid, [
            (g0, min(n, g0 + group),
             self._profile(f, states[g0 : g0 + group], sample_at, replicas, rng.child(g0), h, ses))
            for g0 in range(0, n, group)
        ]

    def _profile(self, f, states, sample_at, replicas, rng, h, ses):
        """Per-state mean and SE over replicas of a running profile, a row at a time.

        The batch lays each state's ``replicas`` paths out in one block or,
        for an antithetic ``f`` with an even count of at least 4, in two
        mirrored blocks of ``replicas/2``: the second block's paths take the
        negated normals of the first's (``step_windows``' antithetic
        pairing).  ``f`` is sampled at the steps ``sample_at``, the only
        steps the driver yields, and no step past the last row read is
        taken; each sampled row is summed over the blocks into one value
        per pair (per path with one block), which becomes its running
        trapezoid with spacing ``h``
        (from 0.0) or, with ``h`` None, its running sum as it arrives.  The
        mean is over all ``replicas`` paths.  Its SE comes from the
        ``replicas/2`` pair means, not from the paths, because a path and
        its mirror vary against each other.  With one block both are bitwise
        the across-replica reduction of the whole (n_rec, g, replicas) array.
        """
        blocks = 2 if f.antithetic and replicas % 2 == 0 and replicas >= 4 else 1
        g, rest = states.shape[0], states.shape[1:]
        shape = (g, replicas // blocks)
        se_scale = blocks * math.sqrt(shape[1])  # sqrt(replicas) with one block
        cum = np.empty(shape)
        node = np.empty(shape)  # f of the current row, summed over the blocks
        last = np.empty(shape)  # the same at the previous row
        panel = np.empty(shape)
        i = 0  # sampled rows so far
        # step_windows is looked up as a module global on each call, so
        # a wrapper installed on this module sees every step; the repeated
        # states (one copy, block-major) are not kept here, so the ring
        # alone holds them
        windows = step_windows(
            self.model,
            np.broadcast_to(states[None, :, None], (blocks,) + shape + rest).reshape((-1,) + rest),
            sample_at[-1], self.dt, rng, pairing="antithetic" if blocks == 2 else "none",
            at=sample_at,
        )
        for _, window in windows:
            np.add.reduce(f.values(window).reshape((blocks,) + shape), axis=0, out=node)
            if i == 0:
                cum[...] = node if h is None else 0.0
            elif h is None:
                cum += node
            else:
                # panel = 0.5 * (last + node) * h, in that order, in place
                np.add(last, node, out=panel)
                panel *= 0.5
                panel *= h
                cum += panel
            last, node = node, last
            i += 1
            # ndarray.mean's sum and division, without its Python wrapper
            mean = np.add.reduce(cum, axis=-1)
            mean /= replicas
            yield mean, cum.std(axis=-1, ddof=1) / se_scale if ses else None


def _one_group(grid: np.ndarray, values: np.ndarray, ses: bool) -> tuple[np.ndarray, list[ProfileGroup]]:
    """A closed-form profile ``values`` (n_states, len(grid)) as one group
    whose standard errors are 0."""
    n = values.shape[0]
    columns = ((values[:, c], np.zeros(n) if ses else None) for c in range(len(grid)))
    return grid, [(0, n, columns)]


class ExpDecayKernel(SemigroupEvaluator):
    """Synthetic rule ``P_t g = exp(-rate * t) * g`` applied to any observable."""

    def __init__(self, rate: float = 1.0):
        if not (rate > 0):  # a NaN rate fails too
            raise ValueError("rate must be positive")
        self.rate = rate

    def profile_groups(self, f, states, horizon, replicas, rng, quad_step=None, ses=True):
        if quad_step is None:
            grid = np.arange(horizon + 1)
            cum = np.cumsum(np.exp(-self.rate * grid))
        else:
            grid = np.arange(grid_steps(horizon, quad_step, "t_max") + 1) * quad_step
            shape = np.exp(-self.rate * grid)
            panels = 0.5 * (shape[:-1] + shape[1:]) * quad_step
            cum = np.concatenate([[0.0], np.cumsum(panels)])
        return _one_group(grid, f.values(np.asarray(states, dtype=float))[:, None] * cum[None, :], ses)


class IidChain(SemigroupEvaluator):
    """Degenerate chain that resamples an independent segment every unit step.

    Its semigroup, on the centered observables it serves, has closed-form
    action: ``P_0 f = f`` and ``P_k f = 0`` for k >= 1, so every partial sum
    of the corrector is ``f`` itself.  It has no continuous-time action.
    """

    def __init__(self, sampler: Callable[[np.random.Generator, int], np.ndarray]):
        """``sampler(gen, n)`` must return n fresh segment value arrays (n, m+1, d)."""
        self.sampler = sampler

    def profile_groups(self, f, states, horizon, replicas, rng, quad_step=None, ses=True):
        if quad_step is not None:
            raise NotImplementedError(f"{type(self).__name__} has no continuous-time action")
        ks = np.arange(horizon + 1)
        vals = np.repeat(f.values(np.asarray(states, dtype=float))[:, None], ks.size, axis=1)
        return _one_group(ks, vals, ses)

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
