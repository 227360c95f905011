"""Ensemble simulation, invariant-measure sampling, and mixing-rate fits.

The stationary law has no closed form for a general path-dependent model, so
its stand-in everywhere is a pooled, thinned, burn-in-discarded ensemble whose
size is recorded alongside every estimate that uses it.  The exponential
mixing rate is fitted from the decay of a coupling distance between an
evolving ensemble and that stationary reference, evolved alongside it under
shared noise (synchronous coupling).  At each time the distance is the mean
of rho over the coupled pairs, E rho(X_t, Y_t), which bounds the transport
distance W_rho(mu P_t, nu P_t) from above: the route by which mixing is
shown for delay equations (Hairer, Mattingly & Scheutzow 2011).  The paired
contraction removes the same-law sampling floor, so the distances can decay
to zero.

An ensemble steps on its initial segment's grid: the segment is the one
source of the time step, and the step driver rejects windows that do not
span the model's delay on that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ShapeError
from .metric import EmpiricalMeasure, MetricParams, rho_pairs
from .rng import RngStream
from .segments import ModelSpec, Segment, _step_list, grid_steps, record, step_windows
from .stats import ols_line

__all__ = [
    "RateFit",
    "sample_invariant",
    "ergodicity_curve",
    "coupled_snapshots",
]


@dataclass(frozen=True)
class RateFit:
    """Fitted exponential-decay law ``value(t) ~ c_hat * exp(-beta_hat * t)``.

    ``times``/``values`` are the points the fit actually used (strictly
    positive values, strictly increasing times); dropped points sit at or
    below 1e-13.
    """

    c_hat: float
    beta_hat: float
    r_squared: float
    times: np.ndarray
    values: np.ndarray
    se_beta: float = math.nan
    n_dropped: int = 0
    flagged: bool = False
    note: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.size != v.size:
            raise ShapeError("times and values must align")
        if t.size and (np.diff(t) <= 0).any():
            raise ValueError("fit times must be strictly increasing")
        if not (v > 0).all():  # NaN fails too
            raise ValueError("fit values must be strictly positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def tail_integral_bound(self, t_max: float) -> float:
        """Bound on ``integral_{t_max}^inf c e^{-beta t} dt`` from the fit."""
        return self.c_hat * math.exp(-self.beta_hat * t_max) / self.beta_hat

    def tail_sum_bound(self, k_max: int) -> float:
        """Bound on ``sum_{k > k_max} c e^{-beta k}`` from the fit."""
        r = math.exp(-self.beta_hat)
        return self.c_hat * r ** (k_max + 1) / (1.0 - r)


def sample_invariant(
    model: ModelSpec,
    initial: Segment,
    n_traj: int,
    burn_in: float,
    thinning: float,
    rng: RngStream,
    samples_per_traj: int = 1,
) -> EmpiricalMeasure:
    """Approximate the invariant law by a pooled, thinned ensemble.

    Runs ``n_traj`` independent trajectories from ``initial`` on its grid,
    with ``rng.child(0)`` owning every draw, discards ``burn_in`` time
    units, then retains one segment every ``thinning`` time units
    (``samples_per_traj`` of them per trajectory).  ``thinning`` must be a
    positive whole number of steps.  Atoms carry their source-trajectory
    index as group labels so downstream standard errors can respect
    within-trajectory correlation.
    """
    if not n_traj >= 1:
        raise ValueError("n_traj must be at least 1")
    if not burn_in >= 0:
        raise ValueError("burn_in must be non-negative")
    if not thinning > 0:
        raise ValueError("thinning must be positive")
    if not samples_per_traj >= 1:
        raise ValueError("samples_per_traj must be at least 1")
    step = initial.step
    burn_idx = int(math.ceil(burn_in / step - 1e-9))
    stride = grid_steps(thinning, step, "thinning")
    indices = [burn_idx + (j + 1) * stride for j in range(samples_per_traj)]
    initials = np.broadcast_to(initial.values, (n_traj,) + initial.values.shape).copy()
    snaps, _ = record(model, initials, indices[-1], step, rng.child(0), sample_at=indices)
    atoms = snaps.transpose(1, 0, 2, 3)  # (n_traj, n_snap, m+1, d)
    values = atoms.reshape(n_traj * samples_per_traj, atoms.shape[2], atoms.shape[3])
    groups = np.repeat(np.arange(n_traj), samples_per_traj)
    return EmpiricalMeasure(values, model.delay, step, groups=groups)


def coupled_snapshots(
    model: ModelSpec,
    initial_a: np.ndarray,
    initial_b: np.ndarray,
    step_indices: Sequence[int],
    step: float,
    rng: RngStream,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Evolve two equal-width ensembles under shared Gaussian increments.

    Trajectory i of each ensemble consumes the same noise, realizing the
    synchronous coupling: each marginal stays exact while paired states
    contract under the dissipative drift.  Both ensembles run as one
    batch with ``step_windows``' shared pairing, stepped in blocks that end
    at the wanted steps.  The returned iterator yields the (A, B) windows
    at the sorted distinct step indices, one pair at a time; they are
    read-only views of the ring buffer, valid until the next pair is
    requested, so a consumer that keeps a pair copies it.  The stepping
    pauses while a pair is in use, and no step past it has been taken: one
    pair of windows is alive however many steps are wanted, and the initial
    batches are not kept once the ring holds them.  The two shapes and the
    steps (integers, numpy integers too, and non-negative) are checked on
    the call, the batch against the model when the first pair is requested.
    """
    a = np.asarray(initial_a, dtype=float)
    b = np.asarray(initial_b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError("coupled ensembles must have identical shapes")
    wanted = _step_list(step_indices, "snapshot steps")
    if min(wanted, default=0) < 0:
        raise ValueError("snapshot steps must be non-negative")
    windows = step_windows(
        model, np.concatenate([a, b]), max(wanted, default=0), step, rng, pairing="shared",
        at=wanted,
    )
    n = a.shape[0]
    return ((window[:n], window[n:]) for _, window in windows)


def ergodicity_curve(
    model: ModelSpec,
    initial_a: Segment,
    initial_b: EmpiricalMeasure,
    times: Sequence[float],
    mp: MetricParams,
    n_traj: int,
    rng: RngStream,
) -> RateFit:
    """Fit the exponential decay rate of the coupling distance to equilibrium.

    ``n_traj`` trajectories launched from ``initial_a`` are compared at each
    time against a reference built from ``initial_b``, which must lie on
    ``initial_a``'s grid; the time step is ``initial_a.step`` and every draw
    comes from ``rng``.

    The reference atoms are evolved alongside the main ensemble under shared
    Gaussian increments (synchronous coupling).  Both point clouds keep their
    exact marginals (for a stationary ``initial_b`` the evolved cloud remains
    stationary at every time), while the paired contraction removes the
    same-law sampling floor that a fixed reference suffers, so the measured
    distances can decay to zero.  No floor is measured: the fit keeps the
    points above 1e-13.

    Trajectory i is paired with reference atom ``i mod initial_b.n``, and the
    distance at each time is the mean of ``rho_pairs`` over all ``n_traj``
    pairs: a coupling bound on the transport distance, at O(n_traj) cost.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    step = initial_a.step
    if initial_b.step != step or initial_b.values.shape[1:] != initial_a.values.shape:
        raise ShapeError("the reference measure must lie on the initial segment's grid")
    times = np.asarray(list(times), dtype=float)
    indices = [grid_steps(t, step, "time") for t in times]
    # distinct steps: coupled_snapshots yields one pair per step
    if times.size == 0 or (np.diff(indices) <= 0).any():
        raise ValueError("times must be non-empty and fall on strictly increasing steps")

    # the starts go straight into the stream, which drops them once the ring
    # holds them; each pair of windows is reduced before the ensemble steps on
    reps = int(math.ceil(n_traj / initial_b.n))
    pairs = coupled_snapshots(
        model,
        np.broadcast_to(initial_a.values, (n_traj,) + initial_a.values.shape),
        np.tile(initial_b.values, (reps, 1, 1))[:n_traj],
        indices,
        step,
        rng.child(1),
    )
    distances = np.array([rho_pairs(snap_a, snap_b, mp).mean() for snap_a, snap_b in pairs])

    usable = distances > 1e-13
    n_dropped = int((~usable).sum())
    t_fit, v_fit = times[usable], distances[usable]
    if t_fit.size < 3:
        return RateFit(
            c_hat=math.nan,
            beta_hat=math.nan,
            r_squared=0.0,
            times=t_fit,
            values=v_fit,
            n_dropped=n_dropped,
            flagged=True,
            note="fewer than 3 points above the noise floor; rate unconstrained",
        )
    fit = ols_line(t_fit, np.log(v_fit))
    return RateFit(
        c_hat=float(math.exp(fit.intercept)),
        beta_hat=-fit.slope,
        r_squared=fit.r_squared,
        times=t_fit,
        values=v_fit,
        se_beta=fit.se_slope,
        n_dropped=n_dropped,
        flagged=not (-fit.slope > 0),  # a NaN slope is flagged
        note="" if -fit.slope > 0 else "fitted rate is not positive",
    )
