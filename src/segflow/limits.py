"""SLLN time averages, correctors, variance constants, CLT and LIL machinery.

Estimator conventions
---------------------
* Centering.  The limit theorems hold for observables with zero stationary
  mean; :class:`CenteredObservable` subtracts a recorded stationary-sample
  mean and carries its standard error.
* Split corrector estimates.  Squares and products of corrector values are
  computed from two independent half-estimates (``A`` and ``B`` streams):
  ``E[(Z + a)(Z + b)] = E[Z^2]`` when the half-noises ``a, b`` are independent
  and centered, so variance-type quantities carry no noise-squared bias.
  The corrector config's type picks the scheme: a :class:`CorrectorConfig`
  integrates ``P_t f`` in continuous time, a :class:`DiscreteCorrectorConfig`
  sums ``P_k f`` at unit lags.  :func:`_increments` is the one place the
  split one-step increment ``integral + end.{a,b} - base.{a,b}`` is built,
  and :func:`_phi_per_state` the one place its products become the one-step
  variance functional and its standard errors.
* Truncation.  Corrector tails are bounded through a fitted decay rate; the
  truncation point is the earliest checkpoint where that bound drops below a
  fraction of the running estimate (capped by the configured maximum).
* Discrete increments.  The unit-time martingale difference is
  ``Z_k = f(X_{k-1}) + R(X_k) - R(X_{k-1})`` with the corrector
  ``R = sum_{j>=0} P_j f``, the one every discrete pipeline estimates.  Its
  one-step conditional mean vanishes and its square reproduces the discrete
  variance functional.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import EstimatorInconsistencyError
from .ergodic import RateFit
from .metric import EmpiricalMeasure, Observable
from .rng import RngStream
from .segments import ModelSpec, Segment, grid_steps, record
from .semigroup import MonteCarloSemigroup, ProfileGroup, SemigroupEvaluator
from .stats import (
    batch_means_se,
    bootstrap_se,
    grouped_mean_se,
    kolmogorov_statistic,
    ols_line,
    weighted_degenerate_statistic,
)

__all__ = [
    "CenteredObservable",
    "CorrectorConfig",
    "DiscreteCorrectorConfig",
    "CorrectorEstimate",
    "PhiEstimate",
    "VarianceReport",
    "VphReport",
    "CltReport",
    "SllnReport",
    "MartingaleSequence",
    "QvReport",
    "QvLlnReport",
    "LilReport",
    "slln_variance_decay",
    "corrector",
    "phi_f",
    "variance_D",
    "vph_residual",
    "clt_statistic",
    "clt_test",
    "martingale_increments",
    "quadratic_variation",
    "qv_lln_check",
    "lil_run",
    "rescaled_path_nodes",
]

# A time-average variance must decay at least like 1/t; slower than this
# log-log slope fails the SLLN check.
_SLOPE_GATE = -0.75
# Standard errors within which the martingale growth ratios must match D^2.
_QV_GATE_SE = 3.0

# ---------------------------------------------------------------------------
# observables and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CenteredObservable:
    """Observable minus its recorded stationary mean.

    ``mu_f`` is estimated from a stationary sample of ``n_sample`` atoms;
    ``mu_f_se`` is its standard error (group-aware when the sample carries
    trajectory labels) and propagates into downstream error bars.
    """

    base: Observable
    mu_f: float
    mu_f_se: float
    n_sample: int = 0

    @classmethod
    def from_stationary(cls, base: Observable, stationary: EmpiricalMeasure) -> "CenteredObservable":
        vals = base.values(stationary.values)
        mean, se = grouped_mean_se(vals, stationary.groups)
        return cls(base, mean, se, stationary.n)

    @property
    def name(self) -> str:
        return f"{self.base.name}_centered"

    @property
    def declared_norm(self) -> Optional[float]:
        return self.base.declared_norm

    @property
    def antithetic(self) -> bool:
        """The base's: subtracting a constant keeps a statistic odd or affine."""
        return self.base.antithetic

    def values(self, seg_values: np.ndarray) -> np.ndarray:
        return self.base.values(seg_values) - self.mu_f


AnyObservable = Union[Observable, CenteredObservable]


@dataclass(frozen=True)
class CorrectorConfig:
    """Continuous-time corrector quadrature knobs.

    ``replicas`` is the total inner Monte Carlo budget per state; it is split
    into two independent halves.  ``rate_fit`` must be a usable fit: the tail
    bound and the automatic truncation rule both come from it.
    """

    rate_fit: Optional[RateFit]
    t_max: float
    replicas: int
    auto_truncate: bool = True
    tail_fraction: float = 0.1


@dataclass(frozen=True)
class DiscreteCorrectorConfig:
    """Unit-lag corrector summation knobs (discrete analogue of the above)."""

    rate_fit: Optional[RateFit]
    k_max: int
    replicas: int
    auto_truncate: bool = True
    tail_fraction: float = 0.1


AnyCorrectorConfig = Union[CorrectorConfig, DiscreteCorrectorConfig]


def _norm_hint(f: AnyObservable) -> float:
    n = getattr(f, "declared_norm", None)
    return 1.0 if n is None else float(n)


# ---------------------------------------------------------------------------
# SLLN statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SllnReport:
    times: np.ndarray
    sq_errors: np.ndarray
    ses: np.ndarray
    exponent: float
    exponent_ci: tuple[float, float]
    passed: bool
    zero_signal: bool
    replicas: int


def _time_average_checkpoints(
    model: ModelSpec,
    xi: Segment,
    f: AnyObservable,
    times: Sequence[float],
    replicas: int,
    rng: RngStream,
) -> np.ndarray:
    """Per-replica time averages A_t at the checkpoint ``times``, shape
    (n_check, R)."""
    dt = xi.step
    check_steps = [grid_steps(t, dt, "time") for t in times]
    init = np.broadcast_to(xi.values, (replicas,) + xi.values.shape).copy()
    _, integrals = record(
        model, init, max(check_steps), dt, rng, integrate_at=check_steps, integrand=f.values
    )
    t = np.asarray(check_steps, dtype=float)[:, None] * dt
    return np.divide(integrals, t, out=np.zeros_like(integrals), where=t > 0)


def slln_variance_decay(
    model: ModelSpec,
    xi: Segment,
    f: CenteredObservable,
    times: Sequence[float],
    replicas: int,
    rng: RngStream,
) -> SllnReport:
    """Fit the decay exponent of ``E|A_t|^2`` for a centered observable.

    The report passes when the log-log slope is at most ``_SLOPE_GATE``
    (-0.75: a time-average variance must decay at least like 1/t).
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    times = np.asarray(list(times), dtype=float)
    if times.size < 2 or not (times.min() > 0):
        raise ValueError("times must be at least two positive values")
    if times.max() / times.min() < 10.0:
        raise ValueError("times must span at least one decade")
    averages = _time_average_checkpoints(model, xi, f, times, replicas, rng.child(0))
    sq = averages**2
    sq_errors = sq.mean(axis=1)
    ses = sq.std(axis=1, ddof=1) / math.sqrt(replicas)
    if np.max(sq_errors) < 1e-300:
        return SllnReport(
            times, sq_errors, ses, math.nan, (math.nan, math.nan), True, True, replicas
        )
    fit = ols_line(np.log(times), np.log(sq_errors))
    ci = (fit.slope - 2 * fit.se_slope, fit.slope + 2 * fit.se_slope)
    return SllnReport(
        times,
        sq_errors,
        ses,
        fit.slope,
        ci,
        passed=bool(fit.slope <= _SLOPE_GATE),
        zero_signal=False,
        replicas=replicas,
    )


# ---------------------------------------------------------------------------
# corrector estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrectorEstimate:
    value: float
    se: float
    tail_bound: float
    truncation: float  # t_max actually used (or k_max for the discrete sum)


@dataclass(frozen=True)
class _HalfValues:
    """Independent half-estimates of corrector values at a state batch,
    with their standard errors when they were asked for (else None)."""

    a: np.ndarray
    b: np.ndarray
    se_a: Optional[np.ndarray]
    se_b: Optional[np.ndarray]
    tail_bound: float
    truncation: float

    def mean(self) -> np.ndarray:
        return 0.5 * (self.a + self.b)


def _halves(
    f: AnyObservable, states: np.ndarray, cfg: AnyCorrectorConfig, sg: SemigroupEvaluator,
    dt: float, rng: RngStream, first_horizon: Optional[float] = None, ses: bool = True,
) -> _HalfValues:
    """Corrector values at ``states`` from two independent half budgets.

    The type of ``cfg`` picks the scheme.  A :class:`CorrectorConfig`
    integrates ``t -> P_t f`` by trapezoid quadrature at step ``dt`` up to
    ``cfg.t_max`` with the :meth:`RateFit.tail_integral_bound`; a
    :class:`DiscreteCorrectorConfig` sums ``P_k f`` for k = 0 .. ``cfg.k_max``
    with the :meth:`RateFit.tail_sum_bound`.  Both are truncated at the earliest
    checkpoint where that tail, scaled by the observable's norm hint, falls
    below ``cfg.tail_fraction`` of the running value (median across states).

    The halves are read a state group of ``sg.profile_groups`` at a time,
    each group's a- and b-profiles in lockstep.  The rule is evaluated at a
    checkpoint once every state has a value there, that is while the last
    group is read, and the profiles stop at the first checkpoint that passes.
    So a one-group batch steps exactly to its truncation.  The groups before
    the last read only up to ``first_horizon``, a truncation expected to hold
    here too (such as the one found at the states these were reached from),
    rounded up to a whole unit of time; if the rule does not pass there, they
    are read again in full and the last group reads on.  The result is the
    same either way: a profile's leading columns do not depend on how many
    follow (same streams, column-wise quadrature and statistics).

    ``ses=False`` skips the standard errors, for callers that read none;
    ``se_a`` and ``se_b`` are then None.
    """
    if cfg.replicas < 4:
        raise ValueError("need at least 4 corrector replicas: two per half")
    fit = cfg.rate_fit
    if fit is None or not (fit.beta_hat > 0):  # a NaN, zero or negative rate bounds no tail
        raise ValueError("corrector needs a usable RateFit for its tail bound")
    half = cfg.replicas // 2
    discrete = isinstance(cfg, DiscreteCorrectorConfig)
    if discrete:
        full, tail, quad_step = cfg.k_max, fit.tail_sum_bound, None
    else:
        full, tail, quad_step = cfg.t_max, fit.tail_integral_bound, dt
    stream = lambda r: sg.profile_groups(f, states, full, half, r, quad_step=quad_step, ses=ses)
    scale = _norm_hint(f)
    bound = lambda x: scale * tail(x.item())

    grid, groups_a = stream(rng.child(0))
    _, groups_b = stream(rng.child(1))
    cols = len(grid)
    values = np.empty((2, cols, len(states)))  # a and b, checkpoint-major
    errors = np.empty(values.shape) if ses else None

    def read(group_a: ProfileGroup, group_b: ProfileGroup, stop: int):
        """Read the first ``stop`` checkpoints of one group's halves,
        yielding each checkpoint's index once it is stored."""
        (g0, g1, col_a), (_, _, col_b) = group_a, group_b
        try:
            for c, ((va, sa), (vb, sb)) in enumerate(itertools.islice(zip(col_a, col_b), stop)):
                values[0, c, g0:g1] = va
                values[1, c, g0:g1] = vb
                if ses:
                    errors[0, c, g0:g1] = sa
                    errors[1, c, g0:g1] = sb
                yield c
        finally:
            col_a.close()
            col_b.close()

    *earlier, last = zip(groups_a, groups_b)
    limit = cols  # checkpoints every group before the last has read
    if earlier and cfg.auto_truncate and first_horizon is not None:
        # a whole unit lies on the dt grid of every caller that takes unit
        # steps; rounding first keeps a grid time like 300 * 0.01 at 3
        first = math.ceil(round(first_horizon, 6))
        if first < full:
            limit = (first if discrete else grid_steps(first, dt, "first horizon")) + 1
    for pair in earlier:
        for _ in read(*pair, limit):
            pass
    idx = cols - 1
    for c in read(*last, cols):
        if c == limit:  # no checkpoint within the first horizon passed
            _, again_a = stream(rng.child(0))
            _, again_b = stream(rng.child(1))
            for pair in list(zip(again_a, again_b))[:-1]:
                for _ in read(*pair, cols):
                    pass
            limit = cols
        if cfg.auto_truncate and c > 0:
            running = np.median(0.5 * (np.abs(values[0, c]) + np.abs(values[1, c])))
            if bound(grid[c]) <= cfg.tail_fraction * max(running, 1e-300):
                idx = c
                break
    return _HalfValues(
        a=values[0, idx].copy(),
        b=values[1, idx].copy(),
        se_a=errors[0, idx].copy() if ses else None,
        se_b=errors[1, idx].copy() if ses else None,
        tail_bound=bound(grid[idx]),
        truncation=float(grid[idx]),
    )


def corrector(
    sg: SemigroupEvaluator,
    f: AnyObservable,
    xi: Segment,
    cfg: AnyCorrectorConfig,
    rng: RngStream,
) -> CorrectorEstimate:
    """Estimate the integrated semigroup deviation at one state.

    Trapezoid quadrature of ``t -> P_t f(xi)`` over the quad grid, with common
    random numbers across the grid, truncated where the fitted-rate tail bound
    falls below ``cfg.tail_fraction`` of the running value.  A
    :class:`DiscreteCorrectorConfig` gives the unit-lag partial sum
    ``sum_{k=0}^{K} P_k f(xi)`` with its geometric tail bound instead.
    """
    halves = _halves(f, xi.values[None], cfg, sg, xi.step, rng)
    return CorrectorEstimate(
        value=float(halves.mean()[0]),
        se=float(0.5 * np.sqrt(halves.se_a**2 + halves.se_b**2)[0]),
        tail_bound=halves.tail_bound,
        truncation=halves.truncation,
    )


# ---------------------------------------------------------------------------
# one-step variance functionals
# ---------------------------------------------------------------------------


def _unit_run(
    model: ModelSpec,
    f: AnyObservable,
    start_values: np.ndarray,
    dt: float,
    rng: RngStream,
    snapshot_steps: Sequence[int] = (),
) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """One unit of time for a batch: returns (unit integrals of f, final
    states, snapshots at requested intermediate steps)."""
    per_unit = grid_steps(1.0, dt, "unit time")
    wanted = sorted(set(int(s) for s in snapshot_steps))
    windows, integrals = record(
        model, start_values, per_unit, dt, rng,
        sample_at=wanted + [per_unit], integrate_at=[per_unit], integrand=f.values,
    )
    return integrals[0], windows[-1], dict(zip(wanted, windows))


def _as_chain(model_or_chain, dt: float) -> SemigroupEvaluator:
    """The Markov chain of a model (its :class:`MonteCarloSemigroup`) or a
    given chain; either is also the default evaluator of its semigroup."""
    if isinstance(model_or_chain, ModelSpec):
        return MonteCarloSemigroup(model_or_chain, dt)
    return model_or_chain


@dataclass(frozen=True)
class _Increments:
    """Split-half one-step martingale increments from a batch of base states.

    ``a``/``b`` hold ``outer`` increments per base state, state-major.
    """

    a: np.ndarray
    b: np.ndarray
    base: _HalfValues  # corrector at the base states
    end: _HalfValues  # corrector at the one-step states
    end_states: np.ndarray
    snapshots: dict


def _increments(
    model_or_chain,
    f: AnyObservable,
    states: np.ndarray,
    outer: int,
    cfg: AnyCorrectorConfig,
    dt: float,
    rng: RngStream,
    sg: Optional[SemigroupEvaluator],
    snapshot_steps: Sequence[int] = (),
) -> _Increments:
    """The one place the increment ``integral + end.{a,b} - base.{a,b}`` is built.

    Each base state takes ``outer`` one-step transitions.  With a
    :class:`CorrectorConfig` the step is one unit of the SDE and the integral
    is ``integral_0^1 f(X_s) ds`` along it (``snapshot_steps`` records
    interior windows), so ``model_or_chain`` must be a :class:`ModelSpec`
    (TypeError otherwise, before any simulation); with a
    :class:`DiscreteCorrectorConfig` the step is one unit of the chain and
    the integral is ``f`` at the base state.
    Streams: base halves on ``rng.child(0)``, transitions on
    ``rng.child(1)``, end halves on ``rng.child(2)``.  Each half profile
    stops at its truncation once every state has a value there (see
    :func:`_halves`); the end halves' state groups before the last first
    read only to the base truncation, since one step on the rule almost
    always passes there already.  Only the base halves carry standard
    errors: no caller reads the end halves' ones.
    """
    discrete = isinstance(cfg, DiscreteCorrectorConfig)
    if not discrete and not isinstance(model_or_chain, ModelSpec):
        raise TypeError(
            f"a continuous corrector integrates f along the SDE and needs a ModelSpec, "
            f"not a {type(model_or_chain).__name__}"
        )
    chain = _as_chain(model_or_chain, dt)
    sg = sg if sg is not None else chain
    base = _halves(f, states, cfg, sg, dt, rng.child(0))
    starts = np.repeat(states, outer, axis=0)
    if discrete:
        ends = chain.unit_states(starts, 1, rng.child(1))[1]
        integrals, snaps = np.repeat(f.values(states), outer), {}
    else:
        integrals, ends, snaps = _unit_run(model_or_chain, f, starts, dt, rng.child(1), snapshot_steps)
    end = _halves(f, ends, cfg, sg, dt, rng.child(2), first_horizon=base.truncation, ses=False)
    return _Increments(
        a=integrals + end.a - np.repeat(base.a, outer),
        b=integrals + end.b - np.repeat(base.b, outer),
        base=base,
        end=end,
        end_states=ends,
        snapshots=snaps,
    )


def _phi_per_state(inc: _Increments, outer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each base state's one-step variance functional from its ``outer``
    split-half increment products.

    Returns per-state arrays: the mean product, its iid standard error across
    the products (NaN for one product), and the term of the base-state
    corrector noise.  That noise is shared by a state's products; its
    first-order effect scales with the mean increment, which is zero in
    expectation.
    """
    a = inc.a.reshape(-1, outer)
    b = inc.b.reshape(-1, outer)
    products = a * b
    value = products.mean(axis=1)
    se = products.std(axis=1, ddof=1) / math.sqrt(outer) if outer > 1 else np.full_like(value, math.nan)
    se_base = np.hypot(np.abs(b.mean(axis=1)) * inc.base.se_a, np.abs(a.mean(axis=1)) * inc.base.se_b)
    return value, se, se_base


@dataclass(frozen=True)
class PhiEstimate:
    value: float
    se: float
    truncation: float
    tail_bound: float
    replicas: int


def phi_f(
    model: ModelSpec,
    f: CenteredObservable,
    xi: Segment,
    replicas: int,
    corrector_cfg: CorrectorConfig,
    rng: RngStream,
    sg: Optional[SemigroupEvaluator] = None,
) -> PhiEstimate:
    """Expected squared one-step martingale increment at ``xi``.

    Monte Carlo over ``replicas`` (at least 2) one-step transitions; each
    squared increment is the product of two half-estimates with independent
    corrector noise, so the estimate is free of inner-noise-squared bias.
    The standard error adds the base-state corrector term of
    :func:`_phi_per_state`.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    inc = _increments(model, f, xi.values[None], replicas, corrector_cfg, xi.step, rng, sg)
    value, se, se_base = _phi_per_state(inc, replicas)
    return PhiEstimate(
        value=float(value[0]),
        se=float(np.hypot(se, se_base)[0]),
        truncation=inc.base.truncation,
        tail_bound=inc.base.tail_bound,
        replicas=replicas,
    )


@dataclass(frozen=True)
class VarianceReport:
    """Stationary variance constant with its independent cross-check.

    ``d_sq`` is the stationary mean of the one-step variance functional and
    ``cross_check`` the transport-identity value ``2 mean(f * R_f)``; their
    difference is reported in units of its (paired, group-aware) standard
    error.  For the unit-lag discrete pipeline the exact identity carries a
    ``- mean(f^2)`` correction, included here.
    """

    d_f: float
    d_sq: float
    d_sq_se: float
    cross_check: float
    cross_check_se: float
    discrepancy: float
    discrepancy_se: float
    discrepancy_in_se: float
    n_atoms: int
    outer_replicas: int
    truncation: float
    tail_bound: float
    discrete: bool
    mu_f_se: float


def variance_D(
    model_or_chain,
    f: CenteredObservable,
    stationary: EmpiricalMeasure,
    cfg: AnyCorrectorConfig,
    rng: RngStream,
    outer_replicas: int = 32,
    sg: Optional[SemigroupEvaluator] = None,
    max_atoms: Optional[int] = None,
) -> VarianceReport:
    """Asymptotic variance of the normalized time average, with cross-check.

    ``d_sq`` averages the one-step variance functional over the stationary
    atoms (at most ``max_atoms``, evenly strided); ``cross_check`` evaluates
    ``2 mean(f * R_f)``, which the Poisson equation makes exactly equal.  The
    config's type picks the scheme: a :class:`CorrectorConfig` gives the
    continuous-time constant of a model, a :class:`DiscreteCorrectorConfig`
    the unit-lag constant of a model or chain.  Standard errors are taken
    across atoms, so one outer replica is allowed.  Raises
    :class:`EstimatorInconsistencyError` when the variance estimate or its
    standard error is NaN, or the estimate is negative beyond two standard
    errors.
    """
    atoms = stationary
    if max_atoms is not None and stationary.n > max_atoms:
        stride = stationary.n / max_atoms
        idx = np.unique((np.arange(max_atoms) * stride).astype(int))
        atoms = stationary.take(idx)
    discrete = isinstance(cfg, DiscreteCorrectorConfig)

    # the base-state corrector halves are reused by both sides of the identity
    inc = _increments(model_or_chain, f, atoms.values, outer_replicas, cfg, atoms.step, rng, sg)
    base = inc.base
    phi_atom, _, _ = _phi_per_state(inc, outer_replicas)

    f_atom = f.values(atoms.values)
    cross_atom = 2.0 * f_atom * base.mean()
    if discrete:
        cross_atom = cross_atom - f_atom**2  # exact unit-lag identity correction

    d_sq, d_sq_se = grouped_mean_se(phi_atom, atoms.groups)
    cross, cross_se = grouped_mean_se(cross_atom, atoms.groups)
    diff, diff_se = grouped_mean_se(phi_atom - cross_atom, atoms.groups)

    if not (d_sq >= -2.0 * d_sq_se):
        raise EstimatorInconsistencyError(
            f"variance estimate {d_sq:.4g} is NaN or negative beyond 2 standard errors ({d_sq_se:.4g})"
        )
    if diff_se > 0:
        diff_in_se = abs(diff) / diff_se
    else:
        diff_in_se = 0.0 if diff == 0.0 else math.inf
    return VarianceReport(
        d_f=math.sqrt(max(d_sq, 0.0)),
        d_sq=d_sq,
        d_sq_se=d_sq_se,
        cross_check=cross,
        cross_check_se=cross_se,
        discrepancy=diff,
        discrepancy_se=diff_se,
        discrepancy_in_se=diff_in_se,
        n_atoms=atoms.n,
        outer_replicas=outer_replicas,
        truncation=base.truncation,
        tail_bound=base.tail_bound,
        discrete=discrete,
        mu_f_se=f.mu_f_se,
    )


# ---------------------------------------------------------------------------
# semigroup identity residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VphReport:
    residual: float
    combined_se: float
    phi: float
    phi_se: float
    step_of_squared: float
    step_of_squared_se: float
    base_squared: float
    base_squared_se: float
    cross_integral: float
    cross_integral_se: float
    quad_error: float
    replicas: int


def vph_residual(
    model: ModelSpec,
    f: CenteredObservable,
    xi: Segment,
    cfg: CorrectorConfig,
    rng: RngStream,
    replicas: int = 48,
    s_nodes: int = 9,
    sg: Optional[SemigroupEvaluator] = None,
) -> VphReport:
    """Residual of the one-step variance identity at ``xi``.

    Estimates ``phi_f(xi) - [P_1(R_f^2)(xi) - R_f(xi)^2 +
    2 * integral_0^1 P_s(f R_f)(xi) ds]``, every term by nested Monte Carlo
    on shared one-step paths.  Squares and the squared-corrector transport
    use independent half-estimates, so each term is unbiased; the s-integral
    uses trapezoid quadrature over ``s_nodes`` nodes with a Richardson error
    estimate folded into the combined error.  The corrector halves at the
    interior nodes are one batch over every replica's snapshots.  ``phi``
    carries the iid standard error of :func:`_phi_per_state` only, without
    the base-corrector term of :func:`phi_f`.  Needs at least 2 replicas.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    dt = xi.step
    per_unit = grid_steps(1.0, dt, "unit time")
    if (s_nodes - 1) < 2 or per_unit % (s_nodes - 1) != 0:
        raise ValueError("s_nodes - 1 must divide the unit step count")
    stride = per_unit // (s_nodes - 1)
    interior = [k * stride for k in range(1, s_nodes - 1)]
    sg = sg if sg is not None else _as_chain(model, dt)
    inc = _increments(model, f, xi.values[None], replicas, cfg, dt, rng, sg, snapshot_steps=interior)
    phi, se, _ = _phi_per_state(inc, replicas)
    phi_val, phi_se = float(phi[0]), float(se[0])

    # P_1(R^2): half-product at the one-step states
    sq_end = inc.end.a * inc.end.b
    step_sq = float(sq_end.mean())
    step_sq_se = float(sq_end.std(ddof=1) / math.sqrt(replicas))

    base = inc.base
    base_sq = float(base.a[0] * base.b[0])
    base_sq_se = math.hypot(
        float(base.a[0]) * float(base.se_b[0]),
        float(base.b[0]) * float(base.se_a[0]),
    )

    # f * R along the path at the s-grid; corrector halves at interior nodes
    fr = np.empty((s_nodes, replicas))
    f_xi = float(f.values(xi.values[None])[0])
    fr[0] = f_xi * float(base.mean()[0])
    fr[-1] = f.values(inc.end_states) * inc.end.mean()
    snaps = np.concatenate([inc.snapshots[s] for s in interior])  # node-major
    halves = _halves(f, snaps, cfg, sg, dt, rng.child(10), first_horizon=base.truncation, ses=False)
    fr[1:-1] = (f.values(snaps) * halves.mean()).reshape(len(interior), replicas)
    ds = 1.0 / (s_nodes - 1)
    per_path = np.trapezoid(fr, dx=ds, axis=0)
    coarse = np.trapezoid(fr[::2], dx=2 * ds, axis=0) if (s_nodes - 1) % 2 == 0 else per_path
    cross_int = float(per_path.mean())
    cross_int_se = float(per_path.std(ddof=1) / math.sqrt(replicas))
    quad_error = abs(float((per_path - coarse).mean())) / 3.0

    residual = phi_val - (step_sq - base_sq + 2.0 * cross_int)
    combined = math.sqrt(
        phi_se**2 + step_sq_se**2 + base_sq_se**2 + (2 * cross_int_se) ** 2
    ) + 2.0 * quad_error
    return VphReport(
        residual=residual,
        combined_se=combined,
        phi=phi_val,
        phi_se=phi_se,
        step_of_squared=step_sq,
        step_of_squared_se=step_sq_se,
        base_squared=base_sq,
        base_squared_se=base_sq_se,
        cross_integral=cross_int,
        cross_integral_se=cross_int_se,
        quad_error=quad_error,
        replicas=replicas,
    )


# ---------------------------------------------------------------------------
# CLT statistic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CltReport:
    times: np.ndarray
    statistics: np.ndarray
    ses: np.ndarray
    d_f: float
    replicas: int
    degenerate: bool


def clt_statistic(samples: np.ndarray, d_f: float) -> float:
    """Distribution distance of the normalized-average samples.

    ``d_f > 0``: exact Kolmogorov distance to the centered normal with
    standard deviation ``d_f``.  ``d_f = 0``: the weighted sup-distance
    ``sup_z (1 and |z|) |F_emp(z) - 1_{z>=0}(z)|`` to the point mass at zero.
    NaN when any sample is NaN or infinite, so a decay check on it fails
    closed.
    """
    if not d_f >= 0:
        raise ValueError("d_f must be non-negative")
    samples = np.asarray(samples, dtype=float)
    if not np.isfinite(samples).all():
        return math.nan
    if d_f == 0.0:
        return weighted_degenerate_statistic(samples)
    return kolmogorov_statistic(samples, d_f)


def clt_test(
    model: ModelSpec,
    f: CenteredObservable,
    xi: Segment,
    times: Sequence[float],
    replicas: int,
    d_f: float,
    rng: RngStream,
    n_boot: int = 200,
) -> CltReport:
    """Kolmogorov statistic of ``sqrt(t) A_t`` against the fitted normal limit.

    One common ensemble provides every checkpoint; standard errors are
    bootstrap resamples of the replica values.  The statistic series should
    be non-increasing in ``t`` up to Monte Carlo noise.  At least 500
    replicas are required for the distribution distance to mean anything.
    """
    if not d_f >= 0:
        raise ValueError("d_f must be non-negative")
    if replicas < 500:
        raise ValueError("clt_test needs at least 500 replicas")
    times = np.asarray(list(times), dtype=float)
    # replica samples of sqrt(t) * A_t at each checkpoint, shape (n_t, R)
    averages = _time_average_checkpoints(model, xi, f, times, replicas, rng.child(0))
    samples = averages * np.sqrt(times)[:, None]
    stats = np.array([clt_statistic(samples[i], d_f) for i in range(times.size)])
    gen = rng.child(1).generator()
    ses = np.array(
        [bootstrap_se(samples[i], lambda s: clt_statistic(s, d_f), n_boot, gen) for i in range(times.size)]
    )
    return CltReport(times, stats, ses, d_f, replicas, degenerate=(d_f == 0.0))


# ---------------------------------------------------------------------------
# discrete martingale pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleSequence:
    """Unit-time martingale differences along one path.

    ``z`` averages the two half-sequences; products ``z_a * z_b`` provide
    noise-unbiased squares.  ``f_values`` are f at the visited integer-time
    states.
    """

    z: np.ndarray
    z_a: np.ndarray
    z_b: np.ndarray
    partial_sums: np.ndarray
    f_values: np.ndarray
    truncation: float
    tail_bound: float


def martingale_increments(
    model_or_chain,
    f: CenteredObservable,
    xi: Segment,
    n: int,
    cfg: DiscreteCorrectorConfig,
    rng: RngStream,
    sg: Optional[SemigroupEvaluator] = None,
) -> MartingaleSequence:
    """Simulate one path to integer time ``n`` and form its increments.

    ``Z_k = f(X_{k-1}) + R(X_k) - R(X_{k-1})`` with the corrector
    ``R = sum_{j>=0} P_j f`` estimated by nested Monte Carlo with independent
    half-streams at every visited state.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    chain = _as_chain(model_or_chain, xi.step)
    sg = sg if sg is not None else chain
    states = chain.unit_states(xi.values[None], n, rng.child(0))[:, 0]  # (n+1, m+1, d)
    f_vals = f.values(states)
    r = _halves(f, states, cfg, sg, xi.step, rng.child(1), ses=False)
    z_a = f_vals[:-1] + r.a[1:] - r.a[:-1]
    z_b = f_vals[:-1] + r.b[1:] - r.b[:-1]
    z = 0.5 * (z_a + z_b)
    return MartingaleSequence(
        z=z,
        z_a=z_a,
        z_b=z_b,
        partial_sums=np.cumsum(z),
        f_values=f_vals,
        truncation=r.truncation,
        tail_bound=r.tail_bound,
    )


@dataclass(frozen=True)
class QvReport:
    qv: float
    qv_se: float
    qv_over_k: float
    qv_over_k_se: float
    per_state: np.ndarray
    per_state_se: np.ndarray
    k: int


def quadratic_variation(
    model: ModelSpec,
    f: CenteredObservable,
    xi: Segment,
    k: int,
    cfg: CorrectorConfig,
    rng: RngStream,
    outer_replicas: int = 32,
    sg: Optional[SemigroupEvaluator] = None,
) -> QvReport:
    """Quadratic variation ``sum_{i<k} phi_f(X_i)`` along one path.

    The variance functional at all ``k`` visited states is one batch of
    ``outer_replicas`` (at least 2) transitions each on ``rng.child(0, 0)``,
    so the states share one corrector truncation (the median rule of
    :func:`_halves`), and with ``k=1`` the result is bit-identical to
    ``phi_f(xi, ..., rng.child(0, 0))``.  ``qv_over_k`` is the
    running-average form whose long-run limit is the stationary variance
    constant.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if outer_replicas < 2:
        raise ValueError("need at least 2 outer replicas")
    chain = _as_chain(model, xi.step)
    states = chain.unit_states(xi.values[None], k - 1, rng.child(1))[:, 0] if k > 1 else xi.values[None]
    inc = _increments(model, f, states, outer_replicas, cfg, xi.step, rng.child(0, 0), sg)
    vals, se, se_base = _phi_per_state(inc, outer_replicas)
    ses = np.hypot(se, se_base)
    qv = float(vals.sum())
    qv_se = float(np.sqrt((ses**2).sum()))
    mean_se = batch_means_se(vals) if k >= 4 else qv_se / k
    return QvReport(
        qv=qv,
        qv_se=qv_se,
        qv_over_k=qv / k,
        qv_over_k_se=float(max(mean_se, qv_se / k)),
        per_state=vals,
        per_state_se=ses,
        k=k,
    )


@dataclass(frozen=True)
class QvLlnReport:
    w0_ratio: float
    w0_se: float
    w4_ratio: float
    w4_se: float
    d_hat_sq: float
    d_hat_sq_se: float
    n: int
    replicas: int
    w0_passed: bool
    w4_passed: bool
    zero_signal: bool


def qv_lln_check(
    model_or_chain,
    f: CenteredObservable,
    xi: Segment,
    n: int,
    cfg: DiscreteCorrectorConfig,
    rng: RngStream,
    d_hat_sq: float,
    d_hat_sq_se: float = 0.0,
    replicas: int = 128,
    sg: Optional[SemigroupEvaluator] = None,
) -> QvLlnReport:
    """Check the martingale growth laws against the discrete variance constant.

    ``w4`` is the single-path mean of the squared increments (half-product
    form, batch-means standard error); ``w0`` estimates ``E M_n^2 / n`` over
    independent replicas via the telescoped martingale ``M_n = sum f(X_k) +
    Rhat(X_n) - Rhat(X_0)``, again as a product of independent halves.  Each
    passes within ``_QV_GATE_SE`` (3) combined standard errors of ``d_hat_sq``.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    chain = _as_chain(model_or_chain, xi.step)
    sg = sg if sg is not None else chain

    seq = martingale_increments(chain, f, xi, n, cfg, rng.child(0), sg=sg)
    w4_samples = seq.z_a * seq.z_b
    w4 = float(w4_samples.mean())
    w4_se = batch_means_se(w4_samples)

    starts = np.broadcast_to(xi.values, (replicas,) + xi.values.shape).copy()
    states = chain.unit_states(starts, n, rng.child(1))  # (n+1, R, m+1, d)
    f_all = np.stack([f.values(states[k]) for k in range(n)])  # k = 0..n-1
    sum_f = f_all.sum(axis=0)
    r_base = _halves(f, xi.values[None], cfg, sg, xi.step, rng.child(3), ses=False)
    r_end = _halves(
        f, states[n], cfg, sg, xi.step, rng.child(2), first_horizon=r_base.truncation, ses=False
    )
    m_a = sum_f + r_end.a - r_base.a[0]
    m_b = sum_f + r_end.b - r_base.b[0]
    prod = m_a * m_b / n
    w0 = float(prod.mean())
    w0_se = float(prod.std(ddof=1) / math.sqrt(replicas))

    zero_signal = d_hat_sq < 1e-300 and abs(w0) < 1e-300 and abs(w4) < 1e-300
    w0_pass = abs(w0 - d_hat_sq) <= _QV_GATE_SE * math.hypot(w0_se, d_hat_sq_se)
    w4_pass = abs(w4 - d_hat_sq) <= _QV_GATE_SE * math.hypot(w4_se, d_hat_sq_se)
    return QvLlnReport(
        w0_ratio=w0,
        w0_se=w0_se,
        w4_ratio=w4,
        w4_se=w4_se,
        d_hat_sq=d_hat_sq,
        d_hat_sq_se=d_hat_sq_se,
        n=n,
        replicas=replicas,
        w0_passed=bool(zero_signal or w0_pass),
        w4_passed=bool(zero_signal or w4_pass),
        zero_signal=zero_signal,
    )


# ---------------------------------------------------------------------------
# law of iterated logarithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LilReport:
    """Normalized partial-sum record along one long path.

    All quantities are indexed by the checkpoint grid; running extremes run
    over every integer ``n >= n_min`` up to the checkpoint.  The endpoint
    value of the rescaled path equals ``sum_{l<n} f(X_l) / (D sqrt(2 n
    loglog n))`` exactly: both sides are evaluated through the same node
    formula.
    """

    n_grid: np.ndarray
    normalized_sums: np.ndarray
    running_max: np.ndarray
    running_min: np.ndarray
    sup_norm_of_lambda: np.ndarray
    endpoint_values: np.ndarray
    f_cumsum: np.ndarray  # f partial sums; f_cumsum[j] = sum_{l<=j+1} f(X_l)
    d_hat: float
    n_min: int
    n_max: int


def _loglog_denominator(n: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * n * np.log(np.log(n)))


def lil_run(
    model: ModelSpec,
    f: CenteredObservable,
    xi: Segment,
    n_max: int,
    d_hat: float,
    checkpoints: Sequence[int],
    rng: RngStream,
    n_min: int = 16,
) -> LilReport:
    """Normalized partial sums and rescaled-path extremes of ``f`` at the
    integer times of one long path of ``model`` from ``xi``, on its grid.

    ``d_hat`` must be the positive discrete variance constant; ``n_min >= 16``
    keeps the double logarithm comfortably positive.  ``checkpoints`` is a
    non-empty collection of integers (numpy integers too) within
    ``[n_min, n_max]``; anything else raises ValueError.
    """
    if not d_hat > 0:
        raise ValueError("d_hat must be positive")
    if n_max < 16:
        raise ValueError("n_max must be at least 16")
    if n_min < 16:
        raise ValueError("n_min must be at least 16")
    try:
        checkpoints = np.asarray(sorted({operator.index(c) for c in checkpoints}), dtype=int)
    except TypeError:
        raise ValueError(f"checkpoints must be integers, got {checkpoints!r}") from None
    if not checkpoints.size:
        raise ValueError("checkpoints must not be empty")
    if checkpoints[0] < n_min or checkpoints[-1] > n_max:
        raise ValueError("checkpoints must lie within [n_min, n_max]")

    per_unit = grid_steps(1.0, xi.step, "unit time")
    n_steps = n_max * per_unit
    f_vals, _ = record(
        model, xi.values[None], n_steps, xi.step, rng.child(0),
        sample_at=range(0, n_steps + 1, per_unit),
        sample=lambda window: f.values(window)[0],
    )
    csum = np.cumsum(f_vals[1:])  # csum[j] = sum_{l=1}^{j+1} f(X_l)

    ns = np.arange(n_min, n_max + 1)
    denom = _loglog_denominator(ns.astype(float))
    normalized = csum[ns - 1] / denom  # sum_{l<=n} f(X_l) / sqrt(2 n llog n)
    run_max = np.maximum.accumulate(normalized)
    run_min = np.minimum.accumulate(normalized)

    # |cumulative sums| running max for the rescaled-path sup at each checkpoint
    abs_peak = np.maximum.accumulate(np.abs(csum))

    idx = checkpoints - n_min
    d = float(d_hat)
    denom_cp = _loglog_denominator(checkpoints.astype(float))
    endpoint = csum[checkpoints - 2] / (d * denom_cp)  # node formula at t=1: sum_{l<=n-1}
    sup_lambda = abs_peak[checkpoints - 2] / (d * denom_cp)
    return LilReport(
        n_grid=checkpoints,
        normalized_sums=normalized[idx],
        running_max=run_max[idx],
        running_min=run_min[idx],
        sup_norm_of_lambda=sup_lambda,
        endpoint_values=endpoint,
        f_cumsum=csum,
        d_hat=d,
        n_min=n_min,
        n_max=n_max,
    )


def rescaled_path_nodes(f_partial_sums: np.ndarray, n: int, d_hat: float) -> np.ndarray:
    """Node values of the rescaled partial-sum path at ``t = k/n``, k = 0..n.

    The path is affine between nodes, so its sup norm is attained here.  The
    node at ``k`` carries the sum of the first ``k-1`` values, and the node at
    ``k = n`` (t = 1) is exactly the normalized endpoint sum.  ``d_hat`` must
    be positive, as in :func:`lil_run`.
    """
    if not d_hat > 0:
        raise ValueError("d_hat must be positive")
    if n < 16:
        raise ValueError("n must be at least 16")
    denom = d_hat * float(_loglog_denominator(np.asarray([float(n)]))[0])
    nodes = np.empty(n + 1)
    nodes[0] = nodes[1] = 0.0
    nodes[2:] = f_partial_sums[: n - 1] / denom
    return nodes
