"""Independent reference implementations used only as test oracles.

Nothing here shares code with the package estimators: the delay-ODE solver
is a classical method-of-steps RK4 integrator with dense cubic-Hermite
history, the transport oracle enumerates permutations, and the quadratures
are plain cumulative sums.  The linear delay model's Euler chain is a
Gaussian VAR(1) on its order-(m+1) companion form, so its moments come from
linear algebra alone, and its conditional mean is the noise-free Euler
recursion, run on Python floats.  ``collect_profile`` only gathers a streamed
semigroup profile into whole arrays, and ``scaled`` only multiplies a
centered observable by a constant.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from segflow.limits import CenteredObservable
from segflow.metric import Observable


def method_of_steps(rhs, history, r0: float, horizon: float, h: float):
    """Solve x'(t) = rhs(x(t), x(t - r0)) with x(t) = history(t) for t <= 0.

    Classic method of steps: integrate interval by interval with RK4, looking
    up the delayed value from the stored dense solution (cubic Hermite on the
    solver grid).  Returns (times, values) on the uniform grid of spacing h
    from 0 to horizon.  Scalar-valued only; h must divide both r0 and horizon.
    """
    n_per = int(round(r0 / h))
    if abs(n_per * h - r0) > 1e-12:
        raise ValueError("h must divide r0")
    n_tot = int(round(horizon / h))
    ts = np.arange(n_tot + 1) * h
    xs = np.empty(n_tot + 1)
    slopes = np.empty(n_tot + 1)

    def lookup(t):
        if t <= 0.0:
            return history(t)
        pos = t / h
        i = min(int(math.floor(pos + 1e-12)), n_tot - 1)
        th = pos - i
        x0, x1 = xs[i], xs[i + 1]
        m0, m1 = slopes[i] * h, slopes[i + 1] * h
        h00 = (1 + 2 * th) * (1 - th) ** 2
        h10 = th * (1 - th) ** 2
        h01 = th * th * (3 - 2 * th)
        h11 = th * th * (th - 1)
        return h00 * x0 + h10 * m0 + h01 * x1 + h11 * m1

    xs[0] = history(0.0)
    slopes[0] = rhs(xs[0], history(-r0))
    for i in range(n_tot):
        t = ts[i]
        x = xs[i]

        def f(tt, xx):
            return rhs(xx, lookup(tt - r0))

        k1 = f(t, x)
        k2 = f(t + h / 2, x + h / 2 * k1)
        k3 = f(t + h / 2, x + h / 2 * k2)
        k4 = f(t + h, x + h * k3)
        xs[i + 1] = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        slopes[i + 1] = f(ts[i + 1], xs[i + 1])
    return ts, xs


class Profile(NamedTuple):
    """A whole semigroup profile: per-state running values and standard
    errors, shape (n_states, len(grid)), at the checkpoints ``grid``."""

    grid: np.ndarray
    values: np.ndarray
    ses: np.ndarray


def collect_profile(grid: np.ndarray, groups) -> Profile:
    """The whole profile of a ``SemigroupEvaluator.profile_groups`` result,
    every group's columns read to the end."""
    n = groups[-1][1]
    values, ses = np.empty((n, len(grid))), np.empty((n, len(grid)))
    for g0, g1, columns in groups:
        for c, (value, se) in enumerate(columns):
            values[g0:g1, c] = value
            ses[g0:g1, c] = se
    return Profile(grid, values, ses)


def scaled(f: CenteredObservable, factor: float) -> CenteredObservable:
    """``factor * f``: its base, stationary mean and that mean's standard
    error scaled alike, on the same stationary sample."""
    base = f.base
    scaled_base = Observable(
        name=f"{base.name}_x{factor:g}",
        eval_batch=lambda v, _b=base.eval_batch, _c=factor: _c * _b(v),
        declared_norm=None if base.declared_norm is None else abs(factor) * base.declared_norm,
        antithetic=base.antithetic,
    )
    return CenteredObservable(scaled_base, factor * f.mu_f, abs(factor) * f.mu_f_se, f.n_sample)


def brute_force_assignment(cost: np.ndarray):
    """Exhaustive minimum-cost assignment: (mean cost, minimizing permutation)."""
    n = cost.shape[0]
    best = math.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best:
            best, best_perm = total, perm
    return best / n, best_perm


def brute_force_assignment_cost(cost: np.ndarray) -> float:
    """Exhaustive minimum over all permutations of the mean assignment cost."""
    return brute_force_assignment(cost)[0]


def delay_ode_mean_integral(a: float, b: float, r0: float, x0: float, t_max: float, h: float) -> float:
    """Quadrature of the solution of m' = -a m + b m(. - r0), m(t<=0) = x0.

    Trapezoid of the method-of-steps solution over [0, t_max]; the oracle for
    the corrector of the current-value observable on the linear model.
    """
    ts, xs = method_of_steps(lambda x, xd: -a * x + b * xd, lambda t: x0, r0, t_max, h)
    return float(np.trapezoid(xs, dx=h))


def euler_companion(a: float, b: float, sigma: float, m: int, dt: float):
    """Companion form ``x' = A x + kick * z`` of the Euler chain
    x_{k+1} = x_k + dt(-a x_k + b x_{k-m}) + sigma sqrt(dt) z_k, with the
    state (x_k, x_{k-1}, ..., x_{k-m}); returns (A, kick)."""
    companion = np.zeros((m + 1, m + 1))
    companion[0, 0] = 1.0 - a * dt
    companion[0, m] = b * dt
    companion[1:, :-1] = np.eye(m)
    kick = np.zeros(m + 1)
    kick[0] = sigma * math.sqrt(dt)
    return companion, kick


def noise_free_euler(a: float, b: float, history, dt: float, n_steps: int) -> np.ndarray:
    """Current values x_0 .. x_n of the noise-free Euler recursion
    x_{k+1} = x_k + dt(-a x_k + b x_{k-m}) from the segment ``history``
    (its m+1 values, oldest first), in Python floats.

    The linear delay model's Euler chain is this recursion plus a linear
    function of the normals, so it is ``E[x_k | history]``: the exact
    semigroup ``P_k`` of an affine observable of the current state.
    """
    path = [float(v) for v in np.ravel(history)]
    m = len(path) - 1
    for _ in range(n_steps):
        x, oldest = path[-1], path[-1 - m]
        path.append(x + dt * (-a * x + b * oldest))
    return np.array(path[m:])


def euler_chain_rate(a: float, b: float, m: int, dt: float) -> float:
    """Exponential mixing rate of the Euler chain, ``-log(rho(A)) / dt`` with
    ``rho(A)`` the spectral radius of its companion matrix: two copies driven
    by the same noise differ by ``A^k`` applied to their initial difference.

    At a = 2, b = 0.1, m = 64, dt = 1/128 it is 1.76989.  The SDE's own rate,
    minus the rightmost root of lambda = -a + b exp(-lambda m dt) (a
    Lambert-W expression), is 1.75903.
    """
    companion, _ = euler_companion(a, b, 1.0, m, dt)
    return float(-math.log(np.abs(np.linalg.eigvals(companion)).max()) / dt)


def euler_chain_variance(a: float, b: float, sigma: float, m: int, dt: float) -> float:
    """Stationary variance of the Euler chain, from a discrete Lyapunov solve
    on its companion form."""
    companion, kick = euler_companion(a, b, sigma, m, dt)
    return float(solve_discrete_lyapunov(companion, np.outer(kick, kick))[0, 0])


def euler_chain_long_run_variance(a: float, b: float, sigma: float, m: int, dt: float) -> float:
    """Long-run variance ``lim Var(dt * sum_{k<n} x_k) / (n dt)`` of the Euler
    chain: ``dt * (c (I - A)^-1 kick)^2`` with ``c`` the first unit row."""
    companion, kick = euler_companion(a, b, sigma, m, dt)
    return float(dt * np.linalg.solve(np.eye(m + 1) - companion, kick)[0] ** 2)


def euler_chain_unit_lag_variance(a: float, b: float, sigma: float, m: int, dt: float, lag: int) -> float:
    """Long-run variance of the chain sampled every ``lag`` steps:
    ``gamma(0) + 2 sum_{j>=1} gamma(lag j)``, with the stationary
    autocovariance ``gamma(l) = (A^l P)[0, 0]``, summed until a term no
    longer changes the total."""
    companion, kick = euler_companion(a, b, sigma, m, dt)
    cov = solve_discrete_lyapunov(companion, np.outer(kick, kick))
    step = np.linalg.matrix_power(companion, lag)
    total = cov[0, 0]
    while True:
        cov = step @ cov
        if total + 2.0 * cov[0, 0] == total:
            return float(total)
        total += 2.0 * cov[0, 0]
