"""Workload definitions: the JSON configs a user's ``segflow run`` would get.

Every workload pins all of its numerics explicitly, so a later change to a
config default does not move what is measured.  The values are the defaults
of the commit that defined this benchmark unless a workload overrides them.  Experiment seeds derive from
the workload seed through this module's own hash, never through segflow.
"""

from __future__ import annotations

import hashlib

# linear_delay_ou with its registry defaults a=2, b=0.1, r0=0.5, sigma=1
LINEAR = {"name": "linear_delay_ou", "params": {"a": 2.0, "b": 0.1, "r0": 0.5, "sigma": 1.0}}
TANH = {"name": "tanh_diffusion", "params": {"a": 2.0, "b": 0.1, "r0": 0.5}}
DT = 1.0 / 128.0
BURN_IN = 10.0 / (2 * 2.0 - 0.1)  # 10 / lambda1, the model-resolved default

_STATIONARY = {"stat_n_traj": 64, "burn_in": BURN_IN, "thinning": 1.0, "samples_per_traj": 4}
_RATE = {
    "rate_n_traj": 256,
    "rate_t_grid": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0],
    "rate_initial_value": 5.0,
}
_CORRECTOR = {
    "inner_replicas": 64,
    "outer_replicas": 24,
    "t_max": 6.0,
    "k_max": 8,
    "tail_fraction": 0.1,
    "max_atoms": 128,
}


def _checkpoints(n_max: int) -> list[int]:
    pts, n = [], 16
    while n < n_max:
        pts.append(n)
        n *= 2
    return pts + [n_max]


# n_max 8192 with 24 outer replicas took 19-24 s per experiment; this size
# fits two or more experiments in a 15 s run and keeps the width-1 loop over
# half of the wall.
LIL_N_MAX = 2048

NUMERICS = {
    "lil-narrow": {
        "dt": DT, "initial_value": 0.0, **_STATIONARY, **_RATE, **_CORRECTOR, "outer_replicas": 8,
        "n_max": LIL_N_MAX, "n_min": 16, "checkpoints": _checkpoints(LIL_N_MAX),
    },
    "ergodicity-transport": {
        "dt": DT, "initial_value": 5.0, **_STATIONARY,
        "stat_n_traj": 256, "samples_per_traj": 8, "n_traj": 1024,
        "t_grid": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0],
        "assignment_cap": 512, "block": 512, "mode": "stationary",
        "coupling": "synchronous", "floor_factor": 2.0,
    },
    # 24 outer replicas took 7-10 s per experiment; 8 keep the run short and
    # the verdict's failure rate as high (about 0.5 at 24, 0.7 at 8)
    "clt-corrector": {
        "dt": DT, "initial_value": 0.0, **_STATIONARY, **_RATE, **_CORRECTOR, "outer_replicas": 8,
        "replicas": 800, "t_grid": [16.0, 64.0], "n_boot": 200,
    },
    "suite-tanh-2t": {"dt": DT, "initial_value": 1.0, "scale": "smoke"},
}

KINDS = {
    "lil-narrow": ("lil", LINEAR),
    "ergodicity-transport": ("ergodicity", LINEAR),
    "clt-corrector": ("clt", LINEAR),
    "suite-tanh-2t": ("full-suite", TANH),
}

# Small sizes for the benchmark's self-test only; never used for measurements.
TINY = {
    "lil-narrow": {
        "n_max": 64, "checkpoints": _checkpoints(64), "stat_n_traj": 16,
        "rate_n_traj": 64, "inner_replicas": 8, "outer_replicas": 4, "max_atoms": 8, "k_max": 3,
    },
    "ergodicity-transport": {
        "n_traj": 64, "stat_n_traj": 16, "samples_per_traj": 4, "assignment_cap": 32,
        "block": 32, "t_grid": [0.5, 1.0, 1.5, 2.0],
    },
    "clt-corrector": {
        "replicas": 500, "t_grid": [2.0, 4.0], "stat_n_traj": 16, "rate_n_traj": 64,
        "inner_replicas": 4, "outer_replicas": 4, "max_atoms": 8, "t_max": 1.0, "n_boot": 20,
    },
    "suite-tanh-2t": {},
}

# The suite workload exercises segflow's own pool; it never asks for more
# threads than the machine has.
SUITE_THREADS = 2


def threads_for(workload: str, nproc: int) -> int:
    return min(SUITE_THREADS, nproc) if workload == "suite-tanh-2t" else 1


def experiment_seed(workload: str, seed: int, index: int) -> int:
    """Seed of the index-th experiment of a run: a pure function of its inputs."""
    blob = f"segflow-bench:{workload}:{seed}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def config(workload: str, seed: int, size: str = "full") -> dict:
    """The JSON config of one experiment, as a user would write it."""
    kind, model = KINDS[workload]
    numerics = dict(NUMERICS[workload])
    if size == "tiny":
        numerics.update(TINY[workload])
    return {
        "kind": kind,
        "seed": seed,
        "model": model,
        "observable": {"name": "eval0", "params": {}},
        "metric": {"p": 2.0, "gamma": 1.0},
        "numerics": numerics,
    }


# Closed-form variance constants of linear_delay_ou at the parameters above
# with dt = 1/128.  clt: D_f^2 = sigma^2 / (a - b)^2.  lil: the unit-lag
# constant gamma(0) + 2 sum_j gamma(128 j) of the Euler chain, whose
# autocovariance gamma comes from a discrete Lyapunov solve
# (scipy.linalg.solve_discrete_lyapunov) of its order-65 companion form.
VARIANCE_TARGET = {
    "clt-corrector": 1.0 / (2.0 - 0.1) ** 2,
    "lil-narrow": 0.35604,
}
# How far, in the estimate's own standard errors, d_sq may lie from the target.
VARIANCE_BOUND_SE = 4.0
