"""Shared fixtures: the reference model and its expensive derived artifacts.

Session-scoped fixtures amortize the stationary sample, centering run, rate
fit and variance constants across the whole suite.  Every fixture derives
its randomness from a fixed master seed, so the suite is reproducible
end to end.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from segflow import (
    CenteredObservable,
    CorrectorConfig,
    DiscreteCorrectorConfig,
    MetricParams,
    RngStream,
    constant_segment,
    derive_seed,
    ergodicity_curve,
    sample_invariant,
    variance_D,
)
from segflow.registry import build_model, build_observable

MASTER_SEED = 20240817
DT = 1.0 / 128.0
R0 = 0.5


@pytest.fixture(scope="session")
def ref_model():
    """d=1 linear model: drift -2 xi(0) + 0.1 xi(-0.5), unit noise."""
    return build_model("linear_delay_ou", {"a": 2.0, "b": 0.1, "r0": R0, "sigma": 1.0})


@pytest.fixture(scope="session")
def mp():
    return MetricParams(p=2.0, gamma=1.0)


@pytest.fixture(scope="session")
def xi_zero():
    return constant_segment(0.0, R0, DT)


@pytest.fixture(scope="session")
def xi_five():
    return constant_segment(5.0, R0, DT)


@pytest.fixture(scope="session")
def stationary_sample(ref_model, xi_zero):
    """256-atom stationary sample (64 trajectories x 4 thinned segments)."""
    return sample_invariant(
        ref_model,
        xi_zero,
        64,
        10.0 / ref_model.lambda1,
        1.0,
        RngStream(derive_seed(MASTER_SEED, 0)),
        samples_per_traj=4,
    )


@pytest.fixture(scope="session")
def centering_sample(ref_model, xi_zero):
    """Long pooled run for the observable mean: ~65k unit-spaced atoms."""
    return sample_invariant(
        ref_model,
        xi_zero,
        64,
        10.0 / ref_model.lambda1,
        1.0,
        RngStream(derive_seed(MASTER_SEED, 1)),
        samples_per_traj=1024,
    )


@pytest.fixture(scope="session")
def f_centered(centering_sample):
    return CenteredObservable.from_stationary(build_observable("eval0"), centering_sample)


@pytest.fixture(scope="session")
def rate_fit(ref_model, xi_five, stationary_sample, mp):
    fit = ergodicity_curve(
        ref_model,
        xi_five,
        stationary_sample,
        [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0],
        mp,
        512,
        RngStream(derive_seed(MASTER_SEED, 2)),
        cap=128,
    )
    assert not fit.flagged
    return fit


@pytest.fixture(scope="session")
def corrector_cfg(rate_fit):
    return CorrectorConfig(rate_fit=rate_fit, t_max=6.0, replicas=64)


@pytest.fixture(scope="session")
def discrete_cfg(rate_fit):
    return DiscreteCorrectorConfig(rate_fit=rate_fit, k_max=8, replicas=64)


@pytest.fixture(scope="session")
def variance_report(ref_model, f_centered, stationary_sample, corrector_cfg):
    """Continuous variance constant at the acceptance scale (256 atoms, 64 inner)."""
    return variance_D(
        ref_model,
        f_centered,
        stationary_sample,
        corrector_cfg,
        RngStream(MASTER_SEED).child(3),
        outer_replicas=32,
    )


@pytest.fixture(scope="session")
def variance_report_discrete(ref_model, f_centered, stationary_sample, discrete_cfg):
    return variance_D(
        ref_model,
        f_centered,
        stationary_sample,
        discrete_cfg,
        RngStream(MASTER_SEED).child(4),
        outer_replicas=32,
    )
