"""Semigroup evaluator and synthetic kernel tests."""

import math
import tracemalloc

import numpy as np
import pytest

from segflow import (
    ExpDecayKernel,
    IidChain,
    IidKernel,
    MonteCarloSemigroup,
    RngStream,
    constant_segment,
)
from segflow.registry import build_model, build_observable

DT = 1.0 / 64.0
R0 = 0.5


@pytest.fixture
def eval0():
    return build_observable("eval0")


class TestExpDecayKernel:
    def test_integral_profile_converges_to_one(self, eval0):
        k = ExpDecayKernel(rate=1.0)
        xi = constant_segment(1.0, R0, DT)
        prof = k.integral_profile(eval0, xi.values[None], 20.0, DT, 8, RngStream(0))
        # trapezoid of e^-t to 20 with step dt: error O(dt^2) + tail e^-20
        assert prof.values[0, -1] == pytest.approx(1.0, abs=1e-4)

    def test_integral_profile_is_panel_cumsum(self, eval0):
        # the running trapezoid and a cumulative sum of panels add in one order
        states = np.stack([constant_segment(v, R0, DT).values for v in (1.0, -2.5)])
        prof = ExpDecayKernel(rate=0.7).integral_profile(eval0, states, 3.0, 0.125, 8, RngStream(0))
        shape = np.exp(-0.7 * (np.arange(25) * 0.125))
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (shape[1:] + shape[:-1]) * 0.125)])
        assert np.array_equal(prof.values, np.array([[1.0], [-2.5]]) * cum[None, :])
        assert np.all(prof.ses == 0.0)

    def test_discrete_profile(self, eval0):
        k = ExpDecayKernel(rate=1.0)
        xi = constant_segment(1.0, R0, DT)
        prof = k.discrete_profile(eval0, xi.values[None], 0, 3, 8, RngStream(0))
        expect = np.cumsum(np.exp([-0.0, -1.0, -2.0, -3.0]))
        assert np.allclose(prof.values[0], expect)

    def test_rate_positive(self):
        for rate in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                ExpDecayKernel(rate)


class TestGeometricKernel:
    """``ExpDecayKernel(log 2)`` as the geometric rule ``P_k g = 2^-k g``."""

    def test_partial_sums(self, eval0):
        k = ExpDecayKernel(math.log(2.0))
        xi = constant_segment(1.0, R0, DT)
        prof = k.discrete_profile(eval0, xi.values[None], 0, 10, 4, RngStream(0))
        assert prof.values[0, -1] == pytest.approx(2.0 - 2.0 * 0.5**11, rel=1e-12)

    def test_shifted_tail_sum(self, eval0):
        # one exact step applied to the truncated sum: sum_{k=1}^{K+1} ratio^k;
        # the identity holds up to the geometric truncation tail ratio^(K+1)
        k = ExpDecayKernel(math.log(2.0))
        xi = constant_segment(1.0, R0, DT)
        shifted = k.discrete_profile(eval0, xi.values[None], 1, 11, 4, RngStream(0))
        full = k.discrete_profile(eval0, xi.values[None], 0, 10, 4, RngStream(0))
        f_xi = 1.0
        assert full.values[0, -1] == pytest.approx(
            f_xi + shifted.values[0, -1], abs=2.0 * 0.5**11
        )


class TestIidKernel:
    def test_shifted_corrector_vanishes(self, eval0):
        k = IidKernel(0.0)
        xi = constant_segment(3.0, R0, DT)
        prof = k.discrete_profile(eval0, xi.values[None], 1, 6, 4, RngStream(0))
        assert np.all(prof.values == 0.0)

    def test_full_corrector_is_f(self, eval0):
        k = IidKernel(0.0)
        xi = constant_segment(3.0, R0, DT)
        prof = k.discrete_profile(eval0, xi.values[None], 0, 6, 4, RngStream(0))
        assert np.all(prof.values == 3.0)

    def test_no_continuous_action(self, eval0):
        with pytest.raises(NotImplementedError):
            IidKernel(0.0).integral_profile(
                eval0, constant_segment(1.0, R0, DT).values[None], 1.0, DT, 4, RngStream(0)
            )


class TestMonteCarloSemigroup:
    def test_decay_model_matches_kernel(self, eval0):
        # noise-free decay model realizes the exponential kernel exactly for eval0
        model = build_model("deterministic_decay", {"rate": 1.0})
        mc = MonteCarloSemigroup(model, DT)
        kernel = ExpDecayKernel(1.0)
        states = constant_segment(2.0, R0, DT).values[None]
        profiles = [
            (mc.discrete_profile(eval0, states, 0, 3, 4, RngStream(1)),
             kernel.discrete_profile(eval0, states, 0, 3, 4, RngStream(1))),
            (mc.integral_profile(eval0, states, 2.0, 0.5, 4, RngStream(1)),
             kernel.integral_profile(eval0, states, 2.0, 0.5, 4, RngStream(1))),
        ]
        for prof, exact in profiles:
            assert np.array_equal(prof.grid, exact.grid)
            # Euler error only
            assert np.allclose(prof.values, exact.values, atol=0.02)
            assert np.all(prof.ses < 1e-12)

    def test_integral_profile_accumulates(self, eval0):
        model = build_model("deterministic_decay", {"rate": 1.0})
        mc = MonteCarloSemigroup(model, DT)
        xi = constant_segment(1.0, R0, DT)
        prof = mc.integral_profile(eval0, xi.values[None], 6.0, DT, 4, RngStream(2))
        assert prof.values[0, -1] == pytest.approx(1.0 - math.exp(-6.0), abs=0.02)
        assert np.all(np.diff(prof.values[0]) >= -1e-12)

    def test_horizon_must_be_whole_quad_panels(self, eval0, ref_model):
        # one rule in both kernels: 2.0 is 128 steps of 1/64, not whole 3-step panels
        states = constant_segment(1.0, R0, DT).values[None]
        for sg in (MonteCarloSemigroup(ref_model, DT), ExpDecayKernel(1.0)):
            with pytest.raises(ValueError, match="t_max"):
                sg.integral_profile(eval0, states, 2.0, 3 * DT, 4, RngStream(5))

    def test_batch_states_independent_columns(self, eval0, ref_model):
        mc = MonteCarloSemigroup(ref_model, 1.0 / 128.0)
        states = np.stack(
            [constant_segment(v, R0, 1.0 / 128.0).values for v in (0.0, 2.0)]
        )
        prof = mc.discrete_profile(eval0, states, 1, 1, 256, RngStream(3))
        # decay of the conditional mean: E X_1 from 2 is near 2 e^-? > from 0
        assert prof.values[1, 0] > prof.values[0, 0]
        assert np.all(prof.ses > 0)

    def test_integral_profile_streams(self, eval0):
        # 769 profile rows of 128 states x 32 replicas: the whole node cube
        # alone would be 25 MB; the streamed profile holds one 64-row block
        # (the ring buffer is an mmap, which tracemalloc does not see)
        dt = 1.0 / 128.0
        model = build_model("linear_delay_ou")
        states = np.random.default_rng(0).normal(size=(128, 65, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prof = MonteCarloSemigroup(model, dt).integral_profile(eval0, states, 6.0, dt, 32, RngStream(4))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert prof.values.shape == (128, 769)
        assert peak < 12e6


class TestIidChain:
    def test_resamples_fresh_segments(self):
        gen_template = constant_segment(0.0, R0, DT)

        def sampler(gen, n):
            return gen.standard_normal((n,) + gen_template.values.shape)

        chain = IidChain(sampler)
        states = chain.unit_states(np.zeros((3,) + gen_template.values.shape), 4, RngStream(9))
        assert states.shape[0] == 5
        assert np.all(states[0] == 0.0)
        # consecutive draws differ
        assert not np.allclose(states[1], states[2])
