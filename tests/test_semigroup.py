"""Semigroup evaluator and synthetic kernel tests."""

import dataclasses
import hashlib
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import collect_profile, noise_free_euler
from segflow import (
    CenteredObservable,
    CorrectorConfig,
    DiscreteCorrectorConfig,
    ExpDecayKernel,
    IidChain,
    MonteCarloSemigroup,
    RateFit,
    RngStream,
    Segment,
    constant_segment,
    corrector,
    semigroup,
)
from segflow.registry import build_model, build_observable
from segflow.semigroup import SemigroupEvaluator

DT = 1.0 / 64.0
R0 = 0.5


@pytest.fixture
def eval0():
    return build_observable("eval0")


class TestExpDecayKernel:
    def test_integral_profile_converges_to_one(self, eval0):
        k = ExpDecayKernel(rate=1.0)
        xi = constant_segment(1.0, R0, DT)
        prof = collect_profile(*k.profile_groups(eval0, xi.values[None], 20.0, 8, RngStream(0), quad_step=DT))
        # trapezoid of e^-t to 20 with step dt: error O(dt^2) + tail e^-20
        assert prof.values[0, -1] == pytest.approx(1.0, abs=1e-4)

    def test_integral_profile_is_panel_cumsum(self, eval0):
        # the running trapezoid and a cumulative sum of panels add in one order
        states = np.stack([constant_segment(v, R0, DT).values for v in (1.0, -2.5)])
        prof = collect_profile(
            *ExpDecayKernel(rate=0.7).profile_groups(eval0, states, 3.0, 8, RngStream(0), quad_step=0.125)
        )
        shape = np.exp(-0.7 * (np.arange(25) * 0.125))
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (shape[1:] + shape[:-1]) * 0.125)])
        assert np.array_equal(prof.values, np.array([[1.0], [-2.5]]) * cum[None, :])
        assert np.all(prof.ses == 0.0)

    def test_discrete_profile(self, eval0):
        k = ExpDecayKernel(rate=1.0)
        xi = constant_segment(1.0, R0, DT)
        prof = collect_profile(*k.profile_groups(eval0, xi.values[None], 3, 8, RngStream(0)))
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
        prof = collect_profile(*k.profile_groups(eval0, xi.values[None], 10, 4, RngStream(0)))
        assert prof.values[0, -1] == pytest.approx(2.0 - 2.0 * 0.5**11, rel=1e-12)


class TestMonteCarloSemigroup:
    def test_decay_model_matches_kernel(self, eval0):
        # noise-free decay model realizes the exponential kernel exactly for eval0
        model = build_model("deterministic_decay", {"rate": 1.0})
        mc = MonteCarloSemigroup(model, DT)
        kernel = ExpDecayKernel(1.0)
        states = constant_segment(2.0, R0, DT).values[None]
        profiles = [
            [collect_profile(*sg.profile_groups(eval0, states, 3, 4, RngStream(1))) for sg in (mc, kernel)],
            [collect_profile(*sg.profile_groups(eval0, states, 2.0, 4, RngStream(1), quad_step=0.5))
             for sg in (mc, kernel)],
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
        prof = collect_profile(*mc.profile_groups(eval0, xi.values[None], 6.0, 4, RngStream(2), quad_step=DT))
        assert prof.values[0, -1] == pytest.approx(1.0 - math.exp(-6.0), abs=0.02)
        assert np.all(np.diff(prof.values[0]) >= -1e-12)

    def test_horizon_must_be_whole_quad_panels(self, eval0, ref_model):
        # one rule in both kernels: 2.0 is 128 steps of 1/64, not whole 3-step panels
        states = constant_segment(1.0, R0, DT).values[None]
        for sg in (MonteCarloSemigroup(ref_model, DT), ExpDecayKernel(1.0)):
            with pytest.raises(ValueError, match="t_max"):
                sg.profile_groups(eval0, states, 2.0, 4, RngStream(5), quad_step=3 * DT)

    def test_batch_states_independent_columns(self, eval0, ref_model):
        mc = MonteCarloSemigroup(ref_model, 1.0 / 128.0)
        states = np.stack(
            [constant_segment(v, R0, 1.0 / 128.0).values for v in (0.0, 2.0)]
        )
        prof = collect_profile(*mc.profile_groups(eval0, states, 1, 256, RngStream(3)))
        # each state's lag-1 term is its own conditional mean E X_1: the
        # mirror pairs make it exact, 0 from 0 and about 2 e^-2 from 2
        exact = [noise_free_euler(2.0, 0.1, seg, 1.0 / 128.0, 128)[-1] for seg in states]
        lag1 = prof.values[:, 1] - prof.values[:, 0]
        assert lag1[0] == 0.0
        assert lag1[1] == pytest.approx(exact[1], rel=0, abs=1e-12)
        assert 0.3 < exact[1] < 0.35
        assert np.all(prof.ses < 1e-12)

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
            prof = collect_profile(
                *MonteCarloSemigroup(model, dt).profile_groups(eval0, states, 6.0, 32, RngStream(4), quad_step=dt)
            )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert prof.values.shape == (128, 769)
        assert peak < 12e6


class TestAntitheticPairs:
    """Profiles of an antithetic observable average each path with its
    mirror, the path driven by the negated normals."""

    dt = 1.0 / 128.0

    @pytest.fixture
    def states(self):
        return np.random.default_rng(21).normal(size=(5, 65, 1))

    @pytest.mark.parametrize(
        "f",
        [
            build_observable("eval0"),
            CenteredObservable(build_observable("eval0"), 0.3, 0.01, 10),
            build_observable("linear_combo", {"terms": [{"coef": -1.5, "name": "eval0"}, {"name": "zero"}]}),
        ],
        ids=["eval0", "centered", "combo"],
    )
    @pytest.mark.parametrize("kind", [{}, {"quad_step": 1.0 / 128.0}, {"quad_step": 1.0 / 64.0}])
    def test_linear_profiles_are_the_noise_free_recursion(self, ref_model, states, f, kind):
        # linear drift, additive noise and an affine f: a pair's mean is the
        # noise-free Euler recursion, up to rounding
        horizon = 2.0 if kind else 3
        prof = collect_profile(*MonteCarloSemigroup(ref_model, self.dt).profile_groups(
            f, states, horizon, 64, RngStream(5), **kind
        ))
        paths = np.array([noise_free_euler(2.0, 0.1, seg, self.dt, 3 * 128) for seg in states])
        f_paths = f.values(paths[:, :, None, None].reshape(-1, 1, 1)).reshape(paths.shape)
        if not kind:
            exact = np.cumsum(f_paths[:, ::128], axis=1)
        else:
            stride = round(kind["quad_step"] / self.dt)
            nodes, h = f_paths[:, : 2 * 128 + 1 : stride], stride * self.dt
            panels = 0.5 * (nodes[:, :-1] + nodes[:, 1:]) * h
            exact = np.concatenate([np.zeros((5, 1)), np.cumsum(panels, axis=1)], axis=1)
        assert prof.values.shape == exact.shape
        assert np.abs(prof.values - exact).max() <= 1e-12
        assert prof.ses.max() <= 1e-12

    @pytest.mark.parametrize("name", ["eval0", "sin_eval0"])
    def test_tanh_pairs_agree_with_plain_paths(self, states, name):
        # an unbiased estimate with a much smaller SE: the pairs vary against
        # each other on the state-dependent diffusion too
        paired = build_observable(name)
        plain = dataclasses.replace(paired, antithetic=False)
        sg = MonteCarloSemigroup(build_model("tanh_diffusion"), self.dt)
        got = [
            collect_profile(*sg.profile_groups(g, states, 2.0, 64, RngStream(6).child(i), quad_step=self.dt))
            for i, g in enumerate((paired, plain))
        ]
        cols = slice(32, None, 32)
        z = (got[0].values - got[1].values)[:, cols] / np.hypot(got[0].ses, got[1].ses)[:, cols]
        assert np.abs(z).max() <= 4.0
        assert np.all(got[0].ses[:, -1] < 0.5 * got[1].ses[:, -1])

    def test_sup_norm_pow_profiles_keep_their_values(self, states):
        # an even observable takes the one-block layout: its profiles are
        # bitwise those before pairs existed (digest of that code's output)
        f = build_observable("sup_norm_pow", {"q": 2.0})
        digest = hashlib.sha256()
        for name in ("linear_delay_ou", "tanh_diffusion"):
            sg = MonteCarloSemigroup(build_model(name), self.dt)
            for kind in ({"quad_step": 2 * self.dt}, {}):
                horizon = 2.0 if "quad_step" in kind else 3
                prof = collect_profile(*sg.profile_groups(f, states, horizon, 16, RngStream(77), **kind))
                digest.update(prof.values.tobytes())
                digest.update(prof.ses.tobytes())
        assert digest.hexdigest()[:16] == "ad17a96267796259"

    @pytest.mark.parametrize("replicas", [2, 3, 4, 5])
    def test_fewer_than_two_pairs_take_one_block(self, states, replicas):
        # 2 and 3 paths (and an odd 5) leave under two pairs, or a path
        # without a mirror: the plain layout, with its across-path SE
        f = build_observable("eval0")
        plain = dataclasses.replace(f, antithetic=False)
        sg = MonteCarloSemigroup(build_model("tanh_diffusion"), self.dt)
        got, ref = (
            collect_profile(*sg.profile_groups(g, states, 2, replicas, RngStream(4))) for g in (f, plain)
        )
        assert np.array_equal(got.values, ref.values) == (replicas != 4)
        # lag 0 is f at the state itself, the same on every path: no noise
        assert np.all(np.isfinite(got.ses)) and np.all(got.ses[:, 1:] > 0)

    @pytest.mark.parametrize("inner", [4, 6, 8])
    @pytest.mark.parametrize("discrete", [False, True])
    def test_small_inner_replicas_have_finite_ses(self, inner, discrete):
        # the config's smallest budgets: 2 and 3 paths per half take one
        # block, 4 two blocks of two pairs; no degrees-of-freedom warning
        fit = RateFit(c_hat=1.0, beta_hat=1.7, r_squared=1.0, times=np.array([]), values=np.array([]))
        cfg = (
            DiscreteCorrectorConfig(rate_fit=fit, k_max=4, replicas=inner)
            if discrete else CorrectorConfig(rate_fit=fit, t_max=2.0, replicas=inner)
        )
        f = CenteredObservable(build_observable("eval0"), 0.0, 0.0, 1)
        xi = Segment(np.random.default_rng(inner).normal(size=(65, 1)), R0, self.dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = corrector(MonteCarloSemigroup(build_model("tanh_diffusion"), self.dt), f, xi, cfg, RngStream(9))
        assert math.isfinite(est.value)
        assert math.isfinite(est.se) and est.se > 0


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

    def test_full_corrector_is_f(self, eval0):
        xi = constant_segment(3.0, R0, DT)
        prof = collect_profile(*iid_chain().profile_groups(eval0, xi.values[None], 6, 4, RngStream(0)))
        assert np.all(prof.values == 3.0)

    def test_no_continuous_action(self, eval0):
        with pytest.raises(NotImplementedError):
            iid_chain().profile_groups(
                eval0, constant_segment(1.0, R0, DT).values[None], 1.0, 4, RngStream(0), quad_step=DT
            )


def iid_chain():
    """An i.i.d. chain of standard normal segments, centered."""
    shape = constant_segment(0.0, R0, DT).values.shape
    return IidChain(lambda gen, n: gen.standard_normal((n,) + shape))


class TestOneProfileMethod:
    """``profile_groups`` is the one way to ask an evaluator for a profile."""

    def test_only_abstract_method(self):
        assert SemigroupEvaluator.__abstractmethods__ == {"profile_groups"}

    @pytest.mark.parametrize("cls", [SemigroupEvaluator, MonteCarloSemigroup, ExpDecayKernel, IidChain])
    def test_one_profile_form(self, cls):
        # every unit-lag profile sums from lag 0: no parameter picks another start
        params = list(inspect.signature(cls.profile_groups).parameters)
        assert params == ["self", "f", "states", "horizon", "replicas", "rng", "quad_step", "ses"]

    def test_no_whole_array_profiles(self):
        classes = [c for c in vars(semigroup).values() if isinstance(c, type)]
        assert SemigroupEvaluator in classes
        for cls in classes:
            assert not hasattr(cls, "integral_profile"), cls
            assert not hasattr(cls, "discrete_profile"), cls

    @pytest.mark.parametrize(
        "sg, kind",
        [
            (ExpDecayKernel(0.7), {"quad_step": 0.125}),
            (ExpDecayKernel(0.7), {}),
            (iid_chain(), {}),
        ],
        ids=["exp-integral", "exp-discrete", "iid-from-0"],
    )
    def test_closed_form_ses_only_when_asked(self, eval0, sg, kind):
        states = np.stack([constant_segment(v, R0, DT).values for v in (1.0, -2.5)])
        grid, groups = sg.profile_groups(eval0, states, 3, 4, RngStream(0), **kind)
        bare_grid, bare_groups = sg.profile_groups(eval0, states, 3, 4, RngStream(0), ses=False, **kind)
        assert np.array_equal(grid, bare_grid)
        assert [g[:2] for g in groups] == [g[:2] for g in bare_groups] == [(0, 2)]
        pairs = list(zip(groups[0][2], bare_groups[0][2]))
        assert len(pairs) == len(grid)
        for (value, se), (bare_value, bare_se) in pairs:
            assert np.array_equal(value, bare_value)
            assert np.array_equal(se, np.zeros(2))
            assert bare_se is None
