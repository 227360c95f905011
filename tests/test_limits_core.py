"""Limit-lab tests with exact or synthetic-kernel oracles (no heavy MC)."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from segflow import (
    CenteredObservable,
    ConfigurationError,
    CorrectorConfig,
    DiscreteCorrectorConfig,
    EmpiricalMeasure,
    ExpDecayKernel,
    GeometricKernel,
    IidChain,
    IidKernel,
    MonteCarloSemigroup,
    Observable,
    RateFit,
    RngStream,
    Segment,
    Trajectory,
    additive_functional,
    cameron_martin_norm,
    clt_statistic,
    constant_segment,
    corrector,
    martingale_increments,
    phi_f,
    quadratic_variation,
    rescaled_path_nodes,
    simulate,
    variance_D,
    vph_residual,
)
from segflow.registry import build_model, build_observable
from segflow.stats import kolmogorov_statistic, weighted_degenerate_statistic

DT = 1.0 / 128.0
R0 = 0.5


def centered(base, mu=0.0, se=0.0):
    return CenteredObservable(base, mu, se, n_sample=1)


def zero_obs():
    return centered(build_observable("zero"))


def eval0_obs():
    return centered(build_observable("eval0"))


def unit_rate_fit():
    """Exact decay law for synthetic kernels: c=1, beta=rate=1."""
    return RateFit(
        c_hat=1.0, beta_hat=1.0, r_squared=1.0,
        times=np.array([0.0, 1.0]), values=np.array([1.0, math.exp(-1.0)]),
    )


class TestAdditiveFunctional:
    def frozen_traj(self, value, horizon=4.0):
        model = build_model("deterministic_decay")
        states = np.full((int(horizon / DT) + 65, 1), float(value))
        return Trajectory(model, DT, horizon, states, RngStream(0))

    def test_constant_one(self):
        f = centered(Observable("one", lambda s: 1.0, eval_batch=lambda v: np.ones(v.shape[0])))
        traj = self.frozen_traj(0.7)
        for t in (0.5, 1.0, 3.5):
            assert additive_functional(traj, f, t) == pytest.approx(1.0, rel=1e-12)

    def test_constant_trajectory(self):
        traj = self.frozen_traj(0.7)
        assert additive_functional(traj, eval0_obs(), 2.0) == pytest.approx(0.7, rel=1e-12)

    def test_linear_path_integral(self):
        # injected X(s) = s: (1/2) integral_0^2 s ds = 1, trapezoid-exact
        model = build_model("deterministic_decay")
        n = int(2.0 / DT)
        states = (np.arange(-64, n + 1) * DT)[:, None]
        traj = Trajectory(model, DT, 2.0, states, RngStream(0))
        val = additive_functional(traj, eval0_obs(), 2.0)
        assert val == pytest.approx(1.0, abs=DT**2)

    def test_linear_in_f(self):
        model = build_model("linear_delay_ou")
        traj = simulate(model, constant_segment(1.0, R0, DT), 4.0, DT, RngStream(77))
        f = eval0_obs()
        g = centered(build_observable("sin_eval0"))
        combo = centered(
            Observable(
                "combo",
                lambda s: 2.0 * f.eval(s) - 3.0 * g.eval(s),
                eval_batch=lambda v: 2.0 * f.values(v) - 3.0 * g.values(v),
            )
        )
        a_f = additive_functional(traj, f, 3.0)
        a_g = additive_functional(traj, g, 3.0)
        a_c = additive_functional(traj, combo, 3.0)
        assert a_c == pytest.approx(2.0 * a_f - 3.0 * a_g, rel=1e-12)

    def test_out_of_range(self):
        traj = self.frozen_traj(1.0)
        with pytest.raises(ValueError):
            additive_functional(traj, eval0_obs(), 0.0)
        with pytest.raises(ValueError):
            additive_functional(traj, eval0_obs(), 5.0)


class TestCorrectorSynthetic:
    def test_zero_function(self):
        cfg = CorrectorConfig(rate_fit=unit_rate_fit(), t_max=8.0, replicas=8)
        est = corrector(ExpDecayKernel(1.0), zero_obs(), constant_segment(1.0, R0, DT), cfg, RngStream(1))
        assert est.value == 0.0
        assert est.tail_bound == 0.0

    def test_exponential_kernel_integrates_to_one(self):
        cfg = CorrectorConfig(rate_fit=unit_rate_fit(), t_max=12.0, replicas=8, auto_truncate=False)
        xi = constant_segment(1.0, R0, DT)
        est = corrector(ExpDecayKernel(1.0), eval0_obs(), xi, cfg, RngStream(2))
        # exact integral is 1; allow quadrature + truncation tail
        quad_err = DT**2 / 12.0 * 1.0
        assert abs(est.value - 1.0) <= quad_err + math.exp(-12.0) + 1e-9
        assert est.se == 0.0

    def test_auto_truncation_respects_tail_rule(self):
        cfg = CorrectorConfig(rate_fit=unit_rate_fit(), t_max=12.0, replicas=8, tail_fraction=0.1)
        xi = constant_segment(1.0, R0, DT)
        est = corrector(ExpDecayKernel(1.0), eval0_obs(), xi, cfg, RngStream(3))
        assert est.truncation < 12.0
        assert est.tail_bound <= 0.1 * abs(est.value) * 1.5

    def test_missing_rate_fit(self):
        cfg = CorrectorConfig(rate_fit=None)
        with pytest.raises(ConfigurationError):
            corrector(ExpDecayKernel(1.0), eval0_obs(), constant_segment(1.0, R0, DT), cfg, RngStream(4))


class TestDiscreteCorrectorSynthetic:
    def test_zero_function(self):
        cfg = DiscreteCorrectorConfig(rate_fit=unit_rate_fit(), k_max=6, replicas=8)
        est = corrector(GeometricKernel(0.5), zero_obs(), constant_segment(1.0, R0, DT), cfg, RngStream(5))
        assert est.value == 0.0

    def test_geometric_series_sums_to_two(self):
        cfg = DiscreteCorrectorConfig(
            rate_fit=RateFit(
                c_hat=1.0, beta_hat=math.log(2.0), r_squared=1.0,
                times=np.array([]), values=np.array([]),
            ),
            k_max=20, replicas=8, auto_truncate=False,
        )
        xi = constant_segment(1.0, R0, DT)
        est = corrector(GeometricKernel(0.5), eval0_obs(), xi, cfg, RngStream(6))
        assert est.value == pytest.approx(2.0, abs=2.0 * 0.5**20)


class TestVphSyntheticKernel:
    def test_residual_zero_on_decay_model(self):
        # noise-free decay model + exact exponential kernel: both sides of the
        # identity are deterministic and cancel
        model = build_model("deterministic_decay", {"rate": 1.0})
        cfg = CorrectorConfig(rate_fit=unit_rate_fit(), t_max=14.0, replicas=8, auto_truncate=False)
        xi = constant_segment(1.0, R0, DT)
        rep = vph_residual(
            model, eval0_obs(), xi, cfg, RngStream(7), replicas=8, s_nodes=9,
            sg=ExpDecayKernel(1.0),
        )
        assert abs(rep.residual) <= 3.0 * max(rep.combined_se, 2e-3)

    def test_zero_function(self):
        model = build_model("deterministic_decay", {"rate": 1.0})
        cfg = CorrectorConfig(rate_fit=unit_rate_fit(), t_max=8.0, replicas=8)
        rep = vph_residual(
            model, zero_obs(), constant_segment(1.0, R0, DT), cfg, RngStream(8),
            replicas=8, s_nodes=9, sg=ExpDecayKernel(1.0),
        )
        assert rep.residual == 0.0


def decay_model():
    return build_model("deterministic_decay", {"rate": 1.0})


class TestPhiBatchOracle:
    """The batched variance functional on the noise-free decay model with
    the exact exponential kernel: every state's value is deterministic."""

    cfg = CorrectorConfig(rate_fit=unit_rate_fit(), t_max=8.0, replicas=8, auto_truncate=False)

    def test_quadratic_variation_per_state_is_phi_f(self):
        model, f, sg = decay_model(), eval0_obs(), ExpDecayKernel(1.0)
        xi = constant_segment(1.0, R0, DT)
        qv = quadratic_variation(model, f, xi, 5, self.cfg, RngStream(9), outer_replicas=4, sg=sg)
        # the noise-free path visits the same states on any stream
        states = MonteCarloSemigroup(model, DT).unit_states(xi.values[None], 4, RngStream(10))[:, 0]
        phis = [phi_f(model, f, Segment(s, R0, DT), 4, self.cfg, RngStream(11), sg=sg) for s in states]
        assert len(set(p.value for p in phis)) == 5
        assert qv.per_state.tolist() == [p.value for p in phis]
        assert qv.per_state_se.tolist() == [p.se for p in phis]

    def test_variance_D_takes_one_outer_replica(self):
        values = np.stack([constant_segment(v, R0, DT).values for v in (0.5, 1.0, 1.5)])
        atoms = EmpiricalMeasure(values, R0, DT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = variance_D(
                decay_model(), eval0_obs(), atoms, self.cfg, RngStream(12), outer_replicas=1,
                sg=ExpDecayKernel(1.0),
            )
        assert rep.outer_replicas == 1
        assert math.isfinite(rep.d_sq_se)


class TestOneReplicaRejected:
    cfg = CorrectorConfig(rate_fit=unit_rate_fit(), t_max=8.0, replicas=8)
    xi = constant_segment(1.0, R0, DT)
    sg = ExpDecayKernel(1.0)

    def test_phi_f(self):
        with pytest.raises(ValueError, match="at least 2"):
            phi_f(decay_model(), eval0_obs(), self.xi, 1, self.cfg, RngStream(0), sg=self.sg)

    def test_vph_residual(self):
        with pytest.raises(ValueError, match="at least 2"):
            vph_residual(decay_model(), eval0_obs(), self.xi, self.cfg, RngStream(0), replicas=1, sg=self.sg)

    def test_quadratic_variation(self):
        with pytest.raises(ValueError, match="at least 2"):
            quadratic_variation(
                decay_model(), eval0_obs(), self.xi, 3, self.cfg, RngStream(0), outer_replicas=1, sg=self.sg
            )

    @pytest.mark.parametrize("replicas", [2, 3])
    def test_corrector_halves_of_one_replica(self, replicas):
        # a half of one replica has no standard error
        cfg = replace(self.cfg, replicas=replicas)
        with pytest.raises(ValueError, match="at least 4 corrector replicas"):
            phi_f(decay_model(), eval0_obs(), self.xi, 8, cfg, RngStream(0), sg=self.sg)


class TestMartingaleIidChain:
    def make_chain(self, scale=1.0):
        shape = constant_segment(0.0, R0, DT).values.shape

        def sampler(gen, n):
            # all nodes equal per draw: segment frozen at a fresh N(0, scale^2) value
            vals = scale * gen.standard_normal((n, 1, 1))
            return np.broadcast_to(vals, (n,) + shape).copy()

        return IidChain(sampler, stationary_mean=0.0)

    def test_zero_function_gives_zero_increments(self):
        cfg = DiscreteCorrectorConfig(rate_fit=unit_rate_fit(), k_max=4, replicas=8)
        seq = martingale_increments(
            self.make_chain(), zero_obs(), constant_segment(0.0, R0, DT), 12, cfg, RngStream(9)
        )
        assert np.all(seq.z == 0.0)

    def test_increments_reduce_to_f_values(self):
        # shifted corrector vanishes under the forgetful kernel: Z_k = f(X_k)
        cfg = DiscreteCorrectorConfig(rate_fit=unit_rate_fit(), k_max=4, replicas=8)
        seq = martingale_increments(
            self.make_chain(), eval0_obs(), constant_segment(0.0, R0, DT), 12, cfg, RngStream(10)
        )
        assert np.allclose(seq.z, seq.f_values[1:])
        assert np.allclose(seq.partial_sums, np.cumsum(seq.f_values[1:]))


class TestCltStatistics:
    def test_degenerate_zero_samples(self):
        samples = np.zeros(500)
        assert clt_statistic(samples, 0.0) == 0.0

    def test_weighted_statistic_handles_mass_away_from_zero(self):
        # all mass at 1: F_emp jumps at 1, reference jumps at 0; the weighted
        # sup is attained just left of 1 with weight ~1 and gap 1
        samples = np.full(100, 1.0)
        assert weighted_degenerate_statistic(samples) == pytest.approx(1.0)

    def test_kolmogorov_matches_dkw_scale(self):
        # draws from the limit itself: statistic concentrates near 0.87/sqrt(R)
        gen = RngStream(11).generator()
        d = 0.7
        stats = [
            kolmogorov_statistic(gen.normal(0.0, d, size=2000), d) for _ in range(20)
        ]
        mean_stat = float(np.mean(stats))
        assert 0.5 / math.sqrt(2000) < mean_stat < 1.4 / math.sqrt(2000)

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            clt_statistic(np.zeros(10), -1.0)
        with pytest.raises(ValueError):
            clt_statistic(np.zeros(10), math.nan)
        with pytest.raises(ValueError):
            kolmogorov_statistic(np.zeros(10), math.nan)


class TestCameronMartin:
    def test_identity_path_is_boundary_member(self):
        grid = np.linspace(0.0, 1.0, 33)
        rep = cameron_martin_norm(grid)
        assert rep.norm == pytest.approx(1.0, rel=1e-12)
        assert rep.member

    def test_double_slope_excluded(self):
        grid = 2.0 * np.linspace(0.0, 1.0, 33)
        rep = cameron_martin_norm(grid)
        assert rep.norm == pytest.approx(4.0, rel=1e-12)
        assert not rep.member

    def test_hand_evaluated_plateau(self):
        rep = cameron_martin_norm([0.0, 0.5, 0.5])
        assert rep.norm == pytest.approx(0.5, rel=1e-12)
        assert rep.member

    def test_quadratic_scaling(self):
        gen = RngStream(12).generator()
        h = np.concatenate([[0.0], gen.standard_normal(16).cumsum() * 0.05])
        n1 = cameron_martin_norm(h).norm
        n3 = cameron_martin_norm(3.0 * h).norm
        assert n3 == pytest.approx(9.0 * n1, rel=1e-12)

    def test_nonzero_start_rejected(self):
        with pytest.raises(ValueError):
            cameron_martin_norm([0.1, 0.2, 0.3])


class TestRescaledPathNodes:
    def test_node_convention(self):
        csum = np.arange(1.0, 40.0)  # partial sums 1, 2, 3, ...
        nodes = rescaled_path_nodes(csum, 20, d_hat=1.0)
        assert nodes[0] == 0.0 and nodes[1] == 0.0
        denom = math.sqrt(2.0 * 20 * math.log(math.log(20.0)))
        assert nodes[2] == pytest.approx(1.0 / denom)
        assert nodes[20] == pytest.approx(19.0 / denom)
