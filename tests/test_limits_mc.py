"""Limit-lab tests backed by Monte Carlo runs on the reference model."""

import math

import numpy as np
import pytest

from oracles import collect_profile, delay_ode_mean_integral, scaled
from segflow import (
    CenteredObservable,
    CorrectorConfig,
    DiscreteCorrectorConfig,
    EmpiricalMeasure,
    IidChain,
    MonteCarloSemigroup,
    RngStream,
    clt_test,
    constant_segment,
    corrector,
    martingale_increments,
    phi_f,
    qv_lln_check,
    quadratic_variation,
    slln_variance_decay,
    variance_D,
)
from segflow.registry import build_observable

DT = 1.0 / 128.0
R0 = 0.5
SEED = 424242


class TestCorrectorReferenceModel:
    def test_matches_delay_ode_mean_quadrature(self, ref_model, f_centered, rate_fit):
        # for the linear model the conditional mean solves the deterministic
        # delay ODE, so the corrector at a constant start has a quadrature oracle
        cfg = CorrectorConfig(rate_fit=rate_fit, t_max=6.0, replicas=256, auto_truncate=False)
        xi = constant_segment(1.0, R0, DT)
        est = corrector(MonteCarloSemigroup(ref_model, DT), f_centered, xi, cfg, RngStream(SEED).child(0))
        oracle = delay_ode_mean_integral(2.0, 0.1, R0, 1.0, 6.0, DT) - f_centered.mu_f * 6.0
        combined = 3.0 * est.se + est.tail_bound + 6.0 * f_centered.mu_f_se + 0.01 * abs(oracle)
        assert abs(est.value - oracle) <= combined


class TestPhiF:
    def test_zero_function(self, ref_model, corrector_cfg):
        f = CenteredObservable(build_observable("zero"), 0.0, 0.0, 1)
        est = phi_f(ref_model, f, constant_segment(0.0, R0, DT), 16, corrector_cfg, RngStream(SEED).child(1))
        assert est.value == 0.0
        assert est.se == 0.0

    def test_sign_flip_exact_under_shared_seeds(self, ref_model, f_centered, corrector_cfg):
        xi = constant_segment(0.0, R0, DT)
        rng = RngStream(SEED).child(2)
        a = phi_f(ref_model, f_centered, xi, 24, corrector_cfg, rng)
        b = phi_f(ref_model, scaled(f_centered, -1.0), xi, 24, corrector_cfg, rng)
        assert a.value == b.value

    def test_one_atom_variance_equals_phi(self, ref_model, f_centered, corrector_cfg):
        # variance_D and phi_f build the same split-half increments: on a
        # one-atom measure at the same stream they agree bit for bit
        xi = constant_segment(0.2, R0, DT)
        rng = RngStream(SEED).child(9)
        atom = EmpiricalMeasure(xi.values[None], R0, DT)
        var = variance_D(ref_model, f_centered, atom, corrector_cfg, rng, outer_replicas=16)
        phi = phi_f(ref_model, f_centered, xi, 16, corrector_cfg, rng)
        assert var.d_sq == phi.value
        assert var.truncation == phi.truncation
        assert var.tail_bound == phi.tail_bound

    def test_positive_and_stable_under_replica_doubling(self, ref_model, f_centered, corrector_cfg):
        xi = constant_segment(0.0, R0, DT)
        small = phi_f(ref_model, f_centered, xi, 64, corrector_cfg, RngStream(SEED).child(3))
        big = phi_f(ref_model, f_centered, xi, 128, corrector_cfg, RngStream(SEED).child(4))
        assert small.value > 0
        assert big.value > 0
        assert abs(big.value - small.value) <= max(
            0.10 * abs(small.value), 3.0 * math.hypot(small.se, big.se)
        )


class TestVarianceReport:
    def test_identity_agreement(self, variance_report):
        assert variance_report.discrepancy_in_se <= 3.0

    def test_quadratic_scaling_exact(self, ref_model, f_centered, stationary_sample, rate_fit):
        cfg = CorrectorConfig(rate_fit=rate_fit, t_max=4.0, replicas=16, auto_truncate=False)
        rng = RngStream(SEED).child(5)
        small = variance_D(
            ref_model, f_centered, stationary_sample, cfg, rng, outer_replicas=8, max_atoms=32
        )
        big = variance_D(
            ref_model, scaled(f_centered, 2.0), stationary_sample, cfg, rng, outer_replicas=8, max_atoms=32
        )
        assert big.d_sq == pytest.approx(4.0 * small.d_sq, rel=1e-12)
        assert big.cross_check == pytest.approx(4.0 * small.cross_check, rel=1e-12)


class TestQuadraticVariation:
    def test_k1_bitwise_equals_phi(self, ref_model, f_centered, corrector_cfg):
        xi = constant_segment(0.3, R0, DT)
        rng = RngStream(SEED).child(6)
        qv = quadratic_variation(ref_model, f_centered, xi, 1, corrector_cfg, rng, outer_replicas=16)
        direct = phi_f(ref_model, f_centered, xi, 16, corrector_cfg, rng.child(0, 0))
        assert qv.qv == direct.value
        assert qv.qv_over_k == direct.value

    def test_zero_function(self, ref_model, corrector_cfg):
        f = CenteredObservable(build_observable("zero"), 0.0, 0.0, 1)
        qv = quadratic_variation(
            ref_model, f, constant_segment(0.0, R0, DT), 4, corrector_cfg, RngStream(SEED).child(7), outer_replicas=8
        )
        assert qv.qv == 0.0


class TestMartingaleIncrements:
    def test_conditional_mean_vanishes(self, ref_model, f_centered, discrete_cfg):
        # over replicas of one unit step from a fixed state, E Z = 0
        eta = constant_segment(0.4, R0, DT)
        sg = MonteCarloSemigroup(ref_model, DT)
        rng = RngStream(SEED).child(8)
        replicas = 192
        starts = np.broadcast_to(eta.values, (replicas,) + eta.values.shape).copy()
        ends = sg.unit_states(starts, 1, rng.child(0))[1]
        r_eta = collect_profile(
            *sg.profile_groups(f_centered, eta.values[None], discrete_cfg.k_max, 64, rng.child(1))
        )
        r_end = collect_profile(
            *sg.profile_groups(f_centered, ends, discrete_cfg.k_max, 32, rng.child(2))
        )
        z = f_centered.values(eta.values[None])[0] + r_end.values[:, -1] - r_eta.values[0, -1]
        se = z.std(ddof=1) / math.sqrt(replicas)
        se = math.hypot(se, float(r_eta.ses[0, -1]))
        assert abs(z.mean()) <= 3.0 * se

    def test_sequence_shapes_and_partial_sums(self, ref_model, f_centered, discrete_cfg):
        xi = constant_segment(0.0, R0, DT)
        seq = martingale_increments(ref_model, f_centered, xi, 8, discrete_cfg, RngStream(SEED).child(9))
        assert seq.z.shape == (8,)
        assert np.allclose(seq.partial_sums, np.cumsum(seq.z))


class TestQvLlnIidOracle:
    def test_both_ratios_recover_known_variance(self):
        v = 0.49  # variance of the injected i.i.d. values
        shape = constant_segment(0.0, R0, DT).values.shape

        def sampler(gen, n):
            vals = math.sqrt(v) * gen.standard_normal((n, 1, 1))
            return np.broadcast_to(vals, (n,) + shape).copy()

        chain = IidChain(sampler)
        f = CenteredObservable(build_observable("eval0"), 0.0, 0.0, 1)
        cfg = DiscreteCorrectorConfig(
            rate_fit=None, k_max=4, replicas=8, auto_truncate=False,
        )
        # the iid kernel is exact, but the config still demands a rate fit
        from segflow import RateFit

        cfg = DiscreteCorrectorConfig(
            rate_fit=RateFit(1.0, 1.0, 1.0, np.array([]), np.array([])),
            k_max=4, replicas=8, auto_truncate=False,
        )
        rep = qv_lln_check(
            chain, f, constant_segment(0.0, R0, DT), 256, cfg, RngStream(SEED).child(10),
            d_hat_sq=v, replicas=128,
        )
        assert rep.w0_passed
        assert rep.w4_passed
        assert abs(rep.w0_ratio - v) <= 3.0 * rep.w0_se
        assert abs(rep.w4_ratio - v) <= 3.0 * rep.w4_se

    def test_zero_signal_flag(self):
        shape = constant_segment(0.0, R0, DT).values.shape

        def sampler(gen, n):
            return np.zeros((n,) + shape)

        from segflow import RateFit

        chain = IidChain(sampler)
        f = CenteredObservable(build_observable("zero"), 0.0, 0.0, 1)
        cfg = DiscreteCorrectorConfig(
            rate_fit=RateFit(1.0, 1.0, 1.0, np.array([]), np.array([])), k_max=3, replicas=4
        )
        rep = qv_lln_check(
            chain, f, constant_segment(0.0, R0, DT), 32, cfg, RngStream(SEED).child(11),
            d_hat_sq=0.0, replicas=16,
        )
        assert rep.zero_signal
        assert rep.w0_passed and rep.w4_passed


class TestSllnVarianceDecay:
    def test_zero_function_flag(self, ref_model):
        f = CenteredObservable(build_observable("zero"), 0.0, 0.0, 1)
        rep = slln_variance_decay(
            ref_model, constant_segment(0.0, R0, DT), f, [2.0, 4.0, 8.0, 16.0, 32.0], 100,
            RngStream(SEED).child(12),
        )
        assert rep.zero_signal
        assert np.all(rep.sq_errors == 0.0)

    def test_seed_shift_moves_points_within_noise(self, ref_model, f_centered):
        times = [2.0, 4.0, 8.0, 16.0, 32.0]
        xi = constant_segment(1.0, R0, DT)
        r1 = slln_variance_decay(ref_model, xi, f_centered, times, 128, RngStream(SEED).child(13))
        r2 = slln_variance_decay(ref_model, xi, f_centered, times, 128, RngStream(SEED).child(14))
        gaps = np.abs(r1.sq_errors - r2.sq_errors)
        joint = np.hypot(r1.ses, r2.ses)
        assert np.all(gaps <= 3.5 * joint)


class TestCltSymmetry:
    def test_sign_flip_statistic_exact(self, ref_model, f_centered, variance_report):
        xi = constant_segment(0.0, R0, DT)
        rng = RngStream(SEED).child(17)
        a = clt_test(ref_model, f_centered, xi, [4.0, 16.0], 500, variance_report.d_f, rng, n_boot=40)
        b = clt_test(
            ref_model, scaled(f_centered, -1.0), xi, [4.0, 16.0], 500, variance_report.d_f, rng, n_boot=40
        )
        # the reflected sample realizes the same sup up to CDF rounding
        assert np.allclose(a.statistics, b.statistics, atol=1e-9)
