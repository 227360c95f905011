"""Remaining worked examples and edge contracts not covered elsewhere."""

import math

import numpy as np
import pytest

from segflow import (
    CenteredObservable,
    RngStream,
    clt_test,
    constant_segment,
    derive_seed,
    lil_run,
    sample_invariant,
    slln_variance_decay,
    variance_D,
)
from segflow.registry import build_observable

DT = 1.0 / 128.0
R0 = 0.5


class TestVarianceZeroFunction:
    def test_zero_function_gives_zero_constant(self, ref_model, stationary_sample, corrector_cfg):
        f = CenteredObservable(build_observable("zero"), 0.0, 0.0, 1)
        rep = variance_D(
            ref_model, f, stationary_sample, corrector_cfg, RngStream(2).child(0),
            outer_replicas=4, max_atoms=8,
        )
        assert rep.d_f == 0.0
        assert rep.d_sq == 0.0
        assert rep.cross_check == 0.0
        assert rep.discrepancy_in_se == 0.0


class TestCltDegenerate:
    def test_zero_function_weighted_statistic_zero(self, ref_model):
        f = CenteredObservable(build_observable("zero"), 0.0, 0.0, 1)
        rep = clt_test(
            ref_model, f, constant_segment(0.0, R0, DT), [1.0, 2.0], 500, 0.0, RngStream(3), n_boot=20
        )
        assert rep.degenerate
        assert np.all(rep.statistics == 0.0)

    def test_replica_floor_enforced(self, ref_model, f_centered):
        with pytest.raises(ValueError):
            clt_test(ref_model, f_centered, constant_segment(0.0, R0, DT), [1.0], 100, 0.5, RngStream(4))
        with pytest.raises(ValueError):
            clt_test(ref_model, f_centered, constant_segment(0.0, R0, DT), [1.0], 500, math.nan, RngStream(4))
        # checkpoints off the dt grid are rejected, not rounded to a nearby step;
        # so is a time average at t = 0
        xi = constant_segment(0.0, R0, DT)
        for run in (
            lambda: clt_test(ref_model, f_centered, xi, [1.0, 4.003], 500, 0.5, RngStream(4)),
            lambda: slln_variance_decay(ref_model, xi, f_centered, [1.0, 4.0, 16.003], 100, RngStream(4)),
            lambda: slln_variance_decay(ref_model, xi, f_centered, [0.0, 1.0, 2.0], 100, RngStream(4)),
        ):
            with pytest.raises(ValueError):
                run()


class TestLilDomainErrors:
    def test_nonpositive_d_hat_rejected(self, ref_model, f_centered):
        with pytest.raises(ValueError):
            lil_run(ref_model, f_centered, constant_segment(0.0, R0, DT), 64, 0.0, [16, 64], RngStream(5))
        with pytest.raises(ValueError):
            lil_run(ref_model, f_centered, constant_segment(0.0, R0, DT), 64, math.nan, [16, 64], RngStream(5))

    def test_small_n_max_rejected(self, ref_model, f_centered):
        with pytest.raises(ValueError):
            lil_run(ref_model, f_centered, constant_segment(0.0, R0, DT), 8, 0.5, [16], RngStream(6))

    def test_empty_checkpoints_rejected(self, ref_model, f_centered):
        with pytest.raises(ValueError, match="checkpoints must not be empty"):
            lil_run(ref_model, f_centered, constant_segment(0.0, R0, DT), 64, 0.5, [], RngStream(7))

    @pytest.mark.parametrize("entry", [16.7, 32.0, math.nan])
    def test_non_integer_checkpoint_rejected(self, ref_model, f_centered, entry):
        # 16.7 used to run silently at 16
        with pytest.raises(ValueError, match="checkpoints must be integers"):
            lil_run(ref_model, f_centered, constant_segment(0.0, R0, DT), 64, 0.5, [entry, 64], RngStream(7))

    def test_numpy_integer_checkpoints_accepted(self, ref_model, f_centered):
        xi = constant_segment(0.0, R0, DT)
        ours = lil_run(ref_model, f_centered, xi, 32, 0.5, np.array([16, 32]), RngStream(7))
        ref = lil_run(ref_model, f_centered, xi, 32, 0.5, [32, 16], RngStream(7))
        assert np.array_equal(ours.n_grid, [16, 32])
        assert np.array_equal(ours.f_cumsum, ref.f_cumsum)


class TestEngineReproducibility:
    def test_sample_invariant_bitwise(self, ref_model, xi_zero):
        m1 = sample_invariant(ref_model, xi_zero, 8, 1.0, 1.0, RngStream(777), samples_per_traj=2)
        m2 = sample_invariant(ref_model, xi_zero, 8, 1.0, 1.0, RngStream(777), samples_per_traj=2)
        assert np.array_equal(m1.values, m2.values)


class TestRngGolden:
    def test_stream_values_stable(self):
        # regression guard: the counter-based stream is platform-stable
        gen = RngStream(1, 0).generator()
        draws = gen.standard_normal(3)
        gen2 = RngStream(1, 0).generator()
        assert np.array_equal(draws, gen2.standard_normal(3))
        child = RngStream(1, 0).child(2, 5)
        assert child.stream_index == (0, 2, 5)

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


class TestTrajectoryInvariants:
    def test_length_and_history_prefix(self, ref_model, xi_zero):
        from segflow import simulate

        traj = simulate(ref_model, xi_zero, 2.0, RngStream(10))
        m = traj.n_history
        assert traj.states.shape[0] == int(round((2.0 + R0) / DT)) + 1
        assert np.array_equal(traj.states[: m + 1], xi_zero.values)
        assert np.isfinite(traj.states).all()
