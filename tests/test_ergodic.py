"""Ensemble sampling and rate fitting tests."""

import math
import tracemalloc

import numpy as np
import pytest

from segflow import (
    RngStream,
    constant_segment,
    derive_seed,
    ergodicity_curve,
    sample_invariant,
    simulate,
)
from oracles import euler_chain_rate
from segflow import ergodic
from segflow.cli import run_experiment
from segflow.config import parse_config_dict
from segflow.errors import ShapeError
from segflow.ergodic import RateFit
from segflow.metric import rho_pairs
from segflow.registry import build_model
from segflow.segments import step_windows

DT = 1.0 / 128.0
R0 = 0.5


class TestSampleInvariant:
    def test_frozen_dynamics(self):
        model = build_model("deterministic_decay")
        frozen = constant_segment(0.0, R0, DT)
        # decay from 0 stays at 0: every atom is the zero segment
        m = sample_invariant(model, frozen, 8, 2.6, 1.0, RngStream(1), samples_per_traj=3)
        assert m.n == 24
        assert np.all(m.values == 0.0)

    @pytest.mark.parametrize(
        "args, what",
        [
            ((0, 1.0, 1.0, 1), "n_traj"),
            ((2, -1.0, 1.0, 1), "burn_in"),
            ((2, 1.0, 0.0, 1), "thinning"),
            ((2, 1.0, 1.5 * DT, 1), "thinning"),
            ((2, 1.0, 1.0, 0), "samples_per_traj"),
        ],
        ids=["n_traj-0", "burn_in-negative", "thinning-0", "thinning-off-grid", "samples_per_traj-0"],
    )
    def test_input_rules(self, ref_model, args, what):
        n_traj, burn_in, thinning, per_traj = args
        with pytest.raises(ValueError, match=what):
            sample_invariant(
                ref_model, constant_segment(0.0, R0, DT), n_traj, burn_in, thinning, RngStream(0),
                samples_per_traj=per_traj,
            )

    def test_initial_of_another_delay_rejected(self, ref_model):
        # 33 nodes at step 1/128 span 0.25, not the model's delay of 0.5
        with pytest.raises(ShapeError):
            sample_invariant(ref_model, constant_segment(0.0, 0.25, DT), 2, 0.0, 1.0, RngStream(0))

    def test_mean_zero_by_symmetry(self, ref_model, stationary_sample):
        vals = stationary_sample.values[:, -1, 0]
        se = vals.std(ddof=1) / math.sqrt(len(np.unique(stationary_sample.groups)))
        assert abs(vals.mean()) <= 3.0 * max(se, 0.02)

    def test_variance_matches_long_run_oracle(self, ref_model, stationary_sample):
        # ultra-long single-trajectory time average as the independent oracle
        xi = constant_segment(0.0, R0, DT)
        traj = simulate(ref_model, xi, 3000.0, RngStream(555))
        burn = int(10.0 / ref_model.lambda1 / DT)
        xs = traj.states[traj.n_history + burn :, 0]
        oracle_var = float((xs**2).mean() - xs.mean() ** 2)
        sample_var = float(stationary_sample.values[:, -1, 0].var())
        assert abs(sample_var - oracle_var) / oracle_var < 0.10

    def test_group_labels_track_trajectories(self, stationary_sample):
        groups = stationary_sample.groups
        assert groups is not None
        assert len(np.unique(groups)) == 64


class TestErgodicityCurve:
    def test_frozen_start_against_itself_is_flagged(self, mp):
        # decay from the zero segment stays at zero, as does every atom of its
        # stationary sample: each coupled distance is exactly 0, so no point
        # survives the cut and the rate is unconstrained
        model = build_model("deterministic_decay")
        zero = constant_segment(0.0, R0, DT)
        stationary = sample_invariant(model, zero, 16, 1.0, 1.0, RngStream(1))
        times = [0.5, 1.0, 1.5, 2.0]
        fit = ergodicity_curve(model, zero, stationary, times, mp, 16, RngStream(2))
        assert fit.flagged
        assert fit.n_dropped == len(times)

    def test_transient_start_fits_positive_rate(self, rate_fit):
        assert rate_fit.beta_hat > 0
        assert rate_fit.r_squared >= 0.8
        assert rate_fit.se_beta < rate_fit.beta_hat

    def test_doubling_start_norm_preserves_rate(self, ref_model, stationary_sample, mp):
        times = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        fits = []
        for scale, seed_idx in ((1.0, 0), (2.0, 1)):
            xi = constant_segment(5.0 * scale, R0, DT)
            fits.append(
                ergodicity_curve(
                    ref_model, xi, stationary_sample,
                    times, mp, 256, RngStream(derive_seed(42, seed_idx)),
                )
            )
        f1, f2 = fits
        joint = math.hypot(f1.se_beta, f2.se_beta)
        assert abs(f1.beta_hat - f2.beta_hat) <= 3.0 * joint
        assert f2.c_hat > f1.c_hat

    def test_reference_on_another_grid_rejected(self, ref_model, stationary_sample, mp):
        coarse = constant_segment(5.0, R0, 2 * DT)
        with pytest.raises(ShapeError, match="grid"):
            ergodicity_curve(ref_model, coarse, stationary_sample, [0.5, 1.0], mp, 8, RngStream(45))

    def test_empty_ensemble_rejected(self, ref_model, stationary_sample, mp, xi_five):
        with pytest.raises(ValueError, match="n_traj"):
            ergodicity_curve(ref_model, xi_five, stationary_sample, [0.5, 1.0], mp, 0, RngStream(46))

    def test_times_sharing_a_step_rejected(self, ref_model, stationary_sample, mp, xi_five):
        # 1.0 and 1.0 + 1e-7 both pass the grid rule as step 128: the second
        # would read another time's snapshot
        times = [0.5, 1.0, 1.0 + 1e-7, 1.5]
        with pytest.raises(ValueError, match="steps"):
            ergodicity_curve(ref_model, xi_five, stationary_sample, times, mp, 8, RngStream(47))

    def test_bitwise_reproducible(self, ref_model, stationary_sample, mp, xi_five):
        times = [0.5, 1.0, 2.0]
        f1 = ergodicity_curve(ref_model, xi_five, stationary_sample, times, mp, 64, RngStream(99))
        f2 = ergodicity_curve(ref_model, xi_five, stationary_sample, times, mp, 64, RngStream(99))
        assert np.array_equal(f1.values, f2.values)
        assert f1.beta_hat == f2.beta_hat

    def test_infinite_distance_flags_the_fit(self, ref_model, stationary_sample, mp, xi_five, monkeypatch):
        # an inf distance passes the noise-floor filter and makes the fitted
        # slope NaN; a NaN rate must be flagged, not read as resolved
        distances = iter([1.0, 0.5, math.inf, 0.1])
        monkeypatch.setattr(ergodic, "rho_pairs", lambda a, b, mp: np.full(len(a), next(distances)))
        with np.errstate(invalid="ignore"):
            fit = ergodicity_curve(
                ref_model, xi_five, stationary_sample, [0.5, 1.0, 1.5, 2.0], mp, 8, RngStream(98),
            )
        assert math.isnan(fit.beta_hat)
        assert fit.flagged


def collected_curve_distances(model, initial_a, initial_b, times, mp, n_traj, rng):
    """The distances ``ergodicity_curve`` fits, as it computed them before it
    streamed: every coupled snapshot stepped and copied first, then reduced
    to its mean pair distance."""
    step = initial_a.step
    indices = [int(round(t / step)) for t in times]
    a = np.broadcast_to(initial_a.values, (n_traj,) + initial_a.values.shape)
    b = np.tile(initial_b.values, (-(-n_traj // initial_b.n), 1, 1))[:n_traj]
    both = np.concatenate([a, b])
    windows = step_windows(model, both, indices[-1], step, rng.child(1), pairing="shared")
    snaps = [window.copy() for j, window in windows if j in indices]
    return np.array([rho_pairs(snap[:n_traj], snap[n_traj:], mp).mean() for snap in snaps])


def traced_peak(fn):
    """Peak bytes that ``tracemalloc`` sees allocated while ``fn()`` runs."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestRateOracle:
    def test_default_run_recovers_the_euler_chain_rate(self):
        # the ergodicity kind with default numerics on linear_delay_ou
        # (a=2, b=0.1, r0=0.5, dt=1/128): the coupled pairs contract at the
        # Euler chain's exact rate, 1.76989
        exact = euler_chain_rate(2.0, 0.1, 64, DT)
        record = run_experiment(parse_config_dict(
            {"kind": "ergodicity", "seed": 20240817, "model": {"name": "linear_delay_ou"}}
        ))
        fit = record.payload["rate_fit"]
        assert record.failures == []
        assert abs(fit["beta_hat"] - exact) <= 4.0 * fit["se_beta"]


class TestStreamedCurve:
    @pytest.mark.parametrize("seed", [99, 20240817])
    def test_matches_collected_snapshots(self, ref_model, stationary_sample, mp, xi_five, seed):
        times = [0.5, 1.0, 1.5, 2.5]
        fit = ergodicity_curve(ref_model, xi_five, stationary_sample, times, mp, 96, RngStream(seed))
        ref = collected_curve_distances(ref_model, xi_five, stationary_sample, times, mp, 96, RngStream(seed))
        assert (ref > 1e-13).all()
        assert np.array_equal(fit.values, ref)
        assert np.array_equal(fit.times, times)

    def test_peak_memory_does_not_grow_with_the_grid(self, ref_model, stationary_sample, mp, xi_five):
        # both runs end at step 1024, where the 128-path ring is full-size
        # (and mmap'd, so untraced); each extra grid time would keep one more
        # (2 n_traj, m+1, 1) snapshot if the snapshots were collected
        n_traj = 64
        snapshot = 2 * n_traj * xi_five.values.size * 8

        def peak(times):
            return traced_peak(
                lambda: ergodicity_curve(
                    ref_model, xi_five, stationary_sample, times, mp, n_traj, RngStream(5)
                )
            )

        coarse = peak([2.5, 5.0, 8.0])
        fine = peak([0.5 * k for k in range(5, 17)])
        assert fine <= coarse + snapshot


class TestRateFit:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_value_rejected(self, bad):
        with pytest.raises(ValueError, match="strictly positive"):
            RateFit(c_hat=1.0, beta_hat=1.0, r_squared=1.0, times=[1.0, 2.0], values=[0.5, bad])
