"""Segment type, extraction, and integrator tests."""

import math
import mmap
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_lyapunov

from oracles import method_of_steps
from segflow import (
    ModelSpec,
    NumericBlowupError,
    RngStream,
    Segment,
    ShapeError,
    Trajectory,
    constant_segment,
    segment_at,
    simulate,
    sup_norm,
)
from segflow import segments
from segflow.ergodic import coupled_snapshots
from segflow.registry import MODEL_BUILDERS, build_model, build_observable
from segflow.segments import _ring, record, step_windows
from segflow.semigroup import MonteCarloSemigroup


def make_decay(rate=1.0, r0=0.5):
    return build_model("deterministic_decay", {"rate": rate, "r0": r0})


def frozen_model(r0=0.5, dim=1):
    zero = np.zeros((dim, dim))
    return ModelSpec(
        dim=dim,
        delay=r0,
        drift=lambda seg: np.zeros(dim),
        diffusion=lambda seg: zero,
        lambda1=1.0,
        lambda2=0.0,
        sigma_bound=0.0,
        sigma_inv_bound=None,
        drift_batch=lambda segs: np.zeros((segs.shape[0], dim)),
        diffusion_is_constant=True,
        name="frozen",
    )


class TestSegment:
    def test_node_count_enforced(self):
        with pytest.raises(ShapeError):
            Segment(np.zeros((4, 1)), delay=0.5, step=0.25)  # needs 3 nodes

    def test_step_must_divide_delay(self):
        with pytest.raises(ValueError):
            Segment(np.zeros((3, 1)), delay=0.5, step=0.21)

    def test_finite_values_required(self):
        vals = np.zeros((3, 1))
        vals[1] = np.nan
        with pytest.raises(ValueError):
            Segment(vals, delay=0.5, step=0.25)

    def test_value_at_interpolates(self):
        seg = Segment(np.array([[0.0], [1.0], [4.0]]), delay=0.5, step=0.25)
        assert seg.value_at(-0.5) == 0.0
        assert seg.value_at(0.0) == 4.0
        assert seg.value_at(-0.375) == pytest.approx(0.5)


class TestSupNorm:
    def test_zero_segment(self):
        assert sup_norm(constant_segment(0.0, 0.5, 0.25)) == 0.0

    def test_direct_maximum(self):
        seg = Segment(np.array([[1.0], [-3.0], [2.0]]), 0.5, 0.25)
        assert sup_norm(seg) == 3.0

    def test_euclidean_per_node(self):
        seg = Segment(np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 0.0]]), 0.5, 0.25)
        assert sup_norm(seg) == 5.0


class TestSegmentAt:
    def test_constant_trajectory(self):
        model = frozen_model()
        traj = simulate(model, constant_segment(2.5, 0.5, 0.25), 2.0, 0.25, RngStream(0))
        for t in (0.0, 0.7, 1.3, 2.0):
            seg = segment_at(traj, t)
            assert np.allclose(seg.values, 2.5)

    def test_on_grid_exact_copy(self):
        model = make_decay()
        traj = simulate(model, constant_segment(1.0, 0.5, 0.125), 2.0, 0.125, RngStream(1))
        m = traj.n_history
        k = 8  # t = 1.0
        seg = segment_at(traj, 1.0)
        assert np.array_equal(seg.values, traj.states[k : k + m + 1])

    def test_linear_interpolation_off_grid(self):
        # injected trajectory X(t) = t on the grid, r0 = 0.5, dt = 0.25
        model = make_decay()
        states = np.arange(-0.5, 1.001, 0.25)[:, None]
        traj = Trajectory(model, 0.25, 1.0, states, RngStream(0))
        seg = segment_at(traj, 0.6)
        assert np.allclose(seg.values.ravel(), [0.1, 0.35, 0.6])

    def test_out_of_range(self):
        model = frozen_model()
        traj = simulate(model, constant_segment(0.0, 0.5, 0.25), 1.0, 0.25, RngStream(0))
        with pytest.raises(ValueError):
            segment_at(traj, -0.3)
        with pytest.raises(ValueError):
            segment_at(traj, 1.5)


class TestSimulate:
    def test_zero_dynamics_frozen(self):
        model = frozen_model()
        traj = simulate(model, constant_segment(3.0, 0.5, 0.25), 3.0, 0.25, RngStream(7))
        assert np.all(traj.states == 3.0)

    def test_exponential_decay(self):
        # x' = -x from 1: Euler at dt=1e-3 lands within 5e-3 of e^-1
        dt = 0.5 / 512  #   ~9.8e-4, divides the delay
        model = make_decay()
        traj = simulate(model, constant_segment(1.0, 0.5, dt), 1.0, dt, RngStream(3))
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 5e-3

    def test_delay_ode_matches_method_of_steps(self):
        dt = 1.0 / 128.0
        model = build_model("linear_delay_ou", {"a": 2.0, "b": 0.1, "sigma": 1.0})
        # zero-noise variant of the same drift
        silent = ModelSpec(
            dim=1,
            delay=0.5,
            drift=model.drift,
            diffusion=lambda seg: np.zeros((1, 1)),
            lambda1=model.lambda1,
            lambda2=model.lambda2,
            sigma_bound=0.0,
            sigma_inv_bound=None,
            drift_batch=model.drift_batch,
            diffusion_is_constant=True,
        )
        traj = simulate(silent, constant_segment(1.0, 0.5, dt), 2.0, dt, RngStream(0))
        ts, xs = method_of_steps(lambda x, xd: -2.0 * x + 0.1 * xd, lambda t: 1.0, 0.5, 2.0, dt)
        ours = traj.states[traj.n_history :, 0]
        assert np.max(np.abs(ours - xs)) < 1e-2

    def test_euler_error_halves_with_step(self):
        # deterministic delay ODE: halving dt at least halves the max error (20% slack)
        def run(dt):
            model = ModelSpec(
                dim=1,
                delay=0.5,
                drift=lambda seg: -2.0 * seg.values[-1] + 0.1 * seg.values[0],
                diffusion=lambda seg: np.zeros((1, 1)),
                lambda1=3.9,
                lambda2=0.1,
                sigma_bound=0.0,
                sigma_inv_bound=None,
                drift_batch=lambda segs: -2.0 * segs[:, -1, :] + 0.1 * segs[:, 0, :],
                diffusion_is_constant=True,
            )
            traj = simulate(model, constant_segment(1.0, 0.5, dt), 2.0, dt, RngStream(0))
            ts, xs = method_of_steps(
                lambda x, xd: -2.0 * x + 0.1 * xd, lambda t: 1.0, 0.5, 2.0, dt
            )
            return np.max(np.abs(traj.states[traj.n_history :, 0] - xs))

        e_coarse = run(1.0 / 64.0)
        e_fine = run(1.0 / 128.0)
        assert e_fine <= 0.5 * e_coarse * 1.2

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_blowup_reports_time(self):
        model = ModelSpec(
            dim=1,
            delay=0.5,
            drift=lambda seg: seg.values[-1] ** 3 * 1e3,
            diffusion=lambda seg: np.zeros((1, 1)),
            lambda1=1.0,
            lambda2=0.0,
            sigma_bound=0.0,
            sigma_inv_bound=None,
            drift_batch=lambda segs: segs[:, -1, :] ** 3 * 1e3,
            diffusion_is_constant=True,
        )
        with pytest.raises(NumericBlowupError) as err:
            simulate(model, constant_segment(5.0, 0.5, 0.25), 50.0, 0.25, RngStream(0))
        assert err.value.time > 0

    def test_incompatible_initial_rejected(self):
        model = frozen_model()
        with pytest.raises(ShapeError):
            simulate(model, constant_segment(0.0, 0.5, 0.25, dim=2), 1.0, 0.25, RngStream(0))

    def test_horizon_must_be_grid_multiple(self):
        model = frozen_model()
        with pytest.raises(ValueError):
            simulate(model, constant_segment(0.0, 0.5, 0.25), 1.1, 0.25, RngStream(0))


class TestDeterminism:
    def test_bitwise_identical_runs(self, ref_model):
        dt = 1.0 / 128.0
        xi = constant_segment(1.0, 0.5, dt)
        t1 = simulate(ref_model, xi, 2.0, dt, RngStream(99, 5))
        t2 = simulate(ref_model, xi, 2.0, dt, RngStream(99, 5))
        assert np.array_equal(t1.states, t2.states)

    def test_different_streams_differ(self, ref_model):
        dt = 1.0 / 128.0
        xi = constant_segment(1.0, 0.5, dt)
        t1 = simulate(ref_model, xi, 1.0, dt, RngStream(99, 5))
        t2 = simulate(ref_model, xi, 1.0, dt, RngStream(99, 6))
        assert not np.array_equal(t1.states, t2.states)

    def test_segment_consistency_on_grid(self, ref_model):
        dt = 1.0 / 128.0
        traj = simulate(ref_model, constant_segment(1.0, 0.5, dt), 2.0, dt, RngStream(11))
        m = traj.n_history
        for k in (0, 37, 128, 256):
            seg = segment_at(traj, k * dt)
            raw = np.abs(traj.states[k : k + m + 1, 0]).max()
            assert sup_norm(seg) == raw


class TestModelSpec:
    def test_side_condition_enforced(self):
        with pytest.raises(ValueError):
            ModelSpec(
                dim=1,
                delay=0.5,
                drift=lambda s: -s.values[-1],
                diffusion=lambda s: np.eye(1),
                lambda1=0.5,
                lambda2=0.4,  # 0.5 < 0.4*e^0.25
                sigma_bound=1.0,
                sigma_inv_bound=1.0,
            )

    def test_lambda1_positive(self):
        with pytest.raises(ValueError):
            ModelSpec(
                dim=1,
                delay=0.5,
                drift=lambda s: -s.values[-1],
                diffusion=lambda s: np.eye(1),
                lambda1=-0.1,
                lambda2=0.0,
                sigma_bound=1.0,
                sigma_inv_bound=1.0,
            )


# -- the recording driver ---------------------------------------------------

DT = 1.0 / 32.0


def ref_record(model, init, n_steps, rng, sample_at, sample, integrate_at, integrand):
    """Per-step bookkeeping over step_windows, the way consumers kept it."""
    samples = {}
    integrals = {}
    partial = prev = None
    for j, window in step_windows(model, init, n_steps, DT, rng):
        vals = np.array(integrand(window), dtype=float)
        if prev is None:
            partial = np.zeros(vals.shape)
        else:
            partial += 0.5 * (prev + vals) * DT
        prev = vals
        if j in integrate_at:
            integrals[j] = partial.copy()
        if j in sample_at:
            samples[j] = np.array(sample(window))
    return samples, integrals


# Per-step coefficient resolution written apart from segments._euler_maps:
# the reference loops below hold step_windows to it.
class _BatchCoefficients:
    """Resolve scalar/batched coefficient callbacks once per run."""

    def __init__(self, model: ModelSpec, delay: float, step: float):
        self.model = model
        self.delay = delay
        self.step = step
        self._const_sigma = None
        self._const_scalar = None

    def drift(self, segs: np.ndarray) -> np.ndarray:
        if self.model.drift_batch is not None:
            return self.model.drift_batch(segs)
        out = np.empty((segs.shape[0], self.model.dim))
        for i in range(segs.shape[0]):
            out[i] = self.model.drift(Segment(segs[i], self.delay, self.step))
        return out

    def constant_scalar(self, segs: np.ndarray) -> Optional[float]:
        """The diffusion as one float when it is a constant scalar, else None."""
        if not self.model.diffusion_is_constant:
            return None
        if self._const_sigma is None:
            sig = np.asarray(
                self.model.diffusion(Segment(segs[0], self.delay, self.step)), dtype=float
            )
            self._const_sigma = sig
            if sig.ndim == 0 or (sig.ndim == 2 and sig.shape == (1, 1)):
                self._const_scalar = float(np.ravel(sig)[0])
        return self._const_scalar

    def noise(self, segs: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Apply the diffusion matrix to scaled normal draws ``z`` of shape (n, d)."""
        if self.model.diffusion_is_constant:
            if self.constant_scalar(segs) is not None:
                return self._const_scalar * z
            return z @ self._const_sigma.T
        if self.model.diffusion_batch is not None:
            sig = np.asarray(self.model.diffusion_batch(segs))
            if sig.ndim == 2:  # diagonal convention
                return sig * z
            return np.einsum("nij,nj->ni", sig, z)
        out = np.empty_like(z)
        for i in range(segs.shape[0]):
            sig = np.asarray(self.model.diffusion(Segment(segs[i], self.delay, self.step)))
            out[i] = sig @ z[i]
        return out


def old_coupled_loop(model, a, b, step_indices, step, rng):
    """The hand-written coupled Euler loop that preceded the shared-noise driver."""
    wanted = sorted(set(int(k) for k in step_indices))
    last = wanted[-1] if wanted else 0
    n = a.shape[0]
    out = {}
    coeffs = _BatchCoefficients(model, model.delay, step)
    gen = rng.generator()
    sq = math.sqrt(step)
    m = a.shape[1] - 1
    rows = max(2 * (m + 1), int(4_000_000 // max(1, 2 * n * model.dim)))
    buf = np.empty((min(rows, last + m + 1) + m + 1, 2 * n, model.dim))
    buf[: m + 1] = np.concatenate([a, b], axis=0).transpose(1, 0, 2)
    head = m
    z = np.empty((n, model.dim))
    zz = np.empty((2 * n, model.dim))
    if 0 in wanted:
        win = buf[head - m : head + 1].transpose(1, 0, 2)
        out[0] = (win[:n].copy(), win[n:].copy())
    for j in range(1, last + 1):
        if head + 1 >= buf.shape[0]:
            buf[: m + 1] = buf[head - m : head + 1]
            head = m
        window = buf[head - m : head + 1]
        segs = window.transpose(1, 0, 2)
        drift = coeffs.drift(segs)
        gen.standard_normal((n, model.dim), out=z)
        np.multiply(z, sq, out=z)
        zz[:n] = z
        zz[n:] = z
        noise = coeffs.noise(segs, zz)
        nxt = buf[head + 1]
        np.add(window[-1], noise, out=nxt)
        nxt += drift * step
        head += 1
        if not math.isfinite(float(nxt.sum())):
            raise NumericBlowupError("state became non-finite in coupled run", j * step)
        if j in wanted:
            win = buf[head - m : head + 1].transpose(1, 0, 2)
            out[j] = (win[:n].copy(), win[n:].copy())
    return [out[k] for k in sorted(out)]


def spread_initials(width, seed=0):
    gen = np.random.default_rng(seed)
    return gen.normal(size=(width, 17, 1))  # delay 0.5 at DT = 1/32: 17 nodes


@pytest.fixture(params=["linear_delay_ou", "tanh_diffusion"])
def any_model(request):
    return build_model(request.param)


class TestRecord:
    @pytest.mark.parametrize("width", [1, 260])
    def test_matches_reference_loop(self, any_model, width):
        init = spread_initials(width)
        f = build_observable("eval0")
        sample_at = [0, 5, 40, 41, 200]
        integrate_at = [0, 1, 33, 200]
        rng = RngStream(5, 1)
        ref_s, ref_i = ref_record(any_model, init, 200, rng, sample_at, f.values, integrate_at, f.values)
        samples, integrals = record(
            any_model, init, 200, DT, rng,
            sample_at=sample_at, sample=f.values, integrate_at=integrate_at, integrand=f.values,
        )
        assert samples.shape == (len(sample_at), width)
        for i, k in enumerate(sample_at):
            assert np.array_equal(samples[i], ref_s[k])
        for i, k in enumerate(integrate_at):
            assert np.array_equal(integrals[i], ref_i[k])

    # at width 8000 the ring buffer steps through 2(m+1) = 34 rows and at
    # width 260 through 504, so 600 steps wrap both
    @pytest.mark.parametrize("width", [1, 260, 8000])
    def test_window_copies_survive_the_ring_buffer(self, width):
        model = build_model("linear_delay_ou")
        init = spread_initials(width, seed=1)
        steps = [0, 3, 150, 151, 600]
        rng = RngStream(8)
        ref, _ = ref_record(model, init, 600, rng, steps, np.copy, [], lambda w: w[:, -1, 0])
        windows, integrals = record(model, init, 600, DT, rng, sample_at=steps)
        assert integrals is None
        assert windows.shape == (len(steps), width, 17, 1)
        for i, k in enumerate(steps):
            assert np.array_equal(windows[i], ref[k])

    def test_order_and_repeats_follow_sample_at(self):
        model = build_model("linear_delay_ou")
        init = spread_initials(3)
        windows, _ = record(model, init, 20, DT, RngStream(2), sample_at=[20, 0, 20])
        ordered, _ = record(model, init, 20, DT, RngStream(2), sample_at=[0, 20])
        assert np.array_equal(windows[0], ordered[1])
        assert np.array_equal(windows[1], ordered[0])
        assert np.array_equal(windows[2], ordered[1])

    def test_nothing_recorded(self):
        samples, integrals = record(build_model("linear_delay_ou"), spread_initials(2), 4, DT, RngStream(0))
        assert samples.size == 0 and integrals is None

    def test_rejects_steps_outside_run(self):
        model = build_model("linear_delay_ou")
        with pytest.raises(ValueError):
            record(model, spread_initials(2), 10, DT, RngStream(0), sample_at=[11])
        with pytest.raises(ValueError):
            record(model, spread_initials(2), 10, DT, RngStream(0), integrate_at=[5])

    @pytest.mark.parametrize("r0, stepped_rows", [(0.25, 32), (0.5, 34)])
    def test_wide_ring_stays_within_budget(self, monkeypatch, r0, stepped_rows):
        # 32 rows of 4096 floats fill the 1 MiB budget (m+1 = 9 nodes); a
        # window of m+1 = 17 nodes still needs 34; the m+1 rows carried at a
        # wrap come on top
        shapes = []

        def spy(shape):
            shapes.append(shape)
            return _ring(shape)

        monkeypatch.setattr(segments, "_ring", spy)
        m = int(round(r0 / DT))
        init = np.random.default_rng(0).normal(size=(4096, m + 1, 1))
        record(build_model("linear_delay_ou", {"r0": r0}), init, 600, DT, RngStream(3))
        assert shapes == [(stepped_rows + m + 1, 4096, 1)]

    def test_large_rings_get_their_own_mapping(self):
        # the width-260 and width-8000 cases above run on such rings
        small, large = _ring((4, 8, 1)), _ring((600, 4096, 1))
        assert small.base is None
        owner = large
        while isinstance(owner, np.ndarray):
            owner = owner.base
        assert isinstance(memoryview(owner).obj, mmap.mmap)
        assert large.flags.writeable and large.shape == (600, 4096, 1)


class TestSharedNoise:
    @pytest.mark.parametrize("half", [1, 300])
    def test_matches_old_coupled_loop(self, any_model, half):
        a = spread_initials(half, seed=2)
        b = spread_initials(half, seed=3)
        steps = [0, 2, 70, 250]
        rng = RngStream(17, 4)
        old = old_coupled_loop(any_model, a, b, steps, DT, rng)
        new = coupled_snapshots(any_model, a, b, steps, DT, rng)
        assert len(new) == len(old)
        for (old_a, old_b), (new_a, new_b) in zip(old, new):
            assert np.array_equal(new_a, old_a)
            assert np.array_equal(new_b, old_b)

    @pytest.mark.parametrize("half", [1, 300])
    def test_identical_halves_stay_identical(self, any_model, half):
        a = spread_initials(half, seed=4)
        windows, _ = record(
            any_model, np.concatenate([a, a]), 300, DT, RngStream(6),
            sample_at=[1, 150, 300], shared_noise=True,
        )
        assert np.array_equal(windows[:, :half], windows[:, half:])
        assert not np.array_equal(windows[0], windows[-1])

    def test_odd_width_rejected(self):
        with pytest.raises(ShapeError):
            record(build_model("linear_delay_ou"), spread_initials(3), 4, DT, RngStream(0), shared_noise=True)


class TestIntegralProfile:
    @staticmethod
    def old_trapezoid_profile(model, f, states, t_max, quad_step, replicas, rng):
        """The per-step trapezoid accumulator the semigroup profile used to keep,
        run per group of at most 4096 paths on ``rng.child(g0)`` and reduced
        over the last axis of the whole (n_rec, g, replicas) array."""
        stride = int(round(quad_step / DT))
        n_steps = int(round(t_max / DT))
        n_steps -= n_steps % stride
        n = states.shape[0]
        group = max(1, 4096 // replicas)
        values, ses = [], []
        for g0 in range(0, n, group):
            init = np.repeat(states[g0 : g0 + group], replicas, axis=0)
            partial = np.zeros(init.shape[0])
            prev = None
            cums = []
            for j, window in step_windows(model, init, n_steps, DT, rng.child(g0)):
                vals = f.values(window)
                if j % stride:
                    continue
                if prev is not None:
                    partial += 0.5 * (prev + vals) * (stride * DT)
                prev = vals.copy()
                cums.append(partial.copy())
            cums = np.array(cums).reshape(len(cums), -1, replicas)
            values.append(cums.mean(axis=-1).T)
            ses.append((cums.std(axis=-1, ddof=1) / math.sqrt(replicas)).T)
        return np.concatenate(values), np.concatenate(ses)

    @pytest.mark.parametrize("quad_steps", [1, 2, 3])
    def test_matches_old_accumulator(self, any_model, quad_steps):
        f = build_observable("eval0")
        states = spread_initials(4, seed=5)
        quad = quad_steps * DT
        rng = RngStream(23)
        ref_values, ref_ses = self.old_trapezoid_profile(any_model, f, states, 2.0, quad, 6, rng)
        prof = MonteCarloSemigroup(any_model, DT).integral_profile(f, states, 2.0, quad, 6, rng)
        assert np.array_equal(prof.values, ref_values)
        assert np.array_equal(prof.ses, ref_ses)
        assert prof.grid[1] == quad

    def test_blocks_and_groups_match_old_accumulator(self, any_model):
        # 193 profile rows are reduced in blocks of 64, 64, 64 and 1; 70 x 64
        # > 4096 paths run as groups of 64 and 6 states
        f = build_observable("eval0")
        states = spread_initials(70, seed=7)
        rng = RngStream(31)
        ref_values, ref_ses = self.old_trapezoid_profile(any_model, f, states, 6.0, DT, 64, rng)
        prof = MonteCarloSemigroup(any_model, DT).integral_profile(f, states, 6.0, DT, 64, rng)
        assert prof.values.shape == (70, 193)
        assert np.array_equal(prof.values, ref_values)
        assert np.array_equal(prof.ses, ref_ses)


class TestDiscreteProfile:
    @staticmethod
    def old_discrete_profile(model, f, states, k_from, k_max, replicas, rng):
        """The semigroup's former ``_run``-based profile: replica groups filled a
        state-major (n, n_rec, replicas) array, summed along the lag axis."""
        per_unit = int(round(1.0 / DT))
        record_steps = [k * per_unit for k in range(k_from, k_max + 1)]
        n = states.shape[0]
        group = max(1, 4096 // replicas)
        out = np.empty((n, len(record_steps), replicas))
        for g0 in range(0, n, group):
            g1 = min(n, g0 + group)
            init = np.repeat(states[g0:g1], replicas, axis=0)
            vals, _ = record(
                model, init, k_max * per_unit, DT, rng.child(g0),
                sample_at=record_steps, sample=f.values,
            )
            out[g0:g1] = vals.reshape(len(record_steps), g1 - g0, replicas).transpose(1, 0, 2)
        cums = out.cumsum(axis=1)
        return cums.mean(axis=2), cums.std(axis=2, ddof=1) / math.sqrt(replicas)

    # 4 x 6 paths run as one group; 70 x 64 > 4096 splits into groups of 64 and 6
    @pytest.mark.parametrize("n_states, replicas, k_from", [(4, 6, 0), (70, 64, 1)])
    def test_matches_old_profile(self, any_model, n_states, replicas, k_from, k_max=2):
        f = build_observable("eval0")
        states = spread_initials(n_states, seed=6)
        rng = RngStream(29)
        ref_values, ref_ses = self.old_discrete_profile(any_model, f, states, k_from, k_max, replicas, rng)
        prof = MonteCarloSemigroup(any_model, DT).discrete_profile(f, states, k_from, k_max, replicas, rng)
        assert np.array_equal(prof.values, ref_values)
        assert np.array_equal(prof.ses, ref_ses)
        assert prof.grid.tolist() == list(range(k_from, k_max + 1))

    def test_blocks_match_old_profile(self, any_model):
        # lags 1..130 are reduced in blocks of 64, 64 and 2 rows
        self.test_matches_old_profile(any_model, 70, 64, 1, k_max=130)


# -- the width-1 float kernel -------------------------------------------------


def batched_windows(model, initial_values, n_steps, step, rng, chunk=None):
    """step_windows' batched Euler loop without shared noise, run at any width:
    the reference the width-1 float kernel and the d = 2 forms must match bit
    for bit."""
    init = np.asarray(initial_values, dtype=float)
    if init.ndim == 2:
        init = init[None]
    n, nodes, d = init.shape
    m = nodes - 1
    coeffs = _BatchCoefficients(model, model.delay, step)
    gen = rng.generator()
    sq = math.sqrt(step)

    # Time-major ring buffer: rows are grid times, windows are contiguous views.
    if chunk is None:
        chunk = max(2 * (m + 1), int(4_000_000 // max(1, n * d)))
    rows = max(2 * (m + 1), min(chunk, n_steps + m + 1))
    buf = np.empty((rows + m + 1, n, d))
    buf[: m + 1] = init.transpose(1, 0, 2)
    head = m  # buffer row of the current state

    if not np.isfinite(buf[: m + 1]).all():
        raise NumericBlowupError("non-finite initial segment", 0.0)

    # narrow batches amortize the generator call over many steps; the draw
    # sequence is identical either way (values come off the stream in order)
    nz = n
    zblock = max(1, 4096 // max(1, nz * d)) if nz * d <= 256 else 1
    zbuf = np.empty((zblock, nz, d)) if zblock > 1 else None
    zoff = zblock  # force a refill on first use
    zdraw = np.empty((nz, d))
    scalar_state = n * d == 1

    yield 0, buf[head - m : head + 1].transpose(1, 0, 2)

    for j in range(1, n_steps + 1):
        if head + 1 >= buf.shape[0]:
            buf[: m + 1] = buf[head - m : head + 1]
            head = m
        window = buf[head - m : head + 1]
        segs = window.transpose(1, 0, 2)
        drift = coeffs.drift(segs)
        if zbuf is None:
            z = gen.standard_normal((nz, d), out=zdraw)
        else:
            if zoff >= zblock:
                gen.standard_normal(zbuf.shape, out=zbuf)
                zoff = 0
            z = zbuf[zoff]
            zoff += 1
        nxt = buf[head + 1]
        noise = coeffs.noise(segs, z * sq)
        np.add(window[-1], noise, out=nxt)
        nxt += drift * step
        head += 1
        total = nxt[0, 0] if scalar_state else float(nxt.sum())
        if not math.isfinite(total):  # NaN/Inf propagate through the sum
            if not np.isfinite(drift).all() or not np.isfinite(noise).all():
                raise NumericBlowupError("drift/diffusion produced non-finite output", j * step)
            raise NumericBlowupError("state became non-finite", j * step)
        yield j, buf[head - m : head + 1].transpose(1, 0, 2)


def callback_model(state_noise=False):
    """A model given by per-segment callbacks only: the linear drift, and unit
    or tanh_diffusion's state-dependent noise."""

    def diffusion(seg):
        return np.diag(1.0 + 0.5 * np.tanh(seg.values[-1])) if state_noise else np.eye(1)

    return ModelSpec(
        dim=1,
        delay=0.5,
        drift=lambda seg: -2.0 * seg.values[-1] + 0.1 * seg.values[0],
        diffusion=diffusion,
        lambda1=3.9,
        lambda2=0.1,
        sigma_bound=1.5,
        sigma_inv_bound=2.0,
        diffusion_is_constant=not state_noise,
    )


def ends_model(drift_ends, delay=0.5, diffusion_ends=None):
    """A one-dimensional model given by its drift_ends alone, noise-free unless
    a diffusion_ends is given too."""
    if diffusion_ends is None:
        noise = {"diffusion": lambda seg: np.zeros((1, 1)), "diffusion_is_constant": True}
    else:
        noise = {"diffusion_ends": diffusion_ends}
    return ModelSpec(
        dim=1,
        delay=delay,
        drift_ends=drift_ends,
        lambda1=1.0,
        lambda2=0.0,
        sigma_bound=0.0,
        sigma_inv_bound=None,
        **noise,
    )


def noise_ends_model():
    """tanh_diffusion's noise given by diffusion_ends beside a callback-only
    drift: without drift_ends a single path takes the batched loop."""
    return ModelSpec(
        dim=1,
        delay=0.5,
        drift=lambda seg: -2.0 * seg.values[-1] + 0.1 * np.sin(seg.values[0]),
        diffusion_ends=lambda now, oldest: 1.0 + 0.5 * np.tanh(now),
        lambda1=3.9,
        lambda2=0.1,
        sigma_bound=1.5,
        sigma_inv_bound=2.0,
    )


def run_windows(driver, *args, **kwargs):
    """Copies of every window a driver yields."""
    return [window.copy() for _, window in driver(*args, **kwargs)]


def blowup(driver, *args, **kwargs):
    with pytest.raises(NumericBlowupError) as err:
        for _ in driver(*args, **kwargs):
            pass
    return str(err.value), err.value.time


class TestScalarKernel:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: build_model("linear_delay_ou", {"sigma": 0.7}),
            lambda: build_model("tanh_diffusion"),
            lambda: build_model("deterministic_decay"),
            callback_model,
            lambda: callback_model(state_noise=True),
            noise_ends_model,
        ],
        ids=["drift_ends", "tanh", "decay", "scalar-drift", "scalar-drift-and-diffusion",
             "diffusion_ends-only"],
    )
    # chunk 40 with 17 nodes: the ring buffer wraps every 23 steps
    @pytest.mark.parametrize("chunk", [None, 40])
    def test_matches_batched_loop(self, make, chunk):
        model = make()
        init = spread_initials(1, seed=9)
        rng = RngStream(31, 2)
        ours = run_windows(step_windows, model, init, 5000, DT, rng, chunk=chunk)
        ref = run_windows(batched_windows, model, init, 5000, DT, rng, chunk=chunk)
        assert len(ours) == len(ref) == 5001
        for a, b in zip(ours, ref):
            assert np.array_equal(a, b)

    def test_windows_are_read_only_views(self):
        init = spread_initials(1)
        for _, window in step_windows(build_model("linear_delay_ou"), init, 50, DT, RngStream(0)):
            assert window.shape == (1, 17, 1)
            assert not window.flags.writeable

    def test_tanh_runs_on_floats(self):
        def refuse(segs):
            raise AssertionError("the float kernel called a batched coefficient")

        model = replace(build_model("tanh_diffusion"), drift_batch=refuse, diffusion_batch=refuse)
        assert len(run_windows(step_windows, model, spread_initials(1), 100, DT, RngStream(0))) == 101

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.filterwarnings("ignore:divide by zero")
    @pytest.mark.parametrize(
        "drift_ends, diffusion_ends, delay, step, oldest, now, message",
        [
            # NaN from log(0) once the initial current node (0) becomes the oldest
            (lambda now, oldest: -now + 0.0 * np.log(oldest), None, 0.5, DT, 5.0, 0.0,
             "drift/diffusion produced non-finite output"),
            # x <- 3x at step 2: the state overflows while the drift stays finite
            (lambda now, oldest: now, None, 4.0, 2.0, 1e300, 1e300, "state became non-finite"),
            # a cube that overflows: inf on arrays, OverflowError on floats
            (lambda now, oldest: now ** 3 * 1e3, None, 0.5, 0.25, 5.0, 5.0,
             "drift/diffusion produced non-finite output"),
            # the same two faults in the diffusion
            (lambda now, oldest: -now, lambda now, oldest: 1.0 + 0.0 * np.log(oldest),
             0.5, DT, 5.0, 0.0, "drift/diffusion produced non-finite output"),
            (lambda now, oldest: -now, lambda now, oldest: now ** 3 * 1e3, 0.5, 0.25, 5.0, 5.0,
             "drift/diffusion produced non-finite output"),
        ],
        ids=["nan-drift", "state-overflow", "cube-overflow", "nan-diffusion", "cube-diffusion"],
    )
    def test_blowup_matches_batched_loop(
        self, drift_ends, diffusion_ends, delay, step, oldest, now, message
    ):
        model = ends_model(drift_ends, delay, diffusion_ends)
        init = np.linspace(oldest, now, int(round(delay / step)) + 1)[None, :, None]
        ours = blowup(step_windows, model, init, 2000, step, RngStream(0))
        ref = blowup(batched_windows, model, init, 2000, step, RngStream(0))
        assert ours == ref
        assert ours[0].startswith(message + " (at t=") and ours[1] > step


# -- two-dimensional states ----------------------------------------------------


def tilted_noise(now):
    """A full, state-dependent 2x2 diffusion of the current node(s) ``now``."""
    sig = np.empty(now.shape[:-1] + (2, 2))
    sig[..., 0, 0] = 1.0 + 0.5 * np.tanh(now[..., 0])
    sig[..., 0, 1] = 0.3 * np.sin(now[..., 1])
    sig[..., 1, 0] = 0.2 * np.cos(now[..., 0])
    sig[..., 1, 1] = 1.0
    return sig


def plane_model(batched):
    """A two-dimensional model with a full diffusion matrix, given by batched
    callbacks (``diffusion_batch`` returns (n, 2, 2)) or per-segment ones only."""
    batch = {
        "drift_batch": lambda segs: -2.0 * segs[:, -1, :] + 0.1 * segs[:, 0, ::-1],
        "diffusion_batch": lambda segs: tilted_noise(segs[:, -1, :]),
    }
    return ModelSpec(
        dim=2,
        delay=0.5,
        drift=lambda seg: -2.0 * seg.values[-1] + 0.1 * seg.values[0, ::-1],
        diffusion=lambda seg: tilted_noise(seg.values[-1]),
        lambda1=3.9,
        lambda2=0.1,
        sigma_bound=2.0,
        sigma_inv_bound=4.0,
        **(batch if batched else {}),
    )


PLANE_MODELS = {
    "constant-matrix": lambda: build_model("linear_delay_ou", {"dim": 2, "sigma": 0.7}),
    # a constant matrix that is not symmetric, so a transposed product shows
    "constant-tilted": lambda: replace(
        build_model("linear_delay_ou", {"dim": 2}),
        diffusion=lambda seg: np.array([[0.7, 0.3], [-0.2, 1.1]]),
    ),
    "diagonal-batch": lambda: build_model("tanh_diffusion", {"dim": 2}),
    "full-batch": lambda: plane_model(batched=True),
    "per-segment": lambda: plane_model(batched=False),
}


def plane_initials(width, seed):
    return np.random.default_rng(seed).normal(size=(width, 17, 2))


@pytest.mark.parametrize("form", sorted(PLANE_MODELS))
class TestTwoDimensions:
    @pytest.mark.parametrize("width", [1, 3, 64])
    def test_matches_batched_loop(self, form, width):
        model = PLANE_MODELS[form]()
        init = plane_initials(width, seed=11)
        rng = RngStream(41, 3)
        # chunk 40 with 17 nodes: the ring buffer wraps every 23 steps
        ours = run_windows(step_windows, model, init, 120, DT, rng, chunk=40)
        ref = run_windows(batched_windows, model, init, 120, DT, rng, chunk=40)
        assert len(ours) == len(ref) == 121
        for a, b in zip(ours, ref):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("half", [1, 3, 64])
    def test_shared_noise_matches_old_coupled_loop(self, form, half):
        model = PLANE_MODELS[form]()
        a = plane_initials(half, seed=12)
        b = plane_initials(half, seed=13)
        steps = [0, 2, 70, 120]
        rng = RngStream(43, 5)
        old = old_coupled_loop(model, a, b, steps, DT, rng)
        new = coupled_snapshots(model, a, b, steps, DT, rng)
        assert len(new) == len(old) == len(steps)
        for (old_a, old_b), (new_a, new_b) in zip(old, new):
            assert np.array_equal(new_a, old_a)
            assert np.array_equal(new_b, old_b)


@pytest.mark.parametrize("coefficient", ["drift", "diffusion"])
def test_per_segment_callback_cannot_write_the_ring(coefficient):
    # the per-segment loops pass unchecked views of the ring's windows
    base = plane_model(batched=False)
    inner = getattr(base, coefficient)

    def scribble(seg):
        seg.values[-1] = 0.0
        return inner(seg)

    model = replace(base, **{coefficient: scribble})
    with pytest.raises(ValueError, match="read-only"):
        record(model, plane_initials(3, seed=14), 2, DT, RngStream(0))


finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
NOISE_ENDS_MODELS = [
    name for name in sorted(MODEL_BUILDERS) if build_model(name).diffusion_ends is not None
]


class TestDriftEnds:
    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    @settings(max_examples=60, deadline=None)
    @given(ends=st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
    def test_floats_match_drift_batch_bitwise(self, name, ends):
        model = build_model(name)
        segs = np.zeros((len(ends), 17, 1))
        segs[:, -1, 0] = [now for now, _ in ends]
        segs[:, 0, 0] = [oldest for _, oldest in ends]
        batch = model.drift_batch(segs)
        floats = np.array([[model.drift_ends(now, oldest)] for now, oldest in ends], dtype=float)
        assert batch.shape == floats.shape
        assert batch.tobytes() == floats.tobytes()

    def test_drift_is_derived(self):
        model = build_model("linear_delay_ou", {"a": 1.5, "b": -0.25})
        seg = Segment(np.linspace(2.0, -1.0, 17)[:, None], 0.5, DT)
        assert np.array_equal(model.drift(seg), [-1.5 * -1.0 + -0.25 * 2.0])
        with pytest.raises(ValueError):
            ModelSpec(
                dim=1, delay=0.5, diffusion=lambda seg: np.eye(1),
                lambda1=1.0, lambda2=0.0, sigma_bound=1.0, sigma_inv_bound=1.0,
            )

    @pytest.mark.parametrize("name", NOISE_ENDS_MODELS)
    @settings(max_examples=60, deadline=None)
    @given(ends=st.lists(st.tuples(finite, finite), min_size=1, max_size=8))
    def test_floats_match_diffusion_batch_bitwise(self, name, ends):
        model = build_model(name)
        segs = np.zeros((len(ends), 17, 1))
        segs[:, -1, 0] = [now for now, _ in ends]
        segs[:, 0, 0] = [oldest for _, oldest in ends]
        batch = model.diffusion_batch(segs)
        floats = np.array(
            [[model.diffusion_ends(now, oldest)] for now, oldest in ends], dtype=float
        )
        assert batch.shape == floats.shape
        assert batch.tobytes() == floats.tobytes()
        for seg, diag in zip(segs, floats):
            matrix = model.diffusion(Segment(seg, 0.5, DT))
            assert matrix.tobytes() == np.diag(diag).tobytes()

    def test_diffusion_needs_a_definition(self):
        with pytest.raises(ValueError, match="diffusion or diffusion_ends"):
            ModelSpec(
                dim=1, delay=0.5, drift_ends=lambda now, oldest: -now,
                lambda1=1.0, lambda2=0.0, sigma_bound=1.0, sigma_inv_bound=1.0,
            )


def euler_chain_variance(a, b, sigma, m, dt):
    """Stationary variance of x_{k+1} = x_k + dt(-a x_k + b x_{k-m}) + sigma sqrt(dt) z_k,
    from a discrete Lyapunov solve on the order-(m+1) companion form."""
    companion = np.zeros((m + 1, m + 1))
    companion[0, 0] = 1.0 - a * dt
    companion[0, m] = b * dt
    companion[1:, :-1] = np.eye(m)
    kick = np.zeros((m + 1, m + 1))
    kick[0, 0] = sigma**2 * dt
    return float(solve_discrete_lyapunov(companion, kick)[0, 0])


class TestExactOracle:
    def test_stationary_variance_of_the_euler_chain(self):
        dt = 1.0 / 128.0
        exact = euler_chain_variance(2.0, 0.1, 1.0, 64, dt)
        assert exact == pytest.approx(0.25690, abs=5e-6)
        model = build_model("linear_delay_ou")
        traj = simulate(model, constant_segment(0.0, 0.5, dt), 2020.0, dt, RngStream(4, 1))
        burn = traj.n_history + int(round(20.0 / dt))
        squares = traj.states[burn + 1 :, 0] ** 2  # the stationary mean is 0
        batches = squares[: squares.size // 20 * 20].reshape(20, -1).mean(axis=1)
        estimate = batches.mean()
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(estimate - exact) < 4 * se
