"""Segment type, extraction, and integrator tests."""

import math

import numpy as np
import pytest

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
from segflow.ergodic import coupled_snapshots
from segflow.registry import build_model, build_observable
from segflow.segments import _BatchCoefficients, record, step_windows
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

    # at width 8000 the ring buffer holds ~500 rows, so 600 steps wrap it
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
        """The per-step trapezoid accumulator the semigroup profile used to keep."""
        stride = int(round(quad_step / DT))
        n_steps = int(round(t_max / DT))
        n_steps -= n_steps % stride
        init = np.repeat(states, replicas, axis=0)
        partial = np.zeros(init.shape[0])
        prev = None
        cums = []
        for j, window in step_windows(model, init, n_steps, DT, rng.child(0)):
            vals = f.values(window)
            if j % stride:
                continue
            if prev is not None:
                partial += 0.5 * (prev + vals) * (stride * DT)
            prev = vals.copy()
            cums.append(partial.copy())
        cums = np.array(cums).T.reshape(states.shape[0], replicas, -1)
        return cums.mean(axis=1), cums.std(axis=1, ddof=1) / math.sqrt(replicas)

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
