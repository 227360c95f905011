"""Segment type and integrator tests."""

import math
import mmap
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    collect_profile,
    euler_chain_long_run_variance,
    euler_chain_unit_lag_variance,
    euler_chain_variance,
    method_of_steps,
)
from segflow import (
    CenteredObservable,
    ModelSpec,
    NumericBlowupError,
    RngStream,
    Segment,
    ShapeError,
    constant_segment,
    simulate,
)
from segflow import segments
from segflow.assumptions import _diffusion_matrix
from segflow.ergodic import coupled_snapshots
from segflow.limits import _unit_run
from segflow.registry import MODEL_BUILDERS, build_model, build_observable
from segflow.segments import _ring, batch_sup_norms, record, step_windows
from segflow.semigroup import MonteCarloSemigroup


def make_decay(rate=1.0, r0=0.5):
    return build_model("deterministic_decay", {"rate": rate, "r0": r0})


def frozen_model(r0=0.5, dim=1):
    return ModelSpec(
        dim=dim,
        delay=r0,
        sigma=0.0,
        lambda1=1.0,
        lambda2=0.0,
        sigma_bound=0.0,
        sigma_inv_bound=None,
        drift_batch=lambda segs: np.zeros((segs.shape[0], dim)),
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


def sup_norm(seg):
    return float(batch_sup_norms(seg.values[None])[0])


class TestSupNorm:
    def test_zero_segment(self):
        assert sup_norm(constant_segment(0.0, 0.5, 0.25)) == 0.0

    def test_direct_maximum(self):
        seg = Segment(np.array([[1.0], [-3.0], [2.0]]), 0.5, 0.25)
        assert sup_norm(seg) == 3.0

    def test_euclidean_per_node(self):
        seg = Segment(np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 0.0]]), 0.5, 0.25)
        assert sup_norm(seg) == 5.0


class TestSimulate:
    def test_zero_dynamics_frozen(self):
        model = frozen_model()
        traj = simulate(model, constant_segment(3.0, 0.5, 0.25), 3.0, RngStream(7))
        assert np.all(traj.states == 3.0)

    def test_exponential_decay(self):
        # x' = -x from 1: Euler at dt=1e-3 lands within 5e-3 of e^-1
        dt = 0.5 / 512  #   ~9.8e-4, divides the delay
        model = make_decay()
        traj = simulate(model, constant_segment(1.0, 0.5, dt), 1.0, RngStream(3))
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 5e-3

    def test_delay_ode_matches_method_of_steps(self):
        dt = 1.0 / 128.0
        model = build_model("linear_delay_ou", {"a": 2.0, "b": 0.1, "sigma": 1.0})
        # zero-noise variant of the same drift
        silent = ModelSpec(
            dim=1,
            delay=0.5,
            sigma=0.0,
            lambda1=model.lambda1,
            lambda2=model.lambda2,
            sigma_bound=0.0,
            sigma_inv_bound=None,
            drift_batch=model.drift_batch,
        )
        traj = simulate(silent, constant_segment(1.0, 0.5, dt), 2.0, RngStream(0))
        ts, xs = method_of_steps(lambda x, xd: -2.0 * x + 0.1 * xd, lambda t: 1.0, 0.5, 2.0, dt)
        ours = traj.states[traj.n_history :, 0]
        assert np.max(np.abs(ours - xs)) < 1e-2

    def test_euler_error_halves_with_step(self):
        # deterministic delay ODE: halving dt at least halves the max error (20% slack)
        def run(dt):
            model = ModelSpec(
                dim=1,
                delay=0.5,
                sigma=0.0,
                lambda1=3.9,
                lambda2=0.1,
                sigma_bound=0.0,
                sigma_inv_bound=None,
                drift_batch=lambda segs: -2.0 * segs[:, -1, :] + 0.1 * segs[:, 0, :],
            )
            traj = simulate(model, constant_segment(1.0, 0.5, dt), 2.0, RngStream(0))
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
            sigma=0.0,
            lambda1=1.0,
            lambda2=0.0,
            sigma_bound=0.0,
            sigma_inv_bound=None,
            drift_batch=lambda segs: segs[:, -1, :] ** 3 * 1e3,
        )
        with pytest.raises(NumericBlowupError) as err:
            simulate(model, constant_segment(5.0, 0.5, 0.25), 50.0, RngStream(0))
        assert err.value.time > 0

    def test_incompatible_initial_rejected(self):
        model = frozen_model()
        with pytest.raises(ShapeError):
            simulate(model, constant_segment(0.0, 0.5, 0.25, dim=2), 1.0, RngStream(0))

    def test_horizon_must_be_grid_multiple(self):
        model = frozen_model()
        with pytest.raises(ValueError):
            simulate(model, constant_segment(0.0, 0.5, 0.25), 1.1, RngStream(0))


class TestDeterminism:
    def test_bitwise_identical_runs(self, ref_model):
        dt = 1.0 / 128.0
        xi = constant_segment(1.0, 0.5, dt)
        t1 = simulate(ref_model, xi, 2.0, RngStream(99, 5))
        t2 = simulate(ref_model, xi, 2.0, RngStream(99, 5))
        assert np.array_equal(t1.states, t2.states)

    def test_different_streams_differ(self, ref_model):
        dt = 1.0 / 128.0
        xi = constant_segment(1.0, 0.5, dt)
        t1 = simulate(ref_model, xi, 1.0, RngStream(99, 5))
        t2 = simulate(ref_model, xi, 1.0, RngStream(99, 6))
        assert not np.array_equal(t1.states, t2.states)

    def test_segment_consistency_on_grid(self, ref_model):
        dt = 1.0 / 128.0
        traj = simulate(ref_model, constant_segment(1.0, 0.5, dt), 2.0, RngStream(11))
        m = traj.n_history
        for k in (0, 37, 128, 256):
            seg = Segment(traj.states[k : k + m + 1], ref_model.delay, dt)
            raw = np.abs(traj.states[k : k + m + 1, 0]).max()
            assert sup_norm(seg) == raw


class TestModelSpec:
    @staticmethod
    def spec(**overrides):
        kw = dict(
            dim=1,
            delay=0.5,
            drift_ends=lambda now, oldest: -now,
            sigma=1.0,
            lambda1=0.5,
            lambda2=0.0,
            sigma_bound=1.0,
            sigma_inv_bound=1.0,
        )
        return ModelSpec(**{**kw, **overrides})

    def test_side_condition_enforced(self):
        # 0.5 < 0.4*e^0.25; a NaN lambda2 leaves the margin NaN; exp(800 * 2)
        # overflows a float, so with lambda2 > 0 the margin is -inf
        overflow = dict(lambda1=800.0, delay=2.0)
        for kw in (dict(lambda2=0.4), dict(lambda2=math.nan), dict(lambda2=0.1, **overflow)):
            with pytest.raises(ValueError):
                self.spec(**kw)
        # without delayed feedback the margin is lambda1, however large
        assert self.spec(**overflow).side_margin == 800.0

    def test_lambda1_positive(self):
        for lambda1 in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                self.spec(lambda1=lambda1)

    def test_delay_positive(self):
        for delay in (0.0, math.nan):
            with pytest.raises(ValueError):
                self.spec(delay=delay)


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


# Per-step coefficient resolution written apart from segments._noise_map:
# the reference loops below hold step_windows to it.
class _BatchCoefficients:
    """A model's batched drift and its diffusion applied to normal draws."""

    def __init__(self, model: ModelSpec):
        self.model = model

    def drift(self, segs: np.ndarray) -> np.ndarray:
        return self.model.drift_batch(segs)

    def noise(self, segs: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Apply the diffusion matrix to scaled normal draws ``z`` of shape (n, d)."""
        sig = self.model.sigma
        if sig is not None:
            return sig * z if np.ndim(sig) == 0 else z @ sig.T
        sig = np.asarray(self.model.diffusion_batch(segs))
        if sig.ndim == 2:  # diagonal convention
            return sig * z
        return np.einsum("nij,nj->ni", sig, z)


def old_coupled_loop(model, a, b, step_indices, step, rng):
    """The hand-written coupled Euler loop that preceded the shared-noise driver."""
    wanted = sorted(set(int(k) for k in step_indices))
    last = wanted[-1] if wanted else 0
    n = a.shape[0]
    out = {}
    coeffs = _BatchCoefficients(model)
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

    @pytest.mark.parametrize("width", [1, 64])
    def test_ring_owns_the_initial_batch(self, width):
        # a caller that keeps no reference frees the batch once the ring
        # holds it, for the rest of the run
        init = spread_initials(width)
        alive = weakref.ref(init)
        windows = step_windows(build_model("linear_delay_ou"), init, 5, DT, RngStream(0))
        del init
        next(windows)
        assert alive() is None
        assert sum(1 for _ in windows) == 5

    @pytest.mark.parametrize("two_halves", [False, True])
    def test_batched_windows_are_read_only(self, any_model, two_halves, monkeypatch):
        # a ring of 2(m+1) = 34 rows, so 100 steps wrap it twice
        monkeypatch.setattr(segments, "_RING_BYTES", 8 * 64 * 34)
        init = spread_initials(64)
        for pairing in ("shared", "antithetic") if two_halves else ("none",):
            windows = step_windows(any_model, init, 100, DT, RngStream(0), pairing=pairing)
            assert not next(windows)[1].flags.writeable
            for _, window in windows:
                assert not window.flags.writeable
            with pytest.raises(ValueError):
                window[0, 0, 0] = 1.0


class TestWindowMustSpanDelay:
    """The driver checks every batch's node count against delay/step once per
    call, whatever the coefficient form or caller."""

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize(
        "make", [lambda: build_model("tanh_diffusion"), lambda: callback_model(state_noise=True)],
        ids=["tanh_diffusion", "per-segment"],
    )
    def test_record_rejects_short_windows(self, make, width):
        # 33 nodes at step 1/128 span 0.25, half the model's delay of 0.5
        init = np.zeros((width, 33, 1))
        with pytest.raises(ShapeError, match="needs 65"):
            record(make(), init, 10, 1.0 / 128.0, RngStream(0), sample_at=[10])

    def test_unit_states_rejects_windows_of_another_grid(self):
        # 65 nodes fit the delay at step 1/128, not the chain's 1/64
        atoms = np.zeros((3, 65, 1))
        with pytest.raises(ShapeError, match="needs 33"):
            MonteCarloSemigroup(build_model("tanh_diffusion"), 1.0 / 64.0).unit_states(atoms, 1, RngStream(0))

    def test_simulate_rejects_a_segment_of_another_delay(self):
        with pytest.raises(ShapeError):
            simulate(build_model("tanh_diffusion"), constant_segment(0.0, 0.25, 1.0 / 128.0), 1.0, RngStream(0))

    def test_step_must_divide_delay(self):
        with pytest.raises(ValueError, match="must divide delay"):
            record(build_model("tanh_diffusion"), np.zeros((2, 65, 1)), 10, 0.3, RngStream(0))


class TestSharedNoise:
    @pytest.mark.parametrize("half", [1, 300])
    def test_matches_old_coupled_loop(self, any_model, half):
        a = spread_initials(half, seed=2)
        b = spread_initials(half, seed=3)
        steps = [0, 2, 70, 250]
        rng = RngStream(17, 4)
        old = old_coupled_loop(any_model, a, b, steps, DT, rng)
        new = [(na.copy(), nb.copy()) for na, nb in coupled_snapshots(any_model, a, b, steps, DT, rng)]
        assert len(new) == len(old)
        for (old_a, old_b), (new_a, new_b) in zip(old, new):
            assert np.array_equal(new_a, old_a)
            assert np.array_equal(new_b, old_b)

    @pytest.mark.parametrize("half", [1, 300])
    def test_identical_halves_stay_identical(self, any_model, half):
        a = spread_initials(half, seed=4)
        windows = np.array([
            np.concatenate([wa, wb])
            for wa, wb in coupled_snapshots(any_model, a, a, [1, 150, 300], DT, RngStream(6))
        ])
        assert np.array_equal(windows[:, :half], windows[:, half:])
        assert not np.array_equal(windows[0], windows[-1])

    def test_odd_width_rejected(self):
        for pairing in ("shared", "antithetic"):
            with pytest.raises(ShapeError, match="two equal halves"):
                next(step_windows(
                    build_model("linear_delay_ou"), spread_initials(3), 4, DT, RngStream(0), pairing=pairing
                ))

    def test_unknown_pairing_rejected(self):
        with pytest.raises(ValueError, match="pairing must be one of"):
            next(step_windows(
                build_model("linear_delay_ou"), spread_initials(4), 4, DT, RngStream(0), pairing="mirror"
            ))


class TestAntitheticPairing:
    @pytest.mark.parametrize("half", [1, 300])
    def test_zero_start_mirror_is_the_negation(self, half):
        # from 0 the linear drift and constant noise are odd maps, and z * -sq
        # is exactly -(z * sq), so the second half is the first negated, bit
        # for bit, at every step
        init = np.zeros((2 * half, 17, 1))
        windows = step_windows(build_model("linear_delay_ou"), init, 200, DT, RngStream(8), pairing="antithetic")
        n_windows = 0
        for _, window in windows:
            assert np.array_equal(window[half:], -window[:half])
            n_windows += 1
        assert n_windows == 201
        assert np.all(window[:, -1] != 0.0)

    def test_first_half_draws_as_a_shared_batch_does(self, any_model):
        # one draw per pair: the first half's paths are those of a shared
        # batch, and of a plain batch of that half alone
        a = spread_initials(4, seed=9)
        both = np.concatenate([a, a])
        runs = [
            [w.copy() for _, w in step_windows(any_model, both, 60, DT, RngStream(12), pairing=p)]
            for p in ("shared", "antithetic")
        ]
        plain = [w.copy() for _, w in step_windows(any_model, a, 60, DT, RngStream(12))]
        for shared, anti, alone in zip(*runs, plain):
            assert np.array_equal(anti[:4], shared[:4])
            assert np.array_equal(anti[:4], alone)
        assert not np.array_equal(runs[1][-1][4:], runs[0][-1][4:])


def mirror_blocks(f, replicas):
    """Blocks of a profile batch: two mirrored ones, each with the state's
    ``replicas/2`` paths, for an antithetic ``f`` and an even replica count
    of at least 4; else one."""
    return 2 if f.antithetic and replicas % 2 == 0 and replicas >= 4 else 1


def paired_batch(states, blocks, replicas):
    """Each state repeated ``replicas/blocks`` times, the whole tiled
    ``blocks`` times (block-major), and the pairing that drives it."""
    batch = np.tile(np.repeat(states, replicas // blocks, axis=0), (blocks, 1, 1))
    return batch, "antithetic" if blocks == 2 else "none"


def pair_stats(cums, blocks, replicas):
    """Mean over all paths and SE of the mean of the pair (or path) values,
    reduced over the last axis of the whole (..., g, replicas/blocks) array
    of running pair sums."""
    per = replicas // blocks
    return cums.sum(axis=-1) / replicas, cums.std(axis=-1, ddof=1) / (blocks * math.sqrt(per))


class TestIntegralProfile:
    @staticmethod
    def old_trapezoid_profile(model, f, states, t_max, quad_step, replicas, rng):
        """The per-step trapezoid accumulator the semigroup profile used to keep,
        run per group of at most 4096 paths on ``rng.child(g0)`` and reduced
        over the last axis of the whole (n_rec, g, replicas/blocks) array; each
        step's f-values are first summed over the mirror blocks."""
        stride = int(round(quad_step / DT))
        n_steps = int(round(t_max / DT))
        n_steps -= n_steps % stride
        n = states.shape[0]
        group = max(1, 4096 // replicas)
        blocks = mirror_blocks(f, replicas)
        values, ses = [], []
        for g0 in range(0, n, group):
            init, pairing = paired_batch(states[g0 : g0 + group], blocks, replicas)
            partial = np.zeros(init.shape[0] // blocks)
            prev = None
            cums = []
            for j, window in step_windows(model, init, n_steps, DT, rng.child(g0), pairing=pairing):
                vals = f.values(window).reshape(blocks, -1).sum(axis=0)
                if j % stride:
                    continue
                if prev is not None:
                    partial += 0.5 * (prev + vals) * (stride * DT)
                prev = vals.copy()
                cums.append(partial.copy())
            mean, se = pair_stats(np.array(cums).reshape(len(cums), -1, replicas // blocks), blocks, replicas)
            values.append(mean.T)
            ses.append(se.T)
        return np.concatenate(values), np.concatenate(ses)

    # eval0 takes the paired layout, sup_norm_pow the plain one
    @pytest.mark.parametrize("quad_steps", [1, 2, 3])
    def test_matches_old_accumulator(self, any_model, quad_steps, obs="eval0"):
        f = build_observable(obs)
        states = spread_initials(4, seed=5)
        quad = quad_steps * DT
        rng = RngStream(23)
        # 48 steps: a whole number of panels at every quad step
        ref_values, ref_ses = self.old_trapezoid_profile(any_model, f, states, 1.5, quad, 6, rng)
        prof = collect_profile(
            *MonteCarloSemigroup(any_model, DT).profile_groups(f, states, 1.5, 6, rng, quad_step=quad)
        )
        assert np.array_equal(prof.values, ref_values)
        assert np.array_equal(prof.ses, ref_ses)
        assert prof.grid[1] == quad

    def test_blocks_and_groups_match_old_accumulator(self, any_model, obs="eval0"):
        # 193 profile rows are reduced in blocks of 64, 64, 64 and 1; 70 x 64
        # > 4096 paths run as groups of 64 and 6 states
        f = build_observable(obs)
        states = spread_initials(70, seed=7)
        rng = RngStream(31)
        ref_values, ref_ses = self.old_trapezoid_profile(any_model, f, states, 6.0, DT, 64, rng)
        prof = collect_profile(
            *MonteCarloSemigroup(any_model, DT).profile_groups(f, states, 6.0, 64, rng, quad_step=DT)
        )
        assert prof.values.shape == (70, 193)
        assert np.array_equal(prof.values, ref_values)
        assert np.array_equal(prof.ses, ref_ses)

    @pytest.mark.parametrize("quad_steps", [1, 3])
    def test_plain_layout_matches_old_accumulator(self, any_model, quad_steps):
        self.test_matches_old_accumulator(any_model, quad_steps, obs="sup_norm_pow")

    def test_plain_layout_blocks_and_groups(self, any_model):
        self.test_blocks_and_groups_match_old_accumulator(any_model, obs="sup_norm_pow")


class TestDiscreteProfile:
    @staticmethod
    def old_discrete_profile(model, f, states, k_max, replicas, rng):
        """The semigroup's former ``_run``-based profile: replica groups filled a
        state-major (n, n_rec, replicas/blocks) array of f-values summed over
        the mirror blocks, summed along the lag axis."""
        per_unit = int(round(1.0 / DT))
        record_steps = [k * per_unit for k in range(k_max + 1)]
        n = states.shape[0]
        group = max(1, 4096 // replicas)
        blocks = mirror_blocks(f, replicas)
        per = replicas // blocks
        out = np.empty((n, len(record_steps), per))
        for g0 in range(0, n, group):
            g1 = min(n, g0 + group)
            init, pairing = paired_batch(states[g0:g1], blocks, replicas)
            vals = [
                f.values(window).reshape(blocks, -1).sum(axis=0)
                for j, window in step_windows(model, init, k_max * per_unit, DT, rng.child(g0), pairing=pairing)
                if j in record_steps
            ]
            out[g0:g1] = np.array(vals).reshape(len(record_steps), g1 - g0, per).transpose(1, 0, 2)
        return pair_stats(out.cumsum(axis=1), blocks, replicas)

    # 4 x 6 paths run as one group; 70 x 64 > 4096 splits into groups of 64 and 6
    # mu: the stationary mean the observable is centered by, as in every pipeline
    @pytest.mark.parametrize("n_states, replicas, mu", [(4, 6, 0), (70, 64, 1)])
    def test_matches_old_profile(self, any_model, n_states, replicas, mu, obs="eval0", k_max=2):
        f = CenteredObservable(build_observable(obs), mu, 0.0, 1)
        states = spread_initials(n_states, seed=6)
        rng = RngStream(29)
        ref_values, ref_ses = self.old_discrete_profile(any_model, f, states, k_max, replicas, rng)
        prof = collect_profile(
            *MonteCarloSemigroup(any_model, DT).profile_groups(f, states, k_max, replicas, rng)
        )
        assert np.array_equal(prof.values, ref_values)
        assert np.array_equal(prof.ses, ref_ses)
        assert prof.grid.tolist() == list(range(k_max + 1))

    def test_blocks_match_old_profile(self, any_model):
        # lags 0..130, over groups of 64 and 6 states
        self.test_matches_old_profile(any_model, 70, 64, 1, k_max=130)

    @pytest.mark.parametrize("n_states, replicas, mu", [(4, 6, 0), (70, 64, 1)])
    def test_plain_layout_matches_old_profile(self, any_model, n_states, replicas, mu):
        self.test_matches_old_profile(any_model, n_states, replicas, mu, obs="sup_norm_pow", k_max=2)


# -- the width-1 float kernel -------------------------------------------------


def batched_windows(model, initial_values, n_steps, step, rng, chunk=None, pairing="none"):
    """step_windows' batched Euler loop, one step at a time, run at any width
    and pairing: the reference every block producer must match bit for bit.
    Under a pairing the second half takes the first half's draw scaled by
    ``-sqrt(step)`` (antithetic) or ``sqrt(step)`` (shared)."""
    init = np.asarray(initial_values, dtype=float)
    if init.ndim == 2:
        init = init[None]
    n, nodes, d = init.shape
    m = nodes - 1
    coeffs = _BatchCoefficients(model)
    gen = rng.generator()
    sq = math.sqrt(step)
    signs = {"none": (1.0,), "shared": (1.0, 1.0), "antithetic": (1.0, -1.0)}[pairing]

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
    nz = n // len(signs)
    zblock = max(1, 4096 // max(1, nz * d)) if nz * d <= 256 else 1
    zbuf = np.empty((zblock, nz, d)) if zblock > 1 else None
    zoff = zblock  # force a refill on first use
    zdraw = np.empty((nz, d))

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
        noise = coeffs.noise(segs, np.concatenate([z * (sign * sq) for sign in signs]))
        np.add(window[-1], noise, out=nxt)
        nxt += drift * step
        head += 1
        if not np.isfinite(nxt).all():
            if not np.isfinite(drift).all() or not np.isfinite(noise).all():
                raise NumericBlowupError("drift/diffusion produced non-finite output", j * step)
            raise NumericBlowupError("state became non-finite", j * step)
        yield j, buf[head - m : head + 1].transpose(1, 0, 2)


def per_window(coefficient):
    """A batched callback that evaluates ``coefficient`` on one window's
    (m+1, d) values at a time: a coefficient written per segment."""
    return lambda segs: np.stack([coefficient(values) for values in segs])


def callback_model(state_noise=False):
    """A model whose coefficients are written per segment, with no ``*_ends``
    form: the linear drift, and unit noise or tanh_diffusion's full-matrix
    state-dependent noise."""
    if state_noise:
        noise = {"diffusion_batch": per_window(lambda v: np.diag(1.0 + 0.5 * np.tanh(v[-1])))}
    else:
        noise = {"sigma": 1.0}
    return ModelSpec(
        dim=1,
        delay=0.5,
        drift_batch=per_window(lambda v: -2.0 * v[-1] + 0.1 * v[0]),
        lambda1=3.9,
        lambda2=0.1,
        sigma_bound=1.5,
        sigma_inv_bound=2.0,
        **noise,
    )


def ends_model(drift_ends, delay=0.5, diffusion_ends=None):
    """A one-dimensional model given by its drift_ends alone, noise-free unless
    a diffusion_ends is given too."""
    if diffusion_ends is None:
        noise = {"sigma": 0.0}
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
    """tanh_diffusion's noise given by diffusion_ends beside a drift written
    per segment: without drift_ends a single path takes the batched loop."""
    return ModelSpec(
        dim=1,
        delay=0.5,
        drift_batch=per_window(lambda v: -2.0 * v[-1] + 0.1 * np.sin(v[0])),
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
    """The error a driver raises: its message, its time and copies of the
    windows it yielded before it."""
    yielded = []
    with pytest.raises(NumericBlowupError) as err:
        for j, window in driver(*args, **kwargs):
            yielded.append((j, window.copy()))
    return str(err.value), err.value.time, yielded


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
    def test_matches_batched_loop(self, make, chunk, monkeypatch):
        model = make()
        init = spread_initials(1, seed=9)
        rng = RngStream(31, 2)
        if chunk is not None:
            monkeypatch.setattr(segments, "_SCALAR_ROWS", chunk)
        ours = run_windows(step_windows, model, init, 5000, DT, rng)
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
        self, drift_ends, diffusion_ends, delay, step, oldest, now, message, monkeypatch
    ):
        model = ends_model(drift_ends, delay, diffusion_ends)
        init = np.linspace(oldest, now, int(round(delay / step)) + 1)[None, :, None]
        ref_text, ref_time, ref_yielded = blowup(batched_windows, model, init, 2000, step, RngStream(0))
        fault = int(round(ref_time / step))
        assert ref_text.startswith(message + " (at t=") and fault > 1
        assert [j for j, _ in ref_yielded] == list(range(fault))
        # the first block holds every fault here by default; blocks of 3
        # steps put each after the first step of a later block
        for zblock in (segments._ZBLOCK, 3):
            monkeypatch.setattr(segments, "_ZBLOCK", zblock)
            assert (fault - 1) % zblock != 0
            text, time, yielded = blowup(step_windows, model, init, 2000, step, RngStream(0))
            assert (text, time) == (ref_text, ref_time)
            assert [j for j, _ in yielded] == list(range(fault))
            for (_, a), (_, b) in zip(yielded, ref_yielded):
                assert np.array_equal(a, b)
            # record, which reads the kernel's blocks, fails at the same step
            with pytest.raises(NumericBlowupError) as err:
                record(model, init, 2000, step, RngStream(0), sample_at=[0, 2000])
            assert (str(err.value), err.value.time) == (ref_text, ref_time)


class TestScalarBlocks:
    """record reads the width-1 kernel's blocks without step_windows; what it
    keeps must be the batched loop's windows bit for bit."""

    SAMPLE_AT = [700, 0, 23, 23, 96, 97, 1000, 5, 0, 194]

    @pytest.mark.parametrize("name", ["linear_delay_ou", "tanh_diffusion"])
    @pytest.mark.parametrize("sampled", ["windows", "eval0"])
    # 40 ring rows with 17 nodes wrap every 23 steps; 97 normals a draw
    # divide neither that nor the 1000 steps
    @pytest.mark.parametrize("rows, zblock", [(None, None), (40, None), (None, 97), (40, 97)])
    def test_record_matches_batched_loop(self, name, sampled, rows, zblock, monkeypatch):
        if rows is not None:
            monkeypatch.setattr(segments, "_SCALAR_ROWS", rows)
        if zblock is not None:
            monkeypatch.setattr(segments, "_ZBLOCK", zblock)
        model = build_model(name)
        init = spread_initials(1, seed=4)
        rng = RngStream(17, 3)
        sample = None if sampled == "windows" else build_observable("eval0").values
        ref = run_windows(batched_windows, model, init, 1000, DT, rng)
        samples, integrals = record(model, init, 1000, DT, rng, sample_at=self.SAMPLE_AT, sample=sample)
        assert integrals is None
        assert len(samples) == len(self.SAMPLE_AT)
        for value, k in zip(samples, self.SAMPLE_AT):
            assert np.array_equal(value, ref[k] if sample is None else sample(ref[k]))

    def test_record_reads_blocks_directly(self, monkeypatch):
        # at every width, with or without an integrand, record reads the
        # block producer's slabs and never steps through step_windows
        model = build_model("linear_delay_ou")
        integrand = build_observable("eval0").values
        runs = {}
        for width in (1, 4, 300):
            ref_s, ref_i = ref_record(model, spread_initials(width), 300, RngStream(1), [300, 0], np.copy,
                                      [7, 300], integrand)
            runs[width] = [ref_s[300], ref_s[0]], [ref_i[7], ref_i[300]]

        def refuse(*args, **kwargs):
            raise AssertionError("record stepped through step_windows")

        monkeypatch.setattr(segments, "step_windows", refuse)
        for width, (want_s, want_i) in runs.items():
            samples, integrals = record(
                model, spread_initials(width), 300, DT, RngStream(1),
                sample_at=[300, 0], integrate_at=[7, 300], integrand=integrand,
            )
            assert samples.shape == (2, width, 17, 1)
            assert all(np.array_equal(a, b) for a, b in zip(samples, want_s))
            assert all(np.array_equal(a, b) for a, b in zip(integrals, want_i))

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("n_steps", [-1, 2.5, math.nan])
    def test_bad_step_count_rejected(self, width, n_steps):
        model = build_model("linear_delay_ou")
        with pytest.raises(ValueError, match="n_steps"):
            next(step_windows(model, spread_initials(width), n_steps, DT, RngStream(0)))
        with pytest.raises(ValueError, match="n_steps"):
            record(model, spread_initials(width), n_steps, DT, RngStream(0))

    @pytest.mark.parametrize("width", [1, 4])
    def test_numpy_step_count_accepted(self, width):
        model = build_model("linear_delay_ou")
        ours = run_windows(step_windows, model, spread_initials(width), np.int64(30), DT, RngStream(0))
        ref = run_windows(step_windows, model, spread_initials(width), 30, DT, RngStream(0))
        assert len(ours) == 31
        assert all(np.array_equal(a, b) for a, b in zip(ours, ref))


# -- the batched block producer -------------------------------------------------


# one model per noise form, each stepped as a batch: a constant scalar sigma,
# a constant dim-2 matrix, diffusion_ends, a full diffusion_batch, and a
# model given by drift_batch alone
NOISE_FORMS = {
    "scalar-sigma": lambda: build_model("linear_delay_ou", {"sigma": 0.7}),
    "matrix-sigma": lambda: replace(
        build_model("linear_delay_ou", {"dim": 2}), sigma=np.array([[0.7, 0.3], [-0.2, 1.1]])
    ),
    "diffusion_ends": lambda: build_model("tanh_diffusion"),
    "full-diffusion_batch": lambda: plane_model(),  # defined below
    "drift_batch-only": callback_model,
}


def counted(model):
    """``model`` with its drift_ends, and the drift_batch derived from it,
    logging each call in the returned list: one call per step taken, on
    floats or on a batch."""
    calls = []
    ends = model.drift_ends

    def counting(now, oldest):
        calls.append(1)
        return ends(now, oldest)

    return replace(model, drift_ends=counting, drift_batch=None), calls


class TestBatchBlocks:
    """step_windows and record read one block producer at every width; what
    they yield must be the one-step batched loop's windows bit for bit."""

    @pytest.mark.parametrize("form", sorted(NOISE_FORMS))
    @pytest.mark.parametrize("pairing", ["none", "shared", "antithetic"])
    # a ring of 40 rows with 17 nodes wraps every 23 steps; 3 draws of 7
    # normals a step (width 6 and 10 at dim 1 and 2) end blocks at odd steps
    @pytest.mark.parametrize("small", [False, True], ids=["default", "wrap-and-budget"])
    def test_matches_batched_loop(self, form, pairing, small, monkeypatch):
        model = NOISE_FORMS[form]()
        width = 6 if model.dim == 1 else 10
        init = np.random.default_rng(21).normal(size=(width, 17, model.dim))
        rng = RngStream(53, 2)
        chunk = None
        if small:
            chunk = 40
            monkeypatch.setattr(segments, "_RING_BYTES", 40 * 8 * width * model.dim)
            monkeypatch.setattr(segments, "_ZBLOCK", 3 * (width // (1 if pairing == "none" else 2)) * model.dim)
        ref = run_windows(batched_windows, model, init, 150, DT, rng, chunk=chunk, pairing=pairing)
        ours = run_windows(step_windows, model, init, 150, DT, rng, pairing=pairing)
        assert len(ours) == len(ref) == 151
        assert all(np.array_equal(a, b) for a, b in zip(ours, ref))
        at = [150, 0, 44, 44, 1, 23, 149, 97]
        picked = [(j, w.copy()) for j, w in step_windows(model, init, 150, DT, rng, pairing=pairing, at=at)]
        assert [j for j, _ in picked] == sorted(set(at))
        assert all(np.array_equal(w, ref[j]) for j, w in picked)
        if pairing == "none":
            samples, _ = record(model, init, 150, DT, rng, sample_at=at)
            assert all(np.array_equal(w, ref[j]) for w, j in zip(samples, at))

    @pytest.mark.parametrize("width", [1, 4, 64])
    def test_at_yields_only_the_asked_steps(self, width):
        model = build_model("linear_delay_ou")
        init = spread_initials(width, seed=3)
        ref = run_windows(step_windows, model, init, 60, DT, RngStream(4))
        assert [j for j, _ in step_windows(model, init, 60, DT, RngStream(4), at=[])] == []
        got = [(j, w.copy()) for j, w in step_windows(model, init, 60, DT, RngStream(4), at=np.array([60, 0, 0]))]
        assert [j for j, _ in got] == [0, 60]
        assert all(np.array_equal(w, ref[j]) for j, w in got)

    @pytest.mark.parametrize("at, error", [([61], "lie in"), ([-1, 3], "lie in"), ([2.5], "integers"),
                                           ([np.nan], "integers")])
    def test_bad_at_rejected(self, at, error):
        with pytest.raises(ValueError, match=error):
            next(step_windows(build_model("linear_delay_ou"), spread_initials(4), 60, DT, RngStream(0), at=at))

    @pytest.mark.parametrize("width", [1, 4, 300])
    @pytest.mark.parametrize("at", [None, [0, 5, 77, 200, 333, 500]])
    def test_a_closed_driver_stepped_no_further(self, width, at):
        # the drift is evaluated once per step taken: closing the driver
        # after step j has taken exactly j steps
        model, calls = counted(build_model("linear_delay_ou"))
        for stop_after in (0, 5, 77, 333):
            calls.clear()
            windows = step_windows(model, spread_initials(width), 500, DT, RngStream(6), at=at)
            for j, _ in windows:
                if j == stop_after:
                    break
            windows.close()
            assert len(calls) == stop_after

    def test_coupled_snapshots_stop_at_the_pair_read(self):
        model, calls = counted(build_model("linear_delay_ou"))
        a, b = spread_initials(300, seed=1), spread_initials(300, seed=2)
        pairs = coupled_snapshots(model, a, b, [400, 64, 128], DT, RngStream(7))
        next(pairs)
        next(pairs)
        pairs.close()
        assert len(calls) == 128

    def test_profile_steps_only_to_the_read_columns(self):
        model, calls = counted(build_model("linear_delay_ou"))
        f = build_observable("eval0")
        _, groups = MonteCarloSemigroup(model, DT).profile_groups(f, spread_initials(4), 8, 16, RngStream(9))
        (_, _, columns), = groups
        for _ in range(3):  # lags 0, 1 and 2
            next(columns)
        columns.close()
        assert len(calls) == 2 * 32

    @pytest.mark.parametrize("width", [2, 4096])
    def test_finite_states_whose_sum_overflows_run(self, width):
        # 4096 states of 1e305 sum past the largest float; every state stays
        # finite, as in the same run at width 1
        model = build_model("deterministic_decay")
        init = np.full((width, 17, 1), 1e305)
        samples, _ = record(model, init, 64, DT, RngStream(0), sample_at=[64])
        single, _ = record(model, init[:1], 64, DT, RngStream(0), sample_at=[64])
        assert np.isfinite(samples).all()
        assert np.array_equal(samples[0], np.broadcast_to(single[0], samples[0].shape))
        *_, (j, window) = step_windows(model, init, 64, DT, RngStream(0))
        assert j == 64 and np.array_equal(window, samples[0])

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    @pytest.mark.parametrize(
        "drift, message",
        [
            # x <- 3x at step 2: the state overflows while the drift stays finite
            (lambda segs: segs[:, -1, :], "state became non-finite"),
            # a cube that overflows in the drift
            (lambda segs: segs[:, -1, :] ** 3 * 1e3, "drift/diffusion produced non-finite output"),
        ],
        ids=["state-overflow", "drift-overflow"],
    )
    @pytest.mark.parametrize("width", [1, 8])
    def test_blowup_in_mid_block(self, drift, message, width):
        # a batched drift keeps even a single path on the batched loop; one
        # path of the batch starts high, so the fault lies inside a block
        model = replace(ends_model(lambda now, oldest: now, delay=4.0), drift_ends=None, drift_batch=drift)
        init = np.ones((width, 3, 1))
        init[width // 2] = 1e30 if message.startswith("state") else 5.0
        ref_text, ref_time, ref_yielded = blowup(batched_windows, model, init, 2000, 2.0, RngStream(0))
        fault = int(round(ref_time / 2.0))
        assert ref_text.startswith(message + " (at t=") and fault > 2
        everything = [0, 1, fault - 1, fault, 2000]
        for at in (None, everything, [2000]):
            text, time, yielded = blowup(step_windows, model, init, 2000, 2.0, RngStream(0), at=at)
            assert (text, time) == (ref_text, ref_time)
            want = [j for j in (range(fault) if at is None else sorted(at)) if j < fault]
            assert [j for j, _ in yielded] == want
            assert all(np.array_equal(w, ref_yielded[j][1]) for j, w in yielded)
        with pytest.raises(NumericBlowupError) as err:
            record(model, init, 2000, 2.0, RngStream(0), sample_at=[0, 2000])
        assert (str(err.value), err.value.time) == (ref_text, ref_time)

    def test_a_warning_past_the_fault_gives_way_to_it(self):
        # the drift jumps to inf above 10 without a warning; the steps after
        # it would warn (inf - inf), and under this suite's RuntimeWarning
        # filter that warning is an error: the blowup is raised instead
        def drift(segs):
            now = segs[:, -1, :]
            return np.where(now > 10.0, np.inf, now) - now + now

        model = replace(ends_model(lambda now, oldest: now), drift_ends=None, drift_batch=drift)
        init = np.ones((4, 17, 1))
        init[1] = 9.0
        ref_text, ref_time, _ = blowup(batched_windows, model, init, 400, DT, RngStream(0))
        assert ref_text.startswith("drift/diffusion produced non-finite output")
        with pytest.raises(NumericBlowupError) as err:
            record(model, init, 400, DT, RngStream(0), sample_at=[400])
        assert (str(err.value), err.value.time) == (ref_text, ref_time)


class TestStepIndices:
    """Requested steps must be integers (numpy integers pass); a float is
    refused, not truncated."""

    @pytest.mark.parametrize("key, steps", [("sample_at", [2.5]), ("integrate_at", [7.9]),
                                            ("sample_at", [np.float64(3.0)])])
    def test_record_refuses_non_integer_steps(self, key, steps):
        kwargs = {key: steps, "integrand": lambda w: w[:, -1, 0]}
        with pytest.raises(ValueError, match=f"{key} must be integers"):
            record(build_model("linear_delay_ou"), spread_initials(2), 10, DT, RngStream(0), **kwargs)

    def test_record_takes_numpy_integers(self):
        model = build_model("linear_delay_ou")
        ours, _ = record(model, spread_initials(2), 10, DT, RngStream(0), sample_at=np.array([7, 3]))
        ref, _ = record(model, spread_initials(2), 10, DT, RngStream(0), sample_at=[7, 3])
        assert np.array_equal(ours, ref)

    def test_coupled_snapshots_refuse_non_integer_steps(self):
        a = spread_initials(2)
        with pytest.raises(ValueError, match="snapshot steps must be integers"):
            coupled_snapshots(build_model("linear_delay_ou"), a, a, [3.7], DT, RngStream(0))
        pairs = list(coupled_snapshots(build_model("linear_delay_ou"), a, a, [np.int64(3)], DT, RngStream(0)))
        assert len(pairs) == 1

    def test_unit_run_refuses_non_integer_snapshot_steps(self):
        model, f = build_model("linear_delay_ou"), build_observable("eval0")
        with pytest.raises(ValueError, match="snapshot_steps must be integers"):
            _unit_run(model, f, spread_initials(2), DT, RngStream(0), snapshot_steps=[2.5])
        *_, snaps = _unit_run(model, f, spread_initials(2), DT, RngStream(0), snapshot_steps=[np.int64(3)])
        assert list(snaps) == [3]


def test_sup_norms_take_the_root_after_the_max():
    # sqrt is monotone, so the root of the largest squared norm is the
    # largest root, bit for bit, also with NaN, inf, underflow and overflow
    gen = np.random.default_rng(5)
    for d in (1, 2, 3):
        values = gen.normal(size=(40, 9, d)) * 10.0 ** gen.integers(-200, 200, size=(40, 9, d))
        values[3, 4, 0] = np.nan
        values[5, :, :] = np.inf
        values[6, 2, -1] = -np.inf
        values[7] = 1e-170
        values[8, 0, 0] = 1e200
        values[9] = 0.0
        with np.errstate(over="ignore", under="ignore"):
            old = np.sqrt((values**2).sum(axis=2)).max(axis=1)
            new = batch_sup_norms(values)
        assert new.tobytes() == old.tobytes()


# -- two-dimensional states ----------------------------------------------------


def tilted_noise(now):
    """A full, state-dependent 2x2 diffusion of the current node(s) ``now``."""
    sig = np.empty(now.shape[:-1] + (2, 2))
    sig[..., 0, 0] = 1.0 + 0.5 * np.tanh(now[..., 0])
    sig[..., 0, 1] = 0.3 * np.sin(now[..., 1])
    sig[..., 1, 0] = 0.2 * np.cos(now[..., 0])
    sig[..., 1, 1] = 1.0
    return sig


def plane_model():
    """A two-dimensional model with a full diffusion matrix
    (``diffusion_batch`` returns (n, 2, 2))."""
    return ModelSpec(
        dim=2,
        delay=0.5,
        drift_batch=lambda segs: -2.0 * segs[:, -1, :] + 0.1 * segs[:, 0, ::-1],
        diffusion_batch=lambda segs: tilted_noise(segs[:, -1, :]),
        lambda1=3.9,
        lambda2=0.1,
        sigma_bound=2.0,
        sigma_inv_bound=4.0,
    )


PLANE_MODELS = {
    "constant-matrix": lambda: replace(
        build_model("linear_delay_ou", {"dim": 2}), sigma=0.7 * np.eye(2)
    ),
    # a constant matrix that is not symmetric, so a transposed product shows
    "constant-tilted": lambda: replace(
        build_model("linear_delay_ou", {"dim": 2}), sigma=np.array([[0.7, 0.3], [-0.2, 1.1]])
    ),
    "constant-scalar": lambda: build_model("linear_delay_ou", {"dim": 2, "sigma": 0.7}),
    "diagonal-batch": lambda: build_model("tanh_diffusion", {"dim": 2}),
    "full-batch": plane_model,
}


def plane_initials(width, seed):
    return np.random.default_rng(seed).normal(size=(width, 17, 2))


@pytest.mark.parametrize("form", sorted(PLANE_MODELS))
class TestTwoDimensions:
    @pytest.mark.parametrize("width", [1, 3, 64])
    def test_matches_batched_loop(self, form, width, monkeypatch):
        model = PLANE_MODELS[form]()
        init = plane_initials(width, seed=11)
        rng = RngStream(41, 3)
        # chunk 40 with 17 nodes: the ring buffer wraps every 23 steps
        monkeypatch.setattr(segments, "_RING_BYTES", 40 * 8 * width * 2)
        ours = run_windows(step_windows, model, init, 120, DT, rng)
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
        new = [(na.copy(), nb.copy()) for na, nb in coupled_snapshots(model, a, b, steps, DT, rng)]
        assert len(new) == len(old) == len(steps)
        for (old_a, old_b), (new_a, new_b) in zip(old, new):
            assert np.array_equal(new_a, old_a)
            assert np.array_equal(new_b, old_b)


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
        assert np.array_equal(model.drift_batch(seg.values[None])[0], [-1.5 * -1.0 + -0.25 * 2.0])
        with pytest.raises(ValueError, match="drift_ends or drift_batch"):
            ModelSpec(
                dim=1, delay=0.5, sigma=1.0,
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
            matrix = _diffusion_matrix(model, seg)
            assert matrix.tobytes() == np.diag(diag).tobytes()

    def test_diffusion_needs_a_definition(self):
        def spec(**noise):
            return ModelSpec(
                dim=1, delay=0.5, drift_ends=lambda now, oldest: -now,
                lambda1=1.0, lambda2=0.0, sigma_bound=1.5, sigma_inv_bound=2.0, **noise,
            )

        with pytest.raises(ValueError, match="sigma, diffusion_ends or diffusion_batch"):
            spec()
        # a constant sigma beside a state-dependent form contradicts it
        tanh_ends = lambda now, oldest: 1.0 + 0.5 * np.tanh(now)
        tanh_batch = lambda segs: 1.0 + 0.5 * np.tanh(segs[:, -1, :])
        for noise in (
            dict(sigma=1.0, diffusion_ends=tanh_ends),
            dict(sigma=1.0, diffusion_batch=tanh_batch),
            dict(sigma=np.eye(1), diffusion_ends=tanh_ends, diffusion_batch=tanh_batch),
        ):
            with pytest.raises(ValueError, match="excludes diffusion_ends and diffusion_batch"):
                spec(**noise)
        # sigma is a scalar or a (dim, dim) matrix, and finite
        for sigma in (np.ones(1), np.ones((1, 2)), np.eye(2), np.ones((1, 1, 1)), math.nan):
            with pytest.raises(ValueError, match="sigma must be"):
                spec(sigma=sigma)
        assert spec(sigma=np.full((1, 1), 0.5)).sigma == 0.5


class TestExactOracle:
    def test_stationary_variance_of_the_euler_chain(self):
        dt = 1.0 / 128.0
        exact = euler_chain_variance(2.0, 0.1, 1.0, 64, dt)
        assert exact == pytest.approx(0.25690, abs=5e-6)
        model = build_model("linear_delay_ou")
        traj = simulate(model, constant_segment(0.0, 0.5, dt), 2020.0, RngStream(4, 1))
        burn = traj.n_history + int(round(20.0 / dt))
        squares = traj.states[burn + 1 :, 0] ** 2  # the stationary mean is 0
        batches = squares[: squares.size // 20 * 20].reshape(20, -1).mean(axis=1)
        estimate = batches.mean()
        se = batches.std(ddof=1) / math.sqrt(batches.size)
        assert abs(estimate - exact) < 4 * se

    @pytest.mark.parametrize(
        "a, b, sigma, m, dt",
        [(2.0, 0.1, 1.0, 64, 1.0 / 128.0), (1.5, -0.4, 0.7, 16, 1.0 / 32.0)],
        ids=["linear_delay_ou", "other"],
    )
    def test_long_run_variance_of_the_euler_chain_is_the_sdes(self, a, b, sigma, m, dt):
        # no discretization bias in D_f^2: the chain's value is sigma^2 / (a - b)^2
        exact = euler_chain_long_run_variance(a, b, sigma, m, dt)
        assert exact == pytest.approx(sigma**2 / (a - b) ** 2, rel=1e-12)

    def test_long_run_variance_of_linear_delay_ou(self):
        assert euler_chain_long_run_variance(2.0, 0.1, 1.0, 64, 1.0 / 128.0) == pytest.approx(
            0.27700831, abs=5e-9
        )

    def test_unit_lag_variance_of_the_euler_chain(self):
        # D-hat^2 of the unit-time chain, gamma(0) + 2 sum_j gamma(128 j)
        exact = euler_chain_unit_lag_variance(2.0, 0.1, 1.0, 64, 1.0 / 128.0, 128)
        assert exact == pytest.approx(0.356036, abs=5e-7)
