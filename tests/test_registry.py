"""Built-in model/observable registry tests."""

import dataclasses
import math

import numpy as np
import pytest

from segflow import ConfigError, RngStream, constant_segment, simulate
from segflow.registry import MODEL_BUILDERS, build_model, build_observable, registry_list
from segflow.segments import record

DT = 1.0 / 64.0


class TestRegistryList:
    def test_contains_required_names(self):
        listing = registry_list()
        assert "linear_delay_ou" in listing.models
        assert "tanh_diffusion" in listing.models
        assert {"eval0", "sup_norm_pow", "sin_eval0", "linear_combo"} <= set(listing.observables)


class TestLinearDelayOu:
    def test_reference_constants(self):
        model = build_model("linear_delay_ou", {"a": 2.0, "b": 0.1, "r0": 0.5})
        assert model.lambda1 == pytest.approx(3.9)
        assert model.lambda2 == pytest.approx(0.1)
        # 3.9 > 0.1 * e^1.95
        assert model.side_margin > 3.1

    def test_insufficient_dissipativity_rejected(self):
        with pytest.raises((ConfigError, ValueError)):
            build_model("linear_delay_ou", {"a": 0.2, "b": 0.5})

    def test_zero_noise_rejected(self):
        with pytest.raises(ConfigError):
            build_model("linear_delay_ou", {"sigma": 0.0})


class TestTanhDiffusion:
    def test_diffusion_band(self):
        model = build_model("tanh_diffusion")
        seg = constant_segment(100.0, 0.5, DT)
        assert float(model.diffusion_batch(seg.values[None])[0, 0]) <= 1.5
        seg2 = constant_segment(-100.0, 0.5, DT)
        assert float(model.diffusion_batch(seg2.values[None])[0, 0]) >= 0.5

    def test_simulates(self):
        model = build_model("tanh_diffusion")
        traj = simulate(model, constant_segment(0.5, 0.5, DT), 2.0, RngStream(5))
        assert np.isfinite(traj.states).all()


class TestObservables:
    def test_eval0(self):
        f = build_observable("eval0")
        seg = constant_segment(1.7, 0.5, DT)
        assert f.values(seg.values[None])[0] == pytest.approx(1.7)
        assert np.allclose(f.values(seg.values[None]), [1.7])

    def test_sup_norm_pow(self):
        f = build_observable("sup_norm_pow", {"q": 3.0})
        seg = constant_segment(-2.0, 0.5, DT)
        assert f.values(seg.values[None])[0] == pytest.approx(8.0)

    def test_sin_eval0(self):
        f = build_observable("sin_eval0")
        seg = constant_segment(0.5, 0.5, DT)
        assert f.values(seg.values[None])[0] == pytest.approx(math.sin(0.5))

    def test_linear_combo(self):
        f = build_observable(
            "linear_combo",
            {"terms": [
                {"coef": 2.0, "name": "eval0"},
                {"coef": -1.0, "name": "sup_norm_pow", "params": {"q": 2.0}},
            ]},
        )
        seg = constant_segment(3.0, 0.5, DT)
        assert f.values(seg.values[None])[0] == pytest.approx(2.0 * 3.0 - 9.0)
        assert np.allclose(f.values(seg.values[None]), [-3.0])

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            build_model("nope")
        with pytest.raises(ConfigError):
            build_observable("nope")

    def test_bad_params_name_the_problem(self):
        with pytest.raises(ConfigError):
            build_observable("sup_norm_pow", {"q": -1.0})
        with pytest.raises(ConfigError):
            build_model("linear_delay_ou", {"bogus": 1})


class TestCountingWrappers:
    """The benchmark's traced runs (``perfbench/tracer.py``) rebuild every
    registry model with ``dataclasses.replace``, wrapping its batched
    coefficients in call counters; such a model must construct and step
    exactly as the original."""

    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_wrapped_model_steps_bit_identically(self, name):
        model = build_model(name)
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)

            return wrapper

        wrapped = {
            field: counting(getattr(model, field))
            for field in ("drift_batch", "diffusion_batch")
            if getattr(model, field) is not None
        }
        traced = dataclasses.replace(model, **wrapped)
        nodes = int(round(model.delay / DT)) + 1
        steps = [0, 1, 77, 200]
        for width in (1, 64):
            init = np.random.default_rng(width).normal(size=(width, nodes, model.dim))
            ref, _ = record(model, init, 200, DT, RngStream(9, width), sample_at=steps)
            calls.clear()
            ours, _ = record(traced, init, 200, DT, RngStream(9, width), sample_at=steps)
            assert ours.tobytes() == ref.tobytes()
        assert len(calls) >= 200  # width 64 steps through the wrappers
