"""Built-in model/observable registry tests."""

import math

import numpy as np
import pytest

from segflow import ConfigError, RngStream, constant_segment, simulate
from segflow.registry import build_model, build_observable, registry_list

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

    def test_drift_batch_matches_scalar(self):
        model = build_model("linear_delay_ou")
        gen = RngStream(3).generator()
        vals = gen.standard_normal((5, int(0.5 / DT) + 1, 1))
        batch = model.drift_batch(vals)
        for i in range(5):
            seg = model.segment(vals[i], DT)
            assert np.allclose(batch[i], model.drift(seg))


class TestTanhDiffusion:
    def test_diffusion_band(self):
        model = build_model("tanh_diffusion")
        seg = constant_segment(100.0, 0.5, DT)
        assert float(model.diffusion(seg)[0, 0]) <= 1.5
        seg2 = constant_segment(-100.0, 0.5, DT)
        assert float(model.diffusion(seg2)[0, 0]) >= 0.5

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
