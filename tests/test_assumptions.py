"""Dissipativity and ellipticity certificate tests."""

import math

import pytest

from segflow import (
    EllipticityViolationError,
    ModelSpec,
    RngStream,
    check_dissipativity,
    check_ellipticity,
    gaussian_pair_sampler,
    gaussian_segment_sampler,
)
from segflow.registry import build_model

DT = 1.0 / 64.0


def model_with_drift(drift_batch, lambda1=1.0, lambda2=0.0, r0=0.5):
    return ModelSpec(
        dim=1,
        delay=r0,
        drift_batch=drift_batch,
        sigma=1.0,
        lambda1=lambda1,
        lambda2=lambda2,
        sigma_bound=1.0,
        sigma_inv_bound=1.0,
    )


class TestDissipativity:
    def test_pure_decay_has_zero_margin(self):
        # drift -xi(0) with lambda1=2 gives g identically 0
        model = model_with_drift(lambda segs: -segs[:, -1], lambda1=2.0)
        rep = check_dissipativity(model, gaussian_pair_sampler(model, DT), 200, RngStream(5))
        assert rep.passed
        assert abs(rep.max_g) < 1e-9
        assert rep.side_margin == pytest.approx(2.0)

    def test_reference_constants_pass(self):
        model = build_model("linear_delay_ou", {"a": 2.0, "b": 0.1})
        rep = check_dissipativity(model, gaussian_pair_sampler(model, DT, scale=3.0), 500, RngStream(6))
        assert rep.passed
        assert rep.side_margin == pytest.approx(3.9 - 0.1 * math.exp(1.95), abs=1e-12)
        assert rep.side_margin > 3.1

    def test_expansive_drift_fails(self):
        model = model_with_drift(lambda segs: +segs[:, -1], lambda1=1.0)
        rep = check_dissipativity(model, gaussian_pair_sampler(model, DT), 100, RngStream(7))
        assert not rep.passed
        assert rep.max_g > 0

    def test_scale_awareness(self):
        # scaling drift, lambda1 and lambda2 by the same factor preserves the verdict
        for c in (0.5, 4.0):
            base = model_with_drift(
                lambda segs: -2.0 * segs[:, -1] + 0.1 * segs[:, 0], lambda1=3.9, lambda2=0.1
            )
            scaled = model_with_drift(
                lambda segs: c * (-2.0 * segs[:, -1] + 0.1 * segs[:, 0]),
                lambda1=c * 3.9,
                lambda2=c * 0.1,
                r0=0.1,  # keep the side condition satisfiable at c=4
            )
            base = ModelSpec(**{**vars(base), "delay": 0.1})
            r1 = check_dissipativity(base, gaussian_pair_sampler(base, 0.05), 200, RngStream(9))
            r2 = check_dissipativity(scaled, gaussian_pair_sampler(scaled, 0.05), 200, RngStream(9))
            assert r1.passed == r2.passed


class TestEllipticity:
    def test_identity_diffusion(self):
        model = model_with_drift(lambda segs: -segs[:, -1], lambda1=2.0)
        rep = check_ellipticity(model, gaussian_segment_sampler(model, DT), 100, RngStream(1))
        assert rep.passed
        assert rep.max_sigma_norm == pytest.approx(1.0)
        assert rep.max_sigma_inv_norm == pytest.approx(1.0)

    def test_tanh_band(self):
        model = build_model("tanh_diffusion")
        rep = check_ellipticity(model, gaussian_segment_sampler(model, DT, scale=3.0), 400, RngStream(2))
        assert rep.passed
        assert rep.max_sigma_norm <= 1.5
        assert rep.max_sigma_inv_norm <= 2.0

    def test_degenerate_diffusion_raises(self):
        # sigma(xi) = xi(0) sampled near 0 hits a singular matrix
        model = ModelSpec(
            dim=1,
            delay=0.5,
            drift_batch=lambda segs: -segs[:, -1],
            diffusion_batch=lambda segs: segs[:, -1],
            lambda1=2.0,
            lambda2=0.0,
            sigma_bound=10.0,
            sigma_inv_bound=10.0,
        )

        zero_sampler = gaussian_segment_sampler(model, DT, scale=0.0)
        with pytest.raises(EllipticityViolationError) as err:
            check_ellipticity(model, zero_sampler, 50, RngStream(3))
        assert err.value.sample_index >= 0
        assert err.value.segment is not None

    def test_unclaimed_inverse_bound_fails_fast(self):
        model = build_model("deterministic_decay")
        with pytest.raises(EllipticityViolationError):
            check_ellipticity(model, gaussian_segment_sampler(model, DT), 10, RngStream(4))
