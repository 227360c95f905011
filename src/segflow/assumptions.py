"""Sample-based certificates for the model's declared assumptions.

The dissipativity and ellipticity conditions quantify over every pair of
history segments, which no finite computation can verify.  These checkers
evaluate the defining inequalities on sampled segments and report worst-case
margins; they certify *failures* exactly and passes only up to the sampled
set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EllipticityViolationError, NumericBlowupError
from .rng import RngStream
from .segments import ModelSpec, Segment, _history_nodes, batch_sup_norms

__all__ = [
    "DissipativityReport",
    "EllipticityReport",
    "check_dissipativity",
    "check_ellipticity",
    "gaussian_segment_sampler",
    "gaussian_pair_sampler",
]

# Slack of the checks: absolute on the sampled dissipativity maximum, and
# relative on the diffusion norms over their declared bounds.
_DISSIPATIVITY_TOL = 1e-9
_ELLIPTICITY_RTOL = 1e-9

SegmentSampler = Callable[[np.random.Generator], Segment]
PairSampler = Callable[[np.random.Generator], tuple[Segment, Segment]]


def gaussian_segment_sampler(
    model: ModelSpec, step: float, scale: float = 1.0
) -> SegmentSampler:
    """Sampler of rough segments with i.i.d. normal nodes of the given scale."""
    m = _history_nodes(model.delay, step)

    def sample(gen: np.random.Generator) -> Segment:
        return Segment(scale * gen.standard_normal((m + 1, model.dim)), model.delay, step)

    return sample


def gaussian_pair_sampler(model: ModelSpec, step: float, scale: float = 1.0) -> PairSampler:
    single = gaussian_segment_sampler(model, step, scale)

    def sample(gen: np.random.Generator) -> tuple[Segment, Segment]:
        return single(gen), single(gen)

    return sample


@dataclass(frozen=True)
class DissipativityReport:
    max_g: float
    side_margin: float
    n_pairs: int
    tolerance: float
    passed: bool
    worst_pair_index: int


def check_dissipativity(
    model: ModelSpec,
    pair_sampler: PairSampler,
    n_pairs: int,
    rng: RngStream,
) -> DissipativityReport:
    """Probe the dissipativity inequality on sampled segment pairs.

    For each sampled pair (xi, eta) evaluates

        g = 2 <xi(0) - eta(0), drift(xi) - drift(eta)>
            + lambda1 |xi(0) - eta(0)|^2 - lambda2 ||xi - eta||_inf^2

    which the declared constants claim is <= 0.  Passes iff the sampled
    maximum stays below ``_DISSIPATIVITY_TOL`` (1e-9), which the report
    carries as ``tolerance``; the side-condition margin
    ``lambda1 - lambda2 * exp(lambda1 * delay)`` is reported alongside.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    gen = rng.generator()
    max_g = -np.inf
    worst = -1
    for i in range(n_pairs):
        xi, eta = pair_sampler(gen)
        drift = np.asarray(model.drift_batch(np.stack([xi.values, eta.values])), dtype=float)
        dx = xi.values[-1] - eta.values[-1]
        db = drift[0] - drift[1]
        diff_norm = float(batch_sup_norms((xi.values - eta.values)[None])[0])
        g = (
            2.0 * float(dx @ db)
            + model.lambda1 * float(dx @ dx)
            - model.lambda2 * diff_norm ** 2
        )
        if not np.isfinite(g):
            raise NumericBlowupError("non-finite dissipativity evaluation", 0.0)
        if g > max_g:
            max_g, worst = g, i
    return DissipativityReport(
        max_g=float(max_g),
        side_margin=model.side_margin,
        n_pairs=n_pairs,
        tolerance=_DISSIPATIVITY_TOL,
        passed=bool(max_g <= _DISSIPATIVITY_TOL),
        worst_pair_index=worst,
    )


def _diffusion_matrix(model: ModelSpec, values: np.ndarray) -> np.ndarray:
    """The (d, d) diffusion matrix at one segment's values (m+1, d)."""
    if isinstance(model.sigma, float):
        return model.sigma * np.eye(model.dim)
    if model.sigma is not None:
        return model.sigma
    sig = np.asarray(model.diffusion_batch(values[None]), dtype=float)[0]
    return np.diag(sig) if sig.ndim == 1 else sig


@dataclass(frozen=True)
class EllipticityReport:
    max_sigma_norm: float
    max_sigma_inv_norm: float
    declared_sigma_bound: float
    declared_sigma_inv_bound: float
    n_samples: int
    passed: bool


def check_ellipticity(
    model: ModelSpec,
    sampler: SegmentSampler,
    n: int,
    rng: RngStream,
) -> EllipticityReport:
    """Probe the diffusion operator-norm bounds on sampled segments.

    Reports the sampled maxima of ||sigma(xi)|| and ||sigma(xi)^-1|| (spectral
    norms) and passes iff both stay within the declared bounds, up to a
    relative ``_ELLIPTICITY_RTOL`` (1e-9).

    Raises
    ------
    EllipticityViolationError: if some sampled sigma(xi) is singular, naming
        the offending sample.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if model.sigma_inv_bound is None:
        raise EllipticityViolationError(
            "model declares no inverse diffusion bound; ellipticity cannot hold", -1
        )
    gen = rng.generator()
    max_s = 0.0
    max_si = 0.0
    for i in range(n):
        xi = sampler(gen)
        sig = _diffusion_matrix(model, xi.values)
        svals = np.linalg.svd(sig, compute_uv=False)
        smax, smin = float(svals[0]), float(svals[-1])
        if smin <= 0.0 or not np.isfinite(smin):
            raise EllipticityViolationError(
                f"singular diffusion matrix at sample {i} (min singular value {smin:g})",
                i,
                segment=xi,
            )
        max_s = max(max_s, smax)
        max_si = max(max_si, 1.0 / smin)
    slack = 1.0 + _ELLIPTICITY_RTOL
    passed = max_s <= model.sigma_bound * slack and max_si <= model.sigma_inv_bound * slack
    return EllipticityReport(
        max_sigma_norm=max_s,
        max_sigma_inv_norm=max_si,
        declared_sigma_bound=model.sigma_bound,
        declared_sigma_inv_bound=model.sigma_inv_bound,
        n_samples=n,
        passed=bool(passed),
    )
