"""Built-in models and observables, constructible by name.

Model builders validate their declared dissipativity constants at build time:
a parameter set whose constants cannot satisfy the side condition is rejected
by :class:`~segflow.segments.ModelSpec` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .metric import Observable
from .segments import ModelSpec, Segment, batch_sup_norms

__all__ = [
    "build_model",
    "build_observable",
    "registry_list",
    "RegistryListing",
    "MODEL_BUILDERS",
    "OBSERVABLE_BUILDERS",
]


def _linear_delay_ou(a: float = 2.0, b: float = 0.1, r0: float = 0.5, sigma: float = 1.0, dim: int = 1) -> ModelSpec:
    """Linear mean-reverting drift with one delayed linear feedback term.

    drift(xi) = -a xi(0) + b xi(-r0), constant diffusion sigma * I.
    Dissipativity constants: lambda1 = 2a - |b|, lambda2 = |b|.
    """
    if sigma == 0:
        raise ConfigError("sigma must be non-zero for an invertible diffusion")
    a, b, sigma = float(a), float(b), float(sigma)
    sig_mat = sigma * np.eye(dim)

    return ModelSpec(
        dim=dim,
        delay=r0,
        drift_ends=lambda now, oldest: -a * now + b * oldest,
        diffusion=lambda seg: sig_mat,
        lambda1=2.0 * a - abs(b),
        lambda2=abs(b),
        sigma_bound=abs(sigma),
        sigma_inv_bound=1.0 / abs(sigma),
        diffusion_is_constant=True,
        name="linear_delay_ou",
    )


def _tanh_diffusion(a: float = 2.0, b: float = 0.1, r0: float = 0.5, dim: int = 1) -> ModelSpec:
    """Delayed sine coupling with a bounded state-dependent diffusion.

    drift(xi) = -a xi(0) + b sin(xi(-r0)) (componentwise sine), and
    diffusion(xi) = diag(1 + 0.5 tanh(xi(0)_i)), which stays in (0.5, 1.5)
    with inverse bounded by 2.  The sine coupling is 1-Lipschitz, so the
    dissipativity constants match the linear model's.
    """
    a, b = float(a), float(b)

    def diffusion(seg: Segment) -> np.ndarray:
        return np.diag(1.0 + 0.5 * np.tanh(seg.values[-1]))

    def diffusion_batch(segs: np.ndarray) -> np.ndarray:
        return 1.0 + 0.5 * np.tanh(segs[:, -1, :])  # diagonal convention

    return ModelSpec(
        dim=dim,
        delay=r0,
        drift_ends=lambda now, oldest: -a * now + b * np.sin(oldest),
        diffusion=diffusion,
        lambda1=2.0 * a - abs(b),
        lambda2=abs(b),
        sigma_bound=1.5,
        sigma_inv_bound=2.0,
        diffusion_batch=diffusion_batch,
        name="tanh_diffusion",
    )


def _deterministic_decay(rate: float = 1.0, r0: float = 0.5, dim: int = 1) -> ModelSpec:
    """Noise-free exponential decay toward 0 (synthetic-kernel companion).

    Declares no inverse diffusion bound: ellipticity checks fail fast on it.
    """
    rate = float(rate)
    if rate <= 0:
        raise ConfigError("rate must be positive")
    zero = np.zeros((dim, dim))

    return ModelSpec(
        dim=dim,
        delay=r0,
        drift_ends=lambda now, oldest: -rate * now,
        diffusion=lambda seg: zero,
        lambda1=2.0 * rate,
        lambda2=0.0,
        sigma_bound=0.0,
        sigma_inv_bound=None,
        diffusion_is_constant=True,
        name="deterministic_decay",
    )


MODEL_BUILDERS: dict[str, Callable[..., ModelSpec]] = {
    "linear_delay_ou": _linear_delay_ou,
    "tanh_diffusion": _tanh_diffusion,
    "deterministic_decay": _deterministic_decay,
}


def _eval0(coord: int = 0) -> Observable:
    """Current-state coordinate xi(0)[coord]."""
    coord = int(coord)
    return Observable(
        name=f"eval0[{coord}]" if coord else "eval0",
        eval=lambda seg: float(seg.values[-1, coord]),
        eval_batch=lambda vals: np.array(vals[:, -1, coord]),
    )


def _sup_norm_pow(q: float = 2.0) -> Observable:
    """Uniform norm of the window raised to the power q."""
    q = float(q)
    if q <= 0:
        raise ConfigError("q must be positive")
    return Observable(
        name=f"sup_norm_pow({q:g})",
        eval=lambda seg: float(np.sqrt((seg.values**2).sum(axis=1)).max() ** q),
        eval_batch=lambda vals: batch_sup_norms(vals) ** q,
    )


def _sin_eval0(coord: int = 0) -> Observable:
    coord = int(coord)
    return Observable(
        name="sin_eval0",
        eval=lambda seg: float(np.sin(seg.values[-1, coord])),
        declared_norm=None,
        eval_batch=lambda vals: np.sin(np.array(vals[:, -1, coord])),
    )


def _zero() -> Observable:
    """Identically-zero observable; its norm bound is exactly 0."""
    return Observable(
        name="zero",
        eval=lambda seg: 0.0,
        declared_norm=0.0,
        eval_batch=lambda vals: np.zeros(vals.shape[0]),
    )


def _linear_combo(terms=None) -> Observable:
    """Weighted sum of other registry observables.

    ``terms`` is a list of ``{"coef": c, "name": obs, "params": {...}}``.
    """
    if not terms:
        raise ConfigError("linear_combo needs a non-empty 'terms' list")
    parts = []
    for t in terms:
        coef = float(t.get("coef", 1.0))
        obs = build_observable(t["name"], t.get("params", {}))
        parts.append((coef, obs))
    label = "+".join(f"{c:g}*{o.name}" for c, o in parts)

    def ev(seg) -> float:
        return sum(c * o.eval(seg) for c, o in parts)

    def ev_batch(vals: np.ndarray) -> np.ndarray:
        out = np.zeros(vals.shape[0])
        for c, o in parts:
            out += c * o.values(vals)
        return out

    return Observable(name=f"combo({label})", eval=ev, eval_batch=ev_batch)


OBSERVABLE_BUILDERS: dict[str, Callable[..., Observable]] = {
    "eval0": _eval0,
    "sup_norm_pow": _sup_norm_pow,
    "sin_eval0": _sin_eval0,
    "linear_combo": _linear_combo,
    "zero": _zero,
}


def build_model(name: str, params: dict | None = None) -> ModelSpec:
    if name not in MODEL_BUILDERS:
        raise ConfigError(f"unknown model {name!r}; known: {sorted(MODEL_BUILDERS)}", key="model.name")
    try:
        return MODEL_BUILDERS[name](**(params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for model {name!r}: {exc}", key="model.params") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid model {name!r}: {exc}", key="model.params") from exc


def build_observable(name: str, params: dict | None = None) -> Observable:
    if name not in OBSERVABLE_BUILDERS:
        raise ConfigError(
            f"unknown observable {name!r}; known: {sorted(OBSERVABLE_BUILDERS)}", key="observable.name"
        )
    try:
        return OBSERVABLE_BUILDERS[name](**(params or {}))
    except TypeError as exc:
        raise ConfigError(f"bad parameters for observable {name!r}: {exc}", key="observable.params") from exc


@dataclass(frozen=True)
class RegistryListing:
    models: tuple[str, ...]
    observables: tuple[str, ...]


def registry_list() -> RegistryListing:
    """Names of every built-in model and observable."""
    return RegistryListing(
        models=tuple(sorted(MODEL_BUILDERS)),
        observables=tuple(sorted(OBSERVABLE_BUILDERS)),
    )
