"""Built-in models and observables, constructible by name.

Model builders validate their declared dissipativity constants at build time:
a parameter set whose constants cannot satisfy the side condition is rejected
by :class:`~segflow.segments.ModelSpec` itself.  A bad parameter is a
ValueError, which :func:`build_model` and :func:`build_observable` report as a
:class:`ConfigError` on the config's ``params`` key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .metric import Observable
from .segments import ModelSpec, batch_sup_norms

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
        raise ValueError("sigma must be non-zero for an invertible diffusion")
    a, b, sigma = float(a), float(b), float(sigma)

    return ModelSpec(
        dim=dim,
        delay=r0,
        drift_ends=lambda now, oldest: -a * now + b * oldest,
        sigma=sigma,
        lambda1=2.0 * a - abs(b),
        lambda2=abs(b),
        sigma_bound=abs(sigma),
        sigma_inv_bound=1.0 / abs(sigma),
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

    return ModelSpec(
        dim=dim,
        delay=r0,
        drift_ends=lambda now, oldest: -a * now + b * np.sin(oldest),
        diffusion_ends=lambda now, oldest: 1.0 + 0.5 * np.tanh(now),
        lambda1=2.0 * a - abs(b),
        lambda2=abs(b),
        sigma_bound=1.5,
        sigma_inv_bound=2.0,
        name="tanh_diffusion",
    )


def _deterministic_decay(rate: float = 1.0, r0: float = 0.5, dim: int = 1) -> ModelSpec:
    """Noise-free exponential decay toward 0 (synthetic-kernel companion).

    Declares no inverse diffusion bound: ellipticity checks fail fast on it.
    """
    rate = float(rate)
    if rate <= 0:
        raise ValueError("rate must be positive")

    return ModelSpec(
        dim=dim,
        delay=r0,
        drift_ends=lambda now, oldest: -rate * now,
        sigma=0.0,
        lambda1=2.0 * rate,
        lambda2=0.0,
        sigma_bound=0.0,
        sigma_inv_bound=None,
        name="deterministic_decay",
    )


MODEL_BUILDERS: dict[str, Callable[..., ModelSpec]] = {
    "linear_delay_ou": _linear_delay_ou,
    "tanh_diffusion": _tanh_diffusion,
    "deterministic_decay": _deterministic_decay,
}


def _coordinate(coord) -> int:
    """``coord`` as a coordinate index: an integer, not a bool, and not negative."""
    if isinstance(coord, bool) or not isinstance(coord, (int, np.integer)):
        raise ValueError(f"coord must be an integer, got {coord!r}")
    if coord < 0:
        raise ValueError("coord must be non-negative")
    return int(coord)


def _eval0(coord: int = 0) -> Observable:
    """Current-state coordinate xi(0)[coord]."""
    coord = _coordinate(coord)
    return Observable(
        name=f"eval0[{coord}]" if coord else "eval0",
        eval_batch=lambda vals: np.array(vals[:, -1, coord]),
        antithetic=True,
    )


def _sup_norm_pow(q: float = 2.0) -> Observable:
    """Uniform norm of the window raised to the power q."""
    q = float(q)
    if not (q > 0):  # a NaN q fails too
        raise ValueError("q must be positive")
    return Observable(
        name=f"sup_norm_pow({q:g})",
        eval_batch=lambda vals: batch_sup_norms(vals) ** q,
    )


def _sin_eval0(coord: int = 0) -> Observable:
    coord = _coordinate(coord)
    return Observable(
        name="sin_eval0",
        declared_norm=None,
        eval_batch=lambda vals: np.sin(np.array(vals[:, -1, coord])),
        antithetic=True,
    )


def _zero() -> Observable:
    """Identically-zero observable; its norm bound is exactly 0."""
    return Observable(
        name="zero",
        declared_norm=0.0,
        eval_batch=lambda vals: np.zeros(vals.shape[0]),
        antithetic=True,
    )


def _linear_combo(terms=None) -> Observable:
    """Weighted sum of other registry observables.

    ``terms`` is a list of objects ``{"coef": c, "name": obs, "params":
    {...}}``; ``coef`` defaults to 1 and must be a finite number.  The sum
    is antithetic when every term is.
    """
    if not terms:
        raise ValueError("linear_combo needs a non-empty 'terms' list")
    parts = []
    for t in terms:
        if not isinstance(t, dict):
            raise ValueError(f"each linear_combo term must be an object, got {t!r}")
        coef = t.get("coef", 1.0)
        if isinstance(coef, bool) or not isinstance(coef, (int, float)) or not math.isfinite(coef):
            raise ValueError(f"coef must be a finite number, got {coef!r}")
        coef = float(coef)
        obs = build_observable(t["name"], t.get("params", {}))
        parts.append((coef, obs))
    label = "+".join(f"{c:g}*{o.name}" for c, o in parts)

    def ev_batch(vals: np.ndarray) -> np.ndarray:
        out = np.zeros(vals.shape[0])
        for c, o in parts:
            out += c * o.values(vals)
        return out

    return Observable(
        name=f"combo({label})", eval_batch=ev_batch, antithetic=all(o.antithetic for _, o in parts)
    )


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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model.params: bad parameters for model {name!r}: {exc}", key="model.params") from exc


def build_observable(name: str, params: dict | None = None) -> Observable:
    if name not in OBSERVABLE_BUILDERS:
        raise ConfigError(
            f"unknown observable {name!r}; known: {sorted(OBSERVABLE_BUILDERS)}", key="observable.name"
        )
    try:
        return OBSERVABLE_BUILDERS[name](**(params or {}))
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(
            f"observable.params: bad parameters for observable {name!r}: {exc}", key="observable.params"
        ) from exc


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
