"""Experiment configuration: strict JSON parsing, defaults, and echo.

Configs are strict: unknown keys are rejected by name at every level, and
every numeric knob is range-checked, and checked against the built model
and the step grid, here rather than deep in a pipeline.
``echo`` returns the fully defaulted configuration, which is embedded in the
report so a run can be reproduced exactly from its own output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .errors import ConfigError
from .metric import MetricParams
from .registry import build_model, build_observable
from .segments import ModelSpec, _history_nodes, grid_steps

__all__ = ["ExperimentConfig", "parse_config", "parse_config_dict", "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = ("ergodicity", "slln", "clt", "lil", "assumptions", "full-suite")


def _fail(key: str, msg: str):
    raise ConfigError(f"{key}: {msg}", key=key)


def _check_type(key, value, types, what):
    if isinstance(value, bool) or not isinstance(value, types):
        _fail(key, f"expected {what}, got {value!r}")
    return value


def _pos_float(lo=0.0, hi=math.inf, lo_open=True):
    def check(key, v):
        _check_type(key, v, (int, float), "a number")
        v = float(v)
        ok = (v > lo if lo_open else v >= lo) and v <= hi
        if not ok or not math.isfinite(v):
            bound = f"({lo}, {hi}]" if lo_open else f"[{lo}, {hi}]"
            _fail(key, f"value {v!r} outside allowed range {bound}")
        return v

    return check


def _int_min(lo, hi=10**9):
    def check(key, v):
        _check_type(key, v, int, "an integer")
        if not (lo <= v <= hi):
            _fail(key, f"value {v!r} outside allowed range [{lo}, {hi}]")
        return int(v)

    return check


def _float_grid(min_len):
    def check(key, v):
        _check_type(key, v, list, "a list of numbers")
        if len(v) < min_len:
            _fail(key, f"needs at least {min_len} entries")
        out = []
        for i, x in enumerate(v):
            x = _finite_float(f"{key}[{i}]", x)
            if x <= 0:
                _fail(f"{key}[{i}]", "entries must be positive")
            out.append(x)
        if any(b <= a for a, b in zip(out, out[1:])):
            _fail(key, "entries must be strictly increasing")
        return out

    return check


def _int_grid(lo):
    def check(key, v):
        _check_type(key, v, list, "a list of integers")
        out = []
        for i, x in enumerate(v):
            _check_type(f"{key}[{i}]", x, int, "an integer")
            if x < lo:
                _fail(f"{key}[{i}]", f"entries must be >= {lo}")
            out.append(int(x))
        if any(b <= a for a, b in zip(out, out[1:])):
            _fail(key, "entries must be strictly increasing")
        return out

    return check


def _choice(*options):
    def check(key, v):
        if v not in options:
            _fail(key, f"must be one of {options}, got {v!r}")
        return v

    return check


def _optional(inner):
    def check(key, v):
        return None if v is None else inner(key, v)

    return check


def _finite_float(key, v):
    _check_type(key, v, (int, float), "a number")
    v = float(v)
    if not math.isfinite(v):
        _fail(key, "must be finite")
    return v


# (default, validator) per numerics key, grouped by experiment kind.
_COMMON = {
    "dt": (1.0 / 128.0, _pos_float(hi=0.5)),
    "initial_value": (1.0, _finite_float),
}
_STATIONARY = {
    "stat_n_traj": (64, _int_min(1)),
    "burn_in": (None, _optional(_pos_float(lo=0.0, lo_open=False))),
    "thinning": (1.0, _pos_float()),
    "samples_per_traj": (4, _int_min(1)),
}
_RATE = {
    "rate_n_traj": (256, _int_min(4)),
    "rate_t_grid": ([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0], _float_grid(min_len=3)),
    "rate_initial_value": (5.0, _finite_float),
}
_CORRECTOR = {
    "inner_replicas": (64, _int_min(4)),
    "outer_replicas": (24, _int_min(2)),
    "t_max": (6.0, _pos_float()),
    "k_max": (8, _int_min(1)),
    "tail_fraction": (0.1, _pos_float(hi=1.0)),
    "max_atoms": (128, _int_min(2)),
}

_SCHEMAS: dict[str, dict[str, tuple]] = {
    "assumptions": {
        **_COMMON,
        "n_pairs": (400, _int_min(1)),
        "n_samples": (400, _int_min(1)),
        "sample_scale": (2.0, _pos_float()),
    },
    "ergodicity": {
        **_COMMON,
        "initial_value": (5.0, _finite_float),
        **_STATIONARY,
        "stat_n_traj": (256, _int_min(2)),
        "samples_per_traj": (8, _int_min(1)),
        "n_traj": (1024, _int_min(4)),
        "t_grid": ([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0], _float_grid(min_len=2)),
        "assignment_cap": (512, _int_min(2, 4096)),
        "block": (None, _optional(_int_min(2, 4096))),
        # One value each (one estimator); kept only because every echo and digest carries them.
        "mode": ("stationary", _choice("stationary")),
        "coupling": ("synchronous", _choice("synchronous")),
        "floor_factor": (2.0, _pos_float(lo=2.0, hi=2.0, lo_open=False)),
    },
    "slln": {
        **_COMMON,
        **_STATIONARY,
        "replicas": (200, _int_min(100)),
        "t_grid": ([4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0], _float_grid(min_len=4)),
        "eps": (0.25, _pos_float(hi=0.4999)),
        "pathwise_horizon": (0.0, _pos_float(lo=0.0, lo_open=False)),
        "pathwise_replicas": (64, _int_min(2)),
    },
    "clt": {
        **_COMMON,
        "initial_value": (0.0, _finite_float),
        **_STATIONARY,
        **_RATE,
        **_CORRECTOR,
        "replicas": (800, _int_min(500)),
        "t_grid": ([16.0, 64.0], _float_grid(min_len=2)),
        "n_boot": (200, _int_min(20)),
    },
    "lil": {
        **_COMMON,
        "initial_value": (0.0, _finite_float),
        **_STATIONARY,
        **_RATE,
        **_CORRECTOR,
        "n_max": (20000, _int_min(16)),
        "n_min": (16, _int_min(16)),
        "checkpoints": (None, _optional(_int_grid(16))),
    },
    "full-suite": {
        **_COMMON,
        "scale": ("smoke", _choice("smoke", "desk")),
    },
}

_TOP_KEYS = {"kind", "seed", "model", "observable", "metric", "numerics", "output_dir"}

# Numerics the pipelines step to exactly, per kind: each must pass the
# time-grid rule (segments.grid_steps) for numerics.dt.
_DT_GRID_KEYS = {
    "ergodicity": ("thinning", "t_grid"),
    "slln": ("thinning", "t_grid", "pathwise_horizon"),
    "clt": ("thinning", "rate_t_grid", "t_max", "t_grid"),
    "lil": ("thinning", "rate_t_grid"),
}
# Kinds whose pipelines advance in unit-time steps (slln too when its
# pathwise statistic runs: that samples whole times up to its horizon).
_UNIT_STEP_KINDS = ("clt", "lil", "full-suite")


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment description with every default resolved
    except the model-dependent burn-in (resolved against the built model)."""

    kind: str
    seed: int
    model_name: str
    model_params: dict
    observable_name: str
    observable_params: dict
    metric: MetricParams
    numerics: dict
    output_dir: Optional[str] = None

    def build_model(self) -> ModelSpec:
        return build_model(self.model_name, self.model_params)

    def build_observable(self):
        return build_observable(self.observable_name, self.observable_params)

    def resolved_numerics(self, model: ModelSpec) -> dict:
        num = dict(self.numerics)
        if num.get("burn_in", 0.0) is None:
            num["burn_in"] = 10.0 / model.lambda1
        return num

    def echo(self, model: ModelSpec) -> dict:
        """Full effective configuration, with the burn-in resolved against
        the built ``model``; reparsing it reproduces this config."""
        num = self.resolved_numerics(model)
        return {
            "kind": self.kind,
            "seed": self.seed,
            "model": {"name": self.model_name, "params": dict(self.model_params)},
            "observable": {"name": self.observable_name, "params": dict(self.observable_params)},
            "metric": {"p": self.metric.p, "gamma": self.metric.gamma},
            "numerics": {k: num[k] for k in sorted(num)},
        }

    def config_hash(self, model: ModelSpec) -> str:
        blob = json.dumps(self.echo(model), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _parse_named_block(raw: Any, key: str) -> tuple[str, dict]:
    if not isinstance(raw, dict):
        _fail(key, "expected an object with 'name' and optional 'params'")
    unknown = set(raw) - {"name", "params"}
    if unknown:
        _fail(f"{key}.{sorted(unknown)[0]}", "unknown key")
    if "name" not in raw:
        _fail(f"{key}.name", "missing required key")
    name = _check_type(f"{key}.name", raw["name"], str, "a string")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        _fail(f"{key}.params", "expected an object")
    return name, dict(params)


def _on_grid(key: str, rule, *args) -> int:
    """Apply a segments grid rule and return its result; its ValueError
    becomes a ConfigError on ``key``."""
    try:
        return rule(*args)
    except ValueError as exc:
        _fail(key, str(exc))


def _check_against_model(kind: str, model: ModelSpec, num: dict) -> None:
    """Cross-field checks that a pipeline would otherwise only fail mid-run."""
    dt = num["dt"]
    _on_grid("numerics.dt", _history_nodes, model.delay, dt)
    if kind in _UNIT_STEP_KINDS or num.get("pathwise_horizon", 0.0) > 0:
        _on_grid("numerics.dt", grid_steps, 1.0, dt, "unit time")
    if 0 < num.get("pathwise_horizon", 0.0) < 1:
        _fail("numerics.pathwise_horizon", "must be 0 (off) or at least 1: pathwise checkpoints start at t = 1")
    for key in _DT_GRID_KEYS.get(kind, ()):
        times = num[key] if isinstance(num[key], list) else [num[key]]
        steps = [_on_grid(f"numerics.{key}", grid_steps, t, dt, key) for t in times]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            _fail(f"numerics.{key}", f"entries must fall on distinct steps of dt={dt!r}")
    if kind == "lil":
        n_min, n_max, checkpoints = num["n_min"], num["n_max"], num["checkpoints"]
        if n_min > n_max:
            _fail("numerics.n_min", f"{n_min} exceeds n_max={n_max}")
        if checkpoints and (checkpoints[0] < n_min or checkpoints[-1] > n_max):
            _fail("numerics.checkpoints", f"entries must lie within [n_min, n_max] = [{n_min}, {n_max}]")


def parse_config_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        _fail(sorted(unknown)[0], "unknown key")
    for req in ("kind", "seed", "model"):
        if req not in raw:
            _fail(req, "missing required key")
    kind = raw["kind"]
    if kind not in EXPERIMENT_KINDS:
        _fail("kind", f"must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    seed = _check_type("seed", raw["seed"], int, "an integer")
    if not (0 <= seed < 2**64):
        _fail("seed", "must fit in an unsigned 64-bit integer")

    model_name, model_params = _parse_named_block(raw["model"], "model")
    if "observable" in raw:
        obs_name, obs_params = _parse_named_block(raw["observable"], "observable")
    else:
        obs_name, obs_params = "eval0", {}

    metric_raw = raw.get("metric", {})
    if not isinstance(metric_raw, dict):
        _fail("metric", "expected an object")
    unknown = set(metric_raw) - {"p", "gamma"}
    if unknown:
        _fail(f"metric.{sorted(unknown)[0]}", "unknown key")
    p = metric_raw.get("p", 2.0)
    gamma = metric_raw.get("gamma", 1.0)
    _check_type("metric.p", p, (int, float), "a number")
    _check_type("metric.gamma", gamma, (int, float), "a number")
    if not (1.0 <= float(p) < math.inf):
        _fail("metric.p", f"must be >= 1 and finite, got {p!r}")
    if not (0.0 < float(gamma) <= 1.0):
        _fail("metric.gamma", f"must lie in (0, 1], got {gamma!r}")
    metric = MetricParams(float(p), float(gamma))

    schema = _SCHEMAS[kind]
    num_raw = raw.get("numerics", {})
    if not isinstance(num_raw, dict):
        _fail("numerics", "expected an object")
    unknown = set(num_raw) - set(schema)
    if unknown:
        _fail(f"numerics.{sorted(unknown)[0]}", "unknown key")
    numerics = {}
    for key, (default, validator) in schema.items():
        if key in num_raw:
            numerics[key] = validator(f"numerics.{key}", num_raw[key])
        else:
            numerics[key] = default

    out_dir = raw.get("output_dir")
    if out_dir is not None:
        _check_type("output_dir", out_dir, str, "a string")

    cfg = ExperimentConfig(
        kind=kind,
        seed=seed,
        model_name=model_name,
        model_params=model_params,
        observable_name=obs_name,
        observable_params=obs_params,
        metric=metric,
        numerics=numerics,
        output_dir=out_dir,
    )
    # building validates model/observable names and parameter ranges eagerly
    model = cfg.build_model()
    _check_against_model(kind, model, numerics)
    observable = cfg.build_observable()
    try:  # one zero window of the model's shape catches a coordinate the model lacks
        observable.values(np.zeros((1, _history_nodes(model.delay, numerics["dt"]) + 1, model.dim)))
    except IndexError as exc:
        _fail("observable.params", f"observable {obs_name!r} does not fit a dim-{model.dim} model: {exc}")
    return cfg


def parse_config(path: str | os.PathLike) -> ExperimentConfig:
    """Parse and validate a UTF-8 JSON experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}")
    return parse_config_dict(raw)
