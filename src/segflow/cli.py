"""Command-line experiment orchestration.

Usage::

    segflow run <config.json> [--out DIR] [--threads N] [--seed S]
    segflow list                  # built-in models and observables
    segflow validate <config.json>

Exit codes: 0 success, 2 configuration error, 3 numeric blowup, 4 a
statistical check failed.  ``--threads`` (or the SEGFLOW_THREADS environment
variable) sizes the pool of forked worker processes that runs the five
sub-runs of ``full-suite``; with 1, or where the ``fork`` start method is
unavailable, they run serially in this process.  Every task derives its
randomness from ``(seed, task index)`` and results fold in task order, so
the worker count and scheduling never change any output.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .assumptions import (
    check_dissipativity,
    check_ellipticity,
    gaussian_pair_sampler,
    gaussian_segment_sampler,
)
from .config import ExperimentConfig, parse_config, parse_config_dict
from .errors import ConfigError, NumericBlowupError, SegflowError
from .ergodic import RateFit, ergodicity_curve, sample_invariant
from .limits import (
    _SLOPE_GATE,
    CenteredObservable,
    CorrectorConfig,
    DiscreteCorrectorConfig,
    clt_test,
    lil_run,
    rescaled_path_nodes,
    slln_variance_decay,
    variance_D,
)
from .registry import registry_list
from .reports import ReportRecord, input_digest, jsonable, payload_digest, write_report
from .rng import RngStream, derive_seed
from .segments import constant_segment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_STATISTICAL = 4


def _initial_segment(model, num):
    return constant_segment(num["initial_value"], model.delay, num["dt"], dim=model.dim)


def _stationary_sample(cfg: ExperimentConfig, model, num):
    return sample_invariant(
        model, _initial_segment(model, num), num["stat_n_traj"], num["burn_in"],
        num["thinning"], RngStream(derive_seed(cfg.seed, 0)), num["samples_per_traj"],
    )


def _rate_fit(cfg: ExperimentConfig, model, num, stationary) -> RateFit:
    start = constant_segment(num["rate_initial_value"], model.delay, num["dt"], dim=model.dim)
    return ergodicity_curve(
        model, start, stationary, num["rate_t_grid"], cfg.metric, num["rate_n_traj"],
        RngStream(derive_seed(cfg.seed, 1)),
    )


def _run_assumptions(cfg: ExperimentConfig, model, num):
    rng = RngStream(cfg.seed).child(4)
    pair_sampler = gaussian_pair_sampler(model, num["dt"], scale=num["sample_scale"])
    seg_sampler = gaussian_segment_sampler(model, num["dt"], scale=num["sample_scale"])
    dis = check_dissipativity(model, pair_sampler, num["n_pairs"], rng.child(0))
    failures = []
    payload = {"dissipativity": jsonable(vars(dis))}
    if not dis.passed:
        failures.append(f"dissipativity margin violated: max_g={dis.max_g:g}")
    try:
        ell = check_ellipticity(model, seg_sampler, num["n_samples"], rng.child(1))
        payload["ellipticity"] = jsonable(vars(ell))
        if not ell.passed:
            failures.append("ellipticity bounds violated")
    except SegflowError as exc:
        payload["ellipticity"] = {"error": str(exc)}
        failures.append(f"ellipticity check failed: {exc}")
    return payload, {}, failures


def _run_ergodicity(cfg: ExperimentConfig, model, num):
    stationary = _stationary_sample(cfg, model, num)
    fit = ergodicity_curve(
        model,
        _initial_segment(model, num),
        stationary,
        num["t_grid"],
        cfg.metric,
        num["n_traj"],
        RngStream(derive_seed(cfg.seed, 1)),
    )
    payload = {
        "rate_fit": vars(fit),
        "stationary_atoms": stationary.n,
        "ensemble": num["n_traj"],
    }
    rows = []
    for t, w in zip(fit.times, fit.values):
        fitted = fit.c_hat * math.exp(-fit.beta_hat * t) if not fit.flagged else float("nan")
        rows.append((float(t), float(w), float(np.log(w)), float(fitted)))
    failures = []
    if fit.flagged or not (fit.beta_hat > 0):
        failures.append(f"ergodicity rate not resolved: {fit.note or 'beta_hat <= 0'}")
    return payload, {"ergodicity": rows}, failures


def _run_slln(cfg: ExperimentConfig, model, num):
    stationary = _stationary_sample(cfg, model, num)
    f = CenteredObservable.from_stationary(cfg.build_observable(), stationary)
    xi = _initial_segment(model, num)
    report = slln_variance_decay(
        model, xi, f, num["t_grid"], num["replicas"], RngStream(cfg.seed).child(2)
    )
    payload = {
        "mu_f": f.mu_f,
        "mu_f_se": f.mu_f_se,
        "times": report.times,
        "sq_errors": report.sq_errors,
        "ses": report.ses,
        "exponent": report.exponent,
        "exponent_ci": list(report.exponent_ci),
        "zero_signal": report.zero_signal,
        "passed": report.passed,
    }
    failures = []
    if not report.passed and not report.zero_signal:
        failures.append(f"variance decay exponent {report.exponent:.3f} above the {_SLOPE_GATE} gate")
    rows = []
    if not report.zero_signal and math.isfinite(report.exponent):
        logc = float(np.mean(np.log(report.sq_errors) - report.exponent * np.log(report.times)))
        for t, mse in zip(report.times, report.sq_errors):
            rows.append((float(t), float(mse), float(math.exp(logc) * t**report.exponent)))
    else:
        rows = [(float(t), float(m), float("nan")) for t, m in zip(report.times, report.sq_errors)]
    return payload, {"slln": rows}, failures


def _variance_stage(cfg: ExperimentConfig, model, num, discrete: bool):
    """The opening clt and lil share: stationary sample, centered observable,
    rate fit and the variance constant (continuous corrector for clt, unit-lag
    for lil).  Returns (f, payload, var); var is None when the rate fit is
    flagged, and then the payload holds only the rate fit."""
    stationary = _stationary_sample(cfg, model, num)
    f = CenteredObservable.from_stationary(cfg.build_observable(), stationary)
    rate = _rate_fit(cfg, model, num, stationary)
    payload = {"rate_fit": vars(rate)}
    if rate.flagged:
        return f, payload, None
    knobs = dict(rate_fit=rate, replicas=num["inner_replicas"], tail_fraction=num["tail_fraction"])
    if discrete:
        ccfg = DiscreteCorrectorConfig(k_max=num["k_max"], **knobs)
    else:
        ccfg = CorrectorConfig(t_max=num["t_max"], **knobs)
    var = variance_D(
        model, f, stationary, ccfg, RngStream(cfg.seed).child(3),
        outer_replicas=num["outer_replicas"], max_atoms=num["max_atoms"],
    )
    payload["variance"] = jsonable(vars(var))
    return f, payload, var


def _run_clt(cfg: ExperimentConfig, model, num):
    f, payload, var = _variance_stage(cfg, model, num, discrete=False)
    if var is None:
        return payload, {"clt": []}, [f"rate fit unusable: {payload['rate_fit']['note']}"]
    xi = _initial_segment(model, num)
    report = clt_test(
        model, f, xi, num["t_grid"], num["replicas"], var.d_f,
        RngStream(cfg.seed).child(2), n_boot=num["n_boot"],
    )
    payload.update(
        times=report.times, statistics=report.statistics, ses=report.ses,
        d_f=report.d_f, replicas=report.replicas,
    )
    failures = []
    # written as "not <=" so a NaN statistic or standard error fails the check
    if not report.statistics[-1] <= report.statistics[0] + 2.0 * math.hypot(report.ses[0], report.ses[-1]):
        failures.append("distribution distance failed to decay along the time grid")
    bound0 = report.statistics[0] * report.times[0] ** 0.25
    rows = [
        (float(t), float(s), float(bound0 * t**-0.25))
        for t, s in zip(report.times, report.statistics)
    ]
    return payload, {"clt": rows}, failures


def _default_checkpoints(n_min: int, n_max: int) -> list[int]:
    pts = []
    n = max(n_min, 16)
    while n < n_max:
        pts.append(int(n))
        n *= 2
    pts.append(int(n_max))
    return sorted(set(pts))


def _run_lil(cfg: ExperimentConfig, model, num):
    f, payload, var = _variance_stage(cfg, model, num, discrete=True)
    if var is None:
        return payload, {"lil": []}, [f"rate fit unusable: {payload['rate_fit']['note']}"]
    if not (var.d_sq > 0):
        payload["error"] = f"discrete variance estimate not positive: {var.d_sq:g}"
        return payload, {"lil": []}, ["discrete variance constant is not positive"]
    d_hat = math.sqrt(var.d_sq)
    checkpoints = num["checkpoints"] or _default_checkpoints(num["n_min"], num["n_max"])
    xi = _initial_segment(model, num)
    report = lil_run(
        model, f, xi, num["n_max"], d_hat, checkpoints,
        RngStream(cfg.seed).child(2), n_min=num["n_min"],
    )
    endpoints_again = np.array(
        [rescaled_path_nodes(report.f_cumsum, int(n), d_hat)[int(n)] for n in report.n_grid]
    )
    identity_exact = bool(np.array_equal(endpoints_again, report.endpoint_values))
    payload.update(
        {
            "d_hat": d_hat,
            "n_grid": report.n_grid,
            "normalized_sums": report.normalized_sums,
            "running_max": report.running_max,
            "running_min": report.running_min,
            "sup_norm_of_lambda": report.sup_norm_of_lambda,
            "endpoint_values": report.endpoint_values,
            "endpoint_identity_exact": identity_exact,
        }
    )
    failures = []
    if not identity_exact:
        failures.append("rescaled-path endpoint identity violated")
    rows = [
        (int(n), float(s), float(mx), float(mn), float(d_hat), float(-d_hat))
        for n, s, mx, mn in zip(
            report.n_grid, report.normalized_sums, report.running_max, report.running_min
        )
    ]
    return payload, {"lil": rows}, failures


_RUNNERS = {
    "assumptions": _run_assumptions,
    "ergodicity": _run_ergodicity,
    "slln": _run_slln,
    "clt": _run_clt,
    "lil": _run_lil,
}

_SUITE_PRESETS = {
    "smoke": {
        "assumptions": {"n_pairs": 100, "n_samples": 100},
        "ergodicity": {
            "n_traj": 192, "stat_n_traj": 96, "samples_per_traj": 4,
            "t_grid": [0.5, 1.0, 2.0, 3.0],
        },
        "slln": {"replicas": 100, "t_grid": [2.0, 4.0, 8.0, 16.0, 32.0]},
        "clt": {
            "replicas": 500, "t_grid": [4.0, 16.0], "rate_n_traj": 128,
            "inner_replicas": 16, "outer_replicas": 8, "max_atoms": 48,
            "stat_n_traj": 48, "t_max": 4.0, "n_boot": 50,
        },
        "lil": {
            "n_max": 2048, "inner_replicas": 16, "outer_replicas": 8,
            "max_atoms": 32, "stat_n_traj": 48, "rate_n_traj": 128, "k_max": 6,
        },
    },
    "desk": {
        "assumptions": {},
        "ergodicity": {"n_traj": 4096, "stat_n_traj": 512},
        "slln": {"replicas": 1000},
        "clt": {"replicas": 2000, "t_grid": [16.0, 64.0, 256.0], "max_atoms": 256},
        "lil": {"n_max": 100000, "max_atoms": 256},
    },
}


_SUITE_KINDS = ("assumptions", "ergodicity", "slln", "clt", "lil")
# longest first, so the slowest sub-run (lil) bounds the pool's makespan
_SUBMIT_ORDER = ("lil", "clt", "slln", "ergodicity", "assumptions")


def _run_sub(task):
    """One full-suite sub-run; module level so that a worker can unpickle it."""
    kind, sub_cfg = task
    sub_model = sub_cfg.build_model()
    return _RUNNERS[kind](sub_cfg, sub_model, sub_cfg.resolved_numerics(sub_model))


def _run_sub_runs(tasks: dict, threads: int) -> list:
    """``_run_sub`` of each ``(kind, config)`` item of ``tasks``, in its order.

    With ``threads`` > 1 and the ``fork`` start method available, the tasks
    run in up to ``threads`` forked workers (spawn would re-import numpy in
    every child).  Either way the first task, in task order, that raised
    re-raises its own exception here."""
    workers = min(threads, len(tasks))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [_run_sub(task) for task in tasks.items()]
    # the clt task's normal CDF imports scipy.special on first use; imported
    # once here, every forked worker inherits it instead of importing it again
    import scipy.special  # noqa: F401

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = {kind: pool.submit(_run_sub, (kind, tasks[kind])) for kind in _SUBMIT_ORDER}
        try:
            return [futures[kind].result() for kind in tasks]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _run_full_suite(cfg: ExperimentConfig, model, num, threads: int):
    preset = _SUITE_PRESETS[num["scale"]]
    tasks = {}
    for i, kind in enumerate(_SUITE_KINDS):
        sub_raw = {
            "kind": kind,
            "seed": derive_seed(cfg.seed, 100 + i),
            "model": {"name": cfg.model_name, "params": cfg.model_params},
            "observable": {"name": cfg.observable_name, "params": cfg.observable_params},
            "metric": {"p": cfg.metric.p, "gamma": cfg.metric.gamma},
            "numerics": {"dt": num["dt"], **preset[kind]},
        }
        tasks[kind] = parse_config_dict(sub_raw)
    results = _run_sub_runs(tasks, threads)

    payload = {}
    series = {}
    failures = []
    for (kind, sub_cfg), (sub_payload, sub_series, sub_failures) in zip(tasks.items(), results):
        payload[kind] = {
            "config": sub_cfg.echo(sub_cfg.build_model()),
            "payload": sub_payload,
            "digest": payload_digest(sub_payload),
        }
        for name, rows in sub_series.items():
            series[f"{kind}/{name}"] = rows
        failures.extend(f"{kind}: {msg}" for msg in sub_failures)
    return payload, series, failures


def run_experiment(cfg: ExperimentConfig, threads: int = 1, out_dir=None) -> ReportRecord:
    """Execute the configured experiment and return its report record.

    When ``out_dir`` is given, the report JSON and every per-series CSV are
    written there as well.
    """
    model = cfg.build_model()
    num = cfg.resolved_numerics(model)
    t0 = time.perf_counter()
    if cfg.kind == "full-suite":
        payload, series, failures = _run_full_suite(cfg, model, num, threads)
    else:
        payload, series, failures = _RUNNERS[cfg.kind](cfg, model, num)
    wall = time.perf_counter() - t0
    chash = cfg.config_hash(model)
    record = ReportRecord(
        kind=cfg.kind,
        config_echo=cfg.echo(model),
        config_hash=chash,
        input_digest=input_digest(chash, __version__),
        payload=payload,
        seed=cfg.seed,
        wall_clock=wall,
        series=series,
        failures=failures,
    )
    if out_dir is not None:
        write_report(record, out_dir)
    return record


def _threads_from(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("SEGFLOW_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"SEGFLOW_THREADS is not an integer: {env!r}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="segflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="output directory (default: from config or '.')")
    run_p.add_argument("--threads", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")

    sub.add_parser("list", help="list built-in models and observables")

    val_p = sub.add_parser("validate", help="parse a config and echo its effective values")
    val_p.add_argument("config")

    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            listing = registry_list()
            print("models:")
            for name in listing.models:
                print(f"  {name}")
            print("observables:")
            for name in listing.observables:
                print(f"  {name}")
            return EXIT_OK

        cfg = parse_config(args.config)
        if args.command == "validate":
            model = cfg.build_model()
            print(json.dumps(cfg.echo(model), indent=2, sort_keys=True))
            return EXIT_OK

        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        threads = _threads_from(args)
        out_dir = args.out or cfg.output_dir or "."
        record = run_experiment(cfg, threads=threads, out_dir=out_dir)
        path = Path(out_dir) / "report.json"
        print(f"report: {path}")
        print(f"payload digest: {record.digest}")
        for msg in record.failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return EXIT_STATISTICAL if record.failures else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericBlowupError as exc:
        print(f"numeric blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
