"""End-to-end CLI tests: parsing, dispatch, files, exit codes, determinism."""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import segflow
from segflow import cli
from segflow.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_STATISTICAL,
    main,
    run_experiment,
)
from segflow.config import _SCHEMAS, EXPERIMENT_KINDS, parse_config_dict
from segflow.errors import ConfigError, EllipticityViolationError, NumericBlowupError
from segflow.limits import CltReport
from segflow.metric import MetricParams, rho_matrix
from segflow.registry import registry_list


def write_cfg(tmp_path: Path, data: dict, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def fast_assumptions(seed=11):
    return {
        "kind": "assumptions",
        "seed": seed,
        "model": {"name": "linear_delay_ou"},
        "numerics": {"n_pairs": 50, "n_samples": 50},
    }


def fast_slln(seed=12):
    return {
        "kind": "slln",
        "seed": seed,
        "model": {"name": "linear_delay_ou"},
        "numerics": {
            "replicas": 100,
            "t_grid": [2.0, 4.0, 8.0, 16.0, 32.0],
            "stat_n_traj": 16,
            "samples_per_traj": 4,
        },
    }


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        listing = registry_list()
        assert lines == [
            "models:", *(f"  {name}" for name in listing.models),
            "observables:", *(f"  {name}" for name in listing.observables),
        ]
        assert "linear_delay_ou" in listing.models
        assert not any("kernels" in line for line in lines)

    def test_validate_echoes_full_config(self, tmp_path, capsys):
        path = write_cfg(tmp_path, fast_assumptions())
        assert main(["validate", path]) == EXIT_OK
        echo = json.loads(capsys.readouterr().out)
        assert echo["numerics"]["n_pairs"] == 50
        assert "dt" in echo["numerics"]

    def test_validate_bad_config(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {**fast_assumptions(), "numerics": {"n_pairz": 5}})
        assert main(["validate", path]) == EXIT_CONFIG
        assert "n_pairz" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    def test_run_assumptions_writes_report(self, tmp_path, capsys):
        path = write_cfg(tmp_path, fast_assumptions())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["payload"]["dissipativity"]["passed"] is True
        assert report["payload"]["ellipticity"]["passed"] is True
        assert report["kind"] == "assumptions"

    def test_run_slln_deterministic_digest(self, tmp_path):
        cfg = parse_config_dict(fast_slln())
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.digest == r2.digest

    def test_seed_override_changes_digest(self, tmp_path):
        path = write_cfg(tmp_path, fast_slln())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out1)]) == EXIT_OK
        assert main(["run", path, "--out", str(out2), "--seed", "999"]) == EXIT_OK
        d1 = json.loads((out1 / "report.json").read_text())["payload_digest"]
        d2 = json.loads((out2 / "report.json").read_text())["payload_digest"]
        assert d1 != d2

    def test_slln_emits_csv(self, tmp_path):
        path = write_cfg(tmp_path, fast_slln())
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        lines = (out / "slln.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "t,mse,envelope"
        assert len(lines) == 6


class TestFailurePaths:
    def test_lil_with_zero_signal_observable_exits_statistical(self, tmp_path, capsys):
        # the zero observable has no variance: the discrete variance constant
        # comes out non-positive and the run must fail in a structured way
        cfg = {
            "kind": "lil",
            "seed": 13,
            "model": {"name": "linear_delay_ou"},
            "observable": {"name": "zero"},
            "numerics": {
                "n_max": 256,
                "stat_n_traj": 8,
                "samples_per_traj": 2,
                "rate_n_traj": 32,
                "rate_t_grid": [0.5, 1.0, 1.5, 2.0],
                "inner_replicas": 8,
                "outer_replicas": 4,
                "max_atoms": 8,
            },
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        code = main(["run", path, "--out", str(out)])
        assert code == EXIT_STATISTICAL
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["failures"]
        # structured failure record still contains the variance payload
        assert "variance" in report["payload"] or "error" in report["payload"]

    def test_clt_nan_statistic_fails_closed(self, tmp_path, monkeypatch):
        # a NaN compares False against any bound, so the decay check must be
        # phrased to fail on it rather than let it pass
        def nan_clt_test(model, f, xi, times, replicas, d_f, rng, n_boot=200):
            times = np.asarray(times, dtype=float)
            stats = np.array([0.05, np.nan])
            return CltReport(times, stats, np.full(2, 0.01), d_f, replicas, degenerate=False)

        monkeypatch.setattr(cli, "clt_test", nan_clt_test)
        cfg = {
            "kind": "clt",
            "seed": 15,
            "model": {"name": "linear_delay_ou"},
            "numerics": {
                "stat_n_traj": 8,
                "samples_per_traj": 2,
                "rate_n_traj": 32,
                "rate_t_grid": [0.5, 1.0, 1.5, 2.0],
                "inner_replicas": 8,
                "outer_replicas": 4,
                "max_atoms": 8,
                "t_max": 2.0,
            },
        }
        record = run_experiment(parse_config_dict(cfg), threads=1, out_dir=str(tmp_path / "o"))
        assert record.failures == ["distribution distance failed to decay along the time grid"]

    def test_degenerate_noise_fails_assumptions(self, tmp_path):
        # the decay model declares no inverse diffusion bound: the ellipticity
        # check fails fast and the run exits with the statistical-failure code
        cfg = {
            "kind": "assumptions",
            "seed": 14,
            "model": {"name": "deterministic_decay"},
            "numerics": {"n_pairs": 20, "n_samples": 20},
        }
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", path, "--out", str(out)]) == EXIT_STATISTICAL
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["payload"]["dissipativity"]["passed"] is True
        assert "error" in report["payload"]["ellipticity"]


class TestThreadsEnv:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEGFLOW_THREADS", "3")
        path = write_cfg(tmp_path, fast_assumptions())
        assert main(["run", path, "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_env_invalid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEGFLOW_THREADS", "many")
        path = write_cfg(tmp_path, fast_assumptions())
        assert main(["run", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestRegistryConstruction:
    def test_ok_constants(self):
        cfg = parse_config_dict(
            {"kind": "assumptions", "seed": 1,
             "model": {"name": "linear_delay_ou", "params": {"a": 2.0, "b": 0.1, "r0": 0.5}}}
        )
        model = cfg.build_model()
        assert model.lambda1 == pytest.approx(3.9)

    def test_side_condition_violation_is_config_error(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            {"kind": "assumptions", "seed": 1,
             "model": {"name": "linear_delay_ou", "params": {"a": 0.2, "b": 0.5}}},
        )
        assert main(["validate", path]) == EXIT_CONFIG


SUITE_ORDER = ["assumptions", "ergodicity", "slln", "clt", "lil"]


def smoke_suite(seed=20240817):
    return {
        "kind": "full-suite",
        "seed": seed,
        "model": {"name": "linear_delay_ou"},
        "numerics": {"scale": "smoke"},
    }


@pytest.mark.parametrize("scale", sorted(cli._SUITE_PRESETS))
@pytest.mark.parametrize("model_name", registry_list().models)
def test_every_suite_preset_parses(monkeypatch, scale, model_name):
    # each sub-run config the suite builds from a preset parses and resolves
    # its numerics on every registry model; the sub-runs themselves are not run
    built = {}

    def capture(tasks, threads):
        built.update(tasks)
        return [({}, {}, [])] * len(tasks)

    monkeypatch.setattr(cli, "_run_sub_runs", capture)
    cfg = parse_config_dict({"kind": "full-suite", "seed": 1, "model": {"name": model_name},
                             "numerics": {"scale": scale}})
    model = cfg.build_model()
    cli._run_full_suite(cfg, model, cfg.resolved_numerics(model), threads=1)
    assert list(built) == SUITE_ORDER
    for kind, sub_cfg in built.items():
        assert sub_cfg.kind == kind
        sub_cfg.resolved_numerics(sub_cfg.build_model())


@pytest.fixture(scope="module")
def serial_suite():
    return run_experiment(parse_config_dict(smoke_suite()), threads=1)


class TestProcessPool:
    @pytest.mark.parametrize("threads", [2, 5])
    def test_digest_independent_of_workers(self, serial_suite, threads):
        record = run_experiment(parse_config_dict(smoke_suite()), threads=threads)
        assert record.digest == serial_suite.digest
        assert record.series == serial_suite.series
        assert record.failures == serial_suite.failures == []

    def test_serial_without_fork(self, serial_suite, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started although fork is unavailable")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        record = run_experiment(parse_config_dict(smoke_suite()), threads=2)
        assert record.digest == serial_suite.digest

    def test_longest_submitted_first_folded_in_task_order(self, serial_suite, monkeypatch):
        submitted = []

        class SpyPool(cli.ProcessPoolExecutor):
            def submit(self, fn, task):
                submitted.append(task[0])
                return super().submit(fn, task)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SpyPool)
        record = run_experiment(parse_config_dict(smoke_suite()), threads=2)
        assert submitted == ["lil", "clt", "slln", "ergodicity", "assumptions"]
        assert list(record.payload) == SUITE_ORDER
        assert list(record.payload) == list(serial_suite.payload)
        assert record.digest == serial_suite.digest


class TestErrorsAcrossProcesses:
    def test_errors_pickle_whole(self):
        blowup = pickle.loads(pickle.dumps(NumericBlowupError("state became non-finite", 3.25)))
        assert type(blowup) is NumericBlowupError
        assert str(blowup) == "state became non-finite (at t=3.25)"
        assert blowup.time == 3.25
        singular = pickle.loads(
            pickle.dumps(EllipticityViolationError("sigma singular", 7, segment=np.arange(3.0)))
        )
        assert type(singular) is EllipticityViolationError
        assert str(singular) == "sigma singular"
        assert singular.sample_index == 7
        assert np.array_equal(singular.segment, np.arange(3.0))
        config = pickle.loads(pickle.dumps(ConfigError("bad dt", key="numerics.dt")))
        assert (type(config), str(config), config.key) == (ConfigError, "bad dt", "numerics.dt")

    @pytest.fixture
    def lil_blows_up(self, monkeypatch):
        # fork carries these patches into the workers
        def blowup(cfg, model, num):
            raise NumericBlowupError("state became non-finite", 3.25)

        for kind in SUITE_ORDER:
            monkeypatch.setitem(cli._RUNNERS, kind, lambda cfg, model, num: ({}, {}, []))
        monkeypatch.setitem(cli._RUNNERS, "lil", blowup)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sub_run_blowup_surfaces_as_itself(self, lil_blows_up, threads):
        with pytest.raises(NumericBlowupError) as err:
            run_experiment(parse_config_dict(smoke_suite()), threads=threads)
        assert type(err.value) is NumericBlowupError
        assert str(err.value) == "state became non-finite (at t=3.25)"
        assert err.value.time == 3.25

    def test_sub_run_blowup_exits_3(self, lil_blows_up, tmp_path, capsys):
        path = write_cfg(tmp_path, smoke_suite())
        assert main(["run", path, "--threads", "2", "--out", str(tmp_path / "o")]) == EXIT_BLOWUP
        assert "numeric blowup: state became non-finite (at t=3.25)" in capsys.readouterr().err


# Numerics keys a kind accepts that no run reads, kept on purpose: a
# benchmark workload config sets each, and the strict config would reject it.
UNREAD_KEYS = {
    "clt.k_max": "set by the clt-corrector workload",
    "lil.t_max": "set by the lil-narrow workload",
    "ergodicity.mode": "set by the ergodicity-transport workload",
    "ergodicity.coupling": "set by the ergodicity-transport workload",
    "ergodicity.floor_factor": "set by the ergodicity-transport workload",
    "ergodicity.assignment_cap": "set by the ergodicity-transport workload",
    "ergodicity.block": "set by the ergodicity-transport workload",
    "full-suite.initial_value": "set by the suite-tanh-2t workload",
}

# Small configs that still run every stage of their kind.
TINY_NUMERICS = {
    "assumptions": {"n_pairs": 8, "n_samples": 8},
    "ergodicity": {"n_traj": 32, "stat_n_traj": 8},
    "slln": {"replicas": 100, "t_grid": [0.5, 1.0, 2.0, 5.0], "stat_n_traj": 8},
    "clt": {
        "replicas": 500, "t_grid": [2.0, 4.0], "stat_n_traj": 16, "rate_n_traj": 64,
        "inner_replicas": 4, "outer_replicas": 2, "max_atoms": 8, "t_max": 1.0, "n_boot": 20,
    },
    "lil": {
        "n_max": 64, "stat_n_traj": 16, "rate_n_traj": 64,
        "inner_replicas": 4, "outer_replicas": 2, "max_atoms": 8, "k_max": 3,
    },
    "full-suite": {},
}


class _ReadLog(dict):
    """Numerics that log each key a run reads."""

    def __init__(self, num, log):
        super().__init__(num)
        self.log = log

    def __getitem__(self, key):
        self.log.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.add(key)
        return super().get(key, default)


def test_every_numerics_key_is_read(monkeypatch):
    # a key that no run reads is an input in name only, yet it is echoed and
    # hashed: it goes, or UNREAD_KEYS says why it stays
    read = set()

    def logged(kind, run):
        def wrapped(cfg, model, num, *rest):
            log = set()
            try:
                return run(cfg, model, _ReadLog(num, log), *rest)
            finally:
                read.update(f"{kind}.{key}" for key in log)

        return wrapped

    for kind, run in list(cli._RUNNERS.items()):
        monkeypatch.setitem(cli._RUNNERS, kind, logged(kind, run))
    monkeypatch.setattr(cli, "_run_full_suite", logged("full-suite", cli._run_full_suite))
    # the suite's own reads: each sub-run's kind is read by its own run here
    monkeypatch.setattr(cli, "_run_sub_runs", lambda tasks, threads: [({}, {}, [])] * len(tasks))
    for kind in EXPERIMENT_KINDS:
        run_experiment(parse_config_dict({
            "kind": kind, "seed": 7, "model": {"name": "linear_delay_ou"}, "numerics": TINY_NUMERICS[kind],
        }))
    unread = {f"{kind}.{key}" for kind in EXPERIMENT_KINDS for key in _SCHEMAS[kind]} - read
    assert unread - set(UNREAD_KEYS) == set()
    assert set(UNREAD_KEYS) <= unread  # a kept key that gains a reader leaves UNREAD_KEYS


# Run in a fresh interpreter: this process has scipy loaded already.  It
# prints the scipy modules loaded after importing segflow, after each tiny
# run, after a 2-thread smoke full-suite, and around the metric functions.
# The runs go under an import hook that fails any scipy import, which the
# forked pool workers inherit, so a worker that imported scipy would fail
# the suite.
_SCIPY_PROBE = """
import json, sys
import numpy as np
import segflow
from segflow.cli import run_experiment
from segflow.config import parse_config_dict
from segflow.errors import ShapeError
from segflow.metric import EmpiricalMeasure, MetricParams, rho_matrix, wasserstein

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("a run imported " + name)
        return None

tiny, a, b = json.loads(sys.argv[1])
out = {"import": loaded()}
sys.meta_path.insert(0, NoScipy())
for kind in ("lil", "ergodicity", "slln", "assumptions", "clt"):
    cfg = {"kind": kind, "seed": 7, "model": {"name": "linear_delay_ou"}, "numerics": tiny[kind]}
    run_experiment(parse_config_dict(cfg))
    out[kind] = loaded()
cfg = {"kind": "full-suite", "seed": 7, "model": {"name": "linear_delay_ou"}, "numerics": {"scale": "smoke"}}
run_experiment(parse_config_dict(cfg), threads=2)
out["full-suite"] = loaded()
del sys.meta_path[0]
a, b, mp = np.array(a), np.array(b), MetricParams()
try:
    wasserstein(EmpiricalMeasure(a, 0.5, 0.0625), EmpiricalMeasure(b[:-1], 0.5, 0.0625), mp)
except ShapeError:
    out["bad_call"] = loaded()
out["rho"] = rho_matrix(a, b, mp).tolist()
out["rho_matrix"] = loaded()
out["wasserstein"] = wasserstein(EmpiricalMeasure(a, 0.5, 0.0625), EmpiricalMeasure(b, 0.5, 0.0625), mp)
out["wasserstein_loaded"] = loaded()
print(json.dumps(out))
"""


def test_scipy_loaded_only_where_called():
    # no run kind loads scipy, a 2-thread full-suite included; only
    # wasserstein does, after its checks
    a = (np.arange(45).reshape(5, 9, 1) % 7 - 3) / 8.0
    b = (np.arange(45).reshape(5, 9, 1) % 5 - 2) / 4.0
    src = str(Path(segflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps([TINY_NUMERICS, a.tolist(), b.tolist()])],
        capture_output=True, text=True, timeout=300, env=env, check=True,
    )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    for stage in ("import", "lil", "ergodicity", "slln", "assumptions", "clt", "full-suite"):
        assert out[stage] == [], stage
    # a malformed transport call fails before it imports the solver
    assert out["bad_call"] == []
    # the distance kernel is numpy alone, for d = 1 too
    assert out["rho_matrix"] == []
    assert "scipy.optimize" in out["wasserstein_loaded"]
    # the lazily imported solvers give the values they gave as module imports
    assert np.array_equal(np.array(out["rho"]), rho_matrix(a, b, MetricParams()))
    assert out["wasserstein"] == float.fromhex("0x1.978c48bd1d032p-1")
