"""Config parsing, report records, and CSV schema tests."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import collect_profile
from segflow import ConfigError
from segflow.cli import EXIT_CONFIG, main
from segflow.config import EXPERIMENT_KINDS, parse_config, parse_config_dict
from segflow.ergodic import ergodicity_curve, sample_invariant
from segflow.limits import CenteredObservable, _unit_run, slln_variance_decay
from segflow.metric import MetricParams
from segflow.registry import build_model, build_observable
from segflow.rng import RngStream
from segflow.segments import constant_segment, grid_steps, simulate
from segflow.semigroup import MonteCarloSemigroup
from segflow.reports import (
    CSV_SCHEMAS,
    ReportRecord,
    emit_plot_data,
    jsonable,
    payload_digest,
    write_report,
)


def write_cfg(tmp_path: Path, data: dict) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def minimal(kind="slln", **extra):
    cfg = {"kind": kind, "seed": 7, "model": {"name": "linear_delay_ou"}}
    cfg.update(extra)
    return cfg


class TestParseConfig:
    def test_minimal_defaults_echoed(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, minimal()))
        echo = cfg.echo(cfg.build_model())
        assert echo["kind"] == "slln"
        assert echo["observable"]["name"] == "eval0"
        assert echo["metric"] == {"p": 2.0, "gamma": 1.0}
        num = echo["numerics"]
        # every knob of the kind appears with its effective value
        assert num["dt"] == 1.0 / 128.0
        assert num["replicas"] == 200
        assert num["burn_in"] == pytest.approx(10.0 / 3.9)

    def test_echo_roundtrip_reproduces_hash(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, minimal()))
        model = cfg.build_model()
        echoed = cfg.echo(model)
        cfg2 = parse_config_dict(echoed)
        assert cfg2.config_hash(model) == cfg.config_hash(model)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(EXPERIMENT_KINDS),
        seed=st.integers(0, 2**64 - 1),
        model=st.sampled_from(["linear_delay_ou", "tanh_diffusion"]),
        a=st.floats(2.0, 4.0),  # the side condition holds for a >= 2 at r0 <= 0.5
        r0=st.sampled_from([0.25, 0.5]),
        observable=st.sampled_from(["eval0", "sin_eval0"]),
        p=st.floats(1.0, 4.0),
        gamma=st.floats(0.05, 1.0),
        dt=st.sampled_from([1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0]),
        inner=st.integers(4, 256),
    )
    def test_echo_roundtrip_property(self, kind, seed, model, a, r0, observable, p, gamma, dt, inner):
        numerics = {"dt": dt}
        if kind in ("clt", "lil"):
            numerics["inner_replicas"] = inner
        cfg = parse_config_dict({
            "kind": kind, "seed": seed,
            "model": {"name": model, "params": {"a": a, "r0": r0}},
            "observable": {"name": observable},
            "metric": {"p": p, "gamma": gamma},
            "numerics": numerics,
        })
        built = cfg.build_model()
        again = parse_config_dict(cfg.echo(built))
        assert again.echo(built) == cfg.echo(built)
        assert again.config_hash(built) == cfg.config_hash(built)

    def test_inner_replicas_below_four_rejected(self):
        # fewer than two replicas per corrector half leave every SE undefined
        with pytest.raises(ConfigError, match="inner_replicas"):
            parse_config_dict(minimal("clt", numerics={"inner_replicas": 3}))

    def test_metric_p_range_error_names_key(self, tmp_path):
        path = write_cfg(tmp_path, minimal(metric={"p": 0.5}))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.key == "metric.p"
        # non-finite exponents fail closed in the config and in MetricParams
        for p in (math.nan, math.inf):
            with pytest.raises(ConfigError) as err:
                parse_config(write_cfg(tmp_path, minimal(metric={"p": p})))
            assert err.value.key == "metric.p"
            with pytest.raises(ValueError):
                MetricParams(p)

    def test_unknown_numerics_key_named(self, tmp_path):
        path = write_cfg(tmp_path, minimal(numerics={"replcias": 100}))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.key == "numerics.replcias"

    def test_unknown_top_level_key(self, tmp_path):
        path = write_cfg(tmp_path, {**minimal(), "extra": 1})
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.key == "extra"

    def test_missing_required(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, {"kind": "slln", "seed": 1}))

    def test_bad_model_params_rejected_eagerly(self, tmp_path):
        path = write_cfg(
            tmp_path, minimal(model={"name": "linear_delay_ou", "params": {"a": 0.2, "b": 0.5}})
        )
        with pytest.raises(ConfigError):
            parse_config(path)
        # a dimension must be a positive integer, not a float or a bool
        for dim in (2.5, True):
            with pytest.raises(ConfigError) as err:
                parse_config_dict(minimal(model={"name": "linear_delay_ou", "params": {"dim": dim}}))
            assert err.value.key == "model.params"
        # exp(lambda1 * delay) = exp(1600) overflows a float: without delayed
        # feedback the model is valid, with any feedback the margin is -inf
        parse_config_dict(minimal(model={"name": "linear_delay_ou", "params": {"a": 400, "b": 0, "r0": 2}}))
        with pytest.raises(ConfigError):
            parse_config_dict(minimal(model={"name": "linear_delay_ou", "params": {"a": 400, "b": 0.1, "r0": 2}}))

    @pytest.mark.parametrize(
        "observable",
        [
            {"name": "eval0", "params": {"coord": "x"}},
            {"name": "eval0", "params": {"coord": -1}},
            {"name": "sin_eval0", "params": {"coord": -1}},
            {"name": "eval0", "params": {"coord": 3}},  # the model has dim 1
            {"name": "sup_norm_pow", "params": {"q": math.nan}},
            {"name": "linear_combo", "params": {"terms": [{"coef": "x", "name": "eval0"}]}},
            {"name": "linear_combo", "params": {"terms": [{"coef": 1.0}]}},
            {"name": "linear_combo", "params": {"terms": ["eval0"]}},  # a term is an object
            {"name": "linear_combo", "params": {"terms": [{"coef": "nan", "name": "eval0"}]}},
            {"name": "eval0", "params": {"coord": 0.7}},  # would read coordinate 0
            {"name": "sin_eval0", "params": {"coord": 0.7}},
        ],
    )
    def test_bad_observable_params_rejected_eagerly(self, tmp_path, observable):
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, minimal(observable=observable)))
        assert err.value.key == "observable.params"

    def test_out_of_range_numerics(self, tmp_path):
        path = write_cfg(tmp_path, minimal(numerics={"replicas": 3}))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.key == "numerics.replicas"
        # the rate estimator has one coupling: these keys take one value each
        for key, value in (("coupling", "independent"), ("mode", "evolved"), ("floor_factor", 3.0)):
            with pytest.raises(ConfigError) as err:
                parse_config_dict(minimal(kind="ergodicity", numerics={key: value}))
            assert err.value.key == f"numerics.{key}"
        pinned = {"mode": "stationary", "coupling": "synchronous", "floor_factor": 2.0}
        num = parse_config_dict(minimal(kind="ergodicity", numerics=pinned)).numerics
        assert {k: num[k] for k in pinned} == pinned

    def test_keys_no_run_reads_are_unknown(self, tmp_path, capsys):
        # no run reads these, so they are rejected by name like any other
        # unknown key
        for kind, key, value in (
            ("slln", "eps", 0.25),
            ("slln", "pathwise_horizon", 8.0),
            ("slln", "pathwise_replicas", 64),
            ("assumptions", "initial_value", 1.0),
        ):
            path = write_cfg(tmp_path, minimal(kind=kind, numerics={key: value}))
            with pytest.raises(ConfigError) as err:
                parse_config(path)
            assert err.value.key == f"numerics.{key}"
            assert main(["validate", str(path)]) == EXIT_CONFIG
            assert f"numerics.{key}: unknown key" in capsys.readouterr().err

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_checkpoint_grid_validated(self, tmp_path):
        path = write_cfg(tmp_path, minimal(kind="lil", numerics={"checkpoints": [64, 32]}))
        with pytest.raises(ConfigError):
            parse_config(path)
        # cross-field: n_min <= n_max and checkpoints within [n_min, n_max]
        for numerics, key in (
            ({"n_max": 64, "checkpoints": [16, 128]}, "numerics.checkpoints"),
            ({"n_min": 32, "checkpoints": [16, 64]}, "numerics.checkpoints"),
            ({"n_min": 128, "n_max": 64}, "numerics.n_min"),
        ):
            with pytest.raises(ConfigError) as err:
                parse_config_dict(minimal(kind="lil", numerics=numerics))
            assert err.value.key == key

    def test_dt_grid_validated_against_model(self):
        # dt must divide the model delay and, for unit-step kinds, the unit time
        delay_06 = {"model": {"name": "linear_delay_ou", "params": {"r0": 0.6}}}
        for kind, extra, numerics, key in (
            ("slln", {}, {"dt": 0.3}, "numerics.dt"),
            ("ergodicity", {}, {"dt": 0.3}, "numerics.dt"),
            ("lil", delay_06, {"dt": 0.3}, "numerics.dt"),
            ("clt", delay_06, {"dt": 0.3}, "numerics.dt"),
            ("full-suite", delay_06, {"dt": 0.3}, "numerics.dt"),
            ("slln", {}, {"thinning": 1.001}, "numerics.thinning"),
            ("ergodicity", {}, {"t_grid": [0.5, 1.0, 1.503]}, "numerics.t_grid"),
            # the rate fit needs 3 points: a 2-entry grid could only fail
            ("ergodicity", {}, {"t_grid": [0.5, 1.0]}, "numerics.t_grid"),
            ("clt", {}, {"rate_t_grid": [0.5, 1.0, 1.001]}, "numerics.rate_t_grid"),
            ("lil", {}, {"rate_t_grid": [0.001, 1.0, 2.0]}, "numerics.rate_t_grid"),
            ("clt", {}, {"t_max": 4.001}, "numerics.t_max"),
            ("slln", {}, {"t_grid": [0.5, 1.0, 2.0, 5.003]}, "numerics.t_grid"),
            ("slln", {}, {"t_grid": [0.001, 0.5, 1.0, 2.0]}, "numerics.t_grid"),
            ("clt", {}, {"t_grid": [16.003, 64.0]}, "numerics.t_grid"),
            # increasing times, two of which fall on the same step
            ("ergodicity", {}, {"t_grid": [0.5, 1.0, 1.0000001, 1.5]}, "numerics.t_grid"),
            ("lil", {}, {"rate_t_grid": [0.5, 1.0, 1.0000001, 1.5]}, "numerics.rate_t_grid"),
            # a non-finite time is named by its index
            ("ergodicity", {}, {"t_grid": [0.5, 1.0, math.inf]}, "numerics.t_grid[2]"),
            ("slln", {}, {"t_grid": [4.0, 8.0, math.nan, 32.0]}, "numerics.t_grid[2]"),
        ):
            with pytest.raises(ConfigError) as err:
                parse_config_dict(minimal(kind=kind, numerics=numerics, **extra))
            assert err.value.key == key
        # kinds that never step to these values accept them
        parse_config_dict(minimal(
            kind="slln", numerics={"dt": 0.3, "thinning": 0.6, "t_grid": [0.6, 1.2, 2.4, 6.0]}, **delay_06
        ))
        parse_config_dict(minimal(kind="lil", numerics={"t_max": 4.001}))
        # the time-grid rule itself fails closed on a non-finite time
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="whole number of steps"):
                grid_steps(t, 1.0 / 128.0, "horizon")

    def test_one_unit_step_rule(self):
        # dt a hair off 1/128 (the delay is exactly 64 steps): inside the unit
        # time's 1e-6 slack the config, _unit_run and unit_states all accept it,
        # outside it they all reject it
        f = build_observable("eval0")
        for eps, accepted in ((1e-7, True), (1e-5, False)):
            dt = (1.0 + eps) / 128.0
            model_block = {"name": "linear_delay_ou", "params": {"r0": 64 * dt}}
            model = build_model("linear_delay_ou", {"r0": 64 * dt})
            outcomes = []
            for kind in ("clt", "lil"):
                try:
                    parse_config_dict(minimal(kind=kind, model=model_block, numerics={"dt": dt}))
                    outcomes.append(True)
                except ConfigError as err:
                    assert err.key == "numerics.dt"
                    outcomes.append(False)
            for run in (
                lambda: _unit_run(model, f, np.zeros((2, 65, 1)), dt, RngStream(0)),
                lambda: MonteCarloSemigroup(model, dt).unit_states(np.zeros((2, 65, 1)), 1, RngStream(0)),
            ):
                try:
                    run()
                    outcomes.append(True)
                except ValueError:
                    outcomes.append(False)
            assert outcomes == [accepted] * 4

    def test_one_time_grid_rule(self):
        # a time a hair off 256 steps: inside the 1e-6 relative slack every
        # pipeline and the config accept it, outside it they all reject it
        dt = 1.0 / 128.0
        model = build_model("linear_delay_ou", {})
        xi = constant_segment(0.0, model.delay, dt)
        f = CenteredObservable(build_observable("eval0"), 0.0, 0.0, 1)
        reference = sample_invariant(model, xi, 4, 0.0, 1.0, RngStream(3), samples_per_traj=2)
        for eps, accepted in ((1e-7, True), (1e-5, False)):
            t = (1.0 + eps) * 256 * dt
            runs = (
                lambda: simulate(model, xi, t, RngStream(0)),
                lambda: ergodicity_curve(model, xi, reference, [0.5, 1.0, t], MetricParams(), 4, RngStream(3)),
                lambda: collect_profile(*MonteCarloSemigroup(model, dt).profile_groups(
                    f, xi.values[None], t, 2, RngStream(1), quad_step=dt
                )),
                lambda: slln_variance_decay(model, xi, f, [0.125, t], 2, RngStream(2)),
            )
            outcomes = []
            for run in runs:
                try:
                    run()
                    outcomes.append(True)
                except ValueError:
                    outcomes.append(False)
            try:
                parse_config_dict(minimal(numerics={"t_grid": [0.125, 0.25, 0.5, t]}))
                outcomes.append(True)
            except ConfigError as err:
                assert err.key == "numerics.t_grid"
                outcomes.append(False)
            assert outcomes == [accepted] * 5


class TestReportRecord:
    def make_record(self, payload, series=None):
        return ReportRecord(
            kind="ergodicity",
            config_echo={"kind": "ergodicity"},
            config_hash="abc123",
            input_digest="def456",
            payload=payload,
            seed=1,
            wall_clock=0.5,
            series=series or {},
        )

    def test_digest_ignores_wall_clock(self):
        r1 = self.make_record({"x": [1.0, 2.0]})
        r2 = self.make_record({"x": [1.0, 2.0]})
        r2.wall_clock = 99.0
        assert r1.digest == r2.digest

    def test_digest_sensitive_to_payload(self):
        assert self.make_record({"x": 1.0}).digest != self.make_record({"x": 1.0000001}).digest

    def test_numpy_payloads_serialize(self):
        r = self.make_record({"arr": np.arange(3.0), "val": np.float64(1.5), "n": np.int64(2)})
        blob = json.dumps(r.to_json())
        assert "1.5" in blob

    def test_nonfinite_floats_tokenized(self):
        digest = payload_digest({"v": float("nan")})
        assert isinstance(digest, str) and len(digest) == 64

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nonfinite_numpy_scalars_tokenized(self, value, dtype):
        # a numpy scalar takes the same token as the Python float it holds
        scalar = dtype(value)
        assert jsonable(scalar) == jsonable(value) == repr(value)
        assert payload_digest({"v": scalar}) == payload_digest({"v": value})
        blob = json.dumps(self.make_record({"v": scalar, "arr": np.array([scalar])}).to_json(), allow_nan=False)
        assert json.loads(blob)["payload"] == {"v": repr(value), "arr": [repr(value)]}


class TestCsvEmission:
    def test_schema_columns_fixed(self):
        assert CSV_SCHEMAS["ergodicity"] == ("t", "wasserstein", "log_wasserstein", "fit")
        assert CSV_SCHEMAS["slln"] == ("t", "mse", "envelope")
        assert CSV_SCHEMAS["clt"] == ("t", "ks_statistic", "t_quarter_bound")
        assert CSV_SCHEMAS["lil"] == (
            "n", "normalized_sum", "running_max", "running_min", "ref_plus", "ref_minus",
        )

    def test_empty_series_header_only(self, tmp_path):
        rec = TestReportRecord().make_record({"x": 1}, series={"ergodicity": []})
        paths = emit_plot_data(rec, tmp_path)
        assert len(paths) == 1
        text = paths[0].read_text(encoding="utf-8")
        assert text == "t,wasserstein,log_wasserstein,fit\n"

    def test_rows_and_lf_endings(self, tmp_path):
        rows = [(0.5, 2.0, math.log(2.0), 1.9), (1.0, 1.0, 0.0, 0.95)]
        rec = TestReportRecord().make_record({"x": 1}, series={"ergodicity": rows})
        paths = emit_plot_data(rec, tmp_path)
        raw = paths[0].read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0.5"

    def test_lil_reference_columns_constant(self, tmp_path):
        d = 0.61
        rows = [(16, 0.2, 0.4, -0.3, d, -d), (64, 0.25, 0.4, -0.35, d, -d)]
        rec = TestReportRecord().make_record({"x": 1}, series={"lil": rows})
        path = emit_plot_data(rec, tmp_path)[0]
        lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
        ref_plus = {line.split(",")[4] for line in lines}
        assert ref_plus == {"0.61"}

    def test_report_written_with_csvs(self, tmp_path):
        rec = TestReportRecord().make_record({"x": 1}, series={"ergodicity": []})
        report = write_report(rec, tmp_path)
        assert report.exists()
        data = json.loads(report.read_text(encoding="utf-8"))
        assert data["payload_digest"] == rec.digest
        assert (tmp_path / "ergodicity.csv").exists()
