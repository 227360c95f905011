#!/usr/bin/env python3
"""Quick self-test of the benchmark itself (about a minute).

Usage, from the root of a segflow checkout::

    python3 perfbench/selftest.py

Runs every workload at a tiny size with tracing off and on and checks that
the result line carries exactly the metrics of ``BENCHMARK.json`` with their
units, each also printed by name above it.  Then checks that the output
check rejects a corrupted CSV header and a changed digest, and that the
tracer survives a wrapped name that no longer exists.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_result(spec: dict, workload: str, trace: int):
    result, lines = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload} trace={trace} not correct"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared], sorted(result["metrics"])
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
        if not trace:
            assert got["value"] > 0, (m["name"], got)
        printed = [ln.split() for ln in lines]
        assert any(p[:1] == [m["name"]] and m["unit"] in p for p in printed), f"{m['name']} not printed"
    for name in ("failed_share", "check_failed_share"):
        assert any(ln.split()[:1] == [name] and "ratio" in ln.split() for ln in lines), name
    print(f"ok  {workload} trace={trace}: {len(declared)} metrics, {result['attempted']} experiments")


def check_output_check():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from segflow import cli, limits
    from segflow.config import parse_config_dict

    from check import check_outputs
    from tracer import Tracer
    from workloads import config

    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cfg = parse_config_dict(config("clt-corrector", 7, "tiny"))
        record = cli.run_experiment(cfg, out_dir=str(work))
        assert check_outputs("clt-corrector", record, work) == [], "clean outputs rejected"

        csv_path = work / "clt.csv"
        good = csv_path.read_text(encoding="utf-8")
        csv_path.write_text(good.replace("ks_statistic", "ks_stat", 1), encoding="utf-8")
        assert any("header" in p for p in check_outputs("clt-corrector", record, work)), "bad header passed"
        csv_path.write_text(good, encoding="utf-8")

        report_path = work / "report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["payload"]["d_f"] = report["payload"]["d_f"] * 2
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert any("hash" in p for p in check_outputs("clt-corrector", record, work)), "changed payload passed"
        report["payload_digest"] = "0" * 64
        report_path.write_text(json.dumps(report), encoding="utf-8")
        assert any("digest" in p for p in check_outputs("clt-corrector", record, work)), "changed digest passed"
        print("ok  output check rejects a corrupted CSV header, a changed payload and a changed digest")

        # a traced name that no longer exists is reported, not fatal
        saved = limits.variance_D
        del limits.variance_D
        tracer = Tracer()
        try:
            tracer.install()
            assert "segflow.limits.variance_D" in tracer.missing, tracer.missing
            again = cli.run_experiment(cfg, out_dir=str(work))
        finally:
            tracer.uninstall()
            limits.variance_D = saved
        assert again.digest == record.digest, "traced run changed the payload"
        print("ok  tracer reports a missing name and leaves the payload unchanged")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    from run import THREAD_VARS

    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_output_check()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
