#!/usr/bin/env python3
"""segflow benchmark: time to verdict of ``segflow run`` experiments.

Usage (from the root of a segflow checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: the experiments of a run execute back to back
in this process through ``segflow.cli.run_experiment(cfg, threads, out_dir)``
with configs generated from ``--seed`` (see ``workloads.py``).  BLAS and
OpenMP pools are pinned to one thread; the only worker threads are
segflow's own pool on the suite workload.

``--trace 0`` prints the end-to-end metrics: set-up time (median over fresh
interpreters), median wall and CPU seconds per experiment, and peak RSS.
``--trace 1`` pairs each experiment with a traced re-run of the same seed and
prints the per-layer metrics of ``tracer.py``, including the tracing
overhead.  Every experiment's outputs are checked (``check.py``); a seed is
re-run in every run and must reproduce its payload digest.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import KINDS, config, experiment_seed, threads_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 4  # fresh interpreters timed per run; the median is reported
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(KINDS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny shrinks every workload for the self-test; never used to measure")
    return p.parse_args(argv)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned": {v: os.environ[v] for v in THREAD_VARS},
        "segflow_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
    }


@dataclass
class Outcome:
    """One experiment: timings, digest, its own verdict and the output check."""

    seed: int
    wall: float = 0.0
    cpu: float = 0.0
    digest: str = ""
    verdict_failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    z: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def run_one(workload: str, exp_seed: int, size: str, threads: int, work: Path, tag: str) -> Outcome:
    from segflow import cli
    from segflow.config import parse_config

    from check import check_outputs, variance_z

    out = Outcome(exp_seed)
    cfg_path = work / f"{tag}.json"
    cfg_path.write_text(json.dumps(config(workload, exp_seed, size)), encoding="utf-8")
    out_dir = work / tag
    try:
        cfg = parse_config(cfg_path)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            record = cli.run_experiment(cfg, threads=threads, out_dir=str(out_dir))
        finally:
            out.wall, out.cpu = time.perf_counter() - t0, time.process_time() - c0
        out.digest = record.digest
        out.verdict_failures = list(record.failures)
        out.problems = check_outputs(workload, record, out_dir)
        out.z = variance_z(workload, record.payload)
    except Exception as exc:  # an experiment that raises counts as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        out.problems.append(f"raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg_path.unlink(missing_ok=True)
    return out


def setup_seconds(workload: str, seed: int, size: str, work: Path) -> list[float]:
    """Set-up time in fresh interpreters: import, parse, build model, resolve numerics."""
    cfg_path = work / "setup.json"
    cfg_path.write_text(json.dumps(config(workload, experiment_seed(workload, seed, 0), size)))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(cfg_path)]
    times = []
    for i in range(SETUP_PROBES + 1):  # the first probe only warms the bytecode cache
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def print_outcome(i: int, o: Outcome, label: str = ""):
    verdict = "pass" if not o.verdict_failures else "FAIL: " + "; ".join(o.verdict_failures)
    check = "ok" if o.ok else "BAD: " + "; ".join(o.problems)
    z = "" if o.z is None else f" variance_z={o.z:.2f}"
    print(f"  experiment {i}{label} seed={o.seed} wall={o.wall:.4f}s cpu={o.cpu:.4f}s "
          f"digest={o.digest[:12]}{z} verdict={verdict} check={check}")


def untraced(args, threads, work, deadline):
    """Closed loop until the deadline; the second experiment re-runs the first seed."""
    outcomes = []
    while len(outcomes) < 2 or time.perf_counter() < deadline:
        i = max(0, len(outcomes) - 1)
        o = run_one(args.workload, experiment_seed(args.workload, args.seed, i), args.size, threads, work, f"e{i}")
        if len(outcomes) == 1 and o.ok and o.digest != outcomes[0].digest:
            o.problems.append(f"re-run digest {o.digest[:12]} != {outcomes[0].digest[:12]}")
        print_outcome(i, o, " (re-run)" if len(outcomes) == 1 else "")
        outcomes.append(o)
    return outcomes


def traced(args, threads, work, deadline, tracer):
    """Pairs of (untraced, traced) runs of one seed until the deadline."""
    plain, traced_runs = [], []
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        seed = experiment_seed(args.workload, args.seed, i)
        o = run_one(args.workload, seed, args.size, threads, work, f"u{i}")
        print_outcome(i, o, " (untraced)")
        tracer.exp = f"{args.workload}-{i}"
        tracer.install()
        try:
            t = run_one(args.workload, seed, args.size, threads, work, f"t{i}")
        finally:
            tracer.uninstall()
        if t.ok and o.ok and t.digest != o.digest:
            t.problems.append(f"traced digest {t.digest[:12]} != untraced {o.digest[:12]}")
        print_outcome(i, t, " (traced)")
        plain.append(o)
        traced_runs.append(t)
        i += 1
    return plain, traced_runs


def summary_line(name, value, unit, note):
    print(f"  {name:<36} {value:>16.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "segflow" / "__init__.py").is_file():
        print(f"perfbench: no segflow source at {SRC}; run from a segflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads = threads_for(args.workload, nproc())
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, threads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(args, threads, work):
    """Untraced run: set-up probes, then the closed loop of experiments."""
    setup = setup_seconds(args.workload, args.seed, args.size, work)
    outcomes = untraced(args, threads, work, time.perf_counter() + args.seconds)
    n = len(outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(o.wall for o in outcomes),
        "cpu_s": statistics.median(o.cpu for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"median of {n} experiments",
        "cpu_s": f"median of {n} experiments",
        "peak_rss_mb": "peak of this process (ru_maxrss, MiB)",
    }
    return outcomes, metrics, dict(END_TO_END_UNITS), notes, 0


def per_layer(args, threads, work):
    """Traced run: per-layer metrics, tracing overhead and the span file."""
    from tracer import PER_LAYER, Tracer, attributed_s, layer_metrics, unit_of

    tracer = Tracer()
    plain, traced_runs = traced(args, threads, work, time.perf_counter() + args.seconds, tracer)
    totals = tracer.totals()
    k = len(traced_runs)
    overhead = statistics.median(t.wall / o.wall for o, t in zip(plain, traced_runs)) - 1.0
    metrics = layer_metrics(totals, k, threads, overhead)
    notes = {name: f"per experiment, mean of {k} traced" for name in PER_LAYER}
    notes["trace.overhead_share"] = f"median over {k} traced/untraced pairs, minus 1"
    print(f"  reconcile: spans under run_experiment attribute {attributed_s(totals) / k:.4f}s per "
          f"experiment against cli.run_experiment.s {metrics['cli.run_experiment.s']:.4f}s "
          f"(equal when serial; larger by pool overlap)")
    if tracer.missing:
        print("  missing (not wrapped, reported as 0): " + ", ".join(tracer.missing))
    spans_path = WORK / f"spans-{args.workload}.jsonl"
    tracer.write_spans(spans_path)
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    units = {name: unit_of(name) for name in PER_LAYER}
    return plain + traced_runs, metrics, units, notes, tracer.os_threads_max


def measure(args, threads, work) -> int:
    from tracer import os_thread_count

    env = environment(args, threads)
    print(f"segflow benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    outcomes, metrics, units, notes, pool_threads = (per_layer if args.trace else end_to_end)(args, threads, work)

    problems = []
    if threads > env["nproc"]:
        problems.append(f"segflow pool of {threads} threads exceeds nproc={env['nproc']}")
    # the interpreter's own thread plus segflow's pool (seen from inside it when traced)
    threads_seen = max(os_thread_count(), pool_threads)
    if threads_seen - 1 > env["nproc"]:
        problems.append(f"{threads_seen} threads seen exceed nproc={env['nproc']} plus the main thread")
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    verdict_failed = sum(bool(o.verdict_failures) for o in outcomes)
    print(f"metrics ({attempted} experiments; threads seen {threads_seen}):")
    for name, value in metrics.items():
        summary_line(name, value, units[name], notes[name])
    summary_line("failed_share", failed / attempted, "ratio",
                 f"{failed}/{attempted} experiments raised or failed the output check")
    summary_line("check_failed_share", verdict_failed / attempted, "ratio",
                 f"{verdict_failed}/{attempted} experiments with a failed statistical verdict")
    for p in problems:
        print(f"  PROBLEM: {p}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
