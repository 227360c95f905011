"""Traced run: spans and counters around the calls into each segflow module.

The tracer patches public names from outside the package.  segflow modules
bind names with ``from .x import y``, so each target is replaced in every
module that holds it.  A target that no longer exists is reported as missing
and its metrics stay at zero; the run itself goes on.

Spans (name, start, end, parent, thread, experiment id) are kept in memory
and written out when the run ends.  A span's self time is its busy time
minus the time its children cover: children on the same thread cover their
busy time, children on pool threads cover the union of their intervals.
The step driver ``step_windows`` gets one span per call whose busy time is
the summed time inside the generator's ``next()``; the consumer's work
between yields stays with the consumer.  Per-step callbacks (drift and
diffusion, ``Observable.values``) are counters, not spans; their time is
still subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np

import segflow
from segflow import assumptions, cli, config, ergodic, limits, metric, reports, segments, semigroup, stats

MODULES = (assumptions, cli, config, ergodic, limits, metric, reports, segments, semigroup, stats)

# span targets: (module, attribute) -> bucket that receives the span's self time
SPANS = {
    (cli, "run_experiment"): "cli",
    (config, "parse_config_dict"): "config.parse",
    (reports, "write_report"): "reports.write",
    (ergodic, "sample_invariant"): "ergodic.sample_invariant",
    (ergodic, "coupled_snapshots"): "ergodic.coupled_snapshots",
    (ergodic, "ergodicity_curve"): "ergodic.ergodicity_curve",
    (limits, "variance_D"): "limits.variance",
    (limits, "variance_D_discrete"): "limits.variance",
    (limits, "clt_test"): "limits.clt_test",
    (limits, "lil_run"): "limits.lil_run",
    (limits, "slln_variance_decay"): "limits.slln",
    (limits, "slln_pathwise"): "limits.slln",
    (stats, "bootstrap_se"): "stats.bootstrap",
    (stats, "ols_line"): "stats",
    (stats, "kolmogorov_statistic"): "stats",
    (stats, "weighted_degenerate_statistic"): "stats",
    (stats, "batch_means_se"): "stats",
    (stats, "grouped_mean_se"): "stats",
    (assumptions, "check_dissipativity"): "assumptions",
    (assumptions, "check_ellipticity"): "assumptions",
    (metric, "rho_matrix"): "metric.rho_matrix",
    (metric, "linear_sum_assignment"): "metric.assignment",
}
# methods patched on their class: (module, class, method) -> (bucket, index of replicas)
METHOD_SPANS = {
    (semigroup, "MonteCarloSemigroup", "integral_profile"): ("semigroup.profile", 5),
    (semigroup, "MonteCarloSemigroup", "discrete_profile"): ("semigroup.profile", 5),
    (semigroup, "MonteCarloSemigroup", "values_on_grid"): ("semigroup.profile", 4),
    (semigroup, "SdeChain", "unit_states"): ("semigroup.unit_states", None),
}

PER_LAYER = (
    "segments.driver_calls", "segments.steps", "segments.path_steps", "segments.self_s",
    "segments.ns_per_path_step.narrow", "segments.ns_per_path_step.mid",
    "segments.ns_per_path_step.wide",
    "registry.coeff.calls", "registry.coeff.s",
    "metric.rho_matrix.calls", "metric.rho_matrix.pairs", "metric.rho_matrix.s",
    "metric.rho_matrix.ns_per_pair", "metric.rho_matrix.bytes_computed",
    "metric.assignment.solves", "metric.assignment.n3", "metric.assignment.s",
    "metric.observable.evals", "metric.observable.s",
    "ergodic.sample_invariant.s", "ergodic.coupled_snapshots.s",
    "ergodic.ergodicity_curve.self_s", "ergodic.blocks",
    "semigroup.profile.s", "semigroup.replica_paths", "semigroup.self_s",
    "limits.variance.s", "limits.clt_test.s", "limits.lil_run.s", "limits.slln.s",
    "limits.self_s",
    "stats.bootstrap.s", "stats.s",
    "assumptions.s",
    "cli.run_experiment.s", "cli.self_s", "cli.pool_busy_share",
    "config.parse.s",
    "reports.write.s", "reports.bytes",
    "trace.overhead_share",
)
UNITS = {"calls": "count", "steps": "count", "path_steps": "count", "pairs": "count",
         "solves": "count", "n3": "count", "evals": "count", "blocks": "count",
         "replica_paths": "count", "driver_calls": "count", "bytes": "bytes",
         "bytes_computed": "bytes", "pool_busy_share": "ratio", "overhead_share": "ratio"}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.startswith("segments.ns_per_path_step") or last == "ns_per_pair":
        return "ns"
    return UNITS.get(last, "s")


def width_class(width: int) -> str:
    return "narrow" if width == 1 else ("mid" if width < 512 else "wide")


class _Frame:
    __slots__ = ("id", "name", "bucket", "parent", "thread", "start", "end", "busy", "cover",
                 "foreign", "exp")
    _ids = itertools.count()

    def __init__(self, name, bucket, parent, exp):
        self.id = next(self._ids)
        self.name = name
        self.bucket = bucket
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = perf_counter()
        self.end = None
        self.busy = 0.0
        self.cover = 0.0
        self.foreign = []
        self.exp = exp


def _union(intervals) -> float:
    total, hi = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > hi:
            total += b - max(a, hi)
            hi = b
    return total


class Tracer:
    """Patches segflow on ``install`` and restores it on ``uninstall``."""

    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.accs = []  # one accumulator dict per thread that recorded anything
        self.spans = []
        self.exp = None
        self.missing = []
        self.os_threads_max = 0
        self._undo = []

    # -- accounting ---------------------------------------------------------

    def _state(self):
        st = self.local
        if not hasattr(st, "stack"):
            st.stack = []
            st.acc = {}
            with self.lock:
                self.accs.append(st.acc)
        return st

    def _add(self, st, key, value):
        st.acc[key] = st.acc.get(key, 0.0) + value

    def _enter(self, name, bucket, parent=None):
        st = self._state()
        if parent is None and st.stack:
            parent = st.stack[-1]
        frame = _Frame(name, bucket, parent, self.exp)
        st.stack.append(frame)
        return st, frame

    def _close(self, st, frame):
        parent = frame.parent
        if parent is not None:
            if parent.thread == frame.thread:
                parent.cover += frame.busy
            else:
                parent.foreign.append((frame.start, frame.end))
        self._add(st, frame.bucket + ".self_s", frame.busy - frame.cover - _union(frame.foreign))
        self._add(st, frame.bucket + ".incl_s", frame.busy)
        if parent is None and frame.bucket != "cli":
            self._add(st, "outside.s", frame.busy)  # e.g. the benchmark's own config parse
        self.spans.append((frame.name, frame.start, frame.end, frame.busy, frame.id,
                           parent.id if parent is not None else None, frame.thread, frame.exp))

    def _exit(self, st, frame):
        st.stack.pop()
        frame.end = perf_counter()
        frame.busy = frame.end - frame.start
        self._close(st, frame)

    def _counted(self, st, key, elapsed):
        self._add(st, key + ".calls", 1)
        self._add(st, key + ".s", elapsed)
        if st.stack:
            st.stack[-1].cover += elapsed

    # -- wrappers -----------------------------------------------------------

    def span(self, fn, name, bucket, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st, frame = self._enter(name, bucket)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(st, frame)
                if extra is not None:
                    extra(self, st, args)

        return wrapper

    def counter(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._counted(self._state(), key, perf_counter() - t0)

        return wrapper

    def driver(self, fn):
        tracer = self

        @functools.wraps(fn)
        def step_windows(model, initial_values, *args, **kwargs):
            shape = np.shape(initial_values)
            width = (shape[0] if len(shape) == 3 else 1) * shape[-1]
            return tracer._drive(fn(model, initial_values, *args, **kwargs), width)

        return step_windows

    def _drive(self, gen, width):
        st = self._state()
        frame = _Frame("segments.step_windows", "segments", st.stack[-1] if st.stack else None, self.exp)
        yields = 0
        try:
            while True:
                st.stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    frame.busy += perf_counter() - t0
                    st.stack.pop()
                yields += 1
                yield item
        finally:
            gen.close()
            frame.end = perf_counter()
            self._close(st, frame)
            steps = max(0, yields - 1)
            cls = width_class(width)
            self._add(st, "segments.driver_calls", 1)
            self._add(st, "segments.steps", steps)
            self._add(st, "segments.path_steps", steps * width)
            self._add(st, f"segments.path_steps.{cls}", steps * width)
            self._add(st, f"segments.busy_s.{cls}", frame.busy)

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, wrapped):
        """Rebind ``original`` to ``wrapped`` in every segflow module holding it."""
        for mod in (segflow,) + MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapped)

    def _find(self, owner, attr):
        """``owner.attr``, or None after listing it as missing."""
        value = getattr(owner, attr, None)
        if value is None:
            where = getattr(owner, "__qualname__", None)
            where = f"{owner.__module__}.{where}" if where else owner.__name__
            self.missing.append(f"{where}.{attr}")
        return value

    def install(self):
        for (mod, attr), bucket in SPANS.items():
            original = self._find(mod, attr)
            if original is not None:
                self._patch_everywhere(original, self.span(original, attr, bucket, _EXTRAS.get(attr)))
        for (mod, cls_name, attr), (bucket, replicas_at) in METHOD_SPANS.items():
            cls = self._find(mod, cls_name)
            original = self._find(cls, attr) if cls is not None else None
            if original is not None:
                extra = None if replicas_at is None else _replica_paths(replicas_at)
                self._replace(cls, attr, self.span(original, f"{cls_name}.{attr}", bucket, extra))
        driver = self._find(segments, "step_windows")
        if driver is not None:
            self._patch_everywhere(driver, self.driver(driver))
        blocks = self._find(ergodic, "wasserstein")
        if blocks is not None:
            self._replace(ergodic, "wasserstein", self._tally(blocks, "ergodic.blocks"))
        values = self._find(metric.Observable, "values")
        if values is not None:
            self._replace(metric.Observable, "values", self.counter(values, "metric.observable"))
        build_model = self._find(config, "build_model")
        if build_model is not None:
            self._replace(config, "build_model", self._counting_models(build_model))
        if self._find(cli, "ThreadPoolExecutor") is not None:
            self._replace(cli, "ThreadPoolExecutor", self._pool_class())
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _tally(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._add(self._state(), key, 1)
            return fn(*args, **kwargs)

        return wrapper

    def _counting_models(self, build_model):
        """Models whose drift and diffusion callbacks are counted."""
        fields = ("drift", "diffusion", "drift_batch", "diffusion_batch")

        @functools.wraps(build_model)
        def wrapper(*args, **kwargs):
            model = build_model(*args, **kwargs)
            wrapped = {
                f: self.counter(getattr(model, f), "registry.coeff")
                for f in fields
                if getattr(model, f, None) is not None
            }
            return dataclasses.replace(model, **wrapped)

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """The CLI's pool, with each task recorded as a span on its thread."""

            def submit(self, fn, /, *args, **kwargs):
                st = tracer._state()
                parent = st.stack[-1] if st.stack else None

                def task():
                    tst, frame = tracer._enter("cli.task", "cli.task", parent)
                    try:
                        tracer.os_threads_max = max(tracer.os_threads_max, os_thread_count())
                        return fn(*args, **kwargs)
                    finally:
                        tracer._exit(tst, frame)

                return super().submit(task)

        return TracedPool

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        out = {}
        with self.lock:
            accs = list(self.accs)
        for acc in accs:
            for k, v in acc.items():
                out[k] = out.get(k, 0.0) + v
        return out

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, busy, sid, parent, thread, exp in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "busy": busy,
                                     "id": sid, "parent": parent, "thread": thread,
                                     "experiment": exp}) + "\n")


def _replica_paths(replicas_at):
    """Replica paths of a profile call: states times replicas, both positional."""

    def extra(tracer, st, args):
        tracer._add(st, "semigroup.replica_paths", len(args[2]) * int(args[replicas_at]))

    return extra


def _rho_pairs(tracer, st, args):
    a, b = np.shape(args[0]), np.shape(args[1])
    tracer._add(st, "metric.rho_matrix.calls", 1)
    tracer._add(st, "metric.rho_matrix.pairs", a[0] * b[0])
    # float64 elements of the (na, nb, m+1, d) difference array, over all chunks
    tracer._add(st, "metric.rho_matrix.bytes_computed", 8 * a[0] * b[0] * int(np.prod(a[1:])))


def _assignment_size(tracer, st, args):
    rows, cols = np.shape(args[0])
    tracer._add(st, "metric.assignment.solves", 1)
    tracer._add(st, "metric.assignment.n3", rows * cols * min(rows, cols))


def _report_bytes(tracer, st, args):
    out = Path(args[1])
    tracer._add(st, "reports.bytes", sum(p.stat().st_size for p in out.iterdir() if p.is_file()))


_EXTRAS = {
    "rho_matrix": _rho_pairs,
    "linear_sum_assignment": _assignment_size,
    "write_report": _report_bytes,
}


def os_thread_count() -> int:
    """Threads of this process as the kernel counts them (0 where unknown)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def layer_metrics(t: dict, experiments: int, threads: int, overhead: float) -> dict:
    """Per-experiment per-layer metrics from tracer totals summed over experiments."""
    g = lambda k: t.get(k, 0.0)  # noqa: E731
    per = {}
    per["segments.driver_calls"] = g("segments.driver_calls")
    per["segments.steps"] = g("segments.steps")
    per["segments.path_steps"] = g("segments.path_steps")
    per["segments.self_s"] = g("segments.self_s")
    for cls in ("narrow", "mid", "wide"):
        ps = g(f"segments.path_steps.{cls}")
        per[f"segments.ns_per_path_step.{cls}"] = 1e9 * g(f"segments.busy_s.{cls}") / ps if ps else 0.0
    per["registry.coeff.calls"] = g("registry.coeff.calls")
    per["registry.coeff.s"] = g("registry.coeff.s")
    per["metric.rho_matrix.calls"] = g("metric.rho_matrix.calls")
    per["metric.rho_matrix.pairs"] = g("metric.rho_matrix.pairs")
    per["metric.rho_matrix.s"] = g("metric.rho_matrix.incl_s")
    pairs = g("metric.rho_matrix.pairs")
    per["metric.rho_matrix.ns_per_pair"] = 1e9 * g("metric.rho_matrix.incl_s") / pairs if pairs else 0.0
    per["metric.rho_matrix.bytes_computed"] = g("metric.rho_matrix.bytes_computed")
    per["metric.assignment.solves"] = g("metric.assignment.solves")
    per["metric.assignment.n3"] = g("metric.assignment.n3")
    per["metric.assignment.s"] = g("metric.assignment.incl_s")
    per["metric.observable.evals"] = g("metric.observable.calls")
    per["metric.observable.s"] = g("metric.observable.s")
    per["ergodic.sample_invariant.s"] = g("ergodic.sample_invariant.incl_s")
    per["ergodic.coupled_snapshots.s"] = g("ergodic.coupled_snapshots.incl_s")
    per["ergodic.ergodicity_curve.self_s"] = g("ergodic.ergodicity_curve.self_s")
    per["ergodic.blocks"] = g("ergodic.blocks")
    per["semigroup.profile.s"] = g("semigroup.profile.incl_s")
    per["semigroup.replica_paths"] = g("semigroup.replica_paths")
    per["semigroup.self_s"] = g("semigroup.profile.self_s") + g("semigroup.unit_states.self_s")
    for name in ("variance", "clt_test", "lil_run", "slln"):
        per[f"limits.{name}.s"] = g(f"limits.{name}.incl_s")
    per["limits.self_s"] = sum(g(f"limits.{n}.self_s") for n in ("variance", "clt_test", "lil_run", "slln"))
    per["stats.bootstrap.s"] = g("stats.bootstrap.incl_s")
    per["stats.s"] = g("stats.self_s") + g("stats.bootstrap.self_s")
    per["assumptions.s"] = g("assumptions.incl_s")
    wall = g("cli.incl_s")
    per["cli.run_experiment.s"] = wall
    per["cli.self_s"] = g("cli.self_s") + g("cli.task.self_s")
    task_s = g("cli.task.incl_s")
    per["cli.pool_busy_share"] = task_s / (threads * wall) if task_s and wall else 0.0
    per["config.parse.s"] = g("config.parse.incl_s")
    per["reports.write.s"] = g("reports.write.incl_s")
    per["reports.bytes"] = g("reports.bytes")
    scaled = {k: v / experiments for k, v in per.items()}
    # ratios are not summed over experiments
    for k in ("segments.ns_per_path_step.narrow", "segments.ns_per_path_step.mid",
              "segments.ns_per_path_step.wide", "metric.rho_matrix.ns_per_pair",
              "cli.pool_busy_share"):
        scaled[k] = per[k]
    scaled["trace.overhead_share"] = overhead
    return scaled


def attributed_s(t: dict) -> float:
    """Self time of every span under ``run_experiment`` plus counter time.

    For a serial experiment this equals ``cli.run_experiment.s``; with a
    pool it exceeds it by the time the pool's tasks overlapped.
    """
    selfs = sum(v for k, v in t.items() if k.endswith(".self_s"))
    return selfs + t.get("registry.coeff.s", 0.0) + t.get("metric.observable.s", 0.0) - t.get("outside.s", 0.0)
