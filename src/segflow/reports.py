"""Report records, content digests, and plot-ready CSV emission.

Reports are JSON; per-series plot data goes to one CSV per series with a
fixed, golden-tested column schema.  The payload digest covers only the
result payload (canonical JSON, sorted keys), so re-running an identical
config reproduces an identical digest regardless of wall-clock or paths.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["ReportRecord", "payload_digest", "emit_plot_data", "write_report", "jsonable"]

CSV_SCHEMAS = {
    "ergodicity": ("t", "wasserstein", "log_wasserstein", "fit"),
    "slln": ("t", "mse", "envelope"),
    "clt": ("t", "ks_statistic", "t_quarter_bound"),
    "lil": ("n", "normalized_sum", "running_max", "running_min", "ref_plus", "ref_minus"),
}


def jsonable(obj: Any) -> Any:
    """Recursively convert numpy containers/scalars to plain JSON values."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()  # a numpy scalar as its Python value, then the rules below
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # JSON has no NaN/Inf; keep a readable token
    return obj


def payload_digest(payload: dict) -> str:
    blob = json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ReportRecord:
    """One experiment's persisted result."""

    kind: str
    config_echo: dict
    config_hash: str
    input_digest: str
    payload: dict
    seed: int
    wall_clock: float
    series: dict = field(default_factory=dict)  # series name -> list of rows
    failures: list = field(default_factory=list)

    @property
    def experiment_id(self) -> str:
        return f"{self.kind}-{self.config_hash[:12]}"

    @property
    def digest(self) -> str:
        return payload_digest(self.payload)

    def to_json(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "kind": self.kind,
            "config": jsonable(self.config_echo),
            "config_hash": self.config_hash,
            "input_digest": self.input_digest,
            "payload_digest": self.digest,
            "payload": jsonable(self.payload),
            "seed": self.seed,
            "wall_clock_seconds": self.wall_clock,
            "failures": list(self.failures),
        }


def input_digest(config_hash: str, package_version: str) -> str:
    """Content digest of the run's inputs: the config plus the code version."""
    return hashlib.sha256(f"{config_hash}:{package_version}".encode("utf-8")).hexdigest()


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def emit_plot_data(record: ReportRecord, out_dir: str | Path) -> list[Path]:
    """Write one CSV per series in the record; returns the paths written.

    A series with no rows still gets its header-only file.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in record.series.items():
        base = name.split("/")[-1]
        if base not in CSV_SCHEMAS:
            raise ValueError(f"series {name!r} has no fixed CSV schema")
        path = out / (name.replace("/", "_") + ".csv")
        _write_csv(path, CSV_SCHEMAS[base], rows)
        written.append(path)
    return written


def write_report(record: ReportRecord, out_dir: str | Path) -> Path:
    """Persist report JSON plus all series CSVs; returns the report path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(record.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit_plot_data(record, out)
    return path
