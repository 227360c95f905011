"""Output check behind ``failed_share``.

An experiment's outputs pass when ``report.json`` parses and its recorded
payload digest matches its payload, every CSV carries exactly the columns of
``segflow.reports.CSV_SCHEMAS`` for its series, and, where the workload has a
closed-form variance constant, the estimate lies within
``VARIANCE_BOUND_SE`` of its own standard errors of that constant.  The
re-run digest comparison is made by the caller, which owns both runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from segflow.reports import CSV_SCHEMAS, payload_digest

from workloads import VARIANCE_BOUND_SE, VARIANCE_TARGET


def _variance_block(payload: dict) -> dict | None:
    return payload.get("variance") if isinstance(payload, dict) else None


def variance_z(workload: str, payload: dict) -> float | None:
    """Distance of the variance estimate from its closed form, in its SEs."""
    target = VARIANCE_TARGET.get(workload)
    var = _variance_block(payload)
    if target is None or var is None:
        return None
    se = float(var["d_sq_se"])
    if not se > 0:
        return float("inf")
    return abs(float(var["d_sq"]) - target) / se


def check_outputs(workload: str, record, out_dir: Path) -> list[str]:
    """Problems found in one experiment's written outputs (empty when it passes)."""
    problems = []
    try:
        with open(out_dir / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"report.json unreadable: {exc}"]
    if report.get("payload_digest") != record.digest:
        problems.append("report.json digest differs from the returned record")
    elif payload_digest(report.get("payload")) != record.digest:
        problems.append("report.json payload does not hash to its recorded digest")

    expected = {name.replace("/", "_") + ".csv": name.split("/")[-1] for name in record.series}
    written = {p.name for p in out_dir.glob("*.csv")}
    if written != set(expected):
        problems.append(f"CSV files {sorted(written)} differ from series {sorted(expected)}")
    for fname in sorted(written & set(expected)):
        with open(out_dir / fname, encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
        if tuple(header or ()) != CSV_SCHEMAS.get(expected[fname]):
            problems.append(f"{fname}: header {header} is not {CSV_SCHEMAS.get(expected[fname])}")

    z = variance_z(workload, record.payload)
    if z is not None and not z <= VARIANCE_BOUND_SE:
        var = _variance_block(record.payload)
        problems.append(
            f"variance d_sq={var['d_sq']:.4f} +- {var['d_sq_se']:.4f} is {z:.1f} SE from "
            f"{VARIANCE_TARGET[workload]:.4f} (bound {VARIANCE_BOUND_SE} SE)"
        )
    return problems
