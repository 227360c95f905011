#!/usr/bin/env python3
"""Print each workload's payload digest at the canonical seed.

Usage, from the root of a segflow checkout::

    python3 perfbench/digests.py

Runs one experiment per workload with config seed 20240817, plus the
``smoke`` full-suite on ``linear_delay_ou`` that the roadmap uses as its
reference, and compares each digest with the one recorded when the
benchmark was defined.  A change that moves a digest shows here as MOVED;
it must say so.  Exits 1 when any digest moved.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CANONICAL_SEED = 20240817

RECORDED = {
    "lil-narrow": "5a5e022803e4",
    "ergodicity-transport": "9e6ff4cbdb35",
    "clt-corrector": "e9c6ff9d6279",
    "suite-tanh-2t": "7ae6c5ae28dc",
    "reference: smoke full-suite linear_delay_ou": "9f8532f7cbe1",
}


def main() -> int:
    from run import THREAD_VARS, nproc

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from segflow.cli import run_experiment
    from segflow.config import parse_config_dict

    from workloads import NUMERICS, config, threads_for

    configs = {name: (config(name, CANONICAL_SEED), threads_for(name, nproc())) for name in NUMERICS}
    configs["reference: smoke full-suite linear_delay_ou"] = (
        {"kind": "full-suite", "seed": CANONICAL_SEED, "model": {"name": "linear_delay_ou"}},
        1,
    )
    work = ROOT / ".perfbench_work" / "digests"
    moved = 0
    try:
        for name, (raw, threads) in configs.items():
            record = run_experiment(parse_config_dict(raw), threads=threads, out_dir=str(work))
            want = RECORDED[name]
            state = "same" if want and record.digest.startswith(want) else "MOVED"
            moved += state == "MOVED"
            print(f"{name:<46} {record.digest}  {state} (recorded {want or 'none'})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
