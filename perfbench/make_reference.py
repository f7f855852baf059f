#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py [--workload NAME]

Run it only on a commit whose outputs are known to be right: later
commits are judged against these files.  The grid workloads store their
records CSV (gzip, no timestamp, so the bytes are reproducible), one per
input seed for the seeded workloads; ``kinetic1d`` stores the
``CompareOutcome`` fields.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
import tempfile
from pathlib import Path

import workloads


def write_reference(name: str, seed: int) -> Path:
    prepared = workloads.setup(name, seed)
    with tempfile.TemporaryDirectory(dir=workloads.ROOT / ".perfbench_out") as tmp:
        out = workloads.solve(prepared, Path(tmp))
        problems = workloads.conservation_problems(out["result"]) if "result" in out else []
        if problems:
            raise SystemExit(f"{name} seed {seed}: {problems}")
        path = workloads.reference_path(name, seed)
        if name == "kinetic1d":
            path.write_text(json.dumps(out["outcome"], indent=2) + "\n")
        else:
            path.write_bytes(gzip.compress(out["records_path"].read_bytes(), mtime=0))
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    args = parser.parse_args()
    os.environ.update(workloads.SINGLE_THREAD_ENV)  # before numpy loads
    sys.path.insert(0, str(workloads.ROOT / "src"))
    (workloads.ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workloads.REFERENCE.mkdir(exist_ok=True)
    for name in [args.workload] if args.workload else workloads.NAMES:
        seeds = range(workloads.SEED_CLASSES) if name in workloads.SEEDED else [0]
        for seed in seeds:
            print(write_reference(name, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
