#!/usr/bin/env python3
"""Self-test of the benchmark (under a minute):  python3 perfbench/selftest.py

1. Every workload, cut to a few steps, runs untraced and traced with no
   failed run and reports every metric that BENCHMARK.json names.
2. The tracer's spans nest: each child lies inside its parent, no self
   time is negative, and the self times of all spans add up to the
   durations of the root spans.  Uninstalling restores the package.
3. The records comparison passes a reference against itself and catches
   a change of one part in 1e10.  The calibrator samples its kernel at its
   interval and leaves no timer or handler behind.
4. In a directory that holds only BENCHMARK.json and this directory, the
   benchmark exits with an error and prints no result.
"""
from __future__ import annotations

import gzip
import json
import math
import shutil
import subprocess
import sys

import run
import workloads

ROOT = workloads.ROOT


def fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def check_metrics_present() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for name in workloads.NAMES:
        for trace_on in (0, 1):
            result = run.run_workload(name, seed=0, seconds=0.0, trace_on=trace_on, tiny=True)
            problems = [p for r in result["runs"] for p in r["problems"]]
            if result["failed"] or problems:
                fail(f"{name} trace {trace_on}: {problems}")
            missing = [m for m in wanted[trace_on] if m not in result["metrics"]]
            if missing:
                fail(f"{name} trace {trace_on} lacks metrics {missing}")
            print(f"ok   {name} trace {trace_on}: {len(result['metrics'])} metrics")


def check_span_nesting() -> None:
    import numpy as np

    import tracing

    sys.path.insert(0, str(ROOT / "src"))
    from dragflow import stepping

    original_step = stepping.step
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        prepared = workloads.setup("diag2d", seed=0, tiny=True)
        out_dir = ROOT / ".perfbench_out" / "selftest"
        out_dir.mkdir(parents=True, exist_ok=True)
        workloads.solve(prepared, out_dir)
    finally:
        uninstall()
    if stepping.step is not original_step:
        fail("uninstall left stepping.step rebound")

    _, parent, dur = tracer.arrays()
    start = np.array(tracer.start)
    end = np.array(tracer.end)
    child = parent >= 0
    tol = 1e-9
    if np.any(start[child] < start[parent[child]] - tol) or np.any(end[child] > end[parent[child]] + tol):
        fail("a child span lies outside its parent")
    self_t = tracer.self_times()
    if np.any(self_t < -tol):
        fail(f"negative self time {self_t.min():.3e}")
    roots = float(np.sum(dur[~child]))
    if abs(float(np.sum(self_t)) - roots) > 1e-9 * max(roots, 1.0):
        fail(f"self times sum to {np.sum(self_t)!r}, root spans to {roots!r}")
    print(f"ok   span nesting: {len(dur)} spans, self times add up to {roots:.6f} s")


def check_calibration() -> None:
    import signal
    import time

    import calibration

    handler = signal.getsignal(signal.SIGALRM)
    begin = time.perf_counter()
    with calibration.Calibrator() as cal:
        while time.perf_counter() - begin < 0.5:
            sum(range(1000))
        elapsed = time.perf_counter() - begin
    expected = 0.5 / calibration.INTERVAL_S
    if not 0.5 * expected <= cal.samples <= 1.5 * expected + 2:
        fail(f"{cal.samples} calibration samples in 0.5 s, expected about {expected:.0f}")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0) or signal.getsignal(signal.SIGALRM) is not handler:
        fail("the calibrator left its timer or handler behind")
    program_s = elapsed - cal.kernel_s
    if not 0 < program_s or not math.isclose(cal.scaled(elapsed) * cal.slowness, program_s):
        fail("calibrated time is not the program's time over the slowness")
    print(f"ok   calibration: {cal.samples} samples, slowness {cal.slowness:.3f}")


def check_records_gate() -> None:
    ref_text = gzip.decompress(workloads.reference_path("ref1d", 0).read_bytes()).decode()
    if workloads.compare_records(ref_text, ref_text):
        fail("reference does not match itself")
    header, rows = workloads._table(ref_text)
    col = header.index("E")
    rows[len(rows) // 2][col] = repr(float(rows[len(rows) // 2][col]) * (1.0 + 1e-10))
    changed = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if not workloads.compare_records(changed, ref_text):
        fail("a 1e-10 relative change passed the records gate")
    print("ok   records gate")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(workloads.HERE, bare / workloads.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{workloads.HERE.name}/run.py", "--workload", "ref1d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   bare directory: exit {proc.returncode}")


def main() -> int:
    check_records_gate()
    check_calibration()
    check_span_nesting()
    check_bare_directory()
    check_metrics_present()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
