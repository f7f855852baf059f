#!/usr/bin/env python3
"""dragflow benchmark: run one workload (or all of them) and report metrics.

    python3 perfbench/run.py --workload ref1d --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload in turn

Every repetition is a fresh, single-threaded child process that sets up,
solves and checks one run; repetitions run one at a time (a closed loop).
With ``--trace 0`` repetitions are started while one still fits in
``--seconds``, a fixed calibration kernel runs every 20 ms beside the
program (``calibration.py``), and the end-to-end metrics are medians over
the repetitions of times scaled to the kernel's reference speed.  With
``--trace 1`` one untraced and one traced repetition run, their outputs must match byte for
byte, and the per-layer metrics come from the traced one.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with provenance, is written
under ``.perfbench_out/results/``.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = workloads.ROOT
OUT = ROOT / ".perfbench_out"
# a run must exit within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0
# set-up-only repetitions top the set-up samples up to this many
MIN_SETUP_SAMPLES = 5


# ---------------------------------------------------------------------------
# child: one repetition in its own process
# ---------------------------------------------------------------------------


def _times(cal, elapsed: float) -> tuple[float, float]:
    """(raw, scaled): the program's own wall time, and that time at the
    reference speed.  Without a calibrator the two are the same."""
    if cal is None:
        return elapsed, elapsed
    return elapsed - cal.kernel_s, cal.scaled(elapsed)


def child(args) -> int:
    clock = time.perf_counter()  # set-up starts before numpy and the package load
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import resource

    import dragflow
    import numpy

    if not Path(dragflow.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"dragflow imported from {dragflow.__file__}, not from {src}")
    from dragflow import kernels

    result = {"numpy": numpy.__version__, "have_numba": bool(kernels.HAVE_NUMBA)}
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        calibrate = contextlib.nullcontext
    else:
        import calibration

        calibrate = calibration.Calibrator
    try:
        with calibrate() as cal:
            prepared = workloads.setup(args.workload, args.seed, args.tiny)
        result["setup_raw_s"], result["setup_s"] = _times(cal, time.perf_counter() - clock)
        if not args.setup_only:
            start = time.perf_counter()
            with calibrate() as cal:
                out = workloads.solve(prepared, Path(args.out))
            result["solve_raw_s"], result["solve_s"] = _times(cal, time.perf_counter() - start)
            if cal is not None:
                result["slowness"] = cal.slowness
            result["problems"] = workloads.check(prepared, args.seed, out)
            result["digest"] = hashlib.sha256(workloads.output_bytes(prepared, out)).hexdigest()
    except Exception as err:  # a failed run is counted by the parent, not fatal
        result["problems"] = [f"{type(err).__name__}: {err}"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent: repetitions, medians, checks, report
# ---------------------------------------------------------------------------


def run_child(name: str, seed: int, trace: int, tiny: bool, setup_only: bool, timeout: float) -> dict:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT / "tmp")
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(seed), "--trace", str(trace), "--out", out_dir,
    ]
    cmd += ["--tiny"] * tiny + ["--setup-only"] * setup_only
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **workloads.SINGLE_THREAD_ENV},
            capture_output=True, text=True, timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        result = {"problems": [f"timed out after {timeout:.0f} s"]}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-3:]
            result = {"problems": [f"exit {proc.returncode}: {' | '.join(tail)}"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["elapsed_s"] = time.perf_counter() - start
    result.setdefault("problems", [])
    if not setup_only and "solve_s" not in result and not result["problems"]:
        result["problems"].append("no solve time reported")
    return result


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def provenance(seed: int, runs: list[dict]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    first = next((r for r in runs if "numpy" in r), {})
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": first.get("numpy", "unknown"),
        "have_numba": first.get("have_numba", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines(),
    }


def _median(runs: list[dict], key: str) -> tuple[float, int]:
    values = [r[key] for r in runs if key in r]
    return (statistics.median(values), len(values)) if values else (float("nan"), 0)


def measure(name: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """Untraced repetitions within about ``seconds``; medians of each metric.

    A full repetition starts while the longest one so far still fits (the
    first always runs); set-up-only repetitions then bring the set-up
    samples to ``MIN_SETUP_SAMPLES``.
    """
    begin = time.perf_counter()
    deadline = begin + seconds

    def left() -> float:
        return begin + HARD_LIMIT_S - time.perf_counter()

    full = [run_child(name, seed, 0, tiny, False, left())]
    while time.perf_counter() + max(r["elapsed_s"] for r in full) <= deadline:
        full.append(run_child(name, seed, 0, tiny, False, left()))
    missing = MIN_SETUP_SAMPLES - sum("setup_s" in r for r in full)
    setup_only = [run_child(name, seed, 0, tiny, True, left()) for _ in range(max(0, missing))]

    runs = full + setup_only
    good_full = [r for r in full if not r["problems"]] or full
    good_all = [r for r in runs if not r["problems"]] or runs
    solve, n_solve = _median(good_full, "solve_s")
    setup, n_setup = _median(good_all, "setup_s")
    rss, n_rss = _median(good_full, "peak_rss_mb")
    return {
        "metrics": {
            "solve_s": {"value": solve, "unit": "s", "samples": n_solve},
            "setup_s": {"value": setup, "unit": "s", "samples": n_setup},
            "peak_rss_mb": {"value": rss, "unit": "MB", "samples": n_rss},
        },
        "raw": {
            "solve_raw_s": _median(good_full, "solve_raw_s")[0],
            "setup_raw_s": _median(good_all, "setup_raw_s")[0],
            "slowness": _median(good_full, "slowness")[0],
        },
        "runs": runs,
    }


def trace(name: str, seed: int, tiny: bool = False) -> dict:
    """One untraced and one traced repetition; per-layer metrics from the second."""
    begin = time.perf_counter()
    plain = run_child(name, seed, 0, tiny, False, HARD_LIMIT_S)
    traced = run_child(name, seed, 1, tiny, False, begin + HARD_LIMIT_S - time.perf_counter())
    if "digest" in plain and plain.get("digest") != traced.get("digest"):
        traced["problems"].append("traced output differs from the untraced output")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced.get("layers", {}).items()}
    if "solve_raw_s" in plain and "solve_raw_s" in traced:
        metrics["trace.overhead_frac"] = {
            "value": traced["solve_raw_s"] / plain["solve_raw_s"] - 1.0, "unit": "ratio",
        }
    metrics["src.lines"] = {"value": src_lines(), "unit": "lines"}
    traced.pop("layers", None)
    return {"metrics": metrics, "runs": [plain, traced]}


def run_workload(name: str, seed: int, seconds: float, trace_on: int, tiny: bool = False) -> dict:
    result = trace(name, seed, tiny) if trace_on else measure(name, seed, seconds, tiny)
    runs = result["runs"]
    failed = sum(1 for r in runs if r["problems"])
    result.update(
        workload=name,
        trace=trace_on,
        attempted=len(runs),
        failed=failed,
        fail_frac=failed / len(runs),
        correct=failed == 0,
        provenance=provenance(seed, runs),
    )
    return result


def report(result: dict) -> None:
    name = result["workload"]
    print(
        f"workload {name} seed {result['provenance']['seed']} trace {result['trace']}: "
        f"{result['attempted']} runs, {result['failed']} failed, fail_frac {result['fail_frac']!r}"
    )
    for r in result["runs"]:
        for problem in r["problems"]:
            print(f"  FAILED: {problem}")
    for key, m in result["metrics"].items():
        samples = f" (median of {m['samples']})" if "samples" in m else ""
        print(f"  {key} {m['value']!r} {m['unit']}{samples}")
    for key, value in result.get("raw", {}).items():
        print(f"  ({key} {value!r})")
    print(f"  provenance {json.dumps(result['provenance'])}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{result['provenance']['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")


def summary_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few steps only (self-test)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dragflow" / "__init__.py").is_file():
        print(f"error: no dragflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child(args)

    names = [args.workload] if args.workload else list(workloads.NAMES)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
        report(result)
        results.append(result)
    if any(math.isnan(m["value"]) for r in results for m in r["metrics"].values()):
        print("error: a metric could not be measured; no result", file=sys.stderr)
        return 1
    if args.workload:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(
        summary_line(
            metrics,
            sum(r["attempted"] for r in results),
            sum(r["failed"] for r in results),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
