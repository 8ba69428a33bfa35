"""Benchmark of the edgemaps package: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every pass of the workload runs in a
fresh process (``perfbench/worker.py``), so no cache of the program carries
over from one pass to the next.

* ``--trace 0`` first makes five passes that stop after the set-up, then
  repeats whole passes until S seconds have gone by, and at least twice.
  It reports the median of each end-to-end metric; ``setup_s`` is the
  median over every pass.  Both times are in seconds of an unloaded core
  (see ``calibrate.py``); the report line keeps the measured ones.
* ``--trace 1`` makes one plain pass and one pass under ``cProfile``.  The
  per-layer figures timed from outside come from the plain pass, the calls
  and self times from the profiled one, and ``trace_overhead`` is the
  profiled pass's wall time over the plain pass's.

Metric names and units are read from ``BENCHMARK.json``.  A report line
with the machine, every pass's figures and the exact counters precedes the
result, which is the last line of standard output.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PASSES = 5
MIN_PASSES = 2
DEADLINE_S = 170.0


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """One pass in a fresh process; its figures, or a description of its failure."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"pass exceeded {timeout:.0f} s"}
    finally:
        # the pass may leave pool workers of a parallel search behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"pass exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "edgemaps" / "__init__.py").is_file():
        print(f"no edgemaps sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    start = time.monotonic()
    plan = ["timed", "traced"] if args.trace else ["setup"] * SETUP_PASSES + ["timed"] * MIN_PASSES
    passes: list[dict] = []
    while plan or (not args.trace and time.monotonic() - start < args.seconds):
        mode = plan.pop(0) if plan else "timed"
        passes.append(run_pass(args.workload, args.seed, mode, DEADLINE_S - (time.monotonic() - start)))
        if "error" in passes[-1]:
            break

    setups = [p["setup_s"] for p in passes if "setup_s" in p]
    ok = [p for p in passes if "wall_s" in p]
    errors = [p["error"] for p in passes if "error" in p]
    failures = errors + [f for p in ok for f in p["failures"]]
    attempted = sum(p["attempted"] for p in ok) + len(errors)
    failed = sum(len(p["failures"]) for p in ok) + len(errors)

    exact = ok[0]["exact"] if ok else {}
    for p in ok[1:]:
        for key in sorted(set(exact) | set(p["exact"])):
            if exact.get(key) != p["exact"].get(key):
                failures.append(f"exact counter {key} differs between passes")
                failed += 1
    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    drift = {k: [v, exact.get(k)] for k, v in reference.items() if exact.get(k) != v}

    if args.trace:
        names = spec["per_layer"]
        values: dict[str, float] = {}
        if len(ok) == 2:
            plain, traced_pass = ok
            values = {**traced_pass["layer"], **plain["exact"], **plain["layer"]}
            values["trace_overhead"] = traced_pass["wall_raw_s"] / plain["wall_raw_s"]
    else:
        names = spec["end_to_end"]
        values = {key: statistics.median(p[key] for p in ok) for key in ("wall_s", "peak_rss_mb")} if ok else {}
        if setups:
            values["setup_s"] = statistics.median(setups)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "passes": [{k: v for k, v in p.items() if k not in ("layer", "exact", "failures")} for p in passes],
        "spread": {
            key: spread([p[key] for p in passes if key in p])
            for key in ("setup_s", "setup_raw_s", "wall_s", "wall_raw_s", "kernel_ms", "peak_rss_mb")
        },
        "exact": exact,
        "exact_drift_from_reference": drift,
        "failures": failures[:20],
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
