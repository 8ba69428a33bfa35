#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and write one JSON summary.

    python3 scripts/bench_pairs.py --parent REV [--change REV] --seeds 3101-3110 \\
        [--workloads witness,exhaust,catalogue,verify] [--seconds 20] \\
        [--claim verify:wall_s] [--out BENCH_N.json]

Each side runs ``perfbench/run.py --trace 0`` unchanged, from its own copy
of the tree: ``git archive`` of REV, or, without ``--change``, the working
tree's tracked and untracked files that git does not ignore.  Pair i runs
both sides on seed i, and the side that runs first alternates from pair to
pair.  Both sides run with ``PYTHONDONTWRITEBYTECODE=1``, so every pass
compiles the package from source.

The summary holds, per workload and end-to-end metric, each side's median
and quartiles (inclusive method), how many pairs the change wins, the
change/parent ratio of the medians and every pair's values; per workload,
whether the exact counters agree in every pair; with ``--claim``, whether
the change wins at least nine pairs in ten and its median differs from the
parent's by more than the parent's interquartile range; and a guard on
every other (workload, metric) pair: ``ok`` when the change's median is
within the metric's ``bound`` in BENCHMARK.json (a fraction of the parent's
median), ``worse`` when it is not, and ``unresolved`` when the parent's
interquartile range is wider than the bound, unless every change run beats
every parent run.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``3101-3110`` or ``1,5,9``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def export(rev: str | None, dest: Path) -> str:
    """Write a copy of REV (or of the working tree) under dest; returns its label."""
    dest.mkdir(parents=True)
    if rev is not None:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest)
        return subprocess.run(
            ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return "working tree"


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result line, with the report's exact counters."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, the two sides' quartiles, wins and pairs."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [[r[side]["metrics"][name]["value"] for side in ("parent", "change")] for r in runs]
        parent, change = zip(*pairs)
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        out[name] = {
            "unit": m["unit"],
            "parent": quartiles(list(parent)),
            "change": quartiles(list(change)),
            "change_wins": wins,
            "change_over_parent_median": round(statistics.median(change) / statistics.median(parent), 4),
            "per_pair": [[round(p, 4), round(c, 4)] for p, c in pairs],
        }
    return out


def guard(m: dict, bound: float, lower: bool) -> dict:
    """Whether the change's median stays within ``bound`` of the parent's."""
    parent, change = m["parent"]["median"], m["change"]["median"]
    slack = bound * parent
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    runs = list(zip(*m["per_pair"]))
    if lower:
        beats_all, within = max(runs[1]) < min(runs[0]), change <= parent + slack
    else:
        beats_all, within = min(runs[1]) > max(runs[0]), change >= parent - slack
    if iqr > slack and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "ok" if within else "worse"
    return {
        "bound": bound,
        "parent_median": parent,
        "change_median": change,
        "allowed_change": round(slack, 4),
        "parent_iqr": round(iqr, 4),
        "verdict": verdict,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--change", help="git revision of the change side (default: the working tree)")
    ap.add_argument("--seeds", required=True, help="one seed per pair: 3101-3110 or 1,5,9")
    ap.add_argument("--workloads", default="witness,exhaust,catalogue,verify")
    ap.add_argument("--seconds", type=float, default=20.0, help="seconds per run")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--out", help="file to write the summary to (default: standard output)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        labels = {"parent": export(args.parent, trees["parent"]),
                  "change": export(args.change, trees["change"])}
        end_to_end, exact, machine = {}, {}, None
        for workload in workloads:
            runs, first = [], []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {side: run_side(trees[side], workload, seed, args.seconds) for side in order}
                runs.append(run)
                first.append(order[0])
                machine = machine or run["parent"]["report"]["machine"]
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} wall_s {run[side]['metrics']['wall_s']['value']:.4f}" for side in order
                ), file=sys.stderr)
            end_to_end[workload] = {
                "seeds": seeds,
                "pairs": len(runs),
                "failed": {side: sum(r[side]["failed"] for r in runs) for side in trees},
                "attempted": {side: sum(r[side]["attempted"] for r in runs) for side in trees},
                "correct": all(r[side]["correct"] for r in runs for side in trees),
                **summarize(runs, metrics),
                "first_side": first,
            }
            exact[workload] = {
                "equal_in_every_pair": all(
                    r["parent"]["report"]["exact"] == r["change"]["report"]["exact"] for r in runs
                ),
                "counters": len(runs[0]["change"]["report"]["exact"]),
                "change": runs[0]["change"]["report"]["exact"],
            }

    summary = {
        "parent": labels["parent"],
        "change": labels["change"],
        "machine": machine,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "method": (
            "alternating parent/change pairs, each side run from its own copy of the tree; "
            "the side that runs first alternates per pair (first_side); quartiles are "
            "inclusive-method over the runs of one side; PYTHONDONTWRITEBYTECODE=1 on both sides"
        ),
    }
    if args.claim:
        workload, name = args.claim.split(":")
        m = end_to_end[workload][name]
        lower = next(x for x in metrics if x["name"] == name)["better"] == "lower"
        parent_iqr = m["parent"]["q3"] - m["parent"]["q1"]
        gain = m["parent"]["median"] - m["change"]["median"]
        pairs = end_to_end[workload]["pairs"]
        summary["claim"] = {
            "workload": workload,
            "metric": name,
            "parent_median": m["parent"]["median"],
            "change_median": m["change"]["median"],
            "parent_iqr": round(parent_iqr, 4),
            "change_wins": m["change_wins"],
            "pairs": pairs,
            "met": m["change_wins"] >= math.ceil(0.9 * pairs)
            and (gain if lower else -gain) > parent_iqr,
        }
    summary["guards"] = {
        f"{workload}:{m['name']}": guard(end_to_end[workload][m["name"]], m["bound"], m["better"] == "lower")
        for workload in workloads
        for m in metrics
        if f"{workload}:{m['name']}" != args.claim
    }
    summary["end_to_end"] = end_to_end
    summary["exact"] = exact
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
