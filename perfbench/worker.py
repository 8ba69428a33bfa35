"""One pass of one workload in a fresh process; prints its figures as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --mode timed|traced|setup

The pass imports ``edgemaps`` from the checkout's ``src``, builds the
workload's inputs (that is its set-up time), runs the timed operations and
prints one JSON line.  In ``traced`` mode the whole pass, import included,
runs under ``cProfile`` and the line adds each layer's calls and self time.
In ``setup`` mode the pass stops after the set-up and reports only its time.
Outside ``traced`` mode a ``calibrate.Sampler`` reads the host's speed all
through the pass, and the times are also reported scaled to an unloaded core.
"""
from __future__ import annotations

import argparse
import inspect
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The package modules, each one layer.
LAYERS = (
    "graphs",
    "canon",
    "oracles",
    "mapping",
    "detect",
    "constructions",
    "extract",
    "bounds",
    "search",
    "reproduce",
)


def _code_keys(code: types.CodeType) -> list[tuple]:
    """Profile keys of a code object and of every function nested in it."""
    keys = [(code.co_filename, code.co_firstlineno, code.co_name)]
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            keys += _code_keys(const)
    return keys


def _keys(module, dotted: str) -> list[tuple]:
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    code = getattr(inspect.unwrap(obj), "__code__", None) if obj is not None else None
    return _code_keys(code) if code is not None else []


def _count_copies(counts: dict) -> None:
    """Wrap enumerate_copies at every import site to count its invocations
    (cProfile counts each resumption of a generator as a call)."""
    from edgemaps import graphs

    original = graphs.enumerate_copies

    def counted(*args, **kwargs):
        counts["enumerate_copies"] = counts.get("enumerate_copies", 0) + 1
        return original(*args, **kwargs)

    counted.__wrapped__ = original
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("edgemaps") and getattr(mod, "enumerate_copies", None) is original:
            mod.enumerate_copies = counted


def profile_metrics(stats: dict, counts: dict) -> dict:
    """Per-layer calls and self time from a cProfile stats table."""
    from edgemaps import canon, graphs, search

    files = {str(SRC / "edgemaps" / f"{layer}.py"): layer for layer in LAYERS}
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        layer = files.get(filename)
        if layer is not None:
            out[f"{layer}.self_s"] += tottime

    def total(keys, field):
        return sum(stats[k][field] for k in keys if k in stats)

    ncalls, tottime, cumtime = 1, 2, 3
    codec = _keys(graphs, "edge_id") + _keys(graphs, "edge_pair")
    copies = _keys(graphs, "enumerate_copies")
    certify = _keys(search, "_certify_at")[:1]
    out.update(
        {
            "graphs.codec.calls": total(codec, ncalls),
            "graphs.codec.self_s": total(codec, tottime),
            "graphs.copies.calls": counts.get("enumerate_copies", 0),
            "graphs.copies.self_s": total(copies, tottime),
            "canon.code.calls": total(_keys(canon, "canonical_code")[:1], ncalls),
            "search.table_s": total(_keys(search, "_Engine.__init__")[:1], cumtime),
            "detect.leaf_s": total(_keys(search, "_Engine._leaf")[:1], cumtime),
            "bounds.certify.calls": total(certify, ncalls),
            "bounds.certify_s": total(certify, cumtime),
        }
    )
    return out


def run_pass(workload: str, seed: int, mode: str) -> dict:
    traced = mode == "traced"
    profiler = None
    sampler = None
    if traced:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    else:
        sampler = calibrate.Sampler()
        sampler.start()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import edgemaps

    if Path(edgemaps.__file__).resolve().parent != SRC / "edgemaps":
        raise RuntimeError(f"imported edgemaps from {edgemaps.__file__}, not from {SRC}")
    counts: dict[str, int] = {}
    if traced:
        _count_copies(counts)
    import workloads

    body = workloads.WORKLOADS[workload](seed)
    end = time.perf_counter()
    setup_s = end - start - (sampler.spent if sampler is not None else 0.0)
    p = workloads.Pass(sampler)
    if mode != "setup":
        body(p)
    if profiler is not None:
        profiler.disable()
    setup_norm_s = setup_s
    if sampler is not None:
        sampler.stop()
        setup_norm_s *= sampler.scale(start, end)
    if mode == "setup":
        return {"setup_s": setup_norm_s, "setup_raw_s": setup_s}
    layer = dict(p.layer)
    _derived(layer)
    if profiler is not None:
        import pstats

        layer.update(profile_metrics(pstats.Stats(profiler).stats, counts))
        classes = p.exact.get("canon.classes7", 0) + p.exact.get("canon.classes8_m10", 0)
        calls = layer["canon.code.calls"]
        layer["canon.useful_ratio"] = classes / calls if calls else 0.0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_norm_s,
        "setup_raw_s": setup_s,
        "wall_s": p.normalized(),
        "wall_raw_s": p.wall,
        "kernel_ms": statistics.median(sampler.kernel_s) * 1e3 if sampler else 0.0,
        "peak_rss_mb": rss_kb / 1024,
        "attempted": p.attempted,
        "failures": p.failures,
        "layer": layer,
        "exact": p.exact,
    }


def _derived(layer: dict) -> None:
    """Ratios over the pass's sums; a ratio with an empty base is 0."""

    def ratio(a: str, b: str) -> float:
        base = layer.get(b, 0)
        return layer.get(a, 0) / base if base else 0.0

    layer["search.nodes_per_s"] = ratio("search.serial_nodes", "search.walk_s")
    layer["search.parallel_waste"] = ratio("search.pair.parallel_nodes", "search.pair.serial_nodes")
    layer["search.parallel_speedup"] = ratio("search.pair.serial_s", "search.pair.parallel_s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "traced", "setup"), required=True)
    args = ap.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, args.mode)))


if __name__ == "__main__":
    main()
