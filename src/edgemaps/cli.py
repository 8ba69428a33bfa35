"""Command-line front end.

Every subcommand renders one record: a plain dict of inputs and results.
``--json`` emits it as JSON; the default text form prints the same keys and
values line by line, so the two modes never disagree on content.  The one
exception is ``reproduce``, whose text form is a summary: per run its
status, wall time and the first 16 characters of its digest, then each
claim's status and name, with the detail of each claim that did not pass;
``--json`` gives the whole records.  All configuration arrives through
flags; the only environment variable read is EDGEMAP_THREADS, the default
worker count for searches.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from fractions import Fraction

from . import constructions, detect
from .bounds import (
    certifiers_of,
    certify_at,
    ex_value,
    tree_star_exclusive_upper,
    w_bounds,
    w_clique_bounds,
    w_star_upper,
)
from .graphs import PatternGraph, edge_pair, load_pattern, make_pattern
from .mapping import EdgeMapping, MappingClass, format_mapping, parse_mapping
from .oracles import ex_bruteforce, pair_cover_max, supersat_min
from .reproduce import MANIFEST, RunContext, run_all, run_manifest
from .search import (
    PARAMETERS,
    AvoidanceSpec,
    compute_parameter,
    exists_avoiding,
    shift_capacity,
    SearchOptions,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SKIPPED = 3


def _pattern_arg(text: str) -> PatternGraph:
    """Family spec ("K4", "3K2", ...) or @file holding edge-list/graph6."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return load_pattern(fh.read())
    return make_pattern(text)


def _relation_arg(text: str) -> tuple[str, PatternGraph]:
    """RELATION:PATTERN, as ``verify --claim`` and ``search --avoid`` take it."""
    rel, _, spec = text.partition(":")
    if rel not in detect.FINDERS or not spec:
        raise ValueError(f"{text!r} is not RELATION:PATTERN")
    return rel, _pattern_arg(spec)


def _read_mapping(path: str) -> EdgeMapping:
    if path == "-":
        return parse_mapping(sys.stdin.read())
    with open(path) as fh:
        return parse_mapping(fh.read())


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _print_text(record: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in record.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _print_text(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {value}")


def _emit(record: dict, as_json: bool) -> None:
    record = _jsonable(record)
    if as_json:
        print(json.dumps(record, indent=2))
    else:
        _print_text(record)


# ---------------------------------------------------------------------------
# subcommands


_BUILDERS = {
    "modular_shift": constructions.modular_shift,
    "fixed_clique_partition": constructions.fixed_clique_partition,
    "star_shift": constructions.star_shift,
    "tripartite_hall": constructions.tripartite_hall,
    "frobenius_tree_lower": constructions.frobenius_tree_lower,
    "cycle_decomp_star_exclusive": constructions.cycle_decomp_star_exclusive,
    "chromatic_blocks": constructions.chromatic_blocks,
    "k4_involution": constructions.k4_involution,
    "matching_3k2": constructions.matching_3k2,
    "pentagon_involution": constructions.pentagon_involution,
    "z7_difference": constructions.z7_difference,
}


def _cmd_construct(args) -> int:
    builder = _BUILDERS[args.name]
    params = list(inspect.signature(builder).parameters)
    if len(args.params) != len(params):
        names = " ".join(params) if params else "(no parameters)"
        print(f"error: {args.name} takes {names}", file=sys.stderr)
        return EXIT_USAGE
    res = builder(*args.params)
    record = {
        "construction": args.name,
        "parameters": dict(zip(params, args.params)),
        "n": res.mapping.n,
        "provenance": res.provenance,
        "verified_absences": [[rel, str(P)] for rel, P in res.claims],
        "mapping": list(res.mapping.images),
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_mapping(res.mapping))
        record["written_to"] = args.out
    _emit(record, args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    mapping = _read_mapping(args.mapping)
    checks = []
    ok_all = True
    if args.klass:
        cls = MappingClass(args.klass)
        ok = cls.admits(mapping)
        ok_all = ok_all and ok
        checks.append({"check": f"class {args.klass}", "status": "PASS" if ok else "FAIL"})
    for claim in args.claim or ():
        rel, P = _relation_arg(claim)
        cert = detect.FINDERS[rel](mapping, P)
        ok = cert is None
        ok_all = ok_all and ok
        entry = {"check": f"no {rel} {P}", "status": "PASS" if ok else "FAIL"}
        if cert is not None:
            entry["counterexample_embedding"] = list(cert.embedding)
        checks.append(entry)
    record = {
        "mapping_vertices": mapping.n,
        "checks": checks,
        "status": "PASS" if ok_all else "FAIL",
    }
    _emit(record, args.json)
    return EXIT_OK if ok_all else EXIT_FAIL


def _cmd_detect(args) -> int:
    mapping = _read_mapping(args.mapping)
    P = _pattern_arg(args.pattern)
    cert = detect.FINDERS[args.relation](mapping, P)
    record = {
        "relation": args.relation,
        "pattern": str(P),
        "mapping_vertices": mapping.n,
        "found": cert is not None,
    }
    if cert is not None:
        record["embedding"] = list(cert.embedding)
        record["copy_edges"] = [list(edge_pair(e)) for e in cert.copy_edge_ids()]
    _emit(record, args.json)
    return EXIT_OK


def _cmd_bound(args) -> int:
    op = args.op
    record: dict = {"op": op}
    if op == "ex":
        exg = ex_value(args.n, _pattern_arg(args.pattern))
        record.update(
            n=args.n, pattern=args.pattern, value=exg.value,
            source=exg.source, flags=list(exg.flags),
        )
    elif op == "certify":
        G = _pattern_arg(args.g)
        H = _pattern_arg(args.h) if args.h else None
        if (H is None) != (len(PARAMETERS[args.parameter][1]) == 1):
            raise ValueError("g takes --g alone; m and m_star need --h as well")
        record.update(
            parameter=args.parameter, g=args.g, h=args.h,
            d=args.d if H is None else None, n=args.n,
        )
        rows = []
        for c in certifiers_of(args.parameter, args.d):
            flags = c.fires(G, H, args.n)
            rows.append({"certifier": c.name, "fires": flags is not None, "flags": list(flags or ())})
        first = certify_at(args.parameter, G, H, args.d, args.n)
        record.update(
            certifiers=rows,
            first=None if first is None else {"certifier": first[0], "flags": list(first[1])},
        )
    elif op == "w-star":
        record.update(r=args.r, upper=w_star_upper(args.r))
    elif op == "w-clique":
        record.update(k=args.k, report=w_clique_bounds(args.k).as_dict())
    elif op == "w-general":
        record.update(k=args.k, m=args.m, report=w_bounds(args.k, args.m).as_dict())
    elif op == "tree-star":
        record.update(
            k=args.k, r=args.r, upper=tree_star_exclusive_upper(args.k, args.r),
            note="assumes the tree edge-density bound",
        )
    elif op == "capacity":
        rep = shift_capacity(
            args.n, _pattern_arg(args.pattern), exclusive=args.exclusive,
            budget=args.budget,
        )
        record.update(
            n=args.n, pattern=args.pattern, relation=rep.relation, value=rep.value,
            exact=rep.exact, flags=list(rep.flags),
            witness=None if rep.witness is None else list(rep.witness.images),
        )
    _emit(record, args.json)
    return EXIT_OK


def _cmd_search(args) -> int:
    spec = AvoidanceSpec(
        args.n, MappingClass(args.klass), tuple(_relation_arg(a) for a in args.avoid or ())
    )
    out = exists_avoiding(spec, SearchOptions(budget=args.budget, workers=args.workers))
    _emit(out.as_dict(), args.json)
    return EXIT_SKIPPED if out.verdict == "TIMEOUT" else EXIT_OK


def _cmd_compute(args) -> int:
    G = _pattern_arg(args.g)
    H = _pattern_arg(args.h) if args.h else None
    report = compute_parameter(
        args.parameter, G, H=H, d=args.d, n_max=args.n_max,
        options=SearchOptions(budget=args.budget, workers=args.workers),
    )
    _emit(report.as_dict(), args.json)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    P = _pattern_arg(args.pattern)
    record: dict = {"oracle": args.kind, "pattern": str(P), "n": args.n}
    if args.kind == "ex":
        record["value"] = ex_bruteforce(args.n, P)
    elif args.kind == "supersat":
        if args.m is None:
            print("error: supersat needs --m", file=sys.stderr)
            return EXIT_USAGE
        record["m"] = args.m
        record["value"] = supersat_min(args.n, args.m, P)
    else:
        record["value"] = pair_cover_max(args.n, P)
    _emit(record, args.json)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    if args.list:
        record = {
            "manifest": [
                {"id": mid, "description": entry.description}
                for mid, entry in MANIFEST.items()
            ]
        }
        _emit(record, args.json)
        return EXIT_OK
    ctx = RunContext(seed=args.seed, budget=args.budget, workers=args.workers)
    if args.ids:
        records = [run_manifest(mid, ctx) for mid in args.ids]
    else:
        records = run_all(ctx)
    payload = {"runs": [r.as_dict() for r in records]}
    if args.json:
        _emit(payload, True)
    else:
        for rec in records:
            print(f"== {rec.manifest_id}: {rec.status} "
                  f"({rec.wall_time:.1f}s, digest {rec.digest()[:16]})")
            for c in rec.claims:
                print(f"  {c.status:7s} {c.claim}")
                if c.status != "PASS":
                    print(f"          {c.detail}")
    if any(r.status == "FAIL" for r in records):
        return EXIT_FAIL
    if any(r.status == "SKIPPED" for r in records):
        return EXIT_SKIPPED
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _default_workers() -> int:
    raw = os.environ.get("EDGEMAP_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"EDGEMAP_THREADS must be a positive integer, not {raw!r}")
    return workers


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edgemaps",
        description="Forcing thresholds for edge mappings of complete graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    default_workers = _default_workers()

    p = sub.add_parser("construct", help="build a named mapping construction")
    p.add_argument("name", choices=sorted(_BUILDERS))
    p.add_argument("params", nargs="*", type=int, help="integer parameters, in order")
    p.add_argument("--out", help="write the mapping to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="check absence claims against a mapping file")
    p.add_argument("--mapping", required=True, help="mapping file, or - for stdin")
    p.add_argument("--claim", action="append", metavar="RELATION:PATTERN")
    p.add_argument("--klass", choices=MappingClass.KINDS, help="also check membership")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("detect", help="find one copy in a given relation")
    p.add_argument("--mapping", required=True, help="mapping file, or - for stdin")
    p.add_argument("--pattern", required=True)
    p.add_argument("--relation", required=True, choices=detect.RELATIONS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("bound", help="one certifier or closed-form value")
    bsub = p.add_subparsers(dest="op", required=True)

    def bound_op(name, **flags):
        q = bsub.add_parser(name)
        for flag, spec in flags.items():
            q.add_argument(f"--{flag}", **spec)
        q.add_argument("--json", action="store_true")
        q.set_defaults(fn=_cmd_bound)
        return q

    intreq = {"type": int, "required": True}
    patreq = {"required": True}
    bound_op("ex", n=intreq, pattern=patreq)
    q = bound_op(
        "certify", g=patreq, h={}, d={"type": int, "default": 1, "choices": (0, 1)}, n=intreq
    )
    q.add_argument("parameter", choices=("m", "m_star", "g"))
    bound_op("w-star", r=intreq)
    bound_op("w-clique", k=intreq)
    bound_op("w-general", k=intreq, m=intreq)
    bound_op("tree-star", k=intreq, r=intreq)
    q = bound_op(
        "capacity", n=intreq, pattern=patreq,
        budget={"type": float, "default": None},
    )
    q.add_argument("--exclusive", action="store_true")

    p = sub.add_parser("search", help="one avoidance search: witness, exhaustion or timeout")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--klass", choices=MappingClass.KINDS, required=True)
    p.add_argument("--avoid", action="append", metavar="RELATION:PATTERN")
    p.add_argument("--budget", type=float, help="seconds; required above the envelope")
    p.add_argument("--workers", type=int, default=default_workers)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("compute", help="bracket a forcing threshold")
    p.add_argument("parameter", choices=PARAMETERS)
    p.add_argument("--g", required=True, help="first pattern")
    p.add_argument("--h", help="second pattern (m, m_star, z)")
    p.add_argument("--d", type=int, default=1, choices=(0, 1), help="overlap budget for g")
    p.add_argument("--n-max", type=int, dest="n_max", help="largest host to search or certify")
    p.add_argument("--budget", type=float, default=60.0, help="seconds per host")
    p.add_argument("--workers", type=int, default=default_workers)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("oracle", help="exhaustive small-host values")
    p.add_argument("kind", choices=("ex", "supersat", "paircover"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="edge count (supersat only)")
    p.add_argument("--pattern", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("reproduce", help="run pinned reproduction pipelines")
    p.add_argument("ids", nargs="*", help="manifest ids (default: all)")
    p.add_argument("--list", action="store_true", help="list manifest ids and exit")
    p.add_argument("--budget", type=float, help="seconds per search")
    p.add_argument("--seed", type=int, default=RunContext().seed)
    p.add_argument("--workers", type=int, default=default_workers)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_reproduce)

    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
