"""The four benchmark workloads: their inputs, timed operations and answer checks.

Each workload has a set-up function that builds its inputs from the seed and
returns the body of one pass.  The body makes every timed call into the
program through ``Pass.op``, which times the call alone and then checks the
answer outside the timed region.  A wrong answer or an exception is a failed
operation, never a dropped one.  No search runs under a budget, so no
question can end in TIMEOUT.

The search and catalogue questions are fixed; the seed draws the mappings
of ``verify`` and the random trials of its ``extraction-trials`` entry.
"""
from __future__ import annotations

import random
import statistics
import traceback
from array import array
from math import comb
from time import perf_counter

import calibrate
from edgemaps import canon, detect, oracles
from edgemaps.bounds import triangle_supersat_lb, turan_count
from edgemaps.graphs import complete, make_pattern
from edgemaps.mapping import MappingClass, random_mapping
from edgemaps.reproduce import RunContext, certifier_assertions, run_manifest
from edgemaps.search import (
    AvoidanceSpec,
    SearchOptions,
    compute_parameter,
    exists_avoiding,
    shift_capacity,
)

FINDERS = {
    "fixed": detect.find_fixed,
    "shifted": detect.find_shifted,
    "strong_shifted": lambda f, P: detect.find_shifted(f, P, strong=True),
    "free": detect.find_free,
    "exclusive": detect.find_exclusive,
}

# Graphs on 7 vertices and on 8 vertices by edge count (OEIS A008406); the
# rows sum to 1044 and 12346 (A000088).
A008406_7 = (1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21, 10, 5, 2, 1, 1)
A008406_8_HEAD = (1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663)

VERIFY_CLASSES = ("all", "overlap_le_1", "disjoint", "fixed_or_strong")
VERIFY_SIZES = (7, 9, 11)
VERIFY_REPEATS = 48
VERIFY_PATTERNS = ("K3", "2K2", "P4", "K1,3", "K4-K2", "3K2", "C4")


class Pass:
    """Timed operations of one pass, their failures, and what they counted.

    ``wall`` sums the operations' measured seconds, less the time the
    sampler's kernel took inside them.  ``normalized()`` sums the same
    seconds, each operation's scaled by the kernel readings around it (see
    ``calibrate``).  Without a sampler (the traced pass) both are the same.
    """

    def __init__(self, sampler: calibrate.Sampler | None) -> None:
        self.sampler = sampler
        self.wall = 0.0
        self.spans = array("d")  # start, end, seconds of each operation
        self.attempted = 0
        self.failures: list[str] = []
        self.layer: dict[str, float] = {}
        self.exact: dict[str, int] = {}

    def normalized(self) -> float:
        if self.sampler is None:
            return self.wall
        spans = self.spans
        return sum(spans[i + 2] * self.sampler.scale(spans[i], spans[i + 1]) for i in range(0, len(spans), 3))

    def _timed(self, start: float, spent: float) -> float:
        end = perf_counter()
        seconds = end - start
        if self.sampler is not None:
            seconds -= self.sampler.spent - spent
        self.wall += seconds
        self.spans.extend((start, end, seconds))
        return seconds

    def add(self, key: str, value) -> None:
        self.layer[key] = self.layer.get(key, 0) + value

    def op(self, name: str, call, check, layer: str | None = None, parallel: bool = False):
        """Time ``call()`` and check its answer; return (answer, seconds) or None.

        A ``parallel`` call runs with the sampler paused: its workers hold
        both cores, and a reading then would time them, not the host."""
        self.attempted += 1
        sampler = self.sampler
        if sampler is not None and parallel:
            sampler.pause()
        spent = sampler.spent if sampler is not None else 0.0
        start = perf_counter()
        try:
            out = call()
        except Exception as exc:
            self._timed(start, spent)
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc()
            return None
        finally:
            if sampler is not None and parallel:
                sampler.resume()
        seconds = self._timed(start, spent)
        if layer is not None:
            self.add(layer, seconds)
        problem = check(out)
        if problem:
            self.failures.append(f"{name}: {problem}")
            return None
        return out, seconds


# ---------------------------------------------------------------------------
# answer checks: each returns a description of what is wrong, or ""


def _witness_problem(mapping, klass: MappingClass, avoid) -> str:
    if mapping is None:
        return "no witness mapping"
    if not klass.admits(mapping):
        return f"witness outside the {klass.kind} class"
    for rel, P in avoid:
        if FINDERS[rel](mapping, P) is not None:
            return f"witness has a {rel} copy of {P}"
    return ""


def _outcome_problem(out, spec: AvoidanceSpec, verdict: str) -> str:
    if out.verdict != verdict:
        return f"verdict {out.verdict}, expected {verdict}"
    if verdict == "WITNESS":
        return _witness_problem(out.witness, spec.klass, spec.avoid)
    return ""


def _search(p: Pass, name: str, spec: AvoidanceSpec, verdict: str, workers: int = 1):
    res = p.op(
        name,
        lambda: exists_avoiding(spec, SearchOptions(workers=workers)),
        lambda out: _outcome_problem(out, spec, verdict),
        parallel=workers > 1,
    )
    if res is None:
        return None
    out, seconds = res
    _count_search(p, name, [out])
    if workers == 1:
        p.add("search.serial_nodes", out.stats.nodes)
        p.add("search.walk_s", out.stats.wall_time)
    return out, seconds


def _count_search(p: Pass, name: str, outcomes) -> None:
    nodes = sum(o.stats.nodes for o in outcomes)
    p.exact[f"search.{name}.nodes"] = nodes
    p.add("search.nodes", nodes)
    for o in outcomes:
        for rule, count in o.stats.prunes.items():
            key = f"search.{name}.prunes.{rule}"
            p.exact[key] = p.exact.get(key, 0) + count
            p.add(f"search.prunes.{rule}", count)


def _paired(p: Pass, name: str, spec: AvoidanceSpec, verdict: str) -> None:
    """The same question serially and with two workers."""
    serial = _search(p, name, spec, verdict)
    parallel = _search(p, f"{name}.w2", spec, verdict, workers=2)
    if serial is None or parallel is None:
        return
    p.add("search.pair.serial_nodes", serial[0].stats.nodes)
    p.add("search.pair.parallel_nodes", parallel[0].stats.nodes)
    p.add("search.pair.serial_s", serial[1])
    p.add("search.pair.parallel_s", parallel[1])


def _spec(n: int, kind: str, *avoid: tuple[str, str]) -> AvoidanceSpec:
    return AvoidanceSpec(n, MappingClass(kind), tuple((rel, make_pattern(P)) for rel, P in avoid))


def _threshold_problem(value: int):
    def check(rep) -> str:
        lo = rep.lower.value if rep.lower else None
        hi = rep.upper.value if rep.upper else None
        if lo != value or hi != value:
            return f"bracket [{lo}, {hi}], expected exactly {value}"
        return ""

    return check


# ---------------------------------------------------------------------------
# workloads


def setup_witness(seed: int):
    """Questions whose answer is a WITNESS."""
    serial = [
        ("w_P4_n7", _spec(7, "disjoint", ("exclusive", "P4"))),
        ("g0_3K2_n6", _spec(6, "disjoint", ("free", "3K2"))),
        ("m_K13_P4_n6", _spec(6, "all", ("fixed", "K1,3"), ("free", "P4"))),
    ]
    paired = [
        ("mstar_P4_K12_n6", _spec(6, "fixed_or_strong", ("fixed", "P4"), ("exclusive", "K1,2"))),
        ("m_K12_3K2_n6", _spec(6, "all", ("fixed", "K1,2"), ("free", "3K2"))),
    ]
    params = [
        ("g_3K2_d1", ("g", make_pattern("3K2"), None, 1), 7),
        ("m_K3_K12", ("m", make_pattern("K3"), make_pattern("K1,2"), 1), 7),
    ]

    def body(p: Pass) -> None:
        for name, spec in serial:
            _search(p, name, spec, "WITNESS")
        for name, spec in paired:
            _paired(p, name, spec, "WITNESS")
        for name, (which, G, H, d), value in params:
            p.op(
                f"compute.{name}",
                lambda: compute_parameter(which, G, H, d=d),
                _threshold_problem(value),
            )

    return body


def setup_exhaust(seed: int):
    """Questions whose answer is EXHAUSTED."""
    serial = [
        ("m_2K2_2K2_n6", _spec(6, "all", ("fixed", "2K2"), ("free", "2K2"))),
        ("mstar_K12_K12_n6", _spec(6, "fixed_or_strong", ("fixed", "K1,2"), ("exclusive", "K1,2"))),
    ]
    paired = [("m_K12_2K2_n6", _spec(6, "all", ("fixed", "K1,2"), ("free", "2K2")))]
    certifier_specs = certifier_assertions(5)
    K12 = make_pattern("K1,2")

    def capacity_problem(rep) -> str:
        if rep.value != 6 or not rep.exact:
            return f"capacity {rep.value} (exact={rep.exact}), expected exactly 6"
        problem = _witness_problem(rep.witness, MappingClass("all"), (("free", K12),))
        if not problem and rep.witness.profile.shifted < 6:
            problem = "witness moves fewer than 6 edges"
        return problem

    def certifier_problem(outcomes) -> str:
        bad = [label for (label, _), o in zip(certifier_specs, outcomes) if o.verdict != "EXHAUSTED"]
        return f"search disagrees with certifiers on {bad}" if bad else ""

    def body(p: Pass) -> None:
        for name, spec in serial:
            _search(p, name, spec, "EXHAUSTED")
        for name, spec in paired:
            _paired(p, name, spec, "EXHAUSTED")
        p.op("shift_capacity_K12_n6", lambda: shift_capacity(6, K12), capacity_problem)
        res = p.op(
            "certifier-consistency",
            lambda: [exists_avoiding(spec) for _, spec in certifier_specs],
            certifier_problem,
        )
        if res is not None:
            _count_search(p, "certifier-consistency", res[0])
            p.add("search.serial_nodes", sum(o.stats.nodes for o in res[0]))
            p.add("search.walk_s", sum(o.stats.wall_time for o in res[0]))

    return body


def setup_catalogue(seed: int):
    """Isomorph-free catalogues and the oracles built on them, in a cold process."""
    K3 = complete(3)

    def levels_problem(want):
        def check(levels) -> str:
            got = tuple(len(level) for level in levels)
            return "" if got == want else f"level sizes {got}, expected {want}"

        return check

    def supersat_problem(n: int):
        def check(table) -> str:
            if len(table) != comb(n, 2) + 1:
                return f"table has {len(table)} entries"
            low = [m for m, t in enumerate(table) if triangle_supersat_lb(n, m) > t]
            return f"below the counting bound at m={low}" if low else ""

        return check

    def equals(want: int):
        return lambda got: "" if got == want else f"got {got}, expected {want}"

    def body(p: Pass) -> None:
        res = p.op("canon.n7", lambda: canon.graphs_by_edge_count(7), levels_problem(A008406_7), "canon.build7_s")
        if res is not None:
            p.exact["canon.classes7"] = sum(map(len, res[0]))
        res = p.op(
            "canon.n8_m10",
            lambda: canon.generate_by_edge_count(8, max_edges=len(A008406_8_HEAD) - 1),
            levels_problem(A008406_8_HEAD),
            "canon.build8_m10_s",
        )
        if res is not None:
            p.exact["canon.classes8_m10"] = sum(map(len, res[0]))
        for n in range(3, 8):
            p.op(f"supersat.n{n}", lambda: oracles.supersat_table(n, K3), supersat_problem(n), "oracles.supersat_s")
        for n in range(4, 9):
            for r in range(4, n + 1):
                p.op(
                    f"pair_cover.n{n}.K{r}",
                    lambda: oracles.pair_cover_max(n, complete(r)),
                    equals(comb(n - 3, r - 3)),
                    "oracles.pair_cover_s",
                )
        for n in range(2, 8):
            for r in range(3, max(4, n + 2)):
                p.op(
                    f"ex.n{n}.K{r}",
                    lambda: oracles.ex_bruteforce(n, complete(r)),
                    equals(turan_count(n, r)),
                    "oracles.ex_s",
                )

    return body


def setup_verify(seed: int):
    """Seeded mappings checked with every finder, plus two reproduce entries."""
    rng = random.Random(seed)
    start = perf_counter()
    mappings = [
        random_mapping(n, rng, MappingClass(kind))
        for kind in VERIFY_CLASSES
        for n in VERIFY_SIZES
        for _ in range(VERIFY_REPEATS)
    ]
    sample_s = perf_counter() - start
    patterns = [make_pattern(s) for s in VERIFY_PATTERNS]
    ctx = RunContext(seed=seed)

    def body(p: Pass) -> None:
        p.add("mapping.sample_s", sample_s)
        latencies = []
        for f in mappings:
            for P in patterns:
                for rel, find in FINDERS.items():
                    res = p.op(f"{rel}.{P}.n{f.n}", lambda: find(f, P), lambda c: _certificate_problem(f, c))
                    if res is None:
                        continue
                    cert, seconds = res
                    latencies.append(seconds)
                    p.add(f"detect.{rel}.s", seconds)
                    p.add("detect.checks", 1)
                    p.add("detect.hits", cert is not None)
        p.exact["detect.checks"] = p.layer.get("detect.checks", 0)
        p.exact["detect.hits"] = p.layer.get("detect.hits", 0)
        if latencies:
            cuts = statistics.quantiles(latencies, n=100)
            p.add("detect.checks_per_s", len(latencies) / sum(latencies))
            p.add("detect.check_p50_us", cuts[49] * 1e6)
            p.add("detect.check_p99_us", cuts[98] * 1e6)
        for entry in ("construction-suite", "extraction-trials"):
            res = p.op(
                f"reproduce.{entry}",
                lambda: run_manifest(entry, ctx),
                lambda rec: "" if rec.status == "PASS" else f"status {rec.status}",
                f"reproduce.{entry}.s",
            )
            if res is not None:
                p.exact[f"reproduce.{entry}.claims"] = len(res[0].claims)

    return body


def _certificate_problem(mapping, cert) -> str:
    if cert is None or detect.validate(mapping, cert):
        return ""
    return f"certificate {cert.kind} {cert.embedding} fails revalidation"


WORKLOADS = {
    "witness": setup_witness,
    "exhaust": setup_exhaust,
    "catalogue": setup_catalogue,
    "verify": setup_verify,
}
