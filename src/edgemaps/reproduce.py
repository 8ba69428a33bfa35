"""Pinned reproduction pipelines behind stable manifest ids.

Each manifest entry reruns one slice of the headline results from scratch:
exact thresholds by search, construction witnesses re-checked by detection,
certifier arithmetic against oracles, and the randomized extraction trials.
A run yields one RunRecord whose claims each carry PASS, FAIL, or SKIPPED
(budget ran out; never a silent pass).  Records serialize to a stable
payload that excludes wall time, so two honest runs of the same manifest
hash identically; that digest is the reproducibility check.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import constructions, detect, oracles
from .bounds import (
    CERTIFIERS,
    BoundReport,
    ex_value,
    exclusive_star_certify,
    free_star_certify,
    g_degree_check,
    m_counting_certify,
    triangle_supersat_lb,
    tree_star_exclusive_upper,
    turan_count,
    w_bounds,
    w_clique_bounds,
    w_star_upper,
)
from .extract import FunctionalDigraph, color_bounded, exclusive_star, independent_set_d1
from .graphs import (
    SimpleGraph,
    all_trees,
    complete,
    complete_minus_clique,
    edge_count,
    matching,
    path,
    star,
)
from .mapping import MappingClass, random_mapping
from .search import (
    PARAMETERS,
    AvoidanceSpec,
    SearchOptions,
    _avoidance_form,
    _deadline,
    _parameter_label,
    compute_parameter,
    exists_avoiding,
)

DEFAULT_SEED = 902613


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    status: str  # PASS | FAIL | SKIPPED
    detail: str
    data: dict

    def as_dict(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "detail": self.detail,
            "data": self.data,
        }


@dataclass
class RunRecord:
    """One manifest run: what was asked, how it was configured, what came out.

    The digest covers everything except wall time, which is the only field
    allowed to differ between two faithful runs.
    """

    manifest_id: str
    command: str
    config: dict
    seed: int
    claims: list[ClaimResult] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def status(self) -> str:
        if any(c.status == "FAIL" for c in self.claims):
            return "FAIL"
        if any(c.status == "SKIPPED" for c in self.claims):
            return "SKIPPED"
        return "PASS"

    def outputs(self) -> dict:
        return {
            "manifest_id": self.manifest_id,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "status": self.status,
            "claims": [c.as_dict() for c in self.claims],
        }

    def digest(self) -> str:
        """The sha256 of the stable payload.  ``hashlib`` loads OpenSSL, so
        it is imported here, on first use, rather than with the package."""
        import hashlib

        blob = json.dumps(self.outputs(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def as_dict(self) -> dict:
        out = self.outputs()
        out["wall_time"] = round(self.wall_time, 3)
        out["digest"] = self.digest()
        return out


@dataclass(frozen=True)
class RunContext:
    seed: int = DEFAULT_SEED
    budget: float | None = None
    workers: int = 1

    def __post_init__(self):
        # refused as every search refuses them, also by entries that run none
        _deadline(self.options().budget)

    def options(self) -> SearchOptions:
        return SearchOptions(budget=self.budget, workers=self.workers)


def _claim_pass(claim: str, ok: bool, detail: str, data: dict) -> ClaimResult:
    return ClaimResult(claim, "PASS" if ok else "FAIL", detail, data)


def _claim_skip(claim: str, reason: str, data: dict | None = None) -> ClaimResult:
    return ClaimResult(claim, "SKIPPED", reason, data or {})


def _search_claim(claim: str, verdict: str, want: str, detail: str, data: dict) -> ClaimResult:
    """A claim that one search ends in ``want``: SKIPPED when its budget ran
    out, since a TIMEOUT says nothing either way."""
    if verdict == "TIMEOUT":
        return _claim_skip(claim, "search budget exceeded")
    return _claim_pass(claim, verdict == want, detail, data)


def _bracket_claim(
    ctx: RunContext, claim: str, rep: BoundReport, value: int, detail: str | None = None, **data
) -> ClaimResult:
    """A claim that ``rep`` brackets exactly ``value``: SKIPPED when a budget
    left the bracket open."""
    lo = rep.lower.value if rep.lower else None
    hi = rep.upper.value if rep.upper else None
    if rep.status != "tight" and ctx.budget is not None:
        return _claim_skip(
            claim, "search budget exhausted before the scan closed", {"lower": lo, "upper": hi}
        )
    detail = f"bracket [{lo}, {hi}]" if detail is None else detail
    return _claim_pass(claim, lo == hi == value, detail, {"lower": lo, "upper": hi, **data})


# ---------------------------------------------------------------------------
# manifest runners


def _run_threshold_matchings(ctx: RunContext) -> list[ClaimResult]:
    cases = [
        ("g", matching(1), 0, 4, "g(K2, d=0) = 4"),
        ("g", matching(1), 1, 3, "g(K2, d=1) = 3"),
        ("g", star(2), 1, 4, "g(K1,2, d=1) = 4"),
        ("g", matching(2), 1, 5, "g(2K2, d=1) = 5"),
        ("g", matching(3), 1, 7, "g(3K2, d=1) = 7"),
    ]
    out = []
    for name, G, d, want, label in cases:
        rep = compute_parameter(name, G, d=d, options=ctx.options())
        lo, up = rep.lower, rep.upper
        detail = (
            f"lower {lo.value} ({lo.provenance}), upper {up.value if up else None} "
            f"({up.provenance if up else 'none'})"
        )
        out.append(_bracket_claim(ctx, label, rep, want, detail, want=want))
    return out


def _run_star_two_exact(ctx: RunContext) -> list[ClaimResult]:
    out = []
    pent = constructions.pentagon_involution()
    excl_p3 = (("exclusive", star(2)),)
    ok = pent.mapping.n == 5 and detect.find_any(pent.mapping, excl_p3) is None
    out.append(
        _claim_pass(
            "pentagon witness: moved-clear mapping on 5 vertices, no exclusive K1,2",
            ok,
            pent.provenance,
            {"n": 5, "images": list(pent.mapping.images)},
        )
    )

    # 60 copies, 15 edges, each image meets four copies: the counting rule
    # makes each edge claim a fresh block of four, an exact cover
    res = exists_avoiding(AvoidanceSpec(6, MappingClass("disjoint"), excl_p3), ctx.options())
    out.append(
        _search_claim(
            "exact cover exhausts n=6",
            res.verdict,
            "EXHAUSTED",
            "every moved-clear mapping on 6 vertices has an exclusive K1,2",
            {"verdict": res.verdict},
        )
    )

    seven = constructions.z7_difference()
    excl_2k2 = (("exclusive", matching(2)),)
    ok = seven.mapping.n == 7 and detect.find_any(seven.mapping, excl_2k2) is None
    out.append(
        _claim_pass(
            "difference construction: moved-clear mapping on 7 vertices, no exclusive 2K2",
            ok,
            seven.provenance,
            {"n": 7, "images": list(seven.mapping.images)},
        )
    )

    rep = compute_parameter("w", star(2), options=ctx.options())
    out.append(_bracket_claim(ctx, "w(K1,2) = 6", rep, 6))
    return out


def _run_triangle_ramsey(ctx: RunContext) -> list[ClaimResult]:
    t = complete(3)
    klass, avoid = _avoidance_form("z", t, t, 1)
    opts = ctx.options()
    v5, v6 = (exists_avoiding(AvoidanceSpec(n, klass, avoid), opts).verdict for n in (5, 6))
    rep = compute_parameter("z", t, t, options=opts)
    return [
        _search_claim(
            "5 vertices admit a coloring with no red or blue triangle",
            v5,
            "WITNESS",
            "pentagon-complement split",
            {"n": 5, "admits": v5 == "WITNESS"},
        ),
        _search_claim(
            "6 vertices force a monochromatic triangle",
            v6,
            "EXHAUSTED",
            "exhaustive avoidance search: fixed K3 + shifted K3",
            {"n": 6, "admits": v6 == "WITNESS"},
        ),
        _bracket_claim(ctx, "z(K3, K3) = 6", rep, 6),
    ]


def _suite_case(label, build, absences, extra=None):
    """One construction-suite claim: build, then re-check every absence with
    the detection module (the builder already verified its own claims)."""
    try:
        res = build()
    except (ValueError, RuntimeError) as exc:
        return _claim_pass(label, False, f"construction failed to build: {exc}", {})
    ok = detect.find_any(res.mapping, absences) is None
    detail = res.provenance
    data = {"n": res.mapping.n, "absences": [[rel, str(P)] for rel, P in absences]}
    if ok and extra is not None:
        ok, detail = extra(res)
    return _claim_pass(label, ok, detail, data)


def _fixed_graph_is_complete_bipartite(res) -> tuple[bool, str]:
    fixed = detect.fixed_graph(res.mapping)
    comps = fixed.complement().components()
    cliquish = all(
        fixed.complement().subgraph(c).m == len(c) * (len(c) - 1) // 2 for c in comps
    )
    ok = len(comps) == 2 and cliquish
    return ok, "fixed edges form a complete bipartite graph"


def _run_construction_suite(ctx: RunContext) -> list[ClaimResult]:
    out = []
    out.append(
        _suite_case(
            "z7_difference: no exclusive 2K2 on K7",
            constructions.z7_difference,
            (("exclusive", matching(2)),),
        )
    )
    out.append(
        _suite_case(
            "tripartite_hall: no fixed K1,3, no fixed P4, no free K3 on K9",
            constructions.tripartite_hall,
            (("fixed", star(3)), ("fixed", path(4)), ("free", complete(3))),
        )
    )
    for r, k in ((3, 3), (3, 4), (4, 3)):
        trees = list(all_trees(k))
        absences = tuple(("fixed", T) for T in trees) + (("shifted", complete(r)),)
        out.append(
            _suite_case(
                f"fixed_clique_partition({r},{k}): no fixed {k}-vertex tree, no shifted K{r}",
                lambda r=r, k=k: constructions.fixed_clique_partition(r, k),
                absences,
            )
        )
    tree7 = tuple(("fixed", T) for T in all_trees(7))
    out.append(
        _suite_case(
            "star_shift(7): no free 2K2, no fixed 7-vertex tree",
            lambda: constructions.star_shift(7),
            (("free", matching(2)),) + tree7,
        )
    )
    for r in (2, 3):
        nn = 2 * r - 1
        out.append(
            _suite_case(
                f"euler_partition on {nn} vertices: no free K1,{r}",
                lambda nn=nn, r=r: constructions.euler_partition(
                    SimpleGraph.empty(nn), SimpleGraph.complete(nn), r
                ),
                (("free", star(r)),),
            )
        )
        out.append(
            _suite_case(
                f"cycle_decomp_star_exclusive(3,{r}): no fixed P3, no exclusive K1,{r}",
                lambda r=r: constructions.cycle_decomp_star_exclusive(3, r),
                (("fixed", path(3)), ("exclusive", star(r))),
            )
        )
    out.append(
        _suite_case(
            "chromatic_blocks(3,2): no free K1,2, complete bipartite fixed graph",
            lambda: constructions.chromatic_blocks(3, 2),
            (("free", star(2)),),
            extra=_fixed_graph_is_complete_bipartite,
        )
    )
    return out


def _run_oracle_domination(ctx: RunContext) -> list[ClaimResult]:
    out = []
    worst = None
    holds = True
    for n in range(3, 8):
        table = oracles.supersat_table(n, complete(3))
        for m, exact in enumerate(table):
            lb = triangle_supersat_lb(n, m)
            if lb > exact:
                holds = False
                worst = (n, m, str(lb), exact)
    out.append(
        _claim_pass(
            "triangle counting bound never exceeds the exact minimum (n <= 7, all m)",
            holds,
            "exact minima from isomorph-free enumeration" if holds else f"violated at {worst}",
            {"violation": worst},
        )
    )

    bad = []
    for n in range(4, 9):
        for r in range(4, n + 1):
            got = oracles.pair_cover_max(n, complete(r))
            want = comb(n - 3, r - 3)
            if got != want:
                bad.append((n, r, got, want))
    out.append(
        _claim_pass(
            "pair-cover oracle matches the closed form for cliques (4 <= r <= n <= 8)",
            not bad,
            "binom(n-3, r-3) on every instance" if not bad else f"mismatches: {bad}",
            {"mismatches": bad},
        )
    )

    bad = []
    for n in range(2, 9):
        for r in range(3, max(4, n + 2)):
            got = oracles.ex_bruteforce(n, complete(r))
            want = turan_count(n, r)
            if got != want:
                bad.append((n, r, got, want))
    out.append(
        _claim_pass(
            "extremal oracle matches the bound for complete patterns (n <= 8)",
            not bad,
            "balanced multipartite count on every instance" if not bad else f"mismatches: {bad}",
            {"mismatches": bad},
        )
    )
    return out


def certifier_assertions(n_cap: int = 5):
    """Every registry claim of the form "parameter <= n" with n <= n_cap,
    over a fixed catalogue of small patterns, as searchable avoidance specs."""
    catalogue = [
        matching(1), star(2), star(3), star(4), path(4), path(5),
        matching(2), complete(3), complete(4), complete_minus_clique(4, 2),
    ]
    found = []
    for n in range(3, n_cap + 1):
        fits = [P for P in catalogue if P.k <= n]
        for c in CERTIFIERS:
            for H in fits if len(PARAMETERS[c.parameter][1]) == 2 else [None]:
                for G in fits:
                    if c.fires(G, H, n) is None:
                        continue
                    klass, avoid = _avoidance_form(c.parameter, G, H, c.d)
                    label = f"{_parameter_label(c.parameter, G, H, c.d)} <= {n} by {c.name}"
                    found.append((label, AvoidanceSpec(n, klass, avoid)))
    return found


def _run_certifier_consistency(ctx: RunContext) -> list[ClaimResult]:
    out = []
    opts = ctx.options()
    for label, spec in certifier_assertions(5):
        res = exists_avoiding(spec, opts)
        out.append(
            _search_claim(
                label,
                res.verdict,
                "EXHAUSTED",
                "search agrees the avoidance is impossible"
                if res.verdict == "EXHAUSTED"
                else "search found a counterexample mapping",
                {"n": spec.n, "verdict": res.verdict},
            )
        )
    return out


def _run_bound_closed_forms(ctx: RunContext) -> list[ClaimResult]:
    out = []
    out.append(
        _claim_pass(
            "degree profile closes g(K1,2) <= 4 and g(2K2) <= 5",
            g_degree_check(star(2), 4) and g_degree_check(matching(2), 5),
            "profile inequality met at the stated hosts",
            {"cases": [["K1,2", 4], ["2K2", 5]]},
        )
    )

    rows = []
    ok_all = True
    for k, r in ((3, 2), (4, 2), (5, 3)):
        want = k + 5 * r - 5
        closed = tree_star_exclusive_upper(k, r)
        fire = None
        for n in range(3, 60):
            dens = Fraction((k - 2) * n, 2)
            try:
                if exclusive_star_certify(n, dens, r):
                    fire = n
                    break
            except ValueError:
                continue
        rows.append({"k": k, "r": r, "closed_form": closed, "first_host": fire})
        ok_all = ok_all and closed == want and fire == want
    out.append(
        _claim_pass(
            "exclusive-star certifier first fires at k+5r-5 under assumed tree density",
            ok_all,
            "thresholds for (k,r) in {(3,2),(4,2),(5,3)}",
            {"rows": rows},
        )
    )

    exg = ex_value(7, complete_minus_clique(4, 2))
    ok = exg.value == 12 and free_star_certify(7, exg.value, 2)
    out.append(
        _claim_pass(
            "free-star tally closes m(K4-K2, K1,2) <= 7",
            ok,
            f"extremal count {exg.value} at n=7 leaves 9 moved edges, more than n",
            {"ex": int(exg.value), "n": 7},
        )
    )

    stars = all(w_star_upper(r) == 5 * r - 3 for r in range(2, 8))
    cliques = all(
        w_clique_bounds(k).upper.value == k * (k - 1) * (k - 2) + 4 - k // 2
        for k in range(4, 8)
    )
    general = all(
        w_bounds(k, m).upper.value == 2 * m * (k - 2) + 2
        for k in range(4, 8)
        for m in range(k - 1, edge_count(k) + 1)
    )
    out.append(
        _claim_pass(
            "closed forms for exclusive-pattern thresholds are exact integers",
            stars and cliques and general,
            "star, clique, and general forms agree with their formulas",
            {"stars": stars, "cliques": cliques, "general": general},
        )
    )
    return out


def _run_extraction_trials(ctx: RunContext) -> list[ClaimResult]:
    rng = random.Random(ctx.seed)
    trials = 1000

    failures = 0
    for _ in range(trials):
        n = rng.randrange(3, 13)
        d = rng.randrange(1, 4)
        arcs = []
        for v in range(n):
            k = rng.randrange(0, d + 1)
            targets = [u for u in range(n) if u != v]
            arcs.append(rng.sample(targets, min(k, len(targets))))
        D = FunctionalDigraph.from_arcs(n, arcs, d=d)
        colors = color_bounded(D)
        classes = [0] * (max(colors) + 1)
        for v, c in enumerate(colors):
            classes[c] |= 1 << v
        proper = not any(row & classes[c] for row, c in zip(D.undirected, colors))
        if not proper or len(set(colors)) > 2 * d + 1:
            failures += 1
    out = [
        _claim_pass(
            "greedy peeling colors out-degree-d conflicts with at most 2d+1 colors",
            failures == 0,
            f"{trials} random digraphs, {failures} failures",
            {"trials": trials, "failures": failures},
        )
    ]

    failures = 0
    for _ in range(trials):
        n = rng.randrange(2, 13)
        arcs = []
        for v in range(n):
            if rng.random() < 0.3:
                arcs.append([])
            else:
                arcs.append([rng.choice([u for u in range(n) if u != v])])
        D = FunctionalDigraph.from_arcs(n, arcs, d=1)
        m = D.zero_outdeg_count
        S = independent_set_d1(D)
        chosen = sum(1 << a for a in S)
        indep = not any(D.undirected[a] & chosen for a in S)
        want = m + -(-(n - 2 * m) // 3)
        if not indep or len(S) < want:
            failures += 1
    out.append(
        _claim_pass(
            "out-degree-1 conflicts always yield m + ceil((n-2m)/3) independent vertices",
            failures == 0,
            f"{trials} random digraphs, {failures} failures",
            {"trials": trials, "failures": failures},
        )
    )

    failures = 0
    cls = MappingClass("disjoint")
    for _ in range(trials):
        n = rng.randrange(6, 10)
        r = 1 if n < 7 else rng.randrange(1, 3)
        f = random_mapping(n, rng, cls)
        v = rng.randrange(n)
        cert = exclusive_star(f, v, r)
        if not detect.validate(f, cert):
            failures += 1
    out.append(
        _claim_pass(
            "extracted exclusive stars always pass detection revalidation",
            failures == 0,
            f"{trials} random moved-clear mappings, {failures} failures",
            {"trials": trials, "failures": failures},
        )
    )
    return out


def _run_tree_triangle(ctx: RunContext) -> list[ClaimResult]:
    out = []
    for k in (3, 4, 5):
        n = 2 * k + 2
        dens = Fraction((k - 2) * n, 2)
        try:
            fired = m_counting_certify(n, dens, complete(3))
        except ValueError:
            fired = False
        out.append(
            _claim_pass(
                f"copy counting closes m(T, K3) <= {n} for {k}-vertex trees (assumed density)",
                fired,
                "every edge budget above the density leaves an undestroyed triangle",
                {"k": k, "n": n},
            )
        )
    return out


@dataclass(frozen=True)
class ManifestEntry:
    description: str
    runner: object


MANIFEST: dict[str, ManifestEntry] = {
    "matching-thresholds": ManifestEntry(
        "exact free-matching forcing thresholds by search", _run_threshold_matchings
    ),
    "two-star-exclusive": ManifestEntry(
        "the 2-star exclusive threshold: pentagon witness, exact cover, difference mapping",
        _run_star_two_exact,
    ),
    "triangle-ramsey": ManifestEntry(
        "fixed-or-moved triangle threshold equals the classical value 6",
        _run_triangle_ramsey,
    ),
    "construction-suite": ManifestEntry(
        "every shipped construction rebuilds and passes its absence claims",
        _run_construction_suite,
    ),
    "oracle-domination": ManifestEntry(
        "closed-form bounds never exceed exhaustive oracle values",
        _run_oracle_domination,
    ),
    "certifier-consistency": ManifestEntry(
        "small-host certifier assertions agree with exhaustive search",
        _run_certifier_consistency,
    ),
    "bound-closed-forms": ManifestEntry(
        "certifier and closed-form arithmetic regression", _run_bound_closed_forms
    ),
    "extraction-trials": ManifestEntry(
        "randomized guarantees of the extraction lemmas (seeded)", _run_extraction_trials
    ),
    "tree-triangle": ManifestEntry(
        "copy counting closes the tree-vs-triangle threshold at 2k+2",
        _run_tree_triangle,
    ),
}


def run_manifest(manifest_id: str, ctx: RunContext | None = None) -> RunRecord:
    """Run one pinned pipeline and return its record."""
    if manifest_id not in MANIFEST:
        known = ", ".join(sorted(MANIFEST))
        raise ValueError(f"unknown manifest id {manifest_id!r}; known ids: {known}")
    ctx = ctx or RunContext()
    record = RunRecord(
        manifest_id=manifest_id,
        command=f"reproduce {manifest_id}",
        config={"budget": ctx.budget, "workers": ctx.workers},
        seed=ctx.seed,
    )
    start = time.perf_counter()
    record.claims = MANIFEST[manifest_id].runner(ctx)
    record.wall_time = time.perf_counter() - start
    return record


def run_all(ctx: RunContext | None = None) -> list[RunRecord]:
    return [run_manifest(mid, ctx) for mid in MANIFEST]
