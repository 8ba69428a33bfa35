import itertools
import math
import multiprocessing
import time
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgemaps import bounds, detect, search
from edgemaps.bounds import EXTERNAL_CAPACITY
from edgemaps.graphs import (
    SimpleGraph,
    complete,
    edge_count,
    edge_id,
    edge_pair,
    enumerate_copies,
    make_pattern,
    matching,
    union,
)
from edgemaps.mapping import EdgeMapping, MappingClass
from edgemaps.search import (
    ENVELOPE,
    AvoidanceSpec,
    SearchOptions,
    compute_parameter,
    exists_avoiding,
    shift_capacity,
)

OV1 = MappingClass("overlap_le_1")
DISJ = MappingClass("disjoint")
ALL = MappingClass("all")

FREE_2K2 = (("free", make_pattern("2K2")),)
FREE_P3 = (("free", make_pattern("K1,2")),)
EXCL_P3 = (("exclusive", make_pattern("K1,2")),)


def test_spec_validation():
    with pytest.raises(ValueError):
        AvoidanceSpec(4, OV1, (("sideways", make_pattern("K2")),))
    # no mapping avoids an edgeless pattern in any relation
    for rel in detect.RELATIONS:
        with pytest.raises(ValueError):
            AvoidanceSpec(1, ALL, ((rel, make_pattern("K1")),))
    with pytest.raises(ValueError):
        shift_capacity(2, make_pattern("K1"))
    # degenerate hosts are legal: no edges means nothing to avoid
    tiny = exists_avoiding(AvoidanceSpec(1, OV1, FREE_2K2))
    assert tiny.verdict == "WITNESS" and tiny.witness.images == ()


def test_envelope_guard():
    avoid_fixed_edge = (("fixed", make_pattern("K2")),)
    n = ENVELOPE["all"] + 1
    with pytest.raises(ValueError):
        exists_avoiding(AvoidanceSpec(n, ALL, avoid_fixed_edge))
    # a budget opens the gate; any fixed-point-free mapping settles it instantly
    out = exists_avoiding(AvoidanceSpec(n, ALL, avoid_fixed_edge), SearchOptions(budget=5.0))
    assert out.verdict == "WITNESS"


def test_matching_threshold_scan():
    # n = 4 still dodges a free 2K2; n = 5 cannot
    out4 = exists_avoiding(AvoidanceSpec(4, OV1, FREE_2K2))
    assert out4.verdict == "WITNESS"
    assert out4.witness.images == (1, 0, 0, 2, 1, 0)
    out5 = exists_avoiding(AvoidanceSpec(5, OV1, FREE_2K2))
    assert out5.verdict == "EXHAUSTED"
    assert out5.witness is None


def test_single_edge_thresholds():
    # overlap <= 1 forbids fixed points, so nonempty classes force a free edge
    out = exists_avoiding(AvoidanceSpec(3, OV1, (("free", make_pattern("K2")),)))
    assert out.verdict == "EXHAUSTED"
    # with disjointness the class is empty through n = 3
    assert DISJ.is_empty(3)
    out4 = exists_avoiding(AvoidanceSpec(4, DISJ, (("free", make_pattern("K2")),)))
    assert out4.verdict == "EXHAUSTED"


def test_empty_class_reports_exhausted_without_search():
    out = exists_avoiding(AvoidanceSpec(3, DISJ, FREE_2K2))
    assert out.verdict == "EXHAUSTED"
    assert out.stats.nodes == 0


_COUNTING_TABLES = search._Engine._counting_tables


def _no_counting(self, total, through, kill):
    """The counting rule's tables with a floor every destroyed-copy count
    meets, which switches the rule off."""
    floor, _ = _COUNTING_TABLES(self, total, through, kill)
    return [0] * len(floor), 0


@pytest.mark.parametrize("sym,count", itertools.product((False, True), repeat=2))
def test_devices_never_change_the_answer(monkeypatch, sym, count):
    # the two pruning devices are always on; a True here switches one off
    # by patching the engine, and the answers must not move.  Lookahead
    # narrowing is no device: it is how the engine enforces copies.
    mixed_spec = AvoidanceSpec(4, ALL, (("fixed", make_pattern("K1,2")),) + FREE_2K2)
    mixed_ref = exists_avoiding(mixed_spec)
    excl_spec = AvoidanceSpec(5, DISJ, EXCL_P3)
    excl_ref = exists_avoiding(excl_spec)
    engine = search._Engine
    if sym:
        monkeypatch.setattr(
            engine, "_initial_group", lambda self: [tuple(range(self.m_edges))]
        )
    if count:
        monkeypatch.setattr(engine, "_counting_tables", _no_counting)
    out4 = exists_avoiding(AvoidanceSpec(4, OV1, FREE_2K2))
    assert out4.verdict == "WITNESS"
    assert out4.witness.images == (1, 0, 0, 2, 1, 0)
    out5 = exists_avoiding(AvoidanceSpec(5, OV1, FREE_2K2))
    assert out5.verdict == "EXHAUSTED"
    mixed = exists_avoiding(mixed_spec)
    assert mixed.verdict == "WITNESS"
    assert mixed.witness.images == mixed_ref.witness.images
    excl = exists_avoiding(excl_spec)
    assert excl.verdict == "WITNESS"
    assert excl.witness.images == excl_ref.witness.images
    # the patches take hold
    prunes = out5.stats.prunes
    assert sym == (prunes.get("symmetry", 0) == 0)
    assert count == (prunes.get("counting", 0) == 0)


# -- brute-force reference ----------------------------------------------------


def _pools(klass, n, moved_first=False):
    """Each edge's admissible images in the engine's order: the fixed image
    first, then the moved ones by edge id (moved first for shift_capacity)."""
    m = edge_count(n)
    pools = []
    for e in range(m):
        moved = [x for x in range(m) if x != e and klass.value_ok(e, x)]
        own = [e] if klass.value_ok(e, e) else []
        pools.append(moved + own if moved_first else own + moved)
    return pools


def _all_mappings(pools):
    """Every mapping drawing images from ``pools``, one per row, in the order
    ``itertools.product(*pools)`` lists them."""
    total = math.prod(len(p) for p in pools)
    out = np.empty((total, len(pools)), dtype=np.int64)
    if total == 0:
        return out
    rows = np.arange(total)
    for e in reversed(range(len(pools))):
        pool = np.array(pools[e], dtype=np.int64)
        out[:, e] = pool[rows % len(pool)]
        rows //= len(pool)
    return out


def _copies(P, n):
    """(edge ids, vertex set) of every copy of P in K_n, from all injective
    vertex maps."""
    found = set()
    for emb in itertools.permutations(range(n), P.k):
        eids = frozenset(edge_id(emb[a], emb[b]) for a, b in P.graph.pairs())
        found.add((eids, frozenset(emb)))
    return found


def _edge_holds(rel, e, x, eids, verts):
    """Whether edge e of a copy, sent to x, is as the relation asks."""
    if rel == "fixed":
        return x == e
    if rel == "shifted":
        return x != e
    if rel == "strong_shifted":
        return not set(edge_pair(e)) & set(edge_pair(x))
    if rel == "free":
        return x not in eids
    return not set(edge_pair(x)) & verts


def _avoiders(n, avoid, maps):
    """Row mask of the mappings in ``maps`` that hold no listed copy."""
    m = edge_count(n)
    good = np.ones(len(maps), dtype=bool)
    for rel, P in avoid:
        for eids, verts in _copies(P, n):
            present = np.ones(len(maps), dtype=bool)
            for e in eids:
                holds = np.array([_edge_holds(rel, e, x, eids, verts) for x in range(m)])
                present &= holds[maps[:, e]]
            good &= ~present
    return good


# the specs whose kill rows are read: each relation alone on one pattern,
# and two or three relations at once, whose copies share one numbering; the
# last lists K1,2 twice, so its second table is read at a nonzero offset
KILL_SPECS = {
    "K1,2": [((rel, "K1,2"),) for rel in detect.RELATIONS],
    "2K2": [((rel, "2K2"),) for rel in detect.RELATIONS],
    "fixed:K1,2+free:2K2": [(("fixed", "K1,2"), ("free", "2K2"))],
    "fixed:K1,2+free:K1,2+exclusive:2K2": [
        (("fixed", "K1,2"), ("free", "K1,2"), ("exclusive", "2K2"))
    ],
}


@pytest.mark.parametrize("specs", KILL_SPECS.values(), ids=KILL_SPECS)
def test_kill_rows_read_every_relation(specs):
    # one kill rule per relation, and each one's kill rows destroy a copy
    # exactly where the reference says the edge breaks the relation; the
    # copies are numbered pattern by pattern in avoid order, and a copy's
    # destroyers are its column of its last edge's kill row
    assert set(search._KILLS) == set(detect.RELATIONS)
    for n, avoid in itertools.product((4, 5), specs):
        m = edge_count(n)
        avoid = tuple((rel, make_pattern(p)) for rel, p in avoid)
        numbered = []
        for rel, P in avoid:
            copies = [
                (frozenset(edge_id(emb[a], emb[b]) for a, b in P.graph.pairs()), frozenset(emb))
                for emb in enumerate_copies(P, SimpleGraph.complete(n))
            ]
            assert set(copies) == _copies(P, n) and len(copies) == len(set(copies))
            numbered += [(rel, eids, verts) for eids, verts in copies]
        engine = search._Engine(AvoidanceSpec(n, ALL, avoid))
        assert len(engine.ends) == len(numbered)
        for c, (rel, eids, verts) in enumerate(numbered):
            for e in range(m):
                for x in range(m):
                    breaks = e in eids and not _edge_holds(rel, e, x, eids, verts)
                    assert (engine.kill[e][x] >> c & 1) == breaks, (n, rel, eids, e, x)
            f = engine.ends[c]
            assert f == max(eids)
            column = sum(1 << x for x in range(m) if engine.kill[f][x] >> c & 1)
            assert engine.destroyers[c] == column, (n, rel, eids)


def _tables(engine):
    names = "kill second ends destroyers allowed pools pool_masks floor maxdiff"
    return [getattr(engine, name) for name in names.split()]


def test_copy_tables_are_not_shared_between_engines():
    # spec B shares the free K1,2 table with spec A; B's engine reads it
    # from the cache after A's walk, writes into A's lists leak nowhere,
    # and B's tables equal those of a build from an empty cache
    n = 5
    P3, M2 = make_pattern("K1,2"), make_pattern("2K2")
    spec_a = AvoidanceSpec(n, ALL, (("fixed", M2), ("free", P3)))
    spec_b = AvoidanceSpec(n, ALL, (("free", P3), ("exclusive", M2)))
    search._copy_table.cache_clear()
    expect = _tables(search._Engine(spec_b))
    search._copy_table.cache_clear()
    a = search._Engine(spec_a)
    a.run()
    a.kill[0][1] = a.kill[3][3] = -1
    a.allowed[2] = 0
    b = search._Engine(spec_b)
    assert _tables(b) == expect
    b.kill[1][0] = -1
    b.allowed[0] = 0
    assert _tables(search._Engine(spec_b)) == expect
    assert search._copy_table.cache_info().hits > 0


@pytest.mark.parametrize("kind", MappingClass.KINDS)
@pytest.mark.parametrize("rel", detect.RELATIONS)
def test_pools_keep_one_image_per_signature(rel, kind):
    # an image's signature at e is whether it moves e and which copies it
    # destroys there, of each relation, read from the reference relations
    klass = MappingClass(kind)
    avoid = ((rel, make_pattern("K1,2")), (rel, make_pattern("2K2")))
    for n in (5, 6):
        copies = [list(_copies(P, n)) for _, P in avoid]
        for objective in (None, 0):
            engine = search._Engine(AvoidanceSpec(n, klass, avoid), objective=objective)
            for e, pool in enumerate(_pools(klass, n, moved_first=objective is not None)):
                firsts = {}
                for x in pool:
                    sig = (x != e,) + tuple(
                        frozenset(
                            i
                            for i, (eids, verts) in enumerate(cs)
                            if e in eids and not _edge_holds(rel, e, x, eids, verts)
                        )
                        for cs in copies
                    )
                    firsts.setdefault(sig, x)
                # one image per signature, the first in pool order
                assert engine.pools[e] == list(firsts.values()), (n, objective, e)
                assert engine.pool_masks[e] == sum(1 << x for x in firsts.values())
                assert klass.value_ok(e, e) == (e in engine.pools[e])


MAX_SPACE = 59049
SMALL_SPACES = [
    (kind, n)
    for kind in MappingClass.KINDS
    for n in range(1, 6)
    if math.prod(map(len, _pools(MappingClass(kind), n))) <= MAX_SPACE
]
PATTERNS = ("K2", "K1,2", "2K2", "K3", "P4", "K1,3", "C4", "3K2")


@given(
    space=st.sampled_from(SMALL_SPACES),
    avoid=st.lists(
        st.tuples(st.sampled_from(detect.RELATIONS), st.sampled_from(PATTERNS)),
        min_size=1,
        max_size=2,
    ),
)
@example(space=("overlap_le_1", 4), avoid=[("free", "2K2")])
@example(space=("all", 4), avoid=[("fixed", "K1,2"), ("free", "2K2")])
@example(space=("disjoint", 5), avoid=[("exclusive", "K1,2")])
# a witness the walk finds first only if each level's symmetries fix the
# images chosen above it
@example(space=("disjoint", 5), avoid=[("free", "C4")])
# the fixed-edge relations where the class bars the own image
@example(space=("overlap_le_1", 4), avoid=[("fixed", "K1,2")])
@example(space=("overlap_le_1", 4), avoid=[("shifted", "K1,2")])
@example(space=("overlap_le_1", 4), avoid=[("strong_shifted", "K1,2")])
@example(space=("disjoint", 5), avoid=[("fixed", "K2")])
@example(space=("disjoint", 5), avoid=[("shifted", "2K2")])
@example(space=("disjoint", 5), avoid=[("strong_shifted", "K1,2")])
@settings(max_examples=150, deadline=None)
def test_engine_matches_brute_force(space, avoid):
    kind, n = space
    klass = MappingClass(kind)
    avoid = tuple((rel, make_pattern(p)) for rel, p in avoid)
    maps = _all_mappings(_pools(klass, n))
    good = _avoiders(n, avoid, maps)
    # the reference reads the relations as detect does
    for i in np.linspace(0, len(maps) - 1, num=min(len(maps), 6), dtype=int):
        mp = EdgeMapping(n, tuple(int(x) for x in maps[i]))
        assert (detect.find_any(mp, avoid) is None) == good[i]
    spec = AvoidanceSpec(n, klass, avoid)
    outs = [exists_avoiding(spec, SearchOptions(workers=w)) for w in (1, 2)]
    # with counting off, destroyer propagation alone keeps free and
    # exclusive copies out of the leaves that _leaf revalidates
    with mock.patch.object(search._Engine, "_counting_tables", _no_counting):
        outs.append(exists_avoiding(spec))
    for out in outs:
        if good.any():
            assert out.verdict == "WITNESS"
            first = tuple(int(x) for x in maps[np.argmax(good)])
            assert out.witness.images == first
        else:
            assert out.verdict == "EXHAUSTED"


@pytest.mark.parametrize(
    "pattern,exclusive", [("K1,2", False), ("2K2", False), ("K1,2", True)]
)
def test_shift_capacity_matches_brute_force(pattern, exclusive):
    n = 4
    H = make_pattern(pattern)
    klass = MappingClass("fixed_or_strong" if exclusive else "all")
    rel = "exclusive" if exclusive else "free"
    maps = _all_mappings(_pools(klass, n, moved_first=True))
    good = _avoiders(n, ((rel, H),), maps)
    # in fixed_or_strong every moved edge is moved clear of its endpoints
    moved = (maps != np.arange(edge_count(n))).sum(axis=1)
    best = int(moved[good].max())
    rep = shift_capacity(n, H, exclusive=exclusive)
    assert rep.exact and rep.value == best
    first = tuple(int(x) for x in maps[np.argmax(good & (moved == best))])
    assert rep.witness.images == first


def test_edge_perms_follow_the_definition():
    # the stabilizer of edge 0: every vertex permutation that maps edge 0
    # to itself, as a permutation of edge ids
    for n in range(1, 8):
        pairs = [edge_pair(e) for e in range(edge_count(n))]
        every = (
            tuple(edge_id(s[u], s[v]) for u, v in pairs) for s in itertools.permutations(range(n))
        )
        expect = sorted(p for p in every if not p or p[0] == 0)
        assert sorted(search._edge_perms(n)) == expect
        if n >= 2:
            assert len(search._edge_perms(n)) == 2 * math.factorial(n - 2)


def test_symmetry_masks_follow_the_definition():
    # bit j of fix[e] and lower[e] reads _edge_perms(n)[j][e] == e and < e;
    # above n = 8 the group is the identity alone, bit 0
    avoid = (("free", make_pattern("K3")),)
    for n in range(2, 10):
        engine = search._Engine(AvoidanceSpec(n, ALL, avoid))
        m = edge_count(n)
        assert len(engine.fix) == len(engine.lower) == m
        if n <= 8:
            perms = search._edge_perms(n)
            assert engine.group == (1 << len(perms)) - 1
            for e in range(m):
                assert engine.fix[e] == sum(1 << j for j, p in enumerate(perms) if p[e] == e)
                assert engine.lower[e] == sum(1 << j for j, p in enumerate(perms) if p[e] < e)
        else:
            assert engine.group == 1
            assert engine.fix == (1,) * m and engine.lower == (0,) * m


def test_symmetry_stops_at_n_8():
    # above n = 8 the walk has no symmetry group; builds the engines only
    avoid = (("free", make_pattern("K3")),)
    for n in range(2, 10):
        group = search._Engine(AvoidanceSpec(n, ALL, avoid))._initial_group()
        if n <= 8:
            assert group == list(search._edge_perms(n))
        else:
            assert group == [tuple(range(edge_count(n)))]


def test_nonsense_options_refused():
    for workers in (0, -3, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="workers"):
            SearchOptions(workers=workers)
    spec = AvoidanceSpec(4, OV1, FREE_2K2)
    for budget in (0, -1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="budget"):
            exists_avoiding(spec, SearchOptions(budget=budget))
        with pytest.raises(ValueError, match="budget"):
            shift_capacity(4, make_pattern("K1,2"), budget=budget)
    # no budget without an end opens the envelope either
    big = AvoidanceSpec(9, ALL, (("free", make_pattern("K3")),))
    with pytest.raises(ValueError, match="finite"):
        exists_avoiding(big, SearchOptions(budget=float("inf")))
    endless = SearchOptions(budget=float("inf"))
    with pytest.raises(ValueError, match="finite"):
        compute_parameter("m", make_pattern("K1,3"), make_pattern("P4"), options=endless)
    K3 = make_pattern("K3")
    for budget in (-1, float("inf")):
        with pytest.raises(ValueError, match="budget"):
            compute_parameter("z", K3, K3, options=SearchOptions(budget=budget))
    # a scan that searches no host refuses the budget too
    with pytest.raises(ValueError, match="budget"):
        compute_parameter("z", K3, K3, n_max=2, options=SearchOptions(budget=-1))
    with pytest.raises(ValueError, match="budget"):
        compute_parameter("w", make_pattern("K1,2"), n_max=3, options=SearchOptions(budget=-1))
    # an empty class refuses the budget too, before it answers
    with pytest.raises(ValueError, match="budget"):
        exists_avoiding(AvoidanceSpec(3, DISJ, EXCL_P3), SearchOptions(budget=-1))


def _roots(spec):
    """The root branches of spec's serial walk, in walk order: the images
    of edge 0 that its depth-0 loop walks rather than drops."""
    engine = search._Engine(spec)
    engine.run()
    return [x for x in engine.roots if not engine._dropped(engine.root_stab, x)]


def test_parallel_workers_agree_with_serial():
    spec = AvoidanceSpec(5, OV1, FREE_2K2)
    serial = exists_avoiding(spec)
    parallel = exists_avoiding(spec, SearchOptions(workers=2))
    assert serial.verdict == parallel.verdict == "EXHAUSTED"
    spec4 = AvoidanceSpec(4, OV1, FREE_2K2)
    assert exists_avoiding(spec4, SearchOptions(workers=2)).verdict == "WITNESS"


MSTAR_P4_K12 = AvoidanceSpec(
    6,
    MappingClass("fixed_or_strong"),
    (("fixed", make_pattern("P4")), ("exclusive", make_pattern("K1,2"))),
)


FOS_K12_K12 = AvoidanceSpec(
    6,
    MappingClass("fixed_or_strong"),
    (("fixed", make_pattern("K1,2")), ("exclusive", make_pattern("K1,2"))),
)


def test_parallel_stats_are_those_of_the_serial_walk():
    # roots [0, 5]: the first branch's witness comes at node 951, before
    # the first 1024-node tick, so branch 5 is never handed off
    assert _roots(MSTAR_P4_K12) == [0, 5]
    serial = exists_avoiding(MSTAR_P4_K12)
    parallel = exists_avoiding(MSTAR_P4_K12, SearchOptions(workers=2))
    assert parallel.verdict == serial.verdict == "WITNESS"
    assert parallel.witness == serial.witness
    assert parallel.stats.nodes == serial.stats.nodes == 951
    assert parallel.stats.prunes == serial.stats.prunes
    # with no witness every branch runs to its end and counts
    spec = AvoidanceSpec(6, ALL, (("fixed", make_pattern("K1,2")), ("free", make_pattern("2K2"))))
    out = exists_avoiding(spec, SearchOptions(workers=2))
    assert out.verdict == "EXHAUSTED"
    assert out.stats.nodes == 2186
    # this walk hands root 5 to a process; the root images that the
    # symmetry rule drops after the handoff still count
    forked = exists_avoiding(FOS_K12_K12, SearchOptions(workers=2))
    assert forked.verdict == "EXHAUSTED"
    assert forked.stats.nodes == 12189
    assert forked.stats.prunes == {"lookahead": 6003, "symmetry": 102}


def _recording_pool(monkeypatch, claims=None) -> list[int]:
    """Let ``_parallel`` start real pools, and list each one's size and, in
    ``claims``, its shared index of the next unclaimed branch."""
    sizes = []
    real = search.ProcessPoolExecutor

    def pool(max_workers, initializer, initargs):
        sizes.append(max_workers)
        if claims is not None:
            claims.append(initargs[1])
        return real(max_workers=max_workers, initializer=initializer, initargs=initargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", pool)
    return sizes


def _deferred_pool(monkeypatch) -> tuple[list[int], list[dict]]:
    """Stand in for ProcessPoolExecutor with pools that run each task in
    this process, and only once its result is asked for, as if no pool
    process got going before the caller finished its own branch.  Lists
    each pool's size and each task's result."""
    sizes, results = [], []

    class Deferred:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            self.install = lambda: initializer(*initargs)

        def submit(self, fn, *args):
            def result():
                self.install()
                results.append(fn(*args))
                return results[-1]

            return SimpleNamespace(result=result)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(search, "ProcessPoolExecutor", Deferred)
    monkeypatch.setattr(search, "_SHARED", search._SHARED)
    return sizes, results


def test_a_witness_stops_the_later_branches():
    stops = tuple(multiprocessing.Event() for _ in range(2))
    next_root = multiprocessing.Value("i", 0)
    done = search._walk_branches(MSTAR_P4_K12, None, (0, 5), stops, next_root)
    # branch 0's witness stops branch 5, which is then claimed but never built
    assert list(done) == [0] and done[0].verdict == "WITNESS"
    assert not stops[0].is_set() and stops[1].is_set()
    assert next_root.value == 2
    # one stopped mid-walk ends on the next 1024-node tick
    out = search._Engine(MSTAR_P4_K12, root=5, stop=stops[1]).run()
    assert out.verdict == "TIMEOUT"
    assert out.stats.nodes == 1024
    # a branch another process has claimed is left to it: branch 5 alone
    # walks 7390 nodes to a witness that branch 0's makes moot
    stops = tuple(multiprocessing.Event() for _ in range(2))
    done = search._walk_branches(MSTAR_P4_K12, None, (0, 5), stops, multiprocessing.Value("i", 1))
    assert list(done) == [5] and done[5].verdict == "WITNESS"
    assert done[5].stats.nodes == 7390


def test_this_process_takes_the_branches_no_pool_process_started(monkeypatch):
    # the pool's one process starts nothing before this process has
    # finished its own branch, so this process walks the handed-off root
    # branch itself and the pool's task finds none left
    sizes, results = _deferred_pool(monkeypatch)
    serial = exists_avoiding(FOS_K12_K12)
    out = exists_avoiding(FOS_K12_K12, SearchOptions(workers=2))
    assert sizes == [1] and results == [{}]
    assert out.verdict == serial.verdict == "EXHAUSTED"
    assert (out.stats.nodes, out.stats.prunes) == (serial.stats.nodes, serial.stats.prunes)


def test_a_small_walk_stays_in_process(monkeypatch):
    # 951 nodes: the walk ends before its first tick, so no pool is made
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(search, "ProcessPoolExecutor", refuse)
    serial = exists_avoiding(MSTAR_P4_K12)
    out = exists_avoiding(MSTAR_P4_K12, SearchOptions(workers=2))
    assert out.verdict == "WITNESS"
    assert out.witness == serial.witness
    assert out.stats.nodes == serial.stats.nodes == 951
    assert out.stats.prunes == serial.stats.prunes


def test_parallel_pool_is_sized_to_the_roots(monkeypatch):
    sizes, _ = _deferred_pool(monkeypatch)
    # a walk under 1024 nodes makes no pool, however many roots it has
    spec = AvoidanceSpec(6, ALL, (("fixed", make_pattern("K1,2")), ("free", make_pattern("3K2"))))
    assert _roots(spec) == [0, 1, 5]
    serial = exists_avoiding(spec)
    for workers in (8, 3, 2):
        out = exists_avoiding(spec, SearchOptions(workers=workers))
        assert out.witness == serial.witness
        assert out.stats.nodes == serial.stats.nodes == 34
    assert sizes == []
    # with symmetry off every image of edge 0 is a root: this walk ticks in
    # the second of its 8 root branches and hands the other 6 off, to at
    # most workers - 1 processes, since this one walks a branch too
    monkeypatch.setattr(
        search._Engine, "_initial_group", lambda self: [tuple(range(self.m_edges))]
    )
    spec = AvoidanceSpec(6, ALL, (("fixed", make_pattern("K1,2")), ("free", make_pattern("2K2"))))
    assert len(_roots(spec)) == 8
    serial = exists_avoiding(spec)
    for workers in (8, 3, 2):
        out = exists_avoiding(spec, SearchOptions(workers=workers))
        assert out.verdict == serial.verdict == "EXHAUSTED"
        assert (out.stats.nodes, out.stats.prunes) == (serial.stats.nodes, serial.stats.prunes)
    assert sizes == [6, 2, 1]


def test_each_branch_is_claimed_once(monkeypatch):
    # with symmetry off the walk ticks in the second of its 8 root branches
    # and shares the other 6 among 3 pool processes and this one, more
    # walkers than cores.  Each claim moves the shared index once: it ends
    # at 6 plus one last claim per walker, and a lost update would leave it
    # lower, with a branch walked twice
    claims = []
    sizes = _recording_pool(monkeypatch, claims)
    monkeypatch.setattr(
        search._Engine, "_initial_group", lambda self: [tuple(range(self.m_edges))]
    )
    spec = AvoidanceSpec(6, ALL, (("fixed", make_pattern("K1,2")), ("free", make_pattern("2K2"))))
    serial = exists_avoiding(spec)
    out = exists_avoiding(spec, SearchOptions(workers=4))
    assert out.verdict == serial.verdict == "EXHAUSTED"
    assert (out.stats.nodes, out.stats.prunes) == (serial.stats.nodes, serial.stats.prunes)
    assert sizes == [3]
    assert claims[0].value == 6 + 3 + 1
    assert multiprocessing.active_children() == []


def test_no_child_process_outlives_the_call(monkeypatch):
    sizes = _recording_pool(monkeypatch)
    # EXHAUSTED: every handed-off branch is read
    out = exists_avoiding(FOS_K12_K12, SearchOptions(workers=2))
    assert out.verdict == "EXHAUSTED"
    assert multiprocessing.active_children() == []
    # WITNESS in this process's own root branch: the handed-off branches
    # are moot and get stopped
    spec = AvoidanceSpec(6, ALL, (("fixed", make_pattern("K1,3")), ("free", make_pattern("P4"))))
    serial = exists_avoiding(spec)
    out = exists_avoiding(spec, SearchOptions(workers=2))
    assert out.verdict == "WITNESS" and out.witness == serial.witness
    assert (out.stats.nodes, out.stats.prunes) == (serial.stats.nodes, serial.stats.prunes)
    assert multiprocessing.active_children() == []
    # both walks did start a pool
    assert sizes == [1, 1]


def test_budget_is_one_deadline_under_workers(monkeypatch):
    # three root branches on two workers: this process walks the first
    # and one pool process the other two, so the last starts late and must
    # still stop at the deadline fixed when the call began.  The walk
    # must outlast the budget by far: each root branch alone is still
    # TIMEOUT after 3 s, and serially the walk finds its witness after 16 s
    # (4.6M nodes on a 2-vCPU Xeon)
    sizes = _recording_pool(monkeypatch)
    spec = AvoidanceSpec(8, ALL, (("fixed", make_pattern("P4")), ("free", make_pattern("K3"))))
    out = exists_avoiding(spec, SearchOptions(budget=1.0, workers=2))
    assert out.verdict == "TIMEOUT"
    assert out.stats.wall_time <= 1.0 + 0.25
    assert sizes == [1]
    assert multiprocessing.active_children() == []


def test_stats_and_outcome_shape():
    out = exists_avoiding(AvoidanceSpec(4, OV1, FREE_2K2))
    d = out.as_dict()
    assert d["verdict"] == "WITNESS"
    assert d["nodes"] == out.stats.nodes
    assert isinstance(d["prunes"], dict)
    assert d["witness"] == list(out.witness.images)
    # table build is timed apart from the walk, and summed over branches
    assert out.stats.table_time > 0
    assert d["table_time"] == round(out.stats.table_time, 6)
    par = exists_avoiding(AvoidanceSpec(5, OV1, FREE_2K2), SearchOptions(workers=2))
    assert par.stats.table_time > 0
    assert par.as_dict()["table_time"] == round(par.stats.table_time, 6)


# -- the tree, pinned -----------------------------------------------------------

# Exact verdicts, node counts and prunes by rule of single serial walks.  The
# engine's bookkeeping may change how fast it walks, never what it walks; a
# change to the walk itself (edge order, image order, a prune rule) must
# update these on purpose.  Between them every counted rule fires.  The
# rooted walk restricts edge 0 to one root image, as one root branch of
# ``workers`` does; its counts equal those of the former prefix walk that
# assigned the same image up front.  A witness walk pins its witness too: a
# rule that cuts only subtrees without a witness may move the counts, never
# the witness, since the walk order stays the same.
TREE_PINS = [
    # n, class, avoid, objective, root, verdict, nodes, prunes, witness
    (6, "fixed_or_strong", (("fixed", "K1,2"), ("exclusive", "K1,2")), None, None,
     "EXHAUSTED", 12189, {"lookahead": 6003, "symmetry": 102}, None),
    (6, "disjoint", (("free", "3K2"),), None, None,
     "WITNESS", 331, {"counting": 45, "lookahead": 169},
     (5, 4, 6, 7, 6, 7, 5, 1, 3, 2, 4, 1, 0, 0, 2)),
    (7, "disjoint", (("exclusive", "P4"),), None, None,
     "WITNESS", 39, {"lookahead": 18},
     (5, 4, 3, 2, 1, 0, 2, 1, 0, 0, 2, 1, 9, 8, 5, 14, 14, 9, 14, 13, 0)),
    (5, "overlap_le_1", (("free", "2K2"),), None, None,
     "EXHAUSTED", 2, {"counting": 2, "symmetry": 2}, None),
    (5, "all", (("shifted", "K1,2"), ("fixed", "2K2")), None, None,
     "EXHAUSTED", 8, {"lookahead": 4}, None),
    (5, "all", (("strong_shifted", "K1,2"), ("fixed", "K1,2")), None, None,
     "WITNESS", 10, {},
     (0, 0, 0, 0, 0, 5, 0, 0, 0, 3)),
    # objective walks with a fixed moved-edge bound and no witness to raise it
    (5, "all", (("free", "K1,2"),), 10, None,
     "EXHAUSTED", 3, {"counting": 2, "objective": 1, "symmetry": 5}, None),
    (6, "all", (("free", "K1,2"),), 7, None,
     "EXHAUSTED", 11126, {"counting": 3856, "symmetry": 81}, None),
    # the middle one of the root images [0, 1, 5]
    (6, "all", (("fixed", "K1,2"), ("free", "2K2")), None, 1,
     "EXHAUSTED", 404, {"lookahead": 210, "symmetry": 36}, None),
    # a shifted copy can never be destroyed where the own image is barred,
    # so the lookahead kills each one as its second-to-last edge is assigned
    (5, "overlap_le_1", (("shifted", "K1,2"),), None, None,
     "EXHAUSTED", 1, {"lookahead": 1}, None),
    # the floor over the copies of both relations fires at the first edge,
    # where neither relation's copies alone could fire it
    (4, "all", (("fixed", "K4"), ("free", "K2")), None, None,
     "EXHAUSTED", 1, {"counting": 1}, None),
    # hosts whose symmetry groups hold 240 and 1440 permutations
    (7, "fixed_or_strong", (("fixed", "2K2"), ("exclusive", "K1,2")), None, None,
     "EXHAUSTED", 11061, {"lookahead": 7029, "symmetry": 1186}, None),
    (8, "fixed_or_strong", (("fixed", "2K2"), ("exclusive", "K1,3")), None, None,
     "WITNESS", 18400, {"lookahead": 12441, "symmetry": 5},
     (0, 1, 2, 2, 1, 0, 2, 1, 0, 0, 4, 3, 3, 17, 17, 7, 6, 13, 23, 24, 0, 13, 19, 6, 12, 12,
      8, 8)),
]


def _pin_id(pin) -> str:
    n, kind, avoid, objective, root = pin[:5]
    label = f"{kind}-K{n}-" + "+".join(f"{r}:{p}" for r, p in avoid)
    if objective is not None:
        label += f"-moved{objective}"
    return label + ("" if root is None else f"-root{root}")


@pytest.mark.parametrize(
    "n,kind,avoid,objective,root,verdict,nodes,prunes,witness",
    TREE_PINS,
    ids=map(_pin_id, TREE_PINS),
)
def test_tree_is_pinned(n, kind, avoid, objective, root, verdict, nodes, prunes, witness):
    spec = AvoidanceSpec(n, MappingClass(kind), tuple((r, make_pattern(p)) for r, p in avoid))
    engine = search._Engine(spec, objective=objective, root=root)
    out = engine.run()
    if root is not None:
        # the root branch was walked, not dropped
        assert engine.roots == [root]
        assert not engine._dropped(engine.root_stab, root)
    assert (out.verdict, out.stats.nodes, out.stats.prunes) == (verdict, nodes, prunes)
    assert (None if out.witness is None else out.witness.images) == witness


def test_pins_fire_every_rule():
    fired = set().union(*(prunes for *_, prunes, _ in TREE_PINS))
    assert fired == {"symmetry", "lookahead", "counting", "objective"}


def test_lookahead_settles_exclusive_matching_on_k7():
    # before lookahead this walk ran past 4.8M nodes without a verdict
    spec = AvoidanceSpec(7, DISJ, (("exclusive", make_pattern("2K2")),))
    out = exists_avoiding(spec, SearchOptions(budget=10.0))
    assert out.verdict == "WITNESS"
    assert out.stats.nodes < 100
    assert DISJ.admits(out.witness)
    assert detect.find_any(out.witness, spec.avoid) is None


def test_lookahead_settles_exclusive_star_fixed_matching_on_k7():
    # m*(2K2, K1,2) at n = 7.  Neither constraint alone can empty a pool,
    # only both together, so the walk stays this small only while every
    # constraint narrows the images of its copies' last edges ahead
    spec = AvoidanceSpec(
        7,
        MappingClass("fixed_or_strong"),
        (("fixed", make_pattern("2K2")), ("exclusive", make_pattern("K1,2"))),
    )
    out = exists_avoiding(spec, SearchOptions(budget=10.0))
    assert out.verdict == "EXHAUSTED"
    assert out.stats.nodes < 20000


Z_PATTERNS = [make_pattern(s) for s in ("K2", "K1,2", "2K2", "K3", "P4", "K1,3", "C4")] + [
    union(matching(1), complete(1))
]


def _good_coloring(G, H, n):
    """Whether some red/blue coloring of K_n's edges has no red G and no
    blue H, by trying all 2^C(n, 2) red edge sets."""
    red_g = {sum(1 << e for e in eids) for eids, _ in _copies(G, n)}
    blue_h = {sum(1 << e for e in eids) for eids, _ in _copies(H, n)}
    every = (1 << edge_count(n)) - 1
    return any(
        all(c & red != c for c in red_g) and all(c & red for c in blue_h)
        for red in range(every + 1)
    )


@pytest.mark.parametrize("G", Z_PATTERNS, ids=str)
def test_z_agrees_with_every_coloring(G):
    # z is decided as fixed G + shifted H over all mappings, and at n = 2
    # by the coloring rule; either way a host is ruled out exactly when
    # some coloring of it has no red G and no blue H
    for H in Z_PATTERNS:
        for n in range(2, 6):
            rep = compute_parameter("z", G, H, n_max=n)
            assert (rep.lower.value > n) == _good_coloring(G, H, n), (G, H, n)


def test_shift_capacity_known_values():
    assert shift_capacity(4, make_pattern("K2")).value == 0
    rep = shift_capacity(5, make_pattern("2K2"))
    assert rep.value == 7 and rep.exact


def test_objective_walk_stops_once_every_edge_moves():
    # nothing beats a witness that moves every edge, so the walk ends there
    spec = AvoidanceSpec(6, MappingClass("fixed_or_strong"), (("exclusive", make_pattern("3K2")),))
    engine = search._Engine(spec, objective=0)
    out = engine.run()
    assert out.verdict == "WITNESS" and out.stats.nodes == 15
    assert out.witness.profile.strong_shifted == edge_count(6)
    rep = shift_capacity(6, make_pattern("3K2"), exclusive=True)
    assert rep.value == 15 and rep.exact


def test_shift_capacity_budget_is_one_deadline():
    # the walk needs about 16 s (4.4M nodes on a 2-vCPU Xeon) to close
    P4 = make_pattern("P4")
    start = time.perf_counter()
    rep = shift_capacity(6, P4, budget=1.0)
    assert time.perf_counter() - start <= 1.0 + 0.25
    assert not rep.exact
    if rep.witness is not None:
        assert detect.find_any(rep.witness, (("free", P4),)) is None
        assert rep.witness.profile.shifted == rep.value


@pytest.mark.parametrize(
    "name,pattern,d,value",
    [
        ("g", "K2", 0, 4),
        ("g", "K2", 1, 3),
        ("g", "K1,2", 1, 4),
        ("g", "2K2", 1, 5),
    ],
)
def test_compute_parameter_tight_matchings(name, pattern, d, value):
    rep = compute_parameter(name, make_pattern(pattern), d=d)
    assert rep.status == "tight"
    assert rep.lower.value == rep.upper.value == value


def test_compute_parameter_star_exclusive():
    rep = compute_parameter("w", make_pattern("K1,2"))
    assert rep.status == "tight"
    assert rep.lower.value == 6


def test_compute_parameter_z_classical_values():
    # two-color Ramsey numbers (Chvatal & Harary, 1972; Radziszowski, DS1)
    cases = [
        ("K2", "K2", 2), ("K2", "K3", 3), ("K3", "K2", 3), ("K2", "P4", 4), ("P4", "P4", 5),
        ("K3", "K3", 6), ("C4", "C4", 6), ("K1,3", "K1,3", 6), ("K3", "C4", 7), ("K1,3", "K3", 7),
    ]
    for G, H, value in cases:
        rep = compute_parameter("z", make_pattern(G), make_pattern(H))
        assert rep.status == "tight" and rep.lower.value == value, (G, H)
    # z(K3, K4) = 9: hosts up to 8 are ruled out, and the scan stops there
    rep = compute_parameter("z", make_pattern("K3"), make_pattern("K4"))
    assert rep.status == "partial" and rep.lower.value == 9


def test_z_budget_bounds_each_host():
    # hosts 2..7 of z(C6, C6) have quick witnesses; host 8 runs out of time
    C6 = make_pattern("C6")
    start = time.perf_counter()
    rep = compute_parameter("z", C6, C6, options=SearchOptions(budget=0.1))
    assert time.perf_counter() - start < 0.35
    assert rep.status == "partial" and rep.lower.value == 8


def test_compute_parameter_free_pair_with_certifier():
    rep = compute_parameter("m", make_pattern("K3"), make_pattern("K1,2"))
    assert rep.status == "tight"
    assert rep.lower.value == 7


def test_compute_parameter_reports_gaps_honestly():
    rep = compute_parameter("w", make_pattern("2K2"), options=SearchOptions(budget=3.0))
    assert rep.status == "gap"
    assert rep.lower.value == 8
    assert rep.upper.value == 10
    # the search itself finds the n = 7 witness, ahead of the z7 construction
    assert rep.lower.provenance == "exhaustive avoidance search below"


@pytest.mark.parametrize(
    "name,G,H,d,n,certifier,flags",
    [
        ("g", "K1,2", None, 0, 4, "moved-clear counting certifier", ()),
        ("g", "K1,3", None, 1, 6, "degree-profile certifier", ()),
        ("g", "3K2", None, 1, 7, "matching-count certifier", ()),
        ("m", "K4-K2", "K1,2", 1, 7, "free-star tally certifier", ()),
        ("m", "K1,2", "2K2", 1, 5, "copy-counting certifier", ()),
        ("m_star", "P4", "K2", 1, 4, "exclusive-matching count certifier", ()),
        ("m_star", "K1,2", "K1,2", 1, 7, "exclusive-star tally certifier", ()),
        (
            "m", "K4", "2K2", 1, 10, "moved-support budget certifier",
            (EXTERNAL_CAPACITY,),
        ),
    ],
)
def test_certify_at_first_fire(name, G, H, d, n, certifier, flags):
    # one case per certifier: the least host it clears, and silence below
    G = make_pattern(G)
    H = None if H is None else make_pattern(H)
    assert bounds.certify_at(name, G, H, d, n) == (certifier, flags)
    assert bounds.certify_at(name, G, H, d, n - 1) is None


def test_compute_parameter_flags_assumed_density():
    rep = compute_parameter(
        "m", make_pattern("P4"), make_pattern("K3"), options=SearchOptions(budget=3.0)
    )
    assert rep.upper is not None
    assert any("assumed" in fl for fl in rep.upper.flags)


def test_compute_parameter_rejects_unknown_name():
    with pytest.raises(ValueError):
        compute_parameter("q", make_pattern("K3"))
