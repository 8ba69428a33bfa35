import hashlib
import random
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgemaps import canon
from edgemaps.canon import (
    _invariant,
    _twin_classes,
    _wl_classes,
    canonical_code,
    generate_by_edge_count,
    graphs_by_edge_count,
)
from edgemaps.graphs import (
    SimpleGraph,
    adjacency_masks,
    all_trees,
    complete_bipartite,
    contains_copy,
    cycle,
    edge_count,
    edge_id,
    edge_table,
    make_pattern,
    mask_bits,
    matching,
    pair_ids,
    path,
    star,
    union,
)


def _apply_perm(n: int, mask: int, perm) -> int:
    from edgemaps.graphs import edge_pair

    out = 0
    for eid in range(edge_count(n)):
        if mask >> eid & 1:
            u, v = edge_pair(eid)
            out |= 1 << edge_id(perm[u], perm[v])
    return out


def _graph(n: int, mask: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset(e for e in range(edge_count(n)) if mask >> e & 1))


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=(1 << edge_count(n)) - 1),
            st.permutations(range(n)),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_canonical_code_is_permutation_invariant(args):
    n, mask, perm = args
    assert canonical_code(n, mask) == canonical_code(n, _apply_perm(n, mask, perm))


def _slot_blocks(n: int, mask: int) -> list[range]:
    """For each vertex, the slots of its invariant class in the class order."""
    blocks = [range(0)] * n
    start = 0
    for cls in map(mask_bits, _wl_classes(n, adjacency_masks(n, mask_bits(mask)))):
        for v in cls:
            blocks[v] = range(start, start + len(cls))
        start += len(cls)
    return blocks


def _reference_code(n: int, mask: int) -> int:
    """Minimum edge mask over the n! relabellings that keep the invariant order."""
    blocks = _slot_blocks(n, mask)
    return min(
        _apply_perm(n, mask, perm)
        for perm in permutations(range(n))
        if all(perm[v] in blocks[v] for v in range(n))
    )


def test_canonical_code_matches_reference_small():
    for n in range(1, 6):
        for mask in range(1 << edge_count(n)):
            assert canonical_code(n, mask) == _reference_code(n, mask), (n, mask)


@given(st.integers(min_value=0, max_value=(1 << edge_count(6)) - 1))
@settings(max_examples=60, deadline=None)
def test_canonical_code_matches_reference_n6(mask):
    assert canonical_code(6, mask) == _reference_code(6, mask)


def _twin_heavy(n: int):
    """Graphs whose invariant classes are mostly twins: K_a plus isolated
    vertices, stars, K_{a,b} plus isolated vertices, complements of matchings."""
    full = (1 << edge_count(n)) - 1
    for a in range(2, n + 1):
        yield make_pattern(f"K{a}").graph.edge_mask
    for r in range(1, n):
        yield star(r).graph.edge_mask
    for a in range(1, n):
        for b in range(a, n - a + 1):
            yield complete_bipartite(a, b).graph.edge_mask
    for k in range(1, n // 2 + 1):
        yield full ^ sum(1 << edge_id(2 * i, 2 * i + 1) for i in range(k))


@lru_cache(maxsize=16)
def _all_perms_np(n: int) -> np.ndarray:
    """The n! permutations of range(n), one per row, as int8."""
    rows = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):
        rows = np.concatenate([np.insert(rows, i, k, axis=1) for i in range(k + 1)])
    return rows


def _codes_min(perms: np.ndarray, mask: int, n: int) -> int:
    """Minimum edge-mask code of the graph over the given relabelings.

    Row i sends vertex v to slot ``perms[i, v]``.
    """
    table = np.array([1 << e if e >= 0 else 0 for e in pair_ids(n)], dtype=np.int64).reshape(n, n)
    pairs = edge_table(n)[0]
    codes = np.zeros(len(perms), dtype=np.int64)
    for e in mask_bits(mask):
        u, v = pairs[e]
        codes += table[perms[:, u], perms[:, v]]
    return int(codes.min())


def _uniform_n8():
    """Graphs on 8 vertices with one invariant class that is not all twins."""
    yield cycle(8).graph.edge_mask
    yield matching(4).graph.edge_mask
    yield union(cycle(5), cycle(3)).graph.edge_mask
    cube = [(v, v ^ 1 << i) for v in range(8) for i in range(3) if v < v ^ 1 << i]
    yield SimpleGraph.from_pairs(8, cube).edge_mask


def test_canonical_code_on_twin_classes_n7_n8():
    for n, shuffle in ((7, [3, 6, 0, 5, 1, 4, 2]), (8, [5, 2, 7, 0, 3, 6, 1, 4])):
        perms = _all_perms_np(n)
        masks = list(_twin_heavy(n)) + (list(_uniform_n8()) if n == 8 else [])
        for mask in masks:
            for g in (mask, _apply_perm(n, mask, shuffle)):
                blocks = _slot_blocks(n, g)
                lo = np.array([b.start for b in blocks])
                hi = np.array([b.stop for b in blocks])
                rows = perms[((perms >= lo) & (perms < hi)).all(axis=1)]
                assert canonical_code(n, g) == _codes_min(rows, g, n), (n, g)


def _reference_wl_classes(n: int, adj: list[int]) -> list[list[int]]:
    """The reference invariant classes, in invariant order: up to three
    rounds keying each vertex by (its key, its neighbours' keys sorted),
    starting from the degrees and ranking the keys after each round; the
    rounds stop early when one splits no class."""
    nbrs = [mask_bits(a) for a in adj]
    keys = [len(nb) for nb in nbrs]
    count = len(set(keys))
    for _ in range(3):
        sigs = [(keys[v], tuple(sorted([keys[u] for u in nb]))) for v, nb in enumerate(nbrs)]
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        keys = [rank[sig] for sig in sigs]
        if len(rank) == count:
            break
        count = len(rank)
    groups: list[list[int]] = [[] for _ in range(count)]
    for v in range(n):
        groups[keys[v]].append(v)
    return groups


def _random_masks(n: int, count: int, seed: int):
    """Seeded random graphs on n vertices, sparse to dense."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((0.15, 0.3, 0.5, 0.7))
        yield sum(1 << e for e in range(edge_count(n)) if rng.random() < p)


def test_wl_classes_match_reference():
    cases = [(n, g) for n in range(8) for level in graphs_by_edge_count(n) for g in level]
    cases += [(n, g) for n in range(8, 13) for g in _random_masks(n, 200, n)]
    cases += [(n, g) for n in (7, 8) for g in _twin_heavy(n)]
    cases += [(8, g) for g in _uniform_n8()]
    cases += [(10, _spoked_pentagons(2)), (10, _spoked_pentagons(1))]
    cases += [(12, make_pattern("4K3").graph.edge_mask), (12, cycle(12).graph.edge_mask)]
    for n, g in cases:
        adj = adjacency_masks(n, mask_bits(g))
        classes = [mask_bits(c) for c in _wl_classes(n, adj)]
        assert classes == _reference_wl_classes(n, adj), (n, g)


def _spoked_pentagons(step: int) -> int:
    """A 5-cycle joined by spokes to the inner 5-cycle i -> i + step: the
    Petersen graph for step 2, the pentagonal prism for step 1."""
    pairs = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + step) % 5) for i in range(5)]
    return SimpleGraph.from_pairs(10, pairs).edge_mask


def test_canonical_code_on_invariant_uniform_n10_n12():
    # one invariant class each, and the two graphs of a pair share a degree
    rng = random.Random(5)
    cases = (
        (10, _spoked_pentagons(2), _spoked_pentagons(1)),
        (12, make_pattern("4K3").graph.edge_mask, cycle(12).graph.edge_mask),
    )
    for n, a, b in cases:
        codes = []
        for mask in (a, b):
            perm = list(range(n))
            rng.shuffle(perm)
            code = canonical_code(n, mask)
            assert canonical_code(n, _apply_perm(n, mask, perm)) == code
            assert code.bit_count() == mask.bit_count()
            codes.append(code)
        assert codes[0] != codes[1]


def _sha(parts) -> str:
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


def test_canonical_code_values_pinned():
    # independent of _wl_classes, so a changed class order shows here
    parts = [
        ",".join(str(c) for c in sorted(canonical_code(n, g) for g in level))
        for n in range(2, 8)
        for level in graphs_by_edge_count(n)
    ]
    rng = random.Random(0)
    for n in (8, 9):
        parts += [str(canonical_code(n, rng.getrandbits(edge_count(n)))) for _ in range(200)]
    assert _sha(parts) == "4029fb5f158e0f271e28f4f9d60a8b35dd73ce9f94d17947fc0a8ff41b531a0a"


def test_all_trees_order_pinned():
    assert [len(all_trees(k)) for k in range(1, 10)] == [1, 1, 1, 2, 3, 6, 11, 23, 47]
    parts = [",".join(str(T.graph.edge_mask) for T in all_trees(k)) for k in range(1, 10)]
    assert _sha(parts) == "313017036a06e58d84e940a899b38b45545e7479666483bc6192b998a7ecf5d2"


def test_canonical_code_keeps_every_edge_above_63_bits():
    # a spider on 12 vertices: 5!·5! arrangements, and edge ids up to 65
    pairs = [(0, 11)] + [p for i in range(1, 11, 2) for p in ((0, i), (i, i + 1))]
    rng = random.Random(3)
    codes = set()
    for _ in range(2):
        perm = list(range(12))
        rng.shuffle(perm)
        codes.add(canonical_code(12, sum(1 << edge_id(perm[u], perm[v]) for u, v in pairs)))
    (code,) = codes
    assert code.bit_count() == len(pairs) and code.bit_length() > 64


def test_canonical_code_separates_nonisomorphic():
    # P4 and K1,3 share degree sum but not degree sequence
    assert canonical_code(4, path(4).graph.edge_mask) != canonical_code(
        4, star(3).graph.edge_mask
    )


def _code(g: SimpleGraph) -> int:
    return canonical_code(g.n, g.edge_mask)


def test_is_isomorphic_basics():
    assert _code(cycle(4).graph) == _code(complete_bipartite(2, 2).graph)
    assert _code(path(4).graph) != _code(star(3).graph)
    shuffled = _apply_perm(5, cycle(5).graph.edge_mask, [3, 1, 4, 0, 2])
    assert _code(cycle(5).graph) == _code(_graph(5, shuffled))


# iso-class counts per edge level (OEIS A008406), then totals (OEIS A000088)
N4_LEVELS = (1, 1, 2, 3, 2, 1, 1)
N7_LEVELS = (1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21, 10, 5, 2, 1, 1)
N8_HALF = (1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646)
N8_LEVELS = N8_HALF + N8_HALF[-2::-1]
GRAPH_COUNTS = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def test_catalogue_levels_n4():
    levels = graphs_by_edge_count(4)
    assert tuple(len(lv) for lv in levels) == N4_LEVELS
    assert tuple(len(lv) for lv in graphs_by_edge_count(7)) == N7_LEVELS
    assert tuple(len(lv) for lv in graphs_by_edge_count(8)) == N8_LEVELS


def test_catalogue_totals():
    for n, total in GRAPH_COUNTS.items():
        assert sum(len(lv) for lv in graphs_by_edge_count(n)) == total


def test_catalogue_masks_are_canonical_representatives():
    for n in (5, 7):
        seen = set()
        for m, lv in enumerate(graphs_by_edge_count(n)):
            for mask in lv:
                assert mask.bit_count() == m
                code = canonical_code(n, mask)
                assert code not in seen
                seen.add(code)


def test_generate_with_keep_filter():
    tri = make_pattern("K3")
    kept = generate_by_edge_count(5, keep=lambda mask: not contains_copy(tri, _graph(5, mask)))
    flat = [m for lv in kept for m in lv]
    assert all(not contains_copy(tri, _graph(5, m)) for m in flat)
    # every triangle-free 5-vertex graph has at most 6 edges (bipartite max)
    assert max(_graph(5, m).m for m in flat) == 6
    # n = 7: the same classes as filtering the full catalogue; 107 in all (OEIS A006785)
    kept = generate_by_edge_count(7, keep=lambda mask: not contains_copy(tri, _graph(7, mask)))
    filtered = [
        [m for m in lv if not contains_copy(tri, _graph(7, m))] for lv in graphs_by_edge_count(7)
    ]
    assert tuple(len(lv) for lv in kept) == (1, 1, 2, 4, 8, 14, 21, 20, 18, 11, 5, 1, 1)
    codes = [sorted(canonical_code(7, m) for m in lv) for lv in kept]
    assert codes == [sorted(canonical_code(7, m) for m in lv) for lv in filtered if lv]


def test_generate_max_edges_cutoff():
    levels = generate_by_edge_count(4, max_edges=3)
    assert len(levels) == 4
    assert tuple(len(lv) for lv in levels) == N4_LEVELS[:4]


def test_generated_levels_pinned():
    # the representatives themselves and their order, not only their codes
    tri = make_pattern("K3")
    runs = [generate_by_edge_count(n) for n in range(8)]
    runs.append(generate_by_edge_count(8, max_edges=10))
    runs.append(generate_by_edge_count(7, keep=lambda m: not contains_copy(tri, _graph(7, m))))
    parts = ["|".join(",".join(map(str, level)) for level in levels) for levels in runs]
    assert _sha(parts) == "ec6c6413660c39260ef5772d35785237e084b77f04da9fd0692eac0eb03e0763"


def _reference_twin_classes(n: int, adj: list[int]) -> list[int]:
    """The least twin of each vertex, from the definition N(u) - v = N(v) - u."""
    return [min(u for u in range(n) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u)) for v in range(n)]


def test_twin_classes_give_isomorphic_siblings():
    # the generator tries one non-edge per pair of twin classes; every other
    # non-edge of that pair must give a child with the same code
    cases = [(n, g) for n in range(7) for level in graphs_by_edge_count(n) for g in level]
    cases += [(n, g) for n in range(7, 10) for g in _random_masks(n, 200, 100 + n)]
    cases += [(n, g) for n in (7, 8) for g in _twin_heavy(n)]
    pairs = edge_table(9)[0]  # colex edge ids do not depend on n
    for n, g in cases:
        adj = adjacency_masks(n, mask_bits(g))
        twin = _twin_classes(adj) or list(range(n))
        assert twin == _reference_twin_classes(n, adj), (n, g)
        orbits: dict[int, list[int]] = {}
        for e in range(edge_count(n)):
            if not g >> e & 1:
                u, v = pairs[e]
                orbits.setdefault(1 << twin[u] | 1 << twin[v], []).append(g | 1 << e)
        for children in orbits.values():
            codes = {canonical_code(n, child) for child in children}
            assert len(codes) == 1, (n, g, children)


def test_twin_skip_call_counts_pinned(monkeypatch):
    # the levels are the same without the twin skip or the invariant that
    # spares codes; only the number of codes shows them
    calls = 0
    code = canon.canonical_code

    def counting(n: int, mask: int) -> int:
        nonlocal calls
        calls += 1
        return code(n, mask)

    monkeypatch.setattr(canon, "canonical_code", counting)
    generate_by_edge_count(7)
    assert calls == 442
    calls = 0
    generate_by_edge_count(8, max_edges=10)
    assert calls == 1397


def test_invariant_only_spares_codes(monkeypatch):
    # with a constant invariant every child collides and gets its code: the
    # levels, their order and the keep path must not change
    tri = make_pattern("K3")

    def runs():
        out = [generate_by_edge_count(n) for n in range(8)]
        out.append(generate_by_edge_count(8, max_edges=10))
        out.append(generate_by_edge_count(7, keep=lambda m: not contains_copy(tri, _graph(7, m))))
        return out

    real = runs()
    monkeypatch.setattr(canon, "_invariant", lambda adj, deg: ())
    assert runs() == real


@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=(1 << edge_count(n)) - 1),
            st.permutations(range(n)),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_invariant_is_relabeling_invariant(args):
    n, mask, perm = args
    values = []
    for g in (mask, _apply_perm(n, mask, perm)):
        adj = adjacency_masks(n, mask_bits(g))
        values.append(_invariant(adj, [a.bit_count() for a in adj]))
    assert values[0] == values[1]


@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=(1 << edge_count(n)) - 1),
            st.permutations(range(n)),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_twin_classes_lie_inside_invariant_classes(args):
    # canonical_code skips its search when there are as many twin classes
    # as invariant classes, which is sound only if each twin class lies in
    # one invariant class
    n, mask, perm = args
    for g in (mask, _apply_perm(n, mask, perm)):
        adj = adjacency_masks(n, mask_bits(g))
        twin = _twin_classes(adj) or list(range(n))
        cls = {v: i for i, c in enumerate(_wl_classes(n, adj)) for v in mask_bits(c)}
        assert all(cls[v] == cls[t] for v, t in enumerate(twin)), (n, g)


def _multipartite(n: int, parts: list[int]) -> int:
    """The complete multipartite graph on parts of the given sizes, padded
    with isolated vertices up to n."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    k = len(part)
    return sum(1 << edge_id(u, v) for u in range(k) for v in range(u) if part[u] != part[v])


def test_canonical_code_without_twins_agrees(monkeypatch):
    # with no twin classes there is neither the twin skip nor the shortcut
    # past the search; the codes must not change
    cases = [(n, g) for n in range(7, 10) for g in _random_masks(n, 100, 200 + n)]
    for n in range(2, 10):
        for k in range(1, n):
            cases.append((n, sum(1 << edge_id(0, v) for v in range(1, k + 1))))  # star
            cases.append((n, _multipartite(n, [1] * (k + 1))))  # clique
        for parts in ([2, 2], [1, 3], [2, 3], [3, 3], [1, 2, 3], [2, 2, 2], [1, 1, 4], [4, 5]):
            if sum(parts) <= n:
                cases.append((n, _multipartite(n, parts)))
    cases += [(n, (1 << edge_count(n)) - 1 ^ g) for n, g in list(cases)]  # complements
    codes = [canonical_code(n, g) for n, g in cases]
    monkeypatch.setattr(canon, "_twin_classes", lambda adj: None)
    assert [canonical_code(n, g) for n, g in cases] == codes


def test_canonical_code_refuses_negative_n():
    with pytest.raises(ValueError, match="need n >= 0"):
        canonical_code(-1, 0)


def test_canonical_code_refuses_masks_out_of_range():
    # -1 used to loop forever in mask_bits, 8 to end in an IndexError
    for n, mask in ((3, -1), (3, 8), (4, 1 << 6), (0, 1)):
        with pytest.raises(ValueError, match="outside"):
            canonical_code(n, mask)


def test_graphs_by_edge_count_refuses_negative_n():
    with pytest.raises(ValueError, match="need n >= 0"):
        graphs_by_edge_count(-1)


def test_generate_by_edge_count_refuses_negative_n():
    with pytest.raises(ValueError, match="need n >= 0"):
        generate_by_edge_count(-2)


def test_generate_by_edge_count_refuses_negative_max_edges():
    # max_edges=-1 used to return [[0]]
    with pytest.raises(ValueError, match="need max_edges >= 0"):
        generate_by_edge_count(4, max_edges=-1)
    assert generate_by_edge_count(4, max_edges=0) == [[0]]
