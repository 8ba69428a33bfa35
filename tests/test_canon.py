from hypothesis import given, settings, strategies as st

from edgemaps.canon import canonical_code, generate_by_edge_count, graphs_by_edge_count
from edgemaps.graphs import (
    SimpleGraph,
    complete_bipartite,
    contains_copy,
    cycle,
    edge_count,
    edge_id,
    make_pattern,
    path,
    star,
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
GRAPH_COUNTS = {2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_catalogue_levels_n4():
    levels = graphs_by_edge_count(4)
    assert tuple(len(lv) for lv in levels) == N4_LEVELS
    assert tuple(len(lv) for lv in graphs_by_edge_count(7)) == N7_LEVELS


def test_catalogue_totals():
    for n, total in GRAPH_COUNTS.items():
        assert sum(len(lv) for lv in graphs_by_edge_count(n)) == total


def test_catalogue_masks_are_canonical_representatives():
    seen = set()
    for lv in graphs_by_edge_count(5):
        for mask in lv:
            code = canonical_code(5, mask)
            assert code not in seen
            seen.add(code)


def test_generate_with_keep_filter():
    tri = make_pattern("K3")
    kept = generate_by_edge_count(5, keep=lambda mask: not contains_copy(tri, _graph(5, mask)))
    flat = [m for lv in kept for m in lv]
    assert all(not contains_copy(tri, _graph(5, m)) for m in flat)
    # every triangle-free 5-vertex graph has at most 6 edges (bipartite max)
    assert max(_graph(5, m).m for m in flat) == 6


def test_generate_max_edges_cutoff():
    levels = generate_by_edge_count(4, max_edges=3)
    assert len(levels) == 4
    assert tuple(len(lv) for lv in levels) == N4_LEVELS[:4]
