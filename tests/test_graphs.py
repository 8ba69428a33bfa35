import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from edgemaps.canon import graphs_by_edge_count
from edgemaps.graphs import (
    PatternGraph,
    SimpleGraph,
    _count_rows,
    _embedding_order,
    all_trees,
    chromatic_number,
    complete,
    complete_bipartite,
    complete_minus_clique,
    complete_minus_factor,
    contains_copy,
    count_copies,
    cycle,
    edge_count,
    edge_id,
    edge_pair,
    edge_table,
    edges_overlap,
    enumerate_copies,
    from_edge_list,
    join,
    load_pattern,
    make_pattern,
    mask_bits,
    matching,
    max_clique_size,
    multi,
    pair_ids,
    parse_edge_list,
    parse_graph6,
    path,
    star,
    turan_graph,
    union,
)

# colex layout: edge (u, v) with u < v gets id C(v, 2) + u
COLEX_FIRST = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4)]


def test_edge_id_colex_order():
    for eid, (u, v) in enumerate(COLEX_FIRST):
        assert edge_id(u, v) == eid
        assert edge_pair(eid) == (u, v)


def test_edge_id_symmetric_and_rejects_loops():
    assert edge_id(3, 1) == edge_id(1, 3)
    with pytest.raises(ValueError):
        edge_id(2, 2)


def test_pair_ids_table():
    for n in range(1, 8):
        ids = pair_ids(n)
        assert len(ids) == n * n
        for a in range(n):
            assert ids[a * n + a] == -1
            assert all(ids[a * n + b] == edge_id(a, b) for b in range(n) if b != a)


def test_edge_count_refuses_negative_n():
    # edge_count(-1) used to be 1
    with pytest.raises(ValueError, match="need n >= 0"):
        edge_count(-1)


def test_edge_table_refuses_negative_n():
    # edge_table(-1) used to return K2's table
    with pytest.raises(ValueError, match="need n >= 0"):
        edge_table(-1)


def test_pair_ids_refuses_negative_n():
    with pytest.raises(ValueError, match="need n >= 0"):
        pair_ids(-2)


def test_simple_graph_checks_edge_ids_against_n():
    # colex ids: K_5's edges are 0 .. 9, the last of them (3, 4)
    top = SimpleGraph(5, frozenset({0, 9}))
    assert top.pairs() == [(0, 1), (3, 4)]
    with pytest.raises(ValueError, match="bad edge id -1"):
        SimpleGraph(5, frozenset({-1, 3}))
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for n=5"):
        SimpleGraph(5, frozenset({2, 10}))
    with pytest.raises(ValueError, match="out of range for n=0"):
        SimpleGraph(0, frozenset({0}))
    assert SimpleGraph(0, frozenset()).m == 0


@given(st.integers(min_value=0, max_value=edge_count(40) - 1))
def test_edge_id_round_trip(eid):
    u, v = edge_pair(eid)
    assert 0 <= u < v
    assert edge_id(u, v) == eid


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
def test_edges_overlap_is_shared_endpoints(e1, e2):
    a, b = set(edge_pair(e1)), set(edge_pair(e2))
    assert edges_overlap(e1, e2) == len(a & b)


@pytest.mark.parametrize(
    "P,vertices,edges",
    [
        (complete(4), 4, 6),
        (star(3), 4, 3),
        (matching(2), 4, 2),
        (path(4), 4, 3),
        (cycle(5), 5, 5),
        (complete_bipartite(2, 3), 5, 6),
        (turan_graph(6, 3), 6, 12),
        (complete_minus_clique(4, 2), 4, 5),
        (complete_minus_factor(6), 6, 12),
    ],
)
def test_factory_sizes(P, vertices, edges):
    assert P.graph.n == vertices
    assert P.graph.m == edges


def test_union_multi_join():
    two = union(complete(2), complete(2))
    assert two.graph.n == 4 and two.graph.m == 2
    assert multi(3, complete(2)).graph.n == 6
    wheel_ish = join(complete(1), cycle(4))
    assert wheel_ish.graph.n == 5 and wheel_ish.graph.m == 8


@pytest.mark.parametrize(
    "spec,vertices,edges",
    [
        ("K4", 4, 6),
        ("K1,3", 4, 3),
        ("2K2", 4, 2),
        ("3K2", 6, 3),
        ("P4", 4, 3),
        ("C5", 5, 5),
        ("K3,3", 6, 9),
        ("K4-K2", 4, 5),
        ("K6-F", 6, 12),
        ("T6,3", 6, 12),
    ],
)
def test_make_pattern_specs(spec, vertices, edges):
    P = make_pattern(spec)
    assert P.graph.n == vertices
    assert P.graph.m == edges


def test_make_pattern_rejects_garbage():
    for bad in ("", "K", "QQQ", "K0"):
        with pytest.raises(ValueError):
            make_pattern(bad)


def test_pattern_names_round_trip():
    for spec in ("K4", "K1,3", "2K2", "P4", "C5", "K3,3"):
        P = make_pattern(spec)
        Q = make_pattern(str(P))
        assert Q.graph.edge_mask == P.graph.edge_mask


def test_edge_list_round_trip():
    Q = parse_edge_list("# K4 minus the edge 01\n4 5\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    P = make_pattern("K4-K2")
    assert Q.graph.n == P.graph.n and Q.graph.edge_mask == P.graph.edge_mask


def test_graph6_round_trip():
    # the graph6 encodings of the factory graphs, labelled as the factories label them
    cases = (("C~", "K4"), ("Dhc", "C5"), ("C`", "2K2"), (">>graph6<<EFz_", "K3,3"), ("E]~o", "K6-F"))
    for text, spec in cases:
        P = make_pattern(spec)
        Q = parse_graph6(text)
        assert Q.graph.n == P.graph.n and Q.graph.edge_mask == P.graph.edge_mask


def test_graph6_known_encoding():
    # K4 on 4 vertices, all six edges
    assert parse_graph6("C~").graph.m == 6
    assert parse_graph6("C~").graph.edge_mask == complete(4).graph.edge_mask


def test_graph6_refuses_wrong_length_and_padding():
    assert parse_graph6("Bw").graph.edge_mask == complete(3).graph.edge_mask
    # a character too many or too few, and nonzero bits after the C(3, 2) = 3 edge bits
    for text in ("BwA", "Bw?", "Bx", "B", "C~~"):
        with pytest.raises(ValueError):
            parse_graph6(text)


def test_load_pattern_dispatches_on_shape():
    el = load_pattern("4 3\n0 1\n1 2\n2 3\n")
    assert el.graph.m == 3 and el.graph.n == 4
    g6 = load_pattern("C~")
    assert g6.graph.m == 6


def test_from_edge_list_validates():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    # a negative id would otherwise wrap onto a real edge: (-1, 2) has the id of (0, 1)
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n-1 2\n")
    P = from_edge_list(4, [(0, 1), (2, 3)])
    assert P.graph.m == 2


def test_parse_edge_list_refuses_a_repeated_edge():
    # "1 0" is the edge "0 1" again, so the header's two edges are one
    with pytest.raises(ValueError, match="distinct"):
        parse_edge_list("3 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="distinct"):
        load_pattern("3 2\n0 1\n0 1\n")


def test_copy_counts_in_complete_host():
    K5 = complete(5).graph
    assert count_copies(complete(3), K5) == math.comb(5, 3)
    assert count_copies(complete(2), K5) == 10
    assert count_copies(matching(2), K5) == 15
    assert contains_copy(cycle(5), K5)
    assert not contains_copy(complete(4), cycle(5).graph)



def _reference_copies(P: PatternGraph | SimpleGraph, host: SimpleGraph):
    """Yield each copy of P in host exactly once, as a vertex map tuple.

    A copy is a subgraph of the host isomorphic to P; two embeddings that
    differ by an automorphism of P describe the same copy and are deduped
    on the (vertex set, edge set) image.  The map sends pattern vertex i
    to embedding[i].
    """
    pg = P.graph if isinstance(P, PatternGraph) else P
    if pg.n > host.n:
        return
    order = _embedding_order(pg)
    prev_nbrs = []
    for i, v in enumerate(order):
        prev_nbrs.append([(j, order[j]) for j in range(i) if pg.has_edge(v, order[j])])
    assign = [-1] * pg.n
    seen: set[tuple[int, int]] = set()

    def extend(i: int, used: int):
        if i == len(order):
            vmask = used
            emask = 0
            for e in pg.edges:
                a, b = edge_pair(e)
                emask |= 1 << edge_id(assign[a], assign[b])
            key = (vmask, emask)
            if key not in seen:
                seen.add(key)
                yield tuple(assign)
            return
        pv = order[i]
        for hv in range(host.n):
            if used & (1 << hv):
                continue
            ok = True
            for _, pu in prev_nbrs[i]:
                if not host.adj[hv] & (1 << assign[pu]):
                    ok = False
                    break
            if ok:
                assign[pv] = hv
                yield from extend(i + 1, used | (1 << hv))
        assign[pv] = -1

    yield from extend(0, 0)


def _graphs(max_n: int):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.builds(
            lambda mask: SimpleGraph(n, frozenset(e for e in range(edge_count(n)) if mask >> e & 1)),
            st.integers(min_value=0, max_value=(1 << edge_count(n)) - 1),
        )
    )


@given(_graphs(6), _graphs(8))
@settings(max_examples=300, deadline=None)
def test_enumerate_copies_matches_leaf_dedup_reference(P, host):
    # the same maps in the same order: one leaf per copy, the lex-least embedding
    assert list(enumerate_copies(P, host)) == list(_reference_copies(P, host))


def test_enumerate_copies_matches_reference_on_cliques_and_named_patterns():
    K8 = SimpleGraph.complete(8)
    for r in range(1, 9):
        assert list(enumerate_copies(complete(r), K8)) == list(_reference_copies(complete(r), K8))
    rng = random.Random(2007)
    hosts = [K8] + [
        SimpleGraph(n, frozenset(e for e in range(edge_count(n)) if rng.random() < 0.6))
        for n in (6, 7, 8, 8)
    ]
    for spec in ("K3", "2K2", "P4", "K1,3", "K4-K2", "3K2", "C4"):
        P = make_pattern(spec)
        for host in hosts:
            assert list(enumerate_copies(P, host)) == list(_reference_copies(P, host)), spec


def _count_walk_cases():
    """Every graph of the n <= 6 catalogue against a spread of patterns, one
    larger than every host and the empty pattern included."""
    patterns = [make_pattern(s) for s in ("K2", "K3", "P4", "P5", "C4", "K1,3", "2K2", "3K2", "K4-K2")]
    patterns += [complete(7), PatternGraph(SimpleGraph(0, frozenset()), "empty")]
    for n in range(7):
        for level in graphs_by_edge_count(n):
            for mask in level:
                host = SimpleGraph(n, frozenset(mask_bits(mask)))
                for P in patterns:
                    yield P, host


def test_count_walk_equals_the_enumeration():
    cases = 0
    for P, host in _count_walk_cases():
        want = len(list(enumerate_copies(P, host)))
        assert _count_rows(P.graph, host.n, host.adj, math.inf) == want, (P, host)
        assert count_copies(P, host) == want
        assert contains_copy(P, host) == (want > 0)
        cases += 1
    assert cases == 11 * sum(len(level) for n in range(7) for level in graphs_by_edge_count(n))


def test_count_walk_cap_contract():
    # exact below the cap, at least the cap otherwise
    for P, host in _count_walk_cases():
        want = count_copies(P, host)
        for cap in range(want + 2):
            got = _count_rows(P.graph, host.n, host.adj, cap)
            if want < cap:
                assert got == want, (P, host, cap)
            else:
                assert got >= cap, (P, host, cap)


def test_clique_and_chromatic():
    assert max_clique_size(complete(5).graph) == 5
    assert max_clique_size(cycle(5).graph) == 2
    assert chromatic_number(cycle(5).graph) == 3
    assert chromatic_number(complete_bipartite(3, 3).graph) == 2
    assert chromatic_number(complete(4).graph) == 4


def test_as_star_reads_the_shape_once(monkeypatch):
    shapes = {"K2": 1, "K1,2": 2, "K1,4": 4, "P4": None, "2K2": None, "K3": None}
    patterns = {name: make_pattern(name) for name in shapes}
    assert {name: P.as_star() for name, P in patterns.items()} == shapes
    # later calls answer from the memo, without the degree sequence
    monkeypatch.setattr(PatternGraph, "degseq", lambda self: pytest.fail("re-sorted"))
    assert {name: P.as_star() for name, P in patterns.items()} == shapes


@pytest.mark.parametrize(
    "k,count", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23), (9, 47)]
)
def test_tree_counts(k, count):
    # OEIS A000055
    trees = all_trees(k)
    assert len(trees) == count
    assert all(t.graph.n == k and t.graph.m == k - 1 for t in trees)
    assert all(t.graph.is_connected() for t in trees)


def test_turan_graph_rejects_bad_parts():
    with pytest.raises(ValueError):
        turan_graph(4, 0)
    with pytest.raises(ValueError):
        turan_graph(2, 3)
