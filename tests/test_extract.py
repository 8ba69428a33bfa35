import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from edgemaps.detect import _star_embedding, validate
from edgemaps.extract import (
    FunctionalDigraph,
    color_bounded,
    _peel_order,
    exclusive_star,
    independent_set_d1,
)
from edgemaps.graphs import edge_id, edges_overlap, mask_bits, star
from edgemaps.mapping import ContractError, EdgeMapping, MappingClass, random_mapping


def digraphs(d_max=3, n_max=12):
    def build(args):
        n, d, seed = args
        rng = random.Random(seed)
        arcs = []
        for v in range(n):
            k = rng.randint(0, d)
            choices = [w for w in range(n) if w != v]
            arcs.append(rng.sample(choices, min(k, len(choices))))
        return FunctionalDigraph.from_arcs(n, arcs, d=d)

    return st.tuples(
        st.integers(min_value=1, max_value=n_max),
        st.integers(min_value=1, max_value=d_max),
        st.integers(min_value=0, max_value=2**30),
    ).map(build)


def test_digraph_validation():
    with pytest.raises(ContractError):
        FunctionalDigraph(2, ((1,), (0, 0)), d=1)  # duplicate arc blows the budget
    with pytest.raises(ContractError):
        FunctionalDigraph(2, ((0,), ()), d=1)  # loop
    with pytest.raises(ContractError):
        FunctionalDigraph(3, ((1, 2), (), ()), d=1)  # out-degree over budget
    D = FunctionalDigraph.from_arcs(3, [[1], [2], []])
    assert D.d == 1
    assert D.zero_outdeg_count == 1


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_coloring_is_proper_and_narrow(D):
    colors = color_bounded(D)
    assert len(set(colors)) <= 2 * D.d + 1
    for v in range(D.n):
        for w in mask_bits(D.undirected[v]):
            assert colors[v] != colors[w]


def _peel_by_scan(adj):
    """The peel as a scan: each step takes the least (degree, vertex) among
    the vertices left."""
    deg = [a.bit_count() for a in adj]
    left = set(range(len(adj)))
    peel = []
    while left:
        v = min(left, key=lambda x: (deg[x], x))
        left.remove(v)
        peel.append(v)
        for w in mask_bits(adj[v]):
            if w in left:
                deg[w] -= 1
    return peel


def test_peel_order_matches_the_scan():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 60)
        d = rng.randint(1, 4)
        arcs = [rng.sample([w for w in range(n) if w != v], min(rng.randint(0, d), n - 1))
                for v in range(n)]
        adj = FunctionalDigraph.from_arcs(n, arcs, d=d).undirected
        assert _peel_order(adj) == _peel_by_scan(adj)


def _greedy_by_sets(adj: list[set]) -> list[int]:
    """Greedy coloring from the definition: in reverse scan-peel order each
    vertex takes the least color no colored neighbour holds."""
    colors = [-1] * len(adj)
    for v in reversed(_peel_by_scan([sum(1 << w for w in a) for a in adj])):
        taken = {colors[w] for w in adj[v]}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def _largest_color_class(colors: list[int]) -> list[int]:
    """The vertices of the largest color class, least first vertex on a tie."""
    by: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by.setdefault(c, []).append(v)
    return max(by.values(), key=lambda cls: (len(cls), -cls[0]), default=[])


def _exclusive_star_by_sets(f: EdgeMapping, v: int, r: int) -> tuple[int, ...]:
    """The star ``exclusive_star`` extracts, from the definition: leaves l
    and t conflict when the image of vl touches t; the first r leaves of the
    largest greedy color class (least first leaf on a tie)."""
    leaves = [x for x in range(f.n) if x != v]
    assert all(edges_overlap(edge_id(v, l), f(edge_id(v, l))) == 0 for l in leaves)
    adj = [set() for _ in leaves]
    for i, l in enumerate(leaves):
        img = f(edge_id(v, l))
        for j, t in enumerate(leaves):
            if edges_overlap(img, edge_id(v, t)):
                adj[i].add(j)
                adj[j].add(i)
    cls = _largest_color_class(_greedy_by_sets(adj))
    return _star_embedding(star(r), v, tuple(sorted(leaves[i] for i in cls)[:r]))


def test_extraction_equals_the_set_based_reference():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(0, 40)
        d = rng.randint(1, 3)
        arcs = [rng.sample([w for w in range(n) if w != v], min(rng.randint(0, d), n - 1))
                for v in range(n)]
        D = FunctionalDigraph.from_arcs(n, arcs, d=d)
        adj = [set() for _ in range(n)]
        for v, out in enumerate(D.arcs):
            for w in out:
                adj[v].add(w)
                adj[w].add(v)
        assert color_bounded(D) == _greedy_by_sets(adj)
    cases = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(4, 13)
        f = random_mapping(n, rng, MappingClass("disjoint"))
        for v in range(n):
            for r in range(1, (n + 3) // 5 + 1):
                assert exclusive_star(f, v, r).embedding == _exclusive_star_by_sets(f, v, r)
                cases += 1
    assert cases > 2000


@given(digraphs())
@settings(max_examples=80, deadline=None)
def test_largest_color_class_meets_pigeonhole(D):
    cls = _largest_color_class(color_bounded(D))
    assert len(cls) * (2 * D.d + 1) >= D.n


@given(digraphs(d_max=1, n_max=10))
@settings(max_examples=150, deadline=None)
def test_independent_set_d1_guarantee(D):
    S = independent_set_d1(D)
    # independence in the underlying undirected graph
    for a in S:
        for b in S:
            if a != b:
                assert not D.undirected[a] >> b & 1
    m = D.zero_outdeg_count
    assert len(S) >= m + math.ceil((D.n - 2 * m) / 3)


def test_independent_set_d1_is_optimal_on_small_cases():
    # exhaustive maximum for comparison on every out-degree-1 digraph shape
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        arcs = []
        for v in range(n):
            if rng.random() < 0.7 and n > 1:
                arcs.append([rng.choice([w for w in range(n) if w != v])])
            else:
                arcs.append([])
        D = FunctionalDigraph.from_arcs(n, arcs, d=1)
        S = independent_set_d1(D)
        best = 0
        for mask in range(1 << n):
            chosen = [v for v in range(n) if mask >> v & 1]
            if all(not D.undirected[a] >> b & 1 for a in chosen for b in chosen if a < b):
                best = max(best, len(chosen))
        assert len(S) == best


def test_independent_set_d1_guarantee_on_every_small_digraph():
    # every digraph of out-degree <= 1 on n <= 5 vertices: n^n of them
    count = 0
    for n in range(1, 6):
        choices = [[None] + [w for w in range(n) if w != v] for v in range(n)]
        for pick in itertools.product(*choices):
            D = FunctionalDigraph.from_arcs(n, [[] if w is None else [w] for w in pick], d=1)
            S = independent_set_d1(D)
            assert S == sorted(set(S))
            assert all(not D.undirected[a] >> b & 1 for a in S for b in S)
            m = D.zero_outdeg_count
            assert len(S) >= m + math.ceil((n - 2 * m) / 3)
            count += 1
    assert count == 3413
    # not maximum in general: on this double star {2, 3, 4, 5} is independent,
    # and the set returned has the guaranteed 1 + ceil(4/3) = 3 vertices
    D = FunctionalDigraph.from_arcs(6, [[1], [], [0], [0], [1], [1]], d=1)
    assert all(not D.undirected[a] >> b & 1 for a in (2, 3, 4, 5) for b in (2, 3, 4, 5))
    assert D.zero_outdeg_count == 1
    assert independent_set_d1(D) == [0, 4, 5]


def test_independent_set_rejects_wide_digraphs():
    D = FunctionalDigraph.from_arcs(3, [[1, 2], [], []], d=2)
    with pytest.raises(ContractError):
        independent_set_d1(D)


Z7_DIFFERENCE = None  # filled lazily, construction import kept local


def _z7():
    global Z7_DIFFERENCE
    if Z7_DIFFERENCE is None:
        from edgemaps.constructions import z7_difference

        Z7_DIFFERENCE = z7_difference().mapping
    return Z7_DIFFERENCE


def test_exclusive_star_on_moved_clear_mapping():
    f = _z7()
    # degree 6 supports r = 2 (needs 5r - 4 = 6)
    cert = exclusive_star(f, 0, 2)
    assert cert.kind == "exclusive"
    assert validate(f, cert)


def test_exclusive_star_contract_checks():
    f = _z7()
    with pytest.raises(ValueError):
        exclusive_star(f, 0, 3)  # needs degree >= 11
    ident = EdgeMapping.identity(7)
    with pytest.raises(ContractError):
        exclusive_star(ident, 0, 1)  # star edges are fixed, not strong-shifted
    # the error names the lowest leaf whose star edge is not moved clear
    images = list(f.images)
    images[edge_id(0, 3)] = edge_id(3, 5)
    images[edge_id(0, 5)] = edge_id(0, 1)
    with pytest.raises(ContractError, match=r"edge \(0, 3\) at v is not strong-shifted"):
        exclusive_star(EdgeMapping(7, tuple(images)), 0, 1)
    images = list(f.images)
    images[edge_id(2, 4)] = edge_id(1, 4)
    with pytest.raises(ContractError, match=r"edge \(2, 4\) at v is not strong-shifted"):
        exclusive_star(EdgeMapping(7, tuple(images)), 4, 1)
    with pytest.raises(ValueError):
        # every edge of K3 touches the other two, so none moves clear
        exclusive_star(EdgeMapping(3, (1, 2, 0)), 0, 1)
    for v in (-1, 7, 9):
        with pytest.raises(ValueError, match=f"center {v} is not a vertex of K_7"):
            exclusive_star(f, v, 1)
