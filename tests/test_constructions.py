import hashlib
import inspect
from itertools import product

import pytest

from edgemaps import constructions
from edgemaps.constructions import (
    ConstructionResult,
    bipartite_matching,
    chromatic_blocks,
    circulant,
    cycle_decomp_star_exclusive,
    cycle_decomposition,
    euler_circuit,
    euler_partition,
    fixed_clique_partition,
    frobenius_decomposition,
    frobenius_tree_lower,
    k4_involution,
    matching_3k2,
    modular_shift,
    pentagon_involution,
    star_shift,
    tripartite_hall,
    z7_difference,
)
from edgemaps.detect import find_exclusive, find_fixed, find_free, find_shifted, fixed_graph
from edgemaps.graphs import SimpleGraph, complete, edge_id, edge_pair, make_pattern, star
from edgemaps.mapping import MappingClass


def test_frobenius_decomposition():
    assert frobenius_decomposition(3, 5, 8) == (1, 1)
    assert frobenius_decomposition(3, 5, 7) is None  # Frobenius number of (3, 5)
    assert frobenius_decomposition(3, 5, 9) == (3, 0)
    assert frobenius_decomposition(2, 3, 0) == (0, 0)
    with pytest.raises(ValueError):
        frobenius_decomposition(0, 5, 8)


def test_euler_circuit_covers_k5():
    K5 = complete(5).graph
    walk = euler_circuit(K5, list(range(5)))
    assert walk[0] == walk[-1]
    assert len(walk) == K5.m + 1
    used = {edge_id(u, v) for u, v in zip(walk, walk[1:])}
    assert used == set(K5.edges)


def test_euler_circuit_rejects_odd_degrees():
    with pytest.raises(ValueError):
        euler_circuit(complete(4).graph, list(range(4)))


def test_cycle_decomposition_partitions_edges():
    K7 = complete(7).graph
    cycles = cycle_decomposition(K7)
    seen = set()
    for cyc in cycles:
        assert len(cyc) >= 3
        edges = {edge_id(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))}
        assert len(edges) == len(cyc)
        assert not edges & seen
        seen |= edges
    assert seen == set(K7.edges)


def test_bipartite_matching_perfect_on_k33():
    edges = [(u, v) for u in range(3) for v in range(3)]
    m = bipartite_matching(3, 3, edges)
    assert len(m) == 3
    assert sorted(m.values()) == sorted(set(m.values()))


def test_bipartite_matching_respects_structure():
    edges = [(0, 0), (0, 1), (1, 1), (2, 0)]
    m = bipartite_matching(3, 2, edges)
    assert len(m) == 2  # the maximum here
    assert all((u, v) in edges for u, v in m.items())
    assert len(set(m.values())) == len(m)


ALL_BUILDERS = [
    lambda: modular_shift(5),
    lambda: modular_shift(8),
    lambda: fixed_clique_partition(3, 3),
    lambda: fixed_clique_partition(3, 4),
    lambda: fixed_clique_partition(4, 3),
    lambda: star_shift(7),
    lambda: tripartite_hall(),
    lambda: frobenius_tree_lower(3, 2, 1),
    lambda: cycle_decomp_star_exclusive(3, 2),
    lambda: cycle_decomp_star_exclusive(3, 3),
    lambda: chromatic_blocks(3, 2),
    lambda: k4_involution(),
    lambda: matching_3k2(),
    lambda: pentagon_involution(),
    lambda: z7_difference(),
]


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_builders_return_verified_results(builder):
    res = builder()
    assert isinstance(res, ConstructionResult)
    assert res.claims
    assert res.provenance


# one sha256 per builder over its builds on every argument tuple in 0..6:
# the arguments, the mapping's images, the claims and the provenance, so a
# moved image, claim or refusal shows here
BUILDER_DIGESTS = {
    "chromatic_blocks": "79f93376a202d80448d2ab288df78e73b564d087e50b5e7b96c90398d8305400",
    "cycle_decomp_star_exclusive": "09aa938e7b928e519ddcc46ba9594cff90d1f45e1ccef3c5bc263010ccb3c6d5",
    "fixed_clique_partition": "68cda03d6da2e13b0ddc891536e136c68d8070dd2fb9bc7aee6b234571f35fff",
    "frobenius_tree_lower": "b2ac7f19e87c2d3b7cb9d185779ece6be7e1c55cc989a2d0e27fe0da0a6a0fa0",
    "k4_involution": "4e50584d7534a4e0807554dcb4cfd6db32b9ad4653aff9796737cbe317344cd6",
    "matching_3k2": "4f05b60015c3592d8a7f14e25be98dc3502658a6936e6eadd47592df578901b6",
    "modular_shift": "2aed1ab5350b93f89313e99036dbaffdd8361978f372622af029f0dbcc12ec17",
    "pentagon_involution": "0b537d78e2ae65d69501182665fb4064b7be04cc445d8792fb4e5f4f66182b86",
    "star_shift": "7a3af22d9536d9dca9fb37b8e9d5ba4991c948e16d177b91422705ea5109bc5e",
    "tripartite_hall": "0d96ae22fcdcea195cf42563a0d80534acabd1d640ae575a8318403233449e89",
    "z7_difference": "9eb2c8db53986e7db3d1abcdfcc8dabc8563ff0334e129725b762f0d1ac34230",
}


@pytest.mark.parametrize("name", sorted(BUILDER_DIGESTS))
def test_builders_keep_their_mappings(name):
    builder = getattr(constructions, name)
    digest = hashlib.sha256()
    for args in product(range(7), repeat=len(inspect.signature(builder).parameters)):
        try:
            res = builder(*args)
        except ValueError:
            continue
        claims = [(rel, str(P)) for rel, P in res.claims]
        digest.update(repr((args, res.mapping.images, claims, res.provenance)).encode())
    assert digest.hexdigest() == BUILDER_DIGESTS[name]


def _rotate(n: int, e: int) -> int:
    u, v = edge_pair(e)
    return edge_id((u + 1) % n, (v + 1) % n)


@pytest.mark.parametrize(
    "n, reps",
    [
        (5, {1: (2, 4), 2: (3, 4)}),
        (6, {1: (2, 4), 2: (0, 3), 3: (1, 4)}),
        (7, {1: (3, 5), 2: (1, 2), 3: (0, 6)}),
        (8, {1: (2, 5), 2: (1, 6), 3: (3, 4), 4: (2, 6)}),
    ],
)
def test_circulant_commutes_with_rotation(n, reps):
    f = circulant(n, reps)
    for e in range(len(f.images)):
        assert f(_rotate(n, e)) == _rotate(n, f(e))
    for d, (a, b) in reps.items():
        assert f(edge_id(0, d)) == edge_id(a % n, b % n)


def test_circulant_refuses_what_the_half_turn_moves():
    # the half-turn fixes {0, 2} on K4 but moves (0, 1) to (2, 3)
    with pytest.raises(ValueError, match="half-turn"):
        circulant(4, {2: (0, 1)})
    with pytest.raises(ValueError, match="half-turn"):
        circulant(4, {1: (2, 3), 2: (0, 1)})
    with pytest.raises(ValueError):
        circulant(5, {1: (2, 4)})  # difference 2 has no image


def test_cyclic_builders_keep_their_images():
    assert k4_involution().mapping.images == (5, 4, 3, 2, 1, 0)
    assert pentagon_involution().mapping.images == (8, 9, 3, 2, 6, 7, 4, 5, 0, 1)
    assert z7_difference().mapping.images == (
        5, 19, 9, 17, 10, 14, 18, 3, 16, 20, 8, 6, 7, 1, 15, 2, 13, 11, 12, 4, 0
    )


def test_star_shift_claims_directly():
    res = star_shift(7)
    f = res.mapping
    assert f.n == 7
    assert find_free(f, make_pattern("2K2")) is None
    # claims cover every spanning tree shape on 7 vertices
    tree_claims = [P for rel, P in res.claims if rel == "fixed"]
    assert len(tree_claims) == 11
    for P in tree_claims:
        assert find_fixed(f, P) is None


def test_fixed_clique_partition_small():
    res = fixed_clique_partition(3, 3)
    f = res.mapping
    assert f.n == 4
    assert find_shifted(f, make_pattern("K3")) is None
    assert find_free(f, make_pattern("K3")) is None


def test_tripartite_hall_claims():
    res = tripartite_hall()
    f = res.mapping
    assert f.n == 9
    assert find_fixed(f, make_pattern("K1,3")) is None
    assert find_fixed(f, make_pattern("P4")) is None
    assert find_free(f, make_pattern("K3")) is None


def test_chromatic_blocks_fixed_graph_is_complete_bipartite():
    res = chromatic_blocks(3, 2)
    f = res.mapping
    assert find_free(f, make_pattern("K1,2")) is None
    fixed = fixed_graph(f)
    parts: dict[int, int] = {}
    # two-color the fixed graph and confirm completeness across the cut
    from edgemaps.graphs import chromatic_number

    assert chromatic_number(fixed) == 2
    comp = fixed
    # bipartition by greedy BFS
    color = [-1] * comp.n
    for s in range(comp.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w in range(comp.n):
                if w != v and comp.has_edge(v, w) and color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
    left = [v for v in range(comp.n) if color[v] == 0 and comp.degrees[v]]
    right = [v for v in range(comp.n) if color[v] == 1]
    for u in left:
        for w in right:
            assert comp.has_edge(u, w)


def test_cycle_decomp_star_exclusive_claims():
    for r in (2, 3):
        res = cycle_decomp_star_exclusive(3, r)
        f = res.mapping
        assert find_exclusive(f, star(r)) is None


def test_euler_partition_avoids_free_star():
    n, r = 5, 3
    res = euler_partition(SimpleGraph.empty(n), SimpleGraph.complete(n), r)
    f = res.mapping
    assert find_free(f, star(r)) is None


def test_chromatic_blocks_large_r_builds():
    # _emit checks the free K1,10 absence on K_38, where a walk over the
    # copy plan grows about fourfold per leaf
    res = chromatic_blocks(3, 10)
    assert res.mapping.n == 38
    assert find_free(res.mapping, star(10)) is None


def test_euler_partition_validates_inputs():
    with pytest.raises(ValueError):
        euler_partition(SimpleGraph.empty(4), SimpleGraph.empty(4), 2)
    with pytest.raises(ValueError):
        euler_partition(SimpleGraph.empty(5), SimpleGraph.complete(5), 2)


def test_modular_shift_stays_within_overlap_one():
    # consecutive difference classes share a vertex, so disjointness can fail
    for n in (5, 7, 8):
        res = modular_shift(n)
        assert MappingClass("overlap_le_1").admits(res.mapping)


def test_pentagon_involution_avoids_exclusive_star():
    res = pentagon_involution()
    f = res.mapping
    assert f.n == 5
    assert MappingClass("disjoint").admits(f)
    assert find_exclusive(f, make_pattern("K1,2")) is None


def test_z7_difference_avoids_exclusive_matching():
    res = z7_difference()
    f = res.mapping
    assert f.n == 7
    assert MappingClass("disjoint").admits(f)
    assert find_exclusive(f, make_pattern("2K2")) is None


def test_frobenius_tree_lower_representability_gate():
    # variant 1 at (k, r) = (3, 2) exists; an unrepresentable size must raise
    res = frobenius_tree_lower(3, 2, 1)
    assert res.mapping.n >= 3
    with pytest.raises(ValueError):
        frobenius_tree_lower(3, 2, 9)
