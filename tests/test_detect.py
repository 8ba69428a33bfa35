import random
from itertools import permutations

import pytest

from edgemaps.detect import (
    find_exclusive,
    find_fixed,
    find_free,
    find_shifted,
    fixed_graph,
    max_exclusive_star,
    max_free_star,
    shifted_graph,
    validate,
)
from edgemaps.graphs import (
    edge_id,
    edge_vertex_mask,
    edges_overlap,
    make_pattern,
)
from edgemaps.mapping import EdgeMapping, MappingClass, random_mapping

K4_INVOLUTION = EdgeMapping(4, (5, 4, 3, 2, 1, 0))


def _copy_edges(P, emb):
    return [
        edge_id(emb[u], emb[v])
        for u in range(P.k)
        for v in range(u + 1, P.k)
        if P.graph.has_edge(u, v)
    ]


def _naive_exists(mapping, P, relation):
    """Definition-chasing reference for every finder."""
    for emb in permutations(range(mapping.n), P.k):
        eids = _copy_edges(P, emb)
        if relation == "fixed":
            ok = all(mapping(e) == e for e in eids)
        elif relation == "shifted":
            ok = all(mapping(e) != e for e in eids)
        elif relation == "strong_shifted":
            ok = all(edges_overlap(e, mapping(e)) == 0 for e in eids)
        elif relation == "free":
            eset = set(eids)
            ok = all(mapping(e) not in eset for e in eids)
        else:  # exclusive
            vmask = 0
            for x in emb:
                vmask |= 1 << x
            ok = all(edge_vertex_mask(mapping(e)) & vmask == 0 for e in eids)
        if ok:
            return True
    return False


FINDERS = {
    "fixed": find_fixed,
    "shifted": find_shifted,
    "strong_shifted": lambda f, P: find_shifted(f, P, strong=True),
    "free": find_free,
    "exclusive": find_exclusive,
}

PATTERNS = ["K2", "P3", "K3", "2K2", "K1,3", "P4"]


@pytest.mark.parametrize("relation", sorted(FINDERS))
def test_finders_agree_with_definition(relation):
    finder = FINDERS[relation]
    rng = random.Random(20240517)
    pats = [make_pattern(s) for s in PATTERNS]
    for trial in range(120):
        n = rng.choice((4, 5, 6))
        f = random_mapping(n, rng)
        for P in pats:
            cert = finder(f, P)
            assert (cert is not None) == _naive_exists(f, P, relation), (
                f"{relation} disagrees on {P} for {f.images}"
            )
            if cert is not None:
                assert validate(f, cert)


def test_identity_mapping_relations():
    ident = EdgeMapping.identity(5)
    assert find_fixed(ident, make_pattern("K4")) is not None
    assert find_shifted(ident, make_pattern("K2")) is None
    assert find_free(ident, make_pattern("K2")) is None
    # an image equal to the edge sits inside every copy containing it
    assert find_free(ident, make_pattern("2K2")) is None


def test_involution_relations():
    f = K4_INVOLUTION
    assert find_fixed(f, make_pattern("K2")) is None
    assert find_shifted(f, make_pattern("K3"), strong=True) is not None
    # both matching edges map onto each other, so no free 2K2
    assert find_free(f, make_pattern("2K2")) is None
    assert find_free(f, make_pattern("K2")) is not None
    # every image is disjoint from its source edge
    assert find_exclusive(f, make_pattern("K2")) is not None
    # but a 2K2 copy spans all four vertices, leaving images nowhere to go
    assert find_exclusive(f, make_pattern("2K2")) is None


def test_fixed_and_shifted_graphs():
    ident = EdgeMapping.identity(4)
    assert fixed_graph(ident).m == 6
    assert shifted_graph(ident).m == 0
    assert fixed_graph(K4_INVOLUTION).m == 0
    assert shifted_graph(K4_INVOLUTION, strong=True).m == 6


def _naive_max_free_star(mapping):
    """Exhaust leaf subsets: the star is free iff no edge maps onto a star edge."""
    from itertools import combinations

    best = 0
    n = mapping.n
    for c in range(n):
        others = [w for w in range(n) if w != c]
        for size in range(len(others), best, -1):
            found = False
            for S in combinations(others, size):
                eids = {edge_id(c, w) for w in S}
                if all(mapping(e) not in eids and mapping(e) != e for e in eids):
                    found = True
                    break
            if found:
                best = size
                break
    return best


def test_max_free_star_is_exact():
    rng = random.Random(7)
    for _ in range(60):
        f = random_mapping(6, rng)
        r, center, leaves = max_free_star(f)
        assert r == _naive_max_free_star(f)
        assert len(leaves) == r
        eids = {edge_id(center, w) for w in leaves}
        for e in eids:
            assert f(e) not in eids and f(e) != e


def test_max_exclusive_star_leaves_are_clear():
    rng = random.Random(8)
    for _ in range(60):
        f = random_mapping(7, rng, MappingClass("disjoint"))
        r, center, leaves = max_exclusive_star(f)
        star_vmask = 1 << center
        for w in leaves:
            star_vmask |= 1 << w
        for w in leaves:
            img = f(edge_id(center, w))
            assert edge_vertex_mask(img) & star_vmask == 0


def test_validate_rejects_wrong_certificates():
    from edgemaps.detect import Certificate

    f = EdgeMapping.identity(4)
    bogus = Certificate("free", make_pattern("K2"), (0, 1))
    assert not validate(f, bogus)
    genuine = find_fixed(f, make_pattern("K3"))
    assert validate(f, genuine)
