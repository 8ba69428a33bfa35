import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from edgemaps.detect import (
    FINDERS,
    Certificate,
    _least_leaves,
    find_exclusive,
    find_fixed,
    find_free,
    find_shifted,
    fixed_graph,
    validate,
)
from edgemaps.graphs import (
    SimpleGraph,
    edge_id,
    edge_vertex_mask,
    edges_overlap,
    enumerate_copies,
    from_edge_list,
    make_pattern,
)
from edgemaps.mapping import EdgeMapping, MappingClass, random_mapping

K4_INVOLUTION = EdgeMapping(4, (5, 4, 3, 2, 1, 0))


def shifted_graph(mapping, strong=False):
    """Subgraph of edges with f(e) != e; with ``strong``, of edges disjoint from f(e)."""
    if strong:
        keep = frozenset(
            e for e, img in enumerate(mapping.images) if edges_overlap(e, img) == 0
        )
    else:
        keep = frozenset(e for e, img in enumerate(mapping.images) if img != e)
    return SimpleGraph(mapping.n, keep)


def _relation_graph(mapping, kind):
    """Subgraph of the edges in a fixed / shifted / strong-shifted relation."""
    if kind == "fixed":
        return SimpleGraph(
            mapping.n, frozenset(e for e, img in enumerate(mapping.images) if img == e)
        )
    return shifted_graph(mapping, strong=kind == "strong_shifted")


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


PATTERNS = ["K2", "P3", "K3", "2K2", "K1,3", "K1,4", "P4", "C4"]


@pytest.mark.parametrize("relation", sorted(FINDERS))
def test_finders_agree_with_definition(relation):
    finder = FINDERS[relation]
    rng = random.Random(20240517)
    # the last pattern has an isolated vertex
    pats = [make_pattern(s) for s in PATTERNS] + [from_edge_list(4, [(0, 1), (1, 2)])]
    for trial in range(120):
        n = rng.choice((4, 5, 6, 7))
        # unrestricted draws rarely hold exclusive copies; disjoint ones often do
        cls = MappingClass(rng.choice(("all", "disjoint")))
        f = random_mapping(n, rng, cls)
        for P in pats:
            cert = finder(f, P)
            assert (cert is not None) == _naive_exists(f, P, relation), (
                f"{relation} disagrees on {P} for {f.images}"
            )
            if cert is not None:
                assert validate(f, cert)


# the patterns of the benchmark's verify workload, one with an isolated
# vertex, and one with more vertices than any host drawn below
CERT_PATTERNS = [make_pattern(s) for s in ("K3", "2K2", "P4", "K1,3", "K4-K2", "3K2", "C4", "5K2")]
CERT_PATTERNS.append(from_edge_list(4, [(0, 1), (1, 2)]))
STARS = [make_pattern(s) for s in ("K1,2", "K1,4")]


@st.composite
def class_mappings(draw):
    """A seeded draw from an overlap class, with some edges then fixed where
    the class allows it, so that fixed copies occur too."""
    cls = MappingClass(draw(st.sampled_from(MappingClass.KINDS)))
    n = draw(st.integers(min_value=4, max_value=9))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rate = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    images = list(random_mapping(n, rng, cls).images)
    for e in range(len(images)):
        if cls.value_ok(e, e) and rng.random() < rate:
            images[e] = e
    return EdgeMapping(n, tuple(images))


def _meets(f, P, relation, emb):
    """Whether the copy of P at ``emb`` meets the relation's definition."""
    return validate(f, Certificate(relation, P, emb))


@given(class_mappings())
@settings(max_examples=120, deadline=None)
def test_fixed_and_shifted_certificates_are_the_first_copy(f):
    for kind in ("fixed", "shifted", "strong_shifted"):
        host = _relation_graph(f, kind)
        for P in CERT_PATTERNS + STARS:
            emb = next(enumerate_copies(P, host), None)
            want = None if emb is None else Certificate(kind, P, emb)
            assert FINDERS[kind](f, P) == want, (kind, str(P), f.images)
    # a free or exclusive certificate, stars included, is the first copy in
    # K_n, along the same walk, that meets the definition
    host = SimpleGraph.complete(f.n)
    for kind in ("free", "exclusive"):
        for P in CERT_PATTERNS + STARS:
            emb = next((e for e in enumerate_copies(P, host) if _meets(f, P, kind, e)), None)
            want = None if emb is None else Certificate(kind, P, emb)
            assert FINDERS[kind](f, P) == want, (kind, str(P), f.images)


def _conflict_rows(n, pairs):
    conf = [0] * n
    for a, b in pairs:
        conf[a] |= 1 << b
        conf[b] |= 1 << a
    return conf


def _least_by_brute_force(conf, cand, k):
    pool = [v for v in range(len(conf)) if cand >> v & 1]
    for S in combinations(pool, k):
        if all(not conf[a] >> b & 1 for a, b in combinations(S, 2)):
            return S
    return None


def test_least_leaves_match_brute_force():
    rng = random.Random(37)
    cases = []
    for _ in range(300):
        n = rng.randint(0, 12)
        p = rng.choice((0.1, 0.3, 0.6))
        pairs = [(a, b) for a, b in combinations(range(n), 2) if rng.random() < p]
        cand = rng.getrandbits(n) if rng.random() < 0.3 else (1 << n) - 1
        cases.append((n, pairs, cand))
    # perfect matchings and paths, in order and relabelled, where the cut on a
    # candidate with at most one conflict decides absences
    for n in (2, 5, 8, 12):
        for perm in (list(range(n)), rng.sample(range(n), n)):
            cases.append((n, [(perm[v], perm[v + 1]) for v in range(0, n - 1, 2)], (1 << n) - 1))
            cases.append((n, [(perm[v], perm[v + 1]) for v in range(n - 1)], (1 << n) - 1))
    for n, pairs, cand in cases:
        conf = _conflict_rows(n, pairs)
        for k in range(7):
            want = _least_by_brute_force(conf, cand, k)
            assert _least_leaves(conf, cand, k) == want, (n, pairs, cand, k)


# every finder's certificate on seeded mappings of each class at n = 4..11,
# the second of each pair with about 30% of its edges then fixed where the
# class allows it; the patterns add two stars and a 5K2, which has more
# vertices than the hosts up to n = 9
DIGEST_PATTERNS = CERT_PATTERNS + STARS
CERTIFICATE_DIGEST = "e1d42e6d6e58daf456b8c9068e8838d82408f68ac54d9a5dbe73051490126486"


def test_certificates_keep_their_digest():
    rng = random.Random(31)
    digest = hashlib.sha256()
    for kind in MappingClass.KINDS:
        cls = MappingClass(kind)
        for n in range(4, 12):
            for rate in (0.0, 0.3):
                images = list(random_mapping(n, rng, cls).images)
                for e in range(len(images)):
                    if cls.value_ok(e, e) and rng.random() < rate:
                        images[e] = e
                f = EdgeMapping(n, tuple(images))
                for P in DIGEST_PATTERNS:
                    for rel, find in FINDERS.items():
                        cert = find(f, P)
                        emb = None if cert is None else (cert.kind, cert.embedding)
                        digest.update(repr((kind, n, rate, str(P), rel, emb)).encode())
    assert digest.hexdigest() == CERTIFICATE_DIGEST


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


def test_validate_rejects_wrong_certificates():
    from edgemaps.detect import Certificate

    f = EdgeMapping.identity(4)
    bogus = Certificate("free", make_pattern("K2"), (0, 1))
    assert not validate(f, bogus)
    genuine = find_fixed(f, make_pattern("K3"))
    assert validate(f, genuine)
