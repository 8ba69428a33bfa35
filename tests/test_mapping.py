import random

import pytest
from hypothesis import given, settings, strategies as st

from edgemaps.graphs import edge_count, edge_id, edge_pair, edges_overlap
from edgemaps.mapping import (
    EdgeMapping,
    MappingClass,
    admissible_images,
    format_mapping,
    parse_mapping,
    random_mapping,
)

K4_INVOLUTION = EdgeMapping(4, (5, 4, 3, 2, 1, 0))


def mappings(n_min=2, n_max=7):
    return st.integers(min_value=n_min, max_value=n_max).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.tuples(
                *[st.integers(min_value=0, max_value=edge_count(n) - 1)] * edge_count(n)
            ),
        )
    ).map(lambda t: EdgeMapping(t[0], t[1]))


def test_constructor_validation():
    with pytest.raises(ValueError):
        EdgeMapping(4, (0, 1, 2))
    with pytest.raises(ValueError):
        EdgeMapping(4, (0, 1, 2, 3, 4, 6))


def test_negative_vertex_count_refused():
    # EdgeMapping checks n itself; identity and random_mapping reach
    # edge_count first, which refuses a negative n as well
    with pytest.raises(ValueError, match="negative"):
        EdgeMapping(-1, (0,))
    with pytest.raises(ValueError, match="negative"):
        EdgeMapping.identity(-3)
    with pytest.raises(ValueError, match="negative"):
        random_mapping(-1, random.Random(0))


def test_from_pairs_round_trip():
    f = EdgeMapping.from_pairs(4, [((u, v), edge_pair(K4_INVOLUTION(edge_id(u, v))))
                                   for u in range(4) for v in range(u + 1, 4)])
    assert f == K4_INVOLUTION
    with pytest.raises(ValueError):
        EdgeMapping.from_pairs(3, [((0, 1), (0, 2))])


def test_identity_profile():
    f = EdgeMapping.identity(5)
    assert f.profile.fixed == 10
    assert f.profile.shifted == 0


def test_involution_profile_is_all_strong():
    p = K4_INVOLUTION.profile
    assert (p.fixed, p.shifted, p.strong_shifted) == (0, 6, 6)


@given(mappings())
@settings(max_examples=100, deadline=None)
def test_profile_counts_sum(f):
    p = f.profile
    assert p.fixed + p.shifted == edge_count(f.n)
    assert p.strong_shifted <= p.shifted


@given(mappings())
@settings(max_examples=100, deadline=None)
def test_relation_graphs_hold_each_edge_in_its_rows(f):
    # bit v*n + u of a graph is set exactly when edge uv lies in its relation
    n = f.n
    want = [0, 0, 0]
    for e, img in enumerate(f.images):
        u, v = edge_pair(e)
        ov = edges_overlap(e, img)
        for g, holds in enumerate((ov == 2, ov < 2, ov == 0)):
            if holds:
                want[g] |= 1 << u * n + v | 1 << v * n + u
    assert f.relation_graphs == tuple(want)


@given(mappings(n_min=3))
@settings(max_examples=100, deadline=None)
def test_format_parse_round_trip(f):
    assert parse_mapping(format_mapping(f)) == f


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_mapping("no header\n")
    with pytest.raises(ValueError):
        parse_mapping("n=4\n0 1 -> 0 5\n")
    # vertex ids outside 0..n-1, on either side of the arrow
    with pytest.raises(ValueError):
        parse_mapping("n=3\n0 1 -> 0 2\n0 2 -> 1 2\n1 2 -> -1 2\n")
    with pytest.raises(ValueError):
        parse_mapping("n=3\n0 1 -> 0 2\n0 2 -> 1 2\n1 5 -> 0 2\n")


def test_class_membership():
    all_cls = MappingClass("all")
    ov1 = MappingClass("overlap_le_1")
    disj = MappingClass("disjoint")
    fstr = MappingClass("fixed_or_strong")
    ident = EdgeMapping.identity(4)
    assert all_cls.admits(ident) and fstr.admits(ident)
    assert not ov1.admits(ident) and not disj.admits(ident)
    assert all(c.admits(K4_INVOLUTION) for c in (all_cls, ov1, disj, fstr))


def test_unknown_class_kind_rejected():
    with pytest.raises(ValueError):
        MappingClass("sideways")


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_random_mapping_respects_class(seed):
    rng = random.Random(seed)
    f = random_mapping(6, rng, MappingClass("disjoint"))
    assert MappingClass("disjoint").admits(f)
    g = random_mapping(6, rng)
    assert MappingClass("all").admits(g)


CLASSES = [None] + [MappingClass(kind) for kind in MappingClass.KINDS]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: getattr(c, "kind", "None"))
def test_admissible_images_is_value_ok(cls):
    for n in range(9):
        m = edge_count(n)
        table = admissible_images(cls, n)
        assert len(table) == m
        for e in range(m):
            assert list(table[e]) == [x for x in range(m) if cls is None or cls.value_ok(e, x)]


def _reference_mapping(n, rng, cls):
    """One rng.choice per edge over a pool rebuilt from value_ok."""
    m = edge_count(n)
    images = []
    for e in range(m):
        pool = [x for x in range(m) if cls is None or cls.value_ok(e, x)]
        images.append(rng.choice(pool))
    return tuple(images)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: getattr(c, "kind", "None"))
def test_random_mapping_draws_are_pinned(cls):
    for n in range(4, 12):
        for seed in (0, 1, 17, 2024):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(2):
                assert random_mapping(n, rng, cls).images == _reference_mapping(n, ref, cls)
            assert rng.random() == ref.random()


def test_random_mapping_rejects_an_empty_class():
    with pytest.raises(ValueError):
        random_mapping(3, random.Random(0), MappingClass("disjoint"))


def test_class_emptiness():
    # at n=3 no edge has a disjoint partner
    assert MappingClass("disjoint").is_empty(3)
    assert not MappingClass("disjoint").is_empty(4)
    assert MappingClass("overlap_le_1").is_empty(2)
    assert not MappingClass("all").is_empty(2)
    # every kind on hosts 0..7: overlap_le_1 is empty only at n = 2, whose
    # one edge has no image but itself, and disjoint at n = 2 and 3
    empty = {("overlap_le_1", 2), ("disjoint", 2), ("disjoint", 3)}
    for kind in MappingClass.KINDS:
        for n in range(8):
            assert MappingClass(kind).is_empty(n) == ((kind, n) in empty), (kind, n)


def test_value_ok_matches_overlap():
    ov1 = MappingClass("overlap_le_1")
    for e in range(6):
        for x in range(6):
            assert ov1.value_ok(e, x) == (edges_overlap(e, x) <= 1)
