"""Find witnesses in an edge mapping: fixed, shifted, free, and exclusive copies.

A copy H' of a pattern is *free* when no edge of H' has its image inside H',
and *exclusive* when no edge of H' has its image touching a vertex of H'.
Fixed / shifted / strong-shifted copies are copies whose every edge e has
|e ∩ f(e)| equal to 2 / at most 1 / exactly 0.

Absence results from the ``find_*`` functions are exhaustive, so a ``None``
return is a proof over all copies, and every finder's certificate is the
lex-least copy.  The finders walk the copy plan of ``graphs`` (see
``enumerate_copies``), which reaches each copy once, with its candidates cut
to the rows of one of the relation graphs that
``EdgeMapping.relation_graphs`` caches per mapping: fixed, moved, or moved
clear, the last two also holding every edge of a free and an exclusive
copy.  The free and exclusive walks then check the relation on each edge as
it closes, reading edge ids from the per-n ``pair_ids``.  Free and exclusive
stars skip the walk but return its first copy: per center, one search over
bitmasks of the eligible leaves, a row of the same graphs, for the lex-least
r of them with no two in conflict.

``FINDERS`` is the one table from relation name to finder, and
``RELATIONS`` lists its keys; every other module looks relations up there.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    PatternGraph,
    SimpleGraph,
    _copy_plan,
    edge_id,
    edge_table,
    edge_vertex_mask,
    edges_overlap,
    mask_bits,
    pair_ids,
)
from .mapping import EdgeMapping

@dataclass(frozen=True)
class Certificate:
    """A verified witness: ``embedding[i]`` is the host vertex of pattern vertex i."""

    kind: str
    pattern: PatternGraph
    embedding: tuple[int, ...]

    def copy_edge_ids(self) -> list[int]:
        return [
            edge_id(self.embedding[u], self.embedding[v])
            for u, v in self.pattern.graph.pairs()
        ]


def fixed_graph(mapping: EdgeMapping) -> SimpleGraph:
    """Subgraph of edges with f(e) = e, read from row v's bits below v."""
    n, fixed = mapping.n, mapping.relation_graphs[0]
    ids = pair_ids(n)
    below = (ids[v * n + u] for v in range(n) for u in mask_bits(fixed >> v * n & (1 << v) - 1))
    return SimpleGraph(n, frozenset(below))


def find_fixed(mapping: EdgeMapping, P: PatternGraph) -> Certificate | None:
    return _first_copy(mapping, P, "fixed")


def find_shifted(
    mapping: EdgeMapping, P: PatternGraph, strong: bool = False
) -> Certificate | None:
    return _first_copy(mapping, P, "strong_shifted" if strong else "shifted")


def find_free(mapping: EdgeMapping, P: PatternGraph) -> Certificate | None:
    return _first_copy(mapping, P, "free")


def find_exclusive(mapping: EdgeMapping, P: PatternGraph) -> Certificate | None:
    return _first_copy(mapping, P, "exclusive")


FINDERS = {
    "fixed": find_fixed,
    "shifted": find_shifted,
    "strong_shifted": lambda f, P: find_shifted(f, P, strong=True),
    "free": find_free,
    "exclusive": find_exclusive,
}

RELATIONS = tuple(FINDERS)


def find_any(mapping: EdgeMapping, avoid) -> Certificate | None:
    """The first copy the mapping holds among (relation, pattern) pairs, or None."""
    for rel, P in avoid:
        cert = FINDERS[rel](mapping, P)
        if cert is not None:
            return cert
    return None


def _star_embedding(P: PatternGraph, center: int, leaves: tuple[int, ...]) -> tuple[int, ...]:
    degs = P.graph.degrees
    c_pv = max(range(P.k), key=lambda v: degs[v])
    emb = [-1] * P.k
    emb[c_pv] = center
    it = iter(leaves)
    for v in range(P.k):
        if v != c_pv:
            emb[v] = next(it)
    return tuple(emb)


# per relation, the graph of ``EdgeMapping.relation_graphs`` holding every edge of its copies
_GRAPH = {"fixed": 0, "shifted": 1, "strong_shifted": 2, "free": 1, "exclusive": 2}


def _first_copy(mapping: EdgeMapping, P: PatternGraph, kind: str) -> Certificate | None:
    """First copy of P in relation ``kind`` along the ``_copy_plan`` walk, or None.

    Each copy is reached once, at its lex-least embedding, so the certificate
    is the lex-least valid embedding.  The candidates at each level are the
    rows of the relation's graph at the placed neighbours.  A free copy also
    carries two edge masks (its edges, their images), an exclusive copy two
    vertex masks (its vertices, the endpoints of its images), and a
    placement is dropped as soon as an edge it closes breaks the relation.
    A free or exclusive star goes to ``_star_copy``, which returns the same
    certificate without the walk's growth in r on absences.
    """
    n = mapping.n
    pg = P.graph
    if pg.n > n:
        return None
    graph = mapping.relation_graphs[_GRAPH[kind]]
    free, exclusive = kind == "free", kind == "exclusive"
    if free or exclusive:
        r = P.as_star()
        if r is not None:
            return _star_copy(mapping, P, r, graph, exclusive)
    order, back, above = _copy_plan(pg)
    images = mapping.images
    vmask = edge_table(n)[1]
    ids = pair_ids(n)
    checks = back if free or exclusive else ((),) * len(order)
    last = len(order) - 1
    full = (1 << n) - 1
    emb = [0] * len(order)
    assign = [0] * pg.n

    def extend(i: int, used: int, copy: int, hit: int) -> bool:
        cand = full & ~(used | hit) if exclusive else full & ~used
        for j in back[i]:
            cand &= graph >> emb[j] * n
        for j in above[i]:
            cand &= -2 << emb[j]
        while cand:
            low = cand & -cand
            cand ^= low
            hv = low.bit_length() - 1
            emb[i] = hv
            here, c, h = used | low, copy, hit
            row = hv * n
            for j in checks[i]:
                e = ids[row + emb[j]]
                img = images[e]
                if exclusive:
                    iv = vmask[img]
                    if iv & here:
                        break
                    h |= iv
                else:
                    c |= 1 << e
                    if c >> img & 1 or h >> e & 1:
                        break
                    h |= 1 << img
            else:
                assign[order[i]] = hv
                if i == last or extend(i + 1, here, c, h):
                    return True
        return False

    if not pg.n:
        return Certificate(kind, P, ())
    # level 0 places order[0] on a vertex of degree at least its own; it
    # closes no edge and has no earlier vertex to lie above
    deg = pg.degrees[order[0]]
    for hv in range(n):
        if (graph >> hv * n & full).bit_count() >= deg:
            emb[0] = assign[order[0]] = hv
            if not last or extend(1, 1 << hv, 0, 0):
                return Certificate(kind, P, tuple(assign))
    return None


def _star_copy(
    mapping: EdgeMapping, P: PatternGraph, r: int, graph: int, exclusive: bool
) -> Certificate | None:
    """The lex-least free (or exclusive) K1,r: the ``_copy_plan`` walk's first copy.

    At center c, the eligible leaves l, those whose edge cl alone is free
    (moved) or exclusive (moved clear), are row c of ``graph``.  Two of
    them conflict when the image of one star edge is the other star edge
    (free) or touches the other leaf (exclusive): the test the walk makes
    as each edge closes.  The walk's first copy is at the first center
    whose lex-least r conflict-free eligible leaves exist.
    """
    n = mapping.n
    images = mapping.images
    vmask = edge_table(n)[1]
    ids = pair_ids(n)
    full = (1 << n) - 1
    conf = [0] * n
    for c in range(n):
        eligible = graph >> c * n & full
        if eligible.bit_count() < r:
            continue
        leaves = mask_bits(eligible)
        for l in leaves:
            conf[l] = 0
        for l in leaves:
            iv = vmask[images[ids[c * n + l]]]
            if not exclusive:
                iv = iv ^ 1 << c if iv >> c & 1 else 0
            for t in mask_bits(iv & eligible):
                conf[l] |= 1 << t
                conf[t] |= 1 << l
        found = _least_leaves(conf, eligible, r)
        if found is not None:
            kind = "exclusive" if exclusive else "free"
            return Certificate(kind, P, _star_embedding(P, c, found))
    return None


def _least_leaves(conf: list[int], cand: int, k: int) -> tuple[int, ...] | None:
    """The lex-least k vertices of ``cand``, no two in conflict, or None.

    ``conf[v]`` is v's symmetric conflict row.  The search takes the lowest
    candidate v first, then leaves it out; a branch stops when fewer than k
    candidates are left.  One cut is exact: when v conflicts with at most one
    other candidate u and no k-set takes v, no k-set exists at all.  Any
    k-set S without v could trade u for v (if u is in S) or else its largest
    vertex for v, and stay conflict-free, so a k-set would take v.
    """
    if not k:
        return ()
    while cand.bit_count() >= k:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        rest = _least_leaves(conf, cand & ~conf[v], k - 1)
        if rest is not None:
            return (v, *rest)
        if (conf[v] & cand).bit_count() < 2:
            return None
    return None


def validate(mapping: EdgeMapping, cert: Certificate) -> bool:
    """Recheck a certificate from scratch against the mapping."""
    emb = cert.embedding
    if len(emb) != cert.pattern.k or len(set(emb)) != len(emb):
        return False
    if any(not 0 <= v < mapping.n for v in emb):
        return False
    eids = cert.copy_edge_ids()
    if cert.kind == "fixed":
        return all(mapping(e) == e for e in eids)
    if cert.kind == "shifted":
        return all(mapping(e) != e for e in eids)
    if cert.kind == "strong_shifted":
        return all(edges_overlap(e, mapping(e)) == 0 for e in eids)
    if cert.kind == "free":
        eset = set(eids)
        return all(mapping(e) not in eset for e in eids)
    if cert.kind == "exclusive":
        vmask = 0
        for v in emb:
            vmask |= 1 << v
        return all(edge_vertex_mask(mapping(e)) & vmask == 0 for e in eids)
    raise ValueError(f"unknown certificate kind {cert.kind!r}")
