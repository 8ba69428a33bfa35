"""Find witnesses in an edge mapping: fixed, shifted, free, and exclusive copies.

A copy H' of a pattern is *free* when no edge of H' has its image inside H',
and *exclusive* when no edge of H' has its image touching a vertex of H'.
Fixed / shifted / strong-shifted copies live in the subgraph of edges with
|e ∩ f(e)| equal to 2 / at most 1 / exactly 0.

Absence results from the ``find_*`` functions are exhaustive, so a ``None``
return is a proof over all copies.  Star patterns take a polynomial path via
an exact independent-set computation on the per-center conflict graph; the
generic path is backtracking with fail-fast incremental checks.

``FINDERS`` is the one table from relation name to finder, and
``RELATIONS`` lists its keys; every other module looks relations up there.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    PatternGraph,
    SimpleGraph,
    _embedding_order,
    adjacency_components,
    edge_id,
    edge_pair,
    edge_vertex_mask,
    edges_overlap,
    enumerate_copies,
    mask_bits,
)
from .mapping import EdgeMapping

_NEG = -(10**9)


@dataclass(frozen=True)
class Certificate:
    """A verified witness: ``embedding[i]`` is the host vertex of pattern vertex i."""

    kind: str
    pattern: PatternGraph
    embedding: tuple[int, ...]
    checked: bool = True

    def copy_edge_ids(self) -> list[int]:
        return [
            edge_id(self.embedding[u], self.embedding[v])
            for u, v in self.pattern.graph.pairs()
        ]


def fixed_graph(mapping: EdgeMapping) -> SimpleGraph:
    """Subgraph of edges with f(e) = e."""
    return SimpleGraph(
        mapping.n, frozenset(e for e, img in enumerate(mapping.images) if img == e)
    )


def shifted_graph(mapping: EdgeMapping, strong: bool = False) -> SimpleGraph:
    """Subgraph of edges with f(e) != e; with ``strong``, of edges disjoint from f(e)."""
    if strong:
        keep = frozenset(
            e for e, img in enumerate(mapping.images) if edges_overlap(e, img) == 0
        )
    else:
        keep = frozenset(e for e, img in enumerate(mapping.images) if img != e)
    return SimpleGraph(mapping.n, keep)


def find_fixed(mapping: EdgeMapping, P: PatternGraph) -> Certificate | None:
    for emb in enumerate_copies(P, fixed_graph(mapping)):
        return Certificate("fixed", P, emb)
    return None


def find_shifted(
    mapping: EdgeMapping, P: PatternGraph, strong: bool = False
) -> Certificate | None:
    kind = "strong_shifted" if strong else "shifted"
    for emb in enumerate_copies(P, shifted_graph(mapping, strong=strong)):
        return Certificate(kind, P, emb)
    return None


def find_free(mapping: EdgeMapping, P: PatternGraph) -> Certificate | None:
    r = P.as_star()
    if r is not None:
        size, center, leaves = max_free_star(mapping)
        if size < r:
            return None
        return Certificate("free", P, _star_embedding(P, center, leaves[:r]))
    return _find_generic(mapping, P, exclusive=False)


def find_exclusive(mapping: EdgeMapping, P: PatternGraph) -> Certificate | None:
    r = P.as_star()
    if r is not None:
        size, center, leaves = max_exclusive_star(mapping)
        if size < r:
            return None
        return Certificate("exclusive", P, _star_embedding(P, center, leaves[:r]))
    return _find_generic(mapping, P, exclusive=True)


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


def _find_generic(
    mapping: EdgeMapping, P: PatternGraph, exclusive: bool
) -> Certificate | None:
    n = mapping.n
    if P.k > n:
        return None
    Pg = P.graph
    order = _embedding_order(Pg)
    # back-neighbour positions: pattern edges closed when order[i] is placed
    pos = {v: i for i, v in enumerate(order)}
    backs = [
        [order[j] for j in range(i) if Pg.adj[order[i]] >> order[j] & 1]
        for i in range(len(order))
    ]
    assign = [-1] * P.k
    copy_edges: set[int] = set()
    image_count: dict[int, int] = {}
    images_vmask = 0

    def extend(i: int, used: int):
        nonlocal images_vmask
        if i == len(order):
            yield tuple(assign)
            return
        pv = order[i]
        for hv in range(n):
            if used >> hv & 1:
                continue
            if exclusive and images_vmask >> hv & 1:
                continue
            new_edges = []
            ok = True
            saved_vmask = images_vmask
            for q in backs[i]:
                e = edge_id(hv, assign[q])
                img = mapping(e)
                if exclusive:
                    iv = edge_vertex_mask(img)
                    if iv & (used | 1 << hv):
                        ok = False
                        break
                    images_vmask |= iv
                elif img == e or img in copy_edges or e in image_count:
                    ok = False
                    break
                copy_edges.add(e)
                image_count[img] = image_count.get(img, 0) + 1
                new_edges.append((e, img))
            if ok:
                assign[pv] = hv
                yield from extend(i + 1, used | 1 << hv)
                assign[pv] = -1
            for e, img in new_edges:
                copy_edges.discard(e)
                left = image_count[img] - 1
                if left:
                    image_count[img] = left
                else:
                    del image_count[img]
            images_vmask = saved_vmask

    kind = "exclusive" if exclusive else "free"
    for emb in extend(0, 0):
        return Certificate(kind, P, emb)
    return None


def max_free_star(mapping: EdgeMapping) -> tuple[int, int, tuple[int, ...]]:
    """Largest star whose edges all map outside it: (leaf count, center, leaves).

    For a fixed center c the choices conflict exactly when one chosen edge maps
    onto another chosen one, and each edge has a single image, so the conflict
    graph has an out-degree-1 orientation and the maximum is exact in
    polynomial time.
    """
    best = (0, 0, ())
    for c in range(mapping.n):
        eligible = []
        target = {}
        for l in range(mapping.n):
            if l == c:
                continue
            e = edge_id(c, l)
            img = mapping(e)
            if img == e:
                continue
            eligible.append(l)
            x, y = edge_pair(img)
            if x == c:
                target[l] = y
            elif y == c:
                target[l] = x
        adj = {l: set() for l in eligible}
        for l, t in target.items():
            if t in adj and t != l:
                adj[l].add(t)
                adj[t].add(l)
        mis = _pseudoforest_mis(eligible, adj)
        if len(mis) > best[0]:
            best = (len(mis), c, tuple(sorted(mis)))
    return best


def max_exclusive_star(mapping: EdgeMapping) -> tuple[int, int, tuple[int, ...]]:
    """Largest star whose edges all map clear of its vertices."""
    best = (0, 0, ())
    for c in range(mapping.n):
        cm = 1 << c
        eligible = []
        ends = {}
        for l in range(mapping.n):
            if l == c:
                continue
            iv = edge_vertex_mask(mapping(edge_id(c, l)))
            if iv & (cm | 1 << l):
                continue
            eligible.append(l)
            ends[l] = iv
        adj = {l: set() for l in eligible}
        for l in eligible:
            for t in mask_bits(ends[l]):
                if t in adj:
                    adj[l].add(t)
                    adj[t].add(l)
        mis: list[int] = []
        for comp in adjacency_components(eligible, adj):
            mis.extend(_mis_exact(comp, adj))
        if len(mis) > best[0]:
            best = (len(mis), c, tuple(sorted(mis)))
    return best


def _pseudoforest_mis(vertices: list[int], adj: dict[int, set]) -> list[int]:
    """Exact maximum independent set when every component has at most one cycle."""
    out: list[int] = []
    for comp in adjacency_components(vertices, adj):
        edges = sum(len(adj[v]) for v in comp) // 2
        if edges < len(comp):
            out.extend(_tree_mis(comp[0], adj, forbid=None))
        else:
            u, v = _find_cycle_edge(comp[0], adj)
            adj[u].discard(v)
            adj[v].discard(u)
            a = _tree_mis(u, adj, forbid=u)
            b = _tree_mis(u, adj, forbid=v)
            adj[u].add(v)
            adj[v].add(u)
            out.extend(a if len(a) >= len(b) else b)
    return out


def _find_cycle_edge(start: int, adj: dict[int, set]) -> tuple[int, int]:
    parent = {start: None}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y == parent[x]:
                continue
            if y in parent:
                return x, y
            parent[y] = x
            stack.append(y)
    raise ValueError("no cycle in component")


def _tree_mis(root: int, adj: dict[int, set], forbid: int | None) -> list[int]:
    parent = {root: None}
    order = [root]
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
                stack.append(y)
    dp_in = {}
    dp_out = {}
    for v in reversed(order):
        children = [y for y in adj[v] if parent.get(y) == v]
        dp_in[v] = (_NEG if v == forbid else 1) + sum(dp_out[c] for c in children)
        dp_out[v] = sum(max(dp_in[c], dp_out[c]) for c in children)
    picked: list[int] = []
    walk = [(root, True)]
    while walk:
        v, can_take = walk.pop()
        take = can_take and dp_in[v] > dp_out[v]
        if take:
            picked.append(v)
        for y in adj[v]:
            if parent.get(y) == v:
                walk.append((y, not take))
    return picked


def _mis_exact(vertices: list[int], adj: dict[int, set]) -> list[int]:
    """Exact maximum independent set by branch and bound; fine for sparse graphs."""
    best: list[int] = []

    def bb(cand: set, cur: list[int]) -> None:
        nonlocal best
        if len(cur) + len(cand) <= len(best):
            return
        if not cand:
            best = cur[:]
            return
        v = max(cand, key=lambda x: len(adj[x] & cand))
        if len(adj[v] & cand) <= 1:
            # max degree 1: a matching plus isolated vertices, solvable greedily
            res = cur[:]
            pool = set(cand)
            while pool:
                x = pool.pop()
                res.append(x)
                pool -= adj[x]
            if len(res) > len(best):
                best = res
            return
        bb(cand - adj[v] - {v}, cur + [v])
        bb(cand - {v}, cur)

    bb(set(vertices), [])
    return best


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
