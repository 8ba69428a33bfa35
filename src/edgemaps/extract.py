"""Turning bounded-out-degree structure into exclusive stars.

A digraph with max out-degree d has a 2d-degenerate undirected version, hence
a proper coloring with at most 2d+1 colors; the d=1 case supports a sharper
independent-set guarantee.  These two facts drive every extraction here: the
conflict arcs among candidate edges have small out-degree, so a large color
class is a large conflict-free edge set.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from . import detect
from .detect import Certificate
from .graphs import (
    adjacency_components,
    edge_id,
    edge_pair,
    edges_overlap,
    star,
)
from .mapping import ContractError, EdgeMapping


@dataclass(frozen=True)
class FunctionalDigraph:
    """Loop-free digraph with a declared out-degree bound.

    ``arcs[v]`` lists the out-neighbors of v.  The undirected version is the
    graph on the same vertices with an edge wherever an arc runs either way.
    """

    n: int
    arcs: tuple[tuple[int, ...], ...]
    d: int

    def __post_init__(self) -> None:
        if len(self.arcs) != self.n:
            raise ValueError(f"expected {self.n} arc lists, got {len(self.arcs)}")
        for v, out in enumerate(self.arcs):
            if len(out) > self.d:
                raise ContractError(
                    f"vertex {v} has out-degree {len(out)} > declared bound {self.d}"
                )
            if v in out:
                raise ContractError(f"loop at vertex {v}")
            if any(not 0 <= w < self.n for w in out):
                raise ValueError(f"arc endpoint out of range at vertex {v}")

    @classmethod
    def from_arcs(cls, n: int, arcs, d: int | None = None) -> "FunctionalDigraph":
        tup = tuple(tuple(sorted(set(out))) for out in arcs)
        if d is None:
            d = max((len(out) for out in tup), default=0)
        return cls(n, tup, d)

    @cached_property
    def undirected(self) -> tuple[frozenset, ...]:
        adj = [set() for _ in range(self.n)]
        for v, out in enumerate(self.arcs):
            for w in out:
                adj[v].add(w)
                adj[w].add(v)
        return tuple(frozenset(a) for a in adj)

    @cached_property
    def zero_outdeg_count(self) -> int:
        return sum(1 for out in self.arcs if not out)

    def max_outdeg(self) -> int:
        return max((len(out) for out in self.arcs), default=0)


def color_bounded(D: FunctionalDigraph) -> list[int]:
    """Proper coloring of the undirected version with at most 2d+1 colors.

    Vertices are peeled in min-degree order (the undirected version is
    2d-degenerate), then colored greedily in reverse; each vertex sees at most
    2d earlier neighbors, so 2d+1 colors always suffice.
    """
    adj = D.undirected
    colors = [-1] * D.n
    for v in reversed(_peel_order(adj)):
        taken = {colors[w] for w in adj[v] if colors[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    limit = 2 * D.d + 1
    if D.n and max(colors) + 1 > limit:
        raise AssertionError(f"greedy used {max(colors) + 1} colors, bound {limit}")
    return colors


def _peel_order(adj) -> list[int]:
    """Vertices in the order that repeatedly removes a vertex of least
    remaining degree, the least such id first.  A heap keyed on (degree,
    vertex) gets a new entry for a vertex whenever its degree drops.
    Degrees only fall, so a vertex's newest entry pops before its older,
    stale ones, which are skipped as already removed."""
    deg = [len(a) for a in adj]
    removed = [False] * len(adj)
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    peel: list[int] = []
    while heap:
        _, v = heapq.heappop(heap)
        if removed[v]:
            continue
        removed[v] = True
        peel.append(v)
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return peel


def largest_color_class(colors: list[int]) -> list[int]:
    by: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by.setdefault(c, []).append(v)
    return max(by.values(), key=lambda cls: (len(cls), -cls[0]), default=[])


def independent_set_d1(D: FunctionalDigraph) -> list[int]:
    """Independent set of size >= m + ceil((n-2m)/3), m = zero-out-degree count.

    Out-degree 1 makes every component of the undirected version a tree or
    unicyclic: trees give the larger bipartition side, unicyclic components a
    largest-of-three color class.
    """
    if D.max_outdeg() > 1:
        bad = next(v for v, out in enumerate(D.arcs) if len(out) > 1)
        raise ContractError(f"vertex {bad} has out-degree {len(D.arcs[bad])}, need <= 1")
    adj = D.undirected
    out: list[int] = []
    for comp in adjacency_components(range(D.n), adj):
        edges = sum(len(adj[v]) for v in comp) // 2
        if edges == len(comp) - 1:
            out.extend(_larger_side(comp[0], adj))
        else:
            u, v = _find_cycle_edge(comp[0], {x: set(adj[x]) for x in comp})
            out.extend(_larger_side(u, adj, (u, v)))
    return sorted(out)


def _larger_side(root: int, adj, cut: tuple[int, int] | None = None) -> list[int]:
    """The larger side, side 0 on a tie, of the DFS 2-coloring from root.
    ``cut`` = (root, v) is a cycle edge of a unicyclic component: the walk
    leaves it out, and a seam it leaves inside one side moves root to a
    third color, so the side returned is independent."""
    side = {root: 0}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in side and cut not in ((x, y), (y, x)):
                side[y] = side[x] ^ 1
                stack.append(y)
    if cut is not None and side[root] == side[cut[1]]:
        side[root] = 2
    zero = [v for v, s in side.items() if s == 0]
    one = [v for v, s in side.items() if s == 1]
    return zero if len(zero) >= len(one) else one


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


def exclusive_star(mapping: EdgeMapping, v: int, r: int) -> Certificate:
    """r edges of K_n at v forming an exclusive star, for strong-shifted maps.

    The conflict digraph on the edges at v (arc when one image touches the
    other edge) has out-degree <= 2 because no image comes back to v, so a
    color class of the <= 5 gives ceil(deg/5) >= r conflict-free edges.
    Below n = 4 every edge of K_n touches all the others, so no edge can
    move clear of itself and the input is refused.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if mapping.n < 4:
        raise ValueError("strong-shifted edges need n >= 4")
    leaves = [x for x in range(mapping.n) if x != v]
    deg = len(leaves)
    if deg < 5 * r - 4:
        raise ValueError(f"degree {deg} at vertex {v} is below 5r-4 = {5 * r - 4}")
    star_edges = [edge_id(v, l) for l in leaves]
    for e in star_edges:
        if edges_overlap(e, mapping(e)) != 0:
            raise ContractError(f"edge {edge_pair(e)} at v is not strong-shifted")
    arcs: list[list[int]] = [[] for _ in star_edges]
    index = {l: i for i, l in enumerate(leaves)}
    for i, e in enumerate(star_edges):
        for x in edge_pair(mapping(e)):
            j = index.get(x)
            if j is not None and j != i:
                arcs[i].append(j)
    D = FunctionalDigraph.from_arcs(len(star_edges), arcs, d=2)
    cls = largest_color_class(color_bounded(D))
    chosen = sorted(leaves[i] for i in cls)[:r]
    P = star(r)
    cert = Certificate("exclusive", P, detect._star_embedding(P, v, tuple(chosen)))
    if not detect.validate(mapping, cert):
        raise AssertionError("extracted star failed exclusivity revalidation")
    return cert
