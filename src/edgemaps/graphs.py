"""Simple graphs on 0..n-1 with colexicographic edge ids, plus small pattern graphs.

Edge ids: the pair (u, v) with u < v gets id C(v,2) + u.  Ids are stable
under growing n, so an edge keeps its id in every host that contains it.
"""
from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, inf, isqrt


def edge_id(u: int, v: int) -> int:
    """Colex id of the undirected edge {u, v}."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def checked_edge_id(n: int, u: int, v: int) -> int:
    """edge_id of {u, v} after checking that both ends are vertices of K_n."""
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    return edge_id(u, v)


def edge_pair(eid: int) -> tuple[int, int]:
    """Inverse of edge_id: returns (u, v) with u < v."""
    if eid < 0:
        raise ValueError(f"bad edge id {eid}")
    v = (1 + isqrt(8 * eid + 1)) // 2
    # isqrt rounding can land one off on either side
    while v * (v - 1) // 2 > eid:
        v -= 1
    while (v + 1) * v // 2 <= eid:
        v += 1
    return (eid - v * (v - 1) // 2, v)


def edge_count(n: int) -> int:
    """C(n, 2); ``edge_table`` refuses n < 0 through it."""
    if n < 0:
        raise ValueError(f"negative vertex count {n}: need n >= 0")
    return n * (n - 1) // 2


@lru_cache(maxsize=4096)
def edge_vertex_mask(eid: int) -> int:
    u, v = edge_pair(eid)
    return (1 << u) | (1 << v)


@lru_cache(maxsize=64)
def edge_table(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The endpoint pairs and the vertex masks of the edges of K_n, both
    indexed by edge id."""
    pairs = tuple(edge_pair(e) for e in range(edge_count(n)))
    return pairs, tuple(1 << u | 1 << v for u, v in pairs)


@lru_cache(maxsize=64)
def pair_ids(n: int) -> tuple[int, ...]:
    """``edge_id(a, b)`` at index ``a * n + b`` for vertices a != b of K_n,
    and -1 at ``a * n + a``."""
    if n < 0:
        raise ValueError(f"negative vertex count {n}: need n >= 0")
    return tuple(edge_id(a, b) if a != b else -1 for a in range(n) for b in range(n))


def edges_overlap(e1: int, e2: int) -> int:
    """Number of shared endpoints of two edges (0, 1, or 2)."""
    return (edge_vertex_mask(e1) & edge_vertex_mask(e2)).bit_count()


def adjacency_masks(n: int, eids: Iterable[int]) -> list[int]:
    """Adjacency bitmasks, indexed by vertex, of the graph on 0..n-1 with
    the given edge ids."""
    pairs = edge_table(n)[0]
    adj = [0] * n
    for e in eids:
        u, v = pairs[e]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def mask_bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def adjacency_components(vertices, adj) -> list[list[int]]:
    """Connected components of the graph on ``vertices`` whose neighbours of
    x are ``adj[x]``, each listed in depth-first discovery order."""
    seen: set[int] = set()
    out = []
    for v in vertices:
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        out.append(comp)
    return out


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertex set {0, ..., n-1}."""

    n: int
    edges: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        # colex ids: the edges of K_n are exactly the ids 0 .. C(n, 2) - 1
        if self.edges:
            low, high = min(self.edges), max(self.edges)
            if low < 0:
                raise ValueError(f"bad edge id {low}")
            if high >= edge_count(self.n):
                raise ValueError(f"edge {edge_pair(high)} out of range for n={self.n}")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "SimpleGraph":
        return cls(n, frozenset(checked_edge_id(n, u, v) for u, v in pairs))

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        return cls(n, frozenset(range(edge_count(n))))

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, frozenset())

    @property
    def m(self) -> int:
        return len(self.edges)

    def pairs(self) -> list[tuple[int, int]]:
        return [edge_pair(e) for e in sorted(self.edges)]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_id(u, v) in self.edges

    @cached_property
    def edge_mask(self) -> int:
        mask = 0
        for e in self.edges:
            mask |= 1 << e
        return mask

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Adjacency bitmasks indexed by vertex."""
        return tuple(adjacency_masks(self.n, self.edges))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees, reverse=True))

    def complement(self) -> "SimpleGraph":
        return SimpleGraph(
            self.n, frozenset(range(edge_count(self.n))) - self.edges
        )

    def subgraph(self, vertices) -> "SimpleGraph":
        """Induced subgraph, relabeled along sorted(vertices) -> 0.."""
        vs = sorted(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        keep = set(vs)
        new_edges = []
        for e in self.edges:
            u, v = edge_pair(e)
            if u in keep and v in keep:
                new_edges.append(edge_id(pos[u], pos[v]))
        return SimpleGraph(len(vs), frozenset(new_edges))

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, listed by least vertex."""
        nbrs = [mask_bits(a) for a in self.adj]
        return [sorted(c) for c in adjacency_components(range(self.n), nbrs)]

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


# ---------------------------------------------------------------------------
# pattern graphs


@dataclass(frozen=True)
class PatternGraph:
    """A small graph to be matched inside hosts; carries derived stats."""

    graph: SimpleGraph
    name: str = ""

    @property
    def k(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def degseq(self) -> tuple[int, ...]:
        return self.graph.degree_sequence()

    @cached_property
    def chi(self) -> int:
        return chromatic_number(self.graph)

    def __str__(self) -> str:
        return self.name or f"graph(k={self.k},m={self.m})"

    # -- shape probes used by certifier dispatch ---------------------------

    def as_complete(self) -> int | None:
        """r if this is K_r (r >= 2), else None."""
        r = self.k
        if r >= 2 and self.m == comb(r, 2):
            return r
        return None

    def as_star(self) -> int | None:
        """r if this is K_{1,r} (r >= 1), else None."""
        return self._star

    @cached_property
    def _star(self) -> int | None:
        if self.k >= 2 and self.m == self.k - 1:
            ds = self.degseq()
            if ds[0] == self.k - 1 and all(d == 1 for d in ds[1:]):
                return self.k - 1
        return None

    def as_matching(self) -> int | None:
        """t if this is tK_2, else None."""
        if self.k >= 2 and self.k == 2 * self.m and all(d == 1 for d in self.graph.degrees):
            return self.m
        return None


def pattern(graph: SimpleGraph, name: str = "") -> PatternGraph:
    return PatternGraph(graph, name)


# -- family factories.  Labeling conventions are part of the contract. -----


def complete(r: int) -> PatternGraph:
    """K_r on vertices 0..r-1."""
    if r < 1:
        raise ValueError("complete: r >= 1 required")
    return pattern(SimpleGraph.complete(r), f"K{r}")


@lru_cache(maxsize=64)
def star(r: int) -> PatternGraph:
    """K_{1,r}: center 0, leaves 1..r; built once per r."""
    if r < 1:
        raise ValueError("star: r >= 1 required")
    return pattern(
        SimpleGraph.from_pairs(r + 1, [(0, i) for i in range(1, r + 1)]), f"K1,{r}"
    )


def matching(t: int) -> PatternGraph:
    """tK_2: edges (0,1), (2,3), ..."""
    if t < 1:
        raise ValueError("matching: t >= 1 required")
    return pattern(
        SimpleGraph.from_pairs(2 * t, [(2 * i, 2 * i + 1) for i in range(t)]),
        f"{t}K2" if t > 1 else "K2",
    )


def path(k: int) -> PatternGraph:
    """Path 0-1-...-(k-1)."""
    if k < 1:
        raise ValueError("path: k >= 1 required")
    return pattern(SimpleGraph.from_pairs(k, [(i, i + 1) for i in range(k - 1)]), f"P{k}")


def cycle(k: int) -> PatternGraph:
    """Cycle 0-1-...-(k-1)-0."""
    if k < 3:
        raise ValueError("cycle: k >= 3 required")
    return pattern(
        SimpleGraph.from_pairs(k, [(i, (i + 1) % k) for i in range(k)]), f"C{k}"
    )


def complete_bipartite(a: int, b: int) -> PatternGraph:
    """K_{a,b}: one side 0..a-1, other a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite: sides >= 1 required")
    if a == 1:
        return star(b)
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    return pattern(SimpleGraph.from_pairs(a + b, pairs), f"K{a},{b}")


def turan_graph(n: int, parts: int) -> PatternGraph:
    """Balanced complete multipartite graph on n vertices with the given
    number of parts (the K_{parts+1}-free edge maximizer)."""
    if parts < 1:
        raise ValueError("turan_graph: need at least one part")
    if n < parts:
        raise ValueError("turan_graph: need n >= parts")
    q, rem = divmod(n, parts)
    sizes = [q + 1] * rem + [q] * (parts - rem)
    label = [0] * n
    v = 0
    for idx, s in enumerate(sizes):
        for _ in range(s):
            label[v] = idx
            v += 1
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n) if label[u] != label[w]]
    return pattern(SimpleGraph.from_pairs(n, pairs), f"T{n},{parts}")


def complete_minus_clique(k: int, t: int) -> PatternGraph:
    """K_k with the edges inside {0..t-1} removed."""
    if not (2 <= t < k):
        raise ValueError("complete_minus_clique: need 2 <= t < k")
    drop = {edge_id(u, v) for u, v in combinations(range(t), 2)}
    return pattern(
        SimpleGraph(k, frozenset(range(edge_count(k))) - drop), f"K{k}-K{t}"
    )


def complete_minus_factor(k: int) -> PatternGraph:
    """K_k minus the perfect matching {0,1}, {2,3}, ...; k must be even."""
    if k < 2 or k % 2:
        raise ValueError("complete_minus_factor: even k >= 2 required")
    drop = {edge_id(2 * i, 2 * i + 1) for i in range(k // 2)}
    return pattern(SimpleGraph(k, frozenset(range(edge_count(k))) - drop), f"K{k}-F")


def union(*parts: PatternGraph, name: str = "") -> PatternGraph:
    """Disjoint union; vertex blocks in argument order."""
    offset = 0
    pairs: list[tuple[int, int]] = []
    for p in parts:
        pairs.extend((u + offset, v + offset) for u, v in p.graph.pairs())
        offset += p.k
    nm = name or "u".join(str(p) for p in parts)
    return pattern(SimpleGraph.from_pairs(offset, pairs), nm)


def multi(t: int, p: PatternGraph) -> PatternGraph:
    """t disjoint copies of p."""
    if t < 1:
        raise ValueError("multi: t >= 1 required")
    if t == 1:
        return p
    return union(*([p] * t), name=f"{t}{p}")


def join(a: PatternGraph, b: PatternGraph) -> PatternGraph:
    """Join: a's vertices first, then b's, plus all cross edges."""
    pairs = list(a.graph.pairs())
    pairs += [(u + a.k, v + a.k) for u, v in b.graph.pairs()]
    pairs += [(u, a.k + w) for u in range(a.k) for w in range(b.k)]
    return pattern(SimpleGraph.from_pairs(a.k + b.k, pairs), f"{a}+{b}")


def from_edge_list(k: int, pairs, name: str = "") -> PatternGraph:
    return pattern(SimpleGraph.from_pairs(k, pairs), name)


_ATOM_RE = re.compile(
    r"^(?:(?P<mult>\d+)\s*)?(?:"
    r"K(?P<ka>\d+),(?P<kb>\d+)"
    r"|K(?P<k>\d+)(?:-(?:K(?P<minus>\d+)|(?P<factor>F)))?"
    r"|T(?P<tn>\d+),(?P<tp>\d+)"
    r"|C(?P<c>\d+)"
    r"|(?:P|path)(?P<p>\d+)"
    r")$"
)


def _parse_atom(text: str) -> PatternGraph:
    m = _ATOM_RE.match(text.strip())
    if not m:
        raise ValueError(f"unrecognized pattern spec {text!r}")
    if m["ka"] is not None:
        base = complete_bipartite(int(m["ka"]), int(m["kb"]))
    elif m["tn"] is not None:
        base = turan_graph(int(m["tn"]), int(m["tp"]))
    elif m["k"] is not None:
        k = int(m["k"])
        if m["minus"] is not None:
            base = complete_minus_clique(k, int(m["minus"]))
        elif m["factor"] is not None:
            base = complete_minus_factor(k)
        else:
            base = complete(k)
    elif m["c"] is not None:
        base = cycle(int(m["c"]))
    else:
        base = path(int(m["p"]))
    if m["mult"] is not None:
        return multi(int(m["mult"]), base)
    return base


def make_pattern(spec: str | PatternGraph) -> PatternGraph:
    """Parse family specs like "K4", "K1,3", "3K2", "C5", "K6-K2", "path7".

    A top-level "+" denotes join, e.g. "C5+K2".
    """
    if isinstance(spec, PatternGraph):
        return spec
    terms = [t for t in spec.split("+") if t.strip()]
    if not terms:
        raise ValueError(f"empty pattern spec {spec!r}")
    out = _parse_atom(terms[0])
    for t in terms[1:]:
        out = join(out, _parse_atom(t))
    return out


# ---------------------------------------------------------------------------
# copy enumeration


def _embedding_order(P: SimpleGraph) -> list[int]:
    """Pattern vertices ordered so each one touches an earlier one when possible."""
    order: list[int] = []
    placed = [False] * P.n
    for comp in sorted(P.components(), key=lambda c: (-len(c), c)):
        start = max(comp, key=lambda v: (P.degrees[v], -v))
        placed[start] = True
        order.append(start)
        for _ in range(len(comp) - 1):
            # most placed neighbors first, then degree; index breaks ties
            best = None
            for v in comp:
                if placed[v]:
                    continue
                back = (P.adj[v] & _mask_of(order)).bit_count()
                key = (back, P.degrees[v], -v)
                if best is None or key > best[0]:
                    best = (key, v)
            order.append(best[1])
            placed[best[1]] = True
    return order


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _orbit(P: SimpleGraph, order: list[int], i: int) -> list[int]:
    """Pattern vertices that some automorphism of P fixing order[:i] pointwise
    sends order[i] to (order[i] itself included)."""
    adj, deg, k = P.adj, P.degrees, len(order)
    img = [0] * k

    def extend(p: int, used: int, forced: list[int]) -> bool:
        if p == k:
            return True
        v = order[p]
        for x in (forced[p],) if p < len(forced) else range(k):
            if used >> x & 1 or deg[x] != deg[v]:
                continue
            if any(adj[v] >> order[q] & 1 != adj[x] >> img[q] & 1 for q in range(p)):
                continue
            img[p] = x
            if extend(p + 1, used | 1 << x, forced):
                return True
        return False

    return [w for w in range(k) if extend(0, 0, order[:i] + [w])]


@lru_cache(maxsize=1024)
def _copy_plan(P: SimpleGraph):
    """Walk plan of enumerate_copies for pattern P.

    Returns the embedding order and, per position i, the earlier positions
    adjacent to order[i] and the earlier positions j whose stabiliser orbit
    holds order[i]; the walk places order[i] above the host vertex of each
    such j, which keeps exactly the lex-least embedding of every copy.
    """
    order = _embedding_order(P)
    pos = {v: i for i, v in enumerate(order)}
    back = [[j for j in range(i) if P.has_edge(v, order[j])] for i, v in enumerate(order)]
    above: list[list[int]] = [[] for _ in order]
    for j in range(len(order)):
        for w in _orbit(P, order, j):
            if w != order[j]:
                above[pos[w]].append(j)
    return tuple(order), tuple(map(tuple, back)), tuple(map(tuple, above))


def enumerate_copies(P: PatternGraph | SimpleGraph, host: SimpleGraph):
    """Yield each copy of P in host exactly once, as a vertex map tuple.

    A copy is a subgraph of the host isomorphic to P; embeddings that differ
    by an automorphism of P describe the same copy.  The walk reaches each
    copy at one leaf only: the yielded map is the copy's lex-least
    embedding, compared along the embedding order of P, and copies come in
    that order.  The map sends pattern vertex i to embedding[i].
    """
    pg = P.graph if isinstance(P, PatternGraph) else P
    n, adj = host.n, host.adj
    if pg.n > n:
        return
    if not pg.n:
        yield ()
        return
    order, back, above = _copy_plan(pg)
    last = len(order) - 1
    free = (1 << n) - 1
    emb = [0] * len(order)
    assign = [0] * pg.n

    def extend(i: int, used: int):
        cand = free & ~used
        for j in back[i]:
            cand &= adj[emb[j]]
        for j in above[i]:
            cand &= -2 << emb[j]
        pv = order[i]
        while cand:
            low = cand & -cand
            cand ^= low
            emb[i] = hv = low.bit_length() - 1
            assign[pv] = hv
            if i == last:
                yield tuple(assign)
            else:
                yield from extend(i + 1, used | low)

    yield from extend(0, 0)


def _count_rows(P: SimpleGraph, n: int, adj, cap: int | float) -> int:
    """Copies of P in the graph on 0..n-1 with adjacency rows ``adj``.

    The walk of ``enumerate_copies``, reading its last level as one bit
    count of the candidates.  It stops once the count reaches ``cap``, so
    it returns the exact count below ``cap`` and some number >= ``cap``
    otherwise.
    """
    if P.n > n:
        return 0
    if not P.n:
        return 1
    order, back, above = _copy_plan(P)
    last = len(order) - 1
    free = (1 << n) - 1
    emb = [0] * len(order)

    def walk(i: int, used: int, count: int) -> int:
        cand = free & ~used
        for j in back[i]:
            cand &= adj[emb[j]]
        for j in above[i]:
            cand &= -2 << emb[j]
        if i == last:
            return count + cand.bit_count()
        while cand:
            low = cand & -cand
            cand ^= low
            emb[i] = low.bit_length() - 1
            count = walk(i + 1, used | low, count)
            if count >= cap:
                break
        return count

    return walk(0, 0, 0)


def count_copies(P: PatternGraph | SimpleGraph, host: SimpleGraph) -> int:
    """Number of distinct copies (subgraphs isomorphic to P) in host, by
    the uncapped counting walk on the host's adjacency rows."""
    pg = P.graph if isinstance(P, PatternGraph) else P
    return _count_rows(pg, host.n, host.adj, inf)


def contains_copy(P: PatternGraph | SimpleGraph, host: SimpleGraph) -> bool:
    pg = P.graph if isinstance(P, PatternGraph) else P
    return _count_rows(pg, host.n, host.adj, 1) > 0


# ---------------------------------------------------------------------------
# chromatic number (exact, small graphs)


def max_clique_size(G: SimpleGraph) -> int:
    best = 1 if G.n else 0

    def grow(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = max(best, size)
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            grow(cand & G.adj[v], size + 1)

    grow((1 << G.n) - 1, 0)
    return best


def _colorable(G: SimpleGraph, c: int) -> bool:
    order = sorted(range(G.n), key=lambda v: -G.degrees[v])
    colors = [-1] * G.n

    def assign(i: int) -> bool:
        if i == G.n:
            return True
        v = order[i]
        used = {colors[u] for u in range(G.n) if colors[u] >= 0 and G.adj[v] >> u & 1}
        limit = min(c, max([colors[order[j]] for j in range(i)], default=-1) + 2)
        for col in range(limit):
            if col not in used:
                colors[v] = col
                if assign(i + 1):
                    return True
                colors[v] = -1
        return False

    return assign(0)


def chromatic_number(G: SimpleGraph) -> int:
    if G.n == 0:
        return 0
    if not G.edges:
        return 1
    lo = max_clique_size(G)
    c = lo
    while not _colorable(G, c):
        c += 1
    return c


# ---------------------------------------------------------------------------
# trees


@lru_cache(maxsize=32)
def all_trees(k: int) -> tuple[PatternGraph, ...]:
    """All trees on k vertices up to isomorphism, sorted by canonical code.

    Every tree on k vertices is a tree on k-1 vertices with a leaf attached,
    so joining vertex k-1 to each vertex of each smaller tree and deduping by
    canonical code reaches every class.
    """
    from .canon import canonical_code  # local import: canon depends on edge ids only

    if k < 1:
        raise ValueError("all_trees: k >= 1 required")
    if k == 1:
        return (pattern(SimpleGraph.empty(1), "K1"),)
    if k == 2:
        return (matching(1),)
    seen = {}
    for t in all_trees(k - 1):
        for v in range(k - 1):
            g = SimpleGraph(k, t.graph.edges | {edge_id(v, k - 1)})
            seen.setdefault(canonical_code(k, g.edge_mask), g)
    return tuple(
        pattern(g, f"tree{k}.{i}") for i, (_, g) in enumerate(sorted(seen.items()))
    )


# ---------------------------------------------------------------------------
# parsing: edge-list text and graph6


def parse_edge_list(text: str, name: str = "") -> PatternGraph:
    """Parse "k m" header plus m lines "u v" (0-based)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {lines[0]!r}, expected 'k m'")
    k, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    P = from_edge_list(k, pairs, name)
    if P.m != m:
        raise ValueError(f"header promises {m} edges, found {P.m} distinct ones")
    return P


def parse_graph6(text: str, name: str = "") -> PatternGraph:
    """Decode a single graph6 line (n <= 62)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 characters")
    n = data[0]
    if n == 63:
        raise ValueError("graph6 with n > 62 not supported")
    need = comb(n, 2)
    length = 1 + (need + 5) // 6  # the size byte, then six edge bits a byte
    if len(data) != length:
        raise ValueError(f"graph6 string for n={n} needs {length} characters, not {len(data)}")
    bits = []
    for b in data[1:]:
        bits.extend((b >> i) & 1 for i in range(5, -1, -1))
    if any(bits[need:]):
        raise ValueError("graph6 padding bits must be zero")
    pairs = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                pairs.append((u, v))
            idx += 1
    return from_edge_list(n, pairs, name)


def load_pattern(source: str, name: str = "") -> PatternGraph:
    """Parse a pattern from edge-list text or graph6 (sniffed on the header)."""
    first = source.strip().splitlines()[0] if source.strip() else ""
    if re.match(r"^\d+\s+\d+$", first.strip()):
        return parse_edge_list(source, name)
    return parse_graph6(source, name)
