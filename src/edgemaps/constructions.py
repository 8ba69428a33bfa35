"""Explicit mappings avoiding chosen patterns, each verified before release.

Every generator returns a ConstructionResult whose claims have already been
rechecked through ``detect``; a claim that fails verification raises instead
of returning, so downstream code can treat claims as facts.

Cyclic witnesses come from one rule, ``circulant``: a mapping that
commutes with i -> i + 1 (mod n) is fixed by the images of one edge per
difference, as in the K4, pentagon and Z7 builders.

Most other witnesses fix a union of disjoint cliques and move every other
edge by one rule: ``_cliques`` lays the cliques out on consecutive runs of
vertices and ``_fixing`` builds the mapping that fixes a graph's edges and
moves the rest.  ``chromatic_blocks`` and ``frobenius_tree_lower`` are
``euler_partition`` calls on such layouts.

Helper layer: Euler circuits (Hierholzer), even-graph cycle decomposition,
bipartite matching (Kuhn's augmenting paths), and nonnegative two-coin
representations N = x*a + y*b.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from . import detect, graphs
from .graphs import (
    PatternGraph,
    SimpleGraph,
    all_trees,
    edge_count,
    edge_id,
    edge_pair,
    mask_bits,
    matching,
    star,
)
from .mapping import EdgeMapping


@dataclass(frozen=True)
class ConstructionResult:
    """A mapping plus machine-checked absence claims.

    ``claims`` lists (relation, pattern) pairs the mapping avoids, with
    relation one of fixed / shifted / strong_shifted / free / exclusive.
    """

    mapping: EdgeMapping
    claims: tuple[tuple[str, PatternGraph], ...]
    provenance: str


def _emit(mapping: EdgeMapping, claims, provenance: str) -> ConstructionResult:
    hit = detect.find_any(mapping, claims)
    if hit is not None:
        raise AssertionError(
            f"{provenance}: claimed no {hit.kind} {hit.pattern}, found one at "
            f"{hit.embedding}"
        )
    return ConstructionResult(mapping, tuple(claims), provenance)


# ---------------------------------------------------------------------------
# helpers


def frobenius_decomposition(a: int, b: int, N: int) -> tuple[int, int] | None:
    """Smallest-x nonnegative (x, y) with x*a + y*b = N, or None."""
    if a <= 0 or b <= 0 or N < 0:
        raise ValueError("need positive coin values and nonnegative target")
    for x in range(N // a + 1):
        rest = N - x * a
        if rest % b == 0:
            return (x, rest // b)
    return None


def euler_circuit(graph: SimpleGraph, component: list[int]) -> list[int]:
    """Closed trail through every edge of one connected even-degree
    component of ``graph``, given by its vertices.

    Returns the circuit as a vertex sequence v0, v1, ..., v0 of length
    (#edges + 1); Hierholzer's algorithm, neighbors taken in ascending order.
    """
    odd = [v for v in component if graph.degrees[v] % 2]
    if odd:
        raise ValueError(f"odd degrees at {odd}")
    adj = {v: mask_bits(graph.adj[v]) for v in component}
    used: set[int] = set()
    start = min(v for v in component if adj[v])
    stack = [start]
    circuit: list[int] = []
    ptr = {v: 0 for v in component}
    while stack:
        v = stack[-1]
        advanced = False
        while ptr[v] < len(adj[v]):
            w = adj[v][ptr[v]]
            ptr[v] += 1
            e = edge_id(v, w)
            if e not in used:
                used.add(e)
                stack.append(w)
                advanced = True
                break
        if not advanced:
            circuit.append(stack.pop())
    circuit.reverse()
    expect = sum(1 for e in graph.edges if set(edge_pair(e)) <= set(component))
    if len(circuit) != expect + 1:
        raise ValueError("component is not connected")
    return circuit


def cycle_decomposition(graph: SimpleGraph) -> list[list[int]]:
    """Partition an even graph's edges into cycles (each as a vertex list).

    Splits each component's Euler circuit at the first vertex repetition;
    cycles from a bipartite input are automatically even.
    """
    cycles: list[list[int]] = []
    for comp in graph.components():
        if not any(graph.degrees[v] for v in comp):
            continue
        walk = euler_circuit(graph, component=comp)
        stack: list[int] = []
        pos: dict[int, int] = {}
        for v in walk:
            if v in pos:
                p = pos[v]
                cycles.append(stack[p:])
                for x in stack[p:]:
                    del pos[x]
                del stack[p:]
            pos[v] = len(stack)
            stack.append(v)
        if len(stack) != 1:
            raise RuntimeError("circuit did not close back to its start")
    return cycles


def bipartite_matching(left: int, right: int, edges: list[tuple[int, int]]) -> dict[int, int]:
    """Maximum matching left -> right via augmenting paths, deterministic order."""
    adj: list[list[int]] = [[] for _ in range(left)]
    for u, v in edges:
        adj[u].append(v)
    for lst in adj:
        lst.sort()
    match_r: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_r or augment(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    for u in range(left):
        augment(u, set())
    return {u: v for v, u in match_r.items()}


def _cliques(sizes, drop=()) -> SimpleGraph:
    """Disjoint cliques on consecutive runs of vertices, of the given sizes,
    less the edges whose ids are in ``drop``."""
    edges = set()
    start = 0
    for size in sizes:
        edges.update(edge_id(u, v) for u, v in combinations(range(start, start + size), 2))
        start += size
    return SimpleGraph(start, frozenset(edges.difference(drop)))


def _fixing(H1: SimpleGraph, moved) -> EdgeMapping:
    """The mapping of K_n, n = H1.n, that fixes every edge of H1 and sends
    each other edge e to ``moved(e)``."""
    return EdgeMapping(
        H1.n, tuple(e if e in H1.edges else moved(e) for e in range(edge_count(H1.n)))
    )


# ---------------------------------------------------------------------------
# generators


def modular_shift(n: int) -> ConstructionResult:
    """Every edge's image shares exactly one endpoint with it, none fixed.

    On vertices 1..n, the edge {x, y} with x < y maps to {z, y} where z runs
    cyclically through {1..y-1} \\ {x}; the bottom edge {1,2} maps to {2,3}.
    Nothing is fixed and nothing moves clear of itself, so no pattern with an
    edge ever appears exclusively.
    """
    if n < 3:
        raise ValueError("need n >= 3")

    def moved(e: int) -> int:
        x, y = edge_pair(e)  # {x + 1, y + 1} on vertices 1..n
        return edge_id(1, 2) if y == 1 else edge_id((x + 1) % y, y)

    f = _fixing(SimpleGraph.empty(n), moved)
    claims = [("fixed", matching(1)), ("exclusive", matching(1))]
    return _emit(f, claims, f"modular_shift(n={n})")


def fixed_clique_partition(r: int, k: int) -> ConstructionResult:
    """Fixed edges form (r-1) disjoint (k-1)-cliques; cross edges shifted.

    No connected k-vertex pattern fits in a fixed component, and a shifted
    K_r would need r vertices in distinct parts with all cross images, which
    the part count r-1 forbids.  A cross edge {u, v}, u < v, maps to {u, w}
    for the next w after v, cyclically, outside u's part.
    """
    if r < 2 or k < 2:
        raise ValueError("need r >= 2 and k >= 2")
    size = k - 1
    n = (r - 1) * size
    if n == 2:
        raise ValueError("two vertices admit no shifted edge; (r,k)=(3,2) is void")

    def moved(e: int) -> int:
        u, v = edge_pair(e)
        w = next(w % n for w in range(v + 1, v + n) if w % n // size != u // size)
        return edge_id(u, w)

    f = _fixing(_cliques([size] * (r - 1)), moved)
    claims = [("fixed", T) for T in all_trees(k) if T.k <= n]
    claims += [("shifted", graphs.complete(r)), ("free", graphs.complete(r))]
    return _emit(f, claims, f"fixed_clique_partition(r={r},k={k})")


def star_shift(k: int) -> ConstructionResult:
    """All edges at one vertex cycle among themselves; the rest stay fixed.

    The shifted edges form a star, so two disjoint shifted edges never exist,
    and a free matching of size 2 would need them.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    f = _fixing(_cliques([1, k - 1]), lambda e: edge_id(0, edge_pair(e)[1] % (k - 1) + 1))
    claims = [("free", matching(2))]
    claims += [("fixed", T) for T in all_trees(k)]
    return _emit(f, claims, f"star_shift(k={k})")


def tripartite_hall() -> ConstructionResult:
    """Three fixed triangles; each crossing edge maps into its matched triangle.

    The 27 crossing edges and 27 crossing triangles form a 3-regular bipartite
    incidence graph, so a perfect matching pairs each edge e with a triangle
    through e; e then maps to the smaller-id other edge of its triangle.
    """
    H1 = _cliques([3, 3, 3])
    cross_edges = sorted(H1.complement().edges)
    tri_edges = [
        frozenset((edge_id(a, b), edge_id(a, c), edge_id(b, c)))
        for a in range(3)
        for b in range(3, 6)
        for c in range(6, 9)
    ]
    pairs = [
        (i, j)
        for i, e in enumerate(cross_edges)
        for j, tes in enumerate(tri_edges)
        if e in tes
    ]
    match = bipartite_matching(len(cross_edges), len(tri_edges), pairs)
    if len(match) != len(cross_edges):
        raise RuntimeError("perfect matching between crossing edges and triangles failed")
    f = _fixing(H1, lambda e: min(tri_edges[match[cross_edges.index(e)]] - {e}))
    claims = [
        ("fixed", star(3)),
        ("fixed", graphs.path(4)),
        ("free", graphs.complete(3)),
    ]
    return _emit(f, claims, "tripartite_hall()")


def euler_partition(
    H1: SimpleGraph,
    H2: SimpleGraph,
    r: int,
    fixed_claims: tuple[PatternGraph, ...] = (),
) -> ConstructionResult:
    """Fix H1; walk H2's edges along Euler circuits and map each to the next.

    An apex joined to H2's odd-degree vertices evens the walk out.  At any
    vertex the walk pairs up the incident H2 edges, and a free star cannot
    keep both edges of a pair, so max degree 2r-2 in H2 caps free stars at
    r-1 edges.  Edges whose walk successor is an apex edge map to the
    smallest-id edge other than themselves.
    """
    n = H1.n
    if H2.n != n:
        raise ValueError("H1 and H2 must share a vertex count")
    if H1.edges & H2.edges or len(H1.edges) + len(H2.edges) != edge_count(n):
        raise ValueError("H1 and H2 must partition the complete graph's edges")
    if H2.m and max(H2.degrees) > 2 * r - 2:
        raise ValueError(f"max degree of H2 is {max(H2.degrees)} > 2r-2 = {2 * r - 2}")
    f = _fixing(H1, _euler_successors(H2).__getitem__)
    claims = [("free", star(r))]
    claims += [("fixed", P) for P in fixed_claims]
    return _emit(f, claims, f"euler_partition(n={n},r={r})")


def _euler_successors(H2: SimpleGraph) -> dict[int, int]:
    """Successor-in-walk images for every edge of H2, apex edges excluded."""
    n = H2.n
    odd = [v for v in range(n) if H2.degrees[v] % 2]
    apex = n
    aug_pairs = list(H2.pairs()) + [(v, apex) for v in odd]
    aug = SimpleGraph.from_pairs(n + 1, aug_pairs)
    out: dict[int, int] = {}
    fallback: list[int] = []
    for comp in aug.components():
        if not any(aug.degrees[v] for v in comp):
            continue
        walk = euler_circuit(aug, component=comp)
        seq = list(zip(walk, walk[1:]))
        h = len(seq)
        for i, (u, v) in enumerate(seq):
            if apex in (u, v):
                continue
            e = edge_id(u, v)
            nu, nv = seq[(i + 1) % h]
            if apex in (nu, nv):
                fallback.append(e)
            else:
                out[e] = edge_id(nu, nv)
    for e in fallback:
        out[e] = 0 if e != 0 else 1
    return out


def frobenius_tree_lower(k: int, r: int, variant: int) -> ConstructionResult:
    """Clique-union fixed graphs with Euler-successor complements.

    Component sizes stay below k so no k-vertex tree is fixed; complement
    degrees stay at 2r-2 or below so no star with r leaves is free.
    Variant 1 uses equal (k-1)-cliques, variant 3 mixes sizes k-1 and k-3,
    variant 4 (odd k) removes a one-factor from the k-1 parts.
    """
    if k < 3 or r < 2:
        raise ValueError("need k >= 3 and r >= 2")
    drop = ()
    if variant == 1:
        if (2 * r - 2) % (k - 1):
            raise ValueError(f"k-1 = {k - 1} does not divide 2r-2 = {2 * r - 2}")
        sizes = [k - 1] * (1 + (2 * r - 2) // (k - 1))
    elif variant == 3:
        if k < 4:
            raise ValueError("variant 3 needs k >= 4 so the small parts have vertices")
        rep = frobenius_decomposition(k - 1, k - 3, 2 * r - 2)
        if rep is None:
            raise ValueError(f"2r-2 = {2 * r - 2} is not a combination of {k - 1} and {k - 3}")
        x, y = rep
        sizes = [k - 1] * x + [k - 3] * (y + 1)
    elif variant == 4:
        if k % 2 == 0:
            raise ValueError("variant 4 needs odd k so the big parts have a one-factor")
        rep = frobenius_decomposition(k - 1, k - 2, 2 * r - 2)
        if rep is None:
            raise ValueError(f"2r-2 = {2 * r - 2} is not a combination of {k - 1} and {k - 2}")
        x, y = rep
        sizes = [k - 1] * x + [k - 2] * (y + 1)
        # the big parts come first and have even size, so the pairs
        # {2i, 2i+1} below x(k-1) form a one-factor of each of them
        drop = [edge_id(v, v + 1) for v in range(0, x * (k - 1), 2)]
    else:
        raise ValueError(f"unknown variant {variant}, expected 1, 3, or 4")
    H1 = _cliques(sizes, drop)
    result = euler_partition(H1, H1.complement(), r, fixed_claims=tuple(all_trees(k)))
    return replace(result, provenance=f"frobenius_tree_lower(k={k},r={r},variant={variant})")


def cycle_decomp_star_exclusive(k: int, r: int) -> ConstructionResult:
    """Fixed (k-1)-cliques; cross edges jump two steps along even cycles.

    The cross edges between two parts form K_{k-1,k-1}, which decomposes into
    even cycles; mapping each cycle edge two positions ahead keeps images
    disjoint from their edges, and any two star edges on a common cycle
    conflict, capping exclusive stars at one edge per incident cycle (r-1).
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("need odd k >= 3")
    if (2 * r - 2) % (k - 1):
        raise ValueError(f"k-1 = {k - 1} does not divide 2r-2 = {2 * r - 2}")
    if r < 1:
        raise ValueError("need r >= 1")
    s = 1 + (2 * r - 2) // (k - 1)
    n = s * (k - 1)
    images: dict[int, int] = {}
    for i in range(s):
        for j in range(i + 1, s):
            block_pairs = [
                (u, v)
                for u in range(i * (k - 1), (i + 1) * (k - 1))
                for v in range(j * (k - 1), (j + 1) * (k - 1))
            ]
            block = SimpleGraph.from_pairs(n, block_pairs)
            for cyc in cycle_decomposition(block):
                cyc_edges = [
                    edge_id(cyc[t], cyc[(t + 1) % len(cyc)]) for t in range(len(cyc))
                ]
                L = len(cyc_edges)
                for t, e in enumerate(cyc_edges):
                    images[e] = cyc_edges[(t + 2) % L]
    f = _fixing(_cliques([k - 1] * s), images.__getitem__)
    claims = [("exclusive", star(r))]
    claims += [("fixed", T) for T in all_trees(k) if T.k <= n]
    return _emit(f, claims, f"cycle_decomp_star_exclusive(k={k},r={r})")


def chromatic_blocks(chi: int, r: int) -> ConstructionResult:
    """chi-1 blocks of K_{2r-1} with Euler-successor mappings, cross edges fixed.

    Free stars cannot touch fixed edges, so they live inside one block, where
    the successor trick caps them at r-1 leaves; the fixed graph is complete
    (chi-1)-partite, whose chromatic number is chi-1.
    """
    if chi < 3 or r < 2:
        raise ValueError("need chi >= 3 and r >= 2")
    blocks = _cliques([2 * r - 1] * (chi - 1))
    result = euler_partition(blocks.complement(), blocks, r)
    return replace(result, provenance=f"chromatic_blocks(chi={chi},r={r})")


def circulant(n: int, reps: dict[int, tuple[int, int]]) -> EdgeMapping:
    """The mapping of K_n that commutes with i -> i + 1 (mod n).

    ``reps[d] = (a, b)`` sends the edge {0, d} to {a, b}, hence each edge
    {i, i + d} to {a + i, b + i}; d runs over 1..n // 2.  For even n the
    half-turn i -> i + n/2 fixes the edge {0, n/2}, so its image must be
    fixed too, that is b - a = n/2 (mod n); anything else is refused.
    """
    if any(2 * d == n and (b - a) % n != d for d, (a, b) in reps.items()):
        raise ValueError(f"the image of {{0, {n // 2}}} is not fixed by the half-turn")
    if set(reps) != set(range(1, n // 2 + 1)):
        raise ValueError(f"need one representative image per difference 1..{n // 2}")
    images = {
        edge_id(i, (i + d) % n): edge_id((a + i) % n, (b + i) % n)
        for d, (a, b) in reps.items()
        for i in range(n)
    }
    return EdgeMapping(n, tuple(images[e] for e in range(edge_count(n))))


def k4_involution() -> ConstructionResult:
    """Every edge of K4 to the edge it misses."""
    f = circulant(4, {1: (2, 3), 2: (1, 3)})
    return _emit(f, [("free", matching(2))], "k4_involution")


def matching_3k2() -> ConstructionResult:
    """Each edge of K6 to another edge of a perfect matching through it."""
    n = 6
    edges = list(range(edge_count(n)))
    matchings = _perfect_matchings(n)
    pairs = [
        (e, j) for e in edges for j, M in enumerate(matchings) if e in M
    ]
    match = bipartite_matching(len(edges), len(matchings), pairs)
    if len(match) != len(edges):
        raise RuntimeError("edge-to-matching pairing failed")
    images = {}
    for e in edges:
        M = matchings[match[e]]
        images[e] = min(x for x in M if x != e)
    f = EdgeMapping(n, tuple(images[e] for e in edges))
    return _emit(f, [("free", matching(3))], "matching_3k2")


def _perfect_matchings(n: int) -> list[frozenset[int]]:
    def rec(pool: tuple[int, ...]) -> list[list[int]]:
        if not pool:
            return [[]]
        u, rest = pool[0], pool[1:]
        out = []
        for v in rest:
            others = tuple(x for x in rest if x != v)
            for tail in rec(others):
                out.append([edge_id(u, v)] + tail)
        return out

    return [frozenset(m) for m in rec(tuple(range(n)))]


def pentagon_involution() -> ConstructionResult:
    """The moved-clear circulant of K5 with no exclusive K1,2."""
    f = circulant(5, {1: (2, 4), 2: (3, 4)})
    return _emit(f, [("exclusive", star(2))], "pentagon_involution")


def z7_difference() -> ConstructionResult:
    """The moved-clear circulant {i, i + j} -> {i + 2j, i + 3j} of K7, with no
    exclusive 2K2."""
    f = circulant(7, {j: (2 * j, 3 * j) for j in (1, 2, 3)})
    return _emit(f, [("exclusive", matching(2))], "z7_difference")
