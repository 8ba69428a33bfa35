"""Canonical codes for small graphs and isomorph-free generation by edge count.

The code of a graph is the minimum edge-set bitmask over all relabelings
consistent with a Weisfeiler-Leman vertex invariant.  Restricting to
invariant-consistent permutations is exact: isomorphisms preserve the
invariant, so isomorphic graphs range over the same set of codes.

How the minimum is found.  The invariant orders the vertex classes, and
class i owns the next block of slots; an arrangement sends each class onto
its block in any order.  Slots a < b carry edge id C(b, 2) + a, so codes
compare row by row from slot n - 1 down, where the row of slot s is the
s-bit mask of the lower slots joined to it.  The search is
individualisation and refinement (McKay and Piperno, "Practical graph
isomorphism, II", 2014), filling the slots from n - 1 down:

* the cells of an ordered partition own consecutive blocks of slots; at
  first they are the invariant classes;
* slot s goes to a vertex v of the last cell.  Row s is least when, in
  every cell, v's neighbours take the cell's lowest slots, and the
  arrangements reaching that row are exactly those of the partition that
  splits each cell into v's neighbours, then the rest;
* so only the vertices with the least row are branched on, each with its
  refined partition, and a branch is cut once its rows exceed the best
  code's.  Of the candidates in one twin class (``_twin_classes``) only
  the first is tried: swapping two twins is an automorphism that keeps
  the partition;
* once every cell is a single vertex, the rest of the code is fixed and is
  summed from the slot-pair table ``graphs.pair_ids``.

The search thus returns the minimum over every arrangement, so codes do
not depend on how it is found.  Every twin class lies inside one class,
since swapping two twins is an automorphism and the refinement commutes
with automorphisms.  So when there are as many twin classes as classes,
every order of each class is an automorphism and all arrangements have
one code: the search is skipped, the classes split into single vertices
in class order.  Twin classes are only sought when a class has two or
more vertices.

The refinement is colour refinement on class bitmasks (Berkholz, Bonsma
and Grohe, "Tight bounds on the complexity of colour refinement", 2013).
The classes start as the degree classes; each round splits every class by
the vector of how many neighbours a member has in each class and orders
the parts by the negated vector, and the rounds stop after one that splits
nothing or after ``_WL_ROUNDS``.  This is the order of keying each vertex
by (its class, its neighbours' classes sorted): the members of one class
share a degree, and for sorted lists of one length the first class whose
count differs decides both orders, the larger count first.

The catalogue grows level m + 1 from level m one edge at a time and keeps
a child whose new edge has the largest key and whose code is new.  It
tries one non-edge per orbit of the parent's twin swaps (McKay,
"Isomorph-free exhaustive generation", 1998): swapping two twins is an
automorphism of the parent, so the children it relates are isomorphic and
all but the first would be dropped as duplicates of it.

A child's code is computed only when it is needed to tell the child from
an earlier one.  Each level keys its classes by a cheap invariant, each
vertex's neighbour degrees and triangles, sorted over the vertices, which
isomorphic graphs share.  A child with a new invariant is a new class
without a code; only a collision costs codes, the child's and, the first
time, that of the class it collided with.
"""
from __future__ import annotations

from functools import cache
from itertools import chain

from .graphs import adjacency_masks, edge_count, edge_table, mask_bits, pair_ids

_WL_ROUNDS = 3
# Largest n whose full catalogue ``graphs_by_edge_count`` builds.
FULL_CATALOGUE_LIMIT = 8


def _wl_classes(n: int, adj: list[int]) -> list[int]:
    """Vertex classes of the iterated neighbourhood invariant, as bitmasks in
    invariant order (see the module docstring)."""
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    for _ in range(_WL_ROUNDS):
        split: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                split.append(cell)
                continue
            parts: dict[tuple[int, ...], int] = {}
            for v in mask_bits(cell):
                a = adj[v]
                key = tuple([(a & c).bit_count() for c in cells])
                parts[key] = parts.get(key, 0) | 1 << v
            # members share a degree, and equal-length sorted lists of neighbour
            # classes order as the negated count vectors: descending vectors
            split += [parts[key] for key in sorted(parts, reverse=True)]
        if len(split) == len(cells):
            break
        cells = split
    return cells


def canonical_code(n: int, mask: int) -> int:
    """Canonical edge-mask: equal codes iff isomorphic.

    The minimum code over the arrangements that keep each invariant class in
    its block of slots, found by individualisation and refinement (see the
    module docstring).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    full = (1 << edge_count(n)) - 1
    if not 0 <= mask <= full:
        raise ValueError(f"mask {mask} outside 0..2^C({n},2) - 1")
    if mask == 0 or mask == full:
        return mask
    eids = mask_bits(mask)
    adj = adjacency_masks(n, eids)
    pairs, ids = edge_table(n)[0], pair_ids(n)
    edges = [pairs[e] for e in eids]
    classes = _wl_classes(n, adj)
    twin = range(n)  # twin[v] names v's twin class: v alone unless twins are found
    if len(classes) < n:
        twin = _twin_classes(adj) or twin
        if len(set(twin)) == len(classes):
            # every class is a twin class, whose orders are all automorphisms
            classes = [1 << v for v in chain.from_iterable(map(mask_bits, classes))]
    best = full + 1

    def place(cells: list[int], s: int, code: int) -> None:
        """Fill slots s..0, each cell of ``cells`` owning the next block."""
        nonlocal best
        if len(cells) == s + 1:
            # one vertex per cell: the rest of the code is fixed
            slot = [0] * n
            for i, c in enumerate(cells):
                slot[c.bit_length() - 1] = i
            inside = sum(cells)
            code |= sum(
                1 << ids[slot[u] * n + slot[v]] for u, v in edges if inside >> u & inside >> v & 1
            )
            best = min(best, code)
            return
        cands: list[int] = []
        rows: list[int] = []
        tried = 0  # the twin classes of the candidates so far
        for v in mask_bits(cells[-1]):
            if tried >> twin[v] & 1:
                continue
            tried |= 1 << twin[v]
            nb = adj[v]
            row = lo = 0
            for c in cells:
                row |= ((1 << (nb & c).bit_count()) - 1) << lo
                lo += c.bit_count()
            cands.append(v)
            rows.append(row)
        least = min(rows)
        low = s * (s - 1) // 2
        code |= least << low
        for v, row in zip(cands, rows):
            if code >> low > best >> low:
                return
            if row == least:
                nb, rest = adj[v], ~(adj[v] | 1 << v)
                place([part for c in cells for part in (c & nb, c & rest) if part], s - 1, code)

    place(classes, n - 1, 0)
    return best


# ---------------------------------------------------------------------------
# isomorph-free generation, one edge at a time


def generate_by_edge_count(n: int, keep=None, max_edges: int | None = None) -> list[list[int]]:
    """One representative edge mask per isomorphism class, grouped by edge count.

    The masks are representatives, not canonical codes.  Level m + 1 grows
    from level m by adding one edge to each representative.  A child is kept
    only when its new edge has the largest key (max degree, min degree,
    common neighbours) among the child's edges and it is isomorphic to no
    earlier child of its level.  This still reaches every class C:
    take a largest-key edge c of C; C - c lies in level m, so its
    representative plus the image of c is a copy of C whose new edge has
    the largest key.  A non-edge whose endpoints' larger degree plus one is
    below the parent's maximum degree is skipped without building the
    child: its new edge cannot have the largest key.

    Each parent is also grown once per orbit of its twin swaps (McKay,
    "Isomorph-free exhaustive generation", 1998): of the non-edges uv with
    the same pair of twin classes (``_twin_classes``) only the first is
    tried.  Swapping two twins is an automorphism of the parent, so it
    maps one such child onto another, and the degree pre-check and the
    largest-key test, both invariant under it, accept all of them or none.
    A skipped child would thus have been refused as the sibling tried was,
    or dropped as a duplicate of it: the levels and their order are
    unchanged.
    A parent without twins skips this bookkeeping.

    A child's ``canonical_code`` is computed only when a cheaper invariant
    cannot tell it from an earlier child (McKay's cheap-invariant-first
    rule).  Each level keys its new classes by ``_invariant``.  A child
    whose invariant is new to the level is a new class and gets no code;
    on a collision the child gets its code, and so does the first class
    with that invariant if it has none yet, and the child is dropped when
    its code is among that invariant's codes.  The output is the same as
    when every child gets a code: isomorphic graphs have equal invariants,
    so a child isomorphic to an earlier class always meets it in one
    bucket, where equal codes drop it; and a child whose invariant is new
    is isomorphic to no earlier class.  So ``keep`` sees the same children
    in the same order, and the levels are bit-identical.

    ``keep`` filters graphs and must be closed under edge deletion (every
    kept graph minus any edge is kept); generation then stops at the first
    empty level.  Without ``keep`` and ``max_edges`` only the levels up to
    C(n,2)/2 are grown, and level m is the complements of level C(n,2) - m.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if max_edges is not None and max_edges < 0:
        raise ValueError(f"need max_edges >= 0, got {max_edges}")
    total = edge_count(n)
    halves = keep is None and max_edges is None
    if halves:
        top = total // 2
    else:
        top = total if max_edges is None else min(max_edges, total)
    if keep is not None and not keep(0):
        return [[]]
    pairs = edge_table(n)[0]
    levels: list[list[int]] = [[0]]
    for m in range(top):
        nxt: list[int] = []
        first: dict[tuple, int] = {}  # invariant -> the level's first class with it
        codes: dict[tuple, set[int]] = {}  # invariant -> its classes' codes, once two collide
        for g in levels[m]:
            adj = adjacency_masks(n, mask_bits(g))
            deg = [a.bit_count() for a in adj]
            most = max(deg)
            twin = _twin_classes(adj)
            tried: set[int] = set()
            for e, (u, v) in enumerate(pairs):
                if g >> e & 1 or max(deg[u], deg[v]) + 1 < most:
                    continue
                if twin is not None:
                    orbit = 1 << twin[u] | 1 << twin[v]
                    if orbit in tried:
                        continue
                    tried.add(orbit)
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                deg[u] += 1
                deg[v] += 1
                inv = _invariant(adj, deg) if _has_largest_key(adj, deg, u, v) else None
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                deg[u] -= 1
                deg[v] -= 1
                if inv is None:
                    continue
                child = g | 1 << e
                if inv not in first:
                    first[inv] = child
                else:
                    known = codes.get(inv)
                    if known is None:
                        known = codes[inv] = {canonical_code(n, first[inv])}
                    code = canonical_code(n, child)
                    if code in known:
                        continue
                    known.add(code)
                if keep is None or keep(child):
                    nxt.append(child)
        if not nxt:
            break
        levels.append(sorted(nxt))
    if halves:
        full = (1 << total) - 1
        levels += [sorted(full ^ g for g in levels[total - m]) for m in range(top + 1, total + 1)]
    return levels


def _twin_classes(adj: list[int]) -> list[int] | None:
    """The least member of each vertex's twin class, or None when no vertex
    has a twin; u and v are twins when N(u) - v = N(v) - u.

    Twins have equal open neighbourhoods (apart) or equal closed ones
    (adjacent).  No vertex has both kinds: a true twin u and a false twin w
    of v would make w adjacent to u, hence to v.  N(u) never equals N[w]: it
    would hold w, so u would be w's neighbour and its own.  So the twin
    relation is an equivalence, and one dict keyed by both kinds finds the
    least member of every class.
    """
    least: dict[int, int] = {}
    for v, a in enumerate(adj):
        least.setdefault(a, v)
        least.setdefault(a | 1 << v, v)
    if len(least) == 2 * len(adj):
        return None
    return [min(least[a], least[a | 1 << v]) for v, a in enumerate(adj)]


def _invariant(adj: list[int], deg: list[int]) -> tuple[int, ...]:
    """An isomorphism invariant: over the vertices, sorted, each vertex's
    multiset of neighbour degrees (which holds its degree) and twice its
    triangles, packed in one int.

    With k = n.bit_length() a count below n fits in k bits, so the multiset
    is the sum of 2^(k d) over the neighbours' degrees d, and twice the
    triangles, below n^2, fits in the low 2k bits.
    """
    k = len(adj).bit_length()
    weight = [1 << k * d for d in deg]
    keys = []
    for a in adj:
        degrees = twice_triangles = 0
        rest = a
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            degrees += weight[u]
            twice_triangles += (adj[u] & a).bit_count()
            rest ^= low
        keys.append(degrees << 2 * k | twice_triangles)
    keys.sort()
    return tuple(keys)


def _has_largest_key(adj: list[int], deg: list[int], u: int, v: int) -> bool:
    """Whether edge uv has the largest (max deg, min deg, common neighbours)
    key, given that no degree exceeds u's and v's larger one, as the
    generator's degree pre-check ensures."""
    hi, lo = (deg[u], deg[v]) if deg[u] >= deg[v] else (deg[v], deg[u])
    common = (adj[u] & adj[v]).bit_count()
    for a, da in enumerate(deg):
        if da != hi:
            continue
        nb = adj[a]
        while nb:
            b = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if deg[b] > lo or deg[b] == lo and (adj[a] & adj[b]).bit_count() > common:
                return False
    return True


@cache
def graphs_by_edge_count(n: int) -> tuple[tuple[int, ...], ...]:
    """All graphs on n vertices up to isomorphism, grouped by edge count."""
    if n > FULL_CATALOGUE_LIMIT:
        raise ValueError(f"full isomorph-free generation capped at n={FULL_CATALOGUE_LIMIT}")
    return tuple(tuple(level) for level in generate_by_edge_count(n))
