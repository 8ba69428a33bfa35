"""Turning bounded-out-degree structure into exclusive stars.

A digraph with max out-degree d has a 2d-degenerate undirected version, hence
a proper coloring with at most 2d+1 colors; the d=1 case supports a sharper
independent-set guarantee.  These two facts drive every extraction here: the
conflict arcs among candidate edges have small out-degree, so a large color
class is a large conflict-free edge set.

Every graph here is a tuple of bitmask rows, row v the int of v's
neighbours, the layout of ``EdgeMapping.relation_graphs`` and ``detect``;
color classes, peel buckets and BFS layers are bitmasks too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import detect
from .detect import Certificate
from .graphs import edge_pair, edge_table, mask_bits, pair_ids, star
from .mapping import ContractError, EdgeMapping


@dataclass(frozen=True)
class FunctionalDigraph:
    """Loop-free digraph with a declared out-degree bound.

    ``arcs[v]`` lists the out-neighbors of v.  The undirected version is the
    graph on the same vertices with an edge wherever an arc runs either way;
    ``undirected[v]`` is the bitmask of v's neighbours in it.
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
            for w in out:
                if not 0 <= w < self.n:
                    raise ValueError(f"arc endpoint out of range at vertex {v}")

    @classmethod
    def from_arcs(cls, n: int, arcs, d: int | None = None) -> "FunctionalDigraph":
        tup = tuple(tuple(sorted(set(out))) for out in arcs)
        if d is None:
            d = max((len(out) for out in tup), default=0)
        return cls(n, tup, d)

    @cached_property
    def undirected(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for v, out in enumerate(self.arcs):
            for w in out:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
        return tuple(rows)

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
    colors = [0] * D.n
    for c, cls in enumerate(_greedy_classes(D.undirected, 2 * D.d + 1)):
        for v in mask_bits(cls):
            colors[v] = c
    return colors


def _greedy_classes(rows, limit: int) -> list[int]:
    """Color classes, as bitmasks, of the greedy coloring in reverse peel
    order: a vertex joins the first class its row misses, or opens a new one.
    More than ``limit`` classes breaks the degeneracy bound and raises."""
    classes: list[int] = []
    for v in reversed(_peel_order(rows)):
        row = rows[v]
        for c, cls in enumerate(classes):
            if not cls & row:
                classes[c] = cls | 1 << v
                break
        else:
            classes.append(1 << v)
    if len(classes) > limit:
        raise AssertionError(f"greedy used {len(classes)} colors, bound {limit}")
    return classes


def _peel_order(rows) -> list[int]:
    """Vertices in the order that repeatedly removes a vertex of least
    remaining degree, the least such id first (smallest-last order, Matula &
    Beck 1983).  A bucket queue holds one bitmask per remaining degree; the
    next vertex is the lowest bit of the least nonempty bucket, and its
    remaining neighbours move down one bucket.  Removing a vertex of least
    degree lowers the least degree by at most one, so the scan for the next
    nonempty bucket starts one below the last."""
    deg = [row.bit_count() for row in rows]
    bucket = [0] * (max(deg, default=0) + 1)
    for v, d in enumerate(deg):
        bucket[d] |= 1 << v
    left = (1 << len(rows)) - 1
    peel: list[int] = []
    least = 0
    while left:
        while not bucket[least]:
            least += 1
        low = bucket[least] & -bucket[least]
        bucket[least] ^= low
        left ^= low
        v = low.bit_length() - 1
        peel.append(v)
        nbrs = rows[v] & left
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            w = bit.bit_length() - 1
            d = deg[w]
            deg[w] = d - 1
            bucket[d] ^= bit
            bucket[d - 1] |= bit
        if least:
            least -= 1
    return peel


def independent_set_d1(D: FunctionalDigraph) -> list[int]:
    """Independent set of size >= m + ceil((n-2m)/3), m = zero-out-degree count.

    Out-degree 1 makes every component of the undirected version a tree or
    unicyclic.  Each component, rooted at its least vertex, is 2-colored by
    the parity of its BFS layers.  An edge inside one layer closes an odd
    cycle, so a unicyclic component has at most one, and its lower end moves
    to a third color.  The larger of colors 0 and 1 (0 on a tie) is
    independent, and holds at least half of a tree and (k-1)/2 of a
    unicyclic component of k >= 3 vertices, which adds up to the bound.

    The set is not maximum in general.  The double star
    ``from_arcs(6, [[1], [], [0], [0], [1], [1]], d=1)`` gets [0, 4, 5],
    the guaranteed 1 + ceil(4/3) = 3 vertices, while {2, 3, 4, 5} is
    independent.
    """
    if D.max_outdeg() > 1:
        bad = next(v for v, out in enumerate(D.arcs) if len(out) > 1)
        raise ContractError(f"vertex {bad} has out-degree {len(D.arcs[bad])}, need <= 1")
    rows = D.undirected
    left = (1 << D.n) - 1
    out = 0
    while left:
        layer = left & -left
        sides = [0, 0]
        parity = 0
        while layer:
            left ^= layer
            sides[parity] |= layer
            reach = 0
            for x in mask_bits(layer):
                row = rows[x]
                if row & layer:
                    sides[parity] ^= 1 << x
                    layer ^= 1 << x
                reach |= row
            layer = reach & left
            parity ^= 1
        even, odd = sides
        out |= even if even.bit_count() >= odd.bit_count() else odd
    return mask_bits(out)


def exclusive_star(mapping: EdgeMapping, v: int, r: int) -> Certificate:
    """r edges of K_n at v forming an exclusive star, for strong-shifted maps.

    The conflict digraph on the edges at v has an arc from vl to vt when
    the image of vl touches t.  Every star edge must be strong-shifted, its
    image missing both v and l: that test, one bit test per leaf, is what
    keeps the digraph loop-free with out-degree <= 2 (the two ends of the
    image, both other leaves).  ``_greedy_classes`` then colors it with at
    most 5 classes, and the largest, the least first leaf on a tie, gives
    ceil(deg/5) >= r conflict-free edges.  Below n = 4 every edge of K_n
    touches all the others, so no edge can move clear of itself and the
    input is refused.
    """
    if r < 1:
        raise ValueError("r must be positive")
    n = mapping.n
    if n < 4:
        raise ValueError("strong-shifted edges need n >= 4")
    if not 0 <= v < n:
        raise ValueError(f"center {v} is not a vertex of K_{n}")
    deg = n - 1
    if deg < 5 * r - 4:
        raise ValueError(f"degree {deg} at vertex {v} is below 5r-4 = {5 * r - 4}")
    images = mapping.images
    pairs, vmask = edge_table(n)
    ids = pair_ids(n)
    # conflict rows over leaf indices: leaf x sits at x - (x > v)
    conf = [0] * deg
    for l in range(n):
        if l == v:
            continue
        e = ids[v * n + l]
        img = images[e]
        if vmask[img] & (1 << v | 1 << l):
            raise ContractError(f"edge {edge_pair(e)} at v is not strong-shifted")
        i = l - (l > v)
        a, b = pairs[img]
        a -= a > v
        b -= b > v
        conf[i] |= 1 << a | 1 << b
        conf[a] |= 1 << i
        conf[b] |= 1 << i
    best = max(_greedy_classes(conf, 5), key=lambda cls: (cls.bit_count(), -(cls & -cls)))
    chosen = tuple(i + (i >= v) for i in mask_bits(best)[:r])
    P = star(r)
    cert = Certificate("exclusive", P, detect._star_embedding(P, v, chosen))
    if not detect.validate(mapping, cert):
        raise AssertionError("extracted star failed exclusivity revalidation")
    return cert
