"""Independent brute-force oracles: extremal numbers, supersaturation, pair covers.

These deliberately avoid the closed-form routes in ``bounds`` so the two can
cross-check each other.  Enumeration is isomorph-free via ``canon``; the full
graph catalogue is kept to n <= 8, extremal numbers go one further by pruned
ascent over pattern-free graphs only.  Copies in a catalogue class are
counted by the capped walk ``graphs._count_rows`` on the class's adjacency
rows: ``ex_bruteforce`` asks with cap 1, ``supersat_table`` with the running
minimum of the level.
"""
from __future__ import annotations

from functools import lru_cache
from math import inf

from .canon import FULL_CATALOGUE_LIMIT, generate_by_edge_count, graphs_by_edge_count
from .graphs import (
    PatternGraph,
    SimpleGraph,
    _count_rows,
    adjacency_masks,
    edge_count,
    edge_id,
    enumerate_copies,
    mask_bits,
)

EX_LIMIT = 9
PAIR_COVER_LIMIT = 9


class OracleLimitError(ValueError):
    pass


def count_perfect_matchings(n: int) -> int:
    """Perfect matchings of K_n: (n-1)!! for even n, 0 for odd."""
    if n < 0:
        raise ValueError("negative n")
    if n % 2:
        return 0
    out = 1
    for x in range(n - 1, 0, -2):
        out *= x
    return out


def ex_bruteforce(n: int, G: PatternGraph) -> int:
    """Max edges of an n-vertex graph with no copy of G, by exhaustive search."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n > EX_LIMIT:
        raise OracleLimitError(f"ex_bruteforce capped at n={EX_LIMIT}, got {n}")
    if G.m == 0:
        raise ValueError("ex is undefined for edgeless patterns")
    if G.k > n:
        return edge_count(n)

    def avoids(mask: int) -> bool:
        return not _count_rows(G.graph, n, adjacency_masks(n, mask_bits(mask)), 1)

    if n <= FULL_CATALOGUE_LIMIT:
        levels = graphs_by_edge_count(n)
        for m in range(len(levels) - 1, -1, -1):
            if any(map(avoids, levels[m])):
                return m
        return 0
    # n = 9: grow pattern-free graphs only; the last nonempty level is ex
    return len(generate_by_edge_count(n, keep=avoids)) - 1


def supersat_min(n: int, m: int, H: PatternGraph) -> int:
    """Minimum number of copies of H over all n-vertex graphs with m edges."""
    table = supersat_table(n, H)
    if not 0 <= m < len(table):
        raise ValueError(f"m={m} out of range for n={n}")
    return table[m]


@lru_cache(maxsize=128)
def supersat_table(n: int, H: PatternGraph) -> tuple[int, ...]:
    """supersat_min for every edge count 0..C(n,2) at once.

    Each class of a level is counted with the level's running minimum as
    the cap.  A walk cut at the cap reports at least that minimum, so it
    cannot become the new one, and the minimum stays exact; a level ends
    once its minimum is 0.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n > FULL_CATALOGUE_LIMIT:
        raise OracleLimitError(
            f"supersaturation needs the full catalogue, capped at n={FULL_CATALOGUE_LIMIT}"
        )
    table = []
    for level in graphs_by_edge_count(n):
        least = inf
        for mask in level:
            least = min(least, _count_rows(H.graph, n, adjacency_masks(n, mask_bits(mask)), least))
            if not least:
                break
        table.append(least)
    return tuple(table)


@lru_cache(maxsize=128)
def pair_cover_max(n: int, H: PatternGraph) -> int:
    """Max over pairs of distinct edges of K_n of the copies of H containing both.

    Vertex permutations carry copies to copies, and they act on pairs of
    distinct edges of K_n with two orbits: the pairs that share a vertex and
    the disjoint ones.  Every pair in an orbit lies in equally many copies,
    so counting the copies through {01, 02} and through {01, 23} suffices.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n > PAIR_COVER_LIMIT:
        raise OracleLimitError(f"pair_cover_max capped at n={PAIR_COVER_LIMIT}, got {n}")
    if H.m < 2:
        raise ValueError("pair cover needs patterns with at least 2 edges")
    if H.k > n:
        return 0
    meeting = 1 << edge_id(0, 1) | 1 << edge_id(0, 2)
    disjoint = 1 << edge_id(0, 1) | 1 << edge_id(2, 3)
    through_meeting = through_disjoint = 0
    pairs = H.graph.pairs()
    for emb in enumerate_copies(H, SimpleGraph.complete(n)):
        emask = 0
        for u, v in pairs:
            emask |= 1 << edge_id(emb[u], emb[v])
        through_meeting += emask & meeting == meeting
        through_disjoint += emask & disjoint == disjoint
    return max(through_meeting, through_disjoint)
