"""Canonical codes for small graphs and isomorph-free generation by edge count.

The code of a graph is the minimum edge-set bitmask over all relabelings
consistent with a Weisfeiler-Leman vertex invariant.  Restricting to
invariant-consistent permutations is exact: isomorphisms preserve the
invariant, so isomorphic graphs range over the same set of codes.

How the minimum is computed.  The invariant orders the vertex classes, and
class i owns the next block of slots.  An *arrangement* sends each class
onto its block; a class of pairwise twins keeps its order (every
permutation of it is an automorphism), the others take every order.  The
arrangements are the product of the per-class orders: ``itertools.product``
while there are at most ``_PY_CAP`` of them, a numpy slot array filled one
class block at a time above that.  An arrangement's code is the sum, over
the edges, of the bit of the edge's slot pair, read from one per-n table
built on ``graphs.pair_ids``.  Edges whose ends both keep their slot add the
same bits to every code, so they are summed once; a graph with no class to
permute (WL-discrete up to twins) is that one sum.

The refinement ranks each round's keys to small integers.  Ranking is
order-preserving, so the class order and the early stop are those of
refining on the nested keys themselves; with the same arrangement set this
gives the same minimum, bit for bit.  An invariant-uniform graph (one class
that is not all twins) needs all n! arrangements; it is refused above
n = 9.  Above n = 11 a code does not fit the int64 numpy table, so every
product is walked in Python.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, permutations, product
from math import factorial

import numpy as np

from .graphs import edge_count, edge_table, mask_bits, pair_ids

# up to this many arrangements we loop in python; above, numpy batches
_PY_CAP = 64
_WL_ROUNDS = 3
# the largest n whose codes fit in an int64 (C(11, 2) = 55 bits)
_NP_MAX_N = 11


def _adj_from_mask(n: int, mask: int) -> list[int]:
    pairs = edge_table(n)[0]
    adj = [0] * n
    for e in mask_bits(mask):
        u, v = pairs[e]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _wl_classes(n: int, adj: list[int]) -> list[list[int]]:
    """Vertex classes of the iterated neighborhood invariant, in invariant order.

    Each round keys a vertex by (its key, its neighbours' keys sorted) and
    replaces the keys by their ranks, which keeps their order.
    """
    nbrs = [mask_bits(a) for a in adj]
    keys = [len(nb) for nb in nbrs]
    count = len(set(keys))
    for _ in range(_WL_ROUNDS):
        sigs = [(keys[v], tuple(sorted([keys[u] for u in nb]))) for v, nb in enumerate(nbrs)]
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        keys = [rank[sig] for sig in sigs]
        if len(rank) == count:
            break
        count = len(rank)
    groups: list[list[int]] = [[] for _ in range(count)]
    for v in range(n):
        groups[keys[v]].append(v)
    return groups


@lru_cache(maxsize=16)
def _slot_bits(n: int) -> list[int]:
    """The code bit of slot pair (a, b) at ``a * n + b``; 0 when a == b."""
    return [1 << e if e >= 0 else 0 for e in pair_ids(n)]


@lru_cache(maxsize=16)
def _slot_bits_np(n: int) -> np.ndarray:
    """``_slot_bits(n)`` as an n x n int64 array."""
    return np.array(_slot_bits(n), dtype=np.int64).reshape(n, n)


@lru_cache(maxsize=16)
def _all_perms_np(n: int) -> np.ndarray:
    """The n! permutations of range(n), one per row, as int8."""
    rows = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):
        rows = np.concatenate([np.insert(rows, i, k, axis=1) for i in range(k + 1)])
    return rows


def _codes_min(perms: np.ndarray, mask: int, n: int) -> int:
    """Minimum edge-mask code of the graph over the given relabelings.

    Row i sends vertex v to slot ``perms[i, v]``.
    """
    table = _slot_bits_np(n)
    pairs = edge_table(n)[0]
    codes = np.zeros(len(perms), dtype=np.int64)
    for e in mask_bits(mask):
        u, v = pairs[e]
        codes += table[perms[:, u], perms[:, v]]
    return int(codes.min())


def canonical_code(n: int, mask: int) -> int:
    """Canonical edge-mask: equal codes iff isomorphic.

    The minimum code over the arrangements that keep each invariant class in
    its block of slots and each twin class in its order.  One table-driven
    kernel finds it: ranked refinement, then the product of the per-class
    orders, each code a sum of slot-pair bits (see the module docstring for
    why this equals refining on nested keys and walking each arrangement).
    Raises ``ValueError`` for an invariant-uniform graph on more than 9
    vertices, the one case that needs all n! arrangements.
    """
    full = (1 << edge_count(n)) - 1
    if mask == 0 or mask == full:
        return mask
    pairs = edge_table(n)[0]
    edges = [pairs[e] for e in mask_bits(mask)]
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    slot = [0] * n
    moving: list[list[int]] = []
    moved = 0
    total = 1
    start = 0
    for cls in _wl_classes(n, adj):
        for i, v in enumerate(cls):
            slot[v] = start + i
        if len(cls) > 1 and not _twins(adj, cls):
            moving.append(cls)
            total *= factorial(len(cls))
            for v in cls:
                moved |= 1 << v
        start += len(cls)
    # edges between unmoved vertices add the same bits to every arrangement
    bits = _slot_bits(n)
    base = 0
    varying = []
    for u, v in edges:
        if (moved >> u | moved >> v) & 1:
            varying.append((u, v))
        else:
            base += bits[slot[u] * n + slot[v]]
    if total == 1:
        return base
    if total == factorial(n):
        if n > 9:
            raise ValueError(f"canonical_code: invariant-uniform graph on {n} > 9 vertices")
        return _codes_min(_all_perms_np(n), mask, n)
    if total > _PY_CAP and n <= _NP_MAX_N:
        # row r takes, in each moving class, the order its mixed-radix digit names
        rows = np.empty((total, n), dtype=np.int8)
        rows[:] = slot
        reps = total
        for cls in moving:
            orders = _all_perms_np(len(cls)) + np.int8(slot[cls[0]])
            reps //= len(orders)
            rows.reshape(-1, len(orders), reps, n)[:, :, :, cls] = orders[:, None, :]
        ids = pair_ids(n)
        return base + _codes_min(rows, sum(1 << ids[u * n + v] for u, v in varying), n)
    order = list(chain.from_iterable(moving))
    blocks = [permutations(range(slot[c[0]], slot[c[0]] + len(c))) for c in moving]
    best = None
    for arrangement in product(*blocks):
        for v, s in zip(order, chain.from_iterable(arrangement)):
            slot[v] = s
        code = sum([bits[slot[u] * n + slot[v]] for u, v in varying])
        if best is None or code < best:
            best = code
    return base + best


def _twins(adj: list[int], cls: list[int]) -> bool:
    """Whether the members of ``cls`` are pairwise twins.

    Twins have the same neighbours outside the class and either no edges or
    all edges among themselves, so every permutation of the class is an
    automorphism and leaves the minimum code unchanged.
    """
    inside = 0
    for v in cls:
        inside |= 1 << v
    out = adj[cls[0]] & ~inside
    return all(adj[v] == out for v in cls) or all(adj[v] | 1 << v == out | inside for v in cls)


# ---------------------------------------------------------------------------
# isomorph-free generation, one edge at a time


def generate_by_edge_count(n: int, keep=None, max_edges: int | None = None) -> list[list[int]]:
    """One representative edge mask per isomorphism class, grouped by edge count.

    The masks are representatives, not canonical codes.  Level m + 1 grows
    from level m by adding one edge to each representative.  A child is kept
    only when its new edge has the largest key (max degree, min degree,
    common neighbours) among the child's edges, and kept children are
    deduplicated by ``canonical_code``.  This still reaches every class C:
    take a largest-key edge c of C; C - c lies in level m, so its
    representative plus the image of c is a copy of C whose new edge has
    the largest key.

    ``keep`` filters graphs and must be closed under edge deletion (every
    kept graph minus any edge is kept); generation then stops at the first
    empty level.  Without ``keep`` and ``max_edges`` only the levels up to
    C(n,2)/2 are grown, and level m is the complements of level C(n,2) - m.
    """
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
        seen: set[int] = set()
        for g in levels[m]:
            adj = _adj_from_mask(n, g)
            deg = [a.bit_count() for a in adj]
            for e, (u, v) in enumerate(pairs):
                if g >> e & 1:
                    continue
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                deg[u] += 1
                deg[v] += 1
                largest = _has_largest_key(adj, deg, u, v)
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
                deg[u] -= 1
                deg[v] -= 1
                if not largest:
                    continue
                child = g | 1 << e
                code = canonical_code(n, child)
                if code in seen:
                    continue
                seen.add(code)
                if keep is None or keep(child):
                    nxt.append(child)
        if not nxt:
            break
        levels.append(sorted(nxt))
    if halves:
        full = (1 << total) - 1
        levels += [sorted(full ^ g for g in levels[total - m]) for m in range(top + 1, total + 1)]
    return levels


def _has_largest_key(adj: list[int], deg: list[int], u: int, v: int) -> bool:
    """Whether edge uv has the largest (max deg, min deg, common neighbours) key."""
    hi, lo = (deg[u], deg[v]) if deg[u] >= deg[v] else (deg[v], deg[u])
    if max(deg) > hi:
        return False
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


@lru_cache(maxsize=8)
def graphs_by_edge_count(n: int) -> tuple[tuple[int, ...], ...]:
    """All graphs on n vertices up to isomorphism, grouped by edge count."""
    if n > 8:
        raise ValueError("full isomorph-free generation capped at n=8")
    return tuple(tuple(level) for level in generate_by_edge_count(n))
