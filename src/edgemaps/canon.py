"""Canonical codes for small graphs and isomorph-free generation by edge count.

The code of a graph is the minimum edge-set bitmask over all relabelings
consistent with a Weisfeiler-Leman vertex invariant.  Restricting to
invariant-consistent permutations is exact: isomorphisms preserve the
invariant, so isomorphic graphs range over the same set of codes.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from .graphs import edge_count, edge_id, edge_pair, mask_bits

# below this many consistent relabelings we loop in python; above, numpy batches
_PY_CAP = 64
_WL_ROUNDS = 3


def _adj_from_mask(n: int, mask: int) -> list[int]:
    adj = [0] * n
    m = mask
    while m:
        e = (m & -m).bit_length() - 1
        m &= m - 1
        u, v = edge_pair(e)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _wl_classes(n: int, adj: list[int]) -> list[list[int]]:
    """Vertex classes of the iterated neighborhood invariant, in invariant order."""
    keys: list = [bin(a).count("1") for a in adj]
    for _ in range(_WL_ROUNDS):
        new_keys = []
        for v in range(n):
            nb = adj[v]
            sig = []
            while nb:
                u = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                sig.append(keys[u])
            new_keys.append((keys[v], tuple(sorted(sig))))
        if len(set(new_keys)) == len(set(keys)):
            keys = new_keys
            break
        keys = new_keys
    groups: dict = {}
    for v in range(n):
        groups.setdefault(keys[v], []).append(v)
    return [groups[k] for k in sorted(groups)]


@lru_cache(maxsize=8)
def _all_perms_np(n: int) -> np.ndarray:
    return np.array(list(permutations(range(n))), dtype=np.int8)


def _codes_min(perms: np.ndarray, mask: int, n: int) -> int:
    """Minimum edge-mask code of the graph over the given relabelings."""
    codes = np.zeros(len(perms), dtype=np.int64)
    m = mask
    while m:
        e = (m & -m).bit_length() - 1
        m &= m - 1
        u, v = edge_pair(e)
        pu = perms[:, u].astype(np.int64)
        pv = perms[:, v].astype(np.int64)
        hi = np.maximum(pu, pv)
        lo = np.minimum(pu, pv)
        codes += np.int64(1) << (hi * (hi - 1) // 2 + lo)
    return int(codes.min())


def canonical_code(n: int, mask: int) -> int:
    """Canonical edge-mask; equal codes iff isomorphic (n <= 9 guaranteed)."""
    full = (1 << edge_count(n)) - 1
    if mask == 0 or mask == full:
        return mask
    adj = _adj_from_mask(n, mask)
    classes = _wl_classes(n, adj)
    fixed = [_twins(adj, c) for c in classes]
    total = 1
    for c, f in zip(classes, fixed):
        if not f:
            total *= factorial(len(c))
    if total == factorial(n):
        if n > 9:
            raise ValueError(f"canonical_code: invariant-uniform graph on {n} > 9 vertices")
        return _codes_min(_all_perms_np(n), mask, n)
    if total <= _PY_CAP:
        best = None
        pairs = [edge_pair(e) for e in mask_bits(mask)]
        for arrangement in _consistent_perms(classes, fixed):
            pos = [0] * n
            for tgt, src in enumerate(arrangement):
                pos[src] = tgt
            code = 0
            for u, v in pairs:
                code |= 1 << edge_id(pos[u], pos[v])
            if best is None or code < best:
                best = code
        return best
    perms = np.array(list(_consistent_perms(classes, fixed)), dtype=np.int8)
    # rows list source vertices by target slot; invert to relabeling arrays
    inv = np.empty_like(perms)
    rows = np.arange(n, dtype=np.int8)
    for i in range(len(perms)):
        inv[i, perms[i]] = rows
    return _codes_min(inv, mask, n)


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


def _consistent_perms(classes: list[list[int]], fixed: list[bool]):
    """All orderings placing each invariant class in its block of slots.

    A class flagged ``fixed`` keeps its given order.
    """

    def rec(i: int, acc: list[int]):
        if i == len(classes):
            yield tuple(acc)
            return
        for perm in [classes[i]] if fixed[i] else permutations(classes[i]):
            yield from rec(i + 1, acc + list(perm))

    yield from rec(0, [])


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
    pairs = [edge_pair(e) for e in range(total)]
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
