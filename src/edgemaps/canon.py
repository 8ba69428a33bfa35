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
    total = 1
    for c in classes:
        total *= factorial(len(c))
    if total == factorial(n):
        if n > 9:
            raise ValueError(f"canonical_code: invariant-uniform graph on {n} > 9 vertices")
        return _codes_min(_all_perms_np(n), mask, n)
    if total <= _PY_CAP:
        best = None
        pairs = [edge_pair(e) for e in mask_bits(mask)]
        for arrangement in _consistent_perms(classes):
            pos = [0] * n
            for tgt, src in enumerate(arrangement):
                pos[src] = tgt
            code = 0
            for u, v in pairs:
                code |= 1 << edge_id(pos[u], pos[v])
            if best is None or code < best:
                best = code
        return best
    perms = np.array(list(_consistent_perms(classes)), dtype=np.int8)
    # rows list source vertices by target slot; invert to relabeling arrays
    inv = np.empty_like(perms)
    rows = np.arange(n, dtype=np.int8)
    for i in range(len(perms)):
        inv[i, perms[i]] = rows
    return _codes_min(inv, mask, n)


def _consistent_perms(classes: list[list[int]]):
    """All orderings placing each invariant class in its block of slots."""

    def rec(i: int, acc: list[int]):
        if i == len(classes):
            yield tuple(acc)
            return
        for perm in permutations(classes[i]):
            yield from rec(i + 1, acc + list(perm))

    yield from rec(0, [])


# ---------------------------------------------------------------------------
# isomorph-free generation, one edge at a time


def generate_by_edge_count(n: int, keep=None, max_edges: int | None = None) -> list[list[int]]:
    """Canonical representatives (edge masks) grouped by edge count.

    ``keep`` filters graphs; it must be closed downward under edge deletion
    (keep(G) false stays false after adding edges is NOT required, but every
    kept graph minus any edge must be kept) so levelwise growth reaches every
    class.  Generation stops at the first empty level.
    """
    top = edge_count(n) if max_edges is None else min(max_edges, edge_count(n))
    levels: list[list[int]] = [[0]]
    if keep is not None and not keep(0):
        return [[]]
    all_edges = list(range(edge_count(n)))
    for m in range(top):
        nxt: list[int] = []
        seen_codes: set[int] = set()
        seen_masks: set[int] = set()
        for g in levels[m]:
            for e in all_edges:
                bit = 1 << e
                if g & bit:
                    continue
                child = g | bit
                if child in seen_masks:
                    continue
                seen_masks.add(child)
                code = canonical_code(n, child)
                if code in seen_codes:
                    continue
                seen_codes.add(code)
                if keep is None or keep(child):
                    nxt.append(child)
        if not nxt:
            break
        levels.append(sorted(nxt))
    return levels


@lru_cache(maxsize=8)
def graphs_by_edge_count(n: int) -> tuple[tuple[int, ...], ...]:
    """All graphs on n vertices up to isomorphism, grouped by edge count."""
    if n > 8:
        raise ValueError("full isomorph-free generation capped at n=8")
    return tuple(tuple(level) for level in generate_by_edge_count(n))
