"""Backtracking search over edge mappings that avoid prescribed relations.

The searcher decides questions of the form: does K_n admit a mapping, inside
a given overlap class, with no fixed copy of one pattern, no free copy of
another, and so on.  Images are chosen edge by edge in id order, the fixed
image first where the class allows it, so a run is a deterministic walk of
one tree: exhaustion settles the forcing question at that n, a witness
refutes it.

Every relation is one kind of constraint, a set of copies to destroy, and
enters the walk only through its kill rows, built in closed form by
``_KILLS``: which images, given to an edge of a copy, make the copy fail
the relation.  An image inside the copy destroys a free copy, one touching
its vertex set an exclusive copy; an image other than the edge destroys a
fixed copy, the edge itself a shifted copy, and one touching the edge a
strong-shifted copy.  Copies are enforced in one way, lookahead
narrowing, a forward check (Haralick & Elliott, 1980): a copy is pending
from the moment its second-to-last edge is assigned, and its destroyers at
once narrow the images its last edge may take.  A branch that leaves some
edge no image dies there, under the rule ``lookahead``.  Every copy is thus
destroyed by the time its last edge is assigned, and no rule needs to look
for a completed one.  Three devices prune the tree further.  They are always
on, and ``tests/test_search.py`` checks the verdicts and witnesses they
lead to against brute-force enumeration of every mapping in the class:

* interchangeable images (Freuder, "Eliminating interchangeable values in
  constraint satisfaction problems", AAAI 1991): each edge's pool keeps
  only the first image, in pool order, of each signature.  The signature
  of image x at edge e is whether x moves e and the copies ``kill[e][x]``
  it destroys there, of every relation at once.  Class conditions are per
  edge and every relation enters the walk only through its kill rows, so
  the moved count, the destroyed mask, the narrowing and the counting and
  objective rules see an image only through its signature: two images of
  one signature leave identical states and identical subtrees.  The
  counting rule's per-edge maxima keep an image of each kill count and do
  not change;
* prefix-stabilizer symmetry: candidate images of the branching edge are
  reduced to orbit minima under vertex permutations that stabilize the
  partial assignment.  The group starts as the stabilizer of edge 0, built
  directly (``_edge_perms``), and each assigned edge narrows it to the
  permutations that also fix that edge and its image.  The walk holds the
  group as a bitmask over the indices of those permutations, so narrowing
  it and asking whether some member sends an image lower are one AND each
  with a per-edge mask (``_symmetry_masks``).  Above n = 8 the walk uses
  the identity alone.  That cost was measured at n = 9 (BENCH_23.json,
  ``symmetry_n9``): on two 20 s walks the group pruned 1-2% of the nodes
  but walked 9-17% fewer nodes per second and took 60 ms to build cold;
* counting: copies still needing a destroyer, of all relations at once,
  must not outnumber the destructions the remaining edges can perform.
  Every copy must be destroyed by the leaf, and an image of edge f
  destroys at most ``best[f]`` copies, the most any image of f destroys of
  all relations together; so edges 0..e must destroy all copies but the
  sum of ``best`` over the edges after e.

None of the four, narrowing included, reorders the walk or cuts the
subtree of its first witness, so the witness returned is the first mapping
in walk order that avoids every relation.  The first witness never uses a
cut image: the same mapping with the earlier image of that signature would
avoid every relation too and lie in a subtree walked first, where symmetry
pruning is sound as well (a stabilizer maps a witness to one earlier in
pool order at the branching edge, and swapping in the first image of each
signature keeps it earlier), so that subtree would have given a witness
first.  On the objective walk the same holds of the first witness with
the most moved edges, since signatures keep the moved count.

The walk keeps its state in a few ints, read against tables that a
process builds once per (relation, pattern, n) (``_copy_table``) and each
engine composes.  The copies of all avoided patterns are numbered in one
sequence, pattern by pattern in ``spec.avoid`` order, so a number names a
copy of one relation, and a set of copies is a bitmask over those numbers:

* ``second[e]``: the copies of two or more edges whose second-largest edge
  id is e.  Edges are assigned in id order, so once e is assigned these
  copies have one unassigned edge left, their last edge ``ends[c]``.  A
  copy's remaining-edge count is thus a function of the depth and is never
  kept;
* ``kill[e][x]``: the copies through e that image x destroys, each by its
  relation's rule.  Assigning x to e ORs it into the destroyed-copies
  mask; the counting rule reads its popcount;
* ``destroyers[c]``: the images that destroy copy c at its last edge, that
  is c's bit read down the kill row of that edge;
* ``allowed[f]``: the images of f that every pending copy with last edge f
  accepts, carried down the walk.  It starts as f's pool less what the
  copies of one edge, f alone, rule out.  After e is assigned, each intact
  copy in ``second[e]`` ANDs its ``destroyers`` into ``allowed`` of its
  last edge; the rule ``lookahead`` prunes when that leaves none.
  The walk tries e's pool in pool order, skipping images outside
  ``allowed[e]``;
* the count of moved edges so far, which the objective walk reads.

The objective walk is a branch and bound (Land & Doig, 1960): its
objective is the incumbent bound, the fewest moved edges a mapping must
have to beat the best witness so far.  Each witness raises it to its own
moved count plus one and the walk goes on, so the last witness found moves
the most edges.  A witness that moves every edge cannot be beaten, so the
walk stops there.

A node's loop keeps its own moved count, destroyed mask and ``allowed``
list in locals and works out each child's from them; a child that narrows
``allowed`` narrows a copy of it.  Only a child that no rule prunes writes
its state to the engine, and the loop writes its own back after that
child's subtree.  Witnesses are re-validated by the detection module before
being returned, so a bug in the incremental bookkeeping surfaces as a loud
error rather than a wrong verdict.

With ``workers`` the walk is the same tree, split at depth 0: it runs in
the calling process until its first 1024-node tick and only then shares
its unstarted root branches with worker processes, which claim them one at
a time alongside the calling process (``_parallel``).  Most walks end
before that tick and start no process; verdict, witness, node and prune
counts match the serial walk's whenever no branch times out.
"""
from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import permutations
from functools import lru_cache, reduce
from operator import or_

from . import constructions, detect
from .bounds import (
    ASSUMED_TREE_DENSITY,
    Bound,
    BoundReport,
    _is_tree,
    # perfbench/worker.py profiles the certifiers under this name
    certify_at as _certify_at,
    tree_star_exclusive_upper,
    w_bounds,
    w_clique_bounds,
    w_star_upper,
)
from .graphs import (
    PatternGraph,
    SimpleGraph,
    edge_count,
    edge_table,
    enumerate_copies,
    pair_ids,
)
from .mapping import EdgeMapping, MappingClass, admissible_images

# Largest host the engine accepts per class without a budget.  The
# moved-clear class has the smallest pools and stretches one vertex further.
ENVELOPE = {"all": 6, "overlap_le_1": 6, "disjoint": 7, "fixed_or_strong": 6}

# Flag on results whose reading of the support capacity is our own; the
# quantity is pinned only through how proofs consume it.
INFERRED_CAPACITY = "support-maximum reading of the capacity"


@dataclass(frozen=True)
class AvoidanceSpec:
    """What to avoid: (relation, pattern) pairs over mappings of K_n.

    Patterns larger than the host are dropped by the engine (they cannot
    occur).  Relations are the keys of ``detect.FINDERS``.  Edgeless
    patterns are refused: every copy of one holds in every relation.
    """

    n: int
    klass: MappingClass
    avoid: tuple[tuple[str, PatternGraph], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one vertex")
        object.__setattr__(self, "avoid", tuple(self.avoid))
        for rel, P in self.avoid:
            if rel not in detect.RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            if not isinstance(P, PatternGraph):
                raise TypeError("avoid entries take PatternGraph patterns")
            if P.m == 0:
                raise ValueError("avoided patterns need at least one edge")


@dataclass(frozen=True)
class SearchOptions:
    """``budget`` is a hard limit in seconds, or None for none; ``workers``
    is how many processes may walk at once."""

    budget: float | None = None
    workers: int = 1

    def __post_init__(self):
        # a float or a bool would pass the bound and fail only once a pool starts
        if isinstance(self.workers, bool) or not isinstance(self.workers, int):
            raise ValueError(f"workers must be an int, not {self.workers!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, not {self.workers}")


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0
    table_time: float = 0.0  # seconds building the tables; a warm build only composes them

    def bump(self, rule: str) -> None:
        self.prunes[rule] = self.prunes.get(rule, 0) + 1

    def merge(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.table_time += other.table_time
        for rule, cnt in other.prunes.items():
            self.prunes[rule] = self.prunes.get(rule, 0) + cnt


@dataclass(frozen=True)
class SearchOutcome:
    """Verdict of one avoidance search.

    WITNESS carries a mapping realizing the avoidance; EXHAUSTED means the
    tree was walked to the end without one; TIMEOUT means the budget ran
    out first and says nothing about existence.  An objective walk ends
    with the best witness it found, so its TIMEOUT may carry one too.
    """

    verdict: str
    witness: EdgeMapping | None
    stats: SearchStats

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else list(self.witness.images),
            "nodes": self.stats.nodes,
            "prunes": dict(sorted(self.stats.prunes.items())),
            "wall_time": round(self.stats.wall_time, 6),
            "table_time": round(self.stats.table_time, 6),
        }


class _Timeout(Exception):
    pass


@lru_cache(maxsize=4)
def _edge_perms(n: int) -> tuple[tuple[int, ...], ...]:
    """The stabilizer of edge 0 = {0, 1}: the 2·(n − 2)! vertex
    permutations that map {0, 1} to itself, in lexicographic order, as
    permutations of edge ids.  The walk's depth 0 fixes edge 0, so it needs
    no other permutation.  Below n = 2 it is the one empty permutation."""
    if n < 2:
        return ((),)
    ids = pair_ids(n)
    rows = [ids[u * n : (u + 1) * n] for u in range(n)]
    pairs = edge_table(n)[0]
    stab = (h + rest for h in ((0, 1), (1, 0)) for rest in permutations(range(2, n)))
    return tuple(tuple(rows[s[u]][s[v]] for u, v in pairs) for s in stab)


@lru_cache(maxsize=4)
def _symmetry_masks(perms: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per edge e, ``fix[e]``, the bitmask of the j with perms[j][e] = e, and
    ``lower[e]``, that of the j with perms[j][e] < e.  A group held as a
    bitmask over ``perms`` narrows to the permutations fixing e with one
    AND, and some permutation in it sends e lower when it meets
    ``lower[e]``."""
    fix, lower = [], []
    for e, images in enumerate(zip(*perms)):
        # bit j of the int is the character at position -1 - j
        fix.append(int("".join("1" if y == e else "0" for y in reversed(images)), 2))
        lower.append(int("".join("1" if y < e else "0" for y in reversed(images)), 2))
    return tuple(fix), tuple(lower)


@lru_cache(maxsize=16)
def _stars(n: int) -> tuple[int, ...]:
    """Per vertex of K_n, the edges at it, read off ``edge_table``."""
    vmasks = edge_table(n)[1]
    return tuple(sum(1 << e for e, vm in enumerate(vmasks) if vm >> v & 1) for v in range(n))


def _touching(vertices, n: int) -> int:
    """The edges of K_n at any of ``vertices``."""
    return reduce(or_, map(_stars(n).__getitem__, vertices), 0)


def _edge_rule(images):
    """The kill forms of a relation that reads only an edge's own image: a
    copy through e dies at e when e's image is in ``images(e, n)``."""

    def hits(through, at, n):
        m = edge_count(n)
        for e in range(m):
            s = images(e, n)
            yield [-(s >> x & 1) for x in range(m)]

    return hits, lambda ends, edges, embs, n: [images(f, n) for f in ends]


# Per relation, its kill rule in closed form over one pattern's copies in
# K_n.  By image x, the copies x destroys at an edge e of theirs:
# kill[e][x] = through[e] & row[x], row being the e-th row that
# hits(through, at, n) yields and -1 every copy; a free or exclusive copy
# dies by a row that does not depend on e, so every edge shares one.  By
# copy, from the copies' last edges, edge masks and embeddings, the images
# that destroy it at its last edge: its column of that edge's row.
_KILLS = {
    "free": (
        lambda through, at, n: [through] * len(through),
        lambda ends, edges, embs, n: edges,
    ),
    "exclusive": (
        lambda through, at, n: [[at[u] | at[w] for u, w in edge_table(n)[0]]] * len(through),
        lambda ends, edges, embs, n: [_touching(emb, n) for emb in embs],
    ),
    "fixed": _edge_rule(lambda e, n: (1 << edge_count(n)) - 1 ^ 1 << e),
    "shifted": _edge_rule(lambda e, n: 1 << e),
    "strong_shifted": _edge_rule(lambda e, n: _touching(edge_table(n)[0][e], n)),
}


@lru_cache(maxsize=64)
def _copy_table(rel: str, P: SimpleGraph, n: int) -> tuple[tuple[int, ...], ...]:
    """The copies of P in K_n as engines read them under ``rel``, numbered
    from 0 in ``enumerate_copies`` order, built once per process and never
    written to: per edge, the copies through it, those whose second-to-last
    edge it is and the images its one-edge copies allow; per vertex, the
    copies at it; per copy, its last edge and its destroyers there."""
    m, ids, pairs = edge_count(n), pair_ids(n), P.pairs()
    through, second, at = [0] * m, [0] * m, [0] * n
    ends, edges, embs = [], [], []
    for emb in enumerate_copies(P, SimpleGraph.complete(n)):
        bit, emask = 1 << len(ends), 0
        for a, b in pairs:
            e = ids[emb[a] * n + emb[b]]
            emask |= 1 << e
            through[e] |= bit
        for v in emb:
            at[v] |= bit
        ends.append(emask.bit_length() - 1)
        rest = emask ^ 1 << ends[-1]
        if rest:
            second[rest.bit_length() - 1] |= bit
        edges.append(emask)
        embs.append(emb)
    # equal destroyers share one int, so the cache holds each value once
    shared: dict[int, int] = {}
    destroyers = tuple(shared.setdefault(d, d) for d in _KILLS[rel][1](ends, edges, embs, n))
    allowed = [(1 << m) - 1] * m
    for f, dm in zip(ends, destroyers) if P.m == 1 else ():
        allowed[f] &= dm  # a one-edge copy constrains its edge from the start
    return (*map(tuple, (through, second, allowed, at, ends)), destroyers)


class _Engine:
    """One depth-first walk.  Edges are assigned strictly in id order, so
    the recursion depth equals the id of the edge being assigned.  All
    avoided copies share one numbering, one set of tables and one mask.
    Each engine composes lists of its own from every pattern's
    ``_copy_table``, which a process builds once per (relation, pattern, n).

    ``deadline`` is a ``time.perf_counter()`` reading; the walk stops with
    TIMEOUT once it has passed.  ``root`` restricts edge 0 to that one
    image, as in one root branch of ``workers``, if edge 0 may take it.
    ``stop`` is that branch's stop signal, an event set once an earlier
    branch has a witness; the walk polls it on the deadline's tick and
    ends as TIMEOUT too, an outcome ``_parallel`` never reads.
    ``hand_off`` is called once, on the walk's first tick, with the root
    images the depth-0 loop has not reached yet, in walk order, each with
    whether the symmetry rule drops it; the loop then ends after the
    current root, so those branches are left to the caller.
    """

    def __init__(
        self,
        spec: AvoidanceSpec,
        deadline: float | None = None,
        objective: int | None = None,
        root: int | None = None,
        stop=None,
        hand_off=None,
    ):
        start = time.perf_counter()
        self.spec = spec
        self.deadline = deadline
        self.stop = stop
        self.hand_off = hand_off
        self.polled = deadline is not None or stop is not None or hand_off is not None
        n = self.n = spec.n
        m = self.m_edges = edge_count(n)
        self.klass = spec.klass
        self.objective = objective
        self.root = root
        self.stats = SearchStats()
        self.witness: EdgeMapping | None = None

        self.assign = [-1] * m
        self.moved = 0  # edges assigned an image other than their own

        self.pools = self._build_pools()
        # per edge, the images its pending copies still allow; carried down
        # the walk, copied on write and restored after each subtree
        self.allowed = [(1 << m) - 1] * m
        # the tables of all avoided copies: each pattern's _copy_table, its
        # bits shifted past the copies numbered before it
        self.kill = [[0] * m for _ in range(m)]  # per edge and image, the copies it destroys
        self.second = [0] * m  # per edge, the copies whose second-to-last edge it is
        self.ends = ()  # per copy, its last edge
        self.destroyers = ()  # per copy, the images that destroy it at its last edge
        through = [0] * m  # per edge, the copies that contain it
        for rel, P in spec.avoid:
            if P.k > n:
                continue
            p_through, p_second, p_allowed, at, ends, destroyers = _copy_table(rel, P.graph, n)
            off, rows = len(self.ends), _KILLS[rel][0](p_through, at, n)
            for e, (te, row) in enumerate(zip(p_through, rows)):
                through[e] |= te << off
                self.second[e] |= p_second[e] << off
                self.allowed[e] &= p_allowed[e]
                self.kill[e] = [k | (te & h) << off for k, h in zip(self.kill[e], row)]
            self.ends += ends
            self.destroyers += destroyers
        self._cut_pools()
        self.floor, self.maxdiff = self._counting_tables(len(self.ends), through, self.kill)
        self.destroyed = 0  # the bitmask of the destroyed copies
        # the symmetry group at depth 0, as a bitmask over the indices of
        # _initial_group's permutations, and the masks that narrow it
        perms = tuple(self._initial_group())
        self.group = (1 << len(perms)) - 1
        self.fix, self.lower = _symmetry_masks(perms)
        self.stats.table_time = time.perf_counter() - start

    # -- construction-time tables ------------------------------------------

    def _build_pools(self) -> list[list[int]]:
        """Each edge's admissible images, split into its own image and the
        moved ones; the own image goes first unless the walk has an
        objective."""
        pools = []
        shifted_first = self.objective is not None
        for e, images in enumerate(admissible_images(self.klass, self.n)):
            moved = [x for x in images if x != e]
            own = [e] if len(moved) < len(images) else []
            pools.append(moved + own if shifted_first else own + moved)
        return pools

    def _cut_pools(self) -> None:
        """Keep, of each edge's pool, the first image of each signature:
        whether it moves the edge, and the copies it destroys there.  Images
        of one signature are interchangeable."""
        for e, (pool, row) in enumerate(zip(self.pools, self.kill)):
            kept = {}
            for x in pool:
                kept.setdefault((x != e, row[x]), x)
            self.pools[e] = list(kept.values())
        self.pool_masks = [sum(1 << x for x in pool) for pool in self.pools]
        self.allowed = [a & p for a, p in zip(self.allowed, self.pool_masks)]

    def _counting_tables(self, total: int, through: list[int], kill: list[list[int]]):
        """``floor[e]``, the fewest copies that can be destroyed once edges
        0..e are assigned if the rest are to destroy every copy left, and
        ``maxdiff`` for the objective walk (see ``_dfs``).  Static
        per-edge maxima are sound even after pools narrow."""
        m = self.m_edges
        moved_only = self.objective is not None
        # the most copies through e that one image destroys, counting only
        # moved images on the objective walk
        best = [
            max(
                (kill[e][x].bit_count() for x in self.pools[e] if not (moved_only and x == e)),
                default=0,
            )
            for e in range(m)
        ]
        maxdiff = 0
        if moved_only:
            maxdiff = max((through[e].bit_count() - best[e] for e in range(m)), default=0)
        floor = [0] * m
        later = 0
        for e in range(m - 1, -1, -1):
            floor[e] = total - later
            later += best[e]
        return floor, maxdiff

    # -- tree walk -----------------------------------------------------------

    def _tick(self) -> None:
        """The poll on every 1024th node, made after the node's image is
        assigned: the deadline, the stop signal and the one hand-off."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise _Timeout
        if self.stop is not None and self.stop.is_set():
            raise _Timeout
        if self.hand_off is not None:
            hand_off, self.hand_off = self.hand_off, None
            hand_off(self._cut_roots())

    def _leaf(self) -> bool:
        mp = EdgeMapping(self.n, tuple(self.assign))
        if not self.klass.admits(mp):
            raise RuntimeError("engine produced a mapping outside its class")
        hit = detect.find_any(mp, self.spec.avoid)
        if hit is not None:
            raise RuntimeError(f"engine witness contains a {hit.kind} copy of {hit.pattern}")
        self.witness = mp
        if self.objective is None:
            return True
        count = (
            mp.profile.strong_shifted
            if self.klass.kind == "fixed_or_strong"
            else mp.profile.shifted
        )
        if count < self.objective:
            raise RuntimeError("engine witness misses its moved-edge target")
        # branch and bound: only a mapping that moves more can replace it,
        # and none moves more than every edge
        self.objective = count + 1
        return count == self.m_edges

    def _dfs(self, i: int, group: int) -> bool:
        """Walk the subtree below edges 0..i-1, whose symmetry group is the
        bitmask ``group``; return whether the walk should stop there."""
        m = self.m_edges
        if i == m:
            return self._leaf()
        stab = group & self.fix[i]
        moved, destroyed, allowed = self.moved, self.destroyed, self.allowed
        # the images that destroy every intact copy ending at i: a one-edge
        # copy narrowed allowed[i] from the start, any other copy when its
        # second-to-last edge was assigned.  Skipping the pool's others is
        # the one check that enforces the avoided copies.
        pool, here = self.pools[i], allowed[i]
        if i == 0:
            pool = [x for x in pool if here >> x & 1]
            if self.root is not None:
                pool = [self.root] if self.root in pool else []
            # the loop below reads this list as it goes, so _cut_roots
            # ends it after the current root by cutting the rest
            self.roots = pool
            self.root_stab = stab
        stats, prunes, assign = self.stats, self.stats.prunes, self.assign
        fix, lower, polled = self.fix, self.lower, self.polled
        kill, pending_at = self.kill[i], self.second[i]
        ends, destroyers = self.ends, self.destroyers
        floor, maxdiff = self.floor[i], self.maxdiff
        for x in pool:
            if not here >> x & 1:
                continue
            if stab & lower[x]:
                prunes["symmetry"] = prunes.get("symmetry", 0) + 1
                continue
            stats.nodes += 1
            assign[i] = x
            if polled and not stats.nodes & 1023:
                self._tick()
            # x destroys every copy that i completes; copies left with one
            # unassigned edge narrow that edge's images, in a copy of
            # allowed made at the first change
            d = destroyed | kill[x]
            narrowed = allowed
            cause = None
            pending = pending_at & ~d
            while pending:
                low = pending & -pending
                c = low.bit_length() - 1
                f = ends[c]
                after = narrowed[f] & destroyers[c]
                if after != narrowed[f]:
                    if narrowed is allowed:
                        narrowed = allowed[:]
                    narrowed[f] = after
                    if not after:
                        cause = "lookahead"
                        break
                pending ^= low
            if cause is None:
                now_moved = moved + (x != i)
                objective = self.objective  # _leaf raises it
                slack = 0
                if objective is not None:
                    if now_moved + (m - i - 1) < objective:
                        cause = "objective"
                    # fixed images the target still allows, each destroying
                    # up to maxdiff more copies than a moved one
                    slack = max(0, (m - objective) - (i + 1 - now_moved))
                if cause is None and d.bit_count() < floor - slack * maxdiff:
                    cause = "counting"
            if cause is not None:
                prunes[cause] = prunes.get(cause, 0) + 1
                continue
            self.moved, self.destroyed, self.allowed = now_moved, d, narrowed
            found = self._dfs(i + 1, stab & fix[x])
            self.moved, self.destroyed, self.allowed = moved, destroyed, allowed
            if found:
                return True
        return False

    def _dropped(self, stab: int, x: int) -> bool:
        """The symmetry rule: an image that some permutation fixing the
        edges assigned so far, one of the bitmask ``stab``, sends lower is
        covered by that lower one."""
        return stab & self.lower[x] != 0

    def _cut_roots(self) -> list[tuple[int, bool]]:
        """End the depth-0 loop after the current root, which edge 0 holds
        on a tick, and return the root images it would have tried next,
        each with whether the symmetry rule drops it."""
        k = self.roots.index(self.assign[0]) + 1
        later = self.roots[k:]
        del self.roots[k:]
        return [(x, self._dropped(self.root_stab, x)) for x in later]

    def _initial_group(self):
        """The symmetry group at depth 0, as a list of edge-id
        permutations: the stabilizer of edge 0 up to n = 8, and above that
        the identity alone, so no image is dropped by ``symmetry`` there.
        The walk holds a group as a bitmask over this list's indices."""
        if self.n <= 8:
            return list(_edge_perms(self.n))
        return [tuple(range(self.m_edges))]

    def run(self) -> SearchOutcome:
        start = time.perf_counter()
        try:
            self._dfs(0, self.group)
            verdict = "EXHAUSTED" if self.witness is None else "WITNESS"
        except _Timeout:
            verdict = "TIMEOUT"
        self.stats.wall_time = time.perf_counter() - start
        return SearchOutcome(verdict, self.witness, self.stats)


def _check_envelope(spec: AvoidanceSpec, budget: float | None) -> None:
    """Refuse a host above the class's envelope unless a budget, a hard
    deadline, bounds the walk."""
    cap = ENVELOPE[spec.klass.kind]
    if spec.n > cap and budget is None:
        raise ValueError(
            f"n={spec.n} exceeds the {spec.klass.kind} feasibility cap of {cap}; "
            "pass a budget to run anyway"
        )


def _deadline(budget: float | None) -> float | None:
    """The ``time.perf_counter()`` reading at which a budget runs out;
    refuses a budget that is not a finite positive number of seconds."""
    if budget is None:
        return None
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be a finite positive number of seconds, not {budget}")
    return time.perf_counter() + budget


# The running ``_parallel`` call's stop signals, one per handed-off root
# branch, and the shared index of the next branch nobody has claimed; put
# in each pool process by the executor's initializer.
_SHARED: tuple = ((), None)


def _install_shared(stops: tuple, next_root) -> None:
    global _SHARED
    _SHARED = (stops, next_root)


def _walk_branches(spec, deadline, roots, stops, next_root) -> dict[int, SearchOutcome]:
    """Claim root branches one at a time, in walk order, until none is
    left, walk each claimed one, and return their outcomes by root image.
    A branch with a witness stops every later one, so claiming a stopped
    branch ends the loop: all after it are stopped too."""
    done = {}
    while True:
        with next_root.get_lock():
            i = next_root.value
            next_root.value = i + 1
        if i >= len(roots) or stops[i].is_set():
            return done
        out = done[roots[i]] = _Engine(spec, deadline, root=roots[i], stop=stops[i]).run()
        if out.verdict == "WITNESS":
            for later in stops[i + 1 :]:
                later.set()


def _branch_entry(spec, deadline, roots) -> dict[int, SearchOutcome]:
    return _walk_branches(spec, deadline, roots, *_SHARED)


def exists_avoiding(spec: AvoidanceSpec, options: SearchOptions | None = None) -> SearchOutcome:
    """Decide whether some mapping in the class avoids every listed relation.

    Returns WITNESS with a re-validated mapping, EXHAUSTED when the walk
    finished without one, or TIMEOUT when the budget expired.  An empty
    class yields EXHAUSTED with zero nodes: no mapping exists at all, so in
    particular none avoids.  With workers > 1 the walk starts in this
    process as the serial one does; once it reaches its first 1024-node
    tick, the root branches it has not started are claimed one at a time
    by at most ``workers - 1`` more processes and by this one (see
    ``_parallel``), so a walk that ends before that tick starts none.  The
    reported witness is that of the first root branch, in walk order, that
    found one, and the stats cover the branches up to it, or every branch
    when there is none: both are the serial walk's unless an earlier
    branch timed out.  The budget is one deadline, fixed here, that every
    branch honours, so it bounds the whole call with workers too.  No
    child process outlives the call.
    """
    options = options or SearchOptions()
    _check_envelope(spec, options.budget)
    deadline = _deadline(options.budget)
    if spec.klass.is_empty(spec.n):
        return SearchOutcome("EXHAUSTED", None, SearchStats())
    if options.workers > 1 and edge_count(spec.n) > 0:
        return _parallel(spec, options.workers, deadline)
    return _Engine(spec, deadline).run()


def _parallel(spec: AvoidanceSpec, workers: int, deadline: float | None) -> SearchOutcome:
    """The serial walk, which shares its later root branches with
    processes once it has proved long.

    This process walks the root branches in order, as ``_Engine.run``
    does.  At the walk's first 1024-node tick it keeps the current root
    branch and hands every later one over, to be claimed one at a time in
    walk order (``_walk_branches``) by a pool of at most ``workers - 1``
    processes and, once its own branch is done, by this process too (lazy
    task creation: Mohr, Kranz & Halstead, IEEE TPDS 2(3), 1991).  So at
    most ``workers`` processes walk at once, and none sits idle while a
    branch is left unclaimed.  A walk that ends before that tick starts no
    process.  A branch with a witness stops every later one (one
    ``multiprocessing.Event`` each).  Results are read in walk order up to
    the first witness, and a root image that the symmetry rule drops counts
    there as one ``symmetry`` prune: every branch before the witness ran to
    its end or to the deadline, since only an earlier witness stops a
    branch, so the stats are the serial walk's unless a branch timed out.
    The pool is shut down, and any branch still running stopped, before
    this returns or raises.
    """
    start = time.perf_counter()
    later: list[tuple[int, bool]] = []  # the handed-off root images
    live: list[int] = []  # those of them that the symmetry rule keeps
    stops: list = []
    next_root = pool = None
    tasks = []

    def hand_off(roots: list[tuple[int, bool]]) -> None:
        nonlocal next_root, pool
        later.extend(roots)
        live.extend(x for x, dropped in roots if not dropped)
        if not live:
            return
        stops.extend(multiprocessing.Event() for _ in live)
        next_root = multiprocessing.Value("i", 0)
        size = min(workers - 1, len(live))
        pool = ProcessPoolExecutor(
            max_workers=size, initializer=_install_shared, initargs=(tuple(stops), next_root)
        )
        tasks.extend(pool.submit(_branch_entry, spec, deadline, tuple(live)) for _ in range(size))

    try:
        out = _Engine(spec, deadline, hand_off=hand_off).run()
        stats, witness = out.stats, out.witness
        timed_out = out.verdict == "TIMEOUT"
        if witness is None:
            done = {}
            if pool is not None:
                done = _walk_branches(spec, deadline, live, stops, next_root)
                for task in tasks:
                    done.update(task.result())
            for x, dropped in later:
                if dropped:
                    stats.bump("symmetry")
                    continue
                res = done[x]
                stats.merge(res.stats)
                if res.verdict == "WITNESS":
                    witness = res.witness
                    break
                timed_out |= res.verdict == "TIMEOUT"
    finally:
        for stop in stops:
            stop.set()
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    stats.wall_time = time.perf_counter() - start
    if witness is not None:
        return SearchOutcome("WITNESS", witness, stats)
    if timed_out:
        return SearchOutcome("TIMEOUT", None, stats)
    return SearchOutcome("EXHAUSTED", None, stats)


# ---------------------------------------------------------------------------
# shift capacity: the objective walk


@dataclass(frozen=True)
class CapacityReport:
    """Largest avoidance-compatible moved-edge count found for one host."""

    n: int
    pattern: PatternGraph
    relation: str
    value: int
    exact: bool
    witness: EdgeMapping | None
    flags: tuple[str, ...]


def shift_capacity(
    n: int,
    H: PatternGraph,
    exclusive: bool = False,
    budget: float | None = None,
) -> CapacityReport:
    """Most edges a mapping of K_n can move while avoiding a free copy of H.

    The exclusive variant instead counts edges moved clear of both
    endpoints, over mappings that never share exactly one endpoint with
    their image, and avoids exclusive copies.  One objective walk answers
    by branch and bound; its last witness pins the value.  The budget is
    one deadline on that walk: a walk that times out reports the best
    witness so far as an inexact lower bound and says so.  The identity
    mapping moves no edge and avoids every free and exclusive copy, so the
    value is at least 0.
    """
    relation = "exclusive" if exclusive else "free"
    klass = MappingClass("fixed_or_strong" if exclusive else "all")
    spec = AvoidanceSpec(n, klass, ((relation, H),))
    _check_envelope(spec, budget)
    engine = _Engine(spec, _deadline(budget), objective=0)
    out = engine.run()
    exact = out.verdict != "TIMEOUT"
    flags = (INFERRED_CAPACITY,)
    if not exact:
        flags += ("the walk timed out; value is a lower bound",)
    # each witness raised the objective to its moved count plus one
    value = max(engine.objective - 1, 0)
    return CapacityReport(n, H, relation, value, exact, out.witness, flags)


# ---------------------------------------------------------------------------
# parameter assembly


_PARAMETERS = ("m", "m_star", "g", "w", "z")


def _avoidance_form(
    name: str, G: PatternGraph, H: PatternGraph | None, d: int
) -> tuple[MappingClass, tuple[tuple[str, PatternGraph], ...]]:
    if name == "m":
        return MappingClass("all"), (("fixed", G), ("free", H))
    if name == "m_star":
        return MappingClass("fixed_or_strong"), (("fixed", G), ("exclusive", H))
    if name == "g":
        if d not in (0, 1):
            raise ValueError("g takes overlap budget d of 0 or 1")
        kind = "overlap_le_1" if d == 1 else "disjoint"
        return MappingClass(kind), (("free", G),)
    if name == "w":
        return MappingClass("disjoint"), (("exclusive", G),)
    if name == "z":
        # a coloring read as a mapping: fixed edges red, moved edges blue
        return MappingClass("all"), (("fixed", G), ("shifted", H))
    raise ValueError(f"unknown parameter {name!r}")


def _parameter_label(name: str, G: PatternGraph, H: PatternGraph | None, d: int) -> str:
    if name == "g":
        return f"g({G}, d={d})"
    if name == "w":
        return f"w({G})"
    return f"{name}({G}, {H})"


def _valid_witness(
    mapping: EdgeMapping, klass: MappingClass, avoid: tuple[tuple[str, PatternGraph], ...]
) -> bool:
    if mapping.n < 1 or not klass.admits(mapping):
        return False
    return detect.find_any(mapping, avoid) is None


def _construction_thunks(name: str, G: PatternGraph, H: PatternGraph | None, d: int):
    """Witness builders plausibly applicable to the parameter instance.
    Each is built and re-checked by the caller; failures just drop out."""
    thunks = []
    if name == "g":
        t = G.as_matching()
        if t == 2:
            thunks.append(constructions.k4_involution)
        if t == 3:
            thunks.append(constructions.matching_3k2)
        r = G.as_star()
        if r is not None and r >= 2:
            nn = 2 * r - 1
            thunks.append(
                lambda nn=nn, r=r: constructions.euler_partition(
                    SimpleGraph.empty(nn), SimpleGraph.complete(nn), r
                )
            )
    elif name == "w":
        if G.as_star() == 2:
            thunks.append(constructions.pentagon_involution)
        if G.as_matching() == 2:
            thunks.append(constructions.z7_difference)
    elif name in ("m", "m_star") and H is not None:
        r = H.as_star()
        tree = _is_tree(G)
        if name == "m" and H.as_matching() == 2 and tree:
            thunks.append(lambda k=G.k: constructions.star_shift(k))
        if r is not None and r >= 2:
            if G.chi >= 3:
                thunks.append(
                    lambda chi=G.chi, r=r: constructions.chromatic_blocks(chi, r)
                )
            if tree and name == "m":
                for variant in (1, 3, 4):
                    thunks.append(
                        lambda k=G.k, r=r, v=variant: constructions.frobenius_tree_lower(
                            k, r, v
                        )
                    )
            if (
                tree
                and name == "m_star"
                and G.k >= 3
                and G.k % 2 == 1
                and (2 * r - 2) % (G.k - 1) == 0
            ):
                thunks.append(
                    lambda k=G.k, r=r: constructions.cycle_decomp_star_exclusive(k, r)
                )
    return thunks


def _closed_form_uppers(
    name: str, G: PatternGraph, H: PatternGraph | None
) -> list[Bound]:
    out = []
    if name == "w":
        r = G.as_star()
        if r is not None and r >= 2:
            out.append(Bound(w_star_upper(r), "exclusive-star closed form"))
        kk = G.as_complete()
        if kk is not None and kk >= 4:
            rep = w_clique_bounds(kk)
            if rep.upper is not None:
                out.append(rep.upper)
        if G.k >= 4 and G.m >= 1:
            rep = w_bounds(G.k, G.m)
            if rep.upper is not None:
                out.append(rep.upper)
    elif name == "m_star" and H is not None:
        r = H.as_star()
        if r is not None and r >= 2 and _is_tree(G):
            flags = () if G.as_star() is not None else (ASSUMED_TREE_DENSITY,)
            out.append(
                Bound(tree_star_exclusive_upper(G.k, r), "tree-star closed form", flags)
            )
    return out


def compute_parameter(
    name: str,
    G: PatternGraph,
    H: PatternGraph | None = None,
    d: int = 1,
    n_max: int | None = None,
    options: SearchOptions = SearchOptions(budget=60.0),
) -> BoundReport:
    """Bracket a forcing threshold by search, certifiers, and constructions.

    Hosts are scanned upward; a witness (or an empty class, which cannot
    force anything) rules n out, the first exhaustion settles the value
    exactly.  When the scan hits its feasibility cap or budget first, the
    report combines the verified floor with construction witnesses below
    and the least host a certifier clears above.  A witness at n is read as
    the threshold exceeding n, matching how these quantities behave on
    every instance decided here.  Search exactness is preferred even when a
    certifier would close the same value.  Each host's search runs under
    ``options``, 60 s by default; ``SearchOptions()`` lifts the budget.

    Every parameter is one avoidance form (``_avoidance_form``) decided by
    ``exists_avoiding``.  z(G, H), the two-color Ramsey number, is fixed G +
    shifted H over all mappings: read the fixed edges as red and the moved
    ones as blue.  Two things set z apart.  At n = 2 the lone edge of K_2
    cannot move, so it follows the coloring rule instead: K_2 has a good
    coloring unless G and H are both K_2.  Under a budget z scans to host 8,
    past the ``all`` envelope of 6; with none it stops at the envelope.
    """
    if name not in _PARAMETERS:
        raise ValueError(f"unknown parameter {name!r}, expected one of {_PARAMETERS}")
    if name in ("m", "m_star", "z") and H is None:
        raise ValueError(f"parameter {name} needs a second pattern")
    if name in ("g", "w") and H is not None:
        raise ValueError(f"parameter {name} takes a single pattern")

    label = _parameter_label(name, G, H, d)
    klass, avoid = _avoidance_form(name, G, H, d)
    _deadline(options.budget)  # refuse a nonsense budget even if no host is searched

    scan_cap = ENVELOPE[klass.kind]
    if name == "z" and options.budget is not None:
        # hosts 7 and 8 settle classical values such as z(K3, C4) = 7 and
        # z(K3, K4) > 8, and the budget bounds each of them
        scan_cap = 8
    if n_max is not None:
        scan_cap = min(scan_cap, n_max)
    floor = 1
    exact: int | None = None
    for n in range(2, scan_cap + 1):
        if klass.is_empty(n):
            floor = n
            continue
        spec = AvoidanceSpec(n, klass, avoid)
        # K_2's one edge has nowhere to move, so a mapping of K_2 fixes it,
        # but a coloring may paint it blue: that has no red G, and no blue H
        # unless H is K_2 itself, the one pattern with an edge on 2 vertices
        if name == "z" and n == 2 and H.k > 2:
            floor = n
            continue
        out = exists_avoiding(spec, options)
        if out.verdict == "WITNESS":
            floor = n
            continue
        if out.verdict == "EXHAUSTED":
            exact = n
        break

    if exact is not None:
        b = Bound(exact, "exhaustive avoidance search")
        return BoundReport(label, lower=b, upper=b)

    lower = Bound(max(2, floor + 1), "exhaustive avoidance search below")
    for thunk in _construction_thunks(name, G, H, d):
        try:
            res = thunk()
        except (ValueError, RuntimeError):
            continue
        wn = res.mapping.n
        if wn + 1 > lower.value and _valid_witness(res.mapping, klass, avoid):
            lower = Bound(wn + 1, f"construction: {res.provenance} on {wn} vertices")

    upper: Bound | None = None
    cert_cap = n_max if n_max is not None else 64
    for n in range(2, cert_cap + 1):
        hit = _certify_at(name, G, H, d, n)
        if hit is not None:
            upper = Bound(n, hit[0], hit[1])
            break
    for cand in _closed_form_uppers(name, G, H):
        if upper is None or cand.value < upper.value:
            upper = cand

    return BoundReport(label, lower=lower, upper=upper)
