"""Edge mappings f : E(K_n) -> E(K_n) and the overlap classes they live in.

Edges are colex ids (see ``graphs``).  A mapping is total: every edge of the
host clique gets an image edge, loops excluded by construction.

Overlap classes restrict |e ∩ f(e)|:

* ``all``              no restriction
* ``overlap_le_1``     every edge shares at most one endpoint with its image
* ``disjoint``         every edge is disjoint from its image
* ``fixed_or_strong``  no edge shares exactly one endpoint with its image
"""
from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .graphs import checked_edge_id, edge_count, edge_pair, edge_table, edges_overlap


class ContractError(RuntimeError):
    """An input violated a documented precondition of an operation."""


@dataclass(frozen=True)
class EdgeMapping:
    """A total map from the edges of K_n to the edges of K_n.

    ``relation_graphs`` caches three graphs on 0..n-1, built in one pass
    over ``images``: the fixed edges (f(e) = e), the moved ones (f(e) != e)
    and the moved-clear ones (f(e) shares no endpoint with e), in that
    order.  Each graph is packed into one int whose bits v*n .. v*n+n-1 hold
    row v, the neighbours of vertex v: ``graph >> v * n & (1 << n) - 1``.
    """

    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        m = edge_count(self.n)
        if len(self.images) != m:
            raise ValueError(f"expected {m} images for n={self.n}, got {len(self.images)}")
        for e, img in enumerate(self.images):
            if not 0 <= img < m:
                raise ValueError(f"image {img} of edge {e} out of range")

    @classmethod
    def identity(cls, n: int) -> "EdgeMapping":
        return cls(n, tuple(range(edge_count(n))))

    @classmethod
    def from_pairs(cls, n: int, assoc) -> "EdgeMapping":
        """Build from ((u, v), (x, y)) pairs; every edge must appear exactly once."""
        images = [-1] * edge_count(n)
        for (u, v), (x, y) in assoc:
            e = checked_edge_id(n, u, v)
            if images[e] != -1:
                raise ValueError(f"edge ({u}, {v}) mapped twice")
            images[e] = checked_edge_id(n, x, y)
        missing = images.count(-1)
        if missing:
            raise ValueError(f"{missing} edges have no image")
        return cls(n, tuple(images))

    def __call__(self, e: int) -> int:
        return self.images[e]

    @cached_property
    def relation_graphs(self) -> tuple[int, int, int]:
        n = self.n
        pairs, vmask = edge_table(n)
        fixed = moved = clear = 0
        for e, img in enumerate(self.images):
            u, v = pairs[e]
            bits = 1 << u * n + v | 1 << v * n + u
            if img == e:
                fixed |= bits
            else:
                moved |= bits
                if not vmask[e] & vmask[img]:
                    clear |= bits
        return fixed, moved, clear

    @cached_property
    def profile(self) -> "ShiftProfile":
        fixed, moved, clear = (g.bit_count() // 2 for g in self.relation_graphs)
        return ShiftProfile(fixed=fixed, shifted=moved, strong_shifted=clear)


@dataclass(frozen=True)
class ShiftProfile:
    """How many edges are fixed / moved / moved clear of both endpoints."""

    fixed: int
    shifted: int
    strong_shifted: int


@dataclass(frozen=True)
class MappingClass:
    """An overlap-class restriction on mappings of K_n.

    ``kind`` is one of all / overlap_le_1 / disjoint / fixed_or_strong; each
    is a rule on every edge and its image separately.
    """

    kind: str

    KINDS = ("all", "overlap_le_1", "disjoint", "fixed_or_strong")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown mapping class {self.kind!r}")

    def admits(self, mapping: EdgeMapping) -> bool:
        return all(self.value_ok(e, img) for e, img in enumerate(mapping.images))

    def value_ok(self, e: int, img: int) -> bool:
        """Whether the class lets edge ``e`` map to ``img``."""
        if self.kind == "all":
            return True
        ov = edges_overlap(e, img)
        if self.kind == "overlap_le_1":
            return ov <= 1
        if self.kind == "disjoint":
            return ov == 0
        return ov != 1

    def is_empty(self, n: int) -> bool:
        """Whether no mapping of K_n satisfies the restriction.

        The class is a rule on each edge separately, so it is empty exactly
        when some edge has no admissible image.  For n <= 1 there are no
        edges, so the empty mapping satisfies anything.
        """
        return not all(admissible_images(self, n))


@lru_cache(maxsize=64)
def admissible_images(cls: MappingClass | None, n: int) -> tuple[Sequence[int], ...]:
    """Per edge of K_n, the images ``cls`` admits, in ascending order.

    Built once per (class, n) from ``value_ok``, which stays the definition.
    ``None`` and the ``all`` class admit every image, so all their edges
    share one ``range``.
    """
    m = edge_count(n)
    if cls is None or cls.kind == "all":
        return (range(m),) * m
    return tuple(tuple(x for x in range(m) if cls.value_ok(e, x)) for e in range(m))


def random_mapping(n: int, rng: random.Random, cls: MappingClass | None = None) -> EdgeMapping:
    """Uniform over per-edge admissible images: one ``rng.choice`` per edge,
    in edge order, over that edge's row of the cached ``admissible_images``
    table."""
    images = []
    for e, pool in enumerate(admissible_images(cls, n)):
        if not pool:
            raise ValueError(f"no admissible image for edge {e} at n={n}")
        images.append(rng.choice(pool))
    return EdgeMapping(n, tuple(images))


def format_mapping(mapping: EdgeMapping) -> str:
    """Text form: header line ``n=<n>``, then one ``u v -> x y`` line per edge."""
    lines = [f"n={mapping.n}"]
    for e in range(len(mapping.images)):
        u, v = edge_pair(e)
        x, y = edge_pair(mapping.images[e])
        lines.append(f"{u} {v} -> {x} {y}")
    return "\n".join(lines) + "\n"


def parse_mapping(text: str) -> EdgeMapping:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("mapping text must start with an n=<count> line")
    n = int(lines[0][2:])
    assoc = []
    for ln in lines[1:]:
        lhs, _, rhs = ln.partition("->")
        if not rhs:
            raise ValueError(f"bad mapping line {ln!r}")
        u, v = map(int, lhs.split())
        x, y = map(int, rhs.split())
        assoc.append(((u, v), (x, y)))
    return EdgeMapping.from_pairs(n, assoc)
