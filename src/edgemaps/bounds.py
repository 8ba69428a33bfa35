"""Closed-form bound values and one-sided sufficiency certifiers.

Every certifier here is sound in exactly one direction: True certifies the
stated inequality for the parameter, False says nothing.  Certifier
arithmetic is exact (ints and Fractions; floats are rejected).  The only
real-valued outputs are the asymptotic lower bounds, and those are flagged
rather than certified.  ``CERTIFIERS`` at the end lists, per parameter and
in precedence order, which certifier asserts "parameter <= n" on a pattern
pair; the reproduce cross-check and ``edgemaps bound certify`` read it, and
``certify_at``, which the search's parameter brackets and that command ask
which entry wins at a host, is the one reader of its precedence.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import oracles
from .graphs import PatternGraph
from .oracles import OracleLimitError

Exact = int | Fraction

ASYMPTOTIC = "asymptotic, not certified"
ASSUMED_TREE_DENSITY = "tree density assumed"
NATURAL_LOG = "natural log assumed"


def _exact(x, what: str = "value") -> Exact:
    """Certifiers compare counts; a float here would launder rounding error
    into a proof, so reject it outright."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"{what} must be an int or Fraction, got {type(x).__name__}")
    return x


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Bound:
    """One side of a two-sided estimate, with where it came from."""

    value: Exact | float
    provenance: str
    flags: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return ASYMPTOTIC not in self.flags

    def as_dict(self) -> dict:
        v = self.value
        if isinstance(v, Fraction):
            v = str(v)
        return {"value": v, "provenance": self.provenance, "flags": list(self.flags)}


@dataclass(frozen=True)
class BoundReport:
    """Lower/upper estimate pair for one parameter instance.

    ``parameter`` is a display string such as ``"m(P4, K3)"``.  At least one
    side must be present, and a certified lower bound may never exceed the
    upper bound.
    """

    parameter: str
    lower: Bound | None = None
    upper: Bound | None = None

    def __post_init__(self) -> None:
        if self.lower is None and self.upper is None:
            raise ValueError("a report needs at least one bound")
        if (
            self.lower is not None
            and self.upper is not None
            and self.lower.certified
            and self.upper.certified
            and self.lower.value > self.upper.value
        ):
            raise ValueError(
                f"lower bound {self.lower.value} exceeds upper bound "
                f"{self.upper.value} for {self.parameter}"
            )

    @property
    def status(self) -> str:
        if self.lower is None or self.upper is None:
            return "partial"
        if (
            self.lower.certified
            and self.upper.certified
            and self.lower.value == self.upper.value
        ):
            return "tight"
        return "gap"

    def as_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "lower": None if self.lower is None else self.lower.as_dict(),
            "upper": None if self.upper is None else self.upper.as_dict(),
            "status": self.status,
        }


# ---------------------------------------------------------------------------
# extremal edge counts


@dataclass(frozen=True)
class ExValue:
    """An extremal edge count together with the source that produced it."""

    value: Exact
    source: str
    flags: tuple[str, ...] = ()


def turan_count(n: int, r: int) -> int:
    """Edge count of the balanced complete (r-1)-partite graph on n vertices,
    which is the largest K_r-free edge count for every n."""
    if r < 2:
        raise ValueError("need r >= 2; forbidding K_1 is vacuous")
    if n < 0:
        raise ValueError("need n >= 0")
    parts = r - 1
    q, rem = divmod(n, parts)
    sizes = [q + 1] * rem + [q] * (parts - rem)
    return comb(n, 2) - sum(comb(s, 2) for s in sizes)


def matching_turan(n: int, s: int) -> int:
    """Largest edge count of an n-vertex graph with no s pairwise disjoint
    edges (exact for every n)."""
    if s < 1:
        raise ValueError("need s >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    if n <= 2 * s - 1:
        return comb(n, 2)
    return max(comb(2 * s - 1, 2), comb(s - 1, 2) + (s - 1) * (n - s + 1))


def star_turan(n: int, r: int) -> int:
    """Largest edge count with maximum degree below r (no r-star)."""
    if r < 1:
        raise ValueError("need r >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    if n <= r:
        return comb(n, 2)
    return (r - 1) * n // 2


def _near_clique_gap(P: PatternGraph) -> int | None:
    """t if P is the complete graph on t+2 vertices minus a t-clique's edges
    (t >= 2; t = 1 is a plain triangle), else None.

    The degree sequence pins the graph: two dominating vertices force every
    other vertex to spend its whole degree 2 on them.
    """
    t = P.k - 2
    if t < 2 or P.m != 2 * t + 1:
        return None
    if P.degseq() != (t + 1, t + 1) + (2,) * t:
        return None
    return t


def _odd_cycle_length(P: PatternGraph) -> int | None:
    """L if P is a cycle of odd length L >= 5, else None."""
    if P.k < 5 or P.k % 2 == 0 or P.m != P.k:
        return None
    if any(d != 2 for d in P.degseq()):
        return None
    if not P.graph.is_connected():
        return None
    return P.k


def ex_value(n: int, P: PatternGraph) -> ExValue:
    """Largest edge count of an n-vertex graph avoiding P, with provenance.

    Source preference: first a closed form that is exact at every n, that
    is Turán's theorem for K_r, Erdős–Gallai for sK2 and the degree bound
    for K1,r; then the exhaustive oracle on small hosts; then a closed form
    that holds only once the host is large enough.  The order is sound
    because the every-n forms equal the oracle wherever both exist (the
    tests check it on n <= 8), so it changes the source, never the value,
    and it spares building the isomorph-free catalogues for those patterns.
    Anything else is refused rather than guessed; the certifiers'
    ``_ex_for`` alone falls back to the tree-density assumption, and flags
    it.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if P.m == 0:
        raise ValueError("pattern needs at least one edge")
    r = P.as_complete()
    if r is not None:
        return ExValue(turan_count(n, r), "complete-pattern closed form")
    s = P.as_matching()
    if s is not None:
        return ExValue(matching_turan(n, s), "matching closed form")
    r = P.as_star()
    if r is not None:
        return ExValue(star_turan(n, r), "star closed form")
    if n <= oracles.EX_LIMIT:
        return ExValue(oracles.ex_bruteforce(n, P), "oracle")
    t = _near_clique_gap(P)
    if t is not None and n >= 6 * t:
        return ExValue(n * n // 4, "half-square closed form (host large enough)")
    length = _odd_cycle_length(P)
    if length is not None and n >= 2 * length - 2:
        return ExValue(n * n // 4, "half-square closed form (host large enough)")
    raise OracleLimitError(f"no exact source for the extremal count of {P} at n={n}")


# ---------------------------------------------------------------------------
# supersaturation lower bounds


def triangle_supersat_lb(n: int, m: int) -> Fraction:
    """Lower bound on the least triangle count over n-vertex, m-edge graphs:
    (4m/3)(m/n - n/4).  Exact rational; may be negative (callers clamp)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= m <= comb(n, 2):
        raise ValueError("edge count out of range")
    return Fraction(4 * m, 3) * (Fraction(m, n) - Fraction(n, 4))


def k4_supersat_lb(n: int, h: int) -> Fraction:
    """Lower bound on the least K4 count over n-vertex, h-edge graphs:
    h(4h - n^2)(3h - n^2) / (6 n^2).  Exact rational; may be negative."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= h <= comb(n, 2):
        raise ValueError("edge count out of range")
    return Fraction(h * (4 * h - n * n) * (3 * h - n * n), 6 * n * n)


def min_copy_count_lb(n: int, m: int, H: PatternGraph) -> Exact:
    """Best available lower bound on the number of H-copies forced by m edges
    on n vertices: the exact oracle when the host is small, the closed-form
    bounds for triangles and 4-cliques beyond it, refusal otherwise."""
    if n <= oracles.FULL_CATALOGUE_LIMIT:
        return oracles.supersat_min(n, m, H)
    r = H.as_complete()
    if r == 3:
        return triangle_supersat_lb(n, m)
    if r == 4:
        return k4_supersat_lb(n, m)
    raise OracleLimitError(
        f"no copy-count lower bound for {H} at n={n} beyond the oracle range"
    )


def pair_cover_value(n: int, H: PatternGraph) -> int:
    """Largest number of H-copies through one fixed pair of distinct edges:
    oracle on small hosts, closed form for complete patterns, else refusal."""
    if n <= oracles.PAIR_COVER_LIMIT:
        return oracles.pair_cover_max(n, H)
    r = H.as_complete()
    if r is not None:
        # Two edges on three vertices leave r-3 free slots; a disjoint pair
        # only does worse.
        return comb(n - 3, r - 3) if r >= 3 else 0
    raise OracleLimitError(
        f"no pair-cover value for {H} at n={n} beyond the oracle range"
    )


# ---------------------------------------------------------------------------
# degree profile and the free-copy degree test


def g_degree_check(G: PatternGraph, n: int) -> bool:
    """True certifies that every mapping moving each edge to a distinct edge
    sharing at most one endpoint leaves a free copy of G on n vertices.

    The test is 4*C(m,2) + (n-7)*P < (n-2)(n-3), where P counts the pairs
    of pattern edges sharing a vertex: each copy that dies needs an edge
    pair inside it, and the pairs cannot cover all copies once the
    inequality holds.
    """
    if n < G.k:
        raise ValueError("pattern does not fit in the host")
    if G.m < 2:
        raise ValueError("need at least two edges to form a pair")
    P = sum(comb(d, 2) for d in G.degseq())
    return 4 * comb(G.m, 2) + (n - 7) * P < (n - 2) * (n - 3)


def g_matching_certify(t: int, n: int) -> bool:
    """True certifies that every mapping with per-edge overlap at most one
    leaves a free t-matching on n vertices.

    Copy counting: K_n holds C(n,2t) * (2t-1)!! matchings of size t.  Inside
    a matching, a dying edge e needs its image disjoint from e and inside
    the copy, so each host edge kills at most C(n-4,2t-4) * (2t-5)!! copies.
    Valid only when every edge moves with overlap at most one; a fixed edge
    kills every copy through it and the count no longer applies.
    """
    if t < 2:
        raise ValueError("need t >= 2; a single edge is handled directly")
    copies = comb(n, 2 * t) * oracles.count_perfect_matchings(2 * t)
    per_edge = comb(n - 4, 2 * t - 4) * oracles.count_perfect_matchings(2 * t - 4)
    return copies > comb(n, 2) * per_edge


def g_strong_sound(k: int, m: int, n: int) -> bool:
    """True guarantees every mapping moving each edge clear of itself leaves
    a free copy of any k-vertex, m-edge pattern on n vertices.

    For k = 3 the guarantee is structural: every two edges of a 3-vertex
    pattern share an endpoint, and each image avoids both endpoints of its
    edge, so no image lands inside a copy.  For k >= 4 a certificate count
    over (copy, dying edge, touched vertex) triples needs 2m(k-2) < n-2,
    which implies the density inequality 4m(k-3) <= n(n-1)(n-2).

    CAUTION: that density inequality alone does not certify anything when n
    is close to k.  On four vertices the pairing of each edge with its
    complement admits no free path or matching, yet the inequality holds.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    if m < 2:
        raise ValueError("need m >= 2")
    if n < 4:
        raise ValueError("mappings clearing every edge off itself need 4 vertices")
    if n < k:
        raise ValueError("pattern does not fit in the host")
    return k == 3 or 2 * m * (k - 2) < n - 2


# ---------------------------------------------------------------------------
# exclusive-copy interval: w


def w_bounds(k: int, m: int) -> BoundReport:
    """Bounds on the least host size at which every mapping moving each edge
    clear of itself leaves an exclusive copy of some k-vertex, m-edge graph."""
    if k < 4:
        raise ValueError("need k >= 4")
    if not 1 <= m <= math.comb(k, 2):
        raise ValueError(f"need 1 <= m <= {math.comb(k, 2)}, the edges of K{k}")
    upper = Bound(2 * k * m - 4 * m + 2, "closed form")
    lower = None
    if m > 1:
        lower = Bound(
            (1 - 2 / k) * 2 * m / math.log(m),
            "random-mapping first moment, vanishing term dropped",
            flags=(ASYMPTOTIC,),
        )
    return BoundReport(parameter=f"w(k={k},m={m})", lower=lower, upper=upper)


def w_clique_bounds(k: int) -> BoundReport:
    """Bounds for the complete pattern on k vertices."""
    if k < 4:
        raise ValueError("need k >= 4")
    upper = Bound(k * (k - 1) * (k - 2) + 4 - k // 2, "closed form")
    lower = Bound(
        k * k / (3 * math.log(k)),
        "random-mapping first moment",
        flags=(ASYMPTOTIC, NATURAL_LOG),
    )
    return BoundReport(parameter=f"w(K{k})", lower=lower, upper=upper)


def w_star_upper(r: int) -> int:
    """Host size forcing an exclusive r-star under every mapping that moves
    each edge clear of itself: 5r - 3.  Needs r >= 2; the single-edge star
    is forced only on four vertices, above this formula's value."""
    if r < 2:
        raise ValueError("need r >= 2")
    return 5 * r - 3


# ---------------------------------------------------------------------------
# fixed-or-free forcing: m


def free_star_certify(n: int, ex_g, r: int) -> bool:
    """True certifies m(G, K_{1,r}) <= n for any G with ex(n, G) <= ex_g:
    every mapping on n vertices leaves a fixed G or a free r-star.

    Counting: with no fixed G at most ex_g edges are fixed, and each moved
    edge has its image missing one of its endpoints, so the per-vertex
    missed-incidence counts sum past n(r-1) and some vertex hosts r edges
    whose images all avoid it.  Those edges form a free star.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    return comb(n, 2) - _exact(ex_g, "ex_g") > n * (r - 1)


def m_counting_certify(n: int, ex_g, H: PatternGraph) -> bool:
    """True certifies m(G, H) <= n for any G with ex(n, G) <= ex_g, by copy
    counting sound over every possible moved-edge total.

    A mapping with no fixed G moves at least C(n,2) - floor(ex_g) edges.  If
    it also leaves no free H, every H-copy inside the moved-edge graph
    contains some edge together with its image, and one edge pair lies in at
    most pair_cover_value(n, H) copies.  The certificate requires the copy
    count to beat the kill budget for EVERY feasible moved-edge total m,
    not just the minimum: the kill budget m * cover grows with m.
    """
    if H.m < 2:
        raise ValueError("pattern needs at least two edges for pair counting")
    ex_g = _exact(ex_g, "ex_g")
    m0 = comb(n, 2) - math.floor(ex_g)
    if m0 <= 0:
        return False
    cover = pair_cover_value(n, H)
    for m in range(m0, comb(n, 2) + 1):
        if m * cover >= min_copy_count_lb(n, m, H):
            return False
    return True


def shifted_budget_certify(n: int, ex_g, budget) -> bool:
    """True when ex_g + budget < C(n,2).

    ``budget`` is the largest moved-edge count a free-H-avoiding mapping can
    have (or the strong-shifted analogue for exclusive avoidance); callers
    must supply it from a search result or a published value, never a guess.
    With the inequality, a mapping avoiding free H fixes more than ex_g
    edges, forcing the fixed pattern.
    """
    return _exact(ex_g, "ex_g") + _exact(budget, "budget") < comb(n, 2)


# ---------------------------------------------------------------------------
# fixed-or-exclusive forcing: m*


def exclusive_star_certify(n: int, ex_g, r: int) -> bool:
    """True certifies m*(G, K_{1,r}) <= n for any G with ex(n, G) <= ex_g:
    every mapping whose edges are each fixed or moved clear of themselves
    leaves a fixed G or an exclusive r-star.

    Threshold: C(n,2) - ex_g > (5r-5)n/2.  The moved edges at a busy vertex
    form an out-degree-2 conflict digraph, 5-colorable, and a color class of
    size r is an exclusive star.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if n < 0:
        raise ValueError("need n >= 0")
    return comb(n, 2) - _exact(ex_g, "ex_g") > Fraction((5 * r - 5) * n, 2)


def exclusive_matching_certify(n: int, ex_g, t: int) -> bool:
    """True certifies m*(G, tK_2) <= n for any G with ex(n, G) <= ex_g.

    Threshold: C(n,2) - ex_g > ex(n, (5t-4)K_2).  Past it the moved edges
    contain 5t-4 pairwise disjoint ones; their conflict digraph has
    out-degree at most 2, so an independent set of t of them survives with
    every image clear of the chosen vertices.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    return comb(n, 2) - _exact(ex_g, "ex_g") > matching_turan(n, 5 * t - 4)


def tree_star_exclusive_upper(k: int, r: int) -> int:
    """Least n at which exclusive_star_certify fires against the tree
    density assumption ex(n, T) <= (k-2)n/2: exactly k + 5r - 5."""
    if k < 2:
        raise ValueError("need k >= 2")
    if r < 2:
        raise ValueError("need r >= 2")
    return k + 5 * r - 5


# ---------------------------------------------------------------------------
# the certifier registry: which certifier asserts "parameter <= n"

# Flag on bounds that import a pair-avoidance support capacity from
# published tables instead of deriving it here.
EXTERNAL_CAPACITY = "pair-avoidance support capacity assumed from tables"


def _is_tree(G: PatternGraph) -> bool:
    return G.m == G.k - 1 and G.graph.is_connected()


@lru_cache(maxsize=256)
def _ex_for(n: int, P: PatternGraph) -> ExValue | None:
    """Extremal count with provenance, falling back to the density assumption
    ex(n, T) <= (k-2)n/2 for a tree that ``ex_value`` has no source for (the
    flags say when it fired).  Argument errors give None."""
    try:
        return ex_value(n, P)
    except OracleLimitError:
        if _is_tree(P):
            return ExValue(
                Fraction((P.k - 2) * n, 2),
                "tree density assumption",
                flags=(ASSUMED_TREE_DENSITY,),
            )
        return None
    except ValueError:
        return None


def _against_ex(n: int, G: PatternGraph, certify, *args, flags=()):
    """Flags of certify(n, ex(n, G), *args) when it fires, else None."""
    exg = _ex_for(n, G)
    if exg is not None and certify(n, exg.value, *args):
        return exg.flags + flags
    return None


def _matching_count(G, H, n):
    t = G.as_matching()
    return () if t is not None and t >= 2 and g_matching_certify(t, n) else None


def _degree_profile(G, H, n):
    return () if G.m >= 2 and g_degree_check(G, n) else None


def _moved_clear(G, H, n):
    return () if G.k >= 3 and G.m >= 2 and g_strong_sound(G.k, G.m, n) else None


def _free_star(G, H, n):
    r = H.as_star()
    return None if r is None else _against_ex(n, G, free_star_certify, r)


def _copy_counting(G, H, n):
    # a star is the free-star tally's alone
    return None if H.as_star() is not None else _against_ex(n, G, m_counting_certify, H)


def _moved_support(G, H, n):
    if H.as_matching() != 2 or n < 7:
        return None
    return _against_ex(n, G, shifted_budget_certify, n, flags=(EXTERNAL_CAPACITY,))


def _exclusive_star(G, H, n):
    r = H.as_star()
    if r is None or r < 2:
        return None
    return _against_ex(n, G, exclusive_star_certify, r)


def _exclusive_matching(G, H, n):
    t = H.as_matching()
    return None if t is None else _against_ex(n, G, exclusive_matching_certify, t)


@dataclass(frozen=True)
class Certifier:
    """One registry entry: the parameter it bounds (``d`` is g's overlap
    budget, None for m and m_star), its provenance name, and ``check(G, H,
    n)``, which returns the claim's flags when the certifier asserts the
    parameter is at most n and None otherwise.  ``check`` tests its guard
    before it looks up an extremal number."""

    parameter: str
    d: int | None
    name: str
    check: Callable[[PatternGraph, PatternGraph | None, int], tuple[str, ...] | None]

    def fires(self, G: PatternGraph, H: PatternGraph | None, n: int):
        """``check``, reading a refusal (arguments out of range) as silence."""
        try:
            return self.check(G, H, n)
        except ValueError:
            return None


# In precedence order: the first entry of a parameter that fires is the one
# reported.  The names are provenance strings that digests depend on.
CERTIFIERS = (
    Certifier("g", 1, "matching-count certifier", _matching_count),
    Certifier("g", 1, "degree-profile certifier", _degree_profile),
    Certifier("g", 0, "moved-clear counting certifier", _moved_clear),
    Certifier("m", None, "free-star tally certifier", _free_star),
    Certifier("m", None, "copy-counting certifier", _copy_counting),
    Certifier("m", None, "moved-support budget certifier", _moved_support),
    Certifier("m_star", None, "exclusive-star tally certifier", _exclusive_star),
    Certifier("m_star", None, "exclusive-matching count certifier", _exclusive_matching),
)


def certifiers_of(name: str, d: int) -> tuple[Certifier, ...]:
    """The ``CERTIFIERS`` entries of parameter ``name`` (and of overlap
    budget ``d``, for g), in precedence order."""
    return tuple(c for c in CERTIFIERS if c.parameter == name and c.d in (None, d))


def certify_at(
    name: str, G: PatternGraph, H: PatternGraph | None, d: int, n: int
) -> tuple[str, tuple[str, ...]] | None:
    """The name and flags of the first of ``certifiers_of(name, d)`` that
    asserts the parameter is at most n, or None when none does."""
    for c in certifiers_of(name, d):
        flags = c.fires(G, H, n)
        if flags is not None:
            return c.name, flags
    return None
