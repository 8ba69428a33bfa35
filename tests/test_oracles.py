import math

import pytest

from edgemaps.bounds import turan_count
from edgemaps.canon import graphs_by_edge_count
from edgemaps.graphs import SimpleGraph, complete, enumerate_copies, make_pattern, mask_bits, matching
from edgemaps.oracles import (
    OracleLimitError,
    count_perfect_matchings,
    ex_bruteforce,
    pair_cover_max,
    supersat_min,
    supersat_table,
)


@pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
def test_perfect_matching_counts(n, count):
    assert count_perfect_matchings(n) == count


def test_perfect_matchings_odd_is_zero():
    assert count_perfect_matchings(5) == 0


def test_ex_matches_turan_for_cliques():
    for n in range(3, 8):
        for r in range(3, min(n, 5) + 1):
            assert ex_bruteforce(n, complete(r)) == turan_count(n, r)


def test_ex_matches_erdos_gallai_for_matchings():
    # largest (t+1)K2-free edge count: max(C(2t+1, 2), C(t, 2) + t(n - t)),
    # valid once the host can hold the matching
    for n in range(4, 8):
        for t in (1, 2):
            if n < 2 * t + 1:
                continue
            expect = max(math.comb(2 * t + 1, 2), math.comb(t, 2) + t * (n - t))
            assert ex_bruteforce(n, matching(t + 1)) == expect


# frozen from the oracle itself; the two cross-checks above guard its engine
FROZEN_EX = [
    ("C4", 6, 7),
    ("K4-K2", 7, 12),
    ("2K2", 6, 5),
]


@pytest.mark.parametrize("spec,n,value", FROZEN_EX)
def test_ex_frozen_values(spec, n, value):
    assert ex_bruteforce(n, make_pattern(spec)) == value


def test_supersat_zero_at_extremal_count():
    K3 = make_pattern("K3")
    for n in (4, 5, 6):
        assert supersat_min(n, turan_count(n, 3), K3) == 0
        assert supersat_min(n, turan_count(n, 3) + 1, K3) >= 1


def test_supersat_frozen_value():
    assert supersat_min(6, 12, make_pattern("K3")) == 8


def test_supersat_table_monotone():
    K3 = make_pattern("K3")
    for n in (4, 5, 6):
        table = supersat_table(n, K3)
        assert len(table) == math.comb(n, 2) + 1
        assert table[0] == 0 and table[-1] == math.comb(n, 3)
        assert all(a <= b for a, b in zip(table, table[1:]))


def test_supersat_table_equals_the_uncapped_enumeration():
    # the capped walk must leave every level's minimum exact
    for spec in ("K3", "P4", "C4", "K1,3", "2K2"):
        H = make_pattern(spec)
        for n in range(8):
            want = tuple(
                min(len(list(enumerate_copies(H, SimpleGraph(n, frozenset(mask_bits(mask))))))
                    for mask in level)
                for level in graphs_by_edge_count(n)
            )
            assert supersat_table(n, H) == want, (spec, n)


def test_pair_cover_matches_closed_form_on_cliques():
    for n in range(4, 9):
        for r in range(4, n + 1):
            assert pair_cover_max(n, complete(r)) == math.comb(n - 3, r - 3)


def test_pair_cover_small_cases():
    assert pair_cover_max(6, make_pattern("K4")) == 3
    assert pair_cover_max(7, make_pattern("K4")) == 4
    assert pair_cover_max(8, make_pattern("K5")) == 10


def test_oracles_refuse_large_hosts():
    with pytest.raises(OracleLimitError):
        ex_bruteforce(10, make_pattern("K3"))
    with pytest.raises(OracleLimitError):
        pair_cover_max(10, make_pattern("K4"))
    with pytest.raises(OracleLimitError):
        supersat_min(10, 20, make_pattern("K3"))


def test_ex_refuses_a_negative_host():
    # edge_count(-1) is 1, so a negative host once read as a real one
    for n in (-1, -2):
        with pytest.raises(ValueError, match="need n >= 0"):
            ex_bruteforce(n, make_pattern("K3"))


def test_supersat_refuses_a_negative_host():
    with pytest.raises(ValueError, match="need n >= 0"):
        supersat_table(-1, make_pattern("K3"))
    with pytest.raises(ValueError, match="need n >= 0"):
        supersat_min(-2, 0, make_pattern("K3"))


def test_pair_cover_refuses_a_negative_host():
    with pytest.raises(ValueError, match="need n >= 0"):
        pair_cover_max(-1, make_pattern("K3"))
