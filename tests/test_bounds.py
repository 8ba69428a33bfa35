import math
from fractions import Fraction

import pytest

from edgemaps.bounds import (
    OracleLimitError,
    _ex_for,
    ex_value,
    exclusive_matching_certify,
    exclusive_star_certify,
    free_star_certify,
    g_degree_check,
    g_matching_certify,
    g_strong_sound,
    k4_supersat_lb,
    m_counting_certify,
    matching_turan,
    min_copy_count_lb,
    pair_cover_value,
    shifted_budget_certify,
    star_turan,
    tree_star_exclusive_upper,
    triangle_supersat_lb,
    turan_count,
    w_bounds,
    w_clique_bounds,
    w_star_upper,
)
from edgemaps.graphs import PatternGraph, SimpleGraph, complete, make_pattern, matching, star
from edgemaps.oracles import ex_bruteforce, supersat_min


def test_turan_count_values():
    assert turan_count(6, 3) == 9
    assert turan_count(8, 4) == 21
    assert turan_count(5, 2) == 0
    for n in range(2, 8):
        assert turan_count(n, 3) == n * n // 4


def test_matching_and_star_turan_match_oracle():
    for n in range(4, 8):
        assert matching_turan(n, 2) == ex_bruteforce(n, make_pattern("2K2"))
        assert star_turan(n, 2) == ex_bruteforce(n, make_pattern("K1,2"))
        assert star_turan(n, 3) == ex_bruteforce(n, make_pattern("K1,3"))


def test_ex_value_uses_oracle_on_small_hosts():
    got = ex_value(7, make_pattern("K4-K2"))
    assert got.value == 12
    assert got.source == "oracle"
    assert got.flags == ()


def test_ex_value_every_n_closed_forms_equal_oracle():
    # patterns larger than the host included: K9 and 5K2 never fit in K8,
    # and n < 2s leaves sK2 with the whole clique
    families = [
        ([complete(r) for r in range(2, 10)], "complete-pattern closed form"),
        ([matching(s) for s in range(1, 6)], "matching closed form"),
        ([star(r) for r in range(1, 8)], "star closed form"),
    ]
    for patterns, source in families:
        for P in patterns:
            for n in range(1, 9):
                got = ex_value(n, P)
                assert got.value == ex_bruteforce(n, P), (P, n)
                # K2, K1,1 and 1K2 are one graph, read as the complete one
                assert got.source == (source if P.m > 1 else "complete-pattern closed form")
                assert got.flags == ()
    assert ex_value(6, make_pattern("K3")).source == "complete-pattern closed form"
    assert ex_value(6, make_pattern("C4")).source == "oracle"


def test_ex_value_closed_forms_beyond_oracle():
    assert ex_value(12, make_pattern("K4")).value == turan_count(12, 4)
    assert ex_value(12, make_pattern("2K2")).value == matching_turan(12, 2)
    assert ex_value(12, make_pattern("K1,3")).value == star_turan(12, 3)
    assert ex_value(12, make_pattern("C5")).value == 36  # bipartite max
    # K4-K2 is K_{t+2} less a t-clique's edges with t = 2, half-square from 6t
    near = ex_value(12, make_pattern("K4-K2"))
    assert (near.value, near.source) == (36, "half-square closed form (host large enough)")
    with pytest.raises(OracleLimitError):
        ex_value(11, make_pattern("K4-K2"))


def test_ex_value_tree_density_is_opt_in():
    with pytest.raises(OracleLimitError):
        ex_value(10, make_pattern("P4"))
    assumed = _ex_for(10, make_pattern("P4"))
    assert assumed.value == Fraction(10)
    assert any("assumed" in fl for fl in assumed.flags)
    # argument errors are not a missing source
    assert _ex_for(-1, make_pattern("P4")) is None
    assert _ex_for(10, PatternGraph(SimpleGraph.empty(1))) is None


def test_certifiers_reject_floats():
    with pytest.raises(TypeError):
        m_counting_certify(8, 10.5, make_pattern("K3"))
    with pytest.raises(TypeError):
        exclusive_star_certify(8, 10.5, 2)


def test_triangle_supersat_sound_vs_oracle():
    K3 = make_pattern("K3")
    for n in range(3, 7):
        for m in range(math.comb(n, 2) + 1):
            assert triangle_supersat_lb(n, m) <= supersat_min(n, m, K3)


def test_k4_supersat_nonnegative_and_growing():
    vals = [k4_supersat_lb(8, h) for h in range(0, 5)]
    assert all(v >= 0 for v in vals)
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_min_copy_count_lb_sound_small():
    K3 = make_pattern("K3")
    for n in (4, 5, 6):
        for m in range(math.comb(n, 2) + 1):
            assert min_copy_count_lb(n, m, K3) <= supersat_min(n, m, K3)


def test_pair_cover_value_delegates_then_extends():
    K4 = make_pattern("K4")
    assert pair_cover_value(7, K4) == 4
    # beyond the oracle limit the clique closed form takes over
    assert pair_cover_value(12, make_pattern("K5")) == math.comb(9, 2)


def test_degree_profile_and_g_degree_check():
    P3 = make_pattern("K1,2")
    assert g_degree_check(P3, 4)
    assert not g_degree_check(P3, 3)
    assert g_degree_check(make_pattern("2K2"), 5)
    assert not g_degree_check(make_pattern("2K2"), 4)


def test_g_matching_certify_threshold():
    # 3K2 closes at n=7: 63 destroyed copies cannot cover all 105
    assert g_matching_certify(3, 7)
    assert not g_matching_certify(3, 6)
    assert g_matching_certify(2, 5)
    assert not g_matching_certify(2, 4)
    with pytest.raises(ValueError):
        g_matching_certify(1, 3)


def test_g_strong_soundness_gate():
    # a 3-vertex pattern is sound on every host it fits
    assert g_strong_sound(3, 2, 6)
    # larger cliques need headroom between density and host size
    assert g_strong_sound(4, 2, 16)  # 2m(k-2) = 8 < 14
    assert not g_strong_sound(4, 4, 10)  # 2m(k-2) = 16 >= n-2
    with pytest.raises(ValueError):
        g_strong_sound(4, 2, 3)


def test_free_star_certify_known_case():
    exg = ex_value(7, make_pattern("K4-K2"))
    assert exg.value == 12
    assert free_star_certify(7, exg.value, 2)
    assert not free_star_certify(6, ex_value(6, make_pattern("K4-K2")).value, 2)


def test_m_counting_certify_tree_triangle():
    for k in (3, 4, 5):
        n = 2 * k + 2
        dens = Fraction((k - 2) * n, 2)
        assert m_counting_certify(n, dens, make_pattern("K3"))


def test_shifted_budget_certify_monotone():
    # ex(n, 2K2) = n - 1 from n = 4 on (the oracle agrees at 8 and 9); with
    # budget n the certificate fails on K4 and holds from then on
    assert (matching_turan(8, 2), matching_turan(9, 2)) == (7, 8)
    assert shifted_budget_certify(8, 7, 8)
    assert shifted_budget_certify(9, 8, 9)
    assert not shifted_budget_certify(4, 3, 4)


def test_exclusive_star_certify_first_fire():
    for k, r in ((3, 2), (4, 2), (5, 3)):
        target = k + 5 * r - 5
        for n in range(max(k, 5 * r - 4), target + 1):
            dens = Fraction((k - 2) * n, 2)
            fired = exclusive_star_certify(n, dens, r)
            assert fired == (n >= target)
        assert tree_star_exclusive_upper(k, r) == target


def test_exclusive_matching_certify_small():
    # 21 - ex(7, 2K2) = 15 moved edges hold no six disjoint ones on 7 vertices
    ex7 = matching_turan(7, 2)
    assert ex7 == 6
    assert not exclusive_matching_certify(7, ex7, 2)


def test_w_closed_forms():
    for r in range(2, 8):
        assert w_star_upper(r) == 5 * r - 3
    for k in range(4, 8):
        rep = w_clique_bounds(k)
        assert rep.upper.value == k * (k - 1) * (k - 2) + 4 - k // 2
        assert rep.lower.value <= rep.upper.value
    for k, m in ((4, 3), (5, 4), (4, 6)):
        rep = w_bounds(k, m)
        assert rep.upper.value == 2 * m * (k - 2) + 2
    # no graph on k vertices has more than C(k, 2) edges, or none
    for k, m in ((4, 7), (5, 11), (4, 0)):
        with pytest.raises(ValueError, match="edges of K"):
            w_bounds(k, m)


def test_bound_report_status():
    rep = w_clique_bounds(4)
    assert rep.status == "gap"
    assert "asymptotic" in " ".join(rep.lower.flags)
