import itertools
import math

import pytest

from edgemaps.graphs import make_pattern
from edgemaps.mapping import MappingClass
from edgemaps.search import (
    ENVELOPE,
    AvoidanceSpec,
    SearchOptions,
    compute_parameter,
    exists_avoiding,
    monte_carlo_w_witness,
    shift_capacity,
    w_p3_exact_cover,
    z_via_coloring,
)

OV1 = MappingClass("overlap_le_1")
DISJ = MappingClass("disjoint")
ALL = MappingClass("all")

FREE_2K2 = (("free", make_pattern("2K2")),)
FREE_P3 = (("free", make_pattern("K1,2")),)
EXCL_P3 = (("exclusive", make_pattern("K1,2")),)


def test_spec_validation():
    with pytest.raises(ValueError):
        AvoidanceSpec(4, OV1, (("sideways", make_pattern("K2")),))
    # degenerate hosts are legal: no edges means nothing to avoid
    tiny = exists_avoiding(AvoidanceSpec(1, OV1, FREE_2K2))
    assert tiny.verdict == "WITNESS" and tiny.witness.images == ()


def test_envelope_guard():
    avoid_fixed_edge = (("fixed", make_pattern("K2")),)
    n = ENVELOPE["all"] + 1
    with pytest.raises(ValueError):
        exists_avoiding(AvoidanceSpec(n, ALL, avoid_fixed_edge))
    # force opens the gate; any fixed-point-free mapping settles it instantly
    out = exists_avoiding(
        AvoidanceSpec(n, ALL, avoid_fixed_edge),
        SearchOptions(force=True, budget=5.0),
    )
    assert out.verdict == "WITNESS"


def test_matching_threshold_scan():
    # n = 4 still dodges a free 2K2; n = 5 cannot
    out4 = exists_avoiding(AvoidanceSpec(4, OV1, FREE_2K2))
    assert out4.verdict == "WITNESS"
    assert out4.witness.images == (1, 0, 0, 2, 1, 0)
    out5 = exists_avoiding(AvoidanceSpec(5, OV1, FREE_2K2))
    assert out5.verdict == "EXHAUSTED"
    assert out5.witness is None


def test_single_edge_thresholds():
    # overlap <= 1 forbids fixed points, so nonempty classes force a free edge
    out = exists_avoiding(AvoidanceSpec(3, OV1, (("free", make_pattern("K2")),)))
    assert out.verdict == "EXHAUSTED"
    # with disjointness the class is empty through n = 3
    assert DISJ.is_empty(3)
    out4 = exists_avoiding(AvoidanceSpec(4, DISJ, (("free", make_pattern("K2")),)))
    assert out4.verdict == "EXHAUSTED"


def test_empty_class_reports_exhausted_without_search():
    out = exists_avoiding(AvoidanceSpec(3, DISJ, FREE_2K2))
    assert out.verdict == "EXHAUSTED"
    assert out.stats.nodes == 0


TOGGLES = list(itertools.product((False, True), repeat=4))


@pytest.mark.parametrize("sym,dest,count,dsh", TOGGLES)
def test_devices_never_change_the_answer(sym, dest, count, dsh):
    opts = SearchOptions(
        symmetry=sym,
        destroyer_propagation=dest,
        counting_prune=count,
        shifted_degree_prune=dsh,
    )
    out4 = exists_avoiding(AvoidanceSpec(4, OV1, FREE_2K2), opts)
    assert out4.verdict == "WITNESS"
    assert out4.witness.images == (1, 0, 0, 2, 1, 0)
    out5 = exists_avoiding(AvoidanceSpec(5, OV1, FREE_2K2), opts)
    assert out5.verdict == "EXHAUSTED"
    mixed = exists_avoiding(
        AvoidanceSpec(4, ALL, (("fixed", make_pattern("K1,2")),) + FREE_2K2), opts
    )
    assert mixed.verdict == "WITNESS"


def test_parallel_workers_agree_with_serial():
    spec = AvoidanceSpec(5, OV1, FREE_2K2)
    serial = exists_avoiding(spec)
    parallel = exists_avoiding(spec, SearchOptions(workers=2))
    assert serial.verdict == parallel.verdict == "EXHAUSTED"
    spec4 = AvoidanceSpec(4, OV1, FREE_2K2)
    assert exists_avoiding(spec4, SearchOptions(workers=2)).verdict == "WITNESS"


def test_stats_and_outcome_shape():
    out = exists_avoiding(AvoidanceSpec(4, OV1, FREE_2K2))
    d = out.as_dict()
    assert d["verdict"] == "WITNESS"
    assert d["nodes"] == out.stats.nodes
    assert isinstance(d["prunes"], dict)
    assert d["witness"] == list(out.witness.images)


def test_exact_cover_route():
    out5 = w_p3_exact_cover(5)
    assert out5.verdict == "WITNESS"
    assert out5.witness.images == (5, 4, 9, 7, 8, 6, 2, 1, 3, 0)
    out6 = w_p3_exact_cover(6)
    assert out6.verdict == "EXHAUSTED"
    with pytest.raises(ValueError):
        w_p3_exact_cover(7)


def test_triangle_coloring_threshold():
    K3 = make_pattern("K3")
    assert z_via_coloring(K3, K3, 5)
    assert not z_via_coloring(K3, K3, 6)


def test_shift_capacity_known_values():
    assert shift_capacity(4, make_pattern("K2")).value == 0
    rep = shift_capacity(5, make_pattern("2K2"))
    assert rep.value == 7 and rep.exact
    assert rep.scan[-1] == (7, "WITNESS")
    assert all(v == "EXHAUSTED" for _, v in rep.scan[:-1])


def test_monte_carlo_witness_expected_copies():
    rep = monte_carlo_w_witness(make_pattern("K4"), 5, trials=50, seed=0)
    k, m, n = 4, 6, 5
    expect = math.exp(k * math.log(n) - 2 * m * (k - 2) / (n - 2))
    assert rep.expected_copies == pytest.approx(expect)
    assert rep.conclusive
    assert rep.tried == 1


@pytest.mark.parametrize(
    "name,pattern,d,value",
    [
        ("g", "K2", 0, 4),
        ("g", "K2", 1, 3),
        ("g", "K1,2", 1, 4),
        ("g", "2K2", 1, 5),
    ],
)
def test_compute_parameter_tight_matchings(name, pattern, d, value):
    rep = compute_parameter(name, make_pattern(pattern), d=d)
    assert rep.status == "tight"
    assert rep.lower.value == rep.upper.value == value


def test_compute_parameter_star_exclusive():
    rep = compute_parameter("w", make_pattern("K1,2"))
    assert rep.status == "tight"
    assert rep.lower.value == 6


def test_compute_parameter_triangle_ramsey():
    rep = compute_parameter("z", make_pattern("K3"), make_pattern("K3"))
    assert rep.status == "tight"
    assert rep.lower.value == 6


def test_compute_parameter_free_pair_with_certifier():
    rep = compute_parameter("m", make_pattern("K3"), make_pattern("K1,2"))
    assert rep.status == "tight"
    assert rep.lower.value == 7


def test_compute_parameter_reports_gaps_honestly():
    rep = compute_parameter("w", make_pattern("2K2"), budget_per_n=3.0)
    assert rep.status == "gap"
    assert rep.lower.value == 8
    assert rep.upper.value == 10
    assert "construction" in rep.lower.provenance


def test_compute_parameter_flags_assumed_density():
    rep = compute_parameter("m", make_pattern("P4"), make_pattern("K3"), budget_per_n=3.0)
    assert rep.upper is not None
    assert any("assumed" in fl for fl in rep.upper.flags)


def test_compute_parameter_rejects_unknown_name():
    with pytest.raises(ValueError):
        compute_parameter("q", make_pattern("K3"))
