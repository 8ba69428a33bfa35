"""Acceptance gate: one test per criterion, named so the -v report reads as a
pass/fail line for each.  Each test also prints an ACCEPTANCE line."""

import time

from edgemaps.graphs import make_pattern
from edgemaps.reproduce import MANIFEST, run_all, run_manifest
from edgemaps.search import compute_parameter


def _announce(tag: str) -> None:
    print(f"ACCEPTANCE {tag}: PASS")


def _entry_all_pass(mid: str):
    rec = run_manifest(mid)
    bad = [c for c in rec.claims if c.status != "PASS"]
    assert not bad, [f"{c.claim}: {c.status} ({c.detail})" for c in bad]
    return rec


def test_criterion_1_exact_values_by_search():
    cases = [
        ("g", "K2", None, 0, 4),
        ("g", "K2", None, 1, 3),
        ("g", "K1,2", None, 1, 4),
        ("g", "2K2", None, 1, 5),
        ("g", "3K2", None, 1, 7),
        ("w", "K1,2", None, 1, 6),
        ("z", "K3", "K3", 1, 6),
    ]
    for name, g, h, d, value in cases:
        t0 = time.perf_counter()
        rep = compute_parameter(
            name, make_pattern(g), H=make_pattern(h) if h else None, d=d
        )
        wall = time.perf_counter() - t0
        assert wall < 600, f"{rep.parameter} exceeded the ten-minute budget"
        assert rep.status == "tight", f"{rep.parameter}: {rep.status}"
        assert rep.lower.value == value, f"{rep.parameter}: got {rep.lower.value}"
    _announce("1 exact-values-by-search")


def test_criterion_2_construction_suite_is_fast():
    t0 = time.perf_counter()
    rec = _entry_all_pass("construction-suite")
    wall = time.perf_counter() - t0
    assert len(rec.claims) == 11
    # the whole suite inside the per-case limit is stronger than required
    assert wall < 5.0, f"construction suite took {wall:.1f}s"
    _announce("2 construction-suite")


def test_criterion_3_oracle_domination():
    _entry_all_pass("oracle-domination")
    _announce("3 oracle-domination")


def test_criterion_4_certifier_consistency():
    rec = _entry_all_pass("certifier-consistency")
    assert not any(c.status == "SKIPPED" for c in rec.claims)
    _announce("4 certifier-consistency")


def test_criterion_5_closed_form_bounds():
    _entry_all_pass("bound-closed-forms")
    _announce("5 closed-form-bounds")


def test_criterion_6_extraction_trials():
    rec = _entry_all_pass("extraction-trials")
    assert len(rec.claims) == 3
    _announce("6 extraction-trials")


# The digest of every manifest entry's stable payload.  A digest moves only
# when a claim, a witness or a provenance string does: re-pin on purpose.
DIGEST_PINS = {
    "matching-thresholds": "c3b560e886775b48323c600e8aa82896677fa8d904038cf369cfc743d8796a22",
    "two-star-exclusive": "c07024b2fe6714d5206f08b955aa8828ab3de55a1bd59996fdf24f59855595fb",
    "triangle-ramsey": "bfe51a7d101b22fb0152e3ec45d2d1db39d7fe337f23f411213648da9e65d26c",
    "construction-suite": "607228b1ee2c3750cc0c4f6c51e0f514906c336f4fcc242c2327cd7a6c47d47b",
    "oracle-domination": "e5b596a65c6e17be6791f2b8c489cc3d11ec5f58b02af248edae7431bb25fe7c",
    "certifier-consistency": "ddfa6d8191bf30961335738c610a1d353a85b8b06d5026bf1c2c19655a814255",
    "bound-closed-forms": "3c213981ce66519c6736ff90175851baa632846f8fe40c5ac92d5d2527ff286b",
    "extraction-trials": "46eaa4cac3b5edbb7d047293c04fc98115003d34612a74293db4c41f8cf2d3b9",
    "tree-triangle": "0a5e2038c71c73413f8151ca2609e66b461b020b4a82e8cf9661a5db66e1e2f2",
}


def test_criterion_7_reproducibility():
    first = run_all()
    assert [r.manifest_id for r in first] == list(MANIFEST) == list(DIGEST_PINS)
    for rec in first:
        assert rec.status == "PASS", f"{rec.manifest_id}: {rec.status}"
        assert rec.digest() == DIGEST_PINS[rec.manifest_id], f"{rec.manifest_id} output drifted"
    _announce("7 reproducibility")
