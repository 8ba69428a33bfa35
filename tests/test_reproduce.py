import pytest

from edgemaps.bounds import CERTIFIERS
from edgemaps.reproduce import (
    DEFAULT_SEED,
    MANIFEST,
    ClaimResult,
    RunContext,
    RunRecord,
    certifier_assertions,
    run_manifest,
)
from edgemaps.search import exists_avoiding

MANIFEST_IDS = {
    "matching-thresholds",
    "two-star-exclusive",
    "triangle-ramsey",
    "construction-suite",
    "oracle-domination",
    "certifier-consistency",
    "bound-closed-forms",
    "extraction-trials",
    "tree-triangle",
}

FAST_IDS = [
    "matching-thresholds",
    "two-star-exclusive",
    "triangle-ramsey",
    "construction-suite",
    "certifier-consistency",
    "bound-closed-forms",
    "extraction-trials",
]


def test_manifest_ids_are_stable():
    assert set(MANIFEST) == MANIFEST_IDS
    for entry in MANIFEST.values():
        assert entry.description


@pytest.mark.parametrize("mid", FAST_IDS)
def test_fast_entries_pass(mid):
    rec = run_manifest(mid)
    assert rec.status == "PASS", [c.as_dict() for c in rec.claims if c.status != "PASS"]
    assert rec.manifest_id == mid
    assert rec.claims


def test_unknown_manifest_id():
    with pytest.raises(ValueError):
        run_manifest("no-such-pipeline")


def test_digest_is_deterministic():
    a = run_manifest("two-star-exclusive")
    b = run_manifest("two-star-exclusive")
    assert a.digest() == b.digest()
    # wall time varies between runs but never reaches the digest
    assert "wall_time" not in a.outputs()


def test_digest_ignores_wall_time_only():
    rec = run_manifest("triangle-ramsey")
    d = rec.as_dict()
    assert d["digest"] == rec.digest()
    assert set(d) >= {"manifest_id", "claims", "seed", "wall_time", "digest"}


def test_status_precedence():
    ok = ClaimResult("a", "PASS", "", {})
    skip = ClaimResult("b", "SKIPPED", "budget", {})
    bad = ClaimResult("c", "FAIL", "boom", {})
    base = dict(manifest_id="x", command="x", config={}, seed=0)
    assert RunRecord(claims=(ok,), wall_time=0.0, **base).status == "PASS"
    assert RunRecord(claims=(ok, skip), wall_time=0.0, **base).status == "SKIPPED"
    assert RunRecord(claims=(ok, skip, bad), wall_time=0.0, **base).status == "FAIL"


def test_context_defaults():
    ctx = RunContext()
    assert ctx.seed == DEFAULT_SEED
    assert ctx.budget is None
    opts = ctx.options()
    assert opts.workers == 1


def test_certifier_assertions_catalogue():
    pairs = certifier_assertions(n_cap=5)
    assert len(pairs) == 58
    labels = [label for label, _ in pairs]
    assert len(set(labels)) == len(labels)
    # every registry entry that can fire at n <= 5 labels a claim; the other
    # two first fire at n = 7 (tests/test_search.py pins where)
    late = {"exclusive-star tally certifier", "moved-support budget certifier"}
    named = {label.split(" by ")[1] for label in labels}
    assert named == {c.name for c in CERTIFIERS} - late
    # every assertion is a genuine exhaustion, spot-check the first few
    for label, spec in pairs[:4]:
        assert exists_avoiding(spec).verdict == "EXHAUSTED", label


def test_a_spent_budget_skips_every_claim_that_rests_on_a_search():
    # no table build fits in a microsecond, so every search ends in TIMEOUT
    ctx = RunContext(budget=1e-6)
    rec = run_manifest("triangle-ramsey", ctx)
    assert [c.status for c in rec.claims] == ["SKIPPED"] * 3
    rec = run_manifest("two-star-exclusive", ctx)
    status = {c.claim.split(":")[0]: c.status for c in rec.claims}
    assert status == {
        "pentagon witness": "PASS",
        "exact cover exhausts n=6": "SKIPPED",
        "difference construction": "PASS",
        "w(K1,2) = 6": "SKIPPED",
    }
    assert rec.status == "SKIPPED"
