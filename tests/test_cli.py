import gc
import json
import random
import warnings

import pytest

from edgemaps import cli, detect
from edgemaps.bounds import ASSUMED_TREE_DENSITY, EXTERNAL_CAPACITY
from edgemaps.graphs import make_pattern
from edgemaps.mapping import EdgeMapping, MappingClass, format_mapping, parse_mapping, random_mapping
from edgemaps.reproduce import ClaimResult, RunRecord


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_text_and_json_carry_identical_values(capsys):
    code, text, _ = run_cli(capsys, "construct", "k4_involution")
    assert code == 0
    code, raw, _ = run_cli(capsys, "construct", "k4_involution", "--json")
    assert code == 0
    record = json.loads(raw)
    assert record["mapping"] == [5, 4, 3, 2, 1, 0]
    assert f"mapping: {record['mapping']}" in text
    assert f"n: {record['n']}" in text


def test_construct_writes_mapping_file(tmp_path, capsys):
    path = tmp_path / "star7.map"
    code, raw, _ = run_cli(capsys, "construct", "star_shift", "7", "--out", str(path), "--json")
    assert code == 0
    f = parse_mapping(path.read_text())
    assert f.n == 7
    assert list(f.images) == json.loads(raw)["mapping"]


def test_construct_wrong_arity(capsys):
    code, _, err = run_cli(capsys, "construct", "star_shift")
    assert code == cli.EXIT_USAGE
    assert "takes" in err


def test_verify_pass_and_fail_exit_codes(tmp_path, capsys):
    path = tmp_path / "inv.map"
    run_cli(capsys, "construct", "k4_involution", "--out", str(path))
    code, _, _ = run_cli(
        capsys, "verify", "--mapping", str(path), "--claim", "free:2K2", "--klass", "disjoint"
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--mapping", str(path), "--claim", "free:K2")
    assert code == cli.EXIT_FAIL
    assert "FAIL" in out


def test_verify_rejects_malformed_claim(tmp_path, capsys):
    path = tmp_path / "inv.map"
    run_cli(capsys, "construct", "k4_involution", "--out", str(path))
    for claim in ("nonsense", "bogus:K3"):
        code, _, err = run_cli(capsys, "verify", "--mapping", str(path), "--claim", claim)
        assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("relation", detect.RELATIONS)
def test_verify_and_detect_agree_with_finders(relation, tmp_path, capsys):
    # seeded mapping of K5 with a shifted and a free K1,2 but no fixed,
    # strong-shifted or exclusive one
    mapping = random_mapping(5, random.Random(9))
    path = tmp_path / "f.map"
    path.write_text(format_mapping(mapping))
    cert = detect.FINDERS[relation](mapping, make_pattern("K1,2"))
    embedding = None if cert is None else list(cert.embedding)

    code, raw, _ = run_cli(
        capsys, "verify", "--mapping", str(path), "--claim", f"{relation}:K1,2", "--json"
    )
    assert code == (cli.EXIT_OK if cert is None else cli.EXIT_FAIL)
    assert json.loads(raw)["checks"][0].get("counterexample_embedding") == embedding

    code, raw, _ = run_cli(
        capsys, "detect", "--mapping", str(path),
        "--pattern", "K1,2", "--relation", relation, "--json",
    )
    assert code == cli.EXIT_OK
    record = json.loads(raw)
    assert record["found"] is (cert is not None)
    assert record.get("embedding") == embedding


def test_detect_reports_embedding(tmp_path, capsys):
    path = tmp_path / "inv.map"
    run_cli(capsys, "construct", "k4_involution", "--out", str(path))
    code, raw, _ = run_cli(
        capsys, "detect", "--mapping", str(path),
        "--pattern", "K3", "--relation", "strong_shifted", "--json",
    )
    assert code == 0
    record = json.loads(raw)
    assert record["found"] is True
    assert len(record["embedding"]) == 3
    assert len(record["copy_edges"]) == 3


def test_detect_closes_the_mapping_file(tmp_path, capsys):
    path = tmp_path / "inv.map"
    run_cli(capsys, "construct", "k4_involution", "--out", str(path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _, _ = run_cli(
            capsys, "detect", "--mapping", str(path), "--pattern", "K3", "--relation", "free",
        )
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_bound_ex_value(capsys):
    code, raw, _ = run_cli(capsys, "bound", "ex", "--n", "7", "--pattern", "K4-K2", "--json")
    assert code == 0
    record = json.loads(raw)
    assert record["value"] == 12
    assert record["source"] == "oracle"


def test_bound_pattern_from_file(tmp_path, capsys):
    pat = tmp_path / "pat.el"
    pat.write_text("3 3\n0 1\n0 2\n1 2\n")
    code, raw, _ = run_cli(capsys, "bound", "ex", "--n", "6", "--pattern", f"@{pat}", "--json")
    assert code == 0
    assert json.loads(raw)["value"] == 9


def test_bound_closed_forms(capsys):
    code, raw, _ = run_cli(capsys, "bound", "w-star", "--r", "3", "--json")
    assert code == 0
    assert json.loads(raw)["upper"] == 12
    code, raw, _ = run_cli(capsys, "bound", "tree-star", "--k", "3", "--r", "2", "--json")
    assert code == 0
    assert json.loads(raw)["upper"] == 8


def test_bound_report_shapes(capsys):
    code, raw, _ = run_cli(capsys, "bound", "w-clique", "--k", "4", "--json")
    assert code == 0
    record = json.loads(raw)
    assert record["k"] == 4
    assert set(record["report"]) == {"parameter", "lower", "upper", "status"}
    assert record["report"]["upper"]["value"] == 26
    assert record["report"]["lower"]["flags"]
    code, raw, _ = run_cli(capsys, "bound", "w-general", "--k", "4", "--m", "3", "--json")
    assert code == 0
    record = json.loads(raw)
    assert (record["k"], record["m"]) == (4, 3)
    assert record["report"]["parameter"] == "w(k=4,m=3)"
    assert record["report"]["upper"] == {"value": 14, "provenance": "closed form", "flags": []}
    code, raw, _ = run_cli(
        capsys, "bound", "capacity", "--n", "4", "--pattern", "K1,2", "--exclusive", "--json"
    )
    assert code == 0
    record = json.loads(raw)
    assert set(record) == {
        "op", "n", "pattern", "relation", "value", "exact", "flags", "witness",
    }
    assert record["relation"] == "exclusive" and record["exact"] is True
    assert isinstance(record["value"], int) and len(record["witness"]) == 6


# The rows of test_search.test_certify_at_first_fire: parameter and patterns,
# the least host the certifier clears, and its flags there.
CERTIFY_FIRST_FIRES = [
    (("g", "--g", "K1,2", "--d", "0"), 4, "moved-clear counting certifier", []),
    (("g", "--g", "K1,3"), 6, "degree-profile certifier", []),
    (("g", "--g", "3K2"), 7, "matching-count certifier", []),
    (("m", "--g", "K4-K2", "--h", "K1,2"), 7, "free-star tally certifier", []),
    (("m", "--g", "K1,2", "--h", "2K2"), 5, "copy-counting certifier", []),
    (("m_star", "--g", "P4", "--h", "K2"), 4, "exclusive-matching count certifier", []),
    (("m_star", "--g", "K1,2", "--h", "K1,2"), 7, "exclusive-star tally certifier", []),
    (("m", "--g", "K4", "--h", "2K2"), 10, "moved-support budget certifier",
     [EXTERNAL_CAPACITY]),
]


@pytest.mark.parametrize("argv,n,certifier,flags", CERTIFY_FIRST_FIRES)
def test_bound_certify_first_fire(argv, n, certifier, flags, capsys):
    code, raw, _ = run_cli(capsys, "bound", "certify", *argv, "--n", str(n), "--json")
    assert code == 0
    record = json.loads(raw)
    assert record["first"] == {"certifier": certifier, "flags": flags}
    # first is the first listed entry that fires
    fired = [row for row in record["certifiers"] if row["fires"]]
    assert fired[0] == {"certifier": certifier, "fires": True, "flags": flags}
    code, raw, _ = run_cli(capsys, "bound", "certify", *argv, "--n", str(n - 1), "--json")
    assert code == 0
    record = json.loads(raw)
    assert record["first"] is None
    assert not any(row["fires"] for row in record["certifiers"])


def test_bound_certify_assumes_tree_density(capsys):
    # no exact extremal count of P5 at n = 12; the registry's free-star tally
    # fires on the tree density assumption and says so
    argv = ("bound", "certify", "m", "--g", "P5", "--h", "K1,3", "--n", "12")
    code, raw, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    record = json.loads(raw)
    assert record["first"] == {
        "certifier": "free-star tally certifier", "flags": [ASSUMED_TREE_DENSITY],
    }
    assert [row["certifier"] for row in record["certifiers"]] == [
        "free-star tally certifier", "copy-counting certifier", "moved-support budget certifier",
    ]
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    for key in ("op", "parameter", "g", "h", "d", "n"):
        assert f"{key}: {record[key]}" in text.splitlines()
    for row in record["certifiers"]:
        block = "\n".join(f"  {key}: {value}" for key, value in row.items())
        assert block in text
    assert "first:\n  certifier: free-star tally certifier\n" in text
    assert f"  flags: {record['first']['flags']}" in text


def test_bound_certify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "bound", "certify", "m", "--g", "K3", "--n", "7")
    assert code == cli.EXIT_USAGE and "--h" in err
    code, _, err = run_cli(
        capsys, "bound", "certify", "g", "--g", "K3", "--h", "K3", "--n", "7"
    )
    assert code == cli.EXIT_USAGE and "--g alone" in err
    with pytest.raises(SystemExit):
        cli._parser().parse_args(["bound", "g-degree", "--pattern", "K3", "--n", "7"])
    capsys.readouterr()


def test_compute_json_matches_text(capsys):
    code, raw, _ = run_cli(capsys, "compute", "g", "--g", "2K2", "--json")
    assert code == 0
    record = json.loads(raw)
    assert record["status"] == "tight"
    assert record["lower"]["value"] == 5
    code, text, _ = run_cli(capsys, "compute", "g", "--g", "2K2")
    assert "value: 5" in text and "status: tight" in text


def test_oracle_subcommand(capsys):
    code, raw, _ = run_cli(capsys, "oracle", "paircover", "--n", "8", "--pattern", "K5", "--json")
    assert code == 0
    assert json.loads(raw)["value"] == 10
    code, _, err = run_cli(capsys, "oracle", "supersat", "--n", "6", "--pattern", "K3")
    assert code == cli.EXIT_USAGE
    assert "--m" in err


def test_cli_error_paths(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bound", "ex", "--n", "6", "--pattern", "QQquébec")
    assert code == cli.EXIT_USAGE
    assert "error:" in err
    code, _, err = run_cli(capsys, "detect", "--mapping", "/nonexistent.map",
                           "--pattern", "K3", "--relation", "free")
    assert code == cli.EXIT_USAGE
    # a vertex id past n - 1 is a usage error, not a traceback
    path = tmp_path / "bad.map"
    path.write_text("n=3\n0 1 -> 0 2\n0 2 -> 1 2\n1 5 -> 0 2\n")
    code, _, err = run_cli(capsys, "verify", "--mapping", str(path), "--claim", "free:K2")
    assert code == cli.EXIT_USAGE
    assert "out of range" in err


def test_search_text_and_json_carry_identical_values(capsys):
    argv = ("search", "--n", "5", "--klass", "disjoint", "--avoid", "exclusive:K1,2")
    code, text, _ = run_cli(capsys, *argv)
    assert code == cli.EXIT_OK
    code, raw, _ = run_cli(capsys, *argv, "--json")
    assert code == cli.EXIT_OK
    record = json.loads(raw)
    assert record["verdict"] == "WITNESS"
    for key in ("verdict", "witness", "nodes"):
        assert f"{key}: {record[key]}" in text
    for rule, count in record["prunes"].items():
        assert f"  {rule}: {count}" in text


def test_search_witness_passes_detection(capsys):
    code, raw, _ = run_cli(
        capsys, "search", "--n", "10", "--klass", "disjoint", "--avoid", "exclusive:K4",
        "--budget", "5", "--json",
    )
    assert code == cli.EXIT_OK
    record = json.loads(raw)
    assert record["verdict"] == "WITNESS"
    f = EdgeMapping(10, tuple(record["witness"]))
    assert MappingClass("disjoint").admits(f)
    assert detect.find_any(f, (("exclusive", make_pattern("K4")),)) is None


def test_search_exhausted_timeout_and_usage_exits(capsys):
    code, raw, _ = run_cli(
        capsys, "search", "--n", "6", "--klass", "disjoint", "--avoid", "exclusive:K1,2", "--json"
    )
    assert code == cli.EXIT_OK
    assert json.loads(raw)["verdict"] == "EXHAUSTED"

    code, raw, _ = run_cli(
        capsys, "search", "--n", "7", "--klass", "all", "--avoid", "fixed:2K2",
        "--avoid", "free:K3", "--budget", "0.05", "--json",
    )
    assert code == cli.EXIT_SKIPPED
    assert json.loads(raw)["verdict"] == "TIMEOUT"

    # above the disjoint envelope of 7 only a budget lets the walk start
    code, _, err = run_cli(
        capsys, "search", "--n", "8", "--klass", "disjoint", "--avoid", "exclusive:C4"
    )
    assert code == cli.EXIT_USAGE
    assert "budget" in err
    code, _, err = run_cli(capsys, "search", "--n", "6", "--klass", "all", "--avoid", "bogus:K3")
    assert code == cli.EXIT_USAGE
    small = ("search", "--n", "5", "--klass", "disjoint", "--avoid", "exclusive:K1,2")
    code, _, err = run_cli(capsys, *small, "--workers", "0")
    assert code == cli.EXIT_USAGE
    assert "workers" in err
    code, _, err = run_cli(capsys, *small, "--budget", "-1")
    assert code == cli.EXIT_USAGE
    assert "budget" in err
    # a budget without an end does not open the envelope
    code, _, err = run_cli(
        capsys, "search", "--n", "9", "--klass", "all", "--avoid", "free:K3", "--budget", "inf"
    )
    assert code == cli.EXIT_USAGE
    assert "finite" in err


def test_reproduce_list_and_single_run(capsys):
    code, raw, _ = run_cli(capsys, "reproduce", "--list", "--json")
    assert code == 0
    ids = [row["id"] for row in json.loads(raw)["manifest"]]
    assert "matching-thresholds" in ids
    code, raw, _ = run_cli(capsys, "reproduce", "two-star-exclusive", "--json")
    assert code == 0
    runs = json.loads(raw)["runs"]
    assert len(runs) == 1
    assert all(c["status"] == "PASS" for c in runs[0]["claims"])
    assert "digest" in runs[0]


def test_reproduce_exit_codes(monkeypatch, capsys):
    def fake_run(mid, ctx):
        claims = (ClaimResult("stub", "SKIPPED", "budget exceeded", {}),)
        return RunRecord(
            manifest_id=mid, command=f"reproduce {mid}", config={}, seed=0,
            claims=claims, wall_time=0.0,
        )

    monkeypatch.setattr(cli, "run_manifest", fake_run)
    code, out, _ = run_cli(capsys, "reproduce", "matching-thresholds")
    assert code == cli.EXIT_SKIPPED
    assert "SKIPPED" in out

    def fail_run(mid, ctx):
        claims = (ClaimResult("stub", "FAIL", "wrong value", {}),)
        return RunRecord(
            manifest_id=mid, command=f"reproduce {mid}", config={}, seed=0,
            claims=claims, wall_time=0.0,
        )

    monkeypatch.setattr(cli, "run_manifest", fail_run)
    code, _, _ = run_cli(capsys, "reproduce", "matching-thresholds")
    assert code == cli.EXIT_FAIL


def test_threads_env_sets_default_workers(monkeypatch):
    monkeypatch.setenv("EDGEMAP_THREADS", "3")
    args = cli._parser().parse_args(["compute", "g", "--g", "2K2"])
    assert args.workers == 3
    monkeypatch.delenv("EDGEMAP_THREADS")
    args = cli._parser().parse_args(["compute", "g", "--g", "2K2"])
    assert args.workers == 1


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_bad_threads_env_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("EDGEMAP_THREADS", value)
    code, out, err = run_cli(capsys, "construct", "k4_involution")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: EDGEMAP_THREADS")
