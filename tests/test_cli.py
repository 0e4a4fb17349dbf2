import argparse
import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from corpus import binary_linear_scheme, random_injective_scheme, scheme_from_profiles, table1_scheme
from golden_cases import GOLDEN_CASES, fill
from discern import checks, cli, matroid, strategies, trees
from discern.scheme import Scheme, serialize_scheme


def run_cli(capsys, args):
    code = cli.run(args)
    return code, capsys.readouterr().out


def test_analyze_s1(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["analyze", str(fixtures_dir / "s1.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["injective"] is False
    assert doc["capacity_bits"] == 0.0
    assert doc["collision_groups"] == [["A", "C"]]


def test_analyze_missing_file(capsys, tmp_path):
    code, out = run_cli(capsys, ["analyze", str(tmp_path / "missing.json")])
    assert code == 2


def test_analyze_invalid_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out = run_cli(capsys, ["analyze", str(bad)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_dimension_s2(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["dimension", str(fixtures_dir / "s2.json")])
    assert code == 0
    assert json.loads(out) == {"dimension": 2, "exact": True}


def test_dimension_barrier_scheme(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["dimension", str(fixtures_dir / "s1.json")])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "BarrierError"


def test_bases_above_limit(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["bases", str(fixtures_dir / "s3.json"), "--max-n", "2"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "LimitError"


def test_bases_table_too_wide_is_a_limit_error(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(serialize_scheme(scheme_from_profiles([(0,) * 70, (1,) * 70])))
    code, out = run_cli(capsys, ["bases", str(path), "--max-n", "70"])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "LimitError"


def test_check_past_the_subset_table_skips_the_closure_scan(capsys, tmp_path):
    # n=31 is within --closure-limit 40 but past the 2^n table: the four
    # closure outcomes are skipped before anything of size 2^n is allocated.
    n = matroid.SUBSET_TABLE_LIMIT + 1
    path = tmp_path / "wide.json"
    path.write_text(serialize_scheme(scheme_from_profiles([(0,) * n, (1,) * n])))
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, ["check", str(path), "--closure-limit", "40"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert code == 0
    reason = f"subset table limited to n <= {matroid.SUBSET_TABLE_LIMIT}, scheme has n={n}"
    assert [(c["ok"], c["skipped"], c["detail"]) for c in json.loads(out)["checks"][:4]] == [
        (True, True, reason)
    ] * 4


def test_tradeoff_csv(capsys, fixtures_dir, tmp_path):
    csv_path = tmp_path / "points.csv"
    code, out = run_cli(
        capsys, ["tradeoff", str(fixtures_dir / "s2.json"), "--tags", "1", "--csv", str(csv_path)]
    )
    assert code == 0
    assert csv_path.read_bytes() == (
        b"L,W,D,strategy\n2,1,0.0,nominal\n0,2,0.0,exhaustive\n0,2,0.0,adaptive\n1,2,0.0,hybrid\n"
    )


def test_tradeoff_with_tags(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["tradeoff", str(fixtures_dir / "s2.json"), "--tags", "0", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["tag_plans"]) == 2
    hybrid_points = [p for p in doc["points"] if p["strategy"] == "hybrid"]
    assert [p["L"] for p in hybrid_points] == [0, 1]


def test_simulate_adaptive(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["simulate", str(fixtures_dir / "s1.json"), "--strategy", "adaptive"])
    assert code == 0
    doc = json.loads(out)
    by_class = {t["class"]: t for t in doc["transcripts"]}
    assert by_class["C"]["output"] == "A"
    assert by_class["C"]["undecided"] is True


def test_simulate_nominal_single_class(capsys, fixtures_dir):
    code, out = run_cli(
        capsys,
        ["simulate", str(fixtures_dir / "s2.json"), "--strategy", "nominal", "--class", "C"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["transcripts"] == [
        {"class": "C", "queries": ["TAG_READ"], "output": "C", "query_count": 1, "undecided": False}
    ]


def test_simulate_hybrid_requires_tags(capsys, fixtures_dir):
    code, _ = run_cli(capsys, ["simulate", str(fixtures_dir / "s2.json"), "--strategy", "hybrid"])
    assert code == 1


def test_simulate_unknown_class_is_a_usage_error(capsys, fixtures_dir):
    code = cli.run(["simulate", str(fixtures_dir / "s2.json"), "--strategy", "adaptive", "--class", "NOPE"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: unknown class 'NOPE'\n"


@pytest.mark.parametrize(
    "strategy, tags, message",
    [
        ("adaptive", "2", "adaptive strategy is tag-free"),
        ("nominal", "1", "nominal tag_bits must be ceil(log2 k) = 2"),
    ],
)
def test_simulate_tags_the_strategy_cannot_use_are_refused(capsys, fixtures_dir, strategy, tags, message):
    code, out = run_cli(
        capsys, ["simulate", str(fixtures_dir / "s2.json"), "--strategy", strategy, "--tags", tags]
    )
    assert code == 2
    assert json.loads(out) == {"error": {"type": "ValueError", "message": message}}


def test_simulate_nominal_tags_equal_to_the_default_change_nothing(capsys, fixtures_dir):
    args = ["simulate", str(fixtures_dir / "s2.json"), "--strategy", "nominal"]
    assert run_cli(capsys, [*args, "--tags", "2"]) == run_cli(capsys, args)


@pytest.mark.parametrize("command", ["analyze", "resolve"])
def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert json.loads(out) == {
        "error": {"type": "ParseError", "message": "invalid JSON: nested too deeply to decode"}
    }


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer literals of any length",
)
@pytest.mark.parametrize(
    "command, text",
    [
        ("analyze", '{"attributes": ["a"], "classes": [{"name": "A", "profile": [1%s]}]}'),
        ("analyze", '{"attributes": ["a"], "classes": [{"name": "A", "profile": [1]}], "masses": [1%s]}'),
        ("resolve", '{"mro": [1%s]}'),
    ],
    ids=["profile", "mass", "mro"],
)
def test_too_long_integer_literal_is_a_parse_error(capsys, tmp_path, command, text):
    path = tmp_path / "long.json"
    path.write_text(text % ("0" * sys.get_int_max_str_digits()))
    code, out = run_cli(capsys, [command, str(path)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("invalid JSON: ")


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("resolve", '{"registry": {"1": 5, "1": 7}}', "1"),
        ("analyze", '{"attributes": [], "classes": [], "classes": [{"name": "A", "profile": []}]}', "classes"),
    ],
)
def test_duplicate_json_keys_are_a_parse_error(capsys, tmp_path, command, text, key):
    path = tmp_path / "duplicate.json"
    path.write_text(text)
    code, out = run_cli(capsys, [command, str(path)])
    assert code == 2
    assert json.loads(out) == {"error": {"type": "ParseError", "message": f"duplicate key {key!r}"}}


def test_nan_mass_is_a_validation_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"attributes": ["p"], "classes": [{"name": "A", "profile": [0]}, '
                    '{"name": "B", "profile": [1]}], "masses": [NaN, 1]}')
    code, out = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValidationError", "message": "masses[0]: mass must be nonnegative, got nan"
    }


def test_mass_too_large_for_a_float_is_a_validation_error(capsys, tmp_path):
    # An integer literal past the float range, not a traceback (exit 1).
    path = tmp_path / "huge_mass.json"
    path.write_text('{"attributes": ["p"], "classes": [{"name": "A", "profile": [0]}, '
                    '{"name": "B", "profile": [1]}], "masses": [0, 1%s]}' % ("0" * 400))
    code, out = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ValidationError", "message": "masses[1]: mass does not fit in a float"
    }


def test_empty_masses_are_a_validation_error(capsys, tmp_path):
    # An explicit empty array is a count fault, not "no masses given".
    path = tmp_path / "empty_masses.json"
    path.write_text('{"attributes": ["p"], "classes": [{"name": "A", "profile": [0]}, '
                    '{"name": "B", "profile": [1]}], "masses": []}')
    code, out = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert out == json.dumps(
        {"error": {"type": "ValidationError", "message": "masses: got 0 masses for 2 classes"}},
        indent=2,
    ) + "\n"


def test_one_hot_tree_deeper_than_the_recursion_limit(capsys, tmp_path):
    # One-hot k=n=1200: the greedy tree is a 1199-level chain, deeper than
    # Python's default recursion limit of 1000.  About 5 s on a 2-vCPU host.
    k = 1200
    doc = {
        "attributes": [f"a{q}" for q in range(k)],
        "classes": [{"name": f"c{c}", "profile": [int(q == c) for q in range(k)]} for c in range(k)],
    }
    path = tmp_path / "one_hot.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run_cli(capsys, ["tradeoff", str(path)])
    assert time.perf_counter() - start < 30.0
    assert code == 0
    adaptive = [p for p in json.loads(out)["points"] if p["strategy"] == "adaptive"]
    assert adaptive == [{"L": 0, "W": k - 1, "D": 0.0, "strategy": "adaptive"}]


def test_commands_walk_trees_without_building_the_nested_view(capsys, monkeypatch, tmp_path):
    # Every command reads a tree's node tuples; no ``TreeNode`` is built,
    # leaf or view, unless a caller asks for ``DecisionTree.root``.
    built = []

    class RecordedTree(trees.DecisionTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def no_tree_node(*args, **kwargs):
        raise AssertionError("a command built a TreeNode")

    monkeypatch.setattr(trees, "DecisionTree", RecordedTree)
    monkeypatch.setattr(trees, "TreeNode", no_tree_node)
    table1 = tmp_path / "table1.json"
    table1.write_text(serialize_scheme(table1_scheme()))
    # k=20/n=16 is within the exact limits, so its group trees are exact.
    small = tmp_path / "k20n16.json"
    small.write_text(serialize_scheme(random_injective_scheme(random.Random(36), 20, 16)))
    commands = (
        [table1, "analyze"],
        [table1, "tradeoff"],
        [table1, "simulate", "--strategy", "adaptive"],
        [table1, "simulate-noise", "--eps", "0.1", "--delta", "0.01", "--trials", "1000", "--seed", "3"],
        [small, "simulate", "--strategy", "hybrid", "--tags", "2"],
        [small, "tradeoff", "--tags", "1", "2"],
    )
    try:
        trees.greedy_decision_tree.cache_clear()
        trees.optimal_decision_tree.cache_clear()
        for path, command, *options in commands:
            assert run_cli(capsys, [command, str(path), *options])[0] == 0
    finally:
        trees.greedy_decision_tree.cache_clear()
        trees.optimal_decision_tree.cache_clear()
    assert any(tree.exact for tree in built) and not all(tree.exact for tree in built)
    assert all("root" not in tree.__dict__ for tree in built)


def test_simulate_hybrid_with_tags(capsys, fixtures_dir):
    code, out = run_cli(
        capsys, ["simulate", str(fixtures_dir / "s2.json"), "--strategy", "hybrid", "--tags", "1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["strategy"] == {"kind": "hybrid", "tag_bits": 1}
    for t in doc["transcripts"]:
        assert t["queries"][0] == "TAG_READ"
        assert t["query_count"] == 2
        assert t["output"] == t["class"]


def test_simulate_noise_requires_seed(capsys, fixtures_dir):
    code, _ = run_cli(
        capsys,
        ["simulate-noise", str(fixtures_dir / "s2.json"), "--eps", "0.1", "--delta", "0.01", "--trials", "10"],
    )
    assert code == 1


def test_simulate_noise_deterministic(capsys, fixtures_dir, tmp_path):
    args = [
        "simulate-noise",
        str(fixtures_dir / "s2.json"),
        "--eps", "0.05", "0.1",
        "--delta", "0.01",
        "--trials", "200",
        "--seed", "7",
        "--csv", str(tmp_path / "noise.csv"),
    ]
    code1, out1 = run_cli(capsys, args)
    code2, out2 = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = json.loads(out1)["results"]
    assert [r["epsilon"] for r in rows] == [0.05, 0.1]
    assert (tmp_path / "noise.csv").read_bytes() == (
        b"epsilon,delta,mean_queries,empirical_error,reference_bound\n"
        b"0.05,0.01,10.0,0.0,5.6853952913433226\n"
        b"0.1,0.01,14.0,0.0,7.195578415606392\n"
    )


def test_simulate_noise_bad_epsilon(capsys, fixtures_dir):
    code, out = run_cli(
        capsys,
        ["simulate-noise", str(fixtures_dir / "s2.json"), "--eps", "0.7",
         "--delta", "0.01", "--trials", "10", "--seed", "1"],
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ConfigError"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate-noise", "s3.json", "--eps", "0.1", "--delta", "1e-320", "--trials", "10", "--seed", "1"],
        ["simulate-noise", "s1.json", "--eps", "0.1", "--delta", "1e-320", "--trials", "10", "--seed", "1", "--tagged"],
        ["report", "s3.json", "--seed", "1", "--delta", "1e-320"],
    ],
)
def test_delta_whose_reciprocal_overflows_is_refused(capsys, fixtures_dir, argv):
    # ln(1/delta) in the reference bound would print as Infinity, which is not JSON.
    code, out = run_cli(capsys, [argv[0], str(fixtures_dir / argv[1]), *argv[2:]])
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "ConfigError",
        "message": "delta is too small: 1/delta overflows a float, got 1e-320",
    }


def test_simulate_noise_tagged(capsys, fixtures_dir):
    code, out = run_cli(
        capsys,
        ["simulate-noise", str(fixtures_dir / "s1.json"), "--eps", "0.3",
         "--delta", "0.01", "--trials", "10", "--seed", "1", "--tagged"],
    )
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["mean_queries"] == 1.0 and row["empirical_error"] == 0.0


def test_resolve_with_trace(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["resolve", str(fixtures_dir / "scenario1.json"), "--trace"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == {"value": 5, "scope": "s0", "sourceType": 1}
    assert doc["getattribute"] == 5
    assert doc["probes"] == 1
    assert doc["trace"] == [{"scope": "s0", "mro_type": 2, "normalized": 1}]


def test_resolve_strict_rejects_ill_formed(capsys, tmp_path):
    scenario = tmp_path / "ill.json"
    scenario.write_text('{"registry": {"2": 1, "1": 0}, "mro": [2], "scopes": ["s0"], "ctx": {}}')
    code, _ = run_cli(capsys, ["resolve", str(scenario)])
    assert code == 0
    code, out = run_cli(capsys, ["resolve", str(scenario), "--strict"])
    assert code == 2


def test_check_fixtures_pass(capsys, fixtures_dir):
    for name in ("s1.json", "s2.json", "s3.json"):
        code, out = run_cli(capsys, ["check", str(fixtures_dir / name)])
        assert code == 0, out
        assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("command", ["bases", "check"])
def test_binary_linear_bases_at_n16_finish(capsys, tmp_path, command):
    # 256 classes with thousands of bases, all of one binary matroid; a
    # scan over pairs of bases did not finish in 200 s.
    path = tmp_path / "linear.json"
    path.write_text(serialize_scheme(binary_linear_scheme(random.Random(8), 8, 16)))
    start = time.perf_counter()
    code, out = run_cli(capsys, [command, str(path)])
    assert time.perf_counter() - start < 10
    assert code == 0
    doc = json.loads(out)
    assert doc["exchange_ok"] if command == "bases" else doc["ok"]


def test_check_mutation_detected(capsys, fixtures_dir, monkeypatch):
    def corrupted_closure_table(scheme):
        return np.zeros(1 << scheme.n, dtype=np.uint8)  # cl(X) empty for every X

    monkeypatch.setattr(matroid, "closure_table", corrupted_closure_table)
    code, out = run_cli(capsys, ["check", str(fixtures_dir / "s2.json")])
    assert code == 4
    doc = json.loads(out)
    failed = [c for c in doc["checks"] if not c["ok"]]
    assert failed and failed[0]["detail"]


def test_check_reports_transcripts_that_differ_within_a_collision(capsys, fixtures_dir, monkeypatch, s1):
    real = checks.identify

    def identify(scheme, strat, class_index):  # C, which collides with A in s1, decodes to itself
        transcript = real(scheme, strat, class_index)
        return dataclasses.replace(transcript, output=2) if class_index == 2 else transcript

    monkeypatch.setattr(checks, "identify", identify)
    outcome = checks.check_barrier_factoring(s1)
    assert outcome.ok is False and not outcome.skipped
    assert "colliding classes A and C" in outcome.detail
    code, out = run_cli(capsys, ["check", str(fixtures_dir / "s1.json")])
    assert code == 4
    doc = json.loads(out)
    assert doc["ok"] is False and doc["checks"][-1] == dataclasses.asdict(outcome)


def test_report_sections_and_digest(capsys, fixtures_dir):
    args = ["report", str(fixtures_dir / "s2.json"), "--seed", "5", "--tags", "1"]
    code1, out1 = run_cli(capsys, args)
    code2, out2 = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc["sections"]) == {"barrier", "matroid", "tradeoff", "noise"}
    assert len(doc["scheme_digest"]) == 64
    assert doc["seed"] == 5
    frontier = {tuple(sorted(p.items())) for p in doc["sections"]["tradeoff"]["frontier"]}
    points = {tuple(sorted(p.items())) for p in doc["sections"]["tradeoff"]["points"]}
    assert frontier <= points


@pytest.mark.parametrize("scheme", ["s2", "s3"])
def test_report_sections_are_the_other_commands_documents(capsys, fixtures_dir, scheme):
    path, scenario = str(fixtures_dir / f"{scheme}.json"), str(fixtures_dir / "scenario2.json")

    def document(*argv):
        code, out = run_cli(capsys, list(argv))
        assert code == 0
        return json.loads(out)

    noise = document("simulate-noise", path, "--eps", "0.1", "--delta", "0.01", "--trials", "1000", "--seed", "3")
    report = document("report", path, "--tags", "1", "2", "--seed", "3", "--scenario", scenario)
    assert report["sections"] == {
        "barrier": document("analyze", path),
        "matroid": document("bases", path),
        "tradeoff": document("tradeoff", path, "--tags", "1", "2"),
        "noise": noise["results"][0],
        "resolver": document("resolve", scenario),
    }


def test_report_skips_the_noise_section_on_a_colliding_scheme(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["report", str(fixtures_dir / "s1.json"), "--seed", "3"])
    assert code == 0
    assert json.loads(out)["sections"]["noise"] == {"skipped": "noisy identification needs profile-injective classes"}


def test_tradeoff_zero_mass_collision_has_no_violation(capsys, tmp_path):
    path = tmp_path / "zero-mass.json"
    path.write_text(
        '{"attributes": ["a"], "classes": [{"name": "A", "profile": [0]}, {"name": "B", "profile": [0]}],'
        ' "masses": [1.0, 0.0]}'
    )
    code, out = run_cli(capsys, ["tradeoff", str(path)])
    assert code == 0
    assert [(p["strategy"], p["D"], p["verdict"]) for p in json.loads(out)["converse"]] == [
        ("nominal", 0.0, "OK"),
        ("exhaustive", 0.0, "OK"),
        ("adaptive", 0.0, "OK"),
    ]


def test_report_scenario_section(capsys, fixtures_dir):
    code, out = run_cli(
        capsys,
        ["report", str(fixtures_dir / "s1.json"), "--scenario", str(fixtures_dir / "scenario1.json")],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sections"]["resolver"]["value"] == 5
    assert "skipped" in doc["sections"]["matroid"]


def test_output_file(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "out.json"
    code, out = run_cli(capsys, ["analyze", str(fixtures_dir / "s2.json"), "-o", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["injective"] is True


def test_unwritable_output_is_a_data_error(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out = run_cli(capsys, ["analyze", str(fixtures_dir / "s2.json"), "-o", str(target)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"
    assert not target.exists()


def test_unwritable_csv_stops_before_the_document(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "missing" / "points.csv"
    code, out = run_cli(
        capsys, ["tradeoff", str(fixtures_dir / "s2.json"), "--csv", str(target)]
    )
    assert code == 2
    # One error document and nothing before it: the points were never printed.
    assert list(json.loads(out)) == ["error"]
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


def count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so each call appends its arguments to the returned list."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture()
def twelve_classes(tmp_path):
    path = tmp_path / "k12.json"
    path.write_text(serialize_scheme(random_injective_scheme(random.Random(40), 12, 6)))
    return str(path)


def test_simulate_hybrid_plans_once(capsys, monkeypatch, twelve_classes):
    calls = count_calls(monkeypatch, strategies, "tag_partition")
    code, out = run_cli(capsys, ["simulate", twelve_classes, "--strategy", "hybrid", "--tags", "2"])
    assert code == 0 and len(json.loads(out)["transcripts"]) == 12
    assert len(calls) == 1


def test_tradeoff_plans_once_per_tag_width(capsys, monkeypatch, twelve_classes):
    calls = count_calls(monkeypatch, strategies, "tag_partition")
    code, out = run_cli(capsys, ["tradeoff", twelve_classes, "--tags", "1", "2", "3"])
    assert code == 0 and len(json.loads(out)["tag_plans"]) == 3
    assert sorted(L for _, L in calls) == [1, 2, 3]


def test_pretty_rendering(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["analyze", str(fixtures_dir / "s1.json"), "--pretty"])
    assert code == 0
    assert "injective: False" in out


PRETTY_TRADEOFF_S2 = """\
points:
  -
    L: 2
    W: 1
    D: 0.0
    strategy: nominal
  -
    L: 0
    W: 2
    D: 0.0
    strategy: exhaustive
  -
    L: 0
    W: 2
    D: 0.0
    strategy: adaptive
  -
    L: 1
    W: 2
    D: 0.0
    strategy: hybrid
frontier:
  -
    L: 2
    W: 1
    D: 0.0
    strategy: nominal
  -
    L: 0
    W: 2
    D: 0.0
    strategy: exhaustive
converse:
  -
    L: 2
    W: 1
    D: 0.0
    strategy: nominal
    verdict: OK
  -
    L: 0
    W: 2
    D: 0.0
    strategy: exhaustive
    verdict: OK
  -
    L: 0
    W: 2
    D: 0.0
    strategy: adaptive
    verdict: OK
  -
    L: 1
    W: 2
    D: 0.0
    strategy: hybrid
    verdict: OK
tag_plans:
  -
    L: 1
    groups:
      -
        - A
        - B
      -
        - C
        - D
    max_group_dimension: 1
    residual_distortion: 0.0
    exhaustive_max_group_dimension: 1
"""


def test_pretty_rendering_of_nested_lists(capsys, fixtures_dir):
    code, out = run_cli(capsys, ["tradeoff", str(fixtures_dir / "s2.json"), "--tags", "1", "--pretty"])
    assert code == 0
    assert out == PRETTY_TRADEOFF_S2


def test_help_and_usage_exit_codes(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()
    assert cli.run(["no-such-command"]) == 1
    capsys.readouterr()
    assert cli.run([]) == 1


def _argv_corpus():
    s1 = "{fixtures}/s1.json"
    corpus = [[], ["--help"], ["--version"], ["nope"], ["-o", "x", "analyze"]]
    for command, (_, scheme_arg, _, _) in cli.COMMANDS.items():
        document = s1 if scheme_arg else "{fixtures}/scenario1.json"
        corpus += [[command, "--help"], [command], [command, document, "--bogus"]]
    return corpus + [
        ["dimension", s1, "--exact-limit", "x"],
        ["simulate", s1, "--strategy", "bogus"],
        ["analyze", s1],
    ]


@pytest.mark.parametrize("argv", _argv_corpus(), ids=" ".join)
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, fixtures_dir, argv):
    argv = fill(argv, fixtures_dir)
    code = cli.run(argv)
    one = (code, *capsys.readouterr())
    full_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full_parser())
    code = cli.run(argv)
    assert one == (code, *capsys.readouterr())


REQUIRED_OPTIONS = {
    "simulate": ["--strategy", "adaptive"],
    "simulate-noise": ["--eps", "0.1", "--delta", "0.01", "--trials", "1", "--seed", "1"],
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_the_command_table_drives_every_command(capsys, monkeypatch, fixtures_dir, command):
    help_text, scheme_arg, add_options, _ = cli.COMMANDS[command]
    schemes = []

    def build(scheme, args):
        schemes.append(scheme)
        return {"built": command}

    monkeypatch.setitem(cli.COMMANDS, command, (help_text, scheme_arg, add_options, build))
    document = fixtures_dir / ("s1.json" if scheme_arg else "scenario1.json")
    code, out = run_cli(capsys, [command, str(document), *REQUIRED_OPTIONS.get(command, [])])
    assert code == 0
    assert out == json.dumps({"built": command}, indent=2) + "\n"
    assert [isinstance(s, Scheme) if scheme_arg else s is None for s in schemes] == [True]


@pytest.mark.parametrize("argv, built", [(["analyze", "{fixtures}/s1.json"], 1), (["--help"], 9)])
def test_run_builds_only_the_subparser_it_dispatches_to(capsys, monkeypatch, fixtures_dir, argv, built):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction,
        "add_parser",
        lambda self, name, **kwargs: calls.append(name) or add_parser(self, name, **kwargs),
    )
    parsers = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: parsers.append(build(command)) or parsers[-1])
    cli.run(fill(argv, fixtures_dir))
    capsys.readouterr()
    assert len(calls) == built
    # The parser is built per call and kept nowhere once the run returns.
    survivor = weakref.ref(parsers.pop())
    gc.collect()
    assert survivor() is None


def test_lazy_resolve_of_an_ill_formed_registry_warns_once(capsys, tmp_path):
    scenario = tmp_path / "ill.json"
    scenario.write_text(
        '{"registry": {"2": 1, "1": 3}, "mro": [2], "scopes": ["s0"],'
        ' "ctx": {"s0": [{"typ": 1, "value": 5}]}, "obj": {"typ": 2, "value": 0}, "lazy": true}'
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "discern.cli", "resolve", str(scenario)], env=env, capture_output=True, text=True
    )
    code, out = run_cli(capsys, ["resolve", str(scenario)])
    assert done.returncode == code == 0 and done.stdout == out
    assert json.loads(out)["getattribute"] == 5
    assert done.stderr.count("registry is not well-formed") == 1


@pytest.mark.parametrize("fails", ["loading", "building"])
def test_running_out_of_memory_is_a_limit_error(capsys, monkeypatch, fixtures_dir, fails):
    def out_of_memory(*args):
        raise MemoryError

    if fails == "loading":
        monkeypatch.setattr(cli, "load_scheme", out_of_memory)
    else:
        help_text, scheme_arg, add_options, _ = cli.COMMANDS["tradeoff"]
        monkeypatch.setitem(cli.COMMANDS, "tradeoff", (help_text, scheme_arg, add_options, out_of_memory))
    code, out = run_cli(capsys, ["tradeoff", str(fixtures_dir / "s2.json")])
    assert code == cli.LIMIT_EXIT == 3
    assert json.loads(out)["error"]["type"] == "LimitError"


# Run in a fresh interpreter: which of these modules ``import discern.cli``
# loads itself, the exit code, and whether the command then loaded NumPy.
START_UP_PROBE = (
    "import json, sys; before = set(sys.modules); from discern import cli; "
    "loaded = sorted({'numpy', 'hashlib', 'logging'} & set(sys.modules) - before); "
    "code = cli.run(sys.argv[1:]); "
    "print(json.dumps([loaded, code, 'numpy' in sys.modules]), file=sys.stderr)"
)


@pytest.fixture(scope="module")
def table1_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("start_up") / "table1.json"
    path.write_text(serialize_scheme(table1_scheme()))
    return path


@pytest.mark.parametrize(
    "argv, expected_code, loads_numpy",
    [
        (["analyze", "{fixtures}/s1.json"], 0, False),
        (["dimension", "{fixtures}/s1.json"], 2, False),  # colliding: a BarrierError document
        (["analyze", "{table1}"], 0, False),
        (["dimension", "{table1}"], 0, False),
        (["resolve", "{fixtures}/scenario1.json"], 0, False),
        (["simulate", "{table1}", "--strategy", "nominal"], 0, False),
        (["tradeoff", "{fixtures}/s2.json"], 0, False),  # exact trees only
        (["tradeoff", "{table1}"], 0, True),  # the greedy tree's level arrays
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_start_up_loads_numpy_only_for_array_work(
    capsys, fixtures_dir, table1_path, argv, expected_code, loads_numpy
):
    argv = [a.format(fixtures=fixtures_dir, table1=table1_path) for a in argv]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", START_UP_PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    loaded, code, numpy_loaded = json.loads(done.stderr.splitlines()[-1])
    assert loaded == []
    assert (code, numpy_loaded) == (expected_code, loads_numpy)
    # The same bytes as in-process, where ``test_golden_outputs`` pins the
    # fixture cases to their golden files.
    assert (code, done.stdout) == run_cli(capsys, argv)


def test_byte_identical_reruns(capsys, fixtures_dir):
    first = run_cli(capsys, ["tradeoff", str(fixtures_dir / "s3.json")])
    second = run_cli(capsys, ["tradeoff", str(fixtures_dir / "s3.json")])
    assert first == second


@pytest.mark.parametrize("args,golden,expected_code", GOLDEN_CASES)
def test_golden_outputs(capsys, fixtures_dir, golden_dir, args, golden, expected_code):
    code, out = run_cli(capsys, fill(args, fixtures_dir))
    assert code == expected_code
    stored = (golden_dir / golden).read_text(encoding="utf-8")
    assert out == stored


PINNED_CASES = [
    (command, scheme, 2 if (command, scheme) == ("bases", "s1") else 0)
    for command in ("bases", "check")
    for scheme in ("s1", "s2", "s3")
]


@pytest.mark.parametrize("command,scheme,expected_code", PINNED_CASES)
def test_pinned_outputs(capsys, fixtures_dir, command, scheme, expected_code):
    code, out = run_cli(capsys, [command, str(fixtures_dir / f"{scheme}.json")])
    assert code == expected_code
    pinned = Path(__file__).parent / "pinned" / f"{command}_{scheme}.json"
    assert out == pinned.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "profiles, message, error_type",
    [
        ([[0, 1], [0, 2]], "classes[1].profile[1]: profile bit must be 0 or 1, got 2", "ValidationError"),
        ([[-1, 0], [0, 1]], "classes[0].profile[0]: profile bit must be 0 or 1, got -1", "ValidationError"),
        ([[0, 1], [0, 1, 1]], "classes[1].profile: profile has length 3, expected 2", "ValidationError"),
        ([[0], [0, 1]], "classes[0].profile: profile has length 1, expected 2", "ValidationError"),
        # Several faults: a non-integer entry outranks a bit-domain fault in
        # the same profile, but an earlier class's fault comes first.
        ([[2, "x"], [0, 1]], "classes[0].profile[1]: profile entry must be an integer", "ParseError"),
        ([[True, 2], [0, 1]], "classes[0].profile[0]: profile entry must be an integer", "ParseError"),
        ([[0, 2], [0, "x"]], "classes[0].profile[1]: profile bit must be 0 or 1, got 2", "ValidationError"),
    ],
)
def test_profile_faults_report_message_and_path(capsys, tmp_path, profiles, message, error_type):
    doc = {"attributes": ["p", "q"], "classes": [{"name": f"c{i}", "profile": p} for i, p in enumerate(profiles)]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, ["analyze", str(path)])
    assert code == 2
    assert out == json.dumps({"error": {"type": error_type, "message": message}}, indent=2) + "\n"


def test_profiles_past_the_fast_bit_check_keep_their_error_documents(capsys, tmp_path):
    # A profile of plain ints 0 and 1 is accepted without a per-bit walk;
    # a bool, a float equal to 1 or an int out of range still fails it.
    path = tmp_path / "bad.json"
    for bit, error_type, message in (
        ("true", "ParseError", "profile entry must be an integer"),
        ("1.0", "ParseError", "profile entry must be an integer"),
        ("2", "ValidationError", "profile bit must be 0 or 1, got 2"),
    ):
        path.write_text(
            '{"attributes": ["p", "q"], "classes": [{"name": "A", "profile": [1, 0]}, '
            f'{{"name": "B", "profile": [0, {bit}]}}]}}'
        )
        code, out = run_cli(capsys, ["analyze", str(path)])
        assert code == 2
        assert out == (
            '{\n  "error": {\n'
            f'    "type": "{error_type}",\n'
            f'    "message": "classes[1].profile[1]: {message}"\n'
            "  }\n}\n"
        )
