"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spans import Tracer

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_workload_runs_and_passes_checks(workload, tmp_path):
    result, lines = run.run_workload(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0, "\n".join(lines)
    requests = len(workloads.build_session(workload, 3, 0, tmp_path, tiny=True))
    assert result["attempted"] == 12 + (run.MIN_SESSIONS + 1) * requests
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[name] for name, m in result["metrics"].items())


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_input_bytes(workload, tmp_path):
    def files(seed, where):
        workloads.build_session(workload, seed, 1, where, tiny=True)
        return {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    first = files(7, tmp_path / "a")
    assert first == files(7, tmp_path / "b")
    assert first != files(8, tmp_path / "c")


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer_metric(workload):
    from discern import matroid, strategies

    before = (matroid.block_dimension, strategies.tag_partition, strategies.adaptive_tree)
    result, lines = run.run_workload(workload, seed=5, seconds=0, trace=True, tiny=True)
    assert result["correct"], "\n".join(lines)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    text = "\n".join(lines)
    assert all(name in text for name in run.TRACE_ONLY)
    assert (matroid.block_dimension, strategies.tag_partition, strategies.adaptive_tree) == before


def test_traced_counters_on_table1():
    result, lines = run.run_workload("table1", seed=5, seconds=0, trace=True, tiny=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    k = workloads.WORKLOADS["table1"].tiny["k"]
    # analyze, dimension and tradeoff parse one scheme each, simulate and noise one more each.
    assert metrics["scheme.calls"] == 5
    # Every identify in the adaptive simulation falls back from the exact tree (k > 24).
    assert metrics["strategies.identify_calls"] == k
    # One more fallback each for tradeoff and the two epsilons of simulate-noise.
    assert metrics["trees.limit_fallbacks"] == k + 3
    assert metrics["trees.cache_hits"] == k
    assert metrics["matroid.pair_masks"] == k * (k - 1) // 2
    assert metrics["matroid.block_dimension_calls"] == 0


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.begin_request(0, "tradeoff")
    tracer.spans += [
        (0, -1, "cli", "run", 0.0, 10.0),
        (0, 0, "trees", "adaptive_tree", 2.0, 5.0),
        (0, 1, "matroid", "block_dimension", 3.0, 4.0),
        (0, 0, "trees", "walk", 6.0, 7.0),
    ]
    metrics = tracer.end_request()
    assert metrics["cli.self_ms"] == pytest.approx(6000.0)
    assert metrics["trees.self_ms"] == pytest.approx(3000.0)
    assert metrics["matroid.self_ms"] == pytest.approx(1000.0)
    assert metrics["matroid.block_dimension_ms"] == pytest.approx(1000.0)
    assert metrics["trees.calls"] == 2


def test_corrupted_output_counts_as_failure(monkeypatch):
    cli = run.load_cli()
    original = cli.run

    def corrupting(argv):
        if argv[0] != "analyze" or "fixtures" in argv[1]:
            return original(argv)
        with run.contextlib.redirect_stdout(run.io.StringIO()) as inner:
            code = original(argv)
        doc = json.loads(inner.getvalue())
        doc["injective"] = not doc["injective"]
        print(json.dumps(doc))
        return code

    monkeypatch.setattr(cli, "run", corrupting)
    result, lines = run.run_workload("table1", seed=3, seconds=0, trace=False, tiny=True)
    assert not result["correct"]
    assert result["failed"] == run.MIN_SESSIONS + 1
    assert any("injective flag wrong" in line for line in lines)


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edges", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
