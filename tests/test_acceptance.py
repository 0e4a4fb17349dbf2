"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one ``[acceptance] criterion N (...): PASS/FAIL`` line
(visible with ``pytest -s`` or in the captured output) and enforces its
runtime budget.

Criterion 6 is a documented red: inclusion-minimal distinguishing sets of
unequal cardinality occur in roughly 10-15% of uniform random schemes
(the ascending-removal greedy then lands on a non-minimum one), so
greedy == exhaustive cannot hold over an unfiltered random corpus.  The
test asserts the criterion verbatim and is marked strict-xfail with the
finding; see the matroid tests for the positive statement that does hold
(greedy == exhaustive whenever all minimal sets share one cardinality).
"""
import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from corpus import (
    random_colliding_scheme,
    random_injective_scheme,
    random_scheme,
    random_scenario,
    table1_scheme,
)
from golden_cases import GOLDEN_CASES, fill
from discern import checks, cli
from discern.barrier import quotient
from discern.matroid import distinguishing_dimension, enumerate_minimal_distinguishing
from discern.noisy import NoiseConfig, simulate_noisy_identification
from discern.resolver import resolve, resolution_query_count, resolved_value, well_formed, normalize
from discern.scheme import serialize_scheme
from discern.strategies import StrategyDescriptor, decode_distortion, identify, tag_bits_for
from discern.tradeoff import VIOLATION, TradeoffPoint, achievable_points, converse_check


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.2f}s "
          f"(budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s exceeds budget {budget_seconds}s"


def test_criterion_1_table_reproduction(tmp_path, capsys):
    with criterion(1, "Table-1 reproduction", 5.0):
        scheme = table1_scheme(seed=1001, k=1000, n=50)
        path = tmp_path / "table1.json"
        path.write_text(serialize_scheme(scheme))
        code = cli.run(["tradeoff", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        points = json.loads(out)["points"]
        assert {"L": 10, "W": 1, "D": 0.0, "strategy": "nominal"} in points
        assert {"L": 0, "W": 50, "D": 0.0, "strategy": "exhaustive"} in points


def test_criterion_2_matroid_axiom_suite():
    with criterion(2, "matroid axiom suite", 30.0):
        rng = random.Random(615001)
        findings = []
        tallies = {"ok": 0, "failed": 0, "skipped": 0}
        for index in range(500):
            k = rng.randint(1, 8)
            n = rng.randint(0, 6)
            scheme = random_scheme(rng, k, n, with_masses=rng.random() < 0.3)
            # Axioms: zero tolerance, every subset.
            for outcome in checks.check_closure_axioms(scheme, limit=6):
                assert outcome.ok, f"scheme #{index}: {outcome.name}: {outcome.detail}"
            # Exchange and equal cardinality: recorded per instance.
            for outcome in checks.check_basis_family(scheme):
                if outcome.skipped:
                    tallies["skipped"] += 1
                elif outcome.ok:
                    tallies["ok"] += 1
                else:
                    tallies["failed"] += 1
                    findings.append(
                        f"scheme #{index} ({scheme.profile_ints}): {outcome.name}: {outcome.detail}"
                    )
        print(f"[acceptance] criterion 2: basis checks {tallies}, "
              f"{len(findings)} counterexamples logged")
        for line in findings[:5]:
            print(f"[acceptance]   finding: {line}")
        assert tallies["ok"] + tallies["failed"] > 0


def test_criterion_3_barrier_factoring():
    with criterion(3, "barrier factoring", 10.0):
        rng = random.Random(615003)
        for _ in range(100):
            scheme = random_colliding_scheme(rng, rng.randint(2, 8), rng.randint(1, 6))
            for group in quotient(scheme):
                if len(group) < 2:
                    continue
                for kind in ("exhaustive", "adaptive"):
                    strat = StrategyDescriptor(kind)
                    transcripts = [identify(scheme, strat, c) for c in group]
                    first = transcripts[0]
                    for t in transcripts[1:]:
                        assert t.queries == first.queries
                        assert t.output == first.output


def test_criterion_4_converse_non_violation():
    with criterion(4, "converse non-violation", 10.0):
        rng = random.Random(615004)
        for _ in range(200):
            scheme = random_colliding_scheme(
                rng, rng.randint(2, 8), rng.randint(1, 6), with_masses=rng.random() < 0.3
            )
            bound = tag_bits_for(scheme.k)
            for point in achievable_points(scheme, hybrid_tags=(0, 1, 2)):
                assert not (point.D == 0.0 and point.L < bound), point
                assert converse_check(scheme, point) != VIOLATION
            synthetic = TradeoffPoint(0, 100, 0.0, StrategyDescriptor.exhaustive())
            assert converse_check(scheme, synthetic) == VIOLATION


def _brute_force_decoder_minimum(scheme) -> float:
    observed = sorted(set(scheme.profile_ints))
    index = {p: i for i, p in enumerate(observed)}
    best = 1.0
    for assignment in itertools.product(range(scheme.k), repeat=len(observed)):
        error = sum(
            scheme.masses[c]
            for c in range(scheme.k)
            if assignment[index[scheme.profile_ints[c]]] != c
        )
        best = min(best, error)
    return best


def test_criterion_5_decoder_optimality():
    with criterion(5, "decoder optimality oracle", 20.0):
        rng = random.Random(615005)
        for _ in range(200):
            scheme = random_scheme(
                rng, rng.randint(1, 5), rng.randint(0, 4), with_masses=rng.random() < 0.5
            )
            expected = _brute_force_decoder_minimum(scheme)
            assert abs(decode_distortion(scheme) - expected) <= 1e-12


def _dimension_corpus():
    rng = random.Random(615006)
    schemes = []
    for _ in range(200):
        k = rng.randint(2, 10)
        n = max(rng.randint(1, 12), (k - 1).bit_length())
        schemes.append(random_injective_scheme(rng, k, n))
    return schemes


def _literal_greedy_dimension(scheme) -> int:
    """Oracle: drop attributes ascending while every pairwise XOR is still hit."""
    pair_masks = [a ^ b for a, b in itertools.combinations(scheme.profile_ints, 2)]
    mask = (1 << scheme.n) - 1
    for q in range(scheme.n):
        if all(pm & mask & ~(1 << q) for pm in pair_masks):
            mask &= ~(1 << q)
    return mask.bit_count()


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unequal-cardinality inclusion-minimal distinguishing sets occur in "
        "random schemes, so first-index greedy removal does not always reach "
        "the exhaustive minimum; counterexamples printed below and pinned in "
        "test_matroid.py (UNEQUAL_BASES)"
    ),
)
def test_criterion_6_dimension_oracle():
    with criterion(6, "dimension oracle", 30.0):
        mismatches = []
        for scheme in _dimension_corpus():
            exact = distinguishing_dimension(scheme).dimension
            greedy = _literal_greedy_dimension(scheme)
            if greedy != exact:
                mismatches.append((scheme.profile_ints, exact, greedy))
        if mismatches:
            print(f"[acceptance] criterion 6: {len(mismatches)}/200 schemes where greedy "
                  f"exceeds the exhaustive minimum (expected finding)")
            for profiles, exact, greedy in mismatches[:5]:
                print(f"[acceptance]   profiles={profiles}: exact={exact}, greedy={greedy}")
        assert mismatches == [], (
            f"greedy != exhaustive minimum on {len(mismatches)} of 200 corpus schemes; "
            "first case: profiles="
            f"{mismatches[0][0]} exact={mismatches[0][1]} greedy={mismatches[0][2]}"
        )


def test_criterion_7_noisy_envelope(s2):
    with criterion(7, "noisy envelope", 60.0):
        d = distinguishing_dimension(s2).dimension
        for eps in (0.05, 0.1, 0.2):
            cfg = NoiseConfig(epsilon=eps, delta=0.01, trials=10_000, seed=615007)
            result = simulate_noisy_identification(s2, cfg)
            assert result.empirical_error <= 0.01, (eps, result.empirical_error)
            envelope = d * math.log(1 / 0.01) / (1 - 2 * eps) ** 2
            assert envelope / 4 <= result.mean_queries <= envelope * 4, (
                eps, result.mean_queries, envelope
            )


def test_criterion_8_resolver_suite(fixtures_dir):
    with criterion(8, "resolver suite", 5.0):
        rng = random.Random(615008)
        for _ in range(1000):
            scenario = random_scenario(rng)
            first = resolve(scenario)
            assert first == resolve(scenario)
            scalar = resolved_value(scenario)
            if first is None:
                assert scalar == 0
            else:
                assert first.value != 0
                assert scalar == first.value
            assert resolution_query_count(scenario) <= len(scenario.scopes) * len(scenario.mro)
            if well_formed(scenario.registry):
                for t in range(16):
                    once = normalize(scenario.registry, t)
                    assert normalize(scenario.registry, once) == once
        # The three hand-derived scenarios.
        from discern.resolver import parse_scenario

        scenario, obj, lazy = parse_scenario((fixtures_dir / "scenario1.json").read_text())
        result = resolve(scenario)
        assert (result.value, result.scope, result.source_type) == (5, "s0", 1)
        scenario2, _, _ = parse_scenario((fixtures_dir / "scenario2.json").read_text())
        assert resolve(scenario2) is None
        scenario3, _, _ = parse_scenario((fixtures_dir / "scenario3.json").read_text())
        assert resolve(scenario3) is None


def test_criterion_9_cli_golden_files(capsys, fixtures_dir, golden_dir):
    with criterion(9, "CLI golden files", 5.0):
        for args, golden, expected_code in GOLDEN_CASES:
            code = cli.run(fill(args, fixtures_dir))
            out = capsys.readouterr().out
            assert code == expected_code, (args, code)
            assert out == (golden_dir / golden).read_text(encoding="utf-8"), args
