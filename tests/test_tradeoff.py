import random
import sys
import time
from collections import Counter

import pytest

from corpus import (
    random_colliding_scheme,
    random_injective_scheme,
    random_scheme,
    scheme_from_profiles,
    table1_scheme,
)
from discern import matroid, strategies
from discern.errors import BarrierError, EmptyInputError
from discern.matroid import distinguishing_dimension
from discern.strategies import StrategyDescriptor, tag_bits_for
from discern.tradeoff import (
    OK,
    VIOLATION,
    LocalizationCounts,
    TradeoffPoint,
    achievable_points,
    converse_check,
    hybrid_tag_plan,
    localization_counts,
    lossy_budget,
    pareto_frontier,
)
from discern.trees import adaptive_tree


def point(L, W, D, kind="exhaustive", bits=0):
    if kind == "nominal":
        return TradeoffPoint(L, W, D, StrategyDescriptor("nominal", bits))
    if kind == "hybrid":
        return TradeoffPoint(L, W, D, StrategyDescriptor.hybrid(bits))
    return TradeoffPoint(L, W, D, StrategyDescriptor(kind))


def triples(points):
    return [(p.L, p.W, p.D) for p in points]


def test_achievable_points_s2(s2):
    pts = achievable_points(s2)
    assert (2, 1, 0.0) in triples(pts)  # nominal
    assert (0, 2, 0.0) in triples(pts)  # adaptive (depth 2, injective)
    assert [p.source.kind for p in pts] == ["nominal", "exhaustive", "adaptive"]


def test_achievable_points_s1(s1):
    pts = achievable_points(s1)
    by_kind = {p.source.kind: p for p in pts}
    assert (by_kind["nominal"].L, by_kind["nominal"].W, by_kind["nominal"].D) == (2, 1, 0.0)
    exhaustive = by_kind["exhaustive"]
    assert (exhaustive.L, exhaustive.W) == (0, 2)
    assert exhaustive.D == pytest.approx(1 / 3, abs=1e-12)


def test_achievable_points_hybrid_order(s2):
    pts = achievable_points(s2, hybrid_tags=(2, 0, 1))
    kinds = [p.source.kind for p in pts]
    assert kinds == ["nominal", "exhaustive", "adaptive", "hybrid", "hybrid", "hybrid"]
    assert [p.L for p in pts[3:]] == [0, 1, 2]
    assert triples(pts)[5] == (2, 1, 0.0)  # full-tag hybrid matches nominal


def test_pareto_keeps_incomparable():
    pts = [point(2, 1, 0.0), point(0, 50, 0.0)]
    assert triples(pareto_frontier(pts)) == [(2, 1, 0.0), (0, 50, 0.0)]


def test_pareto_drops_dominated():
    pts = [point(2, 1, 0.0), point(2, 5, 0.0)]
    assert triples(pareto_frontier(pts)) == [(2, 1, 0.0)]


def test_pareto_s1_points_incomparable():
    pts = [point(0, 2, 1 / 3), point(2, 1, 0.0)]
    assert len(pareto_frontier(pts)) == 2


def test_pareto_collapses_duplicates():
    pts = [point(1, 1, 0.5), point(1, 1, 0.5), point(1, 1, 0.5, "adaptive")]
    assert len(pareto_frontier(pts)) == 1


def test_pareto_empty_input():
    with pytest.raises(EmptyInputError):
        pareto_frontier([])


def test_pareto_idempotent():
    rng = random.Random(31)
    for _ in range(30):
        pts = [
            point(rng.randint(0, 5), rng.randint(0, 9), rng.choice([0.0, 0.25, 0.5]))
            for _ in range(rng.randint(1, 12))
        ]
        first = pareto_frontier(pts)
        assert pareto_frontier(first) == first


def test_converse_examples(s1, s2):
    assert converse_check(s1, point(0, 100, 0.0)) == VIOLATION
    assert converse_check(s1, point(2, 1, 0.0, "nominal", 2)) == OK
    assert converse_check(s2, point(0, 2, 0.0, "adaptive")) == OK


def test_achievable_points_never_violate():
    rng = random.Random(32)
    for _ in range(40):
        scheme = random_scheme(rng, rng.randint(1, 8), rng.randint(0, 5), with_masses=rng.random() < 0.4)
        for p in achievable_points(scheme, hybrid_tags=(0, 1, 2)):
            assert converse_check(scheme, p) == OK


def test_nominal_point_never_dominated_on_barrier_schemes():
    rng = random.Random(33)
    for _ in range(30):
        scheme = random_colliding_scheme(rng, rng.randint(2, 8), rng.randint(1, 5))
        pts = achievable_points(scheme, hybrid_tags=(0, 1))
        frontier = triples(pareto_frontier(pts))
        nominal = (tag_bits_for(scheme.k), 1, 0.0)
        assert nominal in frontier


def test_hybrid_plan_s2(s2):
    full = hybrid_tag_plan(s2, 2)
    assert full.groups == ((0,), (1,), (2,), (3,))
    assert full.max_group_dimension == 0
    half = hybrid_tag_plan(s2, 1)
    assert sorted(len(g) for g in half.groups) == [2, 2]
    assert half.max_group_dimension == 1
    assert half.exhaustive_max_group_dimension == 1
    none = hybrid_tag_plan(s2, 0)
    assert none.groups == ((0, 1, 2, 3),)
    assert none.max_group_dimension == distinguishing_dimension(s2).dimension


def test_hybrid_plan_full_tags_random():
    rng = random.Random(34)
    for _ in range(20):
        scheme = random_scheme(rng, rng.randint(1, 9), rng.randint(0, 5))
        plan = hybrid_tag_plan(scheme, tag_bits_for(scheme.k))
        assert all(len(g) == 1 for g in plan.groups)
        assert plan.max_group_dimension == 0
        assert plan.residual_distortion == 0.0


def test_hybrid_plan_residual_on_collisions(s1):
    plan = hybrid_tag_plan(s1, 1)
    assert plan.residual_distortion == pytest.approx(1 / 3, abs=1e-12)


def test_greedy_plan_never_worse_than_exhaustive():
    rng = random.Random(35)
    for _ in range(25):
        k = rng.randint(2, 8)
        scheme = random_scheme(rng, k, rng.randint(1, 5))
        L = rng.randint(0, 2)
        plan = hybrid_tag_plan(scheme, L)
        if plan.exhaustive_max_group_dimension is not None:
            assert plan.max_group_dimension >= plan.exhaustive_max_group_dimension


def block_dimension_calls(monkeypatch) -> list:
    """Record the member set of every ``matroid.block_dimension`` call."""
    calls = []
    original = matroid.block_dimension

    def counting(scheme, members, *args, **kwargs):
        calls.append(frozenset(members))
        return original(scheme, members, *args, **kwargs)

    monkeypatch.setattr(matroid, "block_dimension", counting)
    return calls


def test_plan_computes_each_group_dimension_once(monkeypatch):
    scheme = random_injective_scheme(random.Random(36), 20, 16)
    expected = [hybrid_tag_plan(scheme, L) for L in (1, 2, 3)]
    calls = block_dimension_calls(monkeypatch)
    # The search evaluates only trial groups that can decide a move, and
    # the plan reads each final group of two or more classes once more.
    for L, plan, count in zip((1, 2, 3), expected, (22, 4, 8)):
        calls.clear()
        assert hybrid_tag_plan(scheme, L) == plan
        assert len(set(calls)) == count
        final = Counter(frozenset(g) for g in plan.groups if len(g) > 1)
        assert Counter(calls) - Counter(set(calls)) == final


def test_table1_hybrid_points_within_the_criterion_1_budget():
    # `tradeoff --tags 1 2 3` on Table-1 (k=1000/n=50) plans L = 1, 2, 3.
    scheme = table1_scheme()
    start = time.perf_counter()
    points = achievable_points(scheme, (1, 2, 3))
    assert time.perf_counter() - start < 5.0
    assert [(p.L, p.W) for p in points[3:]] == [(1, 10), (2, 9), (3, 8)]


def test_full_width_plan_makes_no_dimension_call(monkeypatch):
    # Every group is one class, and one profile needs no query.
    rng = random.Random(63)
    schemes = [random_injective_scheme(rng, 20, 16), random_colliding_scheme(rng, 9, 4)]
    calls = block_dimension_calls(monkeypatch)
    for scheme in schemes:
        L = tag_bits_for(scheme.k)
        plan = hybrid_tag_plan(scheme, L)
        assert plan.groups == tuple((c,) for c in range(scheme.k))
        assert plan.max_group_dimension == 0
    assert calls == []


def test_exhaustive_reference_shares_the_plan_dimensions(monkeypatch):
    rng = random.Random(37)
    calls = block_dimension_calls(monkeypatch)
    searched = []
    search = strategies.tag_partition

    def recording_search(*args):
        groups = search(*args)
        searched.append(len(calls))
        return groups

    monkeypatch.setattr(strategies, "tag_partition", recording_search)
    for _ in range(20):
        scheme = random_scheme(rng, rng.randint(3, 8), rng.randint(1, 5))
        for L in (1, 2):
            calls.clear()
            hybrid_tag_plan(scheme, L)
            plan_calls = calls[searched[-1]:]
            assert len(plan_calls) == len(set(plan_calls))


def walk_limited(scheme, tree, class_index, budget):
    node = tree.root
    used = 0
    while not node.is_leaf and used < budget:
        node = node.one if scheme.classes[class_index].profile.bits[node.attribute] else node.zero
        used += 1
    return node


def truncation_oracle(scheme, budget):
    """Independent per-class simulation of the truncated-tree decoder."""
    from discern.trees import adaptive_tree

    tree = adaptive_tree(scheme)
    error = 0.0
    for c in range(scheme.k):
        leaf = walk_limited(scheme, tree, c, budget)
        best = max(leaf.candidates, key=lambda i: (scheme.masses[i], -i))
        if best != c:
            error += scheme.masses[c]
    return error


def test_lossy_budget_s1(s1):
    # Enumerated truncations: depth 0 leaves D = 2/3, depth 1 already 1/3.
    assert truncation_oracle(s1, 0) == pytest.approx(2 / 3, abs=1e-12)
    assert truncation_oracle(s1, 1) == pytest.approx(1 / 3, abs=1e-12)
    result = lossy_budget(s1, 0.5)
    assert result.depth == 1
    assert result.distortion == pytest.approx(1 / 3, abs=1e-12)


def test_lossy_budget_s2(s2):
    result = lossy_budget(s2, 0.01)
    assert result.depth == 2
    assert result.distortion == 0.0


def test_lossy_budget_matches_oracle():
    rng = random.Random(36)
    for _ in range(25):
        scheme = random_scheme(rng, rng.randint(1, 6), rng.randint(0, 5), with_masses=rng.random() < 0.5)
        eps = rng.choice([0.05, 0.2, 0.5, 0.9])
        try:
            result = lossy_budget(scheme, eps)
        except BarrierError:
            # Floor above target: every truncation must exceed eps.
            assert truncation_oracle(scheme, scheme.n) > eps
            continue
        assert truncation_oracle(scheme, result.depth) == pytest.approx(result.distortion, abs=1e-12)
        assert result.distortion <= eps
        if result.depth > 0:
            assert truncation_oracle(scheme, result.depth - 1) > eps


def recursive_truncated_distortion(scheme, tree, depth: int) -> float:
    """Reference: residual mass of the tree cut at ``depth``, summed by recursion."""

    def residual_mass(node, budget: int) -> float:
        if node.is_leaf or budget == 0:
            masses = [scheme.masses[c] for c in node.candidates]
            return sum(masses) - max(masses)
        return residual_mass(node.zero, budget - 1) + residual_mass(node.one, budget - 1)

    return residual_mass(tree.root, depth)


def test_lossy_budget_matches_recursive_reference():
    rng = random.Random(808)
    for _ in range(300):
        make = rng.choice([random_scheme, random_injective_scheme, random_colliding_scheme])
        k = rng.randint(2, 12)
        n = rng.randint(max(1, (k - 1).bit_length()), 8)
        scheme = make(rng, k, n, with_masses=rng.random() < 0.5)
        eps = rng.choice([1e-3, 0.05, 0.2, 0.5, 0.9])
        tree = adaptive_tree(scheme)
        expected = next(
            (d for d in range(tree.depth + 1)
             if recursive_truncated_distortion(scheme, tree, d) <= eps),
            None,
        )
        try:
            result = lossy_budget(scheme, eps)
        except BarrierError as exc:
            assert expected is None
            floor = float(str(exc).rsplit(" ", 1)[1])
            assert floor == pytest.approx(
                recursive_truncated_distortion(scheme, tree, tree.depth), abs=1e-12
            )
            continue
        assert result.depth == expected
        assert result.distortion == pytest.approx(
            recursive_truncated_distortion(scheme, tree, expected), abs=1e-12
        )


def test_lossy_budget_on_a_tree_deeper_than_the_recursion_limit():
    k = 1100
    scheme = scheme_from_profiles([tuple(int(i == j) for j in range(k)) for i in range(k)])
    assert adaptive_tree(scheme).depth == k - 1 > sys.getrecursionlimit()
    result = lossy_budget(scheme, 1e-4)
    assert (result.depth, result.distortion) == (k - 1, 0.0)


def test_lossy_budget_precondition(s2):
    for bad in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            lossy_budget(s2, bad)


def test_localization_counts():
    assert localization_counts(5, 100) == LocalizationCounts(1, 5, 100)
    assert localization_counts(1, 0) == LocalizationCounts(1, 1, 0)
    assert localization_counts(1000, 1000) == LocalizationCounts(1, 1000, 1000)
    with pytest.raises(ValueError):
        localization_counts(0, 5)
    with pytest.raises(ValueError):
        localization_counts(3, -1)


def test_tradeoff_point_validation():
    with pytest.raises(ValueError):
        TradeoffPoint(-1, 0, 0.0, StrategyDescriptor.exhaustive())
    with pytest.raises(ValueError):
        TradeoffPoint(0, 0, 1.5, StrategyDescriptor.exhaustive())
