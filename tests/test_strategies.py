import itertools
import json
import math
import random
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import (
    random_colliding_scheme,
    random_injective_scheme,
    random_scheme,
    scheme_from_profiles,
    table1_scheme,
)
from discern import strategies, trees
from discern.barrier import quotient
from discern.errors import BarrierError, LimitError
from discern.strategies import (
    TAG_READ,
    StrategyDescriptor,
    decode_distortion,
    identify,
    hybrid_tag_plan,
    identify_all,
    tag_bits_for,
    tag_partition,
    witness_eq_cost,
    witness_id_cost,
)
from discern.scheme import Scheme
from discern.tradeoff import _hybrid_worst_queries
from discern.trees import (
    EXACT_TREE_CLASS_LIMIT,
    TreeNode,
    _depth_bound,
    _fewest_reaching,
    adaptive_tree,
    greedy_decision_tree,
    optimal_decision_tree,
    tree_to_dict,
    walk,
)

# Each consecutive pair differs in exactly one attribute, so the only minimal
# distinguishing set is all four; an adaptive tree still identifies in three.
STAIRCASE = scheme_from_profiles(
    [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1)]
)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        StrategyDescriptor("telepathy")
    with pytest.raises(ValueError):
        StrategyDescriptor("nominal", -1)
    with pytest.raises(ValueError):
        StrategyDescriptor("adaptive", 2)


def test_nominal_identify(s2):
    t = identify(s2, StrategyDescriptor.nominal_for(s2), 2)
    assert t.queries == (TAG_READ,)
    assert t.output == 2 and t.query_count == 1 and not t.undecided


def test_nominal_tag_bits_enforced(s2):
    with pytest.raises(ValueError):
        identify(s2, StrategyDescriptor("nominal", 5), 0)


def test_exhaustive_identify(s1, s2):
    t = identify(s2, StrategyDescriptor.exhaustive(), 2)
    assert t.query_count == 2 and t.output == 2 and not t.undecided
    t = identify(s1, StrategyDescriptor.exhaustive(), 2)
    assert t.query_count == 2 and t.output == 0 and t.undecided


def test_adaptive_identify(s2):
    for c in range(4):
        t = identify(s2, StrategyDescriptor.adaptive(), c)
        assert t.output == c and t.query_count == 2 and not t.undecided


def test_identify_bounds(s2):
    with pytest.raises(IndexError):
        identify(s2, StrategyDescriptor.adaptive(), 4)


def test_barrier_factoring_fixture(s1):
    for kind in ("exhaustive", "adaptive"):
        a = identify(s1, StrategyDescriptor(kind), 0)
        c = identify(s1, StrategyDescriptor(kind), 2)
        assert a.queries == c.queries
        assert a.output == c.output


def test_barrier_factoring_random():
    rng = random.Random(21)
    for _ in range(25):
        scheme = random_colliding_scheme(rng, rng.randint(2, 8), rng.randint(1, 6))
        groups = [g for g in quotient(scheme) if len(g) > 1]
        for group in groups:
            for kind in ("exhaustive", "adaptive"):
                transcripts = [identify(scheme, StrategyDescriptor(kind), c) for c in group]
                assert len({t.queries for t in transcripts}) == 1
                assert len({t.output for t in transcripts}) == 1


def test_witness_id_cost(s2):
    assert witness_id_cost(s2, StrategyDescriptor.nominal_for(s2)) == 1
    assert witness_id_cost(s2, StrategyDescriptor.exhaustive()) == 2
    assert witness_id_cost(s2, StrategyDescriptor.adaptive()) == 2


def test_witness_id_cost_table1_values():
    scheme = table1_scheme()
    assert tag_bits_for(scheme.k) == 10
    assert witness_id_cost(scheme, StrategyDescriptor.nominal_for(scheme)) == 1
    assert witness_id_cost(scheme, StrategyDescriptor.exhaustive()) == 50


def test_witness_id_cost_is_the_plan_depth():
    # Library W (worst transcript) and tradeoff W (tree depth) must agree.
    rng = random.Random(30)
    for make in (random_scheme, random_injective_scheme, random_colliding_scheme):
        for _ in range(12):
            k = rng.randint(2, 12)
            scheme = make(rng, k, rng.randint((k - 1).bit_length(), 7))
            assert witness_id_cost(scheme, StrategyDescriptor.adaptive()) == adaptive_tree(scheme).depth
            for L in (1, 2):
                plan = hybrid_tag_plan(scheme, L)
                assert witness_id_cost(scheme, StrategyDescriptor.hybrid(L)) == _hybrid_worst_queries(
                    scheme, plan.groups
                )


def test_witness_id_cost_builds_one_adaptive_tree(monkeypatch):
    calls = []

    def counting(scheme):
        calls.append(scheme)
        return adaptive_tree(scheme)

    monkeypatch.setattr(strategies, "adaptive_tree", counting)
    scheme = random_injective_scheme(random.Random(32), 12, 6)
    assert witness_id_cost(scheme, StrategyDescriptor.adaptive()) == adaptive_tree(scheme).depth
    assert len(calls) == 1


def test_identify_all_matches_identify_per_class():
    rng = random.Random(31)
    for _ in range(15):
        scheme = random_colliding_scheme(rng, rng.randint(2, 10), rng.randint(1, 6))
        for strat in (
            StrategyDescriptor.nominal_for(scheme),
            StrategyDescriptor.exhaustive(),
            StrategyDescriptor.adaptive(),
            StrategyDescriptor.hybrid(1),
        ):
            order = rng.sample(range(scheme.k), scheme.k)
            assert identify_all(scheme, strat, order) == [identify(scheme, strat, c) for c in order]
    with pytest.raises(IndexError):
        identify_all(STAIRCASE, StrategyDescriptor.adaptive(), [0, STAIRCASE.k])


def test_nominal_cost_independent_of_size():
    rng = random.Random(22)
    for _ in range(10):
        scheme = random_scheme(rng, rng.randint(1, 9), rng.randint(0, 6))
        assert witness_id_cost(scheme, StrategyDescriptor.nominal_for(scheme)) == 1


def test_witness_eq_cost(s2):
    assert witness_eq_cost(s2, StrategyDescriptor.nominal_for(s2)) == (2, 2)
    assert witness_eq_cost(s2, StrategyDescriptor.adaptive()) == (2, 4)
    single = scheme_from_profiles([(0, 1)])
    assert witness_eq_cost(single, StrategyDescriptor.adaptive()) == (0, 0)


def test_witness_eq_cost_needs_injective_without_tags(s1):
    with pytest.raises(BarrierError):
        witness_eq_cost(s1, StrategyDescriptor.adaptive())
    assert witness_eq_cost(s1, StrategyDescriptor.nominal_for(s1)) == (2, 2)


def test_witness_eq_cost_hybrid(s2):
    assert witness_eq_cost(s2, StrategyDescriptor.hybrid(2)) == (2, 2)
    partial = witness_eq_cost(s2, StrategyDescriptor.hybrid(1))
    assert partial == (2, 2 * witness_id_cost(s2, StrategyDescriptor.hybrid(1)))


def test_optimal_tree_depths(s2):
    assert optimal_decision_tree(s2).depth == 2
    wide = scheme_from_profiles([(0, 0, 0), (1, 1, 1)])
    assert optimal_decision_tree(wide).depth == 1
    single = scheme_from_profiles([(0, 1)])
    assert optimal_decision_tree(single).depth == 0


def test_exact_tree_limit():
    rng = random.Random(23)
    big = random_injective_scheme(rng, 25, 6)
    with pytest.raises(LimitError):
        optimal_decision_tree(big)
    assert greedy_decision_tree(big).depth <= big.n


def test_tree_depth_bounds():
    rng = random.Random(24)
    for _ in range(30):
        k = rng.randint(1, 10)
        n = max(rng.randint(0, 6), (k - 1).bit_length())
        scheme = random_scheme(rng, k, n)
        exact = optimal_decision_tree(scheme)
        greedy = greedy_decision_tree(scheme)
        distinct = len(set(scheme.profile_ints))
        assert exact.depth <= scheme.n
        assert exact.depth >= math.ceil(math.log2(distinct)) if distinct > 1 else exact.depth == 0
        assert greedy.depth >= exact.depth


def test_adaptive_depth_can_beat_minimal_set_size():
    # Worst-case adaptive cost is not bounded below by the distinguishing
    # dimension: the staircase needs all 4 attributes in any single
    # distinguishing set, yet adaptive identification finishes in 3.
    from discern.matroid import distinguishing_dimension

    assert distinguishing_dimension(STAIRCASE).dimension == 4
    assert optimal_decision_tree(STAIRCASE).depth == 3


def test_leaf_candidates_are_path_consistent(s1):
    tree = optimal_decision_tree(s1)
    for c in range(s1.k):
        _, leaf = walk(tree, s1.classes[c].profile.bits)
        assert c in leaf.candidates


def collect_paths(node, prefix=()):
    if node.is_leaf:
        yield prefix
        return
    yield from collect_paths(node.zero, prefix + (node.attribute,))
    yield from collect_paths(node.one, prefix + (node.attribute,))


def test_no_attribute_repeats_on_any_path():
    rng = random.Random(29)
    for _ in range(20):
        k = rng.randint(1, 10)
        n = max(rng.randint(0, 6), (k - 1).bit_length())
        scheme = random_scheme(rng, k, n)
        for tree in (optimal_decision_tree(scheme), greedy_decision_tree(scheme)):
            for path in collect_paths(tree.root):
                assert len(path) == len(set(path))


def test_tree_serialization(s2):
    doc = tree_to_dict(optimal_decision_tree(s2).root)
    assert doc["attribute"] in (0, 1)
    assert doc["candidates"] == [0, 1, 2, 3]
    assert "zero" in doc and "one" in doc


def recursive_tree_to_dict(node) -> dict:
    """Reference: the nested form built by recursion."""
    if node.is_leaf:
        return {"candidates": list(node.candidates)}
    return {
        "attribute": node.attribute,
        "candidates": list(node.candidates),
        "zero": recursive_tree_to_dict(node.zero),
        "one": recursive_tree_to_dict(node.one),
    }


def test_tree_serialization_matches_recursive_reference():
    rng = random.Random(61)
    for _ in range(30):
        k = rng.randint(1, 10)
        scheme = random_scheme(rng, k, max(rng.randint(0, 6), (k - 1).bit_length()))
        for tree in (optimal_decision_tree(scheme), greedy_decision_tree(scheme)):
            doc = tree_to_dict(tree.root)
            # Equal key order too, so the JSON text is the same.
            assert json.dumps(doc) == json.dumps(recursive_tree_to_dict(tree.root))


def test_tree_serialization_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    node = TreeNode(None, (depth,))
    for c in reversed(range(depth)):
        node = TreeNode(c, tuple(range(c, depth + 1)), TreeNode(None, (c,)), node)
    doc = tree_to_dict(node)
    for c in range(depth):
        assert (doc["attribute"], doc["zero"]) == (c, {"candidates": [c]})
        doc = doc["one"]
    assert doc == {"candidates": [depth]}


def brute_force_decoder_minimum(scheme) -> float:
    """Oracle: enumerate every profile -> class decoder."""
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


def test_decode_distortion_examples(s1, s2):
    assert decode_distortion(s2) == 0.0
    assert decode_distortion(s1) == pytest.approx(1 / 3, abs=1e-12)
    heavy = scheme_from_profiles([(1,), (1,)], masses=(0.9, 0.1))
    assert decode_distortion(heavy) == pytest.approx(0.1, abs=1e-12)


def test_decode_distortion_matches_brute_force():
    rng = random.Random(25)
    for _ in range(40):
        scheme = random_scheme(rng, rng.randint(1, 5), rng.randint(0, 4), with_masses=rng.random() < 0.5)
        assert decode_distortion(scheme) == pytest.approx(
            brute_force_decoder_minimum(scheme), abs=1e-12
        )


def test_tag_partition_s2(s2):
    assert tag_partition(s2, 2) == ((0,), (1,), (2,), (3,))
    groups = tag_partition(s2, 1)
    assert sorted(len(g) for g in groups) == [2, 2]
    assert tag_partition(s2, 0) == ((0, 1, 2, 3),)


def test_tag_partition_keeps_collisions_together(s1):
    rng = random.Random(26)
    for _ in range(20):
        scheme = random_colliding_scheme(rng, rng.randint(3, 8), rng.randint(1, 5))
        L = rng.randint(0, tag_bits_for(scheme.k) - 1)
        groups = tag_partition(scheme, L)
        assert len(groups) <= 2 ** L
        located = {}
        for gi, group in enumerate(groups):
            for c in group:
                located[c] = gi
        for i in range(scheme.k):
            for j in range(i + 1, scheme.k):
                if scheme.profile_ints[i] == scheme.profile_ints[j]:
                    assert located[i] == located[j]


def test_tag_partition_is_a_partition():
    rng = random.Random(27)
    for _ in range(20):
        scheme = random_scheme(rng, rng.randint(1, 9), rng.randint(0, 5))
        L = rng.randint(0, 4)
        groups = tag_partition(scheme, L)
        members = sorted(c for g in groups for c in g)
        assert members == list(range(scheme.k))


def test_hybrid_full_tags_everywhere():
    rng = random.Random(28)
    for _ in range(15):
        k = rng.randint(1, 8)
        scheme = random_scheme(rng, k, rng.randint(0, 5))
        strat = StrategyDescriptor.hybrid(tag_bits_for(k))
        for c in range(k):
            t = identify(scheme, strat, c)
            assert t.query_count == 1
            assert t.output == c
            assert not t.undecided


def test_hybrid_partial_tags(s2):
    strat = StrategyDescriptor.hybrid(1)
    for c in range(4):
        t = identify(s2, strat, c)
        assert t.queries[0] == TAG_READ
        assert t.output == c
        assert t.query_count == 2


def test_group_tree_keeps_global_indices(s2):
    tree = adaptive_tree(s2, (1, 3))
    assert tree.root.candidates == (1, 3)
    assert len(tree.root.candidates) == 2 and tree.depth <= s2.n
    assert s2.class_names[tree.root.candidates[0]] == "B"
    for c in (1, 3):
        assert walk(tree, s2.classes[c].profile.bits)[1].candidates == (c,)


def literal_subscheme(scheme, members):
    """Reference: ``members`` copied into their own scheme, masses renormalised
    (uniform if the group carries no mass), plus the global index of each
    sub-scheme class."""
    order = sorted(members)
    total = sum(scheme.masses[c] for c in order)
    if total > 0:
        masses = tuple(scheme.masses[c] / total for c in order)
    else:
        masses = tuple(1.0 / len(order) for _ in order)
    sub = Scheme(scheme.attributes, tuple(scheme.classes[c] for c in order), masses)
    return sub, order


def mapped_back(node, order):
    """The sub-scheme tree ``node`` with every candidate replaced by its global index."""
    if node is None:
        return None
    return TreeNode(
        node.attribute,
        tuple(order[m] for m in node.candidates),
        mapped_back(node.zero, order),
        mapped_back(node.one, order),
    )


@st.composite
def schemes_with_groups(draw):
    """An injective, colliding or mixed scheme and one group of its classes.

    Up to 40 classes and a group of any size, so groups lie on both sides
    of the exact-tree class limit; a two-profile pool makes colliding
    members common, and the group's mass may be zero.
    """
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("injective", "colliding", "mixed")))
    if kind == "injective" and k <= 1 << n:
        profile_ints = draw(st.permutations(range(1 << n)))[:k]
    else:
        size = 2 if kind == "colliding" else 1 << n
        pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=size, unique=True))
        profile_ints = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    members = draw(st.permutations(range(k)))[: draw(st.integers(1, k))]
    masses = ()
    weighting = draw(st.sampled_from(("uniform", "random", "zero-group")))
    if weighting == "random":
        weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        masses = tuple(w / sum(weights) for w in weights)
    elif weighting == "zero-group" and len(members) < k:
        masses = tuple(0.0 if c in members else 1.0 / (k - len(members)) for c in range(k))
    scheme = scheme_from_profiles([tuple(p >> q & 1 for q in range(n)) for p in profile_ints], masses)
    return scheme, tuple(sorted(members))


FORTY_CLASSES = random_injective_scheme(random.Random(41), 40, 7)


@settings(max_examples=150, deadline=None)
@given(schemes_with_groups())
@example((FORTY_CLASSES, tuple(range(0, 40, 2))))  # 20 classes: exact
@example((FORTY_CLASSES, tuple(range(30))))  # 30 classes: greedy
def test_group_tree_equals_the_subscheme_tree(case):
    scheme, group = case
    sub, order = literal_subscheme(scheme, group)
    reference = adaptive_tree(sub)
    tree = adaptive_tree(scheme, group)
    assert tree.depth == reference.depth
    assert tree.exact == reference.exact == (len(group) <= EXACT_TREE_CLASS_LIMIT)
    assert tree.root == mapped_back(reference.root, order)


def test_table1_adaptive_tree_never_tries_the_exact_search():
    optimal_decision_tree.cache_clear()
    tree = adaptive_tree(table1_scheme())
    assert not tree.exact
    assert optimal_decision_tree.cache_info().misses == 0
    assert optimal_decision_tree.cache_info().hits == 0


def test_tree_builders_reject_out_of_range_classes(s2):
    for build in (adaptive_tree, optimal_decision_tree, greedy_decision_tree):
        with pytest.raises(IndexError):
            build(s2, (0, 4))


def unbounded_tree(scheme, classes=None):
    """Reference: the literal Hyafil–Rivest memoised search, no bound or cut.

    Returns (depth, root); ties go to the lowest attribute of least depth.
    """
    columns = scheme.column_masks
    memo = {}

    def solve(mask):
        if mask not in memo:
            splits = [q for q, col in enumerate(columns) if mask & col and mask & ~col]
            memo[mask] = min(
                ((1 + max(solve(mask & ~columns[q])[0], solve(mask & columns[q])[0]), q) for q in splits),
                default=(0, None),
            )
        return memo[mask]

    def build(mask):
        q = solve(mask)[1]
        candidates = tuple(c for c in range(scheme.k) if mask >> c & 1)
        if q is None:
            return TreeNode(None, candidates)
        return TreeNode(q, candidates, build(mask & ~columns[q]), build(mask & columns[q]))

    start = sum(1 << c for c in (range(scheme.k) if classes is None else classes))
    return solve(start)[0], build(start)


def one_hot_scheme(k):
    return scheme_from_profiles([tuple(int(q == c) for q in range(k)) for c in range(k)])


@st.composite
def exact_tree_cases(draw):
    """An injective, colliding or mixed scheme (k <= 16, n <= 10) and either
    every class (None) or a subset of them."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("injective", "colliding", "mixed")))
    top = (1 << n) - 1
    if kind == "injective" and k <= 1 << n:
        profile_ints = draw(st.lists(st.integers(0, top), min_size=k, max_size=k, unique=True))
    else:
        size = 2 if kind == "colliding" else k
        pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=size, unique=True))
        profile_ints = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    scheme = scheme_from_profiles([tuple(p >> q & 1 for q in range(n)) for p in profile_ints])
    subset = st.lists(st.integers(0, k - 1), min_size=1, unique=True).map(lambda c: tuple(sorted(c)))
    return scheme, draw(st.none() | subset)


@settings(max_examples=300, deadline=None)
@given(exact_tree_cases())
@example((STAIRCASE, None))
@example((one_hot_scheme(9), (0, 2, 3, 5, 8)))
def test_bounded_search_equals_the_unbounded_search(case):
    scheme, classes = case
    depth, root = unbounded_tree(scheme, classes)
    tree = optimal_decision_tree(scheme, classes)
    assert tree.depth == depth
    assert tree.exact
    assert tree.root == root


def test_one_hot_at_the_class_limit_is_fast():
    # d = n is the paper's worst case: the unbounded search solves all
    # 2^k - 1 non-empty masks here, about 15 s and 170 MB.
    scheme = one_hot_scheme(20)
    optimal_decision_tree.cache_clear()
    start = time.perf_counter()
    tree = optimal_decision_tree(scheme)
    assert time.perf_counter() - start < 0.5
    assert tree.exact and tree.depth == 19


def test_bounded_search_prunes(monkeypatch):
    # The search reduces each mask it solves once.  The pruned search
    # solves 67 masks on this scheme; skipping an attribute only when its
    # bound exceeds the best depth, instead of reaching it, solves 92, and
    # the unbounded search 505.
    solved = []
    reducer = trees._distinct_reducer

    def counting(scheme, start):
        reduce = reducer(scheme, start)
        return lambda mask: solved.append(mask) or reduce(mask)

    monkeypatch.setattr(trees, "_distinct_reducer", counting)
    optimal_decision_tree.cache_clear()
    tree = optimal_decision_tree(random_injective_scheme(random.Random(8), 24, 8))
    assert tree.depth == 5
    assert len(solved) <= 67


def test_skip_threshold_inverts_the_bound():
    for widest in range(1, 13):
        for depth in range(1, 13):
            fewest = next(c for c in range(1, 1 << 13) if _depth_bound(c, widest) >= depth)
            assert _fewest_reaching(depth, widest) == fewest
