import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import (
    random_colliding_scheme,
    random_injective_scheme,
    random_scheme,
    scheme_from_profiles,
    seeded_schemes,
    table1_scheme,
)
from discern import matroid, strategies, trees
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
from discern.matroid import x_equivalent
from discern.scheme import Scheme, profile_of
from discern.tradeoff import _hybrid_worst_queries
from discern.trees import (
    EXACT_TREE_CLASS_LIMIT,
    TreeNode,
    _depth_bound,
    _fewest_reaching,
    adaptive_tree,
    greedy_decision_tree,
    optimal_decision_tree,
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
        _, candidates = walk(tree, s1.classes[c].profile.bits)
        assert c in candidates


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


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_tag_partition_uses_every_tag_value(L):
    scheme = table1_scheme(k=200)
    assert len(tag_partition(scheme, L)) == min(2**L, len(scheme.quotient))


def test_tag_partition_fills_every_group_on_a_seeded_corpus():
    # The fill opens every group, and the search empties none, at exact
    # (n <= 16) and greedy (n = 50) block dimensions alike.
    rng = random.Random(2026)
    for n in (4, 6, 8, 12, 16, 50):
        for build in (random_injective_scheme, random_colliding_scheme, random_scheme):
            for _ in range(2):
                scheme = build(rng, rng.randint(3, min(60, 2**n)), n)
                units = len(scheme.quotient)
                for L in range(tag_bits_for(scheme.k)):
                    groups = tag_partition(scheme, L)
                    assert len(groups) == min(2**L, units), (n, scheme.k, L)
                    assert sorted(c for g in groups for c in g) == list(range(scheme.k))


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_hybrid_width_meets_the_counting_bound_on_table1(L):
    # Some group of any L-bit plan holds at least ceil(D / 2**L) of the D
    # distinct profiles, and telling them apart takes at least ceil(log2)
    # of that count in queries after the one tag read.
    scheme = table1_scheme(k=200)
    distinct = len(scheme.quotient)
    bound = 1 + (math.ceil(distinct / 2**L) - 1).bit_length()
    assert _hybrid_worst_queries(scheme, tag_partition(scheme, L)) == bound == 9 - L


def test_negative_tag_width_rejected(s2):
    for build in (tag_partition, hybrid_tag_plan):
        with pytest.raises(ValueError, match=r"^tag bits must be >= 0$"):
            build(s2, -1)


def literal_tag_partition(scheme, tag_bits):
    """Oracle: the move search evaluating every group on every trial move,
    under the 1000-move cap the search once had.  Returns the partition,
    the number of accepted moves and the initial objective (the largest
    group dimension of the first fill)."""
    k = scheme.k
    if tag_bits >= tag_bits_for(k):
        return tuple((c,) for c in range(k)), 0, 0
    units = sorted(scheme.quotient, key=lambda b: (scheme.classes[b[0]].profile.bits, b[0]))
    block_count = min(1 << tag_bits, len(units))
    groups = [[] for _ in range(block_count)]
    filled = 0
    for i, unit in enumerate(units):
        groups[filled].append(unit)
        if filled < block_count - 1:
            placed = sum(len(u) for group in groups[: filled + 1] for u in group)
            later_blocks = block_count - 1 - filled
            units_left = len(units) - i - 1
            if placed >= (filled + 1) * k // block_count or units_left == later_blocks:
                filled += 1
    dims = {}

    def group_dim(group):
        members = frozenset(c for unit in group for c in unit)
        if members not in dims:
            dims[members] = matroid.block_dimension(scheme, members) if members else 0
        return dims[members]

    moves = 0
    improved = True
    initial_objective = max(group_dim(g) for g in groups)
    while improved and moves < 1000:
        improved = False
        objective = max(group_dim(g) for g in groups)
        for src in range(block_count):
            for unit in list(groups[src]):
                for dst in range(block_count):
                    if dst == src:
                        continue
                    groups[src].remove(unit)
                    groups[dst].append(unit)
                    if max(group_dim(g) for g in groups) < objective:
                        moves += 1
                        improved = True
                        objective = max(group_dim(g) for g in groups)
                        break
                    groups[dst].remove(unit)
                    groups[src].append(unit)
                if improved:
                    break
            if improved:
                break
    final = [sorted(c for unit in g for c in unit) for g in groups if g]
    return tuple(tuple(g) for g in sorted(final, key=lambda g: g[0])), moves, initial_objective


@pytest.mark.parametrize("n", [8, 16, 50])
def test_pruned_tag_partition_matches_full_evaluation(n):
    # n = 8 and 16 take the exact block dimension, n = 50 the greedy drop.
    # Every accepted move lowers the objective, so the search stops by
    # itself after at most the initial objective's worth of moves.
    rng = random.Random(n)
    for i in range(6):
        k = rng.randint(2, 60)
        if i % 2:
            scheme = random_colliding_scheme(rng, k, n)
        else:
            scheme = random_injective_scheme(rng, k, n)
        for L in range(5):
            groups, moves, initial_objective = literal_tag_partition(scheme, L)
            assert tag_partition(scheme, L) == groups, (i, L)
            assert moves <= initial_objective, (i, L)


def test_pruned_tag_partition_matches_full_evaluation_past_the_first_move():
    # After the fill few cases need a second accepted move; this one does.
    scheme = random_injective_scheme(random.Random(3), 24, 8)
    groups, moves, initial_objective = literal_tag_partition(scheme, 1)
    assert tag_partition(scheme, 1) == groups
    assert 2 <= moves <= initial_objective


def test_pruned_tag_partition_matches_full_evaluation_at_scale():
    scheme = table1_scheme(k=200)
    for L in (1, 2):
        groups, moves, initial_objective = literal_tag_partition(scheme, L)
        assert tag_partition(scheme, L) == groups, L
        assert moves <= initial_objective, L


def literal_exhaustive_best_dimension(scheme, block_limit):
    """Oracle: the recursive exhaustive partition search the plan once
    ran, with a plain block-dimension cache of its own."""
    units = sorted(scheme.quotient, key=lambda b: (scheme.classes[b[0]].profile.bits, b[0]))
    dims = {}

    def group_dim(blocks_entry) -> int:
        members = frozenset(c for unit in blocks_entry for c in unit)
        if members not in dims:
            dims[members] = matroid.block_dimension(scheme, members) if members else 0
        return dims[members]

    best = scheme.n + 1

    def assign(i, blocks):
        nonlocal best
        if i == len(units):
            best = min(best, max(group_dim(b) for b in blocks))
            return
        for block in blocks:
            block.append(units[i])
            assign(i + 1, blocks)
            block.pop()
        if len(blocks) < block_limit:
            blocks.append([units[i]])
            assign(i + 1, blocks)
            blocks.pop()

    assign(0, [])
    return best


def test_exhaustive_reference_matches_recursive_search():
    rng = random.Random(62)
    for i in range(30):
        k = rng.randint(2, 10)
        n = rng.randint((k - 1).bit_length(), 6)
        if i % 2:
            scheme = random_colliding_scheme(rng, k, n)
        else:
            scheme = random_injective_scheme(rng, k, n)
        for L in (1, 2):
            plan = hybrid_tag_plan(scheme, L)
            if L >= tag_bits_for(k):
                assert plan.exhaustive_max_group_dimension is None
            else:
                assert plan.exhaustive_max_group_dimension == literal_exhaustive_best_dimension(
                    scheme, 1 << L
                ), (i, L)


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


def test_tag_partition_keeps_no_trial_groups():
    # Only the current groups' dimensions are kept, not the member set of
    # every trial group evaluated (about k/2 classes each).
    scheme = random_injective_scheme(random.Random(5), 300, 50)
    scheme.profile_ints, scheme.quotient  # the scheme's own caches are not the search's
    tracemalloc.start()
    try:
        tag_partition(scheme, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19, peak


def test_plan_dimension_is_the_largest_group_dimension():
    for scheme in seeded_schemes(64, 60, with_masses=True):
        for L in range(tag_bits_for(scheme.k) + 1):
            plan = hybrid_tag_plan(scheme, L)
            expected = max(matroid.block_dimension(scheme, g) for g in plan.groups)
            assert plan.max_group_dimension == expected, (scheme.k, L)


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
        assert walk(tree, s2.classes[c].profile.bits)[1] == (c,)


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
    masses = None
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


def test_class_index_entry_points_reject_out_of_range(s2):
    builders = (adaptive_tree, optimal_decision_tree, greedy_decision_tree)
    strats = (
        StrategyDescriptor.nominal_for(s2),
        StrategyDescriptor("adaptive"),
        StrategyDescriptor("exhaustive"),
        StrategyDescriptor.hybrid(1),
    )
    entry_points = [
        lambda c: profile_of(s2, c),
        lambda c: x_equivalent(s2, (0,), c, 0),
        lambda c: x_equivalent(s2, (0,), 0, c),
        *[lambda c, build=build: build(s2, (0, c)) for build in builders],
        *[lambda c, strat=strat: identify_all(s2, strat, [0, c]) for strat in strats],
    ]
    for bad in (-1, s2.k):
        for call in entry_points:
            with pytest.raises(IndexError) as caught:
                call(bad)
            assert str(caught.value) == f"class index {bad} out of range for k={s2.k}"


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


def reference_walk(root, bits):
    """Reference: the queries and leaf candidates of one profile's path
    through a nested ``TreeNode`` tree."""
    node, queried = root, []
    while not node.is_leaf:
        queried.append(node.attribute)
        node = node.one if bits[node.attribute] else node.zero
    return queried, node.candidates


def assert_layout_matches(scheme, classes, tree, reference_root):
    """``walk`` over the node tuples follows the reference tree for every
    member class, and the tuples hold 2 x leaves - 1 nodes."""
    for c in range(scheme.k) if classes is None else classes:
        assert walk(tree, scheme.row(c)) == reference_walk(reference_root, scheme.row(c))
    leaves = sum(leaf is not None for leaf in tree.candidates)
    assert len(tree.attribute) == len(tree.first_child) == len(tree.candidates) == 2 * leaves - 1


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
@example((STAIRCASE, ()))
@example((scheme_from_profiles([(), ()]), None))  # no attribute to query
def test_bounded_search_equals_the_unbounded_search(case):
    scheme, classes = case
    depth, root = unbounded_tree(scheme, classes)
    tree = optimal_decision_tree(scheme, classes)
    assert tree.depth == depth
    assert tree.exact
    assert tree.root == root
    assert_layout_matches(scheme, classes, tree, root)


def test_one_hot_at_the_class_limit_is_fast():
    # d = n is the paper's worst case: the unbounded search solves all
    # 2^k - 1 non-empty masks here, about 15 s and 170 MB.
    scheme = one_hot_scheme(20)
    optimal_decision_tree.cache_clear()
    start = time.perf_counter()
    tree = optimal_decision_tree(scheme)
    assert time.perf_counter() - start < 0.5
    assert tree.exact and tree.depth == 19


def permuted_one_hot_scheme(rng, k):
    order = rng.sample(range(k), k)
    return scheme_from_profiles([tuple(int(q == order[c]) for q in range(k)) for c in range(k)])


def test_greedy_tree_on_a_wide_deep_one_hot_is_fast():
    # A chain of 1,199 splits over 1,200 attributes: counting every column
    # at every node took about 2 s here.
    scheme = permuted_one_hot_scheme(random.Random(12), 1200)
    greedy_decision_tree.cache_clear()
    start = time.perf_counter()
    tree = greedy_decision_tree(scheme)
    assert time.perf_counter() - start < 1.0
    assert tree.depth == 1199


def test_greedy_tree_retains_memory_linear_in_its_nodes():
    # Only leaves hold candidates.  When every internal node held its own,
    # this 1199-level chain retained about 6.4 MB, k x depth / 2 entries.
    scheme = one_hot_scheme(1200)
    scheme.bits, scheme.column_masks  # the scheme's own caches are not the tree's
    greedy_decision_tree.cache_clear()
    tracemalloc.start()
    try:
        tree = greedy_decision_tree(scheme)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tree.depth == 1199
    assert retained < 1_000_000


def per_node_greedy_tree(scheme, classes=None):
    """Reference: the greedy tree built one node at a time.  Each node counts
    the ones of every column among its candidates and splits on the first
    attribute of greatest min(ones, size - ones); a zero maximum makes a
    leaf.  Returns the depth and the preorder (zero branch first) list of
    each node's (attribute, candidates)."""
    columns = scheme.column_masks

    def most_balanced(mask):
        best_q, best_balance = None, 0
        size = mask.bit_count()
        for q, col in enumerate(columns):
            ones = (mask & col).bit_count()
            balance = min(ones, size - ones)
            if balance > best_balance:
                best_q, best_balance = q, balance
        return best_q

    start = sum(1 << c for c in (range(scheme.k) if classes is None else classes))
    nodes, depth, pending = [], 0, [(start, 0)]
    while pending:
        mask, level = pending.pop()
        q = most_balanced(mask)
        nodes.append((q, tuple(c for c in range(scheme.k) if mask >> c & 1)))
        depth = max(depth, level)
        if q is not None:
            pending += ((mask & columns[q], level + 1), (mask & ~columns[q], level + 1))
    return depth, nodes


def from_preorder(nodes):
    """The nested tree of a preorder (zero branch first) list of each
    node's (attribute, candidates)."""
    built = []
    for q, candidates in reversed(nodes):
        if q is None:
            built.append(TreeNode(None, candidates))
        else:
            zero, one = built.pop(), built.pop()
            built.append(TreeNode(q, candidates, zero, one))
    return built[0]


def preorder(root):
    """Each node's (attribute, candidates), zero branch first."""
    nodes, pending = [], [root]
    while pending:
        node = pending.pop()
        nodes.append((node.attribute, node.candidates))
        if not node.is_leaf:
            pending += (node.one, node.zero)
    return nodes


@st.composite
def greedy_tree_cases(draw):
    """An injective, colliding, mixed or permuted one-hot scheme, up to three
    of its columns held constant, and every class (None) or a subset of
    them, the empty set and singletons included."""
    kind = draw(st.sampled_from(("injective", "colliding", "mixed", "one-hot")))
    if kind == "one-hot":
        n = k = draw(st.integers(1, 40))
        profile_ints = [1 << q for q in draw(st.permutations(range(n)))]
    else:
        n, k = draw(st.integers(1, 12)), draw(st.integers(1, 60))
        top = (1 << n) - 1
        if kind == "injective" and k <= 1 << n:
            profile_ints = draw(st.lists(st.integers(0, top), min_size=k, max_size=k, unique=True))
        else:
            size = 2 if kind == "colliding" else k
            pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=size, unique=True))
            profile_ints = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    for q, bit in draw(st.dictionaries(st.integers(0, n - 1), st.booleans(), max_size=3)).items():
        profile_ints = [p | 1 << q if bit else p & ~(1 << q) for p in profile_ints]
    scheme = scheme_from_profiles([tuple(p >> q & 1 for q in range(n)) for p in profile_ints])
    subset = st.lists(st.integers(0, k - 1), unique=True).map(lambda c: tuple(sorted(c)))
    return scheme, draw(st.none() | st.just(()) | st.integers(0, k - 1).map(lambda c: (c,)) | subset)


@settings(max_examples=300, deadline=None)
@given(greedy_tree_cases())
@example((STAIRCASE, ()))
@example((one_hot_scheme(12), (3,)))
@example((scheme_from_profiles([(), ()]), None))  # no attribute to query
@example((table1_scheme(), None))
@example((permuted_one_hot_scheme(random.Random(20), 200), None))
@example((one_hot_scheme(1100), None))  # deeper than the recursion limit
def test_greedy_tree_equals_the_per_node_builder(case):
    scheme, classes = case
    tree = greedy_decision_tree(scheme, classes)
    assert not tree.exact
    depth, nodes = per_node_greedy_tree(scheme, classes)
    assert (tree.depth, preorder(tree.root)) == (depth, nodes)
    assert_layout_matches(scheme, classes, tree, from_preorder(nodes))


def test_bounded_search_prunes(monkeypatch):
    # The search bounds each non-leaf mask it solves once.  The pruned
    # search solves 67 masks on this scheme, 24 of them leaves; skipping an
    # attribute only when its bound exceeds the best depth, instead of
    # reaching it, solves 92, and the unbounded search 505.
    bounded = []
    bound = trees._depth_bound
    monkeypatch.setattr(trees, "_depth_bound", lambda *a: bounded.append(a) or bound(*a))
    optimal_decision_tree.cache_clear()
    tree = optimal_decision_tree(random_injective_scheme(random.Random(8), 24, 8))
    assert tree.depth == 5
    assert len(bounded) <= 43


def test_skip_threshold_inverts_the_bound():
    for widest in range(1, 13):
        for depth in range(1, 13):
            fewest = next(c for c in range(1, 1 << 13) if _depth_bound(c, widest) >= depth)
            assert _fewest_reaching(depth, widest) == fewest


def test_exhaustive_identify_all_matches_a_profile_scan():
    rng = random.Random(34)
    for scheme in seeded_schemes(33, 120):
        order = rng.sample(range(scheme.k), rng.randint(1, scheme.k))
        found = identify_all(scheme, StrategyDescriptor.exhaustive(), order)
        for c, t in zip(order, found):
            same = [m for m in range(scheme.k) if scheme.classes[m].profile == scheme.classes[c].profile]
            assert t.output == min(same)
            assert t.undecided == (len(same) > 1)
            assert t.queries == tuple(range(scheme.n)) and t.query_count == scheme.n
