import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from corpus import random_injective_scheme, scheme_from_profiles, table1_scheme
from discern.barrier import collisions
from discern.errors import BarrierError, ConfigError
from discern.noisy import (
    BLOCK_TRIALS,
    NoiseConfig,
    NoiseResult,
    RNG_NAME,
    majority_error,
    reference_bound,
    repetitions_for,
    simulate_noisy_identification,
    simulate_tagged,
)
from discern.trees import adaptive_tree, walk
from test_pinned_corpus import corpus_schemes


def bernoulli_walk(scheme, cfg):
    """Reference: one trial at a time, ``reps`` Bernoulli flips per node.

    Returns the per-trial query counts and error indicators.
    """
    tree = adaptive_tree(scheme)
    reps = repetitions_for(cfg.epsilon, cfg.delta / tree.depth) if tree.depth else 1
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    masses = np.asarray(scheme.masses)
    masses = masses / masses.sum()
    queries, errors = [], []
    for _ in range(cfg.trials):
        true_class = int(rng.choice(scheme.k, p=masses))
        profile = scheme.classes[true_class].profile.bits
        node, count = tree.root, 0
        while not node.is_leaf:
            flips = int(np.count_nonzero(rng.random(reps) < cfg.epsilon))
            observed = profile[node.attribute] ^ (flips > reps // 2)
            count += reps
            node = node.one if observed else node.zero
        queries.append(count)
        errors.append(node.candidates[0] != true_class)
    return np.array(queries, dtype=float), np.array(errors, dtype=float)


def where_flat_tree(tree):
    """Reference: parallel arrays with both children of every internal node
    looked up by node identity, as the walk read them before it kept one
    child index."""
    nodes = [tree.root]
    for node in nodes:
        if not node.is_leaf:
            nodes += (node.zero, node.one)
    index = {id(node): i for i, node in enumerate(nodes)}
    attribute, zero, one, leaf = (np.full(len(nodes), -1, dtype=np.intp) for _ in range(4))
    for i, node in enumerate(nodes):
        if node.is_leaf:
            leaf[i] = node.candidates[0]
        else:
            attribute[i] = node.attribute
            zero[i] = index[id(node.zero)]
            one[i] = index[id(node.one)]
    return attribute, zero, one, leaf


def where_walk(scheme, cfg):
    """Reference: the blocked walk, one uniform per visited node against
    the exact majority-error tail, choosing each next node with
    ``np.where`` over the two looked-up children."""
    tree = adaptive_tree(scheme)
    depth = tree.depth
    reps = repetitions_for(cfg.epsilon, cfg.delta / depth) if depth else 1
    p_wrong = majority_error(reps, cfg.epsilon)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    masses = np.asarray(scheme.masses)
    masses = masses / masses.sum()
    attribute, zero, one, leaf = where_flat_tree(tree)
    total_queries = 0
    errors = 0
    for start in range(0, cfg.trials, BLOCK_TRIALS):
        truth = rng.choice(scheme.k, size=min(BLOCK_TRIALS, cfg.trials - start), p=masses)
        node = np.zeros(truth.size, dtype=np.intp)
        active = np.flatnonzero(leaf[node] < 0)
        while active.size:
            at = node[active]
            wrong = rng.random(active.size) < p_wrong
            observed = scheme.bits[truth[active], attribute[at]] ^ wrong
            node[active] = np.where(observed, one[at], zero[at])
            total_queries += reps * active.size
            active = active[leaf[node[active]] < 0]
        errors += int(np.count_nonzero(leaf[node] != truth))
    return NoiseResult(
        mean_queries=total_queries / cfg.trials,
        empirical_error=errors / cfg.trials,
        reference_bound=reference_bound(cfg),
        tagged_queries=1,
        repetitions=reps,
        tree_depth=depth,
        seed=cfg.seed,
        rng=RNG_NAME,
    )


def walk_reference_schemes():
    rng = random.Random(20261019)
    schemes = [scheme_from_profiles([(0, 1)])]  # one class: depth 0
    for _ in range(12):
        k = rng.randint(2, 40)
        n = rng.randint(max(1, (k - 1).bit_length()), 16)
        schemes.append(random_injective_scheme(rng, k, n, with_masses=rng.random() < 0.5))
    return schemes


def full_tail_sum(r, epsilon):
    """Reference: every term of the binomial majority-error tail, summed in
    order, with the same per-term arithmetic as ``majority_error``."""
    if epsilon == 0.0:
        return 0.0
    log_eps = math.log(epsilon)
    log_one = math.log(1.0 - epsilon)
    log_r = math.lgamma(r + 1)
    total = 0.0
    for i in range(r // 2 + 1, r + 1):
        total += math.exp(
            log_r
            - math.lgamma(i + 1)
            - math.lgamma(r - i + 1)
            + i * log_eps
            + (r - i) * log_one
        )
    return min(total, 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.5},
        {"epsilon": -0.01},
        {"delta": 0.0},
        {"delta": 1.0},
        {"trials": 0},
    ],
)
def test_config_validation(kwargs):
    base = {"epsilon": 0.1, "delta": 0.01, "trials": 10, "seed": 1}
    base.update(kwargs)
    with pytest.raises(ConfigError):
        NoiseConfig(**base)


def test_majority_error_exact_small_case():
    # r=3, eps=0.1: 3 eps^2 (1-eps) + eps^3 = 0.028
    assert majority_error(3, 0.1) == pytest.approx(0.028, abs=1e-12)
    assert majority_error(1, 0.25) == pytest.approx(0.25, abs=1e-12)
    assert majority_error(9, 0.0) == 0.0


def test_repetitions_monotone_in_difficulty():
    assert repetitions_for(0.0, 0.005) == 1
    r_easy = repetitions_for(0.05, 0.005)
    r_mid = repetitions_for(0.1, 0.005)
    r_hard = repetitions_for(0.2, 0.005)
    assert r_easy <= r_mid <= r_hard
    assert repetitions_for(0.1, 0.0005) >= r_mid  # tighter target, more repeats
    for eps, r in ((0.05, r_easy), (0.1, r_mid), (0.2, r_hard)):
        assert r % 2 == 1
        assert majority_error(r, eps) <= 0.005
        if r > 1:
            assert majority_error(r - 2, eps) > 0.005


def test_repetitions_match_a_linear_scan():
    # The doubling probes and the bisection give the smallest passing odd r,
    # the one a scan over r = 1, 3, 5, ... finds first (r <= 2,000 here).
    for epsilon in (0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45):
        for target in (0.5, 0.1, 0.02, 1e-3, 1e-4, 1e-5):
            r = 1
            while majority_error(r, epsilon) > target:
                r += 2
            assert repetitions_for(epsilon, target) == r, (epsilon, target)


def test_noiseless_is_exact(s2):
    result = simulate_noisy_identification(s2, NoiseConfig(0.0, 0.01, 100, 7))
    assert result.mean_queries == 2.0
    assert result.empirical_error == 0.0
    assert result.repetitions == 1
    assert result.tagged_queries == 1


def test_seed_determinism(s2):
    cfg = NoiseConfig(0.1, 0.01, 500, 7)
    assert simulate_noisy_identification(s2, cfg) == simulate_noisy_identification(s2, cfg)
    other = simulate_noisy_identification(s2, NoiseConfig(0.1, 0.01, 500, 8))
    assert other.mean_queries == simulate_noisy_identification(s2, cfg).mean_queries
    # Same repetition schedule, so mean queries agree; error counts may differ.


def test_error_within_target(s2):
    result = simulate_noisy_identification(s2, NoiseConfig(0.1, 0.01, 10_000, 7))
    assert result.empirical_error <= 0.01


def test_mean_queries_grow_with_noise(s2):
    means = [
        simulate_noisy_identification(s2, NoiseConfig(eps, 0.01, 200, 7)).mean_queries
        for eps in (0.0, 0.05, 0.1, 0.2)
    ]
    assert means == sorted(means)


def test_extreme_epsilon_finite(s2):
    result = simulate_noisy_identification(s2, NoiseConfig(0.49, 0.5, 10, 7))
    assert result.repetitions > 100
    assert result.mean_queries == 2 * result.repetitions


def test_reference_bound_value(s2):
    result = simulate_noisy_identification(s2, NoiseConfig(0.1, 0.01, 10, 7))
    assert result.reference_bound == pytest.approx(math.log(100) / 0.64, rel=1e-12)


def test_barrier_scheme_rejected(s1):
    with pytest.raises(BarrierError):
        simulate_noisy_identification(s1, NoiseConfig(0.1, 0.01, 10, 7))


def test_single_class_scheme():
    scheme = scheme_from_profiles([(0, 1)])
    result = simulate_noisy_identification(scheme, NoiseConfig(0.2, 0.1, 50, 3))
    assert result.mean_queries == 0.0
    assert result.empirical_error == 0.0


def test_tagged_clean_side_channel(s1, s2):
    for scheme in (s1, s2):
        for eps in (0.0, 0.3, 0.45):
            result = simulate_tagged(scheme, NoiseConfig(eps, 0.01, 10, 7))
            assert result.mean_queries == 1.0
            assert result.empirical_error == 0.0


def test_tagged_large_scheme():
    scheme = table1_scheme()
    result = simulate_tagged(scheme, NoiseConfig(0.2, 0.01, 10, 7))
    assert result.mean_queries == 1.0 and result.empirical_error == 0.0


def test_result_records_reproducibility_metadata(s2):
    result = simulate_noisy_identification(s2, NoiseConfig(0.1, 0.01, 10, 42))
    assert result.seed == 42
    assert result.rng == "numpy-philox"


@pytest.mark.parametrize("epsilon", [0.1, 0.3])
def test_binomial_walk_matches_bernoulli_reference(epsilon):
    # Independent seeds on both sides: the two paths draw different streams,
    # so they must agree in distribution, within 5 standard errors of the
    # difference of two 20,000-trial means.
    scheme = random_injective_scheme(random.Random(4242), 20, 16, with_masses=True)
    trials = 20_000
    queries, errors = bernoulli_walk(scheme, NoiseConfig(epsilon, 0.2, trials, 101))
    result = simulate_noisy_identification(scheme, NoiseConfig(epsilon, 0.2, trials, 202))
    assert errors.mean() > 0.0  # the error comparison below is not vacuous
    for reference, batched in ((errors, result.empirical_error), (queries, result.mean_queries)):
        standard_error = math.sqrt(2 * reference.var() / trials)
        assert abs(batched - reference.mean()) <= 5 * standard_error, (
            epsilon, batched, reference.mean(), standard_error
        )


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
def test_child_index_walk_matches_where_reference(epsilon):
    for i, scheme in enumerate(walk_reference_schemes()):
        cfg = NoiseConfig(epsilon, 0.1, 1 + 97 * i, 100 + i)
        assert simulate_noisy_identification(scheme, cfg) == where_walk(scheme, cfg), (i, cfg)


def test_child_index_walk_matches_where_reference_across_blocks():
    scheme = random_injective_scheme(random.Random(5), 12, 6, with_masses=True)
    cfg = NoiseConfig(0.2, 0.05, 2 * BLOCK_TRIALS + 5, 9)
    assert simulate_noisy_identification(scheme, cfg) == where_walk(scheme, cfg)


def test_flat_tree_children_reach_the_walked_leaf():
    # The noise walk's numbering: node 0 is the root, and an internal node's
    # answer-1 child is the index after its answer-0 child ``first_child``.
    for scheme in [*walk_reference_schemes(), table1_scheme()]:
        tree = adaptive_tree(scheme)
        for c in range(scheme.k):
            bits = scheme.classes[c].profile.bits
            node = 0
            while tree.candidates[node] is None:
                node = tree.first_child[node] + bits[tree.attribute[node]]
            assert tree.attribute[node] is None and tree.first_child[node] is None
            assert tree.candidates[node][0] == walk(tree, bits)[1][0] == c


def test_noiseless_walk_follows_the_drawn_classes():
    scheme = table1_scheme()
    trials, seed = 5_000, 11
    result = simulate_noisy_identification(scheme, NoiseConfig(0.0, 0.01, trials, seed))
    masses = np.asarray(scheme.masses)
    truth = np.random.Generator(np.random.Philox(seed)).choice(
        scheme.k, size=trials, p=masses / masses.sum()
    )
    tree = adaptive_tree(scheme)
    lengths = [len(walk(tree, scheme.classes[c].profile.bits)[0]) for c in range(scheme.k)]
    assert result.empirical_error == 0.0
    assert result.repetitions == 1
    assert result.mean_queries == sum(lengths[c] for c in truth) / trials


def test_memory_does_not_grow_with_trials(s2):
    # Trials run in fixed-size blocks: a million of them keep a peak of a
    # few MB, where per-trial arrays would need tens of MB.
    simulate_noisy_identification(s2, NoiseConfig(0.1, 0.01, 10, 7))  # warm caches
    tracemalloc.start()
    try:
        result = simulate_noisy_identification(s2, NoiseConfig(0.1, 0.01, 1_000_000, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.empirical_error <= 0.01
    assert peak < 8 * 2**20, peak


def test_infeasible_repetitions_rejected_fast():
    start = time.perf_counter()
    with pytest.raises(ConfigError) as excinfo:
        repetitions_for(0.4999, 1e-6)
    assert time.perf_counter() - start < 0.5
    assert str(excinfo.value) == (
        "no feasible repetition count below 10000001 for epsilon=0.4999, per-node target=1e-06"
    )


def test_majority_error_equals_the_full_tail_sum():
    # The sum stops once a term is absorbed; the value must be the full
    # sum bit for bit, on either side of 0.5, at 0.5, next to it, and for
    # tiny epsilon, from r=1 up to r around 100,000.
    rng = random.Random(20261018)
    special = (0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.499, 0.9, 0.999, 1e-3, 1e-12, 1e-300)
    for _ in range(250):
        epsilon = rng.choice(special) if rng.random() < 0.3 else rng.uniform(1e-6, 1.0 - 1e-6)
        r = 2 * int(10 ** rng.uniform(0, 4.7)) + 1
        assert majority_error(r, epsilon) == full_tail_sum(r, epsilon), (r, epsilon)


def test_majority_error_sums_past_leading_underflow():
    # For epsilon > 0.5 the first terms underflow to 0.0; they leave a zero
    # total unchanged but must not end the sum.
    assert full_tail_sum(2001, 0.9) == 1.0
    assert majority_error(2001, 0.9) == 1.0


def test_repetitions_near_half_are_fast():
    start = time.perf_counter()
    r = repetitions_for(0.499, 0.005)
    assert time.perf_counter() - start < 1.0
    assert r == 1_658_721
    assert majority_error(r, 0.499) <= 0.005 < majority_error(r - 2, 0.499)

    start = time.perf_counter()
    with pytest.raises(ConfigError) as excinfo:
        repetitions_for(0.49999, 1e-3)
    assert time.perf_counter() - start < 1.0
    assert str(excinfo.value) == (
        "no feasible repetition count below 10000001 for epsilon=0.49999, per-node target=0.001"
    )


def exact_noise_expectation(scheme, epsilon, delta):
    """Reference: the noise walk's repetition count r, its exact error
    probability and its exact expected queries per trial.

    With p = majority_error(r, epsilon), a wrong majority at any node on
    class c's path sends the walk into a subtree without c's leaf, so
    P(error) = sum_c m_c (1 - (1 - p)^depth(c)).  The expected queries are
    r times the internal nodes visited, each weighted by every class's
    chance to reach it: 1 - p into the child of its own bit, p into the
    other."""
    tree = adaptive_tree(scheme)
    r = repetitions_for(epsilon, delta / tree.depth)
    p = majority_error(r, epsilon)
    masses = np.asarray(scheme.masses) / sum(scheme.masses)
    error = visits = 0.0
    stack = [(0, np.ones(scheme.k), 0)]  # node, each class's chance to reach it, its depth
    while stack:
        node, reach, depth = stack.pop()
        if tree.candidates[node] is not None:
            error += masses[tree.candidates[node][0]] * (1 - (1 - p) ** depth)
            continue
        visits += masses @ reach
        to_one = np.where(scheme.bits[:, tree.attribute[node]], 1 - p, p)
        first = tree.first_child[node]
        stack += [(first, reach * (1 - to_one), depth + 1), (first + 1, reach * to_one, depth + 1)]
    return r, error, r * visits


@pytest.mark.parametrize("epsilon", [0.05, 0.45])
def test_noise_walk_matches_its_exact_expectation(epsilon):
    # Two-sided, so a walk that errs too rarely or takes too few queries
    # fails too.  For any seed each bound fails with a chance of about
    # 1e-9: 6 binomial standard errors for the error rate, and Hoeffding's
    # inequality for the mean queries, since one trial's queries lie in
    # [r, r * depth].
    trials, delta = 100_000, 0.1
    schemes = [s for _, s in corpus_schemes() if collisions(s).injective]
    assert len(schemes) >= 5
    for i, scheme in enumerate([*schemes, table1_scheme()]):
        r, error, queries = exact_noise_expectation(scheme, epsilon, delta)
        result = simulate_noisy_identification(scheme, NoiseConfig(epsilon, delta, trials, i))
        assert result.repetitions == r
        assert 0 < error <= delta
        standard_error = math.sqrt(error * (1 - error) / trials)
        assert abs(result.empirical_error - error) <= 6 * standard_error, (i, result, error)
        spread = r * (result.tree_depth - 1) * math.sqrt(math.log(2 / 1e-9) / (2 * trials))
        assert abs(result.mean_queries - queries) <= spread, (i, result, queries)
