import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import (
    binary_linear_scheme,
    partition_scheme,
    random_colliding_scheme,
    random_injective_scheme,
    random_scheme,
    scheme_from_profiles,
)
from discern import checks, matroid
from discern.errors import BarrierError, LimitError
from discern.matroid import (
    SUBSET_TABLE_LIMIT,
    _to_mask,
    block_dimension,
    closure,
    closure_table,
    distinguishing_dimension,
    enumerate_minimal_distinguishing,
    is_distinguishing,
    x_equivalent,
)
from discern.scheme import _bit_indices

# Inclusion-minimal distinguishing sets of sizes 2 and 3 coexist here, so the
# bases family is not a matroid; used to pin the reporting behavior.
UNEQUAL_BASES = scheme_from_profiles(
    [
        (0, 0, 0, 0, 1, 1),
        (0, 1, 1, 1, 0, 1),
        (1, 0, 1, 1, 1, 0),
        (1, 1, 0, 1, 1, 1),
    ],
    attributes=("a", "b", "c", "d", "e", "f"),
)

# cl({x} + {qp}) determines q, but cl({x} + {q}) does not determine qp.
EXCHANGE_FAILURE = scheme_from_profiles(
    [(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)],
    attributes=("x", "q", "qp"),
)


def brute_force_minimum(scheme) -> int:
    """Independent oracle: scan itertools.combinations in size order."""
    for size in range(scheme.n + 1):
        for combo in itertools.combinations(range(scheme.n), size):
            if is_distinguishing(scheme, combo):
                return size
    raise AssertionError("no distinguishing set found")


def literal_pair_masks(profiles) -> list[int]:
    """Oracle: the XOR of every unordered pair of profiles, attribute q in bit q."""
    return [a ^ b for a, b in itertools.combinations(profiles, 2)]


def literal_greedy_mask(profiles, n: int) -> int:
    """Oracle: drop attributes ascending while every pair mask is still hit."""
    pair_masks = literal_pair_masks(profiles)
    mask = (1 << n) - 1
    for q in range(n):
        candidate = mask & ~(1 << q)
        if all(pm & candidate for pm in pair_masks):
            mask = candidate
    return mask


def literal_exchange_failure(bases) -> str | None:
    """Oracle: the first (B1, B2, q) in base order, q in B1 - B2, for which
    no q2 in B2 - B1 makes B1 - q + q2 a base, scanning every pair of bases."""
    base_set = set(bases)
    return next(
        (
            f"exchange fails for B1={sorted(b1)}, B2={sorted(b2)}, q={q}"
            for b1 in bases
            for b2 in bases
            for q in sorted(b1 - b2)
            if not any((b1 - {q}) | {q2} in base_set for q2 in b2 - b1)
        ),
        None,
    )


def greedy_dimension(scheme) -> int:
    return literal_greedy_mask(scheme.profile_ints, scheme.n).bit_count()


def test_x_equivalent(s2):
    assert x_equivalent(s2, {0}, 0, 1)
    assert not x_equivalent(s2, {0, 1}, 0, 1)
    assert x_equivalent(s2, set(), 0, 3)
    with pytest.raises(IndexError):
        x_equivalent(s2, {0}, 0, 9)
    with pytest.raises(IndexError):
        x_equivalent(s2, {7}, 0, 1)


def test_closure_examples(s1, s2, s3):
    assert closure(s2, {0}) == {0}
    assert closure(s3, {0}) == {0, 2}
    for scheme in (s1, s2, s3):
        full = set(range(scheme.n))
        assert closure(scheme, full) == full


def test_closure_single_class_is_everything():
    scheme = scheme_from_profiles([(0, 1, 0)])
    assert closure(scheme, set()) == {0, 1, 2}


def test_is_distinguishing(s1, s2):
    assert is_distinguishing(s2, {0, 1})
    assert not is_distinguishing(s2, {0})
    assert not is_distinguishing(s1, {0, 1})


def test_enumerate_s2(s2):
    report = enumerate_minimal_distinguishing(s2)
    assert report.bases == (frozenset({0, 1}),)
    assert report.dimension == 2
    assert report.exchange_ok and report.equal_cardinality_ok
    assert report.counterexample is None


def test_enumerate_s3(s3):
    report = enumerate_minimal_distinguishing(s3)
    assert set(report.bases) == {frozenset({0, 1}), frozenset({1, 2})}
    assert report.dimension == 2
    assert report.exchange_ok and report.equal_cardinality_ok


def test_enumerate_barrier(s1):
    with pytest.raises(BarrierError):
        enumerate_minimal_distinguishing(s1)


def test_enumerate_limit(s3):
    with pytest.raises(LimitError):
        enumerate_minimal_distinguishing(s3, max_n=2)


def test_dimension_examples(s2, s3):
    assert distinguishing_dimension(s2).dimension == 2
    assert distinguishing_dimension(s3).dimension == 2
    wide = scheme_from_profiles([(0, 0, 0), (1, 1, 1)])
    assert distinguishing_dimension(wide).dimension == 1


def test_dimension_exact_flag(s2):
    assert distinguishing_dimension(s2).exact
    approx = distinguishing_dimension(s2, exact_limit=1)
    assert not approx.exact
    assert is_distinguishing(s2, approx.witness)


def test_dimension_barrier(s1):
    with pytest.raises(BarrierError):
        distinguishing_dimension(s1)


def test_dimension_can_equal_attribute_count():
    # All 2^3 profiles present: every attribute is some pair's only separator.
    scheme = scheme_from_profiles(list(itertools.product((0, 1), repeat=3)))
    assert distinguishing_dimension(scheme).dimension == 3


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.integers(1, 8), n=st.integers(0, 6))
def test_closure_axioms_always_hold(seed, k, n):
    scheme = random_scheme(random.Random(seed), k, n)
    for outcome in checks.check_closure(scheme)[:3]:
        assert outcome.ok, outcome.detail


def literal_block_minimum(distinct, n: int) -> int:
    """Oracle: least popcount over all masks hit by every pair of distinct profiles."""
    pair_masks = literal_pair_masks(distinct)
    return min(
        mask.bit_count() for mask in range(1 << n) if all(pm & mask for pm in pair_masks)
    )


@st.composite
def grouped_schemes(draw):
    """A scheme drawn from a small profile pool plus one group of its classes.

    The pool is small so groups routinely hold colliding members; a
    one-member group and a group of one repeated profile are both reachable.
    """
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6, unique=True))
    profile_ints = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    members = draw(st.sets(st.integers(0, len(profile_ints) - 1), min_size=1))
    scheme = scheme_from_profiles([tuple(p >> q & 1 for q in range(n)) for p in profile_ints])
    return scheme, sorted(members)


@settings(max_examples=300, deadline=None)
@given(grouped_schemes())
@example((scheme_from_profiles([(1, 0), (0, 1), (1, 0)]), [0, 2]))  # all duplicates
@example((scheme_from_profiles([(1, 0), (0, 1), (1, 0)]), [1]))  # singleton
def test_block_dimension_matches_literal_definitions(case):
    scheme, members = case
    distinct = sorted({scheme.profile_ints[c] for c in members})
    assert block_dimension(scheme, members) == literal_block_minimum(distinct, scheme.n)
    greedy = literal_greedy_mask(distinct, scheme.n).bit_count()
    assert block_dimension(scheme, members, exact_limit=0) == greedy


def test_closure_exchange_verdicts(s2, s3):
    assert checks.check_closure(s2)[3].ok
    assert checks.check_closure(s3)[3].ok
    outcome = checks.check_closure(EXCHANGE_FAILURE)[3]
    assert outcome.name == "closure-exchange"
    assert not outcome.ok
    assert outcome.detail is not None


def test_closure_exchange_recorded_per_instance():
    # The exchange property genuinely fails on some schemes; the check must
    # either pass or carry a concrete counterexample, never assert blindly.
    rng = random.Random(12)
    verdicts = {True: 0, False: 0}
    for _ in range(50):
        scheme = random_scheme(rng, rng.randint(2, 7), rng.randint(1, 6))
        outcome = checks.check_closure(scheme)[3]
        verdicts[outcome.ok] += 1
        if not outcome.ok:
            assert "cl(X" in outcome.detail
    assert verdicts[True] > 0


def test_closure_exchange_failure_at_n20_within_two_seconds():
    # Once a failure at X is known, later passes read only the rows below
    # X: this check takes about 0.25 s on a shared 2-vCPU host, against
    # about 2.5 s when every pass read the whole 2^20-entry table.
    scheme = random_injective_scheme(random.Random(20), 64, 20)
    start = time.perf_counter()
    outcomes = checks.check_closure(scheme, limit=20)
    elapsed = time.perf_counter() - start
    assert [o.ok for o in outcomes] == [True, True, True, False]
    assert outcomes[3].detail == (
        "q=8 in cl(X + {15}) \\ cl(X) but q'=15 not in cl(X + {8}) for X=[1, 2, 3, 4, 6, 7]"
    )
    assert elapsed < 2.0, elapsed


def test_check_closure_skips_above_the_limit():
    scheme = random_scheme(random.Random(4), 5, 4)
    outcomes = checks.check_closure(scheme, limit=3)
    assert [o.name for o in outcomes] == [
        "closure-extensive",
        "closure-monotone",
        "closure-idempotent",
        "closure-exchange",
    ]
    assert all(o.ok and o.skipped for o in outcomes)
    axiom = "closure axiom scan limited to n <= 3, scheme has n=4"
    exchange = "exchange scan limited to n <= 3, scheme has n=4"
    assert [o.detail for o in outcomes] == [axiom, axiom, axiom, exchange]


def test_check_closure_skips_when_its_passes_run_out_of_memory(monkeypatch):
    # The 2^n table fits but a pass over it does not: the four outcomes
    # are skipped with the reason, as for a refused table.
    class NoRoomForPasses(np.ndarray):
        def __invert__(self):
            raise MemoryError

    table = checks.matroid.closure_table
    monkeypatch.setattr(checks.matroid, "closure_table", lambda s: table(s).view(NoRoomForPasses))
    outcomes = checks.check_closure(random_injective_scheme(random.Random(3), 8, 4))
    assert all(o.ok and o.skipped for o in outcomes)
    reason = "cannot allocate the closure passes over the 2^4-entry subset table"
    assert [o.detail for o in outcomes] == [reason] * 4


def test_check_scheme_builds_the_closure_table_once(monkeypatch):
    calls = []
    real = checks.matroid.closure_table
    monkeypatch.setattr(
        checks.matroid, "closure_table", lambda scheme: calls.append(scheme) or real(scheme)
    )
    monkeypatch.setattr(checks.matroid, "closure", None)  # no per-subset closure calls
    outcomes = checks.check_scheme(EXCHANGE_FAILURE)
    assert calls == [EXCHANGE_FAILURE]
    assert outcomes[:4] == checks.check_closure(EXCHANGE_FAILURE)
    assert not outcomes[3].ok


def patch_closure_table(monkeypatch, table):
    """Make ``matroid.closure_table`` return ``table``: cl(X) indexed by the mask of X."""
    monkeypatch.setattr(checks.matroid, "closure_table", lambda scheme: np.array(table, dtype=np.uint8))


def submask_monotone(table, n: int) -> bool:
    """Oracle: cl(X) within cl(Y) for every X within Y, walking every submask of every Y."""
    for y in range(1 << n):
        x = y
        while True:
            if table[x] & ~table[y]:
                return False
            if x == 0:
                break
            x = (x - 1) & y
    return True


def test_non_monotone_operator_fails_only_monotonicity(monkeypatch):
    # Extensive and idempotent, but cl({0}) = {0, 1} is not within cl({0, 2}) = {0, 2}.
    table = list(range(8))
    table[0b001] = 0b011
    patch_closure_table(monkeypatch, table)
    scheme = scheme_from_profiles([(0, 0, 0), (1, 1, 1)])
    extensive, monotone, idempotent, exchange = checks.check_closure(scheme)
    assert extensive.ok and idempotent.ok
    assert not monotone.ok
    assert monotone.detail == "X=[0] subset of Y=[0, 2] but cl(X) exceeds cl(Y)"
    assert not exchange.ok


def test_monotone_verdict_matches_submask_scan(monkeypatch):
    rng = random.Random(2026)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(0, 6)
        scheme = random_scheme(rng, rng.randint(1, 8), n)
        table = [_to_mask(closure(scheme, _bit_indices(x)), n) for x in range(1 << n)]
        if n and rng.random() < 0.5:
            table[rng.randrange(1 << n)] ^= 1 << rng.randrange(n)
        expected = submask_monotone(table, n)
        with monkeypatch.context() as patch:
            patch_closure_table(patch, table)
            monotone = checks.check_closure(scheme)[1]
        assert monotone.ok == expected, (n, table, monotone.detail)
        verdicts[expected] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def closure_schemes(seed: int, count: int):
    """Seeded schemes with k <= 40 and n <= 10: injective, colliding, and
    random over few profiles (mostly colliding), each third in turn."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(0, 10)
        k = rng.randint(1, min(40, 1 << n))
        if i % 3 == 0:
            yield random_injective_scheme(rng, k, n)
        elif i % 3 == 1 and k >= 2:
            yield random_colliding_scheme(rng, k, n)
        else:
            pool = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(rng.randint(1, 6))]
            yield scheme_from_profiles([rng.choice(pool) for _ in range(k)])


def test_closure_table_matches_closure():
    explicit = [scheme_from_profiles([()]), scheme_from_profiles([(0, 1, 1)]), EXCHANGE_FAILURE]
    for scheme in [*explicit, *closure_schemes(18, 120)]:
        n = scheme.n
        table = closure_table(scheme)
        assert table.shape == (1 << n,)
        assert [int(c) for c in table] == [
            _to_mask(closure(scheme, _bit_indices(x)), n) for x in range(1 << n)
        ]


def literal_check_closure(cl: list[int], n: int) -> list[checks.CheckOutcome]:
    """Reference: every (X, q', q) in order over the cl(X) masks ``cl``."""
    names = ("closure-extensive", "closure-monotone", "closure-idempotent", "closure-exchange")
    extensive, monotone, idempotent, exchange = names
    found: dict[str, str] = {}  # name -> detail of its first failure

    def attrs(mask: int) -> list[int]:
        return sorted(_bit_indices(mask))

    for x in range(1 << n):
        cx = cl[x]
        if x & ~cx and extensive not in found:
            found[extensive] = f"X={attrs(x)} not within cl(X)"
        if cl[cx] != cx and idempotent not in found:
            found[idempotent] = f"cl(cl(X)) != cl(X) for X={attrs(x)}"
        for q2 in range(n):
            y = x | 1 << q2
            if y == x:
                continue
            if cx & ~cl[y] and monotone not in found:
                found[monotone] = f"X={attrs(x)} subset of Y={attrs(y)} but cl(X) exceeds cl(Y)"
            gained = cl[y] & ~cx & ~(1 << q2)
            for q in range(n):
                if gained >> q & 1 and not cl[x | 1 << q] >> q2 & 1 and exchange not in found:
                    found[exchange] = (
                        f"q={q} in cl(X + {{{q2}}}) \\ cl(X) but q'={q2} not in "
                        f"cl(X + {{{q}}}) for X={attrs(x)}"
                    )
    return [checks.CheckOutcome(name, ok=name not in found, detail=found.get(name)) for name in names]


def test_check_closure_matches_the_per_subset_loop():
    exchange_failures = 0
    for scheme in closure_schemes(2026, 300):
        n = scheme.n
        cl = [_to_mask(closure(scheme, _bit_indices(x)), n) for x in range(1 << n)]
        expected = literal_check_closure(cl, n)
        assert checks.check_closure(scheme) == expected
        exchange_failures += not expected[3].ok
    assert exchange_failures >= 30


def test_check_closure_matches_the_loop_on_injected_operators(monkeypatch):
    # Closure tables with flipped bits and arbitrary maps fail every
    # property, several times over, so each first failure is compared.
    rng = random.Random(77)
    failures = [0, 0, 0, 0]
    for _ in range(300):
        n = rng.randint(0, 6)
        scheme = random_scheme(rng, rng.randint(1, 8), n)
        table = [_to_mask(closure(scheme, _bit_indices(x)), n) for x in range(1 << n)]
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3) if n else 0):
                table[rng.randrange(1 << n)] ^= 1 << rng.randrange(n)
        else:
            table = [rng.randrange(1 << n) for _ in table]
        expected = literal_check_closure(table, n)
        with monkeypatch.context() as patch:
            patch_closure_table(patch, table)
            assert checks.check_closure(scheme) == expected, table
        failures = [f + (not o.ok) for f, o in zip(failures, expected)]
    assert min(failures) >= 30, failures


def test_unequal_bases_are_reported_not_suppressed():
    report = enumerate_minimal_distinguishing(UNEQUAL_BASES)
    assert not report.equal_cardinality_ok
    assert not report.exchange_ok
    assert "unequal size" in report.counterexample
    sizes = {len(b) for b in report.bases}
    assert sizes == {2, 3}
    # The greedy pass lands on an inclusion-minimal set of the larger size.
    assert brute_force_minimum(UNEQUAL_BASES) == 2
    assert greedy_dimension(UNEQUAL_BASES) == 3


def test_basis_family_gives_each_failure_its_own_counterexample():
    cardinality, exchange = checks.check_basis_family(UNEQUAL_BASES)
    assert not cardinality.ok
    assert cardinality.detail == "minimal distinguishing sets of unequal size: [0, 1] vs [0, 3, 5]"
    assert not exchange.ok
    assert exchange.detail == "exchange fails for B1=[0, 1], B2=[0, 3, 5], q=1"
    # The bases output keeps the cardinality failure as its one counterexample.
    assert enumerate_minimal_distinguishing(UNEQUAL_BASES).counterexample == cardinality.detail


def test_basis_family_counterexamples_name_their_own_claim():
    rng = random.Random(3)
    both = 0
    for _ in range(400):
        k = rng.randint(2, 12)
        scheme = random_injective_scheme(rng, k, rng.randint((k - 1).bit_length(), 8))
        report = enumerate_minimal_distinguishing(scheme)
        cardinality, exchange = checks.check_basis_family(scheme)
        assert cardinality.ok == (len({len(b) for b in report.bases}) == 1)
        if not cardinality.ok:
            assert cardinality.detail.startswith("minimal distinguishing sets of unequal size: ")
        failure = literal_exchange_failure(report.bases)
        assert exchange.ok == (failure is None)
        assert exchange.detail == failure
        both += not cardinality.ok and not exchange.ok
    assert both > 0


def test_exchange_holds_on_matroid_schemes_as_the_pair_scan_says():
    rng = random.Random(13)
    reports = [
        enumerate_minimal_distinguishing(binary_linear_scheme(rng, m, rng.randint(m, 2 * m)))
        for m in range(1, 6)
        for _ in range(4)
    ]
    for m in range(1, 5):
        for r in range(1, 4):
            reports.append(enumerate_minimal_distinguishing(partition_scheme(m, r)))
            assert len(reports[-1].bases) == r**m
    for report in reports:
        assert literal_exchange_failure(report.bases) is None
        assert report.exchange_ok and report.exchange_counterexample is None
        assert report.equal_cardinality_ok and report.counterexample is None


def test_exact_dimension_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(2, 7)
        n = rng.randint(1, 7)
        scheme = random_injective_scheme(rng, k, max(n, (k - 1).bit_length()))
        assert distinguishing_dimension(scheme).dimension == brute_force_minimum(scheme)


def test_greedy_result_is_inclusion_minimal():
    rng = random.Random(8)
    for _ in range(40):
        k = rng.randint(2, 8)
        n = max(rng.randint(1, 8), (k - 1).bit_length())
        scheme = random_injective_scheme(rng, k, n)
        mask = literal_greedy_mask(scheme.profile_ints, scheme.n)
        members = [q for q in range(scheme.n) if mask >> q & 1]
        assert is_distinguishing(scheme, members)
        for q in members:
            assert not is_distinguishing(scheme, set(members) - {q})


def test_greedy_equals_exact_when_bases_are_equal_cardinality():
    rng = random.Random(9)
    checked = 0
    for _ in range(150):
        k = rng.randint(2, 7)
        n = max(rng.randint(1, 8), (k - 1).bit_length())
        scheme = random_injective_scheme(rng, k, n)
        report = enumerate_minimal_distinguishing(scheme)
        if report.equal_cardinality_ok:
            checked += 1
            assert greedy_dimension(scheme) == report.dimension
    assert checked > 50


def test_dimension_never_exceeds_attribute_count():
    rng = random.Random(10)
    for _ in range(40):
        k = rng.randint(2, 8)
        n = max(rng.randint(1, 9), (k - 1).bit_length())
        scheme = random_injective_scheme(rng, k, n)
        result = distinguishing_dimension(scheme)
        assert result.dimension <= scheme.n
        assert is_distinguishing(scheme, result.witness)


@st.composite
def wide_profile_sets(draw):
    """Up to 60 distinct profiles over up to 80 attributes (past one int64):
    sparse (at most three bits set), dense (at most three bits clear) or
    uniformly random."""
    n = draw(st.integers(1, 80))
    full = (1 << n) - 1
    few_bits = st.sets(st.integers(0, n - 1), max_size=3).map(lambda qs: sum(1 << q for q in qs))
    profile = draw(
        st.sampled_from([few_bits, few_bits.map(lambda p: full ^ p), st.integers(0, full)])
    )
    return draw(st.lists(profile, min_size=1, max_size=60, unique=True)), n


def rows_of(profiles, n: int) -> list[tuple[int, ...]]:
    return [tuple(p >> q & 1 for q in range(n)) for p in profiles]


@settings(deadline=None)
@given(wide_profile_sets())
def test_greedy_drop_matches_literal_drop(case):
    profiles, n = case
    expected = literal_greedy_mask(profiles, n)
    rows = rows_of(profiles, n)
    greedy = distinguishing_dimension(scheme_from_profiles(rows), exact_limit=0)
    assert (greedy.dimension, greedy.exact) == (expected.bit_count(), False)
    assert greedy.witness == attribute_set(expected, n)
    # Every other class repeated: the group collapses to the same distinct profiles.
    colliding = scheme_from_profiles(rows + rows[::2])
    assert block_dimension(colliding, range(colliding.k), exact_limit=0) == expected.bit_count()


def literal_scan_mask(profiles, n: int) -> tuple[int, bool]:
    """Oracle: the exact Gosper scan on its own, sizes up from ceil(log2 g)
    and each size's masks in increasing numeric order."""
    for size in range(max(len(profiles) - 1, 0).bit_length(), n + 1):
        mask = (1 << size) - 1
        while mask >> n == 0:
            if len({p & mask for p in profiles}) == len(profiles):
                return mask, True
            low = mask & -mask
            ripple = mask + low
            mask = ripple | ((ripple ^ mask) >> 2) // low
    raise AssertionError("distinct profiles are separated by every attribute")


def count_table_reads(monkeypatch) -> list:
    reads = []
    table_mask = matroid._table_mask
    monkeypatch.setattr(matroid, "_table_mask", lambda *a: reads.append(a) or table_mask(*a))
    return reads


@pytest.mark.parametrize("g, engine", [(1, "scan"), (2, "scan"), (9, "scan"), (24, "table"), (53, "table")])
def test_exact_mask_matches_the_scan_whichever_engine_runs(monkeypatch, g, engine):
    reads = count_table_reads(monkeypatch)
    rng = random.Random(g)
    for _ in range(3):
        profiles = rng.sample(range(1 << 16), g)
        assert matroid._smallest_separating_mask(profiles, 16, 16) == literal_scan_mask(profiles, 16)
    assert len(reads) == (3 if engine == "table" else 0)


def test_exact_mask_at_n0_and_above_the_table_limit(monkeypatch):
    reads = count_table_reads(monkeypatch)
    for profiles in ([], [0]):
        assert matroid._smallest_separating_mask(profiles, 0, 16) == literal_scan_mask(profiles, 0) == (0, True)
    # A raised exact limit reads the table wherever the model prices it
    # cheaper, here past EXACT_SUBSET_LIMIT: 4.75 M scan cells to 2.35 M.
    profiles = random.Random(17).sample(range(1 << 17), 24)
    assert matroid._smallest_separating_mask(profiles, 17, 17) == literal_scan_mask(profiles, 17)
    assert [n for _, n in reads] == [17]


def table_priced_cheaper(g: int, n: int) -> bool:
    """The cost model of ``_smallest_separating_mask``, in table cells."""
    first_size = max(g - 1, 0).bit_length()
    table_cells = (n << n) + g * g // 2 + (g + 2 * n) * matroid.TABLE_CELLS_PER_CALL
    return math.comb(n, first_size) * g * matroid.TABLE_CELLS_PER_TEST > table_cells


def planted_profiles(rng: random.Random, g: int, n: int) -> list[int]:
    """g distinct profiles over n attributes that a planted set of
    ceil(log2 g) attributes among the lowest few separates, so the literal
    scan stops within a few hundred masks; the other bits are random."""
    size = max(g - 1, 0).bit_length()
    planted = rng.sample(range(min(n, size + 2)), size)
    free = ((1 << n) - 1) ^ sum(1 << q for q in planted)
    return [
        rng.getrandbits(n) & free | sum((v >> i & 1) << q for i, q in enumerate(planted))
        for v in rng.sample(range(1 << size), g)
    ]


@pytest.mark.parametrize("n", range(17, 23))
def test_raised_exact_limit_reads_the_table_where_the_model_prices_it_cheaper(monkeypatch, n):
    reads = count_table_reads(monkeypatch)
    rng = random.Random(n)
    expected_reads = 0
    for g in (8, 16, 24, 40, rng.randint(100, 200), 1000):
        # Random profiles where the literal scan is quick; planted ones above.
        profiles = rng.sample(range(1 << n), g) if g <= 40 else planted_profiles(rng, g, n)
        assert matroid._smallest_separating_mask(profiles, n, n) == literal_scan_mask(profiles, n)
        expected_reads += table_priced_cheaper(g, n)
        assert len(reads) == expected_reads
    assert 0 < expected_reads < 6


def test_exact_block_dimension_of_colliding_groups_matches_the_scan(monkeypatch):
    reads = count_table_reads(monkeypatch)
    rng = random.Random(53)
    pool = rng.sample(range(1 << 16), 53)
    profile_ints = [pool[c % 53] for c in range(106)]  # every profile twice
    scheme = scheme_from_profiles([tuple(p >> q & 1 for q in range(16)) for p in profile_ints])
    for size in (2, 9, 30, 80, 106):
        members = rng.sample(range(106), size)
        distinct = list({profile_ints[c] for c in members})
        assert block_dimension(scheme, members) == literal_scan_mask(distinct, 16)[0].bit_count()
    assert reads


def test_greedy_drop_one_hot_keeps_all_but_one():
    n = 120
    profiles = [1 << q for q in range(n)]
    expected = literal_greedy_mask(profiles, n)
    assert expected == ((1 << n) - 1) ^ 1
    scheme = scheme_from_profiles(rows_of(profiles, n))
    greedy = distinguishing_dimension(scheme, exact_limit=0)
    assert (greedy.dimension, greedy.exact) == (n - 1, False)
    assert greedy.witness == attribute_set(expected, n)
    assert block_dimension(scheme, range(n), exact_limit=0) == n - 1


def test_block_dimension(s2):
    assert block_dimension(s2, []) == block_dimension(s2, [], exact_limit=0) == 0
    assert block_dimension(s2, [0]) == 0
    assert block_dimension(s2, [0, 1]) == 1
    assert block_dimension(s2, range(4)) == 2
    # Colliding members collapse: only the distinct profiles matter.
    colliding = scheme_from_profiles([(1, 0), (0, 1), (1, 0)])
    assert block_dimension(colliding, range(3)) == 1


@st.composite
def packed_schemes(draw):
    """Random schemes over a small profile pool: colliding, injective, k=1 and n=0."""
    n = draw(st.integers(0, 6))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8, unique=True))
    if draw(st.booleans()):
        profile_ints = draw(st.permutations(pool))
    else:
        profile_ints = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    return scheme_from_profiles([tuple(p >> q & 1 for q in range(n)) for p in profile_ints])


def attribute_set(mask: int, n: int) -> set[int]:
    return {q for q in range(n) if mask >> q & 1}


def literal_distinguishes(profiles, mask: int) -> bool:
    return all(pm & mask for pm in literal_pair_masks(profiles))


def literal_minimal_masks(profiles, n: int) -> list[int]:
    """Oracle: distinguishing masks none of whose one-smaller subsets distinguishes."""
    return [
        mask
        for mask in range(1 << n)
        if literal_distinguishes(profiles, mask)
        and not any(
            literal_distinguishes(profiles, mask & ~(1 << q)) for q in range(n) if mask >> q & 1
        )
    ]


@settings(max_examples=300, deadline=None)
@given(packed_schemes(), st.integers(0, 63))
@example(scheme_from_profiles([()]), 0)  # k=1, n=0
@example(scheme_from_profiles([(0, 1), (0, 1)]), 3)  # all colliding
def test_kernel_matches_literal_definitions(scheme, x_bits):
    profiles, n = scheme.profile_ints, scheme.n
    pairs = list(itertools.combinations(profiles, 2))
    x_mask = x_bits & ((1 << n) - 1)
    X = attribute_set(x_mask, n)
    agreeing = [(a, b) for a, b in pairs if (a ^ b) & x_mask == 0]
    assert closure(scheme, X) == {
        q for q in range(n) if all((a ^ b) >> q & 1 == 0 for a, b in agreeing)
    }
    assert is_distinguishing(scheme, X) == literal_distinguishes(profiles, x_mask)

    if len(set(profiles)) < len(profiles):
        with pytest.raises(BarrierError):
            enumerate_minimal_distinguishing(scheme)
        with pytest.raises(BarrierError):
            distinguishing_dimension(scheme)
        return
    minimal = literal_minimal_masks(profiles, n)
    report = enumerate_minimal_distinguishing(scheme)
    assert len(report.bases) == len(minimal)
    assert set(report.bases) == {frozenset(attribute_set(m, n)) for m in minimal}
    smallest = min(m.bit_count() for m in minimal)
    first = next(
        m for m in range(1 << n) if m.bit_count() == smallest and literal_distinguishes(profiles, m)
    )
    exact = distinguishing_dimension(scheme)
    assert exact.exact and exact.dimension == smallest
    assert exact.witness == attribute_set(first, n)
    greedy = distinguishing_dimension(scheme, exact_limit=0)
    expected = literal_greedy_mask(profiles, n)
    assert (greedy.dimension, greedy.exact) == (expected.bit_count(), n == 0)
    assert greedy.witness == attribute_set(expected, n)


def test_bases_come_by_size_then_sorted_attributes():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(0, 10)
        scheme = random_injective_scheme(rng, rng.randint(1, min(40, 1 << n)), n)
        bases = enumerate_minimal_distinguishing(scheme).bases
        assert list(bases) == sorted(bases, key=lambda b: (len(b), sorted(b)))


def test_bases_table_memory_stays_bounded():
    # The subset table holds 2^n bytes whatever k is; the peak must not grow
    # with the k(k-1)/2 class pairs (79,800 here).
    scheme = random_injective_scheme(random.Random(11), 400, 16)
    tracemalloc.start()
    try:
        report = enumerate_minimal_distinguishing(scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.bases
    assert peak < 64 * 2**20, peak


def test_bases_table_refuses_unallocatable_n():
    n = SUBSET_TABLE_LIMIT + 1
    scheme = scheme_from_profiles([(0,) * n, (1,) * n])
    with pytest.raises(LimitError):
        enumerate_minimal_distinguishing(scheme, max_n=n)


def test_bases_past_the_pair_table_allocation_is_a_limit_error(monkeypatch):
    # The 2^n pair table fits but the minimal-set table beside it does not:
    # the enumeration stops with LimitError, not an escaped MemoryError.
    class NoRoomBeside(np.ndarray):
        def __invert__(self):
            raise MemoryError

    pair_table = matroid._pair_table
    monkeypatch.setattr(matroid, "_pair_table", lambda *args: pair_table(*args).view(NoRoomBeside))
    with pytest.raises(LimitError, match="cannot allocate the 2\\^4-entry"):
        enumerate_minimal_distinguishing(random_injective_scheme(random.Random(3), 8, 4))
