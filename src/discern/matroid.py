"""Distinguishing-set structure over attribute query sets.

The ground set is the attribute index range 0..n-1 and a class is its
packed profile ``p`` (attribute q in bit q).  A query set S distinguishes
the scheme when every pair of distinct classes differs on some attribute
in S, i.e. when the projections ``p & S`` are pairwise distinct
(``separates``).  The closure of X collects every attribute constant
within each group of classes sharing ``p & X``.

One 2^n pair table serves the exact subset questions on every X at once
(``_pair_table``).  Each pair of distinct profiles marks its agreement
set with its disagreement, and the marks are ORed downward one attribute
at a time (the subset-sum transform over the Boolean lattice), so entry X
collects the disagreements of every pair that agrees on X.  As booleans
it marks the sets that do not distinguish, from which come the
inclusion-minimal distinguishing sets and the basis-exchange check, run
per instance and never assumed.  As bits it is the set of attributes
varying within some group of ``p & X``, whose complement is cl(X) for
every X (``closure_table``, read by ``checks.check_closure``).  The other
exhaustive scan is the exact ``_smallest_separating_mask``, which scans
masks by size (Gosper's hack).

Above the exact limit a smallest separating set is approximated by the
ascending greedy drop: try removing attributes 0, 1, ..., n-1 in turn and
keep each removal that still separates.  It runs as one pass over the
binary trie of the sorted profiles (most significant attribute first)
rather than one ``separates`` per attribute.  When q is tried, every
attribute above q is still in the mask, so a pair of profiles that the
mask minus q fails to separate agrees on every bit above q and differs at
q: it sits on both sides of a trie node split at level q.  Such a pair
exists iff, at some node split at q, the two children share a projection
onto the attributes already kept below q; the pair already agrees above q,
and the attributes dropped below q no longer count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barrier import collisions
from .errors import BarrierError, LimitError
from .scheme import Scheme

EXACT_SUBSET_LIMIT = 16

# Largest n whose 2^n pair table is allocated (bases: two 1 GiB tables).
SUBSET_TABLE_LIMIT = 30


@dataclass(frozen=True)
class MatroidReport:
    """All inclusion-minimal distinguishing sets plus axiom-check outcomes."""

    bases: tuple[frozenset[int], ...]
    dimension: int
    exchange_ok: bool
    equal_cardinality_ok: bool
    counterexample: str | None  # the cardinality failure if any, else the exchange one
    exchange_counterexample: str | None


@dataclass(frozen=True)
class DimensionResult:
    """Distinguishing dimension; ``exact`` is False for the greedy fallback."""

    dimension: int
    exact: bool
    witness: frozenset[int]


def _to_mask(indices, n: int) -> int:
    mask = 0
    for q in indices:
        if not 0 <= q < n:
            raise IndexError(f"attribute index {q} out of range for n={n}")
        mask |= 1 << q
    return mask


def _to_set(mask: int) -> frozenset[int]:
    return frozenset(q for q in range(mask.bit_length()) if mask >> q & 1)


def separates(profiles, mask: int) -> bool:
    """True iff the projections ``p & mask`` of ``profiles`` are pairwise distinct."""
    seen = set()
    for p in profiles:
        projected = p & mask
        if projected in seen:
            return False
        seen.add(projected)
    return True


def _smallest_separating_mask(profiles, n: int, exact_limit: int) -> tuple[int, bool]:
    """A smallest mask separating the distinct ``profiles``, and whether it is exact.

    Up to ``exact_limit`` attributes, sizes rise from the ceil(log2 g) bound
    and each size is scanned in increasing numeric order (Gosper's hack),
    so the mask is the numerically first of minimum size.  Above it, one
    ascending drop pass gives an inclusion-minimal mask: the candidate only
    shrinks, so a kept attribute never becomes droppable later.

    The drop walks the trie nodes of the sorted profiles by ascending
    split level q.  Sorted profiles that agree above q form one run, split
    at q into a 0 child and a 1 child: a node boundary is an adjacent pair
    whose highest differing bit is q, and the node reaches out to the
    nearest boundaries with a higher bit (a monotonic stack finds them).
    Dropping q fails exactly when two profiles agree on every attribute
    still in the mask once q is gone.  Every attribute above q is still
    in it, so the pair agrees above q and, the mask having separated it,
    differs at q: it straddles the two children of one node at level q and
    agrees on the attributes kept below q (see the module docstring).  The
    test builds a set of the smaller child's projections onto those
    attributes and probes it with the larger child's.  A level with no
    node drops its attribute.
    """
    if n <= exact_limit:
        # Returns by size n at the latest: all attributes separate distinct profiles.
        for size in range(max(len(profiles) - 1, 0).bit_length(), n + 1):
            mask = (1 << size) - 1
            while mask >> n == 0:
                if separates(profiles, mask):
                    return mask, True
                low = mask & -mask
                ripple = mask + low
                mask = ripple | ((ripple ^ mask) >> 2) // low
    ordered = sorted(set(profiles))
    # tops[i]: the highest bit where ordered[i] and ordered[i + 1] differ.
    tops = [(a ^ b).bit_length() - 1 for a, b in zip(ordered, ordered[1:])]
    nodes = []  # (level, start, middle, end): children ordered[start:middle], ordered[middle:end]
    stack: list[int] = []  # open boundaries, highest bits strictly decreasing
    for i, top in enumerate([*tops, n]):
        while stack and tops[stack[-1]] < top:
            j = stack.pop()
            nodes.append((tops[j], stack[-1] + 1 if stack else 0, j + 1, i + 1))
        stack.append(i)
    mask = 0
    for q, start, middle, end in sorted(nodes):
        if mask >> q & 1:
            continue
        small, large = ordered[start:middle], ordered[middle:end]
        if len(small) > len(large):
            small, large = large, small
        seen = {p & mask for p in small}
        for p in large:
            if p & mask in seen:
                mask |= 1 << q
                break
    return mask, False


def x_equivalent(scheme: Scheme, X, c1: int, c2: int) -> bool:
    """True iff the two classes agree on every attribute in X."""
    p1, p2 = (scheme.profile_ints[scheme.check_class(c)] for c in (c1, c2))
    return (p1 ^ p2) & _to_mask(X, scheme.n) == 0


def closure(scheme: Scheme, X) -> frozenset[int]:
    """cl(X): every attribute q such that X-agreement forces q-agreement.

    Classes are grouped by ``p & X``; an attribute varies within a group
    iff some member differs there from the group's first member.
    """
    x_mask = _to_mask(X, scheme.n)
    first: dict[int, int] = {}
    varying = 0
    for p in scheme.profile_ints:
        varying |= p ^ first.setdefault(p & x_mask, p)
    return _to_set(((1 << scheme.n) - 1) & ~varying)


def closure_table(scheme: Scheme) -> np.ndarray:
    """cl(X) as a mask for every mask X: ``closure`` on all 2^n query sets.

    q is in cl(X) iff no two classes that agree on X differ at q, i.e. iff
    q is outside the OR of the disagreements of every pair agreeing on X.
    """
    full = (1 << scheme.n) - 1
    table = _pair_table(scheme.profile_ints, scheme.n, np.min_scalar_type(full))
    table ^= full  # in place: the varying attributes all lie within full
    return table


def is_distinguishing(scheme: Scheme, S) -> bool:
    """True iff every pair of distinct classes differs on some attribute in S."""
    return separates(scheme.profile_ints, _to_mask(S, scheme.n))


def _require_injective(scheme: Scheme):
    if not collisions(scheme).injective:
        raise BarrierError(
            "scheme has colliding profiles; no distinguishing set exists"
        )


def _pair_table(profile_ints, n: int, dtype) -> np.ndarray:
    """Entry X is the OR of the disagreements ``p ^ p'`` of every pair of
    distinct profiles that agrees on X; as ``bool``, whether there is one.

    Each disagreement d is written at its agreement set ``full ^ d`` (pairs
    with one agreement set share d), then the n in-place passes OR each
    entry into every subset of it.  Raises ``LimitError`` above
    ``SUBSET_TABLE_LIMIT`` or when the 2^n entries cannot be allocated.
    """
    if n > SUBSET_TABLE_LIMIT:
        raise LimitError(f"subset table limited to n <= {SUBSET_TABLE_LIMIT}, scheme has n={n}")
    try:
        table = np.zeros(1 << n, dtype=dtype)
    except MemoryError:
        raise LimitError(f"cannot allocate the 2^{n}-entry subset table") from None
    full = (1 << n) - 1
    profiles = np.array([*set(profile_ints)], dtype=np.int64)  # pair order does not matter
    for i in range(len(profiles) - 1):
        disagreements = profiles[i + 1:] ^ profiles[i]
        table[full ^ disagreements] = disagreements
    for q in range(n):
        halves = table.reshape(-1, 2, 1 << q)
        halves[:, 0, :] |= halves[:, 1, :]
    return table


def _base_masks(profile_ints, n: int) -> tuple[list[int], tuple[int, int, int] | None]:
    """Masks of every inclusion-minimal distinguishing set, by size and then
    sorted attributes, and the first exchange failure (B1, B2, q) in that
    order: q in B1 - B2, and no q2 in B2 - B1 makes B1 - q + q2 a base.

    ``blocked[X]`` marks X as contained in the agreement set of some class
    pair, i.e. not distinguishing (``_pair_table`` as booleans).  X is
    minimal iff it is unmarked while every X minus one attribute is marked.

    For q in B1, N collects every q2 outside B1 with B1 - q + q2 minimal.
    Exchange fails for (B1, q) iff some base avoids q and N, i.e. iff the
    attributes outside N + {q} still distinguish: one ``blocked`` lookup.
    """
    blocked = _pair_table(profile_ints, n, bool)
    full = (1 << n) - 1
    try:
        minimal = ~blocked
        for q in range(n):
            minimal.reshape(-1, 2, 1 << q)[:, 1, :] &= blocked.reshape(-1, 2, 1 << q)[:, 0, :]
        # Among equal sizes, ascending sorted attributes is descending
        # bit-reversed value: bit q weighs 2^(n-1-q).
        found = np.flatnonzero(minimal)
        size = np.zeros_like(found)
        reversed_value = np.zeros_like(found)
        for q in range(n):
            bit = found >> q & 1
            size += bit
            reversed_value |= bit << (n - 1 - q)
        masks = found[np.lexsort((-reversed_value, size))].tolist()
    except MemoryError:
        raise LimitError(f"cannot allocate the 2^{n}-entry subset table") from None
    for b1 in masks:
        outside = [q2 for q2 in range(n) if not b1 >> q2 & 1]
        failing = {}  # q -> N
        for q in range(n):
            if b1 >> q & 1:
                swaps = sum(1 << q2 for q2 in outside if minimal[b1 ^ 1 << q | 1 << q2])
                if not blocked[full ^ swaps ^ 1 << q]:
                    failing[q] = swaps
        if failing:
            return masks, next(
                (b1, b2, q)
                for b2 in masks
                for q, swaps in failing.items()
                if not b2 >> q & 1 and not b2 & swaps
            )
    return masks, None


def enumerate_minimal_distinguishing(scheme: Scheme, max_n: int = EXACT_SUBSET_LIMIT) -> MatroidReport:
    """Exhaustively enumerate inclusion-minimal distinguishing sets.

    Also runs the basis-exchange and equal-cardinality checks over the
    enumerated family; a failure populates ``counterexample`` (an exchange
    failure also ``exchange_counterexample``) rather than raising, since
    both claims are verified per instance.
    """
    _require_injective(scheme)
    if scheme.n > max_n:
        raise LimitError(f"exact enumeration limited to n <= {max_n}, scheme has n={scheme.n}")
    masks, failure = _base_masks(scheme.profile_ints, scheme.n)
    bases = tuple(_to_set(mask) for mask in masks)

    counterexample = None
    equal_cardinality_ok = len(bases[0]) == len(bases[-1])
    if not equal_cardinality_ok:
        large = next(b for b in bases if len(b) == len(bases[-1]))
        counterexample = (
            f"minimal distinguishing sets of unequal size: {sorted(bases[0])} vs {sorted(large)}"
        )

    exchange_counterexample = None
    if failure:
        b1, b2 = (sorted(_to_set(m)) for m in failure[:2])
        exchange_counterexample = f"exchange fails for B1={b1}, B2={b2}, q={failure[2]}"

    return MatroidReport(
        bases=bases,
        dimension=len(bases[0]),
        exchange_ok=failure is None,
        equal_cardinality_ok=equal_cardinality_ok,
        counterexample=counterexample or exchange_counterexample,
        exchange_counterexample=exchange_counterexample,
    )


def distinguishing_dimension(scheme: Scheme, exact_limit: int = EXACT_SUBSET_LIMIT) -> DimensionResult:
    """Minimum distinguishing-set size; greedy above the exact limit.

    Exact mode reports the numerically first smallest distinguishing set.
    Above ``exact_limit`` the result is the size of a greedily minimized
    set and is flagged ``exact=False``.
    """
    _require_injective(scheme)
    mask, exact = _smallest_separating_mask(scheme.profile_ints, scheme.n, exact_limit)
    return DimensionResult(dimension=mask.bit_count(), exact=exact, witness=_to_set(mask))


def block_dimension(scheme: Scheme, members, exact_limit: int = EXACT_SUBSET_LIMIT) -> int:
    """Distinguishing dimension restricted to one group of classes.

    Duplicate profiles inside the group are collapsed first, so the value
    is defined even when the group contains colliding classes (it then
    measures what queries can still separate).  Up to ``exact_limit``
    attributes the value is the exact minimum; above it, the size of the
    ascending greedy drop; both come from the search behind
    ``distinguishing_dimension``.
    """
    profiles = {scheme.profile_ints[c] for c in members}
    return _smallest_separating_mask(profiles, scheme.n, exact_limit)[0].bit_count()
