"""Distinguishing-set structure over attribute query sets.

The ground set is the attribute index range 0..n-1.  A query set S
distinguishes the scheme when every pair of distinct classes differs on
some attribute in S.  The closure of X collects every attribute whose
answer is determined by agreement on X.  Inclusion-minimal distinguishing
sets are enumerated and checked against the basis-exchange axiom; the
check is reported per instance, never assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BarrierError, LimitError
from .scheme import Scheme

EXACT_SUBSET_LIMIT = 16

QuerySet = frozenset


@dataclass(frozen=True)
class MatroidReport:
    """All inclusion-minimal distinguishing sets plus axiom-check outcomes."""

    bases: tuple[frozenset[int], ...]
    dimension: int
    exchange_ok: bool
    equal_cardinality_ok: bool
    counterexample: str | None


@dataclass(frozen=True)
class DimensionResult:
    """Distinguishing dimension; ``exact`` is False for the greedy fallback."""

    dimension: int
    exact: bool
    witness: frozenset[int]


def pair_separation_masks(profile_ints) -> list[int]:
    """XOR mask per unordered class pair (i < j), attribute q in bit q."""
    masks = []
    for i in range(len(profile_ints)):
        for j in range(i + 1, len(profile_ints)):
            masks.append(profile_ints[i] ^ profile_ints[j])
    return masks


def _to_mask(indices, n: int) -> int:
    mask = 0
    for q in indices:
        if not 0 <= q < n:
            raise IndexError(f"attribute index {q} out of range for n={n}")
        mask |= 1 << q
    return mask


def _to_set(mask: int) -> frozenset[int]:
    return frozenset(q for q in range(mask.bit_length()) if mask >> q & 1)


def x_equivalent(scheme: Scheme, X, c1: int, c2: int) -> bool:
    """True iff the two classes agree on every attribute in X."""
    if not 0 <= c1 < scheme.k or not 0 <= c2 < scheme.k:
        raise IndexError(f"class index out of range for k={scheme.k}")
    x_mask = _to_mask(X, scheme.n)
    return (scheme.profile_ints[c1] ^ scheme.profile_ints[c2]) & x_mask == 0


def closure_mask(pair_masks, x_mask: int, full_mask: int) -> int:
    """Attributes constant on every block of the X-agreement partition."""
    varying = 0
    for pm in pair_masks:
        if pm & x_mask == 0:
            varying |= pm
    return full_mask & ~varying


def closure(scheme: Scheme, X) -> frozenset[int]:
    """cl(X): every attribute q such that X-agreement forces q-agreement."""
    x_mask = _to_mask(X, scheme.n)
    full = (1 << scheme.n) - 1
    return _to_set(closure_mask(pair_separation_masks(scheme.profile_ints), x_mask, full))


def is_distinguishing(scheme: Scheme, S) -> bool:
    """True iff every pair of distinct classes differs on some attribute in S."""
    s_mask = _to_mask(S, scheme.n)
    return all(pm & s_mask for pm in pair_separation_masks(scheme.profile_ints))


def _require_injective(scheme: Scheme):
    if any(pm == 0 for pm in pair_separation_masks(scheme.profile_ints)):
        raise BarrierError(
            "scheme has colliding profiles; no distinguishing set exists"
        )


def _distinguishing_table(scheme: Scheme) -> list[bool]:
    """distinguishing[mask] for every attribute subset, via pair-hit DP."""
    pair_masks = pair_separation_masks(scheme.profile_ints)
    n = scheme.n
    all_pairs = (1 << len(pair_masks)) - 1
    attr_hits = [0] * n
    for p, pm in enumerate(pair_masks):
        for q in range(n):
            if pm >> q & 1:
                attr_hits[q] |= 1 << p
    hit = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        hit[mask] = hit[mask & (mask - 1)] | attr_hits[low]
    return [h == all_pairs for h in hit]


def enumerate_minimal_distinguishing(scheme: Scheme, max_n: int = EXACT_SUBSET_LIMIT) -> MatroidReport:
    """Exhaustively enumerate inclusion-minimal distinguishing sets.

    Also runs the basis-exchange and equal-cardinality checks over the
    enumerated family; a failure populates ``counterexample`` rather than
    raising, since both claims are verified per instance.
    """
    _require_injective(scheme)
    if scheme.n > max_n:
        raise LimitError(f"exact enumeration limited to n <= {max_n}, scheme has n={scheme.n}")
    table = _distinguishing_table(scheme)
    minimal_masks = []
    for mask in range(1 << scheme.n):
        if not table[mask]:
            continue
        sub = mask
        minimal = True
        while sub:
            low = sub & -sub
            if table[mask & ~low]:
                minimal = False
                break
            sub &= sub - 1
        if minimal:
            minimal_masks.append(mask)
    bases = sorted((_to_set(mask) for mask in minimal_masks), key=lambda b: (len(b), sorted(b)))
    sizes = {len(b) for b in bases}
    dimension = min(sizes)
    base_set = set(bases)

    counterexample = None
    equal_cardinality_ok = len(sizes) == 1
    if not equal_cardinality_ok:
        small = next(b for b in bases if len(b) == min(sizes))
        large = next(b for b in bases if len(b) == max(sizes))
        counterexample = (
            f"minimal distinguishing sets of unequal size: {sorted(small)} vs {sorted(large)}"
        )

    exchange_ok = True
    for b1 in bases:
        for b2 in bases:
            for q in sorted(b1 - b2):
                if not any((b1 - {q}) | {q2} in base_set for q2 in sorted(b2 - b1)):
                    exchange_ok = False
                    if counterexample is None:
                        counterexample = (
                            f"exchange fails for B1={sorted(b1)}, B2={sorted(b2)}, q={q}"
                        )
                    break
            if not exchange_ok:
                break
        if not exchange_ok:
            break

    return MatroidReport(
        bases=tuple(bases),
        dimension=dimension,
        exchange_ok=exchange_ok,
        equal_cardinality_ok=equal_cardinality_ok,
        counterexample=counterexample,
    )


def greedy_minimal_mask(pair_masks, n: int) -> int:
    """Drop attributes ascending while the rest still distinguishes.

    One ascending pass returns an inclusion-minimal distinguishing set:
    re-testing a kept attribute later cannot succeed because the candidate
    set only shrinks.
    """
    mask = (1 << n) - 1
    for q in range(n):
        candidate = mask & ~(1 << q)
        if all(pm & candidate for pm in pair_masks):
            mask = candidate
    return mask


def distinguishing_dimension(scheme: Scheme, exact_limit: int = EXACT_SUBSET_LIMIT) -> DimensionResult:
    """Minimum distinguishing-set size; greedy above the exact limit.

    Exact mode scans subsets in packed-mask order and reports the first
    smallest distinguishing set.  Above ``exact_limit`` the result is the
    size of a greedily minimized set and is flagged ``exact=False``.
    """
    _require_injective(scheme)
    if scheme.n <= exact_limit:
        table = _distinguishing_table(scheme)
        best_mask = (1 << scheme.n) - 1
        best_size = scheme.n
        for mask in range(1 << scheme.n):
            if table[mask] and mask.bit_count() < best_size:
                best_mask, best_size = mask, mask.bit_count()
        return DimensionResult(dimension=best_size, exact=True, witness=_to_set(best_mask))
    pair_masks = pair_separation_masks(scheme.profile_ints)
    mask = greedy_minimal_mask(pair_masks, scheme.n)
    return DimensionResult(dimension=mask.bit_count(), exact=False, witness=_to_set(mask))


def block_dimension(scheme: Scheme, members, exact_limit: int = EXACT_SUBSET_LIMIT) -> int:
    """Distinguishing dimension restricted to one group of classes.

    Duplicate profiles inside the group are collapsed first, so the value
    is defined even when the group contains colliding classes (it then
    measures what queries can still separate).  A set S separates the g
    distinct profiles iff their projections ``p & S`` are g distinct
    values, an O(g) test.  Up to ``exact_limit`` attributes the subsets
    are searched by increasing size from the ceil(log2 g) lower bound and
    the first size that separates is exact; above it the result is the
    size of the ascending greedy drop of ``greedy_minimal_mask``.
    """
    profiles = {scheme.profile_ints[c] for c in members}
    g = len(profiles)
    if g <= 1:
        return 0

    def separates(mask: int) -> bool:
        seen = set()
        for p in profiles:
            projected = p & mask
            if projected in seen:
                return False
            seen.add(projected)
        return True

    n = scheme.n
    if n <= exact_limit:
        # Returns by size n at the latest: all attributes separate distinct profiles.
        bits = [1 << q for q in range(n)]
        for size in range((g - 1).bit_length(), n + 1):
            for combo in combinations(bits, size):
                if separates(sum(combo)):
                    return size
    mask = (1 << n) - 1
    for q in range(n):
        candidate = mask & ~(1 << q)
        if separates(candidate):
            mask = candidate
    return mask.bit_count()
