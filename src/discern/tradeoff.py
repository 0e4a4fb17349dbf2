"""The (tag bits, worst-case queries, distortion) tradeoff space.

Achievable points are emitted per observer strategy, the Pareto frontier
filters dominated points, and the converse check flags any zero-distortion
point that claims fewer tag bits than naming the classes requires on a
colliding scheme.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import matroid
from .barrier import collisions
from .errors import BarrierError, EmptyInputError
from .scheme import Scheme
from .strategies import (
    StrategyDescriptor,
    decode_distortion,
    subscheme,
    tag_bits_for,
    tag_partition,
    _group_dimension,
    _profile_units,
)
from .trees import adaptive_tree

OK = "OK"
VIOLATION = "VIOLATION"

EXHAUSTIVE_PARTITION_CLASS_LIMIT = 10
EXHAUSTIVE_PARTITION_BLOCK_LIMIT = 4


@dataclass(frozen=True)
class TradeoffPoint:
    """One achievable (tag bits, worst-case queries, distortion) point.

    A hybrid point carries the ``TagPlan`` its W and D were computed from,
    so callers that report the plan read it here instead of planning
    again; the plan takes no part in equality.
    """

    L: int
    W: int
    D: float
    source: StrategyDescriptor
    plan: TagPlan | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.L < 0 or self.W < 0 or not 0.0 <= self.D <= 1.0:
            raise ValueError(f"invalid tradeoff point ({self.L}, {self.W}, {self.D})")


@dataclass(frozen=True)
class TagPlan:
    """Partition of the classes induced by an L-bit tag.

    ``groups`` is the greedy plan actually used by the hybrid strategy;
    when the instance is small enough an exhaustive partition search also
    runs and its best value is reported alongside for comparison.
    """

    groups: tuple[tuple[int, ...], ...]
    L: int
    max_group_dimension: int
    residual_distortion: float
    exhaustive_max_group_dimension: int | None = None


def _grouped_distortion(scheme: Scheme, groups) -> float:
    """Distortion of the best decoder seeing the group tag plus the profile.

    Summed as per-cell residual mass so injective cells contribute an
    exact 0.0.
    """
    residual = 0.0
    for group in groups:
        cells: dict[int, list[float]] = {}
        for c in group:
            cells.setdefault(scheme.profile_ints[c], []).append(scheme.masses[c])
        for masses in cells.values():
            residual += sum(masses) - max(masses)
    return residual


def _exhaustive_best_dimension(scheme: Scheme, block_limit: int, dim_cache: dict) -> int:
    """Minimum over all unit partitions into <= block_limit groups of the
    max per-group dimension.  Collision blocks stay atomic."""
    units = _profile_units(scheme)

    def group_dim(blocks_entry) -> int:
        members = frozenset(c for unit in blocks_entry for c in unit)
        return _group_dimension(scheme, members, dim_cache)

    best = scheme.n + 1

    def assign(i: int, blocks: list[list[tuple[int, ...]]]):
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


def hybrid_tag_plan(scheme: Scheme, L: int) -> TagPlan:
    """Greedy dimension-balanced partition for an L-bit tag.

    Classes sharing a profile are never split across groups, so any
    residual collision keeps its group's distortion positive.  For small
    instances (k <= 10, 2**L <= 4) an exhaustive partition search runs as
    a reference and both values are reported.  Both searches and the
    plan's own dimension share one block-dimension cache.
    """
    if L < 0:
        raise ValueError("tag bits must be >= 0")
    dim_cache: dict[frozenset, int] = {}
    groups = tag_partition(scheme, L, dim_cache=dim_cache)
    plan_dim = max((_group_dimension(scheme, frozenset(g), dim_cache) for g in groups), default=0)
    exhaustive_dim = None
    if (
        L < tag_bits_for(scheme.k)
        and scheme.k <= EXHAUSTIVE_PARTITION_CLASS_LIMIT
        and (1 << L) <= EXHAUSTIVE_PARTITION_BLOCK_LIMIT
    ):
        exhaustive_dim = _exhaustive_best_dimension(scheme, 1 << L, dim_cache)
    return TagPlan(
        groups=groups,
        L=L,
        max_group_dimension=plan_dim,
        residual_distortion=_grouped_distortion(scheme, groups),
        exhaustive_max_group_dimension=exhaustive_dim,
    )


def _hybrid_worst_queries(scheme: Scheme, groups) -> int:
    """One tag read plus the worst in-group adaptive walk."""
    worst = 0
    for group in groups:
        if len(group) == 1:
            continue
        sub, _ = subscheme(scheme, group)
        worst = max(worst, adaptive_tree(sub).depth)
    return 1 + worst


def achievable_points(scheme: Scheme, hybrid_tags=()) -> tuple[TradeoffPoint, ...]:
    """Points realized by the implemented strategies, in a fixed order:
    nominal, exhaustive, adaptive, then one hybrid point per requested L,
    each planned once and carrying its ``TagPlan``."""
    tag_free_distortion = decode_distortion(scheme)
    points = [
        TradeoffPoint(tag_bits_for(scheme.k), 1, 0.0, StrategyDescriptor.nominal_for(scheme)),
        TradeoffPoint(0, scheme.n, tag_free_distortion, StrategyDescriptor.exhaustive()),
        TradeoffPoint(0, adaptive_tree(scheme).depth, tag_free_distortion, StrategyDescriptor.adaptive()),
    ]
    for L in sorted(set(hybrid_tags)):
        plan = hybrid_tag_plan(scheme, L)
        points.append(
            TradeoffPoint(
                L,
                _hybrid_worst_queries(scheme, plan.groups),
                plan.residual_distortion,
                StrategyDescriptor.hybrid(L),
                plan,
            )
        )
    return tuple(points)


def _dominates(a: TradeoffPoint, b: TradeoffPoint) -> bool:
    if a.L > b.L or a.W > b.W or a.D > b.D:
        return False
    return a.L < b.L or a.W < b.W or a.D < b.D


def pareto_frontier(points) -> tuple[TradeoffPoint, ...]:
    """Drop dominated points and exact duplicates; keep input order."""
    points = list(points)
    if not points:
        raise EmptyInputError("pareto_frontier needs at least one point")
    unique: list[TradeoffPoint] = []
    seen = set()
    for p in points:
        key = (p.L, p.W, p.D)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return tuple(
        p for p in unique if not any(q is not p and _dominates(q, p) for q in unique)
    )


def converse_check(scheme: Scheme, point: TradeoffPoint) -> str:
    """Flag zero-distortion points below the tag-rate bound on barrier schemes."""
    if collisions(scheme).injective:
        return OK
    if point.D == 0.0 and point.L < tag_bits_for(scheme.k):
        return VIOLATION
    return OK


@dataclass(frozen=True)
class LossyBudget:
    """Smallest tree truncation meeting a distortion target.

    ``envelope`` is the ceil(log2(1/eps)) * d reference curve, shown for
    comparison only; ``depth`` is what the truncated tree actually needs.
    """

    depth: int
    distortion: float
    envelope: int


def _truncated_distortion(scheme: Scheme, tree, depth: int) -> float:
    def residual_mass(node, budget: int) -> float:
        if node.is_leaf or budget == 0:
            masses = [scheme.masses[c] for c in node.candidates]
            return sum(masses) - max(masses)
        return residual_mass(node.zero, budget - 1) + residual_mass(node.one, budget - 1)

    return residual_mass(tree.root, depth)


def lossy_budget(scheme: Scheme, epsilon: float) -> LossyBudget:
    """Smallest adaptive-tree truncation depth with distortion <= epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    tree = adaptive_tree(scheme)
    envelope = math.ceil(math.log2(1.0 / epsilon)) * matroid.block_dimension(
        scheme, range(scheme.k)
    )
    for depth in range(tree.depth + 1):
        distortion = _truncated_distortion(scheme, tree, depth)
        if distortion <= epsilon:
            return LossyBudget(depth=depth, distortion=distortion, envelope=envelope)
    raise BarrierError(
        f"no truncation reaches distortion {epsilon}; the profile decoder floor is "
        f"{_truncated_distortion(scheme, tree, tree.depth)}"
    )


@dataclass(frozen=True)
class LocalizationCounts:
    """Locations to inspect per observation regime: one tag definition,
    one declaration per class, or every query site."""

    nominal: int
    declared: int
    attribute_only: int


def localization_counts(k: int, m: int) -> LocalizationCounts:
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    return LocalizationCounts(nominal=1, declared=k, attribute_only=m)
