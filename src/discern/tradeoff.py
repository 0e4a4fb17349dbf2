"""The (tag bits, worst-case queries, distortion) tradeoff space.

Achievable points are emitted per observer strategy, the Pareto frontier
filters dominated points, and the converse check flags any zero-distortion
point that claims fewer tag bits than naming the classes requires on a
scheme whose colliding classes carry positive mass.
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
    TagPlan,
    decode_distortion,
    hybrid_tag_plan,
    tag_bits_for,
)
from .trees import adaptive_tree

OK = "OK"
VIOLATION = "VIOLATION"


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


def _hybrid_worst_queries(scheme: Scheme, groups) -> int:
    """One tag read plus the worst in-group adaptive walk."""
    return 1 + max((adaptive_tree(scheme, g).depth for g in groups if len(g) > 1), default=0)


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
    """Flag zero-distortion points below the tag-rate bound on schemes whose
    tag-free floor ``decode_distortion`` is positive: a collision with mass."""
    if collisions(scheme).injective:
        return OK
    if point.D == 0.0 and point.L < tag_bits_for(scheme.k) and decode_distortion(scheme) > 0.0:
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


def lossy_budget(scheme: Scheme, epsilon: float) -> LossyBudget:
    """Smallest adaptive-tree truncation depth with distortion <= epsilon.

    One level-order pass: the distortion at depth d is the residual mass
    of the leaves closed above d plus that of every cell on level d.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    tree = adaptive_tree(scheme)
    envelope = math.ceil(math.log2(1.0 / epsilon)) * matroid.block_dimension(
        scheme, range(scheme.k)
    )

    def residual(node) -> float:
        masses = [scheme.masses[c] for c in node.candidates]
        return sum(masses) - max(masses)

    closed, level = 0.0, [tree.root]
    for depth in range(tree.depth + 1):
        residuals = [residual(node) for node in level]
        distortion = closed + sum(residuals)
        if distortion <= epsilon:
            return LossyBudget(depth=depth, distortion=distortion, envelope=envelope)
        closed += sum(r for r, node in zip(residuals, level) if node.is_leaf)
        level = [child for node in level if not node.is_leaf for child in (node.zero, node.one)]
    raise BarrierError(
        f"no truncation reaches distortion {epsilon}; the profile decoder floor is {distortion}"
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
