"""Information-barrier detection: collisions, capacity, quotient, loss.

Two classes collide when they share an attribute profile.  A colliding
scheme has zero-error identification capacity 0 for profile-only observers;
an injective scheme has capacity log2(k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .scheme import Scheme


@dataclass(frozen=True)
class CollisionReport:
    """Groups of class indices sharing one profile (each group has >= 2)."""

    groups: tuple[tuple[int, ...], ...]
    injective: bool


@dataclass(frozen=True)
class CapacityResult:
    capacity_bits: float
    injective: bool


def quotient(scheme: Scheme) -> tuple[tuple[int, ...], ...]:
    """Partition class indices by profile, blocks ordered by smallest member."""
    return scheme.quotient


def collisions(scheme: Scheme) -> CollisionReport:
    """Report every profile shared by two or more classes."""
    groups = tuple(block for block in scheme.quotient if len(block) >= 2)
    return CollisionReport(groups=groups, injective=not groups)


def identification_capacity(scheme: Scheme) -> CapacityResult:
    """log2(k) bits when profiles are injective on classes, else 0."""
    injective = collisions(scheme).injective
    capacity = math.log2(scheme.k) if injective else 0.0
    return CapacityResult(capacity_bits=capacity, injective=injective)


def _entropy(masses) -> float:
    # Convention: 0 * log 0 = 0.
    return -sum(m * math.log2(m) for m in masses if m > 0)


def information_loss(scheme: Scheme) -> float:
    """Bits lost by profile-only observation: H(C) - H(profile(C)) = H(C | profile).

    Zero exactly when profiles are injective on the classes carrying
    positive mass.
    """
    profile_masses = (sum(scheme.masses[c] for c in block) for block in scheme.quotient)
    return _entropy(scheme.masses) - _entropy(profile_masses)
