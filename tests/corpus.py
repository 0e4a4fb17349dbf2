"""Seeded random instance generators shared across the test suite."""
from __future__ import annotations

import random

from discern.resolver import ConfigInstance, ResolveScenario
from discern.scheme import ClassRecord, Profile, Scheme


def scheme_from_profiles(profiles, masses=None, attributes=None) -> Scheme:
    n = len(profiles[0]) if profiles else 0
    if attributes is None:
        attributes = tuple(f"a{j}" for j in range(n))
    records = tuple(
        ClassRecord(f"c{i}", Profile(tuple(bits))) for i, bits in enumerate(profiles)
    )
    return Scheme(tuple(attributes), records, None if masses is None else tuple(masses))


def random_masses(rng: random.Random, k: int) -> tuple[float, ...]:
    weights = [rng.random() + 0.05 for _ in range(k)]
    total = sum(weights)
    return tuple(w / total for w in weights)


def random_scheme(rng: random.Random, k: int, n: int, with_masses: bool = False) -> Scheme:
    profiles = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)]
    masses = random_masses(rng, k) if with_masses else None
    return scheme_from_profiles(profiles, masses)


def random_injective_scheme(rng: random.Random, k: int, n: int, with_masses: bool = False) -> Scheme:
    if 2 ** n < k:
        raise ValueError(f"cannot fit {k} distinct profiles in {n} attributes")
    seen: set[tuple[int, ...]] = set()
    while len(seen) < k:
        seen.add(tuple(rng.randint(0, 1) for _ in range(n)))
    masses = random_masses(rng, k) if with_masses else None
    return scheme_from_profiles(sorted(seen), masses)


def random_colliding_scheme(
    rng: random.Random, k: int, n: int, with_masses: bool = False, copies: int = 1
) -> Scheme:
    """At least one pair of classes shares a profile (k >= 2): each of
    ``copies`` draws copies one class's profile onto another class."""
    profiles = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(k)]
    for _ in range(copies):
        src = rng.randrange(k)
        dst = rng.randrange(k)
        while dst == src:
            dst = rng.randrange(k)
        profiles[dst] = profiles[src]
    masses = random_masses(rng, k) if with_masses else None
    return scheme_from_profiles(profiles, masses)


def seeded_schemes(seed: int, count: int, with_masses: bool = False):
    """``count`` small schemes, in turn injective, colliding and random
    over few attributes (so mostly colliding too)."""
    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(1, 14)
        if i % 3 == 0:
            yield random_injective_scheme(rng, k, rng.randint((k - 1).bit_length(), 6), with_masses)
        elif i % 3 == 1 and k >= 2:
            yield random_colliding_scheme(rng, k, rng.randint(0, 5), with_masses)
        else:
            yield random_scheme(rng, k, rng.randint(0, 3), with_masses)


def table1_scheme(seed: int = 1001, k: int = 1000, n: int = 50) -> Scheme:
    """Seeded injective scheme matching the 1000-classes/50-attributes example."""
    rng = random.Random(seed)
    seen: set[tuple[int, ...]] = set()
    while len(seen) < k:
        seen.add(tuple(rng.randint(0, 1) for _ in range(n)))
    records = tuple(
        ClassRecord(f"c{i:04d}", Profile(bits)) for i, bits in enumerate(sorted(seen))
    )
    return Scheme(tuple(f"m{j:02d}" for j in range(n)), records)


def random_scenario(rng: random.Random) -> ResolveScenario:
    """Resolver fuzz input: type ids 0-15, values 0-9, short mro/scope lists."""
    registry = {}
    for _ in range(rng.randint(0, 4)):
        registry[rng.randint(0, 15)] = rng.randint(0, 15)
    mro = [rng.randint(0, 15) for _ in range(rng.randint(0, 5))]
    scope_pool = [f"s{i}" for i in range(4)]
    scopes = rng.sample(scope_pool, rng.randint(0, 4))
    ctx = {}
    for scope in scope_pool:
        if rng.random() < 0.75:
            ctx[scope] = [
                ConfigInstance(rng.randint(0, 15), rng.randint(0, 9))
                for _ in range(rng.randint(0, 4))
            ]
    return ResolveScenario(registry=registry, mro=mro, scopes=scopes, ctx=ctx)


def binary_linear_scheme(rng: random.Random, m: int, n: int) -> Scheme:
    """Classes are the 2^m vectors x over GF(2); attribute q is the parity
    of x & f_q, for the m unit functionals and n - m random nonzero ones,
    shuffled.  Its minimal distinguishing sets are the bases of a binary
    matroid: the attribute sets whose functionals form a basis."""
    functionals = [1 << j for j in range(m)] + [rng.randrange(1, 1 << m) for _ in range(n - m)]
    rng.shuffle(functionals)
    return scheme_from_profiles(
        [tuple((f & x).bit_count() & 1 for f in functionals) for x in range(1 << m)]
    )


def partition_scheme(m: int, r: int) -> Scheme:
    """Classes are the 2^m vectors; each of their m coordinates is copied
    into r attributes, so the r^m minimal distinguishing sets pick one copy
    of each coordinate."""
    return scheme_from_profiles([tuple(x >> (q // r) & 1 for q in range(m * r)) for x in range(1 << m)])
