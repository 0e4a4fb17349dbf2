"""Seeded input generators for the benchmark workloads.

Every request gets its own input, drawn from a ``random.Random`` seeded by
(workload, workload seed, session index, request index).  String seeds are
hashed by ``random`` itself, so the stream does not depend on
PYTHONHASHSEED.  These generators are the benchmark's own; they share no
code with the test suite.

Profiles are packed integers with attribute q in bit q, the same packing
the scheme documents spell out as bit lists.
"""
from __future__ import annotations

import json
import random


def request_rng(workload: str, seed: int, session: int, request: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{session}/{request}")


def injective_profiles(rng: random.Random, k: int, n: int) -> list[int]:
    """k distinct random n-bit profiles in draw order."""
    if k > 1 << n:
        raise ValueError(f"cannot fit {k} distinct profiles in {n} attributes")
    seen: set[int] = set()
    profiles = []
    while len(profiles) < k:
        p = rng.getrandbits(n)
        if p not in seen:
            seen.add(p)
            profiles.append(p)
    return profiles


def colliding_profiles(rng: random.Random, k: int, n: int, copies: int) -> list[int]:
    """k profiles of which ``copies`` repeat an earlier distinct one (copies >= 1)."""
    profiles = injective_profiles(rng, k - copies, n)
    profiles += [rng.choice(profiles[: k - copies]) for _ in range(copies)]
    rng.shuffle(profiles)
    return profiles


def one_hot_profiles(rng: random.Random, k: int) -> list[int]:
    """Class i answers 1 on exactly one attribute; columns in random order."""
    columns = list(range(k))
    rng.shuffle(columns)
    return [1 << q for q in columns]


def random_masses(rng: random.Random, k: int) -> list[float]:
    weights = [rng.random() + 0.05 for _ in range(k)]
    total = sum(weights)
    return [w / total for w in weights]


def attribute_names(n: int) -> list[str]:
    return [f"a{q:02d}" for q in range(n)]


def class_names(k: int) -> list[str]:
    return [f"c{i:04d}" for i in range(k)]


def scheme_text(profiles: list[int], n: int, masses: list[float] | None = None) -> str:
    """Scheme document; masses omitted means uniform."""
    doc: dict = {
        "attributes": attribute_names(n),
        "classes": [
            {"name": name, "profile": [p >> q & 1 for q in range(n)]}
            for name, p in zip(class_names(len(profiles)), profiles)
        ],
    }
    if masses is not None:
        doc["masses"] = masses
    return json.dumps(doc)


def resolve_scenario(rng: random.Random, scopes: int, lineage: int, misses: int) -> dict:
    """Miss-heavy resolver scenario with one hit in the last scope.

    Every scope holds ``misses`` entries whose type no lineage type
    normalizes to; the last scope also holds one entry for the normalized
    form of a random lineage type.  A quarter of the lineage types are
    rewritten by the registry, whose targets are fresh ids, so it is
    well-formed.
    """
    mro = rng.sample(range(1_000, 100_000), lineage)
    registry = {t: 200_000 + i for i, t in enumerate(rng.sample(mro, lineage // 4))}
    scope_ids = [f"scope{i:02d}" for i in range(scopes)]
    ctx: dict = {
        s: [{"typ": rng.randrange(300_000, 400_000), "value": rng.randrange(1, 1000)} for _ in range(misses)]
        for s in scope_ids
    }
    hit = mro[rng.randrange(lineage)]
    hit_type = registry.get(hit, hit)
    ctx[scope_ids[-1]].insert(rng.randrange(misses + 1), {"typ": hit_type, "value": rng.randrange(1, 1_000_000)})
    return {
        "registry": {str(t): target for t, target in registry.items()},
        "mro": mro,
        "scopes": scope_ids,
        "ctx": ctx,
    }
