"""Output checks for benchmark requests.

Each check states a property that any correct implementation meets, so a
legitimate change of algorithm or RNG stream does not read as a failure:
the checks recompute what they need from the generated input with the
benchmark's own code (profile blocks, decoder distortion, a NumPy brute
force over attribute subsets, a nested-loop resolver) and never call into
``discern``.  A check raises ``CheckFailed`` with the first violation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from inputs import attribute_names, class_names

# Subset brute force runs up to this many attributes (2**16 masks).
BRUTE_FORCE_ATTR_LIMIT = 16


class CheckFailed(Exception):
    """A request's exit code or output violates its expected property."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


@dataclass(frozen=True)
class SchemeFacts:
    """What the checks know about one generated scheme."""

    profiles: list[int]
    n: int
    masses: list[float] | None = None
    one_hot: bool = False

    @property
    def k(self) -> int:
        return len(self.profiles)

    @cached_property
    def names(self) -> list[str]:
        return class_names(self.k)

    @cached_property
    def attributes(self) -> list[str]:
        return attribute_names(self.n)

    @cached_property
    def mass(self) -> list[float]:
        return self.masses if self.masses is not None else [1.0 / self.k] * self.k

    @cached_property
    def blocks(self) -> list[list[int]]:
        """Classes grouped by profile, ordered by smallest member."""
        by_profile: dict[int, list[int]] = {}
        for c, p in enumerate(self.profiles):
            by_profile.setdefault(p, []).append(c)
        return sorted(by_profile.values(), key=lambda b: b[0])

    @property
    def injective(self) -> bool:
        return len(self.blocks) == self.k

    @cached_property
    def distortion(self) -> float:
        """Error of the best profile-only decoder: residual mass per block."""
        return sum(sum(self.mass[c] for c in b) - max(self.mass[c] for c in b) for b in self.blocks)

    @cached_property
    def distinguishing(self) -> np.ndarray:
        """distinguishing[S] for every attribute mask S, by the definition."""
        expect(self.n <= BRUTE_FORCE_ATTR_LIMIT, "brute force asked above its size limit")
        masks = np.arange(1 << self.n, dtype=np.int64)
        ok = np.ones(1 << self.n, dtype=bool)
        distinct = sorted(set(self.profiles))
        for i, a in enumerate(distinct):
            for b in distinct[i + 1 :]:
                ok &= (masks & (a ^ b)) != 0
        return ok

    @cached_property
    def popcounts(self) -> np.ndarray:
        masks = np.arange(1 << self.n, dtype=np.int64)
        return sum((masks >> q) & 1 for q in range(self.n))

    def minimal_distinguishing(self) -> set[int]:
        ok = self.distinguishing
        masks = np.arange(1 << self.n, dtype=np.int64)
        minimal = ok.copy()
        for q in range(self.n):
            minimal &= ~(((masks >> q) & 1 == 1) & ok[masks ^ (1 << q)])
        return {int(m) for m in np.flatnonzero(minimal)}

    def attribute_mask(self, names) -> int:
        index = {a: q for q, a in enumerate(self.attributes)}
        return sum(1 << index[a] for a in names)


def tag_bits(k: int) -> int:
    return (k - 1).bit_length()


def check_error(doc: dict, error_type: str):
    expect(doc["error"]["type"] == error_type, f"error type {doc['error']['type']}, expected {error_type}")


def check_analyze(doc: dict, s: SchemeFacts):
    expect(doc["k"] == s.k and doc["n"] == s.n, "k/n mismatch")
    expect(doc["injective"] == s.injective, "injective flag wrong")
    named = [[s.names[c] for c in b] for b in s.blocks]
    expect(doc["quotient"] == named, "quotient blocks wrong")
    expect(doc["collision_groups"] == [b for b in named if len(b) > 1], "collision groups wrong")
    expect(close(doc["capacity_bits"], math.log2(s.k) if s.injective else 0.0), "capacity wrong")
    by_profile: dict[int, float] = {}
    for c, p in enumerate(s.profiles):
        by_profile[p] = by_profile.get(p, 0.0) + s.mass[c]
    entropy = lambda ms: -sum(m * math.log2(m) for m in ms if m > 0)
    expect(close(doc["information_loss_bits"], entropy(s.mass) - entropy(by_profile.values())), "information loss wrong")


def check_dimension(doc: dict, s: SchemeFacts):
    d = doc["dimension"]
    expect(tag_bits(s.k) <= d <= s.n, f"dimension {d} outside [ceil(log2 k), n]")
    if s.n <= BRUTE_FORCE_ATTR_LIMIT:
        best = int(s.popcounts[s.distinguishing].min())
        expect(doc["exact"] is True and d == best, f"exact dimension {d}, brute force {best}")
    else:
        expect(doc["exact"] is False, "dimension above the subset limit claims to be exact")


def check_bases(doc: dict, s: SchemeFacts):
    bases = [s.attribute_mask(b) for b in doc["bases"]]
    ok = s.distinguishing
    for m in bases:
        expect(bool(ok[m]), f"base {m:#x} does not distinguish")
        expect(not any(ok[m & ~(1 << q)] for q in range(s.n) if m >> q & 1), f"base {m:#x} is not minimal")
    expect(set(bases) == s.minimal_distinguishing(), "base list incomplete against brute force")
    sizes = {bin(m).count("1") for m in bases}
    expect(doc["dimension"] == min(sizes), "bases dimension is not the smallest base")
    expect(doc["equal_cardinality_ok"] == (len(sizes) == 1), "equal-cardinality verdict wrong")


def _dominates(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b)) and a != b


def check_tradeoff(doc: dict, s: SchemeFacts, tags=()):
    points = doc["points"]
    expect(len(points) == 3 + len(set(tags)), "wrong number of points")
    nominal, exhaustive, adaptive = points[:3]
    expect((nominal["L"], nominal["W"], nominal["D"], nominal["strategy"]) == (tag_bits(s.k), 1, 0.0, "nominal"), "nominal point wrong")
    expect((exhaustive["L"], exhaustive["W"], exhaustive["strategy"]) == (0, s.n, "exhaustive"), "exhaustive point wrong")
    expect(close(exhaustive["D"], s.distortion), "exhaustive distortion wrong")
    expect(adaptive["L"] == 0 and close(adaptive["D"], s.distortion), "adaptive point wrong")
    expect(tag_bits(len(s.blocks)) <= adaptive["W"] <= s.n, "adaptive depth out of range")
    if s.one_hot:
        expect(adaptive["W"] == s.k - 1, f"one-hot adaptive W {adaptive['W']}, expected k-1")
    for L, point in zip(sorted(set(tags)), points[3:]):
        expect(point["L"] == L and point["strategy"] == "hybrid", "hybrid point order wrong")
        expect(1 <= point["W"] <= 1 + s.n, "hybrid W out of range")
        # Collision units stay whole, so the group tag removes no distortion.
        expect(close(point["D"], s.distortion), "hybrid distortion wrong")

    keys = [(p["L"], p["W"], p["D"]) for p in points]
    frontier = [(p["L"], p["W"], p["D"]) for p in doc["frontier"]]
    expect(len(set(frontier)) == len(frontier) and set(frontier) <= set(keys), "frontier is not a set of points")
    for key in keys:
        dominated = any(_dominates(other, key) for other in keys)
        expect(dominated != (key in frontier), f"frontier membership wrong for {key}")

    for point, verdict in zip(points, doc["converse"]):
        violation = not s.injective and point["D"] == 0.0 and point["L"] < tag_bits(s.k)
        expect(verdict["verdict"] == ("VIOLATION" if violation else "OK"), "converse verdict wrong")

    if tags:
        for L, plan in zip(sorted(set(tags)), doc["tag_plans"]):
            groups = plan["groups"]
            expect(plan["L"] == L and len(groups) <= 1 << L, "tag plan has too many groups")
            expect(sorted(c for g in groups for c in g) == sorted(s.names), "tag plan is not a partition")
            group_of = {c: i for i, g in enumerate(groups) for c in g}
            for block in s.blocks:
                expect(len({group_of[s.names[c]] for c in block}) == 1, "tag plan splits a collision")
            expect(close(plan["residual_distortion"], s.distortion), "tag plan distortion wrong")
            expect(0 <= plan["max_group_dimension"] <= s.n, "group dimension out of range")


def check_simulate(doc: dict, s: SchemeFacts, kind: str, tags: int = 0):
    expect(doc["strategy"] == {"kind": kind, "tag_bits": tags}, "strategy echo wrong")
    transcripts = doc["transcripts"]
    expect([t["class"] for t in transcripts] == s.names, "transcripts do not cover the classes in order")
    attributes = set(s.attributes)
    for t in transcripts:
        queries = t["queries"]
        expect(t["query_count"] == len(queries), "query_count disagrees with queries")
        if kind == "hybrid":
            expect(queries[:1] == ["TAG_READ"], "hybrid transcript does not start with a tag read")
            queries = queries[1:]
        expect(set(queries) <= attributes and len(set(queries)) == len(queries), "bad query sequence")
        if s.injective:
            expect(t["output"] == t["class"] and t["undecided"] is False, f"misidentified {t['class']}")


def check_noise(doc: dict, epsilons, delta: float, trials: int):
    rows = doc["results"]
    expect([r["epsilon"] for r in rows] == list(epsilons), "epsilon rows wrong")
    for r in rows:
        expect(r["delta"] == delta and r["trials"] == trials, "noise config echo wrong")
        limit = delta + 5 * math.sqrt(delta / trials)
        expect(r["empirical_error"] <= limit, f"empirical error {r['empirical_error']} above {limit}")


def check_check(doc: dict, code: int, s: SchemeFacts, closure_limit: int = 10):
    outcomes = {o["name"]: o for o in doc["checks"]}
    for name in ("closure-extensive", "closure-monotone", "closure-idempotent"):
        o = outcomes[name]
        expect(o["ok"] is True, f"{name} failed")
        expect(o["skipped"] == (s.n > closure_limit), f"{name} skipped wrongly")
    failed = any(not o["ok"] for o in doc["checks"])
    expect(doc["ok"] == (not failed), "overall ok flag wrong")
    expect((code == 4) == failed, f"exit code {code} disagrees with the outcomes")


def resolve_expected(scenario: dict):
    """(value, scope, source type, probes) by a plain nested loop."""
    registry = {int(t): target for t, target in scenario["registry"].items()}
    probes = 0
    for scope in scenario["scopes"]:
        entries = scenario["ctx"].get(scope, [])
        for t in scenario["mro"]:
            probes += 1
            wanted = registry.get(t, t)
            for e in entries:
                if e["typ"] == wanted and e["value"] != 0:
                    return e["value"], scope, wanted, probes
    return 0, None, None, probes


def check_resolve(doc: dict, scenario: dict):
    value, scope, source, probes = resolve_expected(scenario)
    expect(doc["value"] == value and doc["probes"] == probes, "resolved value or probe count wrong")
    result = None if scope is None else {"value": value, "scope": scope, "sourceType": source}
    expect(doc["result"] == result, "resolve provenance wrong")
    expect(len(doc["trace"]) == probes, "trace length differs from probe count")
