"""Dual-axis configuration resolver with provenance.

Resolution walks a scope stack (outer axis) and a most-specific-first
lineage list (inner axis).  Each probed lineage type is first rewritten
one step through a normalization registry whose targets are fixed points.
A hit returns the value together with the scope and the normalized source
type that supplied it, so provenance survives resolution.

The value 0 is the unset sentinel, kept exactly as in the reference
listings: the first entry of the probed type in a scope decides the probe,
and one holding 0 is skipped, not returned, hiding later entries of its type.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError, decode_json, expect, expect_each


def well_formed(registry: dict) -> bool:
    """True iff every rewrite target is itself unmapped (a fixed point)."""
    return all(target not in registry for target in registry.values())


def normalize(registry: dict, typ: int) -> int:
    """One-step rewrite: the mapped target if present, else ``typ`` itself."""
    return registry.get(typ, typ)


@dataclass(frozen=True)
class ConfigInstance:
    """A per-scope configuration entry; value 0 means unset."""

    typ: int
    value: int

    def __post_init__(self):
        if self.typ < 0 or self.value < 0:
            raise ValueError("typ and value must be nonnegative")


@dataclass(frozen=True)
class ResolveResult:
    value: int
    scope: str
    source_type: int


@dataclass
class ResolveScenario:
    """Inputs to one resolution: registry, lineage, scopes, per-scope configs.

    ``ctx`` is total over scope ids: unknown scopes resolve to an empty
    config list.
    """

    registry: dict = field(default_factory=dict)
    mro: list = field(default_factory=list)
    scopes: list = field(default_factory=list)
    ctx: dict = field(default_factory=dict)


def resolve(scenario: ResolveScenario, trace: list | None = None, strict: bool = False):
    """Scopes outer, lineage inner; first nonzero match wins.

    Returns a ResolveResult or None.  A matching config whose value is the
    0 sentinel is skipped and the search continues.  ``trace`` collects one
    (scope, mro_type, normalized_type) tuple per probe.  Non-well-formed
    registries are accepted with a warning unless ``strict`` is set.
    """
    if not well_formed(scenario.registry):
        if strict:
            raise ValueError("registry is not well-formed: some target is itself mapped")
        import logging
        logging.getLogger(__name__).warning("registry is not well-formed; normalization may not be idempotent")
    lineage = [(mro_type, normalize(scenario.registry, mro_type)) for mro_type in scenario.mro]
    for scope in scenario.scopes:
        # Built in reverse, so each type keeps its first entry.
        first = {config.typ: config.value for config in reversed(scenario.ctx.get(scope, ()))}
        for mro_type, norm_type in lineage:
            if trace is not None:
                trace.append((scope, mro_type, norm_type))
            if value := first.get(norm_type):
                return ResolveResult(value=value, scope=scope, source_type=norm_type)
    return None


def resolved_value(scenario: ResolveScenario) -> int:
    """Scalar view of resolution: the result value, or 0 when none."""
    result = resolve(scenario)
    return result.value if result is not None else 0


def getattribute(
    scenario: ResolveScenario, obj: ConfigInstance, is_lazy: bool, resolved: int | None = None
) -> int:
    """Raw field value when set; lazy access falls back to resolution.

    A caller that has already resolved ``scenario`` passes the scalar as
    ``resolved``, so the scenario is not resolved (and warned about) twice.
    """
    raw = obj.value
    if raw != 0 or not is_lazy:
        return raw
    return resolved_value(scenario) if resolved is None else resolved


def resolution_query_count(scenario: ResolveScenario) -> int:
    """Number of (scope, lineage type) probes performed; at most
    len(scopes) * len(mro)."""
    trace: list = []
    resolve(scenario, trace=trace)
    return len(trace)


def parse_scenario(text: str):
    """Parse a scenario document.

    Returns (scenario, obj, lazy); ``obj`` is None unless the document
    carries one.  Schema: {"registry": {"2": 1}, "mro": [2], "scopes":
    ["s0"], "ctx": {"s0": [{"typ": 1, "value": 5}]}, "obj": {...},
    "lazy": true}.
    """
    doc = decode_json(text)
    expect(isinstance(doc, dict), "scenario must be a JSON object", "")

    def expect_int(value, path):
        nonnegative = isinstance(value, int) and not isinstance(value, bool) and value >= 0
        expect(nonnegative, "expected a nonnegative integer", path)
        return value

    def expect_entry(raw, path):
        shaped = isinstance(raw, dict) and set(raw) == {"typ", "value"}
        expect(shaped, 'expected {"typ": ..., "value": ...}', path)
        typ = expect_int(raw["typ"], f"{path}.typ")
        return ConfigInstance(typ, expect_int(raw["value"], f"{path}.value"))

    raw_registry = doc.get("registry", {})
    expect(isinstance(raw_registry, dict), "must be an object", "registry")
    registry = {}
    for key, target in raw_registry.items():
        # Only the canonical spelling of an integer is a key: "01" and "1"
        # would otherwise both name type 1, and one would silently win.
        not_integer = f"registry key must be an integer, got {key!r}"
        try:
            source = int(key)
        except ValueError as exc:
            raise ParseError(not_integer, "registry") from exc
        expect(str(source) == key, not_integer, "registry")
        expect(source >= 0, "registry key must be nonnegative", f"registry[{key}]")
        registry[source] = expect_int(target, f"registry[{key}]")

    raw_mro = doc.get("mro", [])
    expect(isinstance(raw_mro, list), "must be an array", "mro")
    mro = [expect_int(t, f"mro[{i}]") for i, t in enumerate(raw_mro)]

    scopes = doc.get("scopes", [])
    expect(isinstance(scopes, list), "must be an array", "scopes")
    expect_each(scopes, str, "scope must be a string", "scopes")

    raw_ctx = doc.get("ctx", {})
    expect(isinstance(raw_ctx, dict), "must be an object", "ctx")
    ctx = {}
    for scope, entries in raw_ctx.items():
        expect(isinstance(entries, list), "must be an array", f"ctx[{scope!r}]")
        ctx[scope] = [
            expect_entry(entry, f"ctx[{scope!r}][{i}]") for i, entry in enumerate(entries)
        ]

    obj = expect_entry(doc["obj"], "obj") if "obj" in doc else None

    lazy = doc.get("lazy", False)
    expect(isinstance(lazy, bool), "must be a boolean", "lazy")

    return ResolveScenario(registry=registry, mro=mro, scopes=scopes, ctx=ctx), obj, lazy
