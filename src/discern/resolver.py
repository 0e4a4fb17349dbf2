"""Dual-axis configuration resolver with provenance.

Resolution walks a scope stack (outer axis) and a most-specific-first
lineage list (inner axis).  Each probed lineage type is first rewritten
one step through a normalization registry whose targets are fixed points.
A hit returns the value together with the scope and the normalized source
type that supplied it, so provenance survives resolution.

The value 0 is the unset sentinel, kept exactly as in the reference
listings; a config entry holding 0 is skipped, not returned.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .errors import ParseError, decode_json

logger = logging.getLogger(__name__)

Registry = dict


def well_formed(registry: Registry) -> bool:
    """True iff every rewrite target is itself unmapped (a fixed point)."""
    return all(target not in registry for target in registry.values())


def normalize(registry: Registry, typ: int) -> int:
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

    registry: Registry = field(default_factory=dict)
    mro: list = field(default_factory=list)
    scopes: list = field(default_factory=list)
    ctx: dict = field(default_factory=dict)


def _find_config_value(configs, typ: int):
    for config in configs:
        if config.typ == typ:
            return config.value
    return None


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
        logger.warning("registry is not well-formed; normalization may not be idempotent")
    for scope in scenario.scopes:
        for mro_type in scenario.mro:
            norm_type = normalize(scenario.registry, mro_type)
            if trace is not None:
                trace.append((scope, mro_type, norm_type))
            value = _find_config_value(scenario.ctx.get(scope, []), norm_type)
            if value is not None and value != 0:
                return ResolveResult(value=value, scope=scope, source_type=norm_type)
    return None


def resolved_value(scenario: ResolveScenario) -> int:
    """Scalar view of resolution: the result value, or 0 when none."""
    result = resolve(scenario)
    return result.value if result is not None else 0


def getattribute(scenario: ResolveScenario, obj: ConfigInstance, is_lazy: bool) -> int:
    """Raw field value when set; lazy access falls back to resolution."""
    raw = obj.value
    if raw != 0:
        return raw
    if is_lazy:
        return resolved_value(scenario)
    return raw


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
    if not isinstance(doc, dict):
        raise ParseError("scenario must be a JSON object", "")

    def expect_int(value, path):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParseError("expected a nonnegative integer", path)
        return value

    raw_registry = doc.get("registry", {})
    if not isinstance(raw_registry, dict):
        raise ParseError("must be an object", "registry")
    registry = {}
    for key, target in raw_registry.items():
        try:
            source = int(key)
        except ValueError as exc:
            raise ParseError(f"registry key must be an integer, got {key!r}", "registry") from exc
        if source < 0:
            raise ParseError("registry key must be nonnegative", f"registry[{key}]")
        registry[source] = expect_int(target, f"registry[{key}]")

    raw_mro = doc.get("mro", [])
    if not isinstance(raw_mro, list):
        raise ParseError("must be an array", "mro")
    mro = [expect_int(t, f"mro[{i}]") for i, t in enumerate(raw_mro)]

    raw_scopes = doc.get("scopes", [])
    if not isinstance(raw_scopes, list):
        raise ParseError("must be an array", "scopes")
    scopes = [str(s) for s in raw_scopes]

    raw_ctx = doc.get("ctx", {})
    if not isinstance(raw_ctx, dict):
        raise ParseError("must be an object", "ctx")
    ctx = {}
    for scope, entries in raw_ctx.items():
        if not isinstance(entries, list):
            raise ParseError("must be an array", f"ctx[{scope!r}]")
        parsed = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or set(entry) != {"typ", "value"}:
                raise ParseError('expected {"typ": ..., "value": ...}', f"ctx[{scope!r}][{i}]")
            parsed.append(
                ConfigInstance(
                    expect_int(entry["typ"], f"ctx[{scope!r}][{i}].typ"),
                    expect_int(entry["value"], f"ctx[{scope!r}][{i}].value"),
                )
            )
        ctx[str(scope)] = parsed

    obj = None
    if "obj" in doc:
        raw_obj = doc["obj"]
        if not isinstance(raw_obj, dict) or set(raw_obj) != {"typ", "value"}:
            raise ParseError('expected {"typ": ..., "value": ...}', "obj")
        obj = ConfigInstance(expect_int(raw_obj["typ"], "obj.typ"), expect_int(raw_obj["value"], "obj.value"))

    lazy = doc.get("lazy", False)
    if not isinstance(lazy, bool):
        raise ParseError("must be a boolean", "lazy")

    return ResolveScenario(registry=registry, mro=mro, scopes=scopes, ctx=ctx), obj, lazy
