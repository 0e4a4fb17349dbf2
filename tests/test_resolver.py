import logging
import random

import pytest

from corpus import random_scenario
from discern.errors import ParseError
from discern.resolver import (
    ConfigInstance,
    ResolveResult,
    ResolveScenario,
    getattribute,
    normalize,
    parse_scenario,
    resolution_query_count,
    resolve,
    resolved_value,
    well_formed,
)


@pytest.fixture
def hit_scenario():
    return ResolveScenario(
        registry={2: 1},
        mro=[2],
        scopes=["s0"],
        ctx={"s0": [ConfigInstance(1, 5)]},
    )


def test_well_formed_examples():
    assert well_formed({2: 1})
    assert not well_formed({2: 1, 1: 0})
    assert well_formed({})


def test_normalize_examples():
    assert normalize({2: 1}, 2) == 1
    assert normalize({2: 1}, 3) == 3
    assert normalize({2: 1}, 1) == 1


def test_normalize_idempotent_on_well_formed():
    rng = random.Random(50)
    for _ in range(200):
        registry = {rng.randint(0, 15): rng.randint(0, 15) for _ in range(rng.randint(0, 5))}
        if not well_formed(registry):
            continue
        for t in range(16):
            assert normalize(registry, normalize(registry, t)) == normalize(registry, t)


def test_resolve_hit(hit_scenario):
    assert resolve(hit_scenario) == ResolveResult(value=5, scope="s0", source_type=1)


def test_resolve_zero_sentinel_skipped(hit_scenario):
    scenario = ResolveScenario(
        registry={2: 1}, mro=[2], scopes=["s0"], ctx={"s0": [ConfigInstance(1, 0)]}
    )
    assert resolve(scenario) is None


def test_resolve_empty_mro():
    assert resolve(ResolveScenario(mro=[], scopes=["s0", "s1"])) is None


def test_resolve_scope_order_beats_mro_order():
    # Outer loop is scopes: a match in the first scope for a later mro type
    # wins over a match in a later scope for an earlier mro type.
    scenario = ResolveScenario(
        registry={},
        mro=[3, 4],
        scopes=["inner", "outer"],
        ctx={"inner": [ConfigInstance(4, 9)], "outer": [ConfigInstance(3, 8)]},
    )
    result = resolve(scenario)
    assert result == ResolveResult(value=9, scope="inner", source_type=4)


def test_first_matching_config_shadows_later_ones():
    scenario = ResolveScenario(
        mro=[1],
        scopes=["s0"],
        ctx={"s0": [ConfigInstance(1, 7), ConfigInstance(1, 8)]},
    )
    assert resolve(scenario).value == 7


def test_zero_valued_match_shadows_nothing_behind_it():
    # find-first semantics: a 0-valued entry for the type hides a later
    # nonzero entry of the same type within the same scope probe.
    scenario = ResolveScenario(
        mro=[1],
        scopes=["s0"],
        ctx={"s0": [ConfigInstance(1, 0), ConfigInstance(1, 8)]},
    )
    assert resolve(scenario) is None


def test_unknown_scope_is_empty(hit_scenario):
    scenario = ResolveScenario(mro=[1], scopes=["ghost"], ctx={})
    assert resolve(scenario) is None


def test_query_count_examples(hit_scenario):
    assert resolution_query_count(hit_scenario) == 1
    exhaustion = ResolveScenario(mro=[1, 2], scopes=["a", "b", "c"], ctx={})
    assert resolution_query_count(exhaustion) == 6
    assert resolution_query_count(ResolveScenario(mro=[1, 2], scopes=[])) == 0


def test_getattribute(hit_scenario):
    assert getattribute(hit_scenario, ConfigInstance(2, 7), True) == 7
    assert getattribute(hit_scenario, ConfigInstance(2, 0), False) == 0
    assert getattribute(hit_scenario, ConfigInstance(2, 0), True) == 5
    # An already resolved value is used as it is, without a second resolution.
    assert getattribute(hit_scenario, ConfigInstance(2, 0), True, resolved=9) == 9
    assert getattribute(hit_scenario, ConfigInstance(2, 7), True, resolved=9) == 7


def test_strict_mode_rejects_ill_formed():
    scenario = ResolveScenario(registry={2: 1, 1: 0}, mro=[2], scopes=["s0"], ctx={})
    assert resolve(scenario) is None  # warn-only by default
    with pytest.raises(ValueError):
        resolve(scenario, strict=True)


def test_ill_formed_registry_logs_one_warning(caplog, hit_scenario):
    ill_formed = ResolveScenario(registry={2: 1, 1: 3}, mro=[2], scopes=["s0"], ctx={"s0": [ConfigInstance(1, 5)]})
    with caplog.at_level(logging.WARNING, logger="discern.resolver"):
        resolve(hit_scenario)
        assert caplog.records == []
        resolve(ill_formed)
    assert [(r.name, r.levelno) for r in caplog.records] == [("discern.resolver", logging.WARNING)]
    assert "not well-formed" in caplog.records[0].getMessage()


def test_provenance_distinguishes_equal_values():
    # Two configs carry the same value from different types; source_type
    # tells them apart even though any value-only view cannot.
    left = ResolveScenario(mro=[1], scopes=["s0"], ctx={"s0": [ConfigInstance(1, 5)]})
    right = ResolveScenario(mro=[2], scopes=["s0"], ctx={"s0": [ConfigInstance(2, 5)]})
    a, b = resolve(left), resolve(right)
    assert a.value == b.value
    assert a.source_type != b.source_type


def fuzz_scenarios(count=1000, seed=1234):
    rng = random.Random(seed)
    return [random_scenario(rng) for _ in range(count)]


def test_fuzz_determinism_and_contracts():
    for scenario in fuzz_scenarios(400):
        first = resolve(scenario)
        second = resolve(scenario)
        assert first == second
        scalar = resolved_value(scenario)
        if first is None:
            assert scalar == 0
        else:
            assert first.value != 0
            assert scalar == first.value
        assert resolution_query_count(scenario) <= len(scenario.scopes) * len(scenario.mro)


def test_fuzz_completeness_biconditional():
    for scenario in fuzz_scenarios(400, seed=77):
        result = resolve(scenario)
        scalar = resolved_value(scenario)
        for v in range(10):
            holds = (v == 0 and result is None) or (result is not None and result.value == v)
            assert (scalar == v) == holds


def reference_resolve(scenario):
    """The module docstring as a literal nested loop, sharing no helper with
    ``resolver``: ((value, scope, source type) or None, probe tuples)."""
    probes = []
    for scope in scenario.scopes:
        for mro_type in scenario.mro:
            target = scenario.registry[mro_type] if mro_type in scenario.registry else mro_type
            probes.append((scope, mro_type, target))
            for config in scenario.ctx.get(scope, []):
                if config.typ == target:
                    if config.value != 0:
                        return (config.value, scope, target), probes
                    break
    return None, probes


def repeating_scenarios(count, seed):
    """Few types and many entries per scope, so a type repeats within a
    scope, zeros among them; the scope stack may revisit a scope or name
    one that ``ctx`` lacks."""
    rng = random.Random(seed)
    scenarios = []
    for _ in range(count):
        registry = {rng.randint(0, 5): rng.randint(0, 5) for _ in range(rng.randint(0, 3))}
        ctx = {
            scope: [ConfigInstance(rng.randint(0, 5), rng.choice((0, 0, 1, 2, 3))) for _ in range(rng.randint(0, 8))]
            for scope in ("a", "b", "c")
        }
        scopes = rng.choices(("a", "b", "c", "ghost"), k=rng.randint(0, 5))
        mro = [rng.randint(0, 5) for _ in range(rng.randint(0, 6))]
        scenarios.append(ResolveScenario(registry=registry, mro=mro, scopes=scopes, ctx=ctx))
    return scenarios


def test_resolve_matches_the_nested_loop_reference():
    cases = fuzz_scenarios(1000) + repeating_scenarios(1000, seed=78)
    assert any(
        len({c.typ for c in configs}) < len(configs) for scenario in cases for configs in scenario.ctx.values()
    )
    for scenario in cases:
        expected, probes = reference_resolve(scenario)
        trace: list = []
        result = resolve(scenario, trace=trace)
        assert (None if result is None else (result.value, result.scope, result.source_type)) == expected
        assert trace == probes


def test_config_instance_validation():
    with pytest.raises(ValueError):
        ConfigInstance(-1, 0)
    with pytest.raises(ValueError):
        ConfigInstance(0, -2)


def test_parse_scenario_round_trip(fixtures_dir):
    text = (fixtures_dir / "scenario1.json").read_text()
    scenario, obj, lazy = parse_scenario(text)
    assert scenario.registry == {2: 1}
    assert scenario.mro == [2]
    assert scenario.scopes == ["s0"]
    assert scenario.ctx == {"s0": [ConfigInstance(1, 5)]}
    assert obj == ConfigInstance(2, 0)
    assert lazy is True


ENTRY_SHAPE = 'expected {"typ": ..., "value": ...}'

# One document per check in ``parse_scenario``: text -> (message, path).
PARSE_ERRORS = {
    "[]": ("scenario must be a JSON object", ""),
    '{"registry": []}': ("must be an object", "registry"),
    '{"registry": {"a": 1}}': ("registry key must be an integer, got 'a'", "registry"),
    '{"registry": {"-1": 1}}': ("registry key must be nonnegative", "registry[-1]"),
    '{"registry": {"2": -1}}': ("expected a nonnegative integer", "registry[2]"),
    '{"registry": {"2": true}}': ("expected a nonnegative integer", "registry[2]"),
    '{"mro": {}}': ("must be an array", "mro"),
    '{"mro": ["x"]}': ("expected a nonnegative integer", "mro[0]"),
    '{"mro": [1, 2.5]}': ("expected a nonnegative integer", "mro[1]"),
    '{"scopes": "s0"}': ("must be an array", "scopes"),
    '{"scopes": ["s0", null]}': ("scope must be a string", "scopes[1]"),
    '{"ctx": []}': ("must be an object", "ctx"),
    '{"ctx": {"s0": {}}}': ("must be an array", "ctx['s0']"),
    '{"ctx": {"s0": [{"typ": 1}]}}': (ENTRY_SHAPE, "ctx['s0'][0]"),
    '{"ctx": {"s0": [5]}}': (ENTRY_SHAPE, "ctx['s0'][0]"),
    '{"ctx": {"s0": [{"typ": 1, "value": 2, "x": 3}]}}': (ENTRY_SHAPE, "ctx['s0'][0]"),
    '{"ctx": {"s0": [{"typ": "1", "value": 2}]}}': ("expected a nonnegative integer", "ctx['s0'][0].typ"),
    '{"ctx": {"s0": [{"typ": 1, "value": -2}]}}': ("expected a nonnegative integer", "ctx['s0'][0].value"),
    '{"obj": {"typ": 1}}': (ENTRY_SHAPE, "obj"),
    '{"obj": 3}': (ENTRY_SHAPE, "obj"),
    '{"obj": {"typ": false, "value": 0}}': ("expected a nonnegative integer", "obj.typ"),
    '{"obj": {"typ": 1, "value": -2}}': ("expected a nonnegative integer", "obj.value"),
    '{"lazy": "yes"}': ("must be a boolean", "lazy"),
}


@pytest.mark.parametrize("text", PARSE_ERRORS)
def test_parse_scenario_errors(text):
    message, path = PARSE_ERRORS[text]
    with pytest.raises(ParseError) as caught:
        parse_scenario(text)
    assert (str(caught.value), caught.value.path) == (f"{path}: {message}" if path else message, path)


@pytest.mark.parametrize("key", [" 2", "+3", "1_0", "01"])
def test_registry_keys_must_be_canonical_integers(key):
    # int() accepts each of these; "01" beside "1" would name type 1 twice.
    with pytest.raises(ParseError) as caught:
        parse_scenario(f'{{"registry": {{"1": 5, "{key}": 7}}}}')
    assert str(caught.value) == f"registry: registry key must be an integer, got {key!r}"
    assert caught.value.path == "registry"
