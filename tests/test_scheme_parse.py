"""The two ways a scheme is built: ``parse_scheme``'s whole-document passes
against a per-entry reference parser, and records against parsed answers."""
import dataclasses
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import random_scheme, table1_scheme
from discern import cli
from discern.errors import ParseError, ValidationError
from discern.scheme import (
    ClassRecord,
    Scheme,
    parse_scheme,
    profile_of,
    serialize_scheme,
)


def reference_parse_scheme(text: str, renormalize: bool = False) -> dict:
    """Reference: one pass per class entry, with every rule written out here,
    not taken from ``discern``; the scheme's plain fields, or the first fault."""

    def no_repeat(items, error):
        seen = set()
        for item in items:
            if item in seen:
                raise error(item)
            seen.add(item)

    def unique_keys(pairs):
        no_repeat((key for key, _ in pairs), lambda key: ParseError(f"duplicate key {key!r}"))
        return dict(pairs)

    def each_of(items, types, message, path):  # a bool is never a number
        for i, item in enumerate(items):
            if isinstance(item, bool) or not isinstance(item, types):
                raise ParseError(message, f"{path}[{i}]")

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply to decode") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object", "")
    for key in ("attributes", "classes"):
        if key not in doc:
            raise ParseError("missing key", key)
    unknown = set(doc) - {"attributes", "classes", "masses"}
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}", "")

    attributes = doc["attributes"]
    if not isinstance(attributes, list):
        raise ParseError("must be an array", "attributes")
    each_of(attributes, str, "attribute name must be a string", "attributes")

    entries = doc["classes"]
    if not isinstance(entries, list):
        raise ParseError("must be an array", "classes")
    names, rows = [], []
    for i, entry in enumerate(entries):
        at = f"classes[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("class entry must be an object", at)
        for key in ("name", "profile"):
            if key not in entry:
                raise ParseError("missing key", f"{at}.{key}")
        if not isinstance(entry["name"], str):
            raise ParseError("class name must be a string", f"{at}.name")
        profile = entry["profile"]
        if not isinstance(profile, list):
            raise ParseError("profile must be an array", f"{at}.profile")
        # A non-integer anywhere in a profile outranks a bit outside 0/1.
        each_of(profile, int, "profile entry must be an integer", f"{at}.profile")
        for j, bit in enumerate(profile):
            if bit not in (0, 1):
                raise ValidationError(f"profile bit must be 0 or 1, got {bit!r}", f"{at}.profile[{j}]")
        names.append(entry["name"])
        rows.append(tuple(profile))

    masses = None
    if "masses" in doc:
        if not isinstance(doc["masses"], list):
            raise ParseError("must be an array", "masses")
        each_of(doc["masses"], (int, float), "mass must be a number", "masses")
        masses = []
        for i, m in enumerate(doc["masses"]):
            try:
                masses.append(float(m))
            except OverflowError:
                raise ValidationError("mass does not fit in a float", f"masses[{i}]") from None
        if renormalize and masses:
            total = sum(masses)
            if total <= 0:
                raise ValidationError(f"cannot renormalize masses summing to {total}", "masses")
            masses = [m / total for m in masses]

    # The scheme rules, in their order: classes, names, lengths, masses.
    k, n = len(names), len(attributes)
    if k < 1:
        raise ValidationError("scheme needs at least one class", "classes")
    no_repeat(attributes, lambda name: ValidationError("attribute names must be unique", "attributes"))
    no_repeat(names, lambda name: ValidationError(f"duplicate class name {name!r}", "classes"))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"profile has length {len(row)}, expected {n}", f"classes[{i}].profile")
    masses = [1.0 / k] * k if masses is None else masses
    if len(masses) != k:
        raise ValidationError(f"got {len(masses)} masses for {k} classes", "masses")
    for i, m in enumerate(masses):
        if not m >= 0:  # NaN fails too
            raise ValidationError(f"mass must be nonnegative, got {m}", f"masses[{i}]")
    total = sum(masses)
    if not abs(total - 1) <= 1e-9:
        raise ValidationError(f"masses sum to {total}, expected 1", "masses")
    return {"attributes": tuple(attributes), "class_names": tuple(names), "rows": tuple(rows), "masses": tuple(masses)}


def scheme_fields(scheme: Scheme) -> dict:
    """A scheme's plain fields, as ``reference_parse_scheme`` returns them."""
    rows = tuple(tuple(scheme.row(c)) for c in range(scheme.k))
    return {"attributes": scheme.attributes, "class_names": scheme.class_names, "rows": rows, "masses": scheme.masses}


BAD_BITS = [True, False, 1.0, "1", 2, -1, 256, 2**70, None]


def inject(rng: random.Random, doc: dict, fault: str):
    """Apply one fault to a document in place."""
    classes = doc["classes"]
    i = rng.randrange(len(classes))
    entry = classes[i]
    if fault == "non-object entry" and isinstance(entry, dict):
        classes[i] = rng.choice([[], "c", 3, None, [entry]])
    elif fault in ("missing name", "missing profile") and isinstance(entry, dict):
        entry.pop(fault.split()[1], None)
    elif fault == "non-string name" and isinstance(entry, dict):
        entry["name"] = rng.choice([5, None, ["c"], True, 1.5])
    elif fault == "non-list profile" and isinstance(entry, dict):
        entry["profile"] = rng.choice(["01", {}, 1, None, True])
    elif fault == "bad bit" and isinstance(entry, dict) and isinstance(entry.get("profile"), list):
        profile = entry["profile"]
        bit = rng.choice(BAD_BITS)
        if profile and rng.random() < 0.8:
            profile[rng.randrange(len(profile))] = bit
        else:
            profile.append(bit)
    elif fault == "ragged profile" and isinstance(entry, dict) and isinstance(entry.get("profile"), list):
        profile = entry["profile"]
        if profile and rng.random() < 0.5:
            profile.pop()
        else:
            profile.append(rng.randint(0, 1))
    elif fault == "duplicate name" and isinstance(entry, dict):
        other = classes[rng.randrange(len(classes))]
        if isinstance(other, dict) and "name" in other:
            entry["name"] = other["name"]
    elif fault == "duplicate attribute" and doc["attributes"]:
        doc["attributes"].insert(rng.randrange(len(doc["attributes"]) + 1), rng.choice(doc["attributes"]))
    elif fault == "non-string attribute":
        attributes = doc["attributes"]
        attributes.insert(rng.randrange(len(attributes) + 1), rng.choice([5, None, True, ["a0"]]))
    elif fault == "bad masses":
        k = len(classes)
        doc["masses"] = rng.choice([
            "0.5",
            [1.0 / k] * (k + 1),
            [1.0 / k] * (k - 1),
            [-1.0] + [2.0 / max(k - 1, 1)] * (k - 1),
            [float("nan")] * k,
            [1.0] * k,
            ["1"] * k,
            [True] * k,
            [0.0] * k,
        ])


FAULTS = [
    "non-object entry",
    "missing name",
    "missing profile",
    "non-string name",
    "non-list profile",
    "bad bit",
    "ragged profile",
    "duplicate name",
    "duplicate attribute",
    "non-string attribute",
    "bad masses",
]


def outcome(parse, text: str, renormalize: bool):
    """The plain fields of the scheme, or the (type, message, path) of the refusal."""
    try:
        result = parse(text, renormalize)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc), getattr(exc, "path", None)
    return scheme_fields(result) if isinstance(result, Scheme) else result


def assert_same_outcome(text: str, renormalize: bool = False):
    """The parsed scheme, or the refusal, once it matches the reference's."""
    got = outcome(parse_scheme, text, renormalize)
    expected = outcome(reference_parse_scheme, text, renormalize)
    assert got == expected
    if not isinstance(got, dict):
        return got
    scheme = parse_scheme(text, renormalize)
    assert scheme.bits.tolist() == [[bool(b) for b in row] for row in expected["rows"]]
    assert [(c.name, c.profile.bits) for c in scheme.classes] == list(zip(expected["class_names"], expected["rows"]))
    return scheme


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    k=st.integers(1, 6),
    n=st.integers(0, 5),
    with_masses=st.booleans(),
    faults=st.lists(st.sampled_from(FAULTS), max_size=2),
    renormalize=st.booleans(),
)
def test_faults_are_reported_as_the_reference_parser_does(seed, k, n, with_masses, faults, renormalize):
    rng = random.Random(seed)
    doc = json.loads(serialize_scheme(random_scheme(rng, k, n, with_masses=with_masses)))
    if not with_masses and rng.random() < 0.5:
        del doc["masses"]
    for fault in faults:
        inject(rng, doc, fault)
    assert_same_outcome(json.dumps(doc), renormalize)


def test_every_pair_of_faults_is_reported_as_the_reference_parser_does():
    # Each ordered pair on a few seeded documents, so the order in which two
    # rules are checked is compared whichever pair of faults meets.
    for first, second in itertools.product(FAULTS, repeat=2):
        for seed in range(6):
            rng = random.Random(seed)
            scheme = random_scheme(rng, rng.randint(2, 5), rng.randint(1, 4), with_masses=seed % 2 == 1)
            doc = json.loads(serialize_scheme(scheme))
            inject(rng, doc, first)
            inject(rng, doc, second)
            assert_same_outcome(json.dumps(doc), renormalize=seed % 3 == 0)


@pytest.mark.parametrize(
    "text",
    [
        "[",
        "[" * 100_000,
        '{"attributes": ["p"], "attributes": ["q"], "classes": []}',
        '{"attributes": ["p"], "classes": [{"name": "A", "profile": [0], "name": "B"}]}',
        "[]",
        '{"classes": []}',
        '{"attributes": []}',
        '{"attributes": [], "classes": [], "extra": 1}',
        '{"attributes": "p", "classes": []}',
        '{"attributes": [], "classes": {}}',
        '{"attributes": [], "classes": [{"name": "A", "profile": []}], "masses": {}}',
        '{"attributes": [], "classes": [{"name": "A", "profile": []}], "masses": [1e400]}',
        '{"attributes": [], "classes": [{"name": "A", "profile": []}], "masses": [%s]}' % (10**400),
        '{"attributes": [], "classes": [{"name": "A", "profile": []}]}',
        # The text holds "true" in a name; the bits are read for a bool anyway.
        '{"attributes": ["p"], "classes": [{"name": "true", "profile": [0]}, {"name": "B", "profile": [false]}]}',
        '{"attributes": ["p"], "classes": [{"name": "true", "profile": [0]}, {"name": "B", "profile": [1]}]}',
    ],
)
def test_document_faults_are_reported_as_the_reference_parser_does(text):
    assert_same_outcome(text)


@pytest.mark.parametrize("bit", BAD_BITS)
def test_one_bad_bit_in_a_table1_document(bit):
    doc = json.loads(serialize_scheme(table1_scheme()))
    doc["classes"][999]["profile"][49] = bit
    kind, message, path = assert_same_outcome(json.dumps(doc))
    assert path == "classes[999].profile[49]"


def test_valid_table1_document_parses_to_the_reference_scheme():
    scheme = assert_same_outcome(serialize_scheme(table1_scheme()))
    assert scheme.k == 1000 and scheme.n == 50


def test_records_and_parsed_answers_give_one_scheme():
    rng = random.Random(19)
    for k, n in [(1, 0), (3, 0), (1, 4), (7, 5), (40, 9), (9, 70)]:
        built = random_scheme(rng, k, n, with_masses=rng.random() < 0.5)
        records = built.classes
        assert Scheme(built.attributes, records, built.masses).classes is records
        parsed = parse_scheme(serialize_scheme(built))
        assert "classes" not in parsed.__dict__
        assert parsed == built and hash(parsed) == hash(built)
        assert parsed.classes == records
        assert [profile_of(parsed, c) for c in range(k)] == [profile_of(built, c) for c in range(k)]
        assert parsed.bits.tolist() == built.bits.tolist()
        for scheme in (built, parsed):
            hash(scheme), scheme.bits, scheme.classes  # derived caches do not travel
            clone = pickle.loads(pickle.dumps(scheme))
            assert set(clone.__dict__) == {"attributes", "class_names", "answers", "masses"}
            assert clone == scheme and hash(clone) == hash(scheme)


def test_scheme_fields_are_names_and_answers():
    assert [f.name for f in dataclasses.fields(Scheme)] == ["attributes", "class_names", "answers", "masses"]


@pytest.mark.parametrize(
    "args",
    [
        ["analyze"],
        ["dimension"],
        ["tradeoff"],
        ["simulate", "--strategy", "adaptive"],
        ["simulate-noise", "--eps", "0.05", "0.45", "--delta", "0.001", "--trials", "200", "--seed", "3"],
    ],
)
def test_table1_commands_leave_the_records_unbuilt(args, tmp_path, monkeypatch, capsys):
    path = tmp_path / "table1.json"
    path.write_text(serialize_scheme(table1_scheme()), encoding="utf-8")
    loaded, real_load = [], cli.load_scheme

    def load(*a, **kw):
        loaded.append(real_load(*a, **kw))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_scheme", load)
    assert cli.run([args[0], str(path), *args[1:]]) == 0
    capsys.readouterr()
    [scheme] = loaded
    assert "classes" not in scheme.__dict__


def test_parse_builds_no_records_and_calls_no_constructor(monkeypatch):
    rng = random.Random(23)
    texts = [serialize_scheme(table1_scheme()), '{"attributes": ["p"], "classes": [{"name": "A", "profile": [0, 1]}]}']
    for fault in FAULTS:
        doc = json.loads(serialize_scheme(random_scheme(rng, 4, 3)))
        inject(rng, doc, fault)
        texts.append(json.dumps(doc))
    expected = [outcome(reference_parse_scheme, text, False) for text in texts]

    def refuse(*args, **kwargs):
        raise AssertionError("parse_scheme built a record or called Scheme(...)")

    monkeypatch.setattr(Scheme, "__init__", refuse)
    monkeypatch.setattr(ClassRecord, "__init__", refuse)
    assert [outcome(parse_scheme, text, False) for text in texts] == expected
