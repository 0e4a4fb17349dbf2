"""The two ways a scheme is built: ``parse_scheme``'s whole-document passes
against a per-entry reference parser, and records against parsed answers."""
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import random_scheme, table1_scheme
from discern import cli
from discern.errors import ValidationError, decode_json, expect, expect_each
from discern.scheme import (
    ClassRecord,
    Profile,
    Scheme,
    parse_scheme,
    profile_of,
    serialize_scheme,
)


def reference_parse_scheme(text: str, renormalize: bool = False) -> Scheme:
    """Reference: the parser that checked and built one record per class entry."""
    doc = decode_json(text)
    expect(isinstance(doc, dict), "document must be a JSON object", "")
    expect("attributes" in doc, "missing key", "attributes")
    expect("classes" in doc, "missing key", "classes")
    unknown = set(doc) - {"attributes", "classes", "masses"}
    expect(not unknown, f"unknown keys {sorted(unknown)}", "")

    raw_attributes = doc["attributes"]
    expect(isinstance(raw_attributes, list), "must be an array", "attributes")
    expect_each(raw_attributes, str, "attribute name must be a string", "attributes")

    raw_classes = doc["classes"]
    expect(isinstance(raw_classes, list), "must be an array", "classes")
    records = []
    for i, entry in enumerate(raw_classes):
        expect(isinstance(entry, dict), "class entry must be an object", f"classes[{i}]")
        expect("name" in entry, "missing key", f"classes[{i}].name")
        expect("profile" in entry, "missing key", f"classes[{i}].profile")
        expect(isinstance(entry["name"], str), "class name must be a string", f"classes[{i}].name")
        raw_profile = entry["profile"]
        expect(isinstance(raw_profile, list), "profile must be an array", f"classes[{i}].profile")
        try:
            records.append(ClassRecord(entry["name"], Profile(tuple(raw_profile))))
        except ValidationError as exc:
            expect_each(raw_profile, int, "profile entry must be an integer", f"classes[{i}].profile")
            raise ValidationError(exc.message, f"classes[{i}].{exc.path}") from exc

    masses = None
    if "masses" in doc:
        raw_masses = doc["masses"]
        expect(isinstance(raw_masses, list), "must be an array", "masses")
        expect_each(raw_masses, (int, float), "mass must be a number", "masses")
        masses = tuple(float(m) for m in raw_masses)
        if renormalize and masses:
            total = sum(masses)
            if total <= 0:
                raise ValidationError(f"cannot renormalize masses summing to {total}", "masses")
            masses = tuple(m / total for m in masses)

    return Scheme(tuple(raw_attributes), tuple(records), masses)


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
    "bad masses",
]


def outcome(parse, text: str, renormalize: bool):
    """The scheme, or the (type, message, path) of the refusal."""
    try:
        return parse(text, renormalize)
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc), getattr(exc, "path", None)


def assert_same_outcome(text: str, renormalize: bool = False):
    got = outcome(parse_scheme, text, renormalize)
    expected = outcome(reference_parse_scheme, text, renormalize)
    assert got == expected
    if isinstance(got, Scheme):
        assert got.bits.tolist() == expected.bits.tolist()
        assert got.classes == expected.classes
    return got


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
