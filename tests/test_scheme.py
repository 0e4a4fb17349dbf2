import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpus import random_masses, random_scheme, scheme_from_profiles
from discern import cli, errors, scheme as scheme_module
from discern.errors import ParseError, ValidationError
from discern.scheme import (
    ClassRecord,
    Profile,
    Scheme,
    parse_scheme,
    profile_of,
    serialize_scheme,
)
from discern.tradeoff import achievable_points
from discern.trees import optimal_decision_tree

MINIMAL = '{"attributes":["p","q"],"classes":[{"name":"A","profile":[0,0]},{"name":"B","profile":[0,1]}]}'


def test_parse_defaults_to_uniform_masses():
    scheme = parse_scheme(MINIMAL)
    assert scheme.k == 2 and scheme.n == 2
    assert scheme.masses == (0.5, 0.5)


def test_parse_keeps_explicit_masses():
    doc = json.loads(MINIMAL)
    doc["masses"] = [0.7, 0.3]
    scheme = parse_scheme(json.dumps(doc))
    assert scheme.masses == (0.7, 0.3)


def test_ragged_profile_rejected_with_path():
    doc = json.loads(MINIMAL)
    doc["classes"][1]["profile"] = [0, 1, 1]
    with pytest.raises(ValidationError) as exc:
        parse_scheme(json.dumps(doc))
    assert exc.value.path == "classes[1].profile"


def test_duplicate_class_names_rejected():
    doc = json.loads(MINIMAL)
    doc["classes"][1]["name"] = "A"
    with pytest.raises(ValidationError):
        parse_scheme(json.dumps(doc))
    # The first repeat in document order is named, whatever the set order.
    doc["classes"] = [{"name": name, "profile": [0, 0]} for name in ["z", "y", "x", "w", "x", "y", "z"]]
    with pytest.raises(ValidationError, match=r"^classes: duplicate class name 'x'$"):
        parse_scheme(json.dumps(doc))


def test_duplicate_attribute_names_rejected():
    doc = json.loads(MINIMAL)
    doc["attributes"] = ["p", "p"]
    with pytest.raises(ValidationError):
        parse_scheme(json.dumps(doc))


@pytest.mark.parametrize(
    "masses",
    [[0.7], [0.5, -0.5], [0.6, 0.6], [float("nan"), 1.0]],  # json writes and reads a bare NaN
)
def test_bad_masses_rejected(masses):
    doc = json.loads(MINIMAL)
    doc["masses"] = masses
    with pytest.raises(ValidationError):
        parse_scheme(json.dumps(doc))


def test_mass_sum_tolerance_is_pinned(tmp_path, capsys):
    # A sum 5e-10 off 1 is rounding; one 1e-8 off is a wrong document.  A
    # tolerance of 1e-10 refuses the first, one of 1e-6 accepts the second.
    doc = json.loads(MINIMAL)
    doc["masses"] = [0.5, 0.5 + 5e-10]
    assert parse_scheme(json.dumps(doc)).masses == (0.5, 0.5 + 5e-10)
    doc["masses"] = [0.5, 0.5 + 1e-8]
    with pytest.raises(ValidationError) as exc:
        parse_scheme(json.dumps(doc))
    assert exc.value.path == "masses"
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.run(["analyze", str(path)]) == cli.DATA_EXIT == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ValidationError" and error["message"].startswith("masses: masses sum to 1.00000001")


def test_renormalize_is_explicit_only():
    doc = json.loads(MINIMAL)
    doc["masses"] = [3, 1]
    with pytest.raises(ValidationError):
        parse_scheme(json.dumps(doc))
    scheme = parse_scheme(json.dumps(doc), renormalize=True)
    assert scheme.masses == (0.75, 0.25)


def test_renormalize_refuses_masses_summing_to_zero():
    doc = json.loads(MINIMAL)
    doc["masses"] = [0, 0]
    with pytest.raises(ValidationError) as exc:
        parse_scheme(json.dumps(doc), renormalize=True)
    assert (exc.value.path, exc.value.message) == ("masses", "cannot renormalize masses summing to 0.0")


@pytest.mark.parametrize("renormalize", [False, True])
def test_empty_masses_rejected(renormalize):
    doc = json.loads(MINIMAL)
    doc["masses"] = []
    with pytest.raises(ValidationError) as exc:
        parse_scheme(json.dumps(doc), renormalize=renormalize)
    assert (exc.value.path, exc.value.message) == ("masses", "got 0 masses for 2 classes")


def test_omitted_masses_are_uniform_for_library_callers():
    records = (ClassRecord("A", Profile((0,))), ClassRecord("B", Profile((1,))))
    assert Scheme(("p",), records).masses == Scheme(("p",), records, None).masses == (0.5, 0.5)
    with pytest.raises(ValidationError, match="got 0 masses for 2 classes"):
        Scheme(("p",), records, ())


def test_profile_bit_domain():
    doc = json.loads(MINIMAL)
    doc["classes"][0]["profile"] = [0, 2]
    with pytest.raises(ValidationError):
        parse_scheme(json.dumps(doc))
    doc["classes"][0]["profile"] = [0, "1"]
    with pytest.raises(ParseError):
        parse_scheme(json.dumps(doc))
    doc["classes"][0]["profile"] = [0, True]
    with pytest.raises(ParseError):
        parse_scheme(json.dumps(doc))


@pytest.mark.parametrize(
    "text",
    ["not json", "[1,2]", '{"classes": []}', '{"attributes": [], "classes": [], "extra": 1}'],
)
def test_malformed_documents(text):
    with pytest.raises(ParseError):
        parse_scheme(text)


def test_at_least_one_class_required():
    with pytest.raises(ValidationError):
        parse_scheme('{"attributes": ["p"], "classes": []}')


def test_zero_attributes_allowed():
    scheme = parse_scheme('{"attributes": [], "classes": [{"name": "A", "profile": []}]}')
    assert scheme.n == 0 and scheme.k == 1


def test_parse_checks_each_bit_once(monkeypatch):
    # ``Profile`` checks the bits; the number of structural checks on a
    # valid document depends on k but not on the profile length n.
    calls = []
    real = scheme_module.expect

    def counting(*args):
        calls.append(args)
        real(*args)

    monkeypatch.setattr(scheme_module, "expect", counting)
    monkeypatch.setattr(errors, "expect", counting)  # as ``expect_each`` looks it up
    counts = []
    for n in (2, 40):
        calls.clear()
        parse_scheme(serialize_scheme(random_scheme(random.Random(n), 8, n)))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_class_names_derived_once(s2):
    assert s2.class_names == ("A", "B", "C", "D")
    assert s2.class_names is s2.class_names


def test_profile_of(s2):
    assert profile_of(s2, 0).bits == (0, 0)
    assert profile_of(s2, 3).bits == (1, 1)
    with pytest.raises(IndexError):
        profile_of(s2, 4)
    with pytest.raises(IndexError):
        profile_of(s2, -1)


def test_scheme_is_immutable(s2):
    with pytest.raises(Exception):
        s2.attributes = ()


def test_round_trip_fixtures(s1, s2, s3):
    for scheme in (s1, s2, s3):
        assert parse_scheme(serialize_scheme(scheme)) == scheme


def test_serializer_key_order(s2):
    text = serialize_scheme(s2)
    keys = list(json.loads(text).keys())
    assert keys == ["attributes", "classes", "masses"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 8), n=st.integers(0, 6), with_masses=st.booleans())
def test_round_trip_random(seed, k, n, with_masses):
    rng = random.Random(seed)
    scheme = random_scheme(rng, k, n, with_masses=with_masses)
    assert parse_scheme(serialize_scheme(scheme)) == scheme


def test_random_masses_sum_within_tolerance():
    rng = random.Random(11)
    for k in (1, 2, 7, 50):
        masses = random_masses(rng, k)
        assert abs(sum(masses) - 1.0) <= 1e-9


def test_direct_construction_validates():
    with pytest.raises(ValidationError):
        Scheme(("a",), (ClassRecord("A", Profile((0, 1))),))
    records = (ClassRecord("A", Profile((0,))), ClassRecord("B", Profile((1,))))
    with pytest.raises(ValidationError):
        Scheme(("a",), records, (0.5, float("nan")))
    with pytest.raises(ValidationError):
        Profile((0, 2))
    for bit in (1.0, 0.0, True, "1"):
        with pytest.raises(ValidationError) as exc:
            Profile((0, bit))
        assert exc.value.path == "profile[1]"


def test_equal_schemes_hash_equal(s2):
    hash(s2)
    assert hash(parse_scheme(serialize_scheme(s2))) == hash(s2)


def test_unpickled_scheme_hashes_in_its_own_process():
    # Pickle in a process with other string hashes: a hash stored there
    # and carried over would not match a freshly parsed equal scheme.
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import pickle, sys; from discern.scheme import parse_scheme; "
        f"s = parse_scheme({MINIMAL!r}); hash(s); sys.stdout.buffer.write(pickle.dumps(s))"
    )
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="12345")
    data = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True).stdout
    clone = pickle.loads(data)
    fresh = parse_scheme(MINIMAL)
    assert clone == fresh
    assert hash(clone) == hash(fresh)
    optimal_decision_tree.cache_clear()
    optimal_decision_tree(fresh)
    optimal_decision_tree(clone)
    assert optimal_decision_tree.cache_info().hits == 1


def literal_packing(scheme):
    """Oracle: profiles and columns packed one bit at a time."""
    rows = [c.profile.bits for c in scheme.classes]
    profile_ints = tuple(sum(b << q for q, b in enumerate(row)) for row in rows)
    column_masks = tuple(
        sum(row[q] << c for c, row in enumerate(rows)) for q in range(scheme.n)
    )
    return rows, profile_ints, column_masks


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65, 130])
@pytest.mark.parametrize("k", [1, 7, 8, 9, 70])
def test_packing_matches_literal_bits(k, n):
    scheme = random_scheme(random.Random(k * 1000 + n), k, n)
    rows, profile_ints, column_masks = literal_packing(scheme)
    assert scheme.bits.dtype == bool and scheme.bits.shape == (k, n)
    assert scheme.bits.tolist() == [[bool(b) for b in row] for row in rows]
    assert scheme.profile_ints == profile_ints
    assert scheme.column_masks == column_masks


@pytest.mark.parametrize("k", [1, 8, 9, 70])
def test_packing_one_hot(k):
    scheme = scheme_from_profiles([[int(q == c) for q in range(k)] for c in range(k)])
    assert scheme.profile_ints == scheme.column_masks == tuple(1 << c for c in range(k))
    assert literal_packing(scheme)[1:] == (scheme.profile_ints, scheme.column_masks)


def test_bits_are_read_only(s2):
    s2.bits
    for scheme in (s2, pickle.loads(pickle.dumps(s2))):
        with pytest.raises(ValueError):
            scheme.bits[0, 0] = not scheme.bits[0, 0]


LIBRARY_RECORDS = (ClassRecord("A", Profile((0, 1))), ClassRecord("B", Profile((1, 0))))


def test_list_built_scheme_is_the_tuple_built_one():
    listed = Scheme(["p", "q"], list(LIBRARY_RECORDS), [0.5, 0.5])
    tupled = Scheme(("p", "q"), LIBRARY_RECORDS, (0.5, 0.5))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert achievable_points(listed) == achievable_points(tupled)  # hashes the scheme in a tree lookup
    assert Scheme((a for a in "pq"), iter(LIBRARY_RECORDS), iter((0.5, 0.5))) == tupled


@pytest.mark.parametrize(
    "attributes, records, masses, path",
    [
        (("p", 7), LIBRARY_RECORDS, None, "attributes[1]"),
        ((None, "q"), LIBRARY_RECORDS, None, "attributes[0]"),
        (("p", "q"), (LIBRARY_RECORDS[0], ClassRecord(7, Profile((1, 0)))), None, "classes[1].name"),
        (("p", "q"), (ClassRecord(("A",), Profile((0, 1))), LIBRARY_RECORDS[1]), None, "classes[0].name"),
        (("p", "q"), LIBRARY_RECORDS, (True, False), "masses[0]"),
        (("p", "q"), LIBRARY_RECORDS, (0.5, "0.5"), "masses[1]"),
        (("p", "q"), LIBRARY_RECORDS, (None, 1.0), "masses[0]"),
        (("p", "q"), (LIBRARY_RECORDS[0], ("B", Profile((1, 0)))), None, "classes[1]"),
        (("p", "q"), (ClassRecord("A", (0, 1)), LIBRARY_RECORDS[1]), None, "classes[0].profile"),
    ],
)
def test_direct_construction_refuses_what_a_document_cannot_hold(attributes, records, masses, path):
    with pytest.raises(ValidationError) as exc:
        Scheme(attributes, records, masses)
    assert exc.value.path == path


@pytest.mark.parametrize(
    "args",
    [
        (["p", "q"], list(LIBRARY_RECORDS), [0.25, 0.75]),
        ((a for a in "pq"), iter(LIBRARY_RECORDS)),
        (("p", "q"), LIBRARY_RECORDS, (1, 0)),
        ([], [ClassRecord("only", Profile(()))], [1]),
    ],
)
def test_library_built_schemes_round_trip(args):
    scheme = Scheme(*args)
    assert parse_scheme(serialize_scheme(scheme)) == scheme
