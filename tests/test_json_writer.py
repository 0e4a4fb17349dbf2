"""``errors.encode_json`` against ``json.dumps(doc, indent=2)``, byte for byte:
generated values of every JSON shape, and one document per fast path
(flat lists, lists of strings, rows) at Table-1 size."""
import argparse
import json
import random

import pytest
from hypothesis import given, strategies as st

from corpus import table1_scheme
from discern import cli
from discern.errors import encode_json

# Strings json must escape: quotes, backslashes, control characters,
# non-ASCII, lone surrogates, and the text of a row boundary, which the
# rows path must not take for one.
HOSTILE = ['"', "\\", '\\"', "\x00\x1f\n\r\t\x7f", "é ß 漢字 🙂", "\ud800", "x\udfff", '"],\n    ["', "},\n      {", "],"]
TEXT = st.one_of(st.text(st.characters(exclude_categories=())), st.sampled_from(HOSTILE))
NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**300),
    st.floats(),
    st.sampled_from([0, 1, -0.0, 0.0, 1e-320, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf")]),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT)
KEYS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none())


def sequences(items):
    """Lists and tuples, so a value may mix the two."""
    return st.one_of(st.lists(items, max_size=6), st.lists(items, max_size=6).map(tuple))


# Rows as the rows path sees them, and the near misses it must leave to the
# general path: an empty row, ragged rows, list and tuple rows together,
# dict rows, and lists mixing rows with dicts or scalars.
ROW = st.one_of(sequences(SCALARS), st.dictionaries(KEYS, SCALARS, max_size=4))
ROWS = st.one_of(
    st.lists(sequences(SCALARS), min_size=1, max_size=6),
    st.lists(st.dictionaries(KEYS, SCALARS, max_size=4), min_size=1, max_size=6),
    st.lists(st.one_of(ROW, SCALARS), min_size=1, max_size=6),
)
VALUES = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda children: st.one_of(sequences(children), st.dictionaries(KEYS, children, max_size=5)),
    max_leaves=30,
)


@given(VALUES)
def test_writes_the_bytes_of_json_dumps(value):
    assert encode_json(value) == json.dumps(value, indent=2)


@given(ROWS)
def test_rows_write_the_bytes_of_json_dumps(rows):
    assert encode_json({"rows": rows}) == json.dumps({"rows": rows}, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [True, 1, 1.0, False, 0],
        {True: 1, 1.5: True, None: False, float("nan"): 2**100},
        [[True, 1], (0, False)],
        [[float("nan")], [float("inf"), -float("inf")]],
        {"x": float("nan"), "y": [-0.0, 1e-320]},
        -0.0,
        10**400,
        "\ud800",
    ],
)
def test_true_beside_one_and_the_extreme_scalars(value):
    assert encode_json(value) == json.dumps(value, indent=2)


def test_refuses_what_json_refuses():
    for value in ({1, 2}, [b"x"], {"a": [object()]}, {(1, 2): 3}):
        for encode in (encode_json, lambda v: json.dumps(v, indent=2)):
            try:
                encode(value)
            except TypeError:
                continue
            raise AssertionError(f"{value!r} was encoded")


def table1_documents():
    """The Table-1 documents of each fast path: the scheme itself (flat
    profiles of ints), ``analyze``'s quotient rows, ``bases``-like rows of
    attribute names, a long list of names, ``simulate``'s transcripts (dicts
    holding lists of strings), resolver records (dict rows) and floats."""
    scheme = table1_scheme()
    rng = random.Random(30)
    names, attributes = list(scheme.class_names), list(scheme.attributes)
    return {
        "scheme": {
            "attributes": attributes,
            "classes": [{"name": name, "profile": list(scheme.row(c))} for c, name in enumerate(names)],
            "masses": list(scheme.masses),
        },
        "analyze": cli._analyze_doc(scheme, None),
        "bases": {"bases": [sorted(rng.sample(attributes, 17)) for _ in range(1000)], "dimension": 17},
        "names": names + [name + '"],\n    ["' for name in names],
        "simulate": cli._simulate_doc(scheme, argparse.Namespace(strategy="adaptive", tags=None, class_name=None)),
        "trace": {
            "trace": [
                {"scope": f"s{i}", "mro_type": rng.randrange(64), "normalized": rng.random() < 0.5 or None}
                for i in range(2048)
            ]
        },
        "floats": [rng.random() * 10 ** rng.randint(-320, 308) for _ in range(10000)],
    }


def test_table1_documents_write_the_bytes_of_json_dumps():
    for name, doc in table1_documents().items():
        assert encode_json(doc) == json.dumps(doc, indent=2), name
