"""Byte-identity corpus: SHA-256 of stdout plus the exit code of ~290 CLI requests.

The inputs are seeded schemes from ``corpus`` (random injective, colliding
and mixed, with and without masses; one colliding k=100/n=30 scheme whose
hybrid groups lie above the exact-tree limit) and a few single-fault
documents, and one scheme whose attribute and class names hold quotes,
backslashes, control characters, the text of a row boundary, non-ASCII and
a lone surrogate.  A few resolver scenarios run ``resolve --trace``: a
miss-heavy one, a 0 entry before a nonzero one of its type, two lineage
types with one target, and an ill-formed registry with and without
``--strict``.  ``tests/pinned/corpus_digests.json`` holds the digests;
a change that should keep every output byte-identical must keep them.

Regenerate only for an intended, recorded output change:

    PYTHONPATH=src:tests python tests/test_pinned_corpus.py

The script prints the id of every case whose digest it changes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from corpus import random_colliding_scheme, random_injective_scheme, random_masses, random_scheme
from discern import cli
from discern.scheme import ClassRecord, Scheme, serialize_scheme

PINNED = Path(__file__).parent / "pinned" / "corpus_digests.json"

SCHEME_COMMANDS = (
    ["tradeoff", "--tags", "0", "1", "2", "3"],
    ["simulate", "--strategy", "hybrid", "--tags", "1"],
    ["simulate", "--strategy", "hybrid", "--tags", "2"],
    ["simulate", "--strategy", "adaptive"],
    ["report", "--tags", "1", "2"],
    ["check"],
    ["bases"],
    ["dimension"],
    ["simulate-noise", "--eps", "0.1", "0.3", "--delta", "0.1", "--trials", "200", "--seed", "5"],
    ["simulate-noise", "--eps", "0.1", "0.3", "--delta", "0.1", "--trials", "200", "--seed", "5", "--tagged"],
)
CLASS_COMMANDS = (
    ["simulate", "--strategy", "hybrid", "--tags", "1"],
    ["simulate", "--strategy", "hybrid", "--tags", "2"],
    ["simulate", "--strategy", "adaptive"],
)
LARGE_COMMANDS = (
    ["tradeoff", "--tags", "1"],
    ["simulate", "--strategy", "hybrid", "--tags", "1"],
    ["simulate", "--strategy", "adaptive"],
    ["dimension"],
)

# One fault each: a bit out of the 0/1 domain (256 is out of a byte too), a
# boolean or string bit, a ragged profile, a duplicate name, bad masses, a
# class entry that is not an object, has no profile or a non-string name,
# and no classes at all.
FAULTY_DOCUMENTS = {
    "bit-domain": '{"attributes": ["p", "q"], "classes": [{"name": "A", "profile": [0, 2]}]}',
    "bit-negative": '{"attributes": ["p"], "classes": [{"name": "A", "profile": [0]}, {"name": "B", "profile": [-1]}]}',
    "bit-bool": '{"attributes": ["p", "q"], "classes": [{"name": "A", "profile": [0, true]}]}',
    "bit-string": '{"attributes": ["p", "q"], "classes": [{"name": "A", "profile": ["1", 0]}]}',
    "ragged-long": '{"attributes": ["p", "q"], "classes": [{"name": "A", "profile": [0, 1]}, {"name": "B", "profile": [0, 1, 1]}]}',
    "ragged-short": '{"attributes": ["p", "q"], "classes": [{"name": "A", "profile": [0]}]}',
    "duplicate-name": '{"attributes": ["p"], "classes": [{"name": "A", "profile": [0]}, {"name": "A", "profile": [1]}]}',
    "mass-sum": '{"attributes": ["p"], "classes": [{"name": "A", "profile": [0]}, {"name": "B", "profile": [1]}], "masses": [0.5, 0.6]}',
    "mass-count": '{"attributes": ["p"], "classes": [{"name": "A", "profile": [0]}], "masses": [0.5, 0.5]}',
    "entry-not-object": '{"attributes": ["p"], "classes": [{"name": "A", "profile": [0]}, 3]}',
    "missing-profile": '{"attributes": ["p"], "classes": [{"name": "A", "profile": [0]}, {"name": "B"}]}',
    "name-not-string": '{"attributes": ["p"], "classes": [{"name": 5, "profile": [0]}]}',
    "no-classes": '{"attributes": ["p"], "classes": []}',
    "bit-256": '{"attributes": ["p", "q"], "classes": [{"name": "A", "profile": [0, 1]}, {"name": "B", "profile": [256, 0]}]}',
}


def corpus_schemes():
    """(name, scheme) pairs; seeded, so every run writes the same documents."""
    rng = random.Random(20261018)
    schemes = []
    for i in range(20):
        kind = ("injective", "colliding", "mixed")[i % 3]
        k = rng.randint(2, 20) if i % 5 else rng.randint(25, 40)
        n = rng.randint(max(3, (k - 1).bit_length()), 12)
        with_masses = i % 2 == 1
        if kind == "injective":
            scheme = random_injective_scheme(rng, k, n, with_masses)
        elif kind == "colliding":
            scheme = random_colliding_scheme(rng, k, n, with_masses)
        else:
            scheme = random_scheme(rng, k, rng.randint(2, 5), with_masses)
        schemes.append((f"{kind}-{i:02d}-k{scheme.k}-n{scheme.n}", scheme))
    return schemes


def large_scheme():
    return random_colliding_scheme(random.Random(7), 100, 30)


# Names that JSON must escape, one attribute and one class each: a quote, a
# backslash, control characters, a newline followed by the text of a row
# boundary in the indented output, non-ASCII and a lone surrogate.
HOSTILE_NAMES = (
    'say "hi"',
    "back\\slash\\",
    "new\nline\ttab\x00\x1f",
    '],\n    ["',
    "},\n    {",
    "é ß — 漢字 🙂",
    "\ud800 lone",
)


def hostile_scheme():
    """An injective scheme named by ``HOSTILE_NAMES``, with seeded masses."""
    rng = random.Random(30)
    k = len(HOSTILE_NAMES)
    base = random_injective_scheme(rng, k, k)
    records = [ClassRecord(name, record.profile) for name, record in zip(HOSTILE_NAMES[::-1], base.classes)]
    return Scheme(HOSTILE_NAMES, records, random_masses(rng, k))


def miss_heavy_scenario() -> dict:
    """Many scopes and lineage types, with one hit in the last scope.

    Every scope holds entries of types no lineage type normalizes to (one
    scope is unknown to ``ctx``); a quarter of the lineage types are
    rewritten to fresh ids, so the registry is well-formed.
    """
    rng = random.Random(31)
    mro = rng.sample(range(100, 1_000), 24)
    registry = {t: 2_000 + i for i, t in enumerate(rng.sample(mro, 6))}
    scopes = [f"scope{i:02d}" for i in range(12)]
    ctx = {s: [{"typ": rng.randrange(3_000, 4_000), "value": rng.randrange(10)} for _ in range(6)] for s in scopes[:-1]}
    del ctx[scopes[3]]
    hit = mro[17]
    ctx[scopes[-1]] = [{"typ": 5, "value": 1}, {"typ": registry.get(hit, hit), "value": 77}, {"typ": mro[0], "value": 0}]
    return {"registry": {str(t): target for t, target in registry.items()}, "mro": mro, "scopes": scopes, "ctx": ctx}


# Resolver scenarios, each run with ``--trace``: (name, document, extra
# options).  The zero case's first entry of type 1 holds the unset 0, which
# ends that probe before the later 8; types 2 and 3 normalize to one target;
# the ill-formed registry maps 2 to 1 and 1 to 3, and is run with and
# without ``--strict``.
ILL_FORMED = {"registry": {"2": 1, "1": 3}, "mro": [2, 1], "scopes": ["s0"], "ctx": {"s0": [{"typ": 3, "value": 4}]}}
RESOLVE_CASES = (
    ("miss-heavy", miss_heavy_scenario(), []),
    (
        "zero-then-nonzero",
        {
            "mro": [1],
            "scopes": ["s0", "s1"],
            "ctx": {"s0": [{"typ": 1, "value": 0}, {"typ": 1, "value": 8}], "s1": [{"typ": 1, "value": 3}]},
            "obj": {"typ": 1, "value": 0},
            "lazy": True,
        },
        [],
    ),
    (
        "shared-target",
        {
            "registry": {"2": 1, "3": 1},
            "mro": [2, 3, 1, 4],
            "scopes": ["s0", "s1"],
            "ctx": {"s0": [{"typ": 4, "value": 0}], "s1": [{"typ": 2, "value": 6}, {"typ": 1, "value": 9}]},
        },
        [],
    ),
    ("ill-formed", ILL_FORMED, []),
    ("ill-formed", ILL_FORMED, ["--strict"]),
)


def corpus_requests(where: Path):
    """(case id, argv) for every request, writing its input under ``where``."""
    requests = []

    def document(name: str, text: str) -> str:
        path = where / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    for name, scheme in corpus_schemes():
        path = document(name, serialize_scheme(scheme))
        for command in SCHEME_COMMANDS:
            requests.append((f"{name} {' '.join(command)}", [command[0], path, *command[1:]]))
        chosen = scheme.class_names[random.Random(name).randrange(scheme.k)]
        for command in CLASS_COMMANDS:
            argv = [command[0], path, *command[1:], "--class", chosen]
            requests.append((f"{name} {' '.join(command)} --class {chosen}", argv))
    path = document("large-colliding-k100-n30", serialize_scheme(large_scheme()))
    for command in LARGE_COMMANDS:
        requests.append((f"large-colliding-k100-n30 {' '.join(command)}", [command[0], path, *command[1:]]))
    path = document("hostile-names", serialize_scheme(hostile_scheme()))
    for command in SCHEME_COMMANDS:
        requests.append((f"hostile-names {' '.join(command)}", [command[0], path, *command[1:]]))
    for name, text in FAULTY_DOCUMENTS.items():
        path = document(f"fault-{name}", text)
        requests.append((f"fault-{name} analyze", ["analyze", path]))
    for name, scenario, options in RESOLVE_CASES:
        path = document(f"scenario-{name}", json.dumps(scenario))
        argv = ["resolve", path, "--trace", *options]
        requests.append((f"scenario-{name} {' '.join(argv[:1] + argv[2:])}", argv))
    return requests


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def digests(where: Path) -> dict:
    """{case id: [SHA-256 of stdout, exit code]} over the whole corpus.

    Every stdout must also parse as strict JSON: ``NaN`` and ``Infinity``
    are refused.
    """
    found = {}
    for case, argv in corpus_requests(where):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.run(argv)
        try:
            json.loads(out.getvalue(), parse_constant=_refuse_constant)
        except ValueError as exc:
            raise AssertionError(f"{case}: stdout is not strict JSON: {exc}") from None
        found[case] = [hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code]
    return found


def moved_cases(found: dict, pinned: dict) -> list[str]:
    """Sorted ids, over both key sets, whose digest or exit code differs or
    that only one side has."""
    return sorted(case for case in found.keys() | pinned.keys() if found.get(case) != pinned.get(case))


def test_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    moved = moved_cases(digests(tmp_path), pinned)
    assert not moved, f"{len(moved)} of {len(pinned)} pinned outputs differ: {moved}"


def test_corpus_reaches_groups_above_the_exact_tree_limit():
    from discern.strategies import tag_partition
    from discern.trees import EXACT_TREE_CLASS_LIMIT

    assert max(len(g) for g in tag_partition(large_scheme(), 1)) > EXACT_TREE_CLASS_LIMIT


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as where:
        found = digests(Path(where))
    for case in moved_cases(found, json.loads(PINNED.read_text(encoding="utf-8"))):
        print(case)
    PINNED.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
