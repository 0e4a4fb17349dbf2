"""Byte-identity corpus: SHA-256 of stdout plus the exit code of ~250 CLI requests.

The inputs are seeded schemes from ``corpus`` (random injective, colliding
and mixed, with and without masses; one colliding k=100/n=30 scheme whose
hybrid groups lie above the exact-tree limit) and a few single-fault
documents.  ``tests/pinned/corpus_digests.json`` holds the digests; a
change that should keep every output byte-identical must keep them.

Regenerate only for an intended, recorded output change:

    PYTHONPATH=src:tests python tests/test_pinned_corpus.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from corpus import random_colliding_scheme, random_injective_scheme, random_scheme
from discern import cli
from discern.scheme import serialize_scheme

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

# One fault each: a bit out of the 0/1 domain, a boolean or string bit, a
# ragged profile, a duplicate name, bad masses.
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
    for name, text in FAULTY_DOCUMENTS.items():
        path = document(f"fault-{name}", text)
        requests.append((f"fault-{name} analyze", ["analyze", path]))
    return requests


def digests(where: Path) -> dict:
    """{case id: [SHA-256 of stdout, exit code]} over the whole corpus."""
    found = {}
    for case, argv in corpus_requests(where):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.run(argv)
        found[case] = [hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code]
    return found


def test_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert digests(tmp_path) == pinned


def test_corpus_reaches_groups_above_the_exact_tree_limit():
    from discern.strategies import tag_partition
    from discern.trees import EXACT_TREE_CLASS_LIMIT

    assert max(len(g) for g in tag_partition(large_scheme(), 1)) > EXACT_TREE_CLASS_LIMIT


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as where:
        PINNED.write_text(json.dumps(digests(Path(where)), indent=1, sort_keys=True) + "\n", encoding="utf-8")
