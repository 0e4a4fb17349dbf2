"""Hostile and extreme inputs end with their documented exit code, in time.

Each case runs ``python -m discern.cli`` in a fresh process, with a wall
clock timeout and an address-space limit (``RLIMIT_AS``) set on that child
only.  Exit codes: 0 success, 2 a refused input, 3 a limit, 4 a property
that fails.  A case that is still running at its timeout is a hang.  The known hangs are strict xfails
until ROADMAP item 4's work budget ends them.
"""
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import random_injective_scheme, scheme_from_profiles, table1_scheme
from discern.scheme import serialize_scheme

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 1 << 30


def _table1_bad_bit() -> str:
    doc = json.loads(serialize_scheme(table1_scheme()))
    doc["classes"][999]["profile"][49] = 2
    return json.dumps(doc, indent=2)


def _sparse_injective(seed: int, k: int, n: int) -> str:
    """k distinct profiles over n attributes, each bit 1 with probability 1/n."""
    rng = random.Random(seed)
    seen: set = set()
    while len(seen) < k:
        seen.add(tuple(int(rng.randrange(n) == 0) for _ in range(n)))
    return serialize_scheme(scheme_from_profiles(sorted(seen)))


def _random_injective(seed: int, k: int, n: int) -> str:
    return serialize_scheme(random_injective_scheme(random.Random(seed), k, n))


INPUTS = {
    "deep.json": lambda: "[" * 200_000 + "]" * 200_000,
    "table1.json": lambda: serialize_scheme(table1_scheme()),
    "table1-bad-bit.json": _table1_bad_bit,
    "huge-mass.json": lambda: (
        '{"attributes": ["a"], "classes": [{"name": "A", "profile": [0]}, '
        '{"name": "B", "profile": [1]}], "masses": [1%s, 0]}' % ("0" * 400)
    ),
    "k64n31.json": lambda: _random_injective(31, 64, 31),
    "k64n30.json": lambda: _random_injective(30, 64, 30),
    "k64n20.json": lambda: _random_injective(20, 64, 20),
    "k200n17.json": lambda: _random_injective(17, 200, 17),
    "k1000n31.json": lambda: _random_injective(31, 1000, 31),
    "k1000n22.json": lambda: _random_injective(22, 1000, 22),
    "k1000n16.json": lambda: _random_injective(16, 1000, 16),
    "k20n16.json": lambda: _random_injective(16, 20, 16),
    "k24n20-sparse.json": lambda: _sparse_injective(3, 24, 20),
}


def _error(kind: str):
    return lambda doc: doc["error"]["type"] == kind


def _closure_skipped(doc) -> bool:
    closure = [c for c in doc["checks"] if c["name"].startswith("closure-")]
    return len(closure) == 4 and all(c["skipped"] for c in closure)


def _adaptive_depth(depth: int):
    return lambda doc: [p["W"] for p in doc["points"] if p["strategy"] == "adaptive"] == [depth]


def _closure_exchange_fails(detail: str):
    return lambda doc: {c["name"]: c["detail"] for c in doc["checks"]}["closure-exchange"] == detail


def _hang(reason: str):
    return pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired, reason=f"ROADMAP item 4: {reason}")


# (argv with an INPUTS name, expected exit code, seconds, check of the JSON output)
CASES = [
    pytest.param(["analyze", "deep.json"], 2, 5, _error("ParseError"), id="200000-deep-json"),
    pytest.param(["analyze", "table1-bad-bit.json"], 2, 5, _error("ValidationError"), id="table1-one-bad-bit"),
    pytest.param(["analyze", "huge-mass.json"], 2, 5, _error("ValidationError"), id="mass-past-float-range"),
    # The exact tree search inside its k <= 24 / n <= 20 limits, on sparse profiles.
    pytest.param(["tradeoff", "k24n20-sparse.json"], 0, 5, _adaptive_depth(14), id="tradeoff-k24n20-sparse"),
    pytest.param(["bases", "k64n31.json", "--max-n", "31"], 3, 5, _error("LimitError"), id="bases-n31"),
    pytest.param(["check", "k64n31.json", "--closure-limit", "31"], 0, 5, _closure_skipped, id="check-n31"),
    # The 2^30-byte pair table does not fit under the address-space limit.
    pytest.param(["bases", "k64n30.json", "--max-n", "30"], 3, 5, _error("LimitError"), id="bases-n30"),
    pytest.param(["check", "k64n30.json", "--closure-limit", "30"], 0, 5, _closure_skipped, id="check-n30"),
    # The closure check reads one 2^20 table by array passes; a per-subset
    # loop would take minutes.  This seeded scheme fails closure exchange.
    pytest.param(
        ["check", "k64n20.json", "--closure-limit", "20"],
        4,
        5,
        _closure_exchange_fails("q=8 in cl(X + {15}) \\ cl(X) but q'=15 not in cl(X + {8}) for X=[1, 2, 3, 4, 6, 7]"),
        id="check-n20-closure-exchange",
    ),
    pytest.param(["dimension", "k1000n16.json"], 0, 5, lambda doc: doc["exact"] is True, id="dimension-n16-exact"),
    pytest.param(["dimension", "k200n17.json"], 0, 5, lambda doc: doc["exact"] is False, id="dimension-n17-greedy"),
    # A raised exact limit reads the 2^n pair table where the cost model
    # prices it below the scan; past SUBSET_TABLE_LIMIT the table refuses.
    pytest.param(
        ["dimension", "k1000n22.json", "--exact-limit", "22"],
        0,
        5,
        lambda doc: doc == {"dimension": 16, "exact": True},
        id="dimension-k1000n22-exact-limit-22",
    ),
    pytest.param(
        ["dimension", "k1000n31.json", "--exact-limit", "31"],
        3,
        5,
        _error("LimitError"),
        id="dimension-k1000n31-exact-limit-31",
    ),
    # No repetition count below MAX_REPETITIONS meets the per-node target.
    pytest.param(
        ["simulate-noise", "k20n16.json", "--eps", "0.4999", "--delta", "1e-12", "--trials", "10", "--seed", "1"],
        2,
        5,
        _error("ConfigError"),
        id="simulate-noise-r-past-max-repetitions",
    ),
    pytest.param(
        ["dimension", "table1.json", "--exact-limit", "50"],
        0,
        2,
        lambda doc: doc["exact"] is False,
        id="dimension-table1-exact-limit-50",
        marks=_hang("the subset scan walks C(50, s) masks with no work budget"),
    ),
    pytest.param(
        ["simulate-noise", "k20n16.json", "--eps", "0.1", "--delta", "0.01", "--seed", "1", "--trials", "2000000000"],
        3,
        2,
        _error("LimitError"),
        id="simulate-noise-2e9-trials",
        marks=_hang("nothing bounds trials x depth draws"),
    ),
]


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    """The path of an INPUTS document, written on first use."""
    folder = tmp_path_factory.mktemp("hostile")

    def path(name: str) -> Path:
        target = folder / name
        if not target.exists():
            target.write_text(INPUTS[name]())
        return target

    return path


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("argv, code, seconds, check", CASES)
def test_hostile_input_ends_with_its_exit_code(input_path, argv, code, seconds, check):
    argv = [str(input_path(a)) if a in INPUTS else a for a in argv]
    done = subprocess.run(
        [sys.executable, "-m", "discern.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == code, done.stderr[-2000:]
    assert check(json.loads(done.stdout, parse_constant=_refuse_constant)), done.stdout[:2000]
