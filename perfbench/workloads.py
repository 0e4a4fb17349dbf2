"""Workload definitions: the requests of one session and how each is checked.

A session is a fixed list of CLI requests.  Each request gets its own
freshly generated input file, so no request can hit a cache entry left by
another, as for a user who starts one CLI process per command.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import verify
from inputs import (
    colliding_profiles,
    injective_profiles,
    one_hot_profiles,
    random_masses,
    request_rng,
    resolve_scenario,
    scheme_text,
)
from verify import SchemeFacts

NOISE_EPS = ("0.05", "0.45")
NOISE_DELTA = "0.001"


@dataclass(frozen=True)
class Request:
    command: str
    argv: list[str]
    codes: tuple[int, ...]
    check: Callable[[dict, int], None]


class Session:
    """Builds the requests of one session, writing inputs under ``workdir``."""

    def __init__(self, workload: str, seed: int, index: int, workdir: Path):
        self.workload, self.seed, self.index = workload, seed, index
        self.workdir = workdir
        self.requests: list[Request] = []

    def rng(self):
        return request_rng(self.workload, self.seed, self.index, len(self.requests))

    def _write(self, text: str) -> str:
        path = self.workdir / f"request{len(self.requests):02d}.json"
        # A fresh file, not a truncated one: ext4 flushes truncated-and-rewritten
        # files to disk on close, which stalls generation for tenths of a second.
        path.unlink(missing_ok=True)
        path.write_text(text, encoding="utf-8")
        return str(path)

    def scheme_request(self, command: str, facts: SchemeFacts, extra: list[str], check, codes=(0,)):
        path = self._write(scheme_text(facts.profiles, facts.n, facts.masses))
        self.requests.append(Request(command, [command, path, *extra], codes, check))

    def resolve_request(self, scenario: dict):
        path = self._write(json.dumps(scenario))
        check = lambda doc, code: verify.check_resolve(doc, scenario)
        self.requests.append(Request("resolve", ["resolve", path, "--trace"], (0,), check))


def _table1(s: Session, z: dict):
    k, n = z["k"], z["n"]
    for command, check in (
        ("analyze", verify.check_analyze),
        ("dimension", verify.check_dimension),
        ("tradeoff", verify.check_tradeoff),
    ):
        facts = SchemeFacts(injective_profiles(s.rng(), k, n), n)
        s.scheme_request(command, facts, [], lambda doc, code, f=facts, c=check: c(doc, f))
    facts = SchemeFacts(injective_profiles(s.rng(), k, n), n)
    s.scheme_request(
        "simulate", facts, ["--strategy", "adaptive"],
        lambda doc, code, f=facts: verify.check_simulate(doc, f, "adaptive"),
    )
    rng = s.rng()
    facts = SchemeFacts(injective_profiles(rng, k, n), n)
    noise_seed = str(rng.randrange(1 << 31))
    trials = z["trials"]
    s.scheme_request(
        "simulate-noise", facts,
        ["--eps", *NOISE_EPS, "--delta", NOISE_DELTA, "--trials", str(trials), "--seed", noise_seed],
        lambda doc, code: verify.check_noise(doc, [float(e) for e in NOISE_EPS], float(NOISE_DELTA), trials),
    )


def _hybrid(s: Session, z: dict):
    k, n = z["k"], z["n"]
    rng = s.rng()
    facts = SchemeFacts(injective_profiles(rng, k, n), n, random_masses(rng, k))
    s.scheme_request(
        "tradeoff", facts, ["--tags", "1", "2", "3"],
        lambda doc, code, f=facts: verify.check_tradeoff(doc, f, (1, 2, 3)),
    )
    rng = s.rng()
    facts = SchemeFacts(injective_profiles(rng, k, n), n, random_masses(rng, k))
    s.scheme_request(
        "simulate", facts, ["--strategy", "hybrid", "--tags", "2"],
        lambda doc, code, f=facts: verify.check_simulate(doc, f, "hybrid", 2),
    )
    rng = s.rng()
    ck, cn = z["collide_k"], z["collide_n"]
    facts = SchemeFacts(colliding_profiles(rng, ck, cn, z["copies"]), cn, random_masses(rng, ck))
    s.scheme_request(
        "tradeoff", facts, ["--tags", "1", "2"],
        lambda doc, code, f=facts: verify.check_tradeoff(doc, f, (1, 2)),
    )


def _edges(s: Session, z: dict):
    rng = s.rng()
    k = z["one_hot"]
    facts = SchemeFacts(one_hot_profiles(rng, k), k, random_masses(rng, k), one_hot=True)
    s.scheme_request("tradeoff", facts, [], lambda doc, code, f=facts: verify.check_tradeoff(doc, f))
    for command, check in (
        ("dimension", verify.check_dimension),
        ("bases", verify.check_bases),
        ("tradeoff", verify.check_tradeoff),
    ):
        facts = SchemeFacts(injective_profiles(s.rng(), z["k"], z["n"]), z["n"])
        s.scheme_request(command, facts, [], lambda doc, code, f=facts, c=check: c(doc, f))
    facts = SchemeFacts(injective_profiles(s.rng(), z["check_k"], z["check_n"]), z["check_n"])
    s.scheme_request("check", facts, [], lambda doc, code, f=facts: verify.check_check(doc, code, f), codes=(0, 4))
    ck, cn, copies = z["collide_k"], z["collide_n"], z["copies"]
    facts = SchemeFacts(colliding_profiles(s.rng(), ck, cn, copies), cn)
    s.scheme_request("analyze", facts, [], lambda doc, code, f=facts: verify.check_analyze(doc, f))
    facts = SchemeFacts(colliding_profiles(s.rng(), ck, cn, copies), cn)
    s.scheme_request("dimension", facts, [], lambda doc, code: verify.check_error(doc, "BarrierError"), codes=(2,))
    facts = SchemeFacts(colliding_profiles(s.rng(), ck, cn, copies), cn)
    s.scheme_request("check", facts, [], lambda doc, code, f=facts: verify.check_check(doc, code, f), codes=(0, 4))
    s.resolve_request(resolve_scenario(s.rng(), z["scopes"], z["lineage"], z["misses"]))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Session, dict], None]
    sizes: dict
    tiny: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1",
            "Table-1 scale k=1000/n=50: parsing, greedy matroid and trees, CLI emission and the noise walk; "
            "no tag partitioning or exact search",
            _table1,
            sizes=dict(k=1000, n=50, trials=10_000),
            tiny=dict(k=40, n=20, trials=200),
        ),
        Workload(
            "hybrid",
            "tag partitioning: block_dimension on exact (n=16) and greedy (n=50, colliding) paths "
            "and the hybrid plan replayed per class; no noise, checks or resolver",
            _hybrid,
            sizes=dict(k=20, n=16, collide_k=100, collide_n=50, copies=10),
            tiny=dict(k=8, n=6, collide_k=16, collide_n=20, copies=3),
        ),
        Workload(
            "edges",
            "exact limits and error paths: one-hot exact tree, subset scans at n=16, closure scan, "
            "colliding schemes, resolver misses; no tags or noise",
            _edges,
            sizes=dict(
                one_hot=18, k=24, n=16, check_k=64, check_n=10,
                collide_k=200, collide_n=12, copies=8, scopes=32, lineage=64, misses=16,
            ),
            tiny=dict(
                one_hot=6, k=10, n=6, check_k=12, check_n=5,
                collide_k=20, collide_n=12, copies=3, scopes=4, lineage=8, misses=3,
            ),
        ),
    )
}


def build_session(workload: str, seed: int, index: int, workdir: Path, tiny: bool = False) -> list[Request]:
    """Write the inputs of one session into ``workdir``; return its requests."""
    w = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    session = Session(workload, seed, index, workdir)
    w.build(session, w.tiny if tiny else w.sizes)
    return session.requests
