"""discern benchmark: closed-loop CLI sessions, checked outputs, traced layers.

Usage, from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

One client runs ``discern.cli.run([...])`` in this process, one request
after another, with stdout captured in memory.  Sessions repeat until
``--seconds`` is used up (at least three run).  Every output is checked
outside the timed region; the 12 golden CLI cases are replayed and
byte-compared first.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See README.md in this directory.
"""
from __future__ import annotations

import os

# The client is single-threaded and the machine small: keep BLAS/OpenMP
# pools at one thread.  This must run before anything imports NumPy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import runpy
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer
from verify import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = HERE / "_work"

MIN_SESSIONS = 3
SETUP_SAMPLES = 9
SETUP_PROBE = (
    "import json, time; t = time.perf_counter(); import discern.cli; "
    "print(json.dumps([time.perf_counter() - t, discern.cli.__file__]))"
)

COMMANDS = ("analyze", "dimension", "bases", "tradeoff", "simulate", "simulate-noise", "check", "resolve")


def command_metric(command: str) -> str:
    return "noise_ms" if command == "simulate-noise" else f"{command}_ms"


# Reported on every workload with --trace 0 (name: unit).  The per-command
# times are printed only: each exists on some workloads, and on hybrid the
# input-driven spread of tradeoff_ms across seeds is about 10%.
END_TO_END = {"setup_s": "s", "session_s": "s", "peak_rss_mb": "MB"}

# Reported on every workload with --trace 1: per-session medians of the traced run.
PER_LAYER = {
    "cli.self_ms": "ms",
    "cli.out_bytes": "bytes",
    "scheme.self_ms": "ms",
    "scheme.calls": "count",
    "scheme.in_bytes": "bytes",
    "barrier.self_ms": "ms",
    "barrier.calls": "count",
    "matroid.self_ms": "ms",
    "matroid.calls": "count",
    "matroid.block_dimension_calls": "count",
    "matroid.pair_masks": "count",
    "matroid.subsets": "count",
    "trees.self_ms": "ms",
    "trees.calls": "count",
    "trees.cache_hits": "count",
    "trees.cache_misses": "count",
    "trees.limit_fallbacks": "count",
    "trees.exact_ratio": "ratio",
    "trees.nodes": "count",
    "strategies.self_ms": "ms",
    "strategies.tag_partition_calls": "count",
    "strategies.tag_partition_useful_ratio": "ratio",
    "strategies.identify_calls": "count",
    "tradeoff.self_ms": "ms",
    "tradeoff.calls": "count",
    "noisy.trials": "count",
    "noisy.rng_draws": "count",
    "checks.closure_subsets": "count",
    "resolver.probes": "count",
    "trace.overhead_ratio": "ratio",
}

# Printed with the traced run but not in its JSON: each is exactly 0 on the
# workloads that never reach the function or layer.
TRACE_ONLY = {
    "matroid.block_dimension_ms": "ms",
    "strategies.tag_partition_ms": "ms",
    "noisy.self_ms": "ms",
    "noisy.repetitions_ms": "ms",
    "checks.self_ms": "ms",
    "resolver.self_ms": "ms",
    "resolver.parse_ms": "ms",
}

COMPUTED = {"matroid.pair_masks", "matroid.subsets", "noisy.rng_draws", "checks.closure_subsets"}

# Counters shown next to each command's layer self times in the traced report.
BREAKDOWN_COUNTS = (
    "trees.limit_fallbacks",
    "trees.cache_hits",
    "strategies.tag_partition_calls",
    "strategies.tag_partition_distinct",
    "matroid.block_dimension_calls",
)


class SetupError(Exception):
    """The checkout does not hold what the benchmark runs."""


def load_cli():
    """Import ``discern.cli`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "discern" / "cli.py").is_file():
        raise SetupError(f"no discern sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from discern import cli

    if Path(cli.__file__).resolve().parent != SRC / "discern":
        raise SetupError(f"discern imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(samples: int) -> list[float]:
    """Import time of discern.cli in fresh interpreters, one sample each."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, path = json.loads(proc.stdout)
        if Path(path).resolve().parent != SRC / "discern":
            raise SetupError(f"set-up probe imported discern from {path}")
        times.append(seconds)
    return times


def problem_with(request, code: int | None, out: str) -> str | None:
    """Why the request's exit code or output is wrong, or None."""
    if code not in request.codes:
        return f"exit code {code}, expected one of {request.codes}"
    try:
        request.check(json.loads(out), code)
    except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


class Client:
    """Runs CLI requests in-process and counts checked outcomes."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        modules = [m for name, m in sys.modules.items() if name.startswith("discern.")]
        self._cached = {id(f): f for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")}

    def call(self, argv: list[str]) -> tuple[int | None, str, float]:
        """One timed request: exit code (None if it raised), stdout, seconds."""
        buffer = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = self.cli.run(argv)
        except Exception:  # a crash is a failed request, not the end of the run
            traceback.print_exc(file=sys.stderr)
            code = None
        return code, buffer.getvalue(), perf_counter() - start

    def forget(self):
        """Drop what the last request cached: each CLI command is its own process for a user."""
        for f in self._cached.values():
            f.cache_clear()
        gc.collect()

    def record(self, label: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def replay_golden(self):
        """The golden CLI cases, byte-compared with the stored outputs."""
        cases = runpy.run_path(str(TESTS / "golden_cases.py"))
        for args, golden, expected in cases["GOLDEN_CASES"]:
            code, out, _ = self.call(cases["fill"](args, TESTS / "fixtures"))
            self.forget()
            same = out.encode("utf-8") == (TESTS / "golden" / golden).read_bytes()
            problem = None if code == expected and same else f"exit {code} (expected {expected}), bytes equal: {same}"
            self.record(f"golden {golden}", problem)

    def run_session(self, requests, index: int, tracer=None) -> tuple[Counter, list[tuple[str, Counter]]]:
        """Seconds per command, plus each request's layer metrics when traced."""
        seconds: Counter = Counter()
        traced = []
        for number, request in enumerate(requests):
            if tracer is not None:
                tracer.begin_request(index, request.command)
            code, out, elapsed = self.call(request.argv)
            if tracer is not None:
                metrics = tracer.end_request()
                metrics["cli.out_bytes"] = len(out.encode("utf-8"))
                traced.append((request.command, metrics))
            self.forget()
            seconds[request.command] += elapsed
            label = f"session {index} request {number} ({' '.join(request.argv[:1] + request.argv[2:])})"
            self.record(label, problem_with(request, code, out))
        return seconds, traced


def session_layer_metrics(traced: list[tuple[str, Counter]]) -> dict[str, float]:
    total: Counter = Counter()
    for _, metrics in traced:
        total.update(metrics)
    out = {name: float(total.get(name, 0)) for name in list(PER_LAYER) + list(TRACE_ONLY)}
    adaptive = total.get("trees.adaptive_calls", 0)
    out["trees.exact_ratio"] = total.get("trees.exact_trees", 0) / adaptive if adaptive else 0.0
    partitions = total.get("strategies.tag_partition_calls", 0)
    out["strategies.tag_partition_useful_ratio"] = (
        total.get("strategies.tag_partition_distinct", 0) / partitions if partitions else 0.0
    )
    return out


def median_by_key(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row.get(key, 0) for row in rows) for key in set().union(*rows)}


@dataclass
class Samples:
    """What the timed sessions of one run measured."""

    sessions: list[float] = field(default_factory=list)
    per_command: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    overhead: list[float] = field(default_factory=list)
    layer_rows: list[dict] = field(default_factory=list)
    command_rows: dict[str, list[Counter]] = field(default_factory=lambda: defaultdict(list))
    traced_requests: list[dict] = field(default_factory=list)
    generation: float = 0.0


def measure(client: Client, workload: str, seed: int, seconds: float, tracer, tiny: bool) -> Samples:
    """Run sessions until ``seconds`` are used up; with a tracer, each twice."""
    samples = Samples()
    workdir = WORK / f"{workload}-{seed}"
    start = perf_counter()
    index = 0
    try:
        while True:
            began = perf_counter()
            requests = workloads.build_session(workload, seed, index, workdir, tiny=tiny)
            samples.generation += perf_counter() - began
            times, _ = client.run_session(requests, index)
            if tracer is not None:
                with tracer.installed():
                    traced_times, traced = client.run_session(requests, index, tracer)
                samples.traced_requests += [dict(metrics) for _, metrics in traced]
            # Session 0 only warms the interpreter and allocator: checked, not timed.
            if index > 0:
                samples.sessions.append(sum(times.values()))
                for command in times:
                    samples.per_command[command].append(times[command] * 1e3)
            if index > 0 and tracer is not None:
                samples.overhead.append(sum(traced_times.values()) / samples.sessions[-1] - 1)
                samples.layer_rows.append(session_layer_metrics(traced))
                by_command: dict[str, Counter] = defaultdict(Counter)
                for command, metrics in traced:
                    by_command[command].update(metrics)
                for command, metrics in by_command.items():
                    samples.command_rows[command].append(metrics)
            index += 1
            now = perf_counter()
            if len(samples.sessions) >= MIN_SESSIONS and now + (now - began) > start + seconds:
                return samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def row(name: str, value: float, unit: str, samples: int) -> str:
    return f"{name:42} {value:14.4f} {unit:6} {samples}"


def end_to_end_report(samples: Samples, setup: list[float]) -> tuple[dict, list[str]]:
    metrics = {
        "setup_s": (statistics.median(setup) if setup else 0.0, len(setup)),
        "session_s": (statistics.median(samples.sessions), len(samples.sessions)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    lines = [row(name, value, END_TO_END[name], n) for name, (value, n) in metrics.items()]
    for command in COMMANDS:
        times = samples.per_command.get(command)
        if times:
            lines.append(row(command_metric(command), statistics.median(times), "ms", len(times)))
    return {name: value for name, (value, _) in metrics.items()}, lines


def layer_report(samples: Samples) -> tuple[dict, list[str]]:
    layers = median_by_key(samples.layer_rows)
    layers["trace.overhead_ratio"] = statistics.median(samples.overhead)
    lines = [
        row(f"{name} (computed)" if name in COMPUTED else name, layers[name], unit, len(samples.layer_rows))
        for name, unit in {**PER_LAYER, **TRACE_ONLY}.items()
    ]
    lines.append("# per command, median over sessions of the summed requests:")
    for command, rows in samples.command_rows.items():
        med = median_by_key(rows)
        selfs = sorted(((v, k) for k, v in med.items() if k.endswith(".self_ms")), reverse=True)
        shown = [f"{k}={v:.1f}" for v, k in selfs] + [f"{k}={med[k]:g}" for k in BREAKDOWN_COUNTS if med.get(k)]
        lines.append(f"#   {command}: " + ", ".join(shown))
    return layers, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result object, report lines)."""
    cli = load_cli()
    setup = [] if trace or tiny else measure_setup(SETUP_SAMPLES)
    client = Client(cli)
    client.replay_golden()
    tracer = Tracer() if trace else None
    samples = measure(client, workload, seed, seconds, tracer, tiny)

    lines = [
        f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
        f"sessions={len(samples.sessions)} (+1 warm-up)",
        f"# input generation {samples.generation:.3f} s in total (benchmark cost, not a metric)",
        f"{'metric':42} {'median':>14} {'unit':6} samples",
    ]
    if tracer is None:
        metrics, report = end_to_end_report(samples, setup)
        chosen = END_TO_END
    else:
        metrics, report = layer_report(samples)
        chosen = PER_LAYER
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{workload}-{seed}.json"
        tracer.write(trace_path, samples.traced_requests)
        report.append(f"# spans written to {trace_path.relative_to(ROOT)}")
    lines += report

    attempted, failed = client.attempted, len(client.failures)
    lines.append(row("failed_ratio", failed / attempted, "ratio", attempted))
    lines += [f"# FAILED {problem}" for problem in client.failures]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in chosen.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
