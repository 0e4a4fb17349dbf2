"""Command-line surface: analysis, simulation, property checks, reports.

JSON on stdout is the machine interface; ``--pretty`` renders tables for
humans.  Exit codes: 0 success, 1 usage, 2 parse/validation error,
3 size limit exceeded, 4 property violation found by ``check``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__, barrier, checks, matroid, noisy, resolver, tradeoff
from .errors import (
    BarrierError,
    ConfigError,
    EmptyInputError,
    LimitError,
    ParseError,
    ValidationError,
)
from .scheme import Scheme, load_scheme, serialize_scheme
from .strategies import StrategyDescriptor, identify, identify_all

USAGE_EXIT = 1
DATA_EXIT = 2
LIMIT_EXIT = 3
VIOLATION_EXIT = 4


class UsageError(Exception):
    """Argument combinations argparse cannot express (exit code 1)."""


def _analyze_doc(scheme: Scheme) -> dict:
    report = barrier.collisions(scheme)
    capacity = barrier.identification_capacity(scheme)
    names = scheme.class_names
    return {
        "k": scheme.k,
        "n": scheme.n,
        "injective": report.injective,
        "capacity_bits": capacity.capacity_bits,
        "collision_groups": [[names[c] for c in group] for group in report.groups],
        "quotient": [[names[c] for c in block] for block in barrier.quotient(scheme)],
        "information_loss_bits": barrier.information_loss(scheme),
    }


def _dimension_doc(scheme: Scheme, exact_limit: int) -> dict:
    result = matroid.distinguishing_dimension(scheme, exact_limit=exact_limit)
    return {"dimension": result.dimension, "exact": result.exact}


def _bases_doc(scheme: Scheme, max_n: int) -> dict:
    report = matroid.enumerate_minimal_distinguishing(scheme, max_n=max_n)
    names = scheme.attributes
    return {
        "bases": [[names[q] for q in sorted(base)] for base in report.bases],
        "dimension": report.dimension,
        "exchange_ok": report.exchange_ok,
        "equal_cardinality_ok": report.equal_cardinality_ok,
        "counterexample": report.counterexample,
    }


def _point_doc(point: tradeoff.TradeoffPoint) -> dict:
    return {"L": point.L, "W": point.W, "D": point.D, "strategy": point.source.kind}


def _tradeoff_doc(scheme: Scheme, tags) -> dict:
    points = tradeoff.achievable_points(scheme, hybrid_tags=tags)
    frontier = tradeoff.pareto_frontier(points)
    doc = {
        "points": [_point_doc(p) for p in points],
        "frontier": [_point_doc(p) for p in frontier],
        "converse": [
            {**_point_doc(p), "verdict": tradeoff.converse_check(scheme, p)} for p in points
        ],
    }
    if tags:
        doc["tag_plans"] = [
            {
                "L": p.plan.L,
                "groups": [[scheme.class_names[c] for c in g] for g in p.plan.groups],
                "max_group_dimension": p.plan.max_group_dimension,
                "residual_distortion": p.plan.residual_distortion,
                "exhaustive_max_group_dimension": p.plan.exhaustive_max_group_dimension,
            }
            for p in points
            if p.plan is not None
        ]
    return doc


def _tradeoff_csv(doc: dict) -> str:
    lines = ["L,W,D,strategy"]
    for point in doc["points"]:
        lines.append(f"{point['L']},{point['W']},{point['D']},{point['strategy']}")
    return "\n".join(lines) + "\n"


def _transcript_doc(scheme: Scheme, transcript) -> dict:
    queries = [
        q if isinstance(q, str) else scheme.attributes[q] for q in transcript.queries
    ]
    return {
        "queries": queries,
        "output": scheme.class_names[transcript.output],
        "query_count": transcript.query_count,
        "undecided": transcript.undecided,
    }


def _simulate_doc(scheme: Scheme, kind: str, tag_bits: int | None, class_name: str | None) -> dict:
    if kind == "nominal":
        strat = StrategyDescriptor.nominal_for(scheme)
    elif kind == "hybrid":
        strat = StrategyDescriptor.hybrid(tag_bits)
    else:
        strat = StrategyDescriptor(kind)
    if class_name is not None and class_name not in scheme.class_names:
        raise UsageError(f"unknown class {class_name!r}")
    indices = range(scheme.k) if class_name is None else [scheme.index_of(class_name)]
    if strat.kind == "adaptive":
        # ``trees`` memoises the adaptive tree, so one ``identify`` per class
        # builds it once; perfbench's traced table1 counters pin this path.
        found = [identify(scheme, strat, c) for c in indices]
    else:
        found = identify_all(scheme, strat, indices)
    transcripts = [
        {"class": scheme.class_names[c], **_transcript_doc(scheme, t)}
        for c, t in zip(indices, found)
    ]
    return {
        "strategy": {"kind": strat.kind, "tag_bits": strat.tag_bits},
        "transcripts": transcripts,
    }


def _noise_result_doc(result: noisy.NoiseResult, epsilon: float, delta: float, trials: int) -> dict:
    return {
        "epsilon": epsilon,
        "delta": delta,
        "trials": trials,
        "mean_queries": result.mean_queries,
        "empirical_error": result.empirical_error,
        "reference_bound": result.reference_bound,
        "tagged_queries": result.tagged_queries,
        "repetitions": result.repetitions,
        "tree_depth": result.tree_depth,
        "seed": result.seed,
        "rng": result.rng,
    }


def _noise_csv(rows) -> str:
    lines = ["epsilon,delta,mean_queries,empirical_error,reference_bound"]
    for row in rows:
        lines.append(
            f"{row['epsilon']},{row['delta']},{row['mean_queries']},"
            f"{row['empirical_error']},{row['reference_bound']}"
        )
    return "\n".join(lines) + "\n"


def _resolve_doc(scenario, obj, lazy, with_trace: bool, strict: bool) -> dict:
    trace: list = []
    result = resolver.resolve(scenario, trace=trace, strict=strict)
    doc: dict = {
        "result": None
        if result is None
        else {"value": result.value, "scope": result.scope, "sourceType": result.source_type},
        "value": result.value if result is not None else 0,
        "probes": len(trace),
    }
    if obj is not None:
        doc["getattribute"] = resolver.getattribute(scenario, obj, lazy)
    if with_trace:
        doc["trace"] = [
            {"scope": scope, "mro_type": mro_type, "normalized": norm}
            for scope, mro_type, norm in trace
        ]
    return doc


def _check_doc(scheme: Scheme, closure_limit: int) -> tuple[dict, int]:
    outcomes = checks.check_scheme(scheme, closure_limit=closure_limit)
    doc = {
        "ok": all(o.ok for o in outcomes),
        "checks": [
            {"name": o.name, "ok": o.ok, "skipped": o.skipped, "detail": o.detail}
            for o in outcomes
        ],
    }
    return doc, 0 if doc["ok"] else VIOLATION_EXIT


def scheme_digest(scheme: Scheme) -> str:
    return hashlib.sha256(serialize_scheme(scheme).encode("utf-8")).hexdigest()


def _report_doc(scheme: Scheme, args) -> dict:
    sections: dict = {"barrier": _analyze_doc(scheme)}
    try:
        sections["matroid"] = _bases_doc(scheme, args.max_n)
    except (BarrierError, LimitError) as exc:
        sections["matroid"] = {"skipped": str(exc)}
    sections["tradeoff"] = _tradeoff_doc(scheme, args.tags or ())
    if args.seed is not None:
        cfg = noisy.NoiseConfig(args.eps, args.delta, args.trials, args.seed)
        try:
            result = noisy.simulate_noisy_identification(scheme, cfg)
            sections["noise"] = _noise_result_doc(result, args.eps, args.delta, args.trials)
        except BarrierError as exc:
            sections["noise"] = {"skipped": str(exc)}
    if args.scenario is not None:
        with open(args.scenario, encoding="utf-8") as handle:
            scenario, obj, lazy = resolver.parse_scenario(handle.read())
        sections["resolver"] = _resolve_doc(scenario, obj, lazy, with_trace=False, strict=False)
    return {
        "scheme_digest": scheme_digest(scheme),
        "sections": sections,
        "tool_version": __version__,
        "seed": args.seed,
    }


def _render_pretty(doc, indent: str = "") -> str:
    lines = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_pretty(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {value}")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}-")
                lines.append(_render_pretty(value, indent + "  "))
            else:
                lines.append(f"{indent}- {value}")
    else:
        lines.append(f"{indent}{doc}")
    return "\n".join(line for line in lines if line)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discern",
        description="Analyze classification schemes: barriers, distinguishing sets, tradeoffs.",
    )
    parser.add_argument("--version", action="version", version=f"discern {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, scheme_arg: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        if scheme_arg:
            cmd.add_argument("scheme", help="path to a scheme JSON document")
        cmd.add_argument("-o", "--output", help="write the document here instead of stdout")
        cmd.add_argument("--pretty", action="store_true", help="human-readable rendering")
        return cmd

    add("analyze", "barrier, capacity, quotient, and information loss")

    cmd = add("dimension", "distinguishing dimension")
    cmd.add_argument("--exact-limit", type=int, default=matroid.EXACT_SUBSET_LIMIT)

    cmd = add("bases", "minimal distinguishing sets and axiom checks")
    cmd.add_argument("--max-n", type=int, default=matroid.EXACT_SUBSET_LIMIT)

    cmd = add("tradeoff", "achievable points, Pareto frontier, converse verdicts")
    cmd.add_argument("--tags", type=int, nargs="+", help="hybrid tag bit-widths to evaluate")
    cmd.add_argument("--csv", help="also write points as CSV to this path")

    cmd = add("simulate", "identification transcripts for one strategy")
    cmd.add_argument("--strategy", required=True, choices=["nominal", "exhaustive", "adaptive", "hybrid"])
    cmd.add_argument("--tags", type=int, help="tag bits for the hybrid strategy")
    cmd.add_argument("--class", dest="class_name", help="limit to one class by name")

    cmd = add("simulate-noise", "Monte-Carlo identification over a noisy channel")
    cmd.add_argument("--eps", type=float, nargs="+", required=True)
    cmd.add_argument("--delta", type=float, required=True)
    cmd.add_argument("--trials", type=int, required=True)
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--tagged", action="store_true", help="simulate the clean tag side channel")
    cmd.add_argument("--csv", help="also write results as CSV to this path")

    cmd = add("resolve", "run the dual-axis resolver on a scenario", scheme_arg=False)
    cmd.add_argument("scenario", help="path to a scenario JSON document")
    cmd.add_argument("--trace", action="store_true", help="include the probe log")
    cmd.add_argument("--strict", action="store_true", help="reject non-well-formed registries")

    cmd = add("check", "run the property suite against a scheme")
    cmd.add_argument("--closure-limit", type=int, default=checks.CLOSURE_CHECK_LIMIT)

    cmd = add("report", "full analysis report with scheme digest")
    cmd.add_argument("--seed", type=int, help="enables the noise section")
    cmd.add_argument("--tags", type=int, nargs="+")
    cmd.add_argument("--eps", type=float, default=0.1)
    cmd.add_argument("--delta", type=float, default=0.01)
    cmd.add_argument("--trials", type=int, default=1000)
    cmd.add_argument("--max-n", type=int, default=matroid.EXACT_SUBSET_LIMIT)
    cmd.add_argument("--scenario", help="enables the resolver section")
    return parser


def _dispatch(args) -> tuple[dict, int, str | None]:
    """Returns (document, exit code, optional csv text)."""
    if args.command == "resolve":
        with open(args.scenario, encoding="utf-8") as handle:
            scenario, obj, lazy = resolver.parse_scenario(handle.read())
        return _resolve_doc(scenario, obj, lazy, args.trace, args.strict), 0, None

    scheme = load_scheme(args.scheme)
    if args.command == "analyze":
        return _analyze_doc(scheme), 0, None
    if args.command == "dimension":
        return _dimension_doc(scheme, args.exact_limit), 0, None
    if args.command == "bases":
        return _bases_doc(scheme, args.max_n), 0, None
    if args.command == "tradeoff":
        doc = _tradeoff_doc(scheme, tuple(args.tags or ()))
        return doc, 0, _tradeoff_csv(doc) if args.csv else None
    if args.command == "simulate":
        if args.strategy == "hybrid" and args.tags is None:
            raise UsageError("--tags is required for the hybrid strategy")
        return _simulate_doc(scheme, args.strategy, args.tags, args.class_name), 0, None
    if args.command == "simulate-noise":
        rows = []
        for eps in args.eps:
            cfg = noisy.NoiseConfig(eps, args.delta, args.trials, args.seed)
            if args.tagged:
                result = noisy.simulate_tagged(scheme, cfg)
            else:
                result = noisy.simulate_noisy_identification(scheme, cfg)
            rows.append(_noise_result_doc(result, eps, args.delta, args.trials))
        return {"results": rows}, 0, _noise_csv(rows) if args.csv else None
    if args.command == "check":
        doc, code = _check_doc(scheme, args.closure_limit)
        return doc, code, None
    if args.command == "report":
        return _report_doc(scheme, args), 0, None
    raise AssertionError(f"unhandled command {args.command}")


def run(argv) -> int:
    """Execute one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_EXIT

    try:
        doc, code, csv_text = _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, ValidationError, BarrierError, ConfigError, EmptyInputError, OSError, ValueError) as exc:
        doc, code, csv_text = _error_doc(exc), DATA_EXIT, None
    except LimitError as exc:
        doc, code, csv_text = _error_doc(exc), LIMIT_EXIT, None

    # The CSV goes first, so an unwritable path stops the run before any
    # document is written; either failure leaves one error document on stdout.
    try:
        if csv_text is not None:
            _write(args.csv, csv_text)
        _emit(doc, args, args.output)
    except OSError as exc:
        _emit(_error_doc(exc), args, None)
        return DATA_EXIT
    return code


def _error_doc(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit(doc: dict, args, output: str | None):
    if args.pretty:
        text = _render_pretty(doc) + "\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if output:
        _write(output, text)
    else:
        sys.stdout.write(text)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
