"""Command-line surface: analysis, simulation, property checks, reports.

JSON on stdout is the machine interface; its bytes are those of
``json.dumps(doc, indent=2)`` plus a newline.  ``--pretty`` renders tables
for humans.  Exit codes: 0 success, 1 usage, 2 parse/validation error,
3 size limit exceeded (memory exhausted included), 4 property violation
found by ``check``.

Every command is one entry of ``COMMANDS``: its help, its options and
the function that builds its document from the scheme and the parsed
arguments.  ``run`` parses argv, loads the scheme when the entry reads
one, and calls the builder; ``report`` calls the other commands'
builders, so each section equals that command's document.  A run whose
first argument names a command builds that command's parser alone, since
one process runs one command; help, version and usage errors print the
same bytes as from the parser of every command, which any other argv gets.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

# Every other module is imported by the builder or option function that
# uses it, so a command loads only what it runs.
from . import __version__
from . import trees  # eager while it has lru_caches: perfbench clears those of the modules loaded at its start
from .errors import (
    BarrierError,
    ConfigError,
    EmptyInputError,
    LimitError,
    ParseError,
    ValidationError,
    encode_json,
)
from .scheme import Scheme, load_scheme, serialize_scheme

USAGE_EXIT = 1
DATA_EXIT = 2
LIMIT_EXIT = 3
VIOLATION_EXIT = 4


class UsageError(Exception):
    """Argument combinations argparse cannot express (exit code 1)."""


def _analyze_doc(scheme: Scheme, args) -> dict:
    from . import barrier

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


def _dimension_doc(scheme: Scheme, args) -> dict:
    from . import matroid

    result = matroid.distinguishing_dimension(scheme, exact_limit=args.exact_limit)
    return {"dimension": result.dimension, "exact": result.exact}


def _bases_doc(scheme: Scheme, args) -> dict:
    from . import matroid

    report = matroid.enumerate_minimal_distinguishing(scheme, max_n=args.max_n)
    names = scheme.attributes
    return {
        "bases": [[names[q] for q in sorted(base)] for base in report.bases],
        "dimension": report.dimension,
        "exchange_ok": report.exchange_ok,
        "equal_cardinality_ok": report.equal_cardinality_ok,
        "counterexample": report.counterexample,
    }


def _point_doc(point) -> dict:
    return {"L": point.L, "W": point.W, "D": point.D, "strategy": point.source.kind}


def _tradeoff_doc(scheme: Scheme, args) -> dict:
    from . import tradeoff

    tags = args.tags or ()
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
        # vars() keeps the fields in order without copying each group, as asdict() would.
        doc["tag_plans"] = [
            {**vars(p.plan), "groups": [[scheme.class_names[c] for c in g] for g in p.plan.groups]}
            for p in points
            if p.plan is not None
        ]
    return doc


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


def _simulate_doc(scheme: Scheme, args) -> dict:
    from .strategies import StrategyDescriptor, identify, identify_all, tag_bits_for

    kind, tag_bits, class_name = args.strategy, args.tags, args.class_name
    if tag_bits is None:
        if kind == "hybrid":
            raise UsageError("--tags is required for the hybrid strategy")
        tag_bits = tag_bits_for(scheme.k) if kind == "nominal" else 0
    strat = StrategyDescriptor(kind, tag_bits)
    try:
        indices = range(scheme.k) if class_name is None else [scheme.index_of(class_name)]
    except KeyError:
        raise UsageError(f"unknown class {class_name!r}") from None
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
        "strategy": dataclasses.asdict(strat),
        "transcripts": transcripts,
    }


def _noise_row(scheme: Scheme, epsilon: float, args, tagged: bool = False) -> dict:
    from . import noisy

    simulate = noisy.simulate_tagged if tagged else noisy.simulate_noisy_identification
    result = simulate(scheme, noisy.NoiseConfig(epsilon, args.delta, args.trials, args.seed))
    return {"epsilon": epsilon, "delta": args.delta, "trials": args.trials, **dataclasses.asdict(result)}


def _simulate_noise_doc(scheme: Scheme, args) -> dict:
    return {"results": [_noise_row(scheme, eps, args, args.tagged) for eps in args.eps]}


def _csv(rows, fields) -> str:
    """A header line of ``fields``, then one line of those values per row."""
    lines = [",".join(fields)]
    lines += (",".join(str(row[f]) for f in fields) for row in rows)
    return "\n".join(lines) + "\n"


def _resolve_doc(path: str, with_trace: bool, strict: bool) -> dict:
    from . import resolver

    with open(path, encoding="utf-8") as handle:
        scenario, obj, lazy = resolver.parse_scenario(handle.read())
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
        doc["getattribute"] = resolver.getattribute(scenario, obj, lazy, resolved=doc["value"])
    if with_trace:
        doc["trace"] = [
            {"scope": scope, "mro_type": mro_type, "normalized": norm}
            for scope, mro_type, norm in trace
        ]
    return doc


def _check_doc(scheme: Scheme, args) -> dict:
    from . import checks

    outcomes = checks.check_scheme(scheme, closure_limit=args.closure_limit)
    return {
        "ok": all(o.ok for o in outcomes),
        "checks": [dataclasses.asdict(o) for o in outcomes],
    }


def scheme_digest(scheme: Scheme) -> str:
    import hashlib
    return hashlib.sha256(serialize_scheme(scheme).encode("utf-8")).hexdigest()


def _report_doc(scheme: Scheme, args) -> dict:
    sections: dict = {"barrier": _analyze_doc(scheme, args)}
    try:
        sections["matroid"] = _bases_doc(scheme, args)
    except (BarrierError, LimitError) as exc:
        sections["matroid"] = {"skipped": str(exc)}
    sections["tradeoff"] = _tradeoff_doc(scheme, args)
    if args.seed is not None:
        try:
            sections["noise"] = _noise_row(scheme, args.eps, args)
        except BarrierError as exc:
            sections["noise"] = {"skipped": str(exc)}
    if args.scenario is not None:
        sections["resolver"] = _resolve_doc(args.scenario, with_trace=False, strict=False)
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
    else:  # a list: every document is a dict, and only dicts and lists recurse
        for value in doc:
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}-")
                lines.append(_render_pretty(value, indent + "  "))
            else:
                lines.append(f"{indent}- {value}")
    return "\n".join(line for line in lines if line)


def _dimension_options(cmd):
    from . import matroid

    cmd.add_argument("--exact-limit", type=int, default=matroid.EXACT_SUBSET_LIMIT)


def _bases_options(cmd):
    from . import matroid

    cmd.add_argument("--max-n", type=int, default=matroid.EXACT_SUBSET_LIMIT)


def _csv_option(cmd, rows: str, fields: tuple):
    """``--csv``, which writes the document's ``rows`` list as ``fields``."""
    cmd.add_argument("--csv", help=f"also write {rows} as CSV to this path")
    cmd.set_defaults(csv_rows=rows, csv_fields=fields)


def _tradeoff_options(cmd):
    cmd.add_argument("--tags", type=int, nargs="+", help="hybrid tag bit-widths to evaluate")
    _csv_option(cmd, "points", ("L", "W", "D", "strategy"))


def _simulate_options(cmd):
    from .strategies import KINDS

    cmd.add_argument("--strategy", required=True, choices=KINDS)
    cmd.add_argument("--tags", type=int, help="tag bits: the hybrid width; nominal needs ceil(log2 k)")
    cmd.add_argument("--class", dest="class_name", help="limit to one class by name")


def _simulate_noise_options(cmd):
    cmd.add_argument("--eps", type=float, nargs="+", required=True)
    cmd.add_argument("--delta", type=float, required=True)
    cmd.add_argument("--trials", type=int, required=True)
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--tagged", action="store_true", help="simulate the clean tag side channel")
    _csv_option(cmd, "results", ("epsilon", "delta", "mean_queries", "empirical_error", "reference_bound"))


def _resolve_options(cmd):
    cmd.add_argument("scenario", help="path to a scenario JSON document")
    cmd.add_argument("--trace", action="store_true", help="include the probe log")
    cmd.add_argument("--strict", action="store_true", help="reject non-well-formed registries")


def _check_options(cmd):
    from . import checks

    cmd.add_argument("--closure-limit", type=int, default=checks.CLOSURE_CHECK_LIMIT)


def _report_options(cmd):
    from . import matroid

    cmd.add_argument("--seed", type=int, help="enables the noise section")
    cmd.add_argument("--tags", type=int, nargs="+")
    cmd.add_argument("--eps", type=float, default=0.1)
    cmd.add_argument("--delta", type=float, default=0.01)
    cmd.add_argument("--trials", type=int, default=1000)
    cmd.add_argument("--max-n", type=int, default=matroid.EXACT_SUBSET_LIMIT)
    cmd.add_argument("--scenario", help="enables the resolver section")


# Every command, in help order: its help text, whether it reads a scheme
# document, the function that adds its own options, and the function that
# builds its document from (scheme or None, parsed arguments).
COMMANDS = {
    "analyze": ("barrier, capacity, quotient, and information loss", True, lambda cmd: None, _analyze_doc),
    "dimension": ("distinguishing dimension", True, _dimension_options, _dimension_doc),
    "bases": ("minimal distinguishing sets and axiom checks", True, _bases_options, _bases_doc),
    "tradeoff": ("achievable points, Pareto frontier, converse verdicts", True, _tradeoff_options, _tradeoff_doc),
    "simulate": ("identification transcripts for one strategy", True, _simulate_options, _simulate_doc),
    "simulate-noise": (
        "Monte-Carlo identification over a noisy channel",
        True,
        _simulate_noise_options,
        _simulate_noise_doc,
    ),
    "resolve": (
        "run the dual-axis resolver on a scenario",
        False,
        _resolve_options,
        lambda scheme, args: _resolve_doc(args.scenario, args.trace, args.strict),
    ),
    "check": ("run the property suite against a scheme", True, _check_options, _check_doc),
    "report": ("full analysis report with scheme digest", True, _report_options, _report_doc),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.

    The one-command parser spells the command list out as the metavar, so
    its usage line matches the full parser's.  The full parser keeps the
    default metavar, which names the positional "command" in its errors.
    """
    parser = argparse.ArgumentParser(
        prog="discern",
        description="Analyze classification schemes: barriers, distinguishing sets, tradeoffs.",
    )
    parser.add_argument("--version", action="version", version=f"discern {__version__}")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = list(COMMANDS)
    else:
        metavar = "{" + ",".join(COMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        names = [command]
    for name in names:
        help_text, scheme_arg, add_options, _ = COMMANDS[name]
        cmd = sub.add_parser(name, help=help_text)
        if scheme_arg:
            cmd.add_argument("scheme", help="path to a scheme JSON document")
        cmd.add_argument("-o", "--output", help="write the document here instead of stdout")
        cmd.add_argument("--pretty", action="store_true", help="human-readable rendering")
        add_options(cmd)
    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the exit code.

    A run that names a command first builds that command's parser alone;
    any other argv (help, version, none, an unknown command) gets them all.
    """
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_EXIT

    _, scheme_arg, _, build = COMMANDS[args.command]
    try:
        doc = build(load_scheme(args.scheme) if scheme_arg else None, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, ValidationError, BarrierError, ConfigError, EmptyInputError, OSError, ValueError) as exc:
        doc, code, csv_text = _error_doc(exc), DATA_EXIT, None
    except LimitError as exc:
        doc, code, csv_text = _error_doc(exc), LIMIT_EXIT, None
    except MemoryError:  # an allocation that fails is a size limit too, never a traceback
        doc, code, csv_text = _error_doc(LimitError("ran out of memory building the document")), LIMIT_EXIT, None
    else:
        code = VIOLATION_EXIT if doc.get("ok") is False else 0
        csv_text = _csv(doc[args.csv_rows], args.csv_fields) if getattr(args, "csv", None) else None

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


def _write(path: str, *texts: str):
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(texts)


def _emit(doc: dict, args, output: str | None):
    # The newline is written on its own, not appended to a copy of the text.
    text = _render_pretty(doc) if args.pretty else encode_json(doc)
    if output:
        _write(output, text, "\n")
    else:
        sys.stdout.writelines((text, "\n"))


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
