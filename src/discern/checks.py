"""Executable property suite: closure axioms, basis exchange, barrier factoring.

The closure axioms are mathematically forced by the definition, so any
failure here indicates a defect and is reported with a counterexample.
Basis exchange and equal cardinality are claims checked per instance;
their failures are findings, reported the same way but distinguishable
by name.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import matroid
from .barrier import collisions
from .errors import BarrierError, LimitError
from .scheme import Scheme
from .strategies import StrategyDescriptor, identify

CLOSURE_CHECK_LIMIT = 10


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    skipped: bool = False
    detail: str | None = None


def _closures(scheme: Scheme) -> list[int]:
    """cl(X) as a mask for every attribute subset X, through ``matroid.closure``."""
    return [
        matroid._to_mask(matroid.closure(scheme, matroid._to_set(x)), scheme.n)
        for x in range(1 << scheme.n)
    ]


def check_closure_axioms(
    scheme: Scheme, limit: int = CLOSURE_CHECK_LIMIT, closures: list[int] | None = None
) -> list[CheckOutcome]:
    """Extensivity, monotonicity, idempotence over every attribute subset.

    ``closures`` is the scheme's ``_closures`` table when the caller has
    already built it; otherwise it is built here.
    """
    if scheme.n > limit:
        reason = f"closure axiom scan limited to n <= {limit}, scheme has n={scheme.n}"
        return [
            CheckOutcome(name, ok=True, skipped=True, detail=reason)
            for name in ("closure-extensive", "closure-monotone", "closure-idempotent")
        ]
    masks = _closures(scheme) if closures is None else closures
    outcomes = []

    bad = next((x for x in range(1 << scheme.n) if x & ~masks[x]), None)
    outcomes.append(
        CheckOutcome(
            "closure-extensive",
            ok=bad is None,
            detail=None if bad is None else f"X={sorted(matroid._to_set(bad))} not within cl(X)",
        )
    )

    bad_pair = None
    for y in range(1 << scheme.n):
        x = y
        while True:
            if masks[x] & ~masks[y]:
                bad_pair = (x, y)
                break
            if x == 0:
                break
            x = (x - 1) & y
        if bad_pair:
            break
    outcomes.append(
        CheckOutcome(
            "closure-monotone",
            ok=bad_pair is None,
            detail=None
            if bad_pair is None
            else f"X={sorted(matroid._to_set(bad_pair[0]))} subset of "
            f"Y={sorted(matroid._to_set(bad_pair[1]))} but cl(X) exceeds cl(Y)",
        )
    )

    bad = next((x for x in range(1 << scheme.n) if masks[masks[x]] != masks[x]), None)
    outcomes.append(
        CheckOutcome(
            "closure-idempotent",
            ok=bad is None,
            detail=None if bad is None else f"cl(cl(X)) != cl(X) for X={sorted(matroid._to_set(bad))}",
        )
    )
    return outcomes


def check_closure_exchange(
    scheme: Scheme, limit: int = CLOSURE_CHECK_LIMIT, closures: list[int] | None = None
) -> CheckOutcome:
    """Steinitz exchange over the closure operator, exhaustive over subsets.

    This is the instance-level verification of the matroid claim; a failure
    is a reportable finding about the scheme, not an implementation bug.
    ``closures`` is as in ``check_closure_axioms``.
    """
    if scheme.n > limit:
        return CheckOutcome(
            "closure-exchange",
            ok=True,
            skipped=True,
            detail=f"exchange scan limited to n <= {limit}, scheme has n={scheme.n}",
        )
    table = _closures(scheme) if closures is None else closures
    for x in range(1 << scheme.n):
        cx = table[x]
        for q2 in range(scheme.n):
            gained = table[x | (1 << q2)] & ~cx
            for q in range(scheme.n):
                if q == q2 or not gained >> q & 1:
                    continue
                if not table[x | (1 << q)] >> q2 & 1:
                    return CheckOutcome(
                        "closure-exchange",
                        ok=False,
                        detail=(
                            f"q={q} in cl(X + {{{q2}}}) \\ cl(X) but q'={q2} not in "
                            f"cl(X + {{{q}}}) for X={sorted(matroid._to_set(x))}"
                        ),
                    )
    return CheckOutcome("closure-exchange", ok=True)


def check_basis_family(scheme: Scheme, max_n: int = matroid.EXACT_SUBSET_LIMIT) -> list[CheckOutcome]:
    """Equal-cardinality and basis-exchange over the enumerated bases."""
    try:
        report = matroid.enumerate_minimal_distinguishing(scheme, max_n=max_n)
    except BarrierError:
        reason = "scheme has colliding profiles; no distinguishing sets"
        return [
            CheckOutcome(name, ok=True, skipped=True, detail=reason)
            for name in ("bases-equal-cardinality", "bases-exchange")
        ]
    except LimitError as exc:
        return [
            CheckOutcome(name, ok=True, skipped=True, detail=str(exc))
            for name in ("bases-equal-cardinality", "bases-exchange")
        ]
    return [
        CheckOutcome(
            "bases-equal-cardinality",
            ok=report.equal_cardinality_ok,
            detail=None if report.equal_cardinality_ok else report.counterexample,
        ),
        CheckOutcome(
            "bases-exchange",
            ok=report.exchange_ok,
            detail=None if report.exchange_ok else report.counterexample,
        ),
    ]


def check_barrier_factoring(scheme: Scheme) -> CheckOutcome:
    """Colliding classes must be indistinguishable to tag-free observers:
    identical query sequences and identical outputs."""
    report = collisions(scheme)
    if report.injective:
        return CheckOutcome(
            "barrier-factoring", ok=True, skipped=True, detail="no collisions to factor"
        )
    for group in report.groups:
        for kind in ("exhaustive", "adaptive"):
            strat = StrategyDescriptor(kind)
            reference = identify(scheme, strat, group[0])
            for c in group[1:]:
                transcript = identify(scheme, strat, c)
                if (
                    transcript.queries != reference.queries
                    or transcript.output != reference.output
                ):
                    return CheckOutcome(
                        "barrier-factoring",
                        ok=False,
                        detail=(
                            f"{kind} transcripts differ for colliding classes "
                            f"{scheme.classes[group[0]].name} and {scheme.classes[c].name}"
                        ),
                    )
    return CheckOutcome("barrier-factoring", ok=True)


def check_scheme(scheme: Scheme, closure_limit: int = CLOSURE_CHECK_LIMIT) -> list[CheckOutcome]:
    """Full property run used by the ``check`` CLI command."""
    closures = _closures(scheme) if scheme.n <= closure_limit else None
    outcomes = check_closure_axioms(scheme, closure_limit, closures)
    outcomes.append(check_closure_exchange(scheme, closure_limit, closures))
    outcomes.extend(check_basis_family(scheme))
    outcomes.append(check_barrier_factoring(scheme))
    return outcomes
