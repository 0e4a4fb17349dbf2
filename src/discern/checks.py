"""Executable property suite: closure axioms, exchange, barrier factoring.

``check_closure`` builds the cl(X) table once per scheme and checks the
closure axioms and Steinitz exchange in one pass over it.  The axioms are
mathematically forced by the definition, so any failure there indicates a
defect and is reported with a counterexample.  Closure exchange, basis
exchange and equal cardinality are claims checked per instance; their
failures are findings, reported the same way but distinguishable by name.
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


def check_closure(scheme: Scheme, limit: int = CLOSURE_CHECK_LIMIT) -> list[CheckOutcome]:
    """Extensivity, monotonicity, idempotence and Steinitz exchange over
    every attribute subset, in one pass over one cl(X) table built through
    ``matroid.closure``.

    Monotonicity compares each X with X + {q} only: inclusion of subsets
    is generated by one-attribute extensions, so the verdict is that of
    every pair X within Y.  Exchange reports its first counterexample in
    (X, q', q) order.
    """
    names = ("closure-extensive", "closure-monotone", "closure-idempotent", "closure-exchange")
    extensive, monotone, idempotent, exchange = names
    n = scheme.n
    if n > limit:
        axiom_reason = f"closure axiom scan limited to n <= {limit}, scheme has n={n}"
        exchange_reason = f"exchange scan limited to n <= {limit}, scheme has n={n}"
        reasons = (axiom_reason, axiom_reason, axiom_reason, exchange_reason)
        return [
            CheckOutcome(name, ok=True, skipped=True, detail=reason)
            for name, reason in zip(names, reasons)
        ]
    cl = [matroid._to_mask(matroid.closure(scheme, matroid._to_set(x)), n) for x in range(1 << n)]
    found: dict[str, str] = {}  # name -> detail of its first failure

    def attrs(mask: int) -> list[int]:
        return sorted(matroid._to_set(mask))

    for x in range(1 << n):
        cx = cl[x]
        if x & ~cx and extensive not in found:
            found[extensive] = f"X={attrs(x)} not within cl(X)"
        if cl[cx] != cx and idempotent not in found:
            found[idempotent] = f"cl(cl(X)) != cl(X) for X={attrs(x)}"
        for q2 in range(n):
            y = x | 1 << q2
            if y == x:
                continue
            if cx & ~cl[y] and monotone not in found:
                found[monotone] = f"X={attrs(x)} subset of Y={attrs(y)} but cl(X) exceeds cl(Y)"
            gained = cl[y] & ~cx & ~(1 << q2)
            for q in range(n):
                if gained >> q & 1 and not cl[x | 1 << q] >> q2 & 1 and exchange not in found:
                    found[exchange] = (
                        f"q={q} in cl(X + {{{q2}}}) \\ cl(X) but q'={q2} not in "
                        f"cl(X + {{{q}}}) for X={attrs(x)}"
                    )
    return [CheckOutcome(name, ok=name not in found, detail=found.get(name)) for name in names]


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
    outcomes = check_closure(scheme, closure_limit)
    outcomes.extend(check_basis_family(scheme))
    outcomes.append(check_barrier_factoring(scheme))
    return outcomes
