"""Executable property suite: closure axioms, exchange, barrier factoring.

``check_closure`` reads cl(X) for every X from one table
(``matroid.closure_table``) and checks the closure axioms and Steinitz
exchange by at most n^2 + n + 2 NumPy passes over it.  The axioms are
mathematically forced by the definition, so any failure there indicates
a defect and is reported with a counterexample.  Closure exchange, basis
exchange and equal cardinality are claims checked per instance; their
failures are findings, reported the same way but distinguishable by name.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matroid
from .barrier import collisions
from .errors import BarrierError, LimitError
from .scheme import Scheme
from .strategies import TAG_FREE_KINDS, StrategyDescriptor, identify

CLOSURE_CHECK_LIMIT = 10


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    skipped: bool = False
    detail: str | None = None


def check_closure(scheme: Scheme, limit: int = CLOSURE_CHECK_LIMIT) -> list[CheckOutcome]:
    """Extensivity, monotonicity, idempotence and Steinitz exchange over
    every attribute subset, each by NumPy passes over the cl(X) table of
    ``matroid.closure_table``; each reports its first failure in X order.

    Monotonicity compares each X with X + {q'} only: inclusion of subsets
    is generated by one-attribute extensions, so the verdict is that of
    every pair X within Y; its first failure is the least (X, q').
    Exchange takes one pass per (q', q) and reports the least (X, q', q).
    Above ``limit``, or when the table cannot be built, all four are
    skipped with the reason.
    """
    names = ("closure-extensive", "closure-monotone", "closure-idempotent", "closure-exchange")
    n = scheme.n
    if n > limit:
        axiom_reason = f"closure axiom scan limited to n <= {limit}, scheme has n={n}"
        reasons = (axiom_reason,) * 3 + (f"exchange scan limited to n <= {limit}, scheme has n={n}",)
    else:
        try:
            cl = matroid.closure_table(scheme)
        except LimitError as exc:
            reasons = (str(exc),) * 4
        else:
            return [
                CheckOutcome(name, ok=detail is None, detail=detail)
                for name, detail in zip(names, _closure_failures(cl, n))
            ]
    return [
        CheckOutcome(name, ok=True, skipped=True, detail=reason)
        for name, reason in zip(names, reasons)
    ]


def _closure_failures(cl, n: int) -> tuple[str | None, ...]:
    """The detail of each property's first failure on the table, or None."""

    def first(bad) -> int | None:
        """The least X, in flat order, where ``bad`` is nonzero."""
        found = int((bad != 0).argmax())
        return found if bad.flat[found] else None

    def split(table, q: int):
        """``table`` split at bit q, and cl(X + {q}) for each X in that shape."""
        return table.reshape(-1, 2, 1 << q), cl.reshape(-1, 2, 1 << q)[:, 1:, :]

    def attrs(mask: int) -> list[int]:
        return sorted(matroid._to_set(mask))

    extensive, monotone, idempotent, exchange = None, None, None, None
    if (found := first(np.arange(1 << n, dtype=cl.dtype) & ~cl)) is not None:
        extensive = f"X={attrs(found)} not within cl(X)"
    if (found := first(cl[cl] != cl)) is not None:
        idempotent = f"cl(cl(X)) != cl(X) for X={attrs(found)}"
    least_monotone = least_exchange = 1 << n  # X of the failure kept so far
    for q2 in range(n):
        here, up = split(cl, q2)  # up equals cl where q' is in X, so no failure there
        found = first(here & ~up)
        if found is not None and found < least_monotone:
            least_monotone = found
            monotone = f"X={attrs(found)} subset of Y={attrs(found | 1 << q2)} but cl(X) exceeds cl(Y)"
        gained = up & ~here
        # q = q' cannot fail: gaining q' puts it in cl(X + {q'}), where it would be missing.
        ever_gained = int(np.bitwise_or.reduce(gained, axis=None))
        for q in range(n):
            if not ever_gained >> q & 1:
                continue
            gained_q, up_q = split(gained, q)
            found = first(gained_q >> q & ~up_q >> q2 & 1)
            if found is not None and found < least_exchange:
                least_exchange = found
                exchange = (
                    f"q={q} in cl(X + {{{q2}}}) \\ cl(X) but q'={q2} not in "
                    f"cl(X + {{{q}}}) for X={attrs(found)}"
                )
    return extensive, monotone, idempotent, exchange


def check_basis_family(scheme: Scheme) -> list[CheckOutcome]:
    """Equal-cardinality and basis-exchange over the enumerated bases, each
    failure with its own counterexample."""
    try:
        report = matroid.enumerate_minimal_distinguishing(scheme)
    except (BarrierError, LimitError) as exc:
        reason = (
            "scheme has colliding profiles; no distinguishing sets"
            if isinstance(exc, BarrierError)
            else str(exc)
        )
        return [
            CheckOutcome(name, ok=True, skipped=True, detail=reason)
            for name in ("bases-equal-cardinality", "bases-exchange")
        ]
    return [
        CheckOutcome(
            "bases-equal-cardinality",
            ok=report.equal_cardinality_ok,
            detail=None if report.equal_cardinality_ok else report.counterexample,
        ),
        CheckOutcome("bases-exchange", ok=report.exchange_ok, detail=report.exchange_counterexample),
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
        for kind in TAG_FREE_KINDS:
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
