"""Observer strategies and their witness costs.

Four observer kinds: ``nominal`` reads a class tag in one query;
``exhaustive`` queries every attribute; ``adaptive`` walks a decision
tree; ``hybrid`` reads an L-bit group tag and then resolves within the
group adaptively.  Tag-free observers see only the attribute profile, so
colliding classes produce identical transcripts by construction.  The
hybrid tag plan (``tag_partition``, ``hybrid_tag_plan``) is built here.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import matroid
from .scheme import Scheme
from .trees import adaptive_tree, walk

TAG_READ = "TAG_READ"

KINDS = ("nominal", "exhaustive", "adaptive", "hybrid")
TAG_FREE_KINDS = ("exhaustive", "adaptive")

EXHAUSTIVE_PARTITION_CLASS_LIMIT = 10
EXHAUSTIVE_PARTITION_BLOCK_LIMIT = 4


def tag_bits_for(k: int) -> int:
    """ceil(log2 k): bits needed to name k classes."""
    return (k - 1).bit_length()


@dataclass(frozen=True)
class StrategyDescriptor:
    kind: str
    tag_bits: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.tag_bits < 0:
            raise ValueError("tag_bits must be >= 0")
        if self.kind in TAG_FREE_KINDS and self.tag_bits != 0:
            raise ValueError(f"{self.kind} strategy is tag-free")

    @classmethod
    def nominal_for(cls, scheme: Scheme) -> "StrategyDescriptor":
        return cls("nominal", tag_bits_for(scheme.k))

    @classmethod
    def exhaustive(cls) -> "StrategyDescriptor":
        return cls("exhaustive")

    @classmethod
    def adaptive(cls) -> "StrategyDescriptor":
        return cls("adaptive")

    @classmethod
    def hybrid(cls, tag_bits: int) -> "StrategyDescriptor":
        return cls("hybrid", tag_bits)


@dataclass(frozen=True)
class Transcript:
    """Query sequence and decoded class for one identification run.

    ``undecided`` marks an ambiguous decode that was resolved to the
    lexicographically least candidate.
    """

    queries: tuple
    output: int
    undecided: bool = False

    @property
    def query_count(self) -> int:
        return len(self.queries)


def _profile_units(scheme: Scheme) -> list[tuple[int, ...]]:
    """Profile-quotient blocks ordered by profile bits (distinct per block).

    A row's bytes sort as its tuple of 0/1 answers would."""
    return sorted(scheme.quotient, key=lambda b: scheme.row(b[0]))


def _group_dimension(scheme: Scheme, units, dim_cache: dict) -> int:
    """``block_dimension`` of the classes in ``units``, computed once per
    ``dim_cache``.  A group of at most one class needs no query."""
    members = frozenset(c for unit in units for c in unit)
    if len(members) <= 1:
        return 0
    if members not in dim_cache:
        dim_cache[members] = matroid.block_dimension(scheme, members)
    return dim_cache[members]


def _trial_moves(groups: list[list[tuple[int, ...]]]):
    """Trial moves ``(src, unit, dst)`` in search order.  The units of
    ``src`` are read when the search reaches ``src``."""
    for src in range(len(groups)):
        for unit in list(groups[src]):
            for dst in range(len(groups)):
                if dst != src:
                    yield src, unit, dst


def tag_partition(
    scheme: Scheme, tag_bits: int, dim_cache: dict | None = None
) -> tuple[tuple[int, ...], ...]:
    """Deterministic partition of classes into at most 2**tag_bits groups.

    With enough bits to name every class the groups are singletons.  With
    fewer, colliding classes form one unit (splitting them would fake a
    zero-distortion point below the converse bound).  The units, sorted by
    profile, fill min(2**tag_bits, units) groups in order: a group closes
    once the classes placed so far reach its cumulative share of k, or
    when one unit is left per later group.  A move-based local search then
    balances the per-group distinguishing dimension.  It keeps the block
    dimension of every member set of two or more classes it evaluates in
    ``dim_cache`` (a fresh dict if none is given), the final groups' too.

    A trial move of one unit from ``src`` to ``dst`` is accepted iff every
    group then sits below the objective (the largest group dimension
    before the move).  The objective is an integer in [0, n] and every
    accepted move lowers it by at least 1, so the search accepts at most
    n moves.  Three rules skip evaluations on the way to each verdict:
    the move is rejected without evaluating anything when a group other
    than ``src`` and ``dst`` already sits at the objective; the shrunken
    ``src`` is evaluated before the grown ``dst``; and ``dst`` is rejected
    unevaluated when ceil(log2 D) of its D distinct profiles (one per unit)
    reaches the objective, since no mask of fewer bits separates D
    profiles, exact or greedy.  Each rule only skips evaluations whose
    result could not make the move win, so every decision, and the
    partition, is the one a full evaluation of all groups would give.
    A rejected move still puts the unit back at the end of ``src``.  No
    group is emptied: a one-unit group has dimension 0, so its unit leaves
    only for a ``dst`` that is the sole group at the objective and falls
    below it by growing.  An exact dimension (n <= 16) never falls by
    growing; a greedy one could, and a seeded-corpus test guards that.
    """
    if tag_bits < 0:
        raise ValueError("tag bits must be >= 0")
    k = scheme.k
    if tag_bits >= tag_bits_for(k):
        return tuple((c,) for c in range(k))
    units = _profile_units(scheme)
    block_count = min(1 << tag_bits, len(units))

    groups: list[list[tuple[int, ...]]] = [[] for _ in range(block_count)]
    filled = placed = 0
    for i, unit in enumerate(units, 1):
        groups[filled].append(unit)
        placed += len(unit)
        later = block_count - 1 - filled
        if later and (placed >= (filled + 1) * k // block_count or len(units) - i == later):
            filled += 1

    if dim_cache is None:
        dim_cache = {}

    def accept(move) -> bool:
        """Apply ``move`` and keep it iff every group then sits below this
        pass's objective."""
        src, unit, dst = move
        groups[src].remove(unit)
        groups[dst].append(unit)
        if (
            at_objective == (dims[src] == objective) + (dims[dst] == objective)
            and _group_dimension(scheme, groups[src], dim_cache) < objective
            and (len(groups[dst]) - 1).bit_length() < objective
            and _group_dimension(scheme, groups[dst], dim_cache) < objective
        ):
            return True
        groups[dst].remove(unit)
        groups[src].append(unit)
        return False

    while True:
        dims = [_group_dimension(scheme, g, dim_cache) for g in groups]
        objective = max(dims)
        at_objective = dims.count(objective)
        if not any(accept(move) for move in _trial_moves(groups)):
            break

    final = [sorted(c for unit in g for c in unit) for g in groups if g]
    return tuple(tuple(g) for g in sorted(final, key=lambda g: g[0]))


@dataclass(frozen=True)
class TagPlan:
    """Partition of the classes induced by an L-bit tag.

    ``groups`` is the greedy plan actually used by the hybrid strategy;
    when the instance is small enough an exhaustive partition search also
    runs and its best value is reported alongside for comparison.
    """

    L: int
    groups: tuple[tuple[int, ...], ...]
    max_group_dimension: int
    residual_distortion: float
    exhaustive_max_group_dimension: int | None = None


def _unit_partitions(units: list[tuple[int, ...]], block_limit: int):
    """Every partition of ``units`` into at most ``block_limit`` groups, once each."""
    if not units:
        yield []
        return
    first = units[0]
    for groups in _unit_partitions(units[1:], block_limit):
        for i in range(len(groups)):
            yield [*groups[:i], [first, *groups[i]], *groups[i + 1:]]
        if len(groups) < block_limit:
            yield [[first], *groups]


def hybrid_tag_plan(scheme: Scheme, L: int) -> TagPlan:
    """Greedy dimension-balanced partition for an L-bit tag.

    Classes sharing a profile are never split across groups, so any
    residual collision keeps its group's distortion positive.  For small
    instances (k <= 10, 2**L <= 4) an exhaustive partition search runs as
    a reference and both values are reported.  Both searches and the
    plan's own dimension share one block-dimension cache.
    """
    dim_cache: dict[frozenset, int] = {}
    groups = tag_partition(scheme, L, dim_cache=dim_cache)
    plan_dim = max(_group_dimension(scheme, [g], dim_cache) for g in groups)
    exhaustive_dim = None
    if (
        L < tag_bits_for(scheme.k)
        and scheme.k <= EXHAUSTIVE_PARTITION_CLASS_LIMIT
        and (1 << L) <= EXHAUSTIVE_PARTITION_BLOCK_LIMIT
    ):
        exhaustive_dim = min(
            max(_group_dimension(scheme, g, dim_cache) for g in partition)
            for partition in _unit_partitions(_profile_units(scheme), 1 << L)
        )
    return TagPlan(
        groups=groups,
        L=L,
        max_group_dimension=plan_dim,
        residual_distortion=decode_distortion(scheme, groups),
        exhaustive_max_group_dimension=exhaustive_dim,
    )


def _walk_transcript(scheme: Scheme, tree, c: int, prefix: tuple = ()) -> Transcript:
    """Transcript of class ``c`` walking ``tree`` after the ``prefix`` queries."""
    queried, candidates = walk(tree, scheme.row(c))
    return Transcript((*prefix, *queried), candidates[0], len(candidates) > 1)


def identify_all(scheme: Scheme, strat: StrategyDescriptor, class_indices) -> list[Transcript]:
    """Identify each class in ``class_indices``, in order, and record transcripts.

    The plan is computed once per call and shared by every class: the
    adaptive tree of the scheme for ``adaptive``; for ``hybrid`` the
    ``tag_partition`` groups plus one adaptive tree per non-singleton
    group that a requested class falls in; for ``exhaustive`` the
    scheme's profile quotient, decoding each class to its block's least
    member.
    """
    class_indices = [scheme.check_class(c) for c in class_indices]

    if strat.kind == "nominal":
        if strat.tag_bits != tag_bits_for(scheme.k):
            raise ValueError(
                f"nominal tag_bits must be ceil(log2 k) = {tag_bits_for(scheme.k)}"
            )
        return [Transcript((TAG_READ,), c) for c in class_indices]

    if strat.kind == "exhaustive":
        block_of = {c: block for block in scheme.quotient for c in block}
        return [
            Transcript(tuple(range(scheme.n)), block_of[c][0], len(block_of[c]) > 1)
            for c in class_indices
        ]

    if strat.kind == "adaptive":
        tree = adaptive_tree(scheme)
        return [_walk_transcript(scheme, tree, c) for c in class_indices]

    # hybrid: one tag read for the group id, then adaptive within the group
    group_of = {c: g for g in tag_partition(scheme, strat.tag_bits) for c in g}
    group_trees = {
        group: adaptive_tree(scheme, group)
        for group in {group_of[c] for c in class_indices if len(group_of[c]) > 1}
    }
    return [
        _walk_transcript(scheme, group_trees[group_of[c]], c, (TAG_READ,))
        if len(group_of[c]) > 1
        else Transcript((TAG_READ,), c)
        for c in class_indices
    ]


def identify(scheme: Scheme, strat: StrategyDescriptor, class_index: int) -> Transcript:
    """Run one identification of ``class_index``: ``identify_all`` on one class."""
    return identify_all(scheme, strat, [class_index])[0]


def witness_id_cost(scheme: Scheme, strat: StrategyDescriptor) -> int:
    """Worst-case query count to identify a single entity's class.

    Every class walks one shared plan (see ``identify_all``), so for the
    tree strategies this is the depth of the tree, or one tag read plus
    the deepest group tree.
    """
    return max(t.query_count for t in identify_all(scheme, strat, range(scheme.k)))


def witness_eq_cost(scheme: Scheme, strat: StrategyDescriptor) -> tuple[int, int]:
    """(lower, upper) bounds on pairwise type-identity cost.

    Tag readers compare two tags: (2, 2).  Tag-free observers are bounded
    below by the distinguishing dimension and above by running a full
    identification on both sides; no exact pair protocol is fixed, so an
    interval is reported rather than a single number.
    """
    if scheme.k == 1:
        return (0, 0)
    if strat.kind == "nominal":
        return (2, 2)
    if strat.kind == "hybrid":
        if strat.tag_bits >= tag_bits_for(scheme.k):
            return (2, 2)
        return (2, 2 * witness_id_cost(scheme, strat))
    d = matroid.distinguishing_dimension(scheme).dimension
    return (d, 2 * witness_id_cost(scheme, strat))


def decode_distortion(scheme: Scheme, groups=None) -> float:
    """Misclassification probability of the best decoder that sees the
    profile and, given ``groups`` (a tag partition), the group tag.

    The optimal decoder maps each cell (the classes sharing a group and a
    profile; without ``groups``, a profile-quotient block) to its heaviest
    class, ties to the least index, which does not change the value.
    Summing each cell's residual mass rather than subtracting from 1 keeps
    the value exactly 0.0 on injective cells.
    """
    # Groups its own cells: a tag group cuts quotient blocks, and summing
    # cells in each group's own order is the float order pinned outputs hold.
    residual = 0.0
    for group in (range(scheme.k),) if groups is None else groups:
        cells: dict[int, list[float]] = {}
        for c in group:
            cells.setdefault(scheme.profile_ints[c], []).append(scheme.masses[c])
        for masses in cells.values():
            residual += sum(masses) - max(masses)
    return residual
