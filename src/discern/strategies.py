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
from .barrier import quotient
from .scheme import Scheme
from .trees import adaptive_tree, walk

TAG_READ = "TAG_READ"

KINDS = ("nominal", "exhaustive", "adaptive", "hybrid")
TAG_FREE_KINDS = ("exhaustive", "adaptive")

MAX_PARTITION_MOVES = 1000
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
    query_count: int
    undecided: bool = False

    def __post_init__(self):
        if self.query_count != len(self.queries):
            raise ValueError("query_count must equal len(queries)")


def _profile_units(scheme: Scheme) -> list[tuple[int, ...]]:
    """Profile-quotient blocks ordered by profile bits (ties by index)."""
    blocks = quotient(scheme)
    return sorted(blocks, key=lambda b: (scheme.classes[b[0]].profile.bits, b[0]))


def _group_dimension(scheme: Scheme, members: frozenset, dim_cache: dict) -> int:
    """``block_dimension`` of ``members``, computed once per ``dim_cache``."""
    if members not in dim_cache:
        dim_cache[members] = matroid.block_dimension(scheme, members) if members else 0
    return dim_cache[members]


def tag_partition(
    scheme: Scheme, tag_bits: int, dim_cache: dict | None = None
) -> tuple[tuple[int, ...], ...]:
    """Deterministic partition of classes into at most 2**tag_bits groups.

    With enough bits to name every class the groups are singletons.  With
    fewer, colliding classes stay in one group (splitting them would fake
    a zero-distortion point below the converse bound), and a move-based
    local search balances the per-group distinguishing dimension.  The
    search keeps the block dimension of every member set it tries in
    ``dim_cache`` (a fresh dict if none is given), the final groups' too.
    """
    k = scheme.k
    if tag_bits >= tag_bits_for(k):
        return tuple((c,) for c in range(k))
    units = _profile_units(scheme)
    block_count = min(1 << tag_bits, len(units))

    groups: list[list[tuple[int, ...]]] = [[] for _ in range(block_count)]
    filled = 0
    for unit in units:
        # Contiguous fill, switching blocks once the even share is reached.
        target = (filled + 1) * k // block_count if filled < block_count - 1 else k
        groups[filled].append(unit)
        if sum(len(u) for u in groups[filled]) >= target and filled < block_count - 1:
            filled += 1

    if dim_cache is None:
        dim_cache = {}

    def group_dim(group: list[tuple[int, ...]]) -> int:
        return _group_dimension(scheme, frozenset(c for unit in group for c in unit), dim_cache)

    moves = 0
    improved = True
    while improved and moves < MAX_PARTITION_MOVES:
        improved = False
        objective = max(group_dim(g) for g in groups)
        for src in range(block_count):
            for unit in list(groups[src]):
                for dst in range(block_count):
                    if dst == src:
                        continue
                    groups[src].remove(unit)
                    groups[dst].append(unit)
                    if max(group_dim(g) for g in groups) < objective:
                        moves += 1
                        improved = True
                        objective = max(group_dim(g) for g in groups)
                        break
                    groups[dst].remove(unit)
                    groups[src].append(unit)
                if improved:
                    break
            if improved:
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

    groups: tuple[tuple[int, ...], ...]
    L: int
    max_group_dimension: int
    residual_distortion: float
    exhaustive_max_group_dimension: int | None = None


def _exhaustive_best_dimension(scheme: Scheme, block_limit: int, dim_cache: dict) -> int:
    """Minimum over all unit partitions into <= block_limit groups of the
    max per-group dimension.  Collision blocks stay atomic."""
    units = _profile_units(scheme)

    def group_dim(blocks_entry) -> int:
        members = frozenset(c for unit in blocks_entry for c in unit)
        return _group_dimension(scheme, members, dim_cache)

    best = scheme.n + 1

    def assign(i: int, blocks: list[list[tuple[int, ...]]]):
        nonlocal best
        if i == len(units):
            best = min(best, max(group_dim(b) for b in blocks))
            return
        for block in blocks:
            block.append(units[i])
            assign(i + 1, blocks)
            block.pop()
        if len(blocks) < block_limit:
            blocks.append([units[i]])
            assign(i + 1, blocks)
            blocks.pop()

    assign(0, [])
    return best


def hybrid_tag_plan(scheme: Scheme, L: int) -> TagPlan:
    """Greedy dimension-balanced partition for an L-bit tag.

    Classes sharing a profile are never split across groups, so any
    residual collision keeps its group's distortion positive.  For small
    instances (k <= 10, 2**L <= 4) an exhaustive partition search runs as
    a reference and both values are reported.  Both searches and the
    plan's own dimension share one block-dimension cache.
    """
    if L < 0:
        raise ValueError("tag bits must be >= 0")
    dim_cache: dict[frozenset, int] = {}
    groups = tag_partition(scheme, L, dim_cache=dim_cache)
    plan_dim = max((_group_dimension(scheme, frozenset(g), dim_cache) for g in groups), default=0)
    exhaustive_dim = None
    if (
        L < tag_bits_for(scheme.k)
        and scheme.k <= EXHAUSTIVE_PARTITION_CLASS_LIMIT
        and (1 << L) <= EXHAUSTIVE_PARTITION_BLOCK_LIMIT
    ):
        exhaustive_dim = _exhaustive_best_dimension(scheme, 1 << L, dim_cache)
    return TagPlan(
        groups=groups,
        L=L,
        max_group_dimension=plan_dim,
        residual_distortion=decode_distortion(scheme, groups),
        exhaustive_max_group_dimension=exhaustive_dim,
    )


def _decode(candidates) -> tuple[int, bool]:
    ordered = sorted(candidates)
    return ordered[0], len(ordered) > 1


def _walk_transcript(scheme: Scheme, tree, c: int, prefix: tuple = ()) -> Transcript:
    """Transcript of class ``c`` walking ``tree`` after the ``prefix`` queries."""
    queried, leaf = walk(tree, scheme.classes[c].profile.bits)
    output, undecided = _decode(leaf.candidates)
    return Transcript((*prefix, *queried), output, len(prefix) + len(queried), undecided)


def identify_all(scheme: Scheme, strat: StrategyDescriptor, class_indices) -> list[Transcript]:
    """Identify each class in ``class_indices``, in order, and record transcripts.

    The plan is computed once per call and shared by every class: the
    adaptive tree of the scheme for ``adaptive``; for ``hybrid`` the
    ``tag_partition`` groups plus one adaptive tree per non-singleton
    group that a requested class falls in; for ``exhaustive`` one scan
    that lists the classes sharing each requested profile.
    """
    class_indices = list(class_indices)
    for c in class_indices:
        if not 0 <= c < scheme.k:
            raise IndexError(f"class index {c} out of range for k={scheme.k}")

    if strat.kind == "nominal":
        if strat.tag_bits != tag_bits_for(scheme.k):
            raise ValueError(
                f"nominal tag_bits must be ceil(log2 k) = {tag_bits_for(scheme.k)}"
            )
        return [Transcript((TAG_READ,), c, 1) for c in class_indices]

    if strat.kind == "exhaustive":
        matches: dict[int, list[int]] = {scheme.profile_ints[c]: [] for c in class_indices}
        for m, p in enumerate(scheme.profile_ints):
            if p in matches:
                matches[p].append(m)
        transcripts = []
        for c in class_indices:
            output, undecided = _decode(matches[scheme.profile_ints[c]])
            transcripts.append(Transcript(tuple(range(scheme.n)), output, scheme.n, undecided))
        return transcripts

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
        else Transcript((TAG_READ,), c, 1)
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
    residual = 0.0
    for group in (range(scheme.k),) if groups is None else groups:
        cells: dict[int, list[float]] = {}
        for c in group:
            cells.setdefault(scheme.profile_ints[c], []).append(scheme.masses[c])
        for masses in cells.values():
            residual += sum(masses) - max(masses)
    return residual
