"""Adaptive query plans: binary decision trees over attribute queries.

Internal nodes query one attribute and branch on the 0/1 answer; leaves
hold every class consistent with the answers on the path.  The exact
builder minimizes worst-case depth by memoized search over candidate-class
bitmasks (Hyafil & Rivest, 1976), pruned by an admissible lower bound: a
set with D distinct profiles, whose attributes split off at most b of
them on their smaller side, needs max(ceil(log2 D), ceil((D - 1) / b))
queries, since on the larger side's path a query halves D at best and
removes at most b.  The pruning passes over no attribute that could
win, so every depth and tree is that of the unpruned search.  The greedy
builder splits on the most balanced attribute, the lowest on a tie, and
is used above the exact size limits.  It splits a whole level of nodes in
a few NumPy passes over the class-by-attribute bit matrix, and sums member
rows only for the smaller child of each split: the larger child's column
counts are its parent's minus its sibling's.  Every builder starts from
the bitmask of a class set, by default all k classes; a hybrid group's
tree is the same search started from the group's mask, so its leaves hold
the scheme's own class indices.

A tree is its nodes in breadth-first order, as plain tuples that both
builders lay out (``_layout``) and both walks read; only leaves hold
candidates, as class tuples.  The nested ``TreeNode`` view is built on first use.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import LimitError
from .scheme import Scheme, _bit_indices

EXACT_TREE_CLASS_LIMIT = 24
EXACT_TREE_ATTR_LIMIT = 20


@dataclass(frozen=True)
class TreeNode:
    """One node; ``attribute`` is None at leaves."""

    attribute: int | None
    candidates: tuple[int, ...]
    zero: "TreeNode | None" = None
    one: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None


@dataclass(frozen=True)
class DecisionTree:
    """Nodes in breadth-first order, the root first: ``attribute`` queried,
    None at a leaf; ``first_child``, the answer-0 child's index (answer 1's
    is the next), None at a leaf; ``candidates``, a leaf's classes ascending,
    None at an internal node.  ``root`` is the nested view, built on first use."""

    attribute: tuple[int | None, ...]
    first_child: tuple[int | None, ...]
    candidates: tuple[tuple[int, ...] | None, ...]
    depth: int
    exact: bool

    @cached_property
    def root(self) -> TreeNode:
        """Nested ``TreeNode`` view, built from the last node back, so each
        child before its parent; an internal node's candidates merge its
        children's two sorted runs, a linear ``sorted``."""
        nodes = [None if leaf is None else TreeNode(None, leaf) for leaf in self.candidates]
        for i in reversed(range(len(nodes))):
            if self.attribute[i] is not None:
                zero, one = nodes[self.first_child[i]], nodes[self.first_child[i] + 1]
                candidates = tuple(sorted(zero.candidates + one.candidates))
                nodes[i] = TreeNode(self.attribute[i], candidates, zero, one)
        return nodes[0]


def _class_mask(scheme: Scheme, classes) -> int:
    """Bitmask of ``classes`` (class c in bit c); every class if None."""
    if classes is None:
        return (1 << scheme.k) - 1
    mask = 0
    for c in classes:
        mask |= 1 << scheme.check_class(c)
    return mask


def _exact_fits(scheme: Scheme, mask: int) -> bool:
    return mask.bit_count() <= EXACT_TREE_CLASS_LIMIT and scheme.n <= EXACT_TREE_ATTR_LIMIT


def _layout(start: int, columns, split) -> tuple[tuple, tuple, tuple, int]:
    """``DecisionTree`` fields but ``exact`` of the tree querying ``split(mask)``
    at each candidate mask, None making a leaf; the last node is deepest.
    Iterative, so a tree may be deeper than Python's recursion limit."""
    attribute, first_child, candidates, pending = [], [], [], [(start, 0)]
    for mask, level in pending:  # grows while it is read: breadth-first order
        attr = split(mask)
        attribute.append(attr)
        if attr is None:
            first_child.append(None)
            candidates.append(_bit_indices(mask))
        else:
            first_child.append(len(pending))
            candidates.append(None)
            pending += ((mask & ~columns[attr], level + 1), (mask & columns[attr], level + 1))
    return tuple(attribute), tuple(first_child), tuple(candidates), pending[-1][1]


def _depth_bound(count: int, widest: int) -> int:
    """Least worst-case depth possible for ``count`` distinct profiles when
    no attribute splits off more than ``widest`` of them."""
    if count <= 1:
        return 0
    return max((count - 1).bit_length(), -(-(count - 1) // widest))


def _fewest_reaching(depth: int, widest: int) -> int:
    """Fewest distinct profiles whose ``_depth_bound`` reaches ``depth`` >= 1."""
    return min((1 << (depth - 1)) + 1, (depth - 1) * widest + 2)


@lru_cache(maxsize=256)
def optimal_decision_tree(scheme: Scheme, classes=None) -> DecisionTree:
    """Minimum worst-case-depth tree over ``classes`` (hashable, default all);
    raises LimitError above the size limits.

    State space is the bitmask of classes still consistent; an attribute
    that fails to split the candidates is never useful, so each attribute
    is queried at most once per path automatically.

    The search is pruned by a lower bound on a mask's depth.  With D
    distinct profiles among the candidates (D <= 1 gives 0) and b the
    largest minority side, in distinct profiles, over the attributes that
    split them, the bound is max(ceil(log2 D), ceil((D - 1) / b)).  It is
    admissible: on the path that always takes the side with more distinct
    profiles, a query at best halves D and removes at most b of them, and
    b cannot grow on a subset, so the mask's b also bounds its children.
    An attribute is skipped once 1 + its larger child's bound, or 1 + its
    zero child's exact depth, reaches the best depth found so far, and the
    scan stops once that depth meets the mask's own bound.  None of
    these passes over the lowest attribute of strictly least depth, and
    only exact depths are memoised, so every depth and tree is that of
    the unpruned search.
    """
    start = _class_mask(scheme, classes)
    if not _exact_fits(scheme, start):
        raise LimitError(
            f"exact tree search limited to k <= {EXACT_TREE_CLASS_LIMIT}, "
            f"n <= {EXACT_TREE_ATTR_LIMIT}; got k={start.bit_count()}, n={scheme.n}"
        )
    columns = scheme.column_masks
    # Classes sharing a profile answer every query alike, so a column split
    # keeps or drops them together: ANDed with ``reps``, the lowest class of
    # each distinct profile, a reached mask has the same splitting
    # attributes and counts its distinct profiles by its bits.
    reps = sum({scheme.profile_ints[c]: 1 << c for c in reversed(_bit_indices(start))}.values())
    memo: dict[int, tuple[int, int | None]] = {}

    def solve(mask: int) -> tuple[int, int | None]:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        best_depth, best_attr = 0, None
        count = mask.bit_count()
        splits, widest = [], 0
        for q, col in enumerate(columns):
            ones = (mask & col).bit_count()
            if 0 < ones < count:
                splits.append((q, ones))
                if widest < ones < count - widest:
                    widest = min(ones, count - ones)
        if splits:
            floor = _depth_bound(count, widest)
            # An attribute whose larger side holds ``skip_from`` profiles or
            # more has 1 + _depth_bound(larger side) >= best_depth: skip it.
            best_depth, skip_from = scheme.n + 1, count
            for q, ones in splits:
                if ones >= skip_from or count - ones >= skip_from:
                    continue
                depth = 1 + solve(mask & ~columns[q])[0]
                if depth >= best_depth:
                    continue
                depth = max(depth, 1 + solve(mask & columns[q])[0])
                if depth < best_depth:
                    best_depth, best_attr = depth, q
                    if depth == floor:
                        break
                    skip_from = _fewest_reaching(depth - 1, widest)
        memo[mask] = (best_depth, best_attr)
        return memo[mask]

    return DecisionTree(*_layout(start, columns, lambda mask: solve(mask & reps)[1]), exact=True)


def _most_balanced_splits(scheme: Scheme, start: int) -> dict[int, int | None]:
    """The greedy tree's split at every node under ``start``: the lowest
    attribute of greatest min(ones, size - ones), None at a leaf.

    Found one level at a time over ``scheme.bits``.  A level's nodes hold
    their member rows, contiguous and grouped by node, and their column
    one-counts; a node's split is the first argmax of its balances, and a
    zero maximum makes a leaf.  A child's counts come from its parent by
    sibling subtraction, as in histogram tree learners (Ke et al., 2017):
    one ``add.reduceat`` sums the rows of every smaller child at the level,
    and each larger child takes its parent's counts minus that sum.  Every
    row is summed only on the smaller side of a split, O(n * sum of smaller
    sides) in all.  A level lists the smaller children in their parents'
    order, then the larger ones.
    """
    import numpy as np
    columns, bits = scheme.column_masks, scheme.bits
    split: dict[int, int | None] = {start: None}  # with no attribute the root is a leaf
    masks = [start] if scheme.n else []
    rows = np.array(_bit_indices(start), dtype=np.intp)
    # Counts never exceed k: 32 bits halve the widest level's arrays.
    sizes = np.array([len(rows)], dtype=np.int32)
    counts = bits[rows].sum(axis=0, keepdims=True, dtype=np.int32)
    while masks:
        at = np.arange(len(masks))
        balance = sizes[:, None] - counts
        np.minimum(balance, counts, out=balance)
        attrs = balance.argmax(axis=1)
        smaller = balance[at, attrs]
        one_smaller = counts[at, attrs] == smaller
        live = smaller > 0
        small_masks, large_masks = [], []
        for mask, attr, inner, flip in zip(masks, attrs.tolist(), live.tolist(), one_smaller.tolist()):
            split[mask] = attr if inner else None
            if inner:
                one, zero = mask & columns[attr], mask & ~columns[attr]
                small_masks.append(one if flip else zero)
                large_masks.append(zero if flip else one)
        if not small_masks:
            break
        node = np.repeat(at, sizes)
        kept = live[node]
        larger = bits[rows, attrs[node]] != one_smaller[node]
        small = smaller[live]
        # Rows are grouped by node, so the smaller sides' rows, picked in
        # order, are grouped too: one segment per split, ``small`` rows each.
        picked = rows[kept & ~larger]
        sums = np.add.reduceat(bits[picked], np.cumsum(small) - small, axis=0, dtype=np.int32)
        rows = np.concatenate((picked, rows[kept & larger]))
        counts = np.concatenate((sums, counts[live] - sums))
        sizes = np.concatenate((small, sizes[live] - small))
        masks = small_masks + large_masks
    return split


@lru_cache(maxsize=256)
def greedy_decision_tree(scheme: Scheme, classes=None) -> DecisionTree:
    """Most-balanced-split tree over ``classes`` (hashable, default all);
    ties go to the lowest attribute index.  ``_most_balanced_splits`` frees
    its level arrays before the tree is laid out."""
    start = _class_mask(scheme, classes)
    split = _most_balanced_splits(scheme, start)
    return DecisionTree(*_layout(start, scheme.column_masks, split.__getitem__), exact=False)


def adaptive_tree(scheme: Scheme, classes=None) -> DecisionTree:
    """Exact tree over ``classes`` (default all) within the limits, greedy otherwise."""
    if _exact_fits(scheme, _class_mask(scheme, classes)):
        return optimal_decision_tree(scheme, classes)
    return greedy_decision_tree(scheme, classes)


def walk(tree: DecisionTree, profile_bits) -> tuple[list[int], tuple[int, ...]]:
    """Follow the answers of one profile; return queried attributes and leaf candidates."""
    attribute, first_child = tree.attribute, tree.first_child
    node, queried = 0, []
    while (attr := attribute[node]) is not None:
        queried.append(attr)
        node = first_child[node] + profile_bits[attr]
    return queried, tree.candidates[node]
