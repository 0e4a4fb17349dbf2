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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LimitError
from .scheme import Scheme

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
    root: TreeNode
    depth: int
    exact: bool


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


def _candidates(mask: int) -> tuple[int, ...]:
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


def _grow(start: int, columns, split) -> tuple[TreeNode, int]:
    """Root and depth of the tree that queries ``split(mask)`` at each
    candidate mask, None making a leaf; ``split`` runs once per node.

    Iterative, so a tree may be deeper than Python's recursion limit: the
    masks are laid out in preorder, zero branch first, then the nodes are
    assembled from the last mask back.
    """
    order, pending = [], [start]
    while pending:
        mask = pending.pop()
        attr = split(mask)
        order.append((mask, attr))
        if attr is not None:
            pending += (mask & columns[attr], mask & ~columns[attr])
    built: list[tuple[TreeNode, int]] = []
    for mask, attr in reversed(order):
        if attr is None:
            built.append((TreeNode(None, _candidates(mask)), 0))
        else:
            (zero, zero_depth), (one, one_depth) = built.pop(), built.pop()
            # Two sorted runs: the merge is linear, no walk over the mask.
            candidates = tuple(sorted(zero.candidates + one.candidates))
            built.append((TreeNode(attr, candidates, zero, one), 1 + max(zero_depth, one_depth)))
    return built[0]


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
    reps = sum({scheme.profile_ints[c]: 1 << c for c in reversed(_candidates(start))}.values())
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

    root, depth = _grow(start, columns, lambda mask: solve(mask & reps)[1])
    return DecisionTree(root=root, depth=depth, exact=True)


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
    columns, bits = scheme.column_masks, scheme.bits
    split: dict[int, int | None] = {start: None}  # with no attribute the root is a leaf
    masks = [start] if scheme.n else []
    rows = np.array(_candidates(start), dtype=np.intp)
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
    ties go to the lowest attribute index.  The splits are found a level
    at a time (``_most_balanced_splits``), whose arrays are freed before
    the tree is assembled."""
    start = _class_mask(scheme, classes)
    split = _most_balanced_splits(scheme, start)
    root, depth = _grow(start, scheme.column_masks, split.__getitem__)
    return DecisionTree(root=root, depth=depth, exact=False)


def adaptive_tree(scheme: Scheme, classes=None) -> DecisionTree:
    """Exact tree over ``classes`` (default all) within the limits, greedy otherwise."""
    if _exact_fits(scheme, _class_mask(scheme, classes)):
        return optimal_decision_tree(scheme, classes)
    return greedy_decision_tree(scheme, classes)


def walk(tree: DecisionTree, profile_bits) -> tuple[list[int], TreeNode]:
    """Follow the answers of one profile; return queried attributes and leaf."""
    node = tree.root
    queried: list[int] = []
    while not node.is_leaf:
        queried.append(node.attribute)
        node = node.one if profile_bits[node.attribute] else node.zero
    return queried, node
