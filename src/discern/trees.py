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
builder splits on the most balanced attribute and is used above the
exact size limits.  Every builder starts from the bitmask of a class set,
by default all k classes; a hybrid group's tree is the same search
started from the group's mask, so its leaves hold the scheme's own class
indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        if not 0 <= c < scheme.k:
            raise IndexError(f"class index {c} out of range for k={scheme.k}")
        mask |= 1 << c
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
            built.append(
                (TreeNode(attr, _candidates(mask), zero, one), 1 + max(zero_depth, one_depth))
            )
    return built[0]


def _distinct_reducer(scheme: Scheme, start: int):
    """Map a candidate mask to one class per distinct profile (its lowest).

    Classes sharing a profile answer every query alike, so the reduced
    mask has the same splitting attributes and counts distinct profiles
    by its bits.
    """
    shared: dict[int, int] = {}
    for c in _candidates(start):
        p = scheme.profile_ints[c]
        shared[p] = shared.get(p, 0) | 1 << c
    groups = [g for g in shared.values() if g & (g - 1)]

    def reduce(mask: int) -> int:
        for g in groups:
            hit = mask & g
            mask &= ~(hit & (hit - 1))
        return mask

    return reduce


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
    distinct = _distinct_reducer(scheme, start)
    memo: dict[int, tuple[int, int | None]] = {}

    def solve(mask: int) -> tuple[int, int | None]:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        best_depth, best_attr = 0, None
        reps = distinct(mask)
        count = reps.bit_count()
        splits, widest = [], 0
        for q, col in enumerate(columns):
            ones = (reps & col).bit_count()
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

    root, depth = _grow(start, columns, lambda mask: solve(mask)[1])
    return DecisionTree(root=root, depth=depth, exact=True)


@lru_cache(maxsize=256)
def greedy_decision_tree(scheme: Scheme, classes=None) -> DecisionTree:
    """Most-balanced-split tree over ``classes`` (hashable, default all);
    ties go to the lowest attribute index."""
    columns = scheme.column_masks

    def most_balanced(mask: int) -> int | None:
        best_q, best_balance = None, 0
        size = mask.bit_count()
        for q, col in enumerate(columns):
            ones = (mask & col).bit_count()
            balance = min(ones, size - ones)
            if balance > best_balance:
                best_q, best_balance = q, balance
        return best_q

    root, depth = _grow(_class_mask(scheme, classes), columns, most_balanced)
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


def tree_to_dict(node: TreeNode) -> dict:
    """Nested JSON-ready form for inspection; iterative, so any depth works."""
    root: dict = {}
    stack = [(node, root)]
    while stack:
        node, doc = stack.pop()
        if node.is_leaf:
            doc["candidates"] = list(node.candidates)
        else:
            doc.update(attribute=node.attribute, candidates=list(node.candidates), zero={}, one={})
            stack += ((node.zero, doc["zero"]), (node.one, doc["one"]))
    return root
