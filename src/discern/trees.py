"""Adaptive query plans: binary decision trees over attribute queries.

Internal nodes query one attribute and branch on the 0/1 answer; leaves
hold every class consistent with the answers on the path.  The exact
builder minimizes worst-case depth by memoized search over candidate-class
bitmasks (Hyafil & Rivest, 1976); the greedy builder splits on the most
balanced attribute and is used above the exact size limits.  Every builder
starts from the bitmask of a class set, by default all k classes; a hybrid
group's tree is the same search started from the group's mask, so its
leaves hold the scheme's own class indices.
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


def _node_depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(_node_depth(node.zero), _node_depth(node.one))


def _splitting_attributes(mask: int, columns) -> list[int]:
    splits = []
    for q, col in enumerate(columns):
        ones = mask & col
        if ones and ones != mask:
            splits.append(q)
    return splits


@lru_cache(maxsize=256)
def optimal_decision_tree(scheme: Scheme, classes=None) -> DecisionTree:
    """Minimum worst-case-depth tree over ``classes`` (hashable, default all);
    raises LimitError above the size limits.

    State space is the bitmask of classes still consistent; an attribute
    that fails to split the candidates is never useful, so each attribute
    is queried at most once per path automatically.
    """
    start = _class_mask(scheme, classes)
    if not _exact_fits(scheme, start):
        raise LimitError(
            f"exact tree search limited to k <= {EXACT_TREE_CLASS_LIMIT}, "
            f"n <= {EXACT_TREE_ATTR_LIMIT}; got k={start.bit_count()}, n={scheme.n}"
        )
    columns = scheme.column_masks
    memo: dict[int, tuple[int, int | None]] = {}

    def solve(mask: int) -> tuple[int, int | None]:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        best_depth, best_attr = 0, None
        splits = _splitting_attributes(mask, columns)
        if splits:
            best_depth = scheme.n + 1
            for q in splits:
                ones = mask & columns[q]
                depth = 1 + max(solve(mask & ~columns[q])[0], solve(ones)[0])
                if depth < best_depth:
                    best_depth, best_attr = depth, q
        memo[mask] = (best_depth, best_attr)
        return memo[mask]

    def build(mask: int) -> TreeNode:
        _, attr = solve(mask)
        if attr is None:
            return TreeNode(None, _candidates(mask))
        return TreeNode(
            attr,
            _candidates(mask),
            zero=build(mask & ~columns[attr]),
            one=build(mask & columns[attr]),
        )

    root = build(start)
    return DecisionTree(root=root, depth=solve(start)[0], exact=True)


@lru_cache(maxsize=256)
def greedy_decision_tree(scheme: Scheme, classes=None) -> DecisionTree:
    """Most-balanced-split tree over ``classes`` (hashable, default all);
    ties go to the lowest attribute index."""
    columns = scheme.column_masks

    def build(mask: int) -> TreeNode:
        best_q, best_balance = None, 0
        size = mask.bit_count()
        for q, col in enumerate(columns):
            ones = (mask & col).bit_count()
            balance = min(ones, size - ones)
            if balance > best_balance:
                best_q, best_balance = q, balance
        if best_q is None:
            return TreeNode(None, _candidates(mask))
        return TreeNode(
            best_q,
            _candidates(mask),
            zero=build(mask & ~columns[best_q]),
            one=build(mask & columns[best_q]),
        )

    root = build(_class_mask(scheme, classes))
    return DecisionTree(root=root, depth=_node_depth(root), exact=False)


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
    """Nested JSON-ready form for inspection."""
    if node.is_leaf:
        return {"candidates": list(node.candidates)}
    return {
        "attribute": node.attribute,
        "candidates": list(node.candidates),
        "zero": tree_to_dict(node.zero),
        "one": tree_to_dict(node.one),
    }
