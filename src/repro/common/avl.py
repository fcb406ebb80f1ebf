"""A self-balancing AVL search tree.

The Pravega read index uses "a sorted index of entries per segment
(indexed by their start offsets) ... implemented via a custom AVL search
tree to minimize memory usage while not sacrificing access performance"
(§4.2, ref [29]).  This implementation supports exact search plus the
*floor* query the read index needs: "the greatest entry whose start
offset is <= the requested offset".
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")

__all__ = ["AvlTree"]


class _Node(Generic[K, V]):
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key: K, value: V) -> None:
        self.key = key
        self.value = value
        self.left: Optional["_Node[K, V]"] = None
        self.right: Optional["_Node[K, V]"] = None
        self.height = 1


def _height(node: Optional[_Node]) -> int:
    return node.height if node is not None else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance_factor(node: _Node) -> int:
    return _height(node.left) - _height(node.right)


def _rotate_right(y: _Node) -> _Node:
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _update(y)
    _update(x)
    return x


def _rotate_left(x: _Node) -> _Node:
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _update(x)
    _update(y)
    return y


def _rebalance(node: _Node) -> _Node:
    _update(node)
    balance = _balance_factor(node)
    if balance > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if balance < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AvlTree(Generic[K, V]):
    """An ordered map with O(log n) insert/delete/search/floor/ceiling."""

    def __init__(self) -> None:
        self._root: Optional[_Node[K, V]] = None
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: K) -> bool:
        return self._find(key) is not None

    def __iter__(self) -> Iterator[K]:
        for key, _ in self.items():
            yield key

    # ------------------------------------------------------------------
    def insert(self, key: K, value: V) -> None:
        """Insert ``key`` -> ``value``; replaces the value if key exists."""
        inserted = [False]

        def _insert(node: Optional[_Node[K, V]]) -> _Node[K, V]:
            if node is None:
                inserted[0] = True
                return _Node(key, value)
            if key < node.key:
                node.left = _insert(node.left)
            elif key > node.key:
                node.right = _insert(node.right)
            else:
                node.value = value
                return node
            return _rebalance(node)

        self._root = _insert(self._root)
        if inserted[0]:
            self._size += 1

    def delete(self, key: K) -> bool:
        """Remove ``key``; returns True if it was present."""
        removed = [False]

        def _min_node(node: _Node[K, V]) -> _Node[K, V]:
            while node.left is not None:
                node = node.left
            return node

        def _delete(node: Optional[_Node[K, V]], key: K) -> Optional[_Node[K, V]]:
            if node is None:
                return None
            if key < node.key:
                node.left = _delete(node.left, key)
            elif key > node.key:
                node.right = _delete(node.right, key)
            else:
                removed[0] = True
                if node.left is None:
                    return node.right
                if node.right is None:
                    return node.left
                successor = _min_node(node.right)
                node.key = successor.key
                node.value = successor.value
                removed[0] = False
                node.right = _delete(node.right, successor.key)
                removed[0] = True
            return _rebalance(node)

        self._root = _delete(self._root, key)
        if removed[0]:
            self._size -= 1
        return removed[0]

    def get(self, key: K, default: Any = None) -> Any:
        node = self._find(key)
        return node.value if node is not None else default

    def _find(self, key: K) -> Optional[_Node[K, V]]:
        node = self._root
        while node is not None:
            if key < node.key:
                node = node.left
            elif key > node.key:
                node = node.right
            else:
                return node
        return None

    # ------------------------------------------------------------------
    def floor(self, key: K) -> Optional[Tuple[K, V]]:
        """Greatest (key', value) with key' <= key, or None."""
        node = self._root
        best: Optional[_Node[K, V]] = None
        while node is not None:
            if node.key == key:
                return (node.key, node.value)
            if node.key < key:
                best = node
                node = node.right
            else:
                node = node.left
        return (best.key, best.value) if best is not None else None

    def ceiling(self, key: K) -> Optional[Tuple[K, V]]:
        """Smallest (key', value) with key' >= key, or None."""
        node = self._root
        best: Optional[_Node[K, V]] = None
        while node is not None:
            if node.key == key:
                return (node.key, node.value)
            if node.key > key:
                best = node
                node = node.left
            else:
                node = node.right
        return (best.key, best.value) if best is not None else None

    def min_item(self) -> Optional[Tuple[K, V]]:
        node = self._root
        if node is None:
            return None
        while node.left is not None:
            node = node.left
        return (node.key, node.value)

    def items(self) -> Iterator[Tuple[K, V]]:
        """In-order traversal (ascending keys), iterative to bound stack use."""
        stack: list[_Node[K, V]] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield (node.key, node.value)
            node = node.right

    def items_from(self, key: K) -> Iterator[Tuple[K, V]]:
        """In-order traversal of all entries with key >= ``key``."""
        stack: list[_Node[K, V]] = []
        node = self._root
        while node is not None:
            if node.key >= key:
                stack.append(node)
                node = node.left
            else:
                node = node.right
        while stack:
            node = stack.pop()
            yield (node.key, node.value)
            node = node.right
            while node is not None:
                stack.append(node)
                node = node.left

    def height(self) -> int:
        return _height(self._root)

    def check_invariants(self) -> None:
        """Assert AVL balance and BST ordering (used by property tests)."""

        def _check(node: Optional[_Node[K, V]]) -> int:
            if node is None:
                return 0
            left = _check(node.left)
            right = _check(node.right)
            assert abs(left - right) <= 1, "AVL balance violated"
            assert node.height == 1 + max(left, right), "stale height"
            if node.left is not None:
                assert node.left.key < node.key, "BST order violated"
            if node.right is not None:
                assert node.right.key > node.key, "BST order violated"
            return node.height

        _check(self._root)
