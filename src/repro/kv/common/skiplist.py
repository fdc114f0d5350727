"""Skiplist used as the LSM memtable.

A classic Pugh skiplist with deterministic pseudo-random level draws (the
level generator is seeded per instance so tests are reproducible).  Keys
are ints; values are arbitrary objects.  Supports ordered iteration, which
the memtable flush path relies on to emit sorted runs.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

_MAX_LEVEL = 16
_P = 0.5


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Optional[int], value: object, level: int) -> None:
        self.key = key
        self.value = value
        self.forward: list[Optional[_Node]] = [None] * level


class SkipList:
    """Ordered int-keyed map with O(log n) expected operations."""

    def __init__(self, seed: int = 0x5EED) -> None:
        self._head = _Node(None, None, _MAX_LEVEL)
        self._level = 1
        self._size = 0
        self._rng = random.Random(seed)

    def __len__(self) -> int:
        return self._size

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < _P:
            level += 1
        return level

    def _find_predecessors(self, key: int) -> list[_Node]:
        update = [self._head] * _MAX_LEVEL
        node = self._head
        for i in range(self._level - 1, -1, -1):
            while node.forward[i] is not None and node.forward[i].key < key:
                node = node.forward[i]
            update[i] = node
        return update

    def insert(self, key: int, value: object) -> None:
        """Insert or overwrite ``key``."""
        update = self._find_predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._size += 1

    def get(self, key: int, default: object = None) -> object:
        """Point lookup; ``default`` when the key is absent."""
        node = self._head
        for i in range(self._level - 1, -1, -1):
            while node.forward[i] is not None and node.forward[i].key < key:
                node = node.forward[i]
        node = node.forward[0]
        if node is not None and node.key == key:
            return node.value
        return default

    def __contains__(self, key: int) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def remove(self, key: int) -> bool:
        """Delete ``key``; returns whether it was present."""
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is None or node.key != key:
            return False
        for i in range(self._level):
            if update[i].forward[i] is node:
                update[i].forward[i] = node.forward[i]
        while self._level > 1 and self._head.forward[self._level - 1] is None:
            self._level -= 1
        self._size -= 1
        return True

    def items(self) -> Iterator[tuple[int, object]]:
        """Yield ``(key, value)`` pairs in ascending key order."""
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]
