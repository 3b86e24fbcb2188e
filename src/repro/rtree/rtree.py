"""Guttman R-tree with quadratic split, built by insertion: SHJ's
per-partition in-memory index (section 2.2)."""

from __future__ import annotations

import math
from typing import Any, Iterator

from repro.geometry.rect import Rect
from repro.storage.iostats import IOStats


class _Node:
    """One R-tree node: entries are (mbr, child-or-payload) pairs."""

    __slots__ = ("leaf", "entries")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.entries: list[tuple[Rect, Any]] = []

    def mbr(self) -> Rect:
        box = self.entries[0][0]
        for rect, _ in self.entries[1:]:
            box = box.union(rect)
        return box


class RTree:
    """A dynamic R-tree over (MBR, payload) pairs.

    ``max_entries`` is the node fanout; with the default entity
    descriptor (48 bytes) about 85 entries fit a 4 KB page, but a
    smaller default keeps trees bushy on the modest partition sizes
    SHJ builds them over.  Node visits during insertion and search are
    charged to ``stats`` as ``rtree`` CPU operations when provided.
    """

    def __init__(
        self,
        max_entries: int = 32,
        min_entries: int | None = None,
        stats: IOStats | None = None,
    ) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = min_entries or max(2, max_entries // 3)
        if self.min_entries > max_entries // 2:
            raise ValueError("min_entries must be at most max_entries / 2")
        self.stats = stats
        self._root = _Node(leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        height = 1
        node = self._root
        while not node.leaf:
            node = node.entries[0][1]
            height += 1
        return height

    # -- construction -----------------------------------------------------

    def insert(self, mbr: Rect, payload: Any) -> None:
        """Insert one (MBR, payload) pair."""
        split = self._insert(self._root, mbr, payload)
        if split is not None:
            old_root = self._root
            self._root = _Node(leaf=False)
            self._root.entries = [
                (old_root.mbr(), old_root),
                (split.mbr(), split),
            ]
        self._size += 1

    # -- queries ----------------------------------------------------------

    def search(self, window: Rect) -> Iterator[Any]:
        """Yield payloads whose MBR intersects the query window."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            self._charge()
            for rect, child in node.entries:
                if rect.intersects(window):
                    if node.leaf:
                        yield child
                    else:
                        stack.append(child)

    # -- invariant checks (used by the test suite) --------------------------

    def check_invariants(self) -> None:
        """Verify R-tree structural invariants; raises AssertionError."""
        self._check(self._root, is_root=True)

    def _check(self, node: _Node, is_root: bool) -> int:
        if not is_root:
            assert len(node.entries) >= self.min_entries, "node underflow"
        assert len(node.entries) <= self.max_entries, "node overflow"
        if node.leaf:
            return 1
        depths = set()
        for rect, child in node.entries:
            assert rect.contains(child.mbr()), "parent MBR does not cover child"
            depths.add(self._check(child, is_root=False))
        assert len(depths) == 1, "leaves at different depths"
        return depths.pop() + 1

    # -- internals ----------------------------------------------------------

    def _charge(self) -> None:
        if self.stats is not None:
            self.stats.charge_cpu("rtree")

    def _insert(self, node: _Node, mbr: Rect, payload: Any) -> _Node | None:
        """Recursive insert; returns the new sibling if ``node`` split."""
        self._charge()
        if node.leaf:
            node.entries.append((mbr, payload))
        else:
            index = self._choose_subtree(node, mbr)
            child_rect, child = node.entries[index]
            split = self._insert(child, mbr, payload)
            if split is not None:
                # The child lost entries to its new sibling: recompute
                # both MBRs tightly.
                node.entries[index] = (child.mbr(), child)
                node.entries.append((split.mbr(), split))
            else:
                node.entries[index] = (child_rect.union(mbr), child)
        if len(node.entries) > self.max_entries:
            return self._split(node)
        return None

    def _choose_subtree(self, node: _Node, mbr: Rect) -> int:
        """Guttman's ChooseLeaf: least enlargement, ties by least area."""
        best_index = 0
        best_enlargement = math.inf
        best_area = math.inf
        for index, (rect, _) in enumerate(node.entries):
            area = rect.area
            enlargement = rect.union(mbr).area - area
            if enlargement < best_enlargement or (
                enlargement == best_enlargement and area < best_area
            ):
                best_index = index
                best_enlargement = enlargement
                best_area = area
        return best_index

    def _split(self, node: _Node) -> _Node:
        """Quadratic split; ``node`` keeps one group, the returned new
        sibling gets the other."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        box_a = entries[seed_a][0]
        box_b = entries[seed_b][0]
        remaining = [
            entry for i, entry in enumerate(entries) if i not in (seed_a, seed_b)
        ]
        while remaining:
            # If one group must take everything to reach min_entries, do so.
            need_a = self.min_entries - len(group_a)
            need_b = self.min_entries - len(group_b)
            if need_a >= len(remaining):
                group_a.extend(remaining)
                box_a = _extend(box_a, remaining)
                break
            if need_b >= len(remaining):
                group_b.extend(remaining)
                box_b = _extend(box_b, remaining)
                break
            index, prefer_a = self._pick_next(remaining, box_a, box_b)
            entry = remaining.pop(index)
            if prefer_a:
                group_a.append(entry)
                box_a = box_a.union(entry[0])
            else:
                group_b.append(entry)
                box_b = box_b.union(entry[0])
        node.entries = group_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        return sibling

    def _pick_seeds(self, entries: list[tuple[Rect, Any]]) -> tuple[int, int]:
        """The pair wasting the most area if grouped together."""
        worst = -math.inf
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i][0].union(entries[j][0]).area
                    - entries[i][0].area
                    - entries[j][0].area
                )
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        return seeds

    def _pick_next(
        self, remaining: list[tuple[Rect, Any]], box_a: Rect, box_b: Rect
    ) -> tuple[int, bool]:
        """Entry with the strongest group preference, and that group."""
        best_index = 0
        best_diff = -1.0
        prefer_a = True
        for index, (rect, _) in enumerate(remaining):
            enlarge_a = box_a.union(rect).area - box_a.area
            enlarge_b = box_b.union(rect).area - box_b.area
            diff = abs(enlarge_a - enlarge_b)
            if diff > best_diff:
                best_diff = diff
                best_index = index
                prefer_a = enlarge_a < enlarge_b
        return best_index, prefer_a


def _extend(box: Rect, entries: list[tuple[Rect, Any]]) -> Rect:
    for rect, _ in entries:
        box = box.union(rect)
    return box

