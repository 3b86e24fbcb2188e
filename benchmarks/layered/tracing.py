"""Spans recorded from outside the program, around each layer's entry points.

Nothing under ``src/`` is edited: :func:`install` replaces the public
entry points listed in :data:`WRAPPED` with timing wrappers and
:meth:`Tracer.uninstall` puts the originals back.  A span is (name,
start, end, parent, op id); the spans of one operation — one
``spatial_join``, one service request, one mutation — share the op id of
their root.  A span's *self* time is its duration minus the time its
children cover, so the self times of one op sum to its root's duration
exactly.

Generator entry points (``sweep_intersections``) get one span from
their first ``next`` to exhaustion, which therefore also covers what
the consumer does between two yields, minus any wrapped call it makes
there (such a call becomes a child of the generator's span).

Every span of the first ``keep_ops`` ops is kept for ``TRACE_*.json``;
later ops only feed the per-name totals, so a traced slice of millions
of calls stays small in memory.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import operator
import os
import sys
import time
from typing import Any, Callable

_clock = time.perf_counter_ns
_FIRST = operator.itemgetter(0)

# (module, owner class or None, attribute, span name)
WRAPPED: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.join.api", None, "spatial_join", "join.api"),
    ("repro.join.dataset", "SpatialDataset", "write_descriptors", "join.dataset.stage"),
    ("repro.core.partition", None, "partition_levels", "core.partition"),
    ("repro.curves.hilbert", "HilbertCurve", "keys", "curves.keys"),
    ("repro.curves.base", "SpaceFillingCurve", "key_of_normalized", "curves.keys"),
    ("repro.filtertree.levels", "LevelAssigner", "levels", "filtertree.levels"),
    ("repro.filtertree.levels", "LevelAssigner", "level", "filtertree.levels"),
    ("repro.sorting.external_sort", "ExternalSorter", "sort", "sorting"),
    ("repro.core.sync_scan", None, "synchronized_scan", "core.sync_scan"),
    ("repro.sweep.plane_sweep", None, "sweep_intersections", "sweep"),
    ("repro.sweep.plane_sweep", None, "sweep_self_intersections", "sweep"),
    ("repro.storage.pagedfile", "PagedFile", "append", "storage.pagedfile"),
    ("repro.storage.pagedfile", "PagedFile", "extend", "storage.pagedfile"),
    ("repro.storage.pagedfile", "PagedFile", "read_page", "storage.pagedfile"),
    ("repro.storage.pagedfile", "PagedFile", "flush", "storage.pagedfile"),
    ("repro.storage.buffer", "BufferPool", "fetch", "storage.buffer"),
    ("repro.storage.buffer", "BufferPool", "create", "storage.buffer"),
    ("repro.storage.buffer", "BufferPool", "unpin", "storage.buffer"),
    ("repro.storage.buffer", "BufferPool", "flush", "storage.buffer"),
    ("repro.storage.buffer", "BufferPool", "write_behind", "storage.buffer"),
    ("repro.storage.buffer", "BufferPool", "invalidate", "storage.buffer"),
    ("repro.storage.backend", "MemoryBackend", "read_page", "storage.backend.read"),
    ("repro.storage.backend", "MemoryBackend", "write_page", "storage.backend.write"),
    ("repro.storage.durable", "DurableBackend", "read_page", "storage.backend.read"),
    ("repro.storage.durable", "DurableBackend", "write_page", "storage.durable.write_page"),
    ("repro.storage.durable", "DurableBackend", "checkpoint", "storage.durable.checkpoint"),
    ("repro.storage.durable", "DurableBackend", "__init__", "storage.durable.open"),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage.wal.append"),
    ("repro.storage.wal", "WriteAheadLog", "sync", "storage.wal.sync"),
    ("repro.fastpath.columnar", "ColumnarDataset", "from_dataset", "fastpath.columnar.build"),
    ("repro.fastpath.join", None, "memory_spatial_join", "fastpath.join"),
    ("repro.fastpath.sweep", None, "forward_sweep_pairs", "fastpath.sweep"),
    ("repro.service.api", "JoinService", "point", "service.api"),
    ("repro.service.api", "JoinService", "window", "service.api"),
    ("repro.service.api", "JoinService", "insert", "service.api"),
    ("repro.service.api", "JoinService", "delete", "service.api"),
    ("repro.service.api", "JoinService", "join", "service.api.join"),
    ("repro.service.api", "JoinService", "compact", "service.api.compact"),
    ("repro.service.index", "PersistentIndex", "insert", "service.index.insert"),
    ("repro.service.index", "PersistentIndex", "delete", "service.index.delete"),
    ("repro.service.index", "PersistentIndex", "compact", "service.index.compact"),
    ("repro.service.index", "PersistentIndex", "self_join", "service.index.self_join"),
    ("repro.service.scan", None, "live_self_scan", "service.scan"),
    ("repro.obs.fileio", None, "atomic_write_json", "service.index.persist"),
)
"""The layer boundaries.  ``PagedFile.append_many`` is ``extend`` under
another name and calls it, so wrapping ``extend`` covers both.
``PersistentIndex.window_query`` is wrapped in :meth:`Tracer._install_special`:
a point query is a degenerate window answered by the same function, so
its span is named from the window it is given."""


class Tracer:
    """In-memory span store with per-name totals."""

    def __init__(self, keep_ops: int = 1) -> None:
        self.keep_ops = keep_ops
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        # Open spans, innermost last: [name index, start, child ns, row].
        self.stack: list[list[int]] = []
        self.op = 0
        self.root_ns: list[int] = []  # one duration per finished op
        self.root_self_ns = 0
        # Kept spans: [name index, start, end, parent row, op id].
        self.rows: list[list[int]] = []
        self.counters: dict[str, float] = {}
        self._lazy_counts: list[Any] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return idx

    def start(self, idx: int) -> list[int]:
        stack = self.stack
        row = -1
        if self.op < self.keep_ops:
            row = len(self.rows)
            self.rows.append([idx, 0, 0, stack[-1][3] if stack else -1, self.op])
        frame = [idx, 0, 0, row]
        stack.append(frame)
        frame[1] = _clock()
        return frame

    def finish(self, frame: list[int]) -> None:
        end = _clock()
        stack = self.stack
        if stack and stack[-1] is frame:
            stack.pop()
        else:
            # A generator abandoned before exhaustion is closed late:
            # either spans above it are still open (close them with it)
            # or an enclosing span already closed it.
            if not any(open_frame is frame for open_frame in stack):
                return
            while stack[-1] is not frame:
                self._close(stack.pop(), end)
            stack.pop()
        self._close(frame, end)

    def _close(self, frame: list[int], end: int) -> None:
        idx, start, child_ns, row = frame
        duration = end - start
        own = duration - child_ns
        self.calls[idx] += 1
        self.total_ns[idx] += duration
        self.self_ns[idx] += own
        if row >= 0:
            kept = self.rows[row]
            kept[1] = start
            kept[2] = end
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.root_ns.append(duration)
            self.root_self_ns += own
            self.op += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A timing wrapper of ``fn`` that opens one span per call."""
        idx = self.name_index(name)
        start, finish = self.start, self.finish
        after = _AFTER.get(name)

        if inspect.iscoroutinefunction(fn):

            async def traced(*args: Any, **kwargs: Any) -> Any:
                frame = start(idx)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    finish(frame)

        elif inspect.isgeneratorfunction(fn):

            def traced(*args: Any, **kwargs: Any) -> Any:
                frame = start(idx)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    finish(frame)

        elif after is not None:

            def traced(*args: Any, **kwargs: Any) -> Any:
                frame = start(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    finish(frame)
                after(self, args, kwargs, result)
                return result

        else:

            def traced(*args: Any, **kwargs: Any) -> Any:
                frame = start(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(frame)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module: Any, attr: str, name: str) -> None:
        """Replace a module-level function everywhere it was imported
        by name (``from x import f`` leaves a second reference)."""
        original = getattr(module, attr)
        traced = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, traced)

    def _patch_method(self, cls: type, attr: str, name: str) -> None:
        static = inspect.getattr_static(cls, attr)
        if isinstance(static, classmethod):
            self._replace(cls, attr, classmethod(self.wrap(name, static.__func__)))
        else:
            self._replace(cls, attr, self.wrap(name, static))

    def install(self) -> None:
        """Wrap every entry point of :data:`WRAPPED` plus the counters."""
        for module_name, owner, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            if owner is None:
                self._patch_function(module, attr, name)
            else:
                self._patch_method(getattr(module, owner), attr, name)
        self._install_special()

    def _install_special(self) -> None:
        """The three entry points a plain span does not fit.

        ``IOStats.charge_cpu`` runs over a million times per ledger
        join, so it is counted, never timed per call.  ``level_records``
        returns a lazy stream, so the records it yields are counted as
        the query consumes them.  ``window_query`` answers point queries
        too, so its span takes its name from the window.
        """
        from repro.service.index import PersistentIndex
        from repro.storage.iostats import IOStats

        counters = self.counters
        charge = IOStats.charge_cpu

        def charge_cpu(stats: Any, op: str, count: int = 1) -> None:
            counters["iostats.charge_calls"] = counters.get("iostats.charge_calls", 0) + 1
            charge(stats, op, count)

        self._replace(IOStats, "charge_cpu", charge_cpu)

        level_records = PersistentIndex.level_records
        lazy = self._lazy_counts

        def counted_level_records(index: Any, level: int) -> Any:
            # zip() pulls from the stream first and stops when it ends,
            # so the counter advances once per record yielded — in C.
            counter = itertools.count()
            lazy.append(counter)
            return map(_FIRST, zip(level_records(index, level), counter))

        self._replace(PersistentIndex, "level_records", counted_level_records)

        window_query = PersistentIndex.window_query
        as_window = self.wrap("service.index.window", window_query)
        as_point = self.wrap("service.index.point", window_query)

        def traced_window_query(index: Any, window: Any) -> Any:
            if window.xlo == window.xhi and window.ylo == window.yhi:
                return as_point(index, window)
            return as_window(index, window)

        self._replace(PersistentIndex, "window_query", traced_window_query)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """JSON-ready totals, counters and the kept spans."""
        counters = dict(self.counters)
        counters["index.records_scanned"] = sum(next(c) for c in self._lazy_counts)
        self._lazy_counts.clear()
        return {
            "ops": self.op,
            "root_ns": list(self.root_ns),
            "root_self_ns": self.root_self_ns,
            "spans": {
                name: {
                    "calls": self.calls[i],
                    "total_ns": self.total_ns[i],
                    "self_ns": self.self_ns[i],
                }
                for i, name in enumerate(self.names)
            },
            "counters": counters,
            "names": list(self.names),
            "rows": self.rows,
        }


# -- counts read off a call's arguments or result ---------------------------


def _after_partition(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.count("partition.records", args[0].num_records)


def _after_sort(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.count("sorting.runs", result.initial_runs)
    tracer.count("sorting.merge_passes", result.merge_passes)


def _after_scan(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.count("sync_scan.pages", result)


def _after_persist(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.count("persist.bytes", os.path.getsize(args[0]))


def _after_wal_append(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    from repro.storage.wal import WAL_HEADER

    tracer.count("wal.bytes", WAL_HEADER.size + len(args[1].body))


_AFTER: dict[str, Callable[[Tracer, Any, Any, Any], None]] = {
    "core.partition": _after_partition,
    "sorting": _after_sort,
    "core.sync_scan": _after_scan,
    "service.index.persist": _after_persist,
    "storage.wal.append": _after_wal_append,
}


# -- reading a dump ----------------------------------------------------------


def check_span_tree(dump: dict[str, Any]) -> list[str]:
    """Violations of the span-tree invariants among the kept spans:
    a child lies inside its parent, self time is never negative, and
    the self times of one op sum to its root's duration."""
    problems: list[str] = []
    rows = dump["rows"]
    child_ns = [0] * len(rows)
    for i, (_, start, end, parent, op) in enumerate(rows):
        if end < start:
            problems.append(f"span {i} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _, p_op = rows[parent]
            if not (p_start <= start and end <= p_end):
                problems.append(f"span {i} lies outside its parent {parent}")
            if p_op != op:
                problems.append(f"span {i} and its parent disagree on the op id")
            child_ns[parent] += end - start
    self_by_op: dict[int, int] = {}
    root_by_op: dict[int, int] = {}
    for i, (_, start, end, parent, op) in enumerate(rows):
        own = (end - start) - child_ns[i]
        if own < 0:
            problems.append(f"span {i} has negative self time {own}")
        self_by_op[op] = self_by_op.get(op, 0) + own
        if parent < 0:
            root_by_op[op] = root_by_op.get(op, 0) + (end - start)
    for op, total in self_by_op.items():
        if total != root_by_op.get(op):
            problems.append(
                f"op {op}: self times sum to {total}, root lasts {root_by_op.get(op)}"
            )
    return problems
