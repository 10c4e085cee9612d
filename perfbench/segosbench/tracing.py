"""Span recording from the benchmark's own files.

A :class:`Tracer` wraps the public functions of each layer at the name its
caller resolves (``repro.core.plan.build_all_lists`` is the name the plan's
TA stage calls, ``repro.core.graph_lists.top_k_stars`` the one the list
builder calls, and so on) and records one span per call: name, start, end,
parent span and query id.  Spans stay in memory until the run ends.  A
span's self time is its duration minus the time covered by its child spans
(the engine runs serially, so children never overlap).

A target that a later version of the program no longer has is skipped and
listed in :attr:`Tracer.missing`; its layer then reports zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple


# A hook runs before the wrapped call, may read (or, for telemetry-only
# keywords, add to) its arguments, and returns a callback for the result.


def _entries_built(tracer, args, kwargs):
    def after(lists):
        tracer.counts["graph_lists.entries_built"] += sum(
            len(entry.small) + len(entry.large) for entry in lists
        )

    return after


def _cells(tracer, args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    rows = len(matrix)
    tracer.counts["matching.cells"] += rows * (len(matrix[0]) if rows else 0)
    return None


def _expansions(tracer, args, kwargs):
    # The caller's counters dict when it passes one, else a private one.
    if kwargs.get("counters") is None:
        kwargs["counters"] = {}
    counters = kwargs["counters"]
    start = counters.get("expanded", 0)

    def after(result):
        tracer.counts["astar.expansions"] += counters.get("expanded", 0) - start

    return after


def _bytes_written(appends: bool):
    def hook(tracer, args, kwargs):
        path = args[0] if args else kwargs["index_path"]
        before = os.path.getsize(path) if appends and os.path.exists(path) else 0

        def after(result):
            tracer.counts["diskcat.bytes_written"] += os.path.getsize(path) - before

        return after

    return hook


#: (module, attribute path, span name, hook).  Hooks count work at the
#: boundary where it happens.
TARGETS = (
    ("repro.core.graph_lists", "top_k_stars", "ta_search", None),
    ("repro.core.plan", "build_all_lists", "graph_lists", _entries_built),
    ("repro.core.plan", "ca_range_query", "ca_search", None),
    ("repro.matching.mapping", "solve_assignment", "matching", _cells),
    ("repro.core.tiers", "solve_assignment", "matching", _cells),
    ("repro.core.ca_search", "settle_by_full_bounds", "bounds", None),
    ("repro.core.verify", "settle_by_full_bounds", "bounds", None),
    ("repro.core.plan", "verify_candidates", "verify", None),
    ("repro.core.verify", "graph_edit_distance", "astar", _expansions),
    ("repro.core.knn", "graph_edit_distance", "astar", _expansions),
    ("repro.perf.columnar", "ColumnarCatalog.build", "columnar", None),
    ("repro.perf.columnar", "ColumnarCatalog.from_mmap", "columnar", None),
    ("repro.core.index", "TwoLevelIndex.add_graph", "index", None),
    ("repro.core.index", "TwoLevelIndex.remove_graph", "index", None),
    ("repro.core.index", "TwoLevelIndex.apply_star_delta", "index", None),
    ("repro.perf.diskcat", "MappedTwoLevelIndex._materialize", "diskcat.promote", None),
    ("repro.perf.diskcat", "append_delta", "diskcat.append_delta", _bytes_written(True)),
    ("repro.perf.diskcat", "write_sidecar", "diskcat.write_sidecar", _bytes_written(False)),
    ("repro.perf.diskcat", "LazyGraphStore.parse_from_text", "diskcat.lazy_parse", None),
    ("repro.perf.diskcat", "guarded_fsync", "durability.fsync", None),
    ("repro.perf.diskcat", "fsync_dir", "durability.fsync", None),
    ("repro.core.persistence", "guarded_fsync", "durability.fsync", None),
    ("repro.core.persistence", "fsync_dir", "durability.fsync", None),
    ("repro.core.persistence", "_replay_segment", "persistence.replay", None),
)


class Tracer:
    """In-memory span recorder; install, run, uninstall, then summarise."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, query id]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.qid: object = None
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.qid]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, hook=None) -> Callable:
        if hook is _expansions and "counters" not in inspect.signature(fn).parameters:
            hook = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = hook(self, args, kwargs) if hook else None
            with self.span(name):
                result = fn(*args, **kwargs)
            if after:
                after(result)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for module_name, path, name, hook in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(self.wrap(original.__func__, name, hook))
            else:
                replacement = self.wrap(original, name, hook)
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------
    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def total_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _parent, _qid in self.spans:
            totals[name] += end - start
        return totals

    def self_seconds(self) -> Dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _qid in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _qid) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
        return totals

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, qid) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent, "qid": qid}
                    )
                    + "\n"
                )
