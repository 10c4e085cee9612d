"""The three workloads: set-up, operation streams and end-of-run phases.

Each workload is a closed loop with one client: :meth:`Workload.ops`
yields one :class:`Op` at a time, and the next is generated only after
the previous reply has been checked.  Engines are built from
``EngineConfig()`` defaults, never from the environment.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from repro.config import EngineConfig
from repro.core.engine import SegosIndex
from repro.core.knn import knn_query
from repro.core.persistence import load_index, save_index
from repro.graphs.generators import mutate

from .inputs import CLONE_BLOCK, RANGE_BLOCK, Inputs, positional
from .oracle import Ledger, Oracle, Problem, check_knn, check_range, check_reopened

RANGE_TAUS = (1, 2, 3)
#: after each block, ``aids-range`` sends the block's queries again as one
#: batch call at BATCH_TAU
BATCH_TAU = 2
EXACT_TAUS = (2, 3, 4)
KNN_K = 10
INGEST_TAU = 1
#: ``aids-ingest`` calls ``save_index`` after every SAVE_EVERY writes
SAVE_EVERY = 10
#: ``load_index`` calls at the end of an ``aids-ingest`` run
REOPENS = 3
WRITE_KINDS = ("add", "remove", "relabel_vertex", "add_edge", "remove_edge")

#: QueryStats fields summed per workload (read with a default, so a field a
#: later version drops reads as zero instead of failing the run)
STAT_FIELDS = (
    "ta_searches",
    "ta_accesses",
    "topk_scan_width",
    "list_entries_scanned",
    "graphs_accessed",
    "full_mapping_computations",
    "sed_cache_hits",
    "sed_cache_misses",
    "settled_by_bounds",
    "astar_runs",
    "astar_expansions",
)


@dataclass
class Op:
    """One request: ``call`` is timed, ``settle`` checks the reply outside
    the timed region and returns its problems."""

    kind: str
    call: Callable[[], object]
    settle: Callable[[object], List[Problem]]
    #: queries answered by the call (latency is reported per query)
    units: int = 1


#: yielded by :meth:`Workload.ops` between blocks of the pool; a timed run
#: stops only there, so every run covers whole blocks (see ``inputs._dealt``)
BLOCK_END = None


class Run:
    """What one measured pass collects."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.ledger = Ledger()
        self.latencies: Dict[str, List[float]] = {}
        self.counters: Counter = Counter()
        #: operations sent in the measured window, and their summed latency
        self.ops = 0
        self.timed_seconds = 0.0
        self.notes: Dict[str, object] = {}

    def sample(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def account(self, stats) -> None:
        for name in STAT_FIELDS:
            self.counters[name] += getattr(stats, name, 0)

    def account_answer(self, result, truth) -> None:
        self.account(result.stats)
        self.counters["candidates_returned"] += len(result.candidates)
        self.counters["true_answers"] += len(truth)


class Workload:
    """Base class; ``primary``/``secondary`` name the two timed op kinds
    behind the ``query_*`` and ``secondary_*`` metrics."""

    name = ""
    primary = ""
    secondary = ""

    def __init__(self, inputs: Inputs, shared: dict, workdir: str, run: Run) -> None:
        self.inputs = inputs
        self.shared = shared
        self.workdir = workdir
        self.run = run

    @classmethod
    def prepare(cls, inputs: Inputs, workdir: str) -> dict:
        """Untimed work shared by every pass (ground truth, base files)."""
        raise NotImplementedError

    def before_setup(self) -> None:
        """Untimed preparation of one set-up repetition."""

    def setup(self):
        """Build or open the engine and run one warm-up query (timed)."""
        raise NotImplementedError

    def ops(self, engine) -> Iterator[Op]:
        """The endless operation stream, with ``BLOCK_END`` between blocks."""
        raise NotImplementedError

    def finish(self, engine) -> None:
        """End-of-run phase after the measured window."""

    # -- shared helpers --------------------------------------------------
    def _range_op(self, kind, engine, oracle, qi, tau, verify="none") -> Op:
        query = oracle.queries[qi]

        def settle(result):
            truth = oracle.truth(qi, tau)
            self.run.account_answer(result, truth)
            return check_range(verify, result.candidates, result.matches, result.verified, truth)

        return Op(kind, lambda: engine.range_query(query, tau=tau, verify=verify), settle)


class AidsRange(Workload):
    """Filter-heavy reads: range queries (verify="none") plus batches."""

    name = "aids-range"
    primary = "range"
    secondary = "batch"

    @classmethod
    def prepare(cls, inputs, workdir):
        return {"oracle": Oracle(inputs.queries, max(RANGE_TAUS)).fill(inputs.corpus)}

    def setup(self):
        engine = SegosIndex(self.inputs.corpus, config=EngineConfig())
        engine.range_query(self.inputs.warmup, tau=1)
        return engine

    def ops(self, engine):
        oracle = self.shared["oracle"]
        for start in itertools.cycle(range(0, len(oracle.queries), RANGE_BLOCK)):
            # Each query is swept through every τ before the next one.
            for qi in range(start, start + RANGE_BLOCK):
                for tau in RANGE_TAUS:
                    yield self._range_op("range", engine, oracle, qi, tau)
            yield self._batch_op(engine, oracle, list(range(start, start + RANGE_BLOCK)))
            yield BLOCK_END

    def _batch_op(self, engine, oracle, block) -> Op:
        queries = [oracle.queries[qi] for qi in block]

        def settle(results):
            problems = []
            for qi, result in zip(block, results):
                truth = oracle.truth(qi, BATCH_TAU)
                self.run.account_answer(result, truth)
                problems += check_range("none", result.candidates, result.matches, False, truth)
            self.run.counters["batch_queries"] += len(block)
            self.run.counters["batch_ta_searches"] += sum(
                getattr(r.stats, "ta_searches", 0) for r in results
            )
            if len(results) != len(block):
                problems.append(Problem("short", None, f"{len(results)} of {len(block)} results"))
            return problems

        return Op(
            "batch",
            lambda: engine.batch_range_query(queries, tau=BATCH_TAU),
            settle,
            units=len(block),
        )


class CloneExact(Workload):
    """Answer-heavy exact search and kNN over planted near-copies."""

    name = "clone-exact"
    primary = "exact"
    secondary = "knn"

    @classmethod
    def prepare(cls, inputs, workdir):
        return {"oracle": Oracle(inputs.queries, max(EXACT_TAUS)).fill(inputs.corpus)}

    def setup(self):
        engine = SegosIndex(self.inputs.corpus, config=EngineConfig())
        engine.range_query(self.inputs.warmup, tau=EXACT_TAUS[0], verify="exact")
        return engine

    def ops(self, engine):
        oracle = self.shared["oracle"]
        for start in itertools.cycle(range(0, len(oracle.queries), CLONE_BLOCK)):
            for qi in range(start, start + CLONE_BLOCK):
                for tau in EXACT_TAUS:
                    yield self._range_op("exact", engine, oracle, qi, tau, verify="exact")
                yield self._knn_op(engine, oracle, qi)
            yield BLOCK_END

    def _knn_op(self, engine, oracle, qi) -> Op:
        query = oracle.queries[qi]

        def settle(result):
            self.run.account(result.stats)
            self.run.counters["knn_rings"] += result.rings
            return check_knn(result.neighbours, KNN_K, oracle, qi, self.inputs.corpus)

        return Op("knn", lambda: knn_query(engine, query, k=KNN_K), settle)


class AidsIngest(Workload):
    """Writes mixed with τ=1 reads on the memory-mapped on-disk index."""

    name = "aids-ingest"
    primary = "query"
    secondary = "write"

    @classmethod
    def prepare(cls, inputs, workdir):
        base = os.path.join(workdir, "base")
        os.makedirs(base)
        save_index(SegosIndex(inputs.corpus, config=EngineConfig()), os.path.join(base, "db.segos"))
        oracle = Oracle(inputs.queries, INGEST_TAU).fill(inputs.corpus)
        return {"oracle": oracle, "base": base}

    def __init__(self, inputs, shared, workdir, run):
        super().__init__(inputs, shared, workdir, run)
        # Writes change the model and the truth, so each pass owns copies.
        self.oracle = shared["oracle"].copy()
        self.model = {gid: g.copy() for gid, g in inputs.corpus.items()}
        self.live = list(self.model)
        self.rng = random.Random(f"{inputs.workload}/{inputs.seed}/writes")
        self.path = ""
        self.added = 0

    def before_setup(self):
        live = tempfile.mkdtemp(prefix="live", dir=self.workdir)
        shutil.copytree(self.shared["base"], live, dirs_exist_ok=True)
        self.path = os.path.join(live, "db.segos")

    def setup(self):
        engine = load_index(self.path, mmap=True)
        engine.range_query(self.inputs.warmup, tau=INGEST_TAU)
        return engine

    def ops(self, engine):
        self.run.notes["fsync_policy"] = engine.config.fsync_policy
        self.run.notes["mapped_at_open"] = engine.disk_handle() is not None
        pool = len(self.oracle.queries)
        for writes in itertools.count(1):
            yield self._write_op(engine)
            yield self._range_op("query", engine, self.oracle, (writes - 1) % pool, INGEST_TAU)
            if writes % SAVE_EVERY == 0:
                yield Op("save", lambda: save_index(engine, self.path), lambda _r: [])
            yield BLOCK_END

    def _write_op(self, engine) -> Op:
        rng, model, oracle = self.rng, self.model, self.oracle
        kind = rng.choice(WRITE_KINDS)
        gid = rng.choice(self.live)
        graph = model[gid]
        if kind == "add":
            added = positional(mutate(rng, graph, rng.randint(1, 3), self.inputs.labels))
            gid = f"ins-{self.added:05d}"
            self.added += 1

            def apply():
                model[gid] = added
                self.live.append(gid)
                oracle.put(gid, added)

            return self._write(kind, lambda: engine.add(gid, added.copy()), apply)
        if kind == "remove":

            def apply():
                del model[gid]
                self.live.remove(gid)
                oracle.drop(gid)

            return self._write(kind, lambda: engine.remove(gid), apply)
        vertices = list(graph.vertices())
        if kind == "add_edge":
            free = [
                (u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :] if not graph.has_edge(u, v)
            ]
            if free:
                u, v = rng.choice(free)
                return self._edit(kind, gid, lambda g: g.add_edge(u, v), lambda: engine.add_edge(gid, u, v))
        if kind == "remove_edge" and graph.size:
            u, v = rng.choice(sorted(graph.edges()))
            return self._edit(kind, gid, lambda g: g.remove_edge(u, v), lambda: engine.remove_edge(gid, u, v))
        # relabel_vertex, and the fallback for a complete or edgeless graph
        vertex, label = rng.choice(vertices), rng.choice(self.inputs.labels)
        return self._edit(
            "relabel_vertex",
            gid,
            lambda g: g.relabel_vertex(vertex, label),
            lambda: engine.relabel_vertex(gid, vertex, label),
        )

    def _edit(self, kind, gid, change, call) -> Op:
        def apply():
            change(self.model[gid])
            self.oracle.put(gid, self.model[gid])

        return self._write(kind, call, apply)

    def _write(self, kind, call, apply) -> Op:
        def settle(_result):
            apply()
            self.run.counters["writes"] += 1
            self.run.counters[f"writes.{kind}"] += 1
            return []

        return Op("write", call, settle)

    def finish(self, engine):
        """Save, reopen REOPENS times, and hold the reopened engine to the model.

        Each ``load_index`` call is one checked operation, each gid in the
        model or the reopened engine one more, and each pool query asked
        of the reopened engine one more.
        """
        run = self.run
        start = time.perf_counter()
        save_index(engine, self.path)
        run.sample("save", time.perf_counter() - start)
        reopened = None
        for attempt in range(REOPENS):
            reopened = None  # drop the previous mapping before the next open
            start = time.perf_counter()
            try:
                reopened = load_index(self.path, mmap=True)
            except Exception as exc:  # the engine's failure, counted
                run.ledger.record_exception("reopen", exc, attempt)
                continue
            run.sample("reopen", time.perf_counter() - start)
            run.ledger.record("reopen", [], attempt)
        sizes = [os.path.getsize(p) for p in (self.path, self.path + ".segosx") if os.path.exists(p)]
        run.notes["disk_bytes_per_graph"] = sum(sizes) / max(1, len(self.model))
        if reopened is None:
            return
        by_gid: Dict[object, List[Problem]] = {}
        for problem in check_reopened(reopened, self.model):
            by_gid.setdefault(problem.gid, []).append(problem)
        for gid in sorted(set(self.model) | set(reopened.gids()), key=str):
            run.ledger.record("reopen-graph", by_gid.get(gid, []), gid)
        for qi, query in enumerate(self.oracle.queries):
            truth = self.oracle.truth(qi, INGEST_TAU)
            try:
                result = reopened.range_query(query, tau=INGEST_TAU)
            except Exception as exc:  # the engine's failure, counted
                run.ledger.record_exception("reopen-query", exc, qi)
                continue
            run.ledger.record(
                "reopen-query",
                check_range("none", result.candidates, result.matches, False, truth),
                qi,
            )


WORKLOAD_CLASSES = {cls.name: cls for cls in (AidsRange, CloneExact, AidsIngest)}
