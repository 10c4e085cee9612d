"""One benchmark run: prepare, set up, measure, check, report.

``--trace 0`` measures the end-to-end metrics: set-up is repeated
``SETUP_REPS`` times (median reported), then the workload's closed loop
runs a fixed number of blocks, ``--seconds`` times the workload's
``BLOCKS_PER_SECOND``.  Fixed work, not a time budget, makes the same seed
send the same operations on every run, so ``attempted`` and ``failed``
repeat exactly and only the times vary.

``--trace 1`` measures the per-layer metrics on a fixed prefix of
``COUNTED_OPS[workload]`` operations, run twice from a fresh set-up: once
untraced and once with spans recorded.  The fixed prefix makes every work
counter repeat exactly; the two passes give the tracing overhead and a
check that tracing changed no counter.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from .inputs import CLONE_BLOCK, CLONE_QUERIES, RANGE_BLOCK, RANGE_POOL, digest, make_inputs
from .oracle import SetupError
from .tracing import Tracer
from .workloads import BLOCK_END, WORKLOAD_CLASSES, Run, Workload

SETUP_REPS = 5
#: blocks of operations a timed run sends per second of ``--seconds``.
#: Calibrated on a 2-vCPU x86-64 VM so that the timed calls of a run take
#: about ``--seconds``, and a 30-second run covers the ``aids-range`` and
#: ``clone-exact`` pools exactly once (an ``aids-ingest`` block is one
#: write and one read).
BLOCKS_PER_SECOND = {
    "aids-range": RANGE_POOL / RANGE_BLOCK / 30,
    "clone-exact": CLONE_QUERIES / CLONE_BLOCK / 30,
    "aids-ingest": 200 / 30,
}
#: a timed run stops early, at a block end, once its measured loop has
#: taken this long, so an engine many times slower still ends in time
WALL_CAP_S = 110.0
#: operations per pass of a traced run (whole blocks of the pool)
COUNTED_OPS = {"aids-range": 52, "clone-exact": 48, "aids-ingest": 150}


def run_blocks(name: str, seconds: float) -> int:
    """Blocks a timed run of *seconds* sends."""
    return max(1, round(seconds * BLOCKS_PER_SECOND[name]))


def tail(samples: List[float]) -> Tuple[float, float]:
    """The mean latency at and beyond the tail percentile.

    The tail percentile is the highest one with at least 10 samples beyond
    it, so the tail holds the 11 slowest samples.  Their mean, not the
    11th-slowest alone, is reported: the single order statistic carries
    the timing noise of one sample and moved about twice as much between
    runs of the same seed.  Returns ``(value, percentile)``; with 10 samples or
    fewer no such percentile exists and the maximum is returned with
    percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return statistics.mean(ordered[n - 11 :]), 100.0 * (n - 10) / n


def _clear_sed_memo() -> None:
    """Empty the process-global SED memo, where the program still has one."""
    try:
        from repro.perf.sed_cache import sed_cache_clear
    except ImportError:
        return
    sed_cache_clear()


def _setup(workload: Workload, reps: int):
    """Set the engine up *reps* times from the same state; keep the last.

    The kept engine is then moved to the collector's permanent generation
    (``gc.freeze``), as a long-running server would after start-up: full
    collections during the run otherwise rescan the whole index at
    unpredictable points, which made single-query latencies jump by
    100-200 ms.  Everything the run itself allocates is still collected.
    """
    times = []
    engine = None
    for _ in range(reps):
        engine = None
        gc.unfreeze()
        _clear_sed_memo()
        workload.before_setup()
        gc.collect()
        start = time.perf_counter()
        engine = workload.setup()
        times.append(time.perf_counter() - start)
    gc.collect()
    gc.freeze()
    return engine, statistics.median(times)


def _measure(workload: Workload, engine, *, blocks: Optional[int] = None, count: Optional[int] = None) -> None:
    """The closed loop: one request at a time, each checked before the next.

    Runs *blocks* whole blocks, or the first *count* operations.
    """
    run = workload.run
    tracer = run.tracer
    cap = time.perf_counter() + WALL_CAP_S
    index = 0
    done = 0
    for op in workload.ops(engine):
        if op is BLOCK_END:
            done += 1
            if done == blocks:
                break
            if time.perf_counter() > cap:
                run.notes["stopped_at_wall_cap"] = f"after {done} of {blocks} blocks"
                break
            continue
        if count is not None and index >= count:
            break
        index += 1
        if tracer is not None:
            tracer.qid = index
        run.ops += 1
        start = time.perf_counter()
        try:
            with tracer.span(f"op.{op.kind}") if tracer is not None else nullcontext():
                reply = op.call()
        except Exception as exc:  # the engine's failure: counted, run goes on
            run.timed_seconds += time.perf_counter() - start
            run.ledger.record_exception(op.kind, exc, index)
            continue
        elapsed = time.perf_counter() - start
        run.timed_seconds += elapsed
        run.sample(op.kind, elapsed / op.units)
        run.ledger.record(op.kind, op.settle(reply), index)


def _ms(samples: List[float]) -> List[float]:
    return [s * 1000.0 for s in samples]


def end_to_end_metrics(workload: Workload, setup_s: float) -> Dict[str, dict]:
    run = workload.run
    for kind in (workload.primary, workload.secondary):
        if kind not in run.latencies:
            raise SetupError(f"no {kind} operation succeeded, so its latency is unmeasured")
    primary = _ms(run.latencies[workload.primary])
    secondary = _ms(run.latencies[workload.secondary])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "query_p50_ms": {"value": statistics.median(primary), "unit": "ms"},
        "query_tail_ms": {"value": tail(primary)[0], "unit": "ms"},
        "query_mean_ms": {"value": statistics.mean(primary), "unit": "ms"},
        "secondary_mean_ms": {"value": statistics.mean(secondary), "unit": "ms"},
        "ops_per_s": {"value": run.ops / run.timed_seconds, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def per_layer_metrics(untraced: Run, traced: Run, tracer: Tracer) -> Dict[str, dict]:
    c = traced.counters
    calls = tracer.calls()
    self_s = tracer.self_seconds()
    total_s = tracer.total_seconds()
    counts = tracer.counts
    lookups = c["sed_cache_hits"] + c["sed_cache_misses"]
    save = untraced.latencies.get("save")
    reopen = untraced.latencies.get("reopen")
    values = {
        "ta_search.calls": (c["ta_searches"], "count"),
        "ta_search.self_s": (self_s["ta_search"], "s"),
        "ta_search.rows_scored": (c["topk_scan_width"] + c["ta_accesses"], "count"),
        "graph_lists.self_s": (self_s["graph_lists"], "s"),
        "graph_lists.entries_built": (counts["graph_lists.entries_built"], "count"),
        "ca_search.self_s": (self_s["ca_search"], "s"),
        "ca_search.entries_scanned": (c["list_entries_scanned"], "count"),
        "ca_search.graphs_accessed": (c["graphs_accessed"], "count"),
        "ca_search.full_mu": (c["full_mapping_computations"], "count"),
        "matching.solves": (calls["matching"], "count"),
        "matching.cells": (counts["matching.cells"], "count"),
        "matching.self_s": (self_s["matching"], "s"),
        "sed.lookups": (lookups, "count"),
        "sed.hit_ratio": (_ratio(c["sed_cache_hits"], lookups), "ratio"),
        "plan.batch_ta_searches_per_query": (_ratio(c["batch_ta_searches"], c["batch_queries"]), "ratio"),
        "bounds.settles": (c["settled_by_bounds"], "count"),
        "bounds.self_s": (self_s["bounds"], "s"),
        "verify.self_s": (self_s["verify"], "s"),
        "astar.runs": (calls["astar"], "count"),
        "astar.expansions": (counts["astar.expansions"], "count"),
        "astar.self_s": (self_s["astar"], "s"),
        "knn.rings": (c["knn_rings"], "count"),
        "filter.candidates_per_answer": (_ratio(c["candidates_returned"], c["true_answers"]), "ratio"),
        "columnar.builds": (calls["columnar"], "count"),
        "columnar.self_s": (self_s["columnar"], "s"),
        "index.mutations": (calls["index"], "count"),
        "index.self_s": (self_s["index"], "s"),
        "diskcat.promote_s": (total_s["diskcat.promote"], "s"),
        "diskcat.append_delta_s": (total_s["diskcat.append_delta"], "s"),
        "diskcat.write_sidecar_s": (total_s["diskcat.write_sidecar"], "s"),
        "diskcat.bytes_written": (counts["diskcat.bytes_written"], "bytes"),
        "diskcat.lazy_parses": (calls["diskcat.lazy_parse"], "count"),
        "durability.fsyncs": (calls["durability.fsync"], "count"),
        "durability.fsync_s": (total_s["durability.fsync"], "s"),
        "persistence.replay_s": (total_s["persistence.replay"], "s"),
        "persistence.save_p50_ms": (statistics.median(_ms(save)) if save else 0.0, "ms"),
        "persistence.reopen_ms": (statistics.median(_ms(reopen)) if reopen else 0.0, "ms"),
        "diskcat.bytes_per_graph": (untraced.notes.get("disk_bytes_per_graph", 0.0), "bytes"),
        "trace.overhead_ratio": (_ratio(traced.timed_seconds - untraced.timed_seconds, untraced.timed_seconds), "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.counter_mismatches": (_counter_mismatches(untraced, traced), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _counter_mismatches(a: Run, b: Run) -> int:
    return sum(1 for key in set(a.counters) | set(b.counters) if a.counters[key] != b.counters[key])


def _report(workload: Workload, setup_s: Optional[float], extra: List[str]) -> None:
    """Human-readable account of the run, printed before the result line."""
    run = workload.run
    inputs = workload.inputs
    print(f"workload {inputs.workload} seed {inputs.seed} inputs {digest(inputs)} "
          f"graphs {len(inputs.corpus)} pool {len(inputs.queries)}")
    if setup_s is not None:
        print(f"  setup_s median of {SETUP_REPS}: {setup_s:.4f}")
    ledger = run.ledger
    print(f"  timed {run.ops} ops in {run.timed_seconds:.2f}s; checked: attempted {ledger.attempted}, "
          f"failed {ledger.failed} (wrong replies {ledger.wrong})")
    for kind, samples in sorted(run.latencies.items()):
        value, pct = tail(samples)
        print(f"  {kind:8s} n={len(samples):4d} p50={statistics.median(samples) * 1000:9.3f}ms "
              f"mean={statistics.mean(samples) * 1000:9.3f}ms tail(p{pct:.1f}+)={value * 1000:9.3f}ms")
    for key, value in sorted(run.notes.items()):
        print(f"  {key}: {value}")
    print("  counters: " + " ".join(f"{k}={v}" for k, v in sorted(run.counters.items())))
    for kind, n in sorted(run.ledger.by_kind.items()):
        print(f"  FAILED {kind}: {n}")
    for line in run.ledger.log[:20]:
        print(f"    {line}")
    for line in extra:
        print(f"  {line}")


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Run one workload and return the result object of the last output line."""
    cls = WORKLOAD_CLASSES[name]
    out = os.path.join(root, "perfbench", "out")
    workdir = os.path.join(out, f"work-{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        inputs = make_inputs(name, seed)
        shared = cls.prepare(inputs, workdir)
        if not trace:
            workload = cls(inputs, shared, workdir, Run())
            engine, setup_s = _setup(workload, SETUP_REPS)
            _measure(workload, engine, blocks=run_blocks(name, seconds))
            workload.finish(engine)
            _report(workload, setup_s, [])
            metrics = end_to_end_metrics(workload, setup_s)
            ledger = workload.run.ledger
        else:
            passes = []
            tracer = Tracer()
            for traced in (False, True):
                workload = cls(inputs, shared, workdir, Run(tracer if traced else None))
                engine, _ = _setup(workload, 1)
                if traced:
                    tracer.install()
                try:
                    _measure(workload, engine, count=COUNTED_OPS[name])
                    workload.finish(engine)
                finally:
                    tracer.uninstall()
                engine = None
                passes.append(workload)
            untraced, traced_wl = passes
            spans = os.path.join(out, f"spans-{name}-seed{seed}.jsonl")
            tracer.write_jsonl(spans)
            extra = [f"spans written to {os.path.relpath(spans, root)}"]
            if tracer.missing:
                extra.append("trace targets absent: " + ", ".join(tracer.missing))
            _report(traced_wl, None, extra)
            metrics = per_layer_metrics(untraced.run, traced_wl.run, tracer)
            ledger = traced_wl.run.ledger
            ledger.absorb(untraced.run.ledger)
        return {
            "correct": ledger.wrong == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
