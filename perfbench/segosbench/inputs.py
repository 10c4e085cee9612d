"""Seeded workload inputs: the corpus model and the query pools.

Everything a run feeds the engine is generated here from the workload name
and ``--seed``; the engine sees only the resulting graphs.  Every graph is
stored in *positional* form (vertex ids ``0..n-1`` in iteration order), the
form the on-disk text format round-trips, so the benchmark's model and a
reopened index can be compared id for id.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.workloads import clone_mass_workload
from repro.datasets import Dataset, aids_like, pdg_like
from repro.graphs.generators import mutate
from repro.graphs.model import Graph

WORKLOADS = ("aids-range", "clone-exact", "aids-ingest")

#: corpus size of the two aids-like workloads
AIDS_GRAPHS = 2000
#: pool of range queries cycled by ``aids-range``, in blocks of RANGE_BLOCK
RANGE_POOL = 36
RANGE_BLOCK = 4
#: pdg-like base corpus of ``clone-exact`` and its planted near-copies
CLONE_BASE = 1000
CLONE_QUERIES = 28
CLONE_BLOCK = 4
CLONES_PER_QUERY = 30
CLONE_EDITS = 2
#: query pool of ``aids-ingest`` (τ=1 reads between writes)
INGEST_POOL = 32
INGEST_BLOCK = 8


def positional(graph: Graph) -> Graph:
    """*graph* renumbered to ids ``0..n-1`` in its vertex iteration order."""
    order = list(graph.vertices())
    pos = {v: i for i, v in enumerate(order)}
    return Graph(
        [graph.label(v) for v in order],
        sorted((min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in graph.edges()),
    )


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs."""

    workload: str
    seed: int
    #: the benchmark's model of the corpus (gid -> graph)
    corpus: Dict[str, Graph]
    #: the query pool, in the order the run cycles it
    queries: List[Graph]
    #: a query outside the pool, used only by the warm-up call in set-up
    warmup: Graph
    #: the label alphabet mutations draw from
    labels: List[str]


def _dealt(ranked: list, block: int) -> list:
    """*ranked* dealt into blocks of *block*, blocks concatenated.

    The deal runs in snake order (left to right, then right to left), so
    every block holds an evenly spaced slice of the ranking with about the
    same rank sum, and any run of whole blocks has the pool's mix.
    """
    blocks = len(ranked) // block
    dealt: List[list] = [[] for _ in range(blocks)]
    for row in range(block):
        chunk = ranked[row * blocks : (row + 1) * blocks]
        for b, item in enumerate(chunk if row % 2 == 0 else chunk[::-1]):
            dealt[b].append(item)
    return [item for items in dealt for item in items]


def _stratified_members(rng: random.Random, corpus: Dict[str, Graph], count: int, block: int) -> List[str]:
    """*count* gids drawn with the corpus's own mix of graph orders.

    Query cost depends steeply on the query's order (small graphs at a
    large τ fall back to scanning), so the pool holds sources of each
    order in the corpus's own proportions (largest-remainder allocation).
    They are dealt into blocks of *block* (see :func:`_dealt`); a run
    stops only at a block boundary, so a run shorter than the pool still
    sees the pool's mix of orders.
    """
    by_order: Dict[int, List[str]] = {}
    for gid in sorted(corpus):
        by_order.setdefault(corpus[gid].order, []).append(gid)
    quotas = {order: count * len(gids) / len(corpus) for order, gids in by_order.items()}
    taken = {order: int(quota) for order, quota in quotas.items()}
    by_remainder = sorted(quotas, key=lambda order: (taken[order] - quotas[order], order))
    for order in by_remainder[: count - sum(taken.values())]:
        taken[order] += 1
    picked = []
    for order in sorted(by_order):
        members = rng.sample(by_order[order], taken[order])
        picked += sorted(members, key=lambda gid: (corpus[gid].size, gid))
    return _dealt(picked, min(block, count))


def _mutated_pool(rng, corpus, labels, count, block, max_edits) -> List[Graph]:
    """Stratified members, the i-th mutated by ``1 + i % max_edits`` edits."""
    return [
        positional(mutate(rng, corpus[gid], 1 + i % max_edits, labels))
        for i, gid in enumerate(_stratified_members(rng, corpus, count, block))
    ]


def _planted(rng: random.Random, dataset: Dataset, sources: List[str]) -> Tuple[Dict[str, Graph], List[Graph]]:
    """Section VI-E's clone mass around each of *sources*.

    Each source is planted through :func:`repro.bench.workloads.clone_mass_workload`
    on its own, so the sources keep the mix of :func:`_stratified_members`
    instead of a uniform draw.
    """
    corpus = dict(dataset.graphs)
    queries = []
    for qi, gid in enumerate(sources):
        alone = Dataset(dataset.name, {gid: dataset.graphs[gid]}, dataset.labels, dataset.seed)
        planted = clone_mass_workload(
            alone,
            1,
            clones_per_query=CLONES_PER_QUERY,
            clone_edits=CLONE_EDITS,
            seed=rng.randrange(2**32),
        )
        for ci in range(CLONES_PER_QUERY):
            corpus[f"clone-{qi}-{ci}"] = planted.graphs[f"clone-0-{ci}"]
        queries.append(planted.queries[0])
    return corpus, queries


def _shuffled(rng: random.Random, queries: List[Graph], block: int) -> List[Graph]:
    """*queries* with their blocks in an order drawn from *rng*; every
    block keeps its members and their order."""
    blocks = [queries[i : i + block] for i in range(0, len(queries), block)]
    rng.shuffle(blocks)
    return [q for members in blocks for q in members]


def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate *workload*'s inputs; the same seed gives the same inputs.

    The corpora and the query pools are fixed: the datasets' default
    corpora, and pools drawn once from a constant stream.  The seed draws
    the order in which the pool is sent and (in :mod:`.workloads`) the
    write stream.  Query costs vary by more than an order of magnitude
    from query to query, and pools drawn per seed made the run totals of
    two seeds differ by 10-15 %; with a fixed pool that a run covers
    whole, seed-to-seed spread is what the engine and the machine add.
    """
    rng = random.Random(f"{workload}/pool")
    if workload in ("aids-range", "aids-ingest"):
        dataset = aids_like(AIDS_GRAPHS)
        corpus = {gid: positional(g) for gid, g in dataset.graphs.items()}
        if workload == "aids-range":
            count, block, edits = RANGE_POOL, RANGE_BLOCK, 3
        else:
            count, block, edits = INGEST_POOL, INGEST_BLOCK, 1
        queries = _mutated_pool(rng, corpus, dataset.labels, count, block, edits)
        warmup = _mutated_pool(rng, corpus, dataset.labels, 1, 1, edits)[0]
    elif workload == "clone-exact":
        dataset = pdg_like(CLONE_BASE)
        block = CLONE_BLOCK
        sources = _stratified_members(rng, dataset.graphs, CLONE_QUERIES, block)
        sources += _stratified_members(rng, dataset.graphs, 1, 1)
        planted, queries = _planted(rng, dataset, sources)
        corpus = {gid: positional(g) for gid, g in planted.items()}
        *queries, warmup = [positional(q) for q in queries]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    queries = _shuffled(random.Random(f"{workload}/{seed}"), queries, block)
    return Inputs(workload, seed, corpus, queries, warmup, dataset.labels)


def _graph_record(graph: Graph) -> list:
    return [[graph.label(v) for v in graph.vertices()], sorted(graph.edges())]


def encode(inputs: Inputs) -> bytes:
    """Canonical bytes of everything the engine will be fed."""
    record = {
        "workload": inputs.workload,
        "seed": inputs.seed,
        "corpus": [[gid, _graph_record(g)] for gid, g in sorted(inputs.corpus.items())],
        "queries": [_graph_record(q) for q in inputs.queries],
        "warmup": _graph_record(inputs.warmup),
        "labels": list(inputs.labels),
    }
    return json.dumps(record, separators=(",", ":")).encode()


def digest(inputs: Inputs) -> str:
    """Short hash of :func:`encode`, printed with every run."""
    return hashlib.sha256(encode(inputs)).hexdigest()[:16]
