"""Ground truth and the answer checks.

Ground truth is exact GED (``repro.graphs.edit_distance``, A*) from each
pool query to every graph of the benchmark's own model of the corpus,
computed outside the timed region.  The checks hold the engine to what its
API promises and nothing more:

* ``verify="none"``: ``candidates ⊇ truth`` and ``matches ⊆ truth``;
* ``verify="exact"``: ``matches == truth`` and ``verified``;
* kNN: every returned distance is exact, at least *k* graphs come back,
  and every graph closer than the k-th returned distance is returned;
* reopen: the reopened engine holds exactly the model's gids, each with
  the model's labels and edges.

Each check returns a list of :class:`Problem`; an operation with any
problem counts as one failed operation in the :class:`Ledger`.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.errors import SearchBudgetExceeded
from repro.graphs.edit_distance import DEFAULT_BUDGET, graph_edit_distance, prepare_query
from repro.graphs.model import Graph

from .inputs import positional


class SetupError(Exception):
    """The run cannot be judged (for example the oracle ran out of budget)."""


@dataclass(frozen=True)
class Problem:
    """One wrong, missing or undecided part of an answer."""

    kind: str
    gid: object = None
    detail: str = ""


class Oracle:
    """Exact distances from each pool query to each model graph, up to ``limit``.

    ``table[qi]`` maps every gid with ``λ(query_qi, g) ≤ limit`` to that
    distance.  A pair on which A* exceeds its expansion budget is never
    skipped: it raises :class:`SetupError`.
    """

    def __init__(self, queries: Sequence[Graph], limit: int, budget: int = DEFAULT_BUDGET):
        self.queries = list(queries)
        self.limit = limit
        self.budget = budget
        self._prepared = [prepare_query(q) for q in self.queries]
        self.table: List[Dict[object, int]] = [{} for _ in self.queries]

    def distance(self, qi: int, graph: Graph, limit: int) -> Optional[int]:
        """``λ(query_qi, graph)`` if it is at most *limit*, else ``None``."""
        try:
            return graph_edit_distance(
                self.queries[qi],
                graph,
                threshold=limit,
                budget=self.budget,
                prepared=self._prepared[qi],
            )
        except SearchBudgetExceeded as exc:
            raise SetupError(f"oracle exceeded its A* budget on query {qi}: {exc}") from None

    def put(self, gid: object, graph: Graph) -> None:
        """(Re)compute every query's distance to *gid*."""
        for qi, row in enumerate(self.table):
            d = self.distance(qi, graph, self.limit)
            if d is None:
                row.pop(gid, None)
            else:
                row[gid] = d

    def drop(self, gid: object) -> None:
        for row in self.table:
            row.pop(gid, None)

    def fill(self, corpus: Mapping[object, Graph]) -> "Oracle":
        for gid, graph in corpus.items():
            self.put(gid, graph)
        return self

    def copy(self) -> "Oracle":
        """A copy whose table can change without touching this one."""
        other = copy.copy(self)
        other.table = [dict(row) for row in self.table]
        return other

    def truth(self, qi: int, tau: int) -> Set[object]:
        """``{g : λ(query_qi, g) ≤ tau}`` for ``tau ≤ limit``."""
        if tau > self.limit:
            raise ValueError(f"tau {tau} beyond the oracle limit {self.limit}")
        return {gid for gid, d in self.table[qi].items() if d <= tau}


def check_range(
    verify: str,
    candidates: Iterable[object],
    matches: Iterable[object],
    verified: bool,
    truth: Set[object],
) -> List[Problem]:
    """Hold one range answer to the contract of its ``verify`` mode."""
    candidates, matches = set(candidates), set(matches)
    problems = [Problem("false_match", gid) for gid in sorted(matches - truth, key=str)]
    if verify == "exact":
        problems += [Problem("missed", gid) for gid in sorted(truth - matches, key=str)]
        if not verified:
            problems.append(Problem("undecided", None, "verified=False"))
    else:
        problems += [Problem("missed", gid) for gid in sorted(truth - candidates, key=str)]
    return problems


def check_knn(
    neighbours: Sequence[tuple],
    k: int,
    oracle: Oracle,
    qi: int,
    corpus: Mapping[object, Graph],
) -> List[Problem]:
    """Hold one kNN answer to its contract (see module docstring)."""
    if len(neighbours) < k:
        return [Problem("short", None, f"{len(neighbours)} of {k} neighbours")]
    kth = max(d for _gid, d in neighbours)
    if kth <= oracle.limit:
        row = oracle.table[qi]
        exact = {gid: row.get(gid) for gid in corpus}
    else:
        exact = {gid: oracle.distance(qi, g, kth) for gid, g in corpus.items()}
    problems: List[Problem] = []
    returned = set()
    for gid, d in neighbours:
        returned.add(gid)
        if gid not in corpus:
            problems.append(Problem("unknown_gid", gid))
        elif exact[gid] != d:
            problems.append(Problem("wrong_distance", gid, f"returned {d}, exact {exact[gid]}"))
    for gid, d in exact.items():
        if d is not None and d < kth and gid not in returned:
            problems.append(Problem("missed", gid, f"distance {d} < k-th {kth}"))
    return problems


def _shape(graph: Graph) -> tuple:
    g = positional(graph)
    return [g.label(v) for v in g.vertices()], sorted(g.edges())


def _read_error(engine, gid) -> str:
    try:
        engine.graph(gid)
    except Exception as exc:  # any exception is the engine's failure
        return f"graph() raises {type(exc).__name__}"
    return ""


def check_reopened(engine, model: Mapping[object, Graph]) -> List[Problem]:
    """Compare a reopened engine's gid set and graphs with the model."""
    live = set(engine.gids())
    problems = [
        Problem("resurrected", gid, _read_error(engine, gid))
        for gid in sorted(live - set(model), key=str)
    ]
    problems += [Problem("lost", gid) for gid in sorted(set(model) - live, key=str)]
    for gid in sorted(set(model) & live, key=str):
        error = _read_error(engine, gid)
        if error:
            problems.append(Problem("unreadable", gid, error))
        elif _shape(engine.graph(gid)) != _shape(model[gid]):
            problems.append(Problem("changed", gid))
    return problems


@dataclass
class Ledger:
    """Attempted and failed operations, with every problem logged.

    An operation fails when it raises or when its reply has any problem.
    ``wrong`` counts the failed operations whose reply was wrong (as
    opposed to an exception with no reply): a run is correct only if no
    reply was wrong.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    by_kind: Counter = field(default_factory=Counter)
    log: List[str] = field(default_factory=list)

    def record(self, op: str, problems: Sequence[Problem], ref: object = None) -> bool:
        """Count one operation; True when it passed."""
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        self.wrong += any(p.kind != "exception" for p in problems)
        for p in problems:
            self.by_kind[f"{op}:{p.kind}"] += 1
            self.log.append(f"{op} #{ref}: {p.kind} gid={p.gid} {p.detail}".rstrip())
        return False

    def record_exception(self, op: str, exc: BaseException, ref: object = None) -> None:
        self.record(op, [Problem("exception", None, f"{type(exc).__name__}: {exc}")], ref)

    def absorb(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.by_kind.update(other.by_kind)
        self.log.extend(other.log)
