"""The benchmark's answer checks must turn wrong answers into failures.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import random

import pytest

from repro.config import EngineConfig
from repro.core.engine import SegosIndex
from repro.datasets import aids_like
from repro.errors import StaleSidecarError
from repro.graphs.generators import mutate
from segosbench.inputs import WORKLOADS, encode, make_inputs, positional
from segosbench.oracle import Ledger, Oracle, check_range, check_reopened


@pytest.fixture(scope="module")
def answered():
    """A real exact answer on a small corpus, with its oracle truth."""
    data = aids_like(40, seed=3)
    corpus = {gid: positional(g) for gid, g in data.graphs.items()}
    rng = random.Random(0)
    query = positional(mutate(rng, corpus["aids-00007"], 1, data.labels))
    truth = Oracle([query], 2).fill(corpus).truth(0, 2)
    engine = SegosIndex(corpus, config=EngineConfig())
    result = engine.range_query(query, tau=2, verify="exact")
    return corpus, result, truth


def _failed(problems) -> Ledger:
    ledger = Ledger()
    ledger.record("exact", problems, 0)
    return ledger


def test_correct_answer_passes(answered):
    _corpus, result, truth = answered
    assert truth
    problems = check_range("exact", result.candidates, result.matches, result.verified, truth)
    assert problems == []


def test_dropped_true_answer_is_a_failure(answered):
    _corpus, result, truth = answered
    dropped = sorted(truth)[0]
    matches = set(result.matches) - {dropped}
    problems = check_range("exact", result.candidates, matches, True, truth)
    assert [(p.kind, p.gid) for p in problems] == [("missed", dropped)]
    assert _failed(problems).failed == 1
    candidates = [gid for gid in result.candidates if gid != dropped]
    problems = check_range("none", candidates, set(), False, truth)
    assert [(p.kind, p.gid) for p in problems] == [("missed", dropped)]


def test_match_outside_truth_is_a_failure(answered):
    corpus, result, truth = answered
    outsider = sorted(set(corpus) - truth)[0]
    for verify in ("none", "exact"):
        problems = check_range(verify, result.candidates, set(result.matches) | {outsider}, True, truth)
        assert ("false_match", outsider) in [(p.kind, p.gid) for p in problems]
        assert _failed(problems).failed == 1


def test_undecided_exact_answer_is_a_failure(answered):
    _corpus, result, truth = answered
    problems = check_range("exact", result.candidates, result.matches, False, truth)
    assert [p.kind for p in problems] == ["undecided"]


class _ReopenedStub:
    """An engine whose gid list still holds a removed graph."""

    def __init__(self, graphs, resurrected=None):
        self.graphs = graphs
        self.resurrected = resurrected

    def gids(self):
        return [*self.graphs, *([self.resurrected] if self.resurrected else [])]

    def graph(self, gid):
        if gid == self.resurrected:
            raise StaleSidecarError(f"byte range for graph {gid!r} is inconsistent")
        return self.graphs[gid]


def test_resurrected_gid_is_a_failure(answered):
    corpus, _result, _truth = answered
    model = dict(corpus)
    removed = sorted(model)[0]
    del model[removed]
    stub = _ReopenedStub({gid: g.copy() for gid, g in model.items()}, removed)
    problems = check_reopened(stub, model)
    assert [(p.kind, p.gid) for p in problems] == [("resurrected", removed)]
    assert "StaleSidecarError" in problems[0].detail
    assert check_reopened(_ReopenedStub(model), model) == []


def test_changed_graph_is_a_failure(answered):
    corpus, _result, _truth = answered
    model = dict(corpus)
    gid = sorted(model)[1]
    edited = model[gid].copy()
    edited.relabel_vertex(next(iter(edited.vertices())), "XX")
    stub = _ReopenedStub({**model, gid: edited})
    assert [(p.kind, p.gid) for p in check_reopened(stub, model)] == [("changed", gid)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = encode(make_inputs(workload, 7))
    assert first == encode(make_inputs(workload, 7))
    assert first != encode(make_inputs(workload, 8))
