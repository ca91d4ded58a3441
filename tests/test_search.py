"""Exhaustive scan and simulated annealing against known small values."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dicycles.counting import count_cycle_copies, has_cycle_subgraph
from dicycles.graphs import DIRECTED, OrientedGraph, iterated_blowup_cycle_count
from dicycles.numtheory import ceil_cubic_value
from dicycles.search import (
    TooLargeError,
    _AnnealState,
    contains_forbidden,
    exhaustive_extremal,
    has_transitive_triangle,
    local_search_extremal,
    parse_forbidden,
    verify_formula,
)


def test_parse_forbidden():
    assert parse_forbidden([4, "C5", "TT3", "transitive_triangle"]) == (4, 5, "TT3", "TT3")
    with pytest.raises(ValueError):
        parse_forbidden(["pentagon"])
    with pytest.raises(ValueError):
        parse_forbidden([1])


def test_exhaustive_examples():
    assert exhaustive_extremal(4, 3, [4]).max_copies == 2
    assert exhaustive_extremal(5, 3, ["TT3"]).max_copies == 4
    record = exhaustive_extremal(5, 4, [3])
    assert record.max_copies == iterated_blowup_cycle_count(4, 5) == 2


def test_exhaustive_witnesses_verified():
    record = exhaustive_extremal(5, 3, [4])
    assert record.max_copies == 4
    assert record.witnesses
    for w in record.witnesses:
        assert count_cycle_copies(w, 3) == 4
        assert not has_cycle_subgraph(w, 4)


def test_exhaustive_deterministic_and_thread_invariant():
    a = exhaustive_extremal(5, 3, [5])
    b = exhaustive_extremal(5, 3, [5])
    c = exhaustive_extremal(5, 3, [5], threads=4, chunk_size=1 << 12)
    assert a.max_copies == b.max_copies == c.max_copies
    assert [w.arcs for w in a.witnesses] == [w.arcs for w in b.witnesses]
    assert [w.arcs for w in a.witnesses] == [w.arcs for w in c.witnesses]


def test_exhaustive_directed_mode_digons():
    # two vertices, digons allowed, nothing forbidden beyond size
    record = exhaustive_extremal(2, 2, [9], mode=DIRECTED)
    assert record.max_copies == 1
    # forbidding the digon itself forces an oriented graph
    record = exhaustive_extremal(3, 3, [2], mode=DIRECTED)
    assert record.max_copies == 1


def test_exhaustive_too_large():
    with pytest.raises(TooLargeError):
        exhaustive_extremal(7, 3, [4])


def test_exhaustive_monotone_in_n():
    values = [exhaustive_extremal(n, 3, [4]).max_copies for n in range(3, 6)]
    assert values == sorted(values)


def test_transitive_triangle_detection():
    from dicycles.graphs import new_graph

    assert has_transitive_triangle(new_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not has_transitive_triangle(new_graph(3, [(0, 1), (1, 2), (2, 0)]))


def test_local_search_lower_bounds():
    record = local_search_extremal(9, 3, [4], budget=150_000, seed=11)
    assert record.max_copies >= 27
    assert not contains_forbidden(record.witnesses[0], [4])

    record = local_search_extremal(7, 3, [6], budget=150_000, seed=11)
    assert record.max_copies >= 9


def test_local_search_respects_exhaustive_ceiling():
    for seed in (1, 2, 3, 4):
        local = local_search_extremal(5, 3, [4], budget=30_000, seed=seed)
        assert local.max_copies <= exhaustive_extremal(5, 3, [4]).max_copies


def test_local_search_deterministic_per_seed():
    a = local_search_extremal(6, 3, [5], budget=20_000, seed=3)
    b = local_search_extremal(6, 3, [5], budget=20_000, seed=3)
    assert a.max_copies == b.max_copies
    assert a.witnesses[0].arcs == b.witnesses[0].arcs


def test_anneal_incremental_count_matches_recount():
    # the arc-through path counts keep the running count exact, and a
    # rejected move leaves it unchanged
    for k, forbidden in ((3, [4]), (4, [3]), (5, [3])):
        rng = random.Random(k)
        state = _AnnealState(8, k, forbidden, "oriented")
        outcomes = set()
        peak = 0
        for _ in range(400):
            idx = rng.randrange(len(state.pairs))
            outcomes.add(state.try_set(idx, rng.randrange(3)) is None)
            assert state.count == count_cycle_copies(state.graph(), k)
            peak = max(peak, state.count)
        assert outcomes == {True, False} and peak > 0


def test_local_search_records_hold_under_optimize_flag():
    # python -O strips asserts; the annealer's rollback must not live in one
    script = """
import json
from dicycles.search import local_search_extremal
rows = []
for n, k, forbidden in [(8, 3, [4]), (8, 4, [3]), (7, 5, [3]), (9, 3, [5])]:
    for seed in range(3):
        r = local_search_extremal(n, k, forbidden, budget=2000, seed=seed)
        rows.append([n, k, forbidden, r.max_copies, sorted(r.witnesses[0].arcs)])
print(json.dumps(rows))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for n, k, forbidden, copies, arcs in json.loads(done.stdout):
        witness = OrientedGraph(n, [tuple(a) for a in arcs])
        assert count_cycle_copies(witness, k) == copies
        assert not contains_forbidden(witness, forbidden)


def test_local_search_directed_mode():
    record = local_search_extremal(4, 2, [3], budget=30_000, seed=5, mode=DIRECTED)
    assert record.max_copies >= 3
    assert not has_cycle_subgraph(record.witnesses[0], 3)


def test_verify_formula_tables():
    rows = verify_formula(3, [4], range(3, 6))
    assert all(r.match for r in rows)
    assert [r.predicted for r in rows] == [ceil_cubic_value(n) for n in range(3, 6)]

    rows = verify_formula(3, [5], range(3, 6))
    assert all(r.match for r in rows)

    rows = verify_formula(4, [3], range(4, 7))
    assert all(r.match for r in rows)
    assert [r.predicted for r in rows] == [iterated_blowup_cycle_count(4, n)
                                           for n in range(4, 7)]

    rows = verify_formula(5, [4], range(5, 7))
    assert all(r.match is None for r in rows)  # open problem: recorded, not asserted
    assert all(r.search_value >= 1 for r in rows)
