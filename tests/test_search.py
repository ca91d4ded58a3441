"""Exhaustive scan and simulated annealing against known small values."""

import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

from dicycles.counting import _simple_paths, count_cycle_copies, has_cycle_subgraph
from dicycles.graphs import (
    DIRECTED,
    ORIENTED,
    canonical_arcs,
    iterated_blowup_cycle_count,
    new_graph,
)
from dicycles.numtheory import ceil_cubic_value
from dicycles.search import (
    SearchError,
    TooLargeError,
    ExtremalRecord,
    _AnnealState,
    _check_witness,
    _cycle_arc_patterns,
    _decode,
    _forbidden_patterns,
    _through_paths,
    contains_forbidden,
    exhaustive_extremal,
    finite_prediction,
    has_transitive_triangle,
    local_search_extremal,
    parse_forbidden,
)


def test_parse_forbidden():
    assert parse_forbidden([4, "C5", "TT3", "transitive_triangle"]) == (4, 5, "TT3", "TT3")
    with pytest.raises(ValueError):
        parse_forbidden(["pentagon"])
    with pytest.raises(ValueError):
        parse_forbidden([1])


@pytest.mark.parametrize("item", [1, 0, -3, "C1", "C0", "c1"])
def test_parse_forbidden_rejects_short_lengths_in_both_spellings(item):
    with pytest.raises(SearchError, match="too small"):
        parse_forbidden([item])
    # the annealer rejects it before spending its budget
    with pytest.raises(SearchError):
        local_search_extremal(5, 3, [item], 100, 0)


def test_exhaustive_examples():
    assert exhaustive_extremal(4, 3, [4]).max_copies == 2
    assert exhaustive_extremal(5, 3, ["TT3"]).max_copies == 4
    record = exhaustive_extremal(5, 4, [3])
    assert record.max_copies == iterated_blowup_cycle_count(4, 5) == 2
    # one vertex: no extension step, the empty graph is the witness
    record = exhaustive_extremal(1, 3, [4])
    assert record.max_copies == 0
    assert [(w.n, len(w.arcs)) for w in record.witnesses] == [(1, 0)]


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
    c = exhaustive_extremal(5, 3, [5], threads=4)
    assert a.max_copies == b.max_copies == c.max_copies
    assert [w.arcs for w in a.witnesses] == [w.arcs for w in b.witnesses]
    assert [w.arcs for w in a.witnesses] == [w.arcs for w in c.witnesses]
    # at n = 5 every step is one block, so only the serial path runs; at
    # n = 6 the last step splits the C4-free graphs on 5 vertices into
    # many blocks, which the pool maps
    d = exhaustive_extremal(6, 3, [4])
    e = exhaustive_extremal(6, 3, [4], threads=4)
    assert d.max_copies == e.max_copies
    assert [w.arcs for w in d.witnesses] == [w.arcs for w in e.witnesses]


def test_exhaustive_directed_mode_digons():
    # two vertices, digons allowed, nothing forbidden beyond size
    record = exhaustive_extremal(2, 2, [9], mode=DIRECTED)
    assert record.max_copies == 1
    # forbidding the digon itself forces an oriented graph
    record = exhaustive_extremal(3, 3, [2], mode=DIRECTED)
    assert record.max_copies == 1


def _flat_scan(n, k, forbidden, mode):
    """Reference: every pair-state assignment at once, masked by the
    forbidden patterns; returns the maximum and the arcs of the canonically
    distinct graphs among its four smallest attaining masks."""
    pairs = list(combinations(range(n), 2))
    radix = 3 if mode == ORIENTED else 4
    # each assignment once, as a base-radix numeral whose digits are the states
    numerals = np.arange(radix ** len(pairs), dtype=np.int64)
    masks = np.zeros(numerals.size, np.int64)
    arc = {}
    for p, (u, v) in enumerate(pairs):
        state = numerals // radix ** p % radix  # both modes: bit 0 is u -> v, bit 1 is v -> u
        masks |= state << (2 * p)
        arc[u, v] = (state & 1).astype(bool)
        arc[v, u] = (state & 2).astype(bool)

    def matches(pats):
        total = np.zeros(numerals.size, np.int64)
        for pat in pats:
            total += np.logical_and.reduce([arc[a] for a in pat])
        return total

    counts = matches(_cycle_arc_patterns(n, k) if k <= n else [])
    counts[matches(_forbidden_patterns(n, forbidden)) > 0] = -1
    best = int(counts.max())
    witnesses, seen = [], set()
    for mask in np.sort(masks[counts == best])[:4]:
        g = _decode(int(mask), pairs, mode, n)
        key = canonical_arcs(g)
        if key not in seen:
            seen.add(key)
            witnesses.append(g.arcs)
    return best, witnesses


_FORBIDDEN_SETS = ([3], [4], [5], ["TT3"], [3, "TT3"], [9])
_DIFFERENTIAL = (
    [(n, k, f, ORIENTED) for n in range(2, 6) for k in range(2, n + 1) for f in _FORBIDDEN_SETS]
    + [(n, k, f, DIRECTED) for n in range(2, 5) for k in range(2, n + 1)
       for f in _FORBIDDEN_SETS + ([2, 4],)])


@pytest.mark.parametrize("n, k, forbidden, mode", _DIFFERENTIAL, ids=[
    f"{m}-n{n}-k{k}-{'_'.join(map(str, f))}" for n, k, f, m in _DIFFERENTIAL])
def test_exhaustive_matches_flat_scan(n, k, forbidden, mode):
    record = exhaustive_extremal(n, k, forbidden, mode)
    best, witnesses = _flat_scan(n, k, forbidden, mode)
    assert record.max_copies == best
    assert [w.arcs for w in record.witnesses] == witnesses


_BIPARTITE_C3_BLOWUP = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5),
                        (4, 0), (4, 1), (5, 0), (5, 1)]


def test_exhaustive_pinned_witnesses_at_six():
    # the witnesses the full 3^15 scan returned; at n = 6 the last step has
    # many blocks, so two threads share them
    for threads in (1, 2):
        record = exhaustive_extremal(6, 3, [4], threads=threads)
        assert record.max_copies == 8
        assert [sorted(w.arcs) for w in record.witnesses] == [_BIPARTITE_C3_BLOWUP]
    record = exhaustive_extremal(6, 3, ["TT3"])
    assert record.max_copies == 8
    assert [sorted(w.arcs) for w in record.witnesses] == [_BIPARTITE_C3_BLOWUP]
    record = exhaustive_extremal(6, 4, [3])
    assert record.max_copies == 4
    assert [sorted(w.arcs) for w in record.witnesses] == [
        [(0, 2), (0, 3), (1, 4), (1, 5), (2, 1), (3, 1), (4, 0), (5, 0)]]


def test_exhaustive_digon_mode_at_six():
    # forbidding digons leaves the oriented C4-free problem; its first
    # witness is the graph of mask 89298580, as the full 4^15 scan found
    record = exhaustive_extremal(6, 3, [2, 4], mode=DIRECTED)
    assert record.max_copies == 8 == ceil_cubic_value(6)
    assert sorted(record.witnesses[0].arcs) == _BIPARTITE_C3_BLOWUP
    pairs = list(combinations(range(6), 2))
    assert sorted(_decode(89298580, pairs, DIRECTED, 6).arcs) == _BIPARTITE_C3_BLOWUP


def test_exhaustive_too_large():
    with pytest.raises(TooLargeError):
        exhaustive_extremal(7, 3, [4])


def test_exhaustive_monotone_in_n():
    values = [exhaustive_extremal(n, 3, [4]).max_copies for n in range(3, 6)]
    assert values == sorted(values)


def test_transitive_triangle_detection():
    assert has_transitive_triangle(new_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not has_transitive_triangle(new_graph(3, [(0, 1), (1, 2), (2, 0)]))
    # against every vertex triple, in both modes
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(3, 7)
        mode = rng.choice([ORIENTED, DIRECTED])
        arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.35}
        if mode == ORIENTED:
            arcs = {(u, v) for u, v in arcs if u < v or (v, u) not in arcs}
        g = new_graph(n, arcs, mode)
        assert has_transitive_triangle(g) == any(
            {(u, v), (v, w), (u, w)} <= arcs for u, v, w in permutations(range(n), 3))


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


# (n, k, forbidden, budget, seed, mode, max_copies, witness arcs "uv ...")
# recorded from the annealer before its moves restored saved state instead
# of recounting; any change to the move logic or the random stream shows here
PINNED_ANNEAL = [
    (5, 3, [4], 3000, 0, ORIENTED, 4,
     "01 12 14 20 23 31 40 43"),
    (5, 4, [3], 3000, 1, ORIENTED, 2,
     "01 13 20 24 32 40 41"),
    (5, 3, ["TT3"], 2000, 2, ORIENTED, 4,
     "01 12 13 20 24 30 34 41"),
    (6, 3, [5], 3000, 3, ORIENTED, 8,
     "01 02 14 15 24 25 31 32 40 43 50 53"),
    (6, 4, [3], 3000, 4, ORIENTED, 4,
     "01 02 13 23 35 41 42 50 54"),
    (6, 3, [4], 4000, 5, ORIENTED, 8,
     "03 04 13 14 20 21 32 35 42 45 50 51"),
    (6, 5, [3], 3000, 6, ORIENTED, 4,
     "03 04 10 14 21 32 35 43 51 52"),
    (6, 3, [6], 2000, 7, ORIENTED, 7,
     "01 02 03 14 21 23 25 34 40 42 45 50 51 53"),
    (7, 3, [4], 5000, 8, ORIENTED, 12,
     "03 05 10 12 16 23 25 31 34 40 42 46 51 54 63 65"),
    (7, 3, [5], 4000, 9, ORIENTED, 12,
     "04 05 10 13 16 20 23 26 30 34 35 41 42 51 52 64 65"),
    (7, 3, ["TT3"], 4000, 10, ORIENTED, 12,
     "01 02 04 15 16 25 26 31 32 34 45 46 50 53 60 63"),
    (7, 4, [3], 5000, 11, ORIENTED, 7,
     "04 05 12 13 23 26 30 36 41 45 51 52 60 64"),
    (7, 5, [3], 3000, 12, ORIENTED, 12,
     "01 02 13 14 21 23 24 34 35 45 50 56 60 61 62"),
    (7, 3, [6], 3000, 13, ORIENTED, 9,
     "02 04 06 14 16 24 25 26 30 31 32 35 43 50 54 56 63"),
    (7, 4, [5], 3000, 14, ORIENTED, 8,
     "01 03 14 16 20 32 34 36 42 45 50 51 62 65"),
    (8, 3, [4], 5000, 15, ORIENTED, 18,
     "01 06 07 12 15 20 23 24 31 36 37 41 46 47 50 53 54 62 65 72 75"),
    (8, 4, [3], 4000, 16, ORIENTED, 16,
     "02 05 06 13 14 25 26 30 32 40 42 51 57 61 65 67 73 74"),
    (8, 3, [5], 3000, 17, ORIENTED, 12,
     "01 03 04 05 12 20 26 27 32 41 42 43 52 61 63 64 65 71 73 74 75"),
    (8, 5, [4], 3000, 18, ORIENTED, 12,
     "03 05 10 12 25 27 32 36 40 42 51 54 56 60 67 71 73 74"),
    (8, 4, [6], 3000, 19, ORIENTED, 20,
     "03 04 07 13 14 17 20 21 23 26 34 42 45 46 50 51 53 56 60 61 63 67 74"),
    (8, 3, ["TT3"], 5000, 20, ORIENTED, 18,
     "02 05 06 12 15 16 24 27 32 35 36 40 41 43 54 57 64 67 70 71 73"),
    (9, 3, [4], 5000, 21, ORIENTED, 27,
     "01 06 08 12 14 17 20 23 25 31 36 38 40 43 45 51 56 58 62 64 67 70 73 75 82 84 87"),
    (9, 4, [3], 3000, 22, ORIENTED, 17,
     "04 05 06 07 10 14 16 21 23 28 30 31 34 36 45 47 52 57 64 65 72 78 81 83 86"),
    (9, 3, [5, 6], 3000, 23, ORIENTED, 15,
     "06 10 13 14 15 17 20 23 24 25 27 30 35 36 46 56 61 62 68 70 75 76 80 83 84 85 87"),
    (9, 5, [3], 2000, 24, ORIENTED, 45,
     "01 05 08 12 14 17 26 27 30 31 35 38 42 46 47 51 58 60 63 65 76 81 82 84 87"),
    (10, 3, [4], 4000, 25, ORIENTED, 36,
     "02 03 06 12 13 16 24 25 27 34 35 37 40 41 48 49 50 51 58 59 64 65 67 70 71 78 79 82 83 86 92 93 96"),
    (10, 4, [3], 4000, 26, ORIENTED, 21,
     "01 05 12 15 19 25 26 29 30 34 40 41 42 57 59 60 63 67 68 73 74 78 80 84 93 96 97 98"),
    (10, 3, ["TT3"], 3000, 27, ORIENTED, 36,
     "01 03 07 15 16 18 21 23 27 35 36 38 41 43 47 50 52 54 59 60 62 64 69 75 76 78 80 82 84 89 91 93 97"),
    (10, 3, [6], 2000, 28, ORIENTED, 14,
     "03 06 08 13 14 16 20 27 37 39 43 46 50 53 56 57 69 78 82 83 85 90 91 94 95 98"),
    (4, 2, [3], 3000, 29, DIRECTED, 4,
     "01 03 10 12 21 23 30 32"),
    (5, 3, [2, 4], 3000, 30, DIRECTED, 4,
     "01 03 12 14 20 32 34 40"),
    (5, 4, [5], 3000, 31, DIRECTED, 6,
     "01 02 03 04 10 12 13 14 20 21 23 24 40 41 42 43"),
    (6, 4, [3], 3000, 32, DIRECTED, 18,
     "01 04 05 10 12 13 21 24 25 31 34 35 40 42 43 50 52 53"),
    (6, 3, [4], 3000, 33, DIRECTED, 8,
     "02 03 04 12 13 14 23 25 30 31 43 45 50 51 52 54"),
    # vertices in hexadecimal from here on.  n = 11 and 12 have 55 and 66
    # pairs, drawn as 6 and 7 bits with rejection; the k = 5 and C5 rows
    # send the counts and the checks through the three-interior formula
    (11, 3, [4], 3000, 34, ORIENTED, 48,
     "02 05 08 12 15 18 24 27 29 2a 32 35 38 40 41 43 46 54 57 59 5a 62 65 68 70 71 73 76 84 87 "
     "89 8a 90 91 93 96 a0 a1 a3 a6"),
    (11, 5, [3], 2000, 35, ORIENTED, 74,
     "08 0a 10 19 21 24 26 27 29 31 32 34 36 37 39 40 41 47 49 51 52 53 54 57 61 64 67 69 6a 70 "
     "71 79 82 83 85 86 8a 90 9a a5"),
    (11, 3, [5], 3000, 36, ORIENTED, 42,
     "02 03 05 12 13 15 26 27 29 2a 36 37 39 3a 42 43 45 48 56 57 59 5a 60 61 64 67 68 69 70 71 "
     "78 82 83 85 90 91 98 a0 a1 a4 a7 a8 a9"),
    (12, 4, [3], 3000, 37, ORIENTED, 72,
     "01 04 0a 14 17 18 20 23 25 26 29 2b 31 34 3a 47 48 50 53 56 5b 61 63 64 6a 72 75 79 82 85 "
     "89 90 93 96 9b a1 a7 a8 b1 b3 b4 ba"),
    (12, 3, [5], 3000, 38, ORIENTED, 12,
     "02 07 0a 10 21 29 34 41 42 46 47 48 49 4b 50 52 54 57 59 61 63 65 68 6a 71 72 79 80 81 82 "
     "83 85 87 8a 90 a1 a9 b2 b3 b5 b8 b9"),
    (12, 5, [4], 2000, 39, ORIENTED, 22,
     "0a 10 21 26 29 31 32 35 41 43 4a 4b 50 54 60 61 63 65 69 71 75 76 7a 82 83 84 87 90 91 95 "
     "97 a5 a8 b0 b1 b2 b5 b8"),
    (6, 5, [3], 3000, 40, DIRECTED, 8,
     "01 05 12 13 23 24 32 34 40 45 50 51"),
    (7, 5, [4], 3000, 41, DIRECTED, 16,
     "02 03 04 10 12 13 16 21 25 31 35 40 41 45 46 50 56 62 63 64"),
    (8, 5, [2, 3], 3000, 42, DIRECTED, 24,
     "02 06 10 13 27 30 32 36 40 41 43 50 51 53 54 62 67 71 74 75"),
]


@pytest.mark.parametrize("n,k,forbidden,budget,seed,mode,copies,arcs", PINNED_ANNEAL)
def test_local_search_pinned_records(n, k, forbidden, budget, seed, mode, copies, arcs):
    record = local_search_extremal(n, k, forbidden, budget=budget, seed=seed, mode=mode)
    assert record.max_copies == copies
    assert sorted(record.witnesses[0].arcs) == [(int(a[0], 16), int(a[1], 16)) for a in arcs.split()]


def test_anneal_incremental_count_matches_recount():
    # the through-arc path counts keep the running count exact; a forbidden
    # move really closes a forbidden pattern and leaves the graph and the
    # count unchanged, and revert() restores the graph and count from before
    # the last applied move.  k = 4 with C4 forbidden sends both the count
    # and the check through the two-interior formula, k = 5 and C5 through
    # the three-interior one; the digon cases move two arcs of one pair at
    # once and let paths turn back along a digon
    cases = ((ORIENTED, 3, [4]), (ORIENTED, 4, [3]), (ORIENTED, 5, [3]), (ORIENTED, 4, [4]),
             (ORIENTED, 3, ["TT3"]), (ORIENTED, 3, [5]), (DIRECTED, 3, [4]), (DIRECTED, 4, [5]),
             (DIRECTED, 4, [3]), (DIRECTED, 5, [3]))
    for mode, k, forbidden in cases:
        rng = random.Random(k)
        state = _AnnealState(8, k, forbidden, mode)
        outcomes = set()
        peak = 0
        for _ in range(400):
            before = (sorted(state.graph().arcs), state.count)
            idx = rng.randrange(len(state.pairs))
            new_state = rng.randrange(3 if mode == ORIENTED else 4)
            if state.try_set(idx, new_state) is None:
                outcomes.add("forbidden")
                assert (sorted(state.graph().arcs), state.count) == before
                moved = list(state.states)
                moved[idx] = new_state
                assert contains_forbidden(state.graph(moved), forbidden)
            elif rng.random() < 0.3:
                outcomes.add("reverted")
                state.revert()
                assert (sorted(state.graph().arcs), state.count) == before
            else:
                outcomes.add("applied")
                assert state.states[idx] == new_state
            g = state.graph()
            assert state.count == count_cycle_copies(g, k)
            assert not contains_forbidden(g, forbidden)
            peak = max(peak, state.count)
        assert outcomes == {"forbidden", "reverted", "applied"}
        assert (peak > 0) == (k not in forbidden)


def _brute_paths(out, start, end, arcs):
    """Simple paths start -> end with ``arcs`` arcs, by every ordered choice
    of their interior vertices."""
    others = [v for v in range(len(out)) if v not in (start, end)]
    return sum(all(out[a] >> b & 1 for a, b in zip((start,) + mid, mid + (end,)))
               for mid in permutations(others, arcs - 1))


def test_through_paths_three_interior_formula_matches_dfs_and_brute_force():
    rng = random.Random(2024)
    checked = hits = 0
    for trial in range(160):
        n = rng.randint(2, 12)
        mode = (ORIENTED, DIRECTED)[trial % 2]
        density = rng.choice((0.2, 0.4, 0.6, 0.9))
        out, inn = [0] * n, [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < density:
                if mode == DIRECTED and rng.random() < 0.4:
                    pair = ((u, v), (v, u))  # a digon
                else:
                    pair = ((u, v),) if rng.random() < 0.5 else ((v, u),)
                for a, b in pair:
                    out[a] |= 1 << b
                    inn[b] |= 1 << a
        for start, end in rng.sample(list(permutations(range(n), 2)), min(6, n * (n - 1))):
            expected = _brute_paths(out, start, end, 4)
            assert _through_paths(out, inn, start, end, 4) == expected
            assert _simple_paths(out, start, 4, ~(1 << end), 1 << end) == expected
            # with a limit only "at least one" has to agree
            assert (_through_paths(out, inn, start, end, 4, limit=1) >= 1) == (expected >= 1)
            checked += 1
            hits += expected > 0
    assert checked > 500 and hits > 100


def _reference_annealer(n, k, forbidden, budget, seed, mode=ORIENTED):
    """The annealer's move loop as it was with two ``randrange`` calls per
    move: the reference for the inlined ``getrandbits`` draws."""
    rng = random.Random(seed)
    state = _AnnealState(n, k, forbidden, mode)
    n_states = 3 if mode == ORIENTED else 4
    n_pairs = len(state.pairs)
    states = state.states
    best_count = 0
    best_states = list(states)
    t0, t_end = 1.0, 0.02
    cooling = (t_end / t0) ** (1.0 / max(budget, 1))
    temperature = t0
    stagnation = 0
    restart_after = max(budget // 10, 1000)
    for _ in range(budget):
        temperature *= cooling
        if stagnation >= restart_after:
            temperature = t0
            stagnation = 0
        idx = rng.randrange(n_pairs)
        new_state = rng.randrange(n_states)
        if new_state == states[idx]:
            continue
        delta = state.try_set(idx, new_state)
        if delta is None:
            stagnation += 1
            continue
        if delta < 0 and rng.random() >= math.exp(delta / temperature):
            state.revert()
            stagnation += 1
            continue
        if state.count > best_count:
            best_count = state.count
            best_states = list(states)
            stagnation = 0
        else:
            stagnation += 1
    best_graph = state.graph(best_states)
    _check_witness(best_graph, k, forbidden, best_count)
    return ExtremalRecord(n, k, parse_forbidden(forbidden), mode, best_count,
                          (best_graph,), "local_search", budget)


@pytest.mark.parametrize("mode", [ORIENTED, DIRECTED])
def test_anneal_draws_match_randrange_reference(mode, monkeypatch):
    # n = 2..12 gives 1..66 pairs, drawn with 1..7 bits; directed mode
    # draws its 4 states with 3 bits and rejects half of them.  Both runs
    # must give the same record and leave their generators in the same state
    generators = []

    class Kept(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            generators.append(self)

    monkeypatch.setattr(random, "Random", Kept)
    targets = (((3, [4]), (4, [3]), (3, [5]), (5, [3])) if mode == ORIENTED
               else ((2, [3]), (3, [4]), (5, [3]), (4, [2, 5])))
    for n in range(2, 13):
        for i, (k, forbidden) in enumerate(targets):
            seed = 100 * n + i
            got = local_search_extremal(n, k, forbidden, 1200, seed, mode)
            expected = _reference_annealer(n, k, forbidden, 1200, seed, mode)
            assert got == expected, (n, k, forbidden)
            assert generators[-2].getstate() == generators[-1].getstate(), (n, k, forbidden)
    assert len(generators) == 2 * 11 * len(targets)


def test_local_search_below_two_vertices_returns_the_empty_graph_without_drawing(monkeypatch):
    # with no pair to draw, one draw would already be a fault (and a draw
    # loop over zero pairs would never end), so the spy raises at the first
    class Spy(random.Random):
        def getrandbits(self, bits):
            raise AssertionError(f"drew {bits} bits")

        def random(self):
            raise AssertionError("drew a float")

    monkeypatch.setattr(random, "Random", Spy)
    for n in (0, 1):
        for mode in (ORIENTED, DIRECTED):
            record = local_search_extremal(n, 3, [4], 100, 0, mode)
            assert record.max_copies == 0 == exhaustive_extremal(n, 3, [4], mode).max_copies
            assert [(w.n, len(w.arcs)) for w in record.witnesses] == [(n, 0)]
            assert record.method == "local_search" and record.search_budget == 100
    # a run with a pair does reach the spy
    with pytest.raises(AssertionError, match="drew 1 bits"):
        local_search_extremal(2, 2, [3], 10, 0)


@pytest.mark.parametrize("k", [1, 0, -2])
def test_local_search_rejects_k_below_two_before_its_budget(k):
    with pytest.raises(SearchError, match="k must be at least 2"):
        local_search_extremal(5, k, [4], 10**12, 0)
    with pytest.raises(SearchError, match="k must be at least 2"):
        exhaustive_extremal(5, k, [4])


def test_local_search_rejects_a_negative_budget():
    # a budget of -5 ran no move and reported "search_budget": -5
    with pytest.raises(SearchError, match="budget must be non-negative"):
        local_search_extremal(5, 3, [4], -5, 0)
    assert local_search_extremal(5, 3, [4], 0, 0).search_budget == 0


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
        witness = new_graph(n, [tuple(a) for a in arcs])
        assert count_cycle_copies(witness, k) == copies
        assert not contains_forbidden(witness, forbidden)


def test_local_search_directed_mode():
    record = local_search_extremal(4, 2, [3], budget=30_000, seed=5, mode=DIRECTED)
    assert record.max_copies >= 3
    assert not has_cycle_subgraph(record.witnesses[0], 3)


def test_verify_formula_tables():
    def search_values(k, forbidden, n_range):
        return [exhaustive_extremal(n, k, forbidden).max_copies for n in n_range]

    predict = finite_prediction(3, [4])
    values = search_values(3, [4], range(3, 6))
    assert values == [predict(n) for n in range(3, 6)]
    assert values == [ceil_cubic_value(n) for n in range(3, 6)]

    predict = finite_prediction(3, [5])
    assert search_values(3, [5], range(3, 6)) == [predict(n) for n in range(3, 6)]

    predict = finite_prediction(4, [3])
    values = search_values(4, [3], range(4, 7))
    assert values == [predict(n) for n in range(4, 7)]
    assert values == [iterated_blowup_cycle_count(4, n) for n in range(4, 7)]

    assert finite_prediction(5, [4]) is None  # open problem: recorded, not asserted
    assert all(value >= 1 for value in search_values(5, [4], range(5, 7)))
