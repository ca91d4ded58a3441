"""Counting operations: copies, walks, paths, clearing, neighbor condition."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicycles import counting
from dicycles.counting import (
    _simple_paths,
    arc_cycle_multiplicities,
    check_neighbor_condition,
    clear,
    count_closed_walks,
    count_cycle_copies,
    count_paths,
    count_report,
    enumerate_cycles,
    has_closed_walk,
    has_cycle_subgraph,
    vertex_cycle_counts,
)
from dicycles.constructions import ConstructionId, TooSmallError, closed_form_count, generate
from dicycles.graphs import (
    DIRECTED,
    ORIENTED,
    balanced_blow_up,
    bit_matrix,
    directed_cycle,
    new_graph,
    random_bipartite_orientation,
    twin_classes,
)
from dicycles.reproduce import _cyclic_sequences
from dicycles.search import has_transitive_triangle


def random_oriented(rng, n, p=0.5):
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < p / 2:
                arcs.append((u, v))
            elif r < p:
                arcs.append((v, u))
    return new_graph(n, arcs)


def naive_count(g, k):
    return sum(1 for pat in _cyclic_sequences(g.n, k)
               if all(a in g.arcs for a in pat))


def test_copy_count_examples():
    assert count_cycle_copies(directed_cycle(3), 3) == 1
    assert count_cycle_copies(balanced_blow_up(directed_cycle(3), 6), 3) == 8


def test_copy_count_matches_naive_enumeration():
    rng = random.Random(99)
    for _ in range(60):
        g = random_oriented(rng, rng.randint(3, 7), rng.choice([0.4, 0.8]))
        for k in range(3, g.n + 1):
            assert count_cycle_copies(g, k) == naive_count(g, k)


def test_digon_counting():
    g = new_graph(3, [(0, 1), (1, 0), (1, 2)], DIRECTED)
    assert count_cycle_copies(g, 2) == 1


def test_closed_walks_examples():
    assert count_closed_walks(directed_cycle(3), 3) == 3
    assert count_closed_walks(balanced_blow_up(directed_cycle(3), 6), 3) == 24
    g = random_bipartite_orientation(8, 1)
    assert count_closed_walks(g, 1) == 0
    empty = new_graph(0, [])
    assert count_closed_walks(empty, 3) == 0 and not has_closed_walk(empty, 3)


def test_digon_free_walk_identities():
    rng = random.Random(7)
    for _ in range(40):
        g = random_oriented(rng, rng.randint(3, 8), 0.7)
        assert count_closed_walks(g, 3) == 3 * count_cycle_copies(g, 3)
        assert count_closed_walks(g, 4) == 4 * count_cycle_copies(g, 4)


def test_has_closed_walk():
    g = balanced_blow_up(directed_cycle(4), 8)
    assert not has_closed_walk(g, 6)
    assert has_closed_walk(g, 8)
    pendant = new_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert has_closed_walk(pendant, 3)


def test_has_cycle_subgraph():
    from dicycles.constructions import ConstructionId, generate

    g = generate(ConstructionId("c5c7_bipartite_blobs"), 20)
    assert not has_cycle_subgraph(g, 7)
    assert has_cycle_subgraph(g, 5)
    assert not has_cycle_subgraph(new_graph(5, []), 3)


# one or two parameter choices of every construction kind
CONSTRUCTION_IDS = [
    ConstructionId("balanced_cycle_blowup", d=3),
    ConstructionId("balanced_cycle_blowup", d=5),
    ConstructionId("sparse_singleton_blowup", k=4),
    ConstructionId("sparse_singleton_blowup", k=6),
    ConstructionId("iterated_c4"),
    ConstructionId("c5c3_tournament_blobs"),
    ConstructionId("c5c7_bipartite_blobs"),
    ConstructionId("c5c7_bipartite_blobs", variant="opposite"),
    ConstructionId("c3c6_sparse"),
    ConstructionId("c7_chords_blowup"),
    ConstructionId("threshold_c7", c=0.3),
    ConstructionId("threshold_c7", c=0.7),
    ConstructionId("random_bipartite"),
    ConstructionId("complete_bipartite_digraph"),
    ConstructionId("c3_3t_sparse", t=2),
    ConstructionId("c3_3t_sparse", t=3),
]


def constructions_at(sizes):
    for cid in CONSTRUCTION_IDS:
        for n in sizes:
            try:
                yield cid.label(), generate(cid, n, seed=n)
            except TooSmallError:
                pass


def assert_existence_matches_copies(g):
    for ell in range(2, g.n + 1):
        assert has_cycle_subgraph(g, ell) == (count_cycle_copies(g, ell) > 0), (g.arcs, ell)


def test_has_cycle_subgraph_matches_enumeration():
    rng = random.Random(31)
    graphs = [random_oriented(rng, rng.randint(3, 7), 0.5) for _ in range(40)]
    graphs += [g for _, g in constructions_at(range(2, 13))]
    for g in graphs:
        if g.n <= 7:
            for ell in range(3, g.n + 1):
                assert has_cycle_subgraph(g, ell) == (naive_count(g, ell) > 0)
        assert_existence_matches_copies(g)


def test_has_cycle_subgraph_directed_c4_with_digons():
    # a digon pair gives closed 4-walks but no simple 4-cycle
    g = new_graph(4, [(0, 1), (1, 0)], DIRECTED)
    assert has_closed_walk(g, 4)
    assert not has_cycle_subgraph(g, 4)


def test_count_paths_examples():
    assert count_paths(directed_cycle(3), 3) == 3
    tt3 = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert count_paths(tt3, 3) == 1
    assert count_paths(balanced_blow_up(directed_cycle(3), 6), 2) == 12
    assert count_paths(directed_cycle(3), 1) == 3


def naive_paths(g, order):
    # vertex sequences of the given order whose consecutive pairs are arcs
    return sum(1 for seq in permutations(range(g.n), order)
               if all((seq[t], seq[t + 1]) in g.arcs for t in range(order - 1)))


def test_count_paths_matches_naive_enumeration():
    rng = random.Random(41)
    for _ in range(40):
        g = random_oriented(rng, rng.randint(2, 7), rng.choice([0.5, 0.9]))
        for order in range(1, g.n + 2):
            assert count_paths(g, order) == naive_paths(g, order)


def test_arc_multiplicities():
    assert set(arc_cycle_multiplicities(directed_cycle(3), 3).values()) == {1}
    g = balanced_blow_up(directed_cycle(3), 6)
    # 8 triangles, 3 arcs each, 12 arcs: 2 per arc (the per-vertex count is 4)
    mult = arc_cycle_multiplicities(g, 3)
    assert set(mult.values()) == {2}
    assert sum(mult.values()) == 3 * count_cycle_copies(g, 3)


def test_arc_multiplicities_sparse_construction():
    from dicycles.constructions import ConstructionId, generate

    g = generate(ConstructionId("c3c6_sparse"), 9)
    mult = arc_cycle_multiplicities(g, 3)
    # middle arcs (A to B) lie on exactly one triangle, hub arcs on |A| = |B|
    for (u, v), m in mult.items():
        if u != 0 and v != 0:
            assert m == 1
        else:
            assert m == 4
    assert {arc for arc, m in mult.items() if m >= 2} == {a for a in g.arcs if 0 in a}


def test_vertex_cycle_counts():
    assert set(vertex_cycle_counts(directed_cycle(5), 5).values()) == {1}
    g = balanced_blow_up(directed_cycle(3), 6)
    assert set(vertex_cycle_counts(g, 3).values()) == {4}
    rng = random.Random(17)
    for _ in range(20):
        h = random_oriented(rng, rng.randint(3, 7), 0.7)
        for k in range(3, h.n + 1):
            tv = vertex_cycle_counts(h, k)
            assert sum(tv.values()) == k * count_cycle_copies(h, k)


def test_clear_pendant_and_fixed_point():
    pendant = new_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    result = clear(pendant, 3, 6)
    assert result.removed_arcs == 1 and result.removed_vertices == 1
    assert result.cleared.n == 3 and not result.is_fixed_point

    g = balanced_blow_up(directed_cycle(4), 8)
    result = clear(g, 4, 6)
    assert result.is_fixed_point and result.ell_walk_free

    tt3 = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    result = clear(tt3, 3, 4)
    assert result.cleared.n == 0 and result.removed_arcs == 3


@pytest.mark.parametrize("k", [3, 4])
def test_clear_rejects_ell_below_one_before_any_work(k):
    # at k = 4 the directed triangle clears to nothing, so the walk check
    # that once raised was never reached and clear returned ell_walk_free
    for ell in (0, -1):
        with pytest.raises(ValueError, match="walk length must be at least 1"):
            clear(directed_cycle(3), k, ell)


@pytest.mark.parametrize("k", [1, 0, -1])
def test_per_arc_counts_reject_k_below_two(k):
    # as count_cycle_copies does; k = 1 once gave every arc multiplicity 0,
    # so clear deleted the whole graph
    g = balanced_blow_up(directed_cycle(3), 6)
    for call in (lambda: count_cycle_copies(g, k), lambda: arc_cycle_multiplicities(g, k),
                 lambda: vertex_cycle_counts(g, k), lambda: clear(g, k, 6),
                 lambda: has_cycle_subgraph(g, k), lambda: list(enumerate_cycles(g, k)),
                 lambda: check_neighbor_condition(g, k, 3), lambda: count_report(g, k)):
        with pytest.raises(ValueError, match="cycle length must be at least 2"):
            call()


def test_clear_soundness_on_random_graphs():
    rng = random.Random(3)
    for _ in range(20):
        g = random_oriented(rng, rng.randint(4, 8), 0.6)
        cleared = clear(g, 3, 7).cleared
        if cleared.n:
            mult = arc_cycle_multiplicities(cleared, 3)
            assert all(m >= 1 for m in mult.values())


def test_neighbor_condition_holds_on_blow_up():
    g = balanced_blow_up(directed_cycle(3), 9)
    assert check_neighbor_condition(g, 3, 3).holds


def test_neighbor_condition_vacuous_on_acyclic():
    tt4 = new_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert check_neighbor_condition(tt4, 3, 3).holds


def test_neighbor_condition_violation_detected():
    g = balanced_blow_up(directed_cycle(4), 8)
    spiked = new_graph(8, list(g.arcs) + [(0, 1)])  # chord inside a blob
    report = check_neighbor_condition(spiked, 4, 4)
    assert not report.holds
    assert report.witness_vertex is not None
    cycle = set(report.witness_cycle)
    und = spiked.und_bits()
    assert bin(und[report.witness_vertex] & sum(1 << v for v in cycle)).count("1") > report.limit


def test_neighbor_condition_on_digons():
    # vertex 0 has a neighbour on the digon {0, 1}; k = 2 once held vacuously
    g = new_graph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (2, 0)], DIRECTED)
    report = check_neighbor_condition(g, 2, 5)
    assert (report.holds, report.limit) == (False, 0)
    assert (report.witness_vertex, report.witness_cycle) == (0, (0, 1))
    assert check_neighbor_condition(g, 2, 2).holds


def test_cleared_walkfree_graphs_have_no_transitive_triangle():
    # on k-cycle-supported graphs, no closed (k+1)-walk forces TT3-freeness
    from dicycles.constructions import ConstructionId, generate

    cases = [(ConstructionId("balanced_cycle_blowup", d=4), 12, 4),
             (ConstructionId("balanced_cycle_blowup", d=3), 12, 3),
             (ConstructionId("c5c3_tournament_blobs"), 12, 5),
             (ConstructionId("c5c7_bipartite_blobs"), 20, 5)]
    checked = 0
    for cid, n, k in cases:
        g = generate(cid, n)
        result = clear(g, k, k + 1)
        if result.ell_walk_free:
            assert not has_transitive_triangle(result.cleared)
            checked += 1
    assert checked >= 2


def test_cleared_graphs_avoid_small_cycles():
    # (k, m*x + k*y)-cleared graphs contain no m-cycle
    from dicycles.constructions import ConstructionId, generate

    cases = [(ConstructionId("balanced_cycle_blowup", d=4), 16, 4),
             (ConstructionId("balanced_cycle_blowup", d=5), 20, 5),
             (ConstructionId("c3c6_sparse"), 15, 3)]
    checked = 0
    for cid, n, k in cases:
        g = generate(cid, n)
        for m in (3, 4, 5):
            for x in (1, 2):
                for y in (0, 1, 2):
                    ell = m * x + k * y
                    if ell < 3 or (m == k and x == 1 and y == 0):
                        continue
                    result = clear(g, k, ell)
                    if result.ell_walk_free and result.cleared.n:
                        assert not has_cycle_subgraph(result.cleared, m)
                        checked += 1
    assert checked >= 10


def test_path_bound_on_triangle_free_samples():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(8, 20)
        g = random_bipartite_orientation(n, rng.randrange(1 << 20))
        assert not has_cycle_subgraph(g, 3)
        assert not has_transitive_triangle(g)
        for order in (4, 6, 8):
            assert count_paths(g, order) <= n * Fraction(n, 4) ** (order - 1)


def test_count_report_serialization():
    g = balanced_blow_up(directed_cycle(3), 6)
    report = count_report(g, 3, paths_up_to=3, per_arc=True, per_vertex=True)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["copies"] == "8"
    assert data["closed_walks"] == "24"
    assert data["paths"]["2"] == "12"
    assert all(v == "4" for v in data["per_vertex"].values())
    assert all(v == "2" for v in data["per_arc"].values())


def test_count_report_rejects_negative_paths_up_to():
    # -2 reported "paths": {}, where 0 omits the key
    g = balanced_blow_up(directed_cycle(3), 6)
    with pytest.raises(ValueError, match="paths_up_to must be non-negative"):
        count_report(g, 3, paths_up_to=-2)
    assert "paths" not in count_report(g, 3, paths_up_to=0).to_dict()


def test_enumerate_cycles_canonical():
    cycles = list(enumerate_cycles(balanced_blow_up(directed_cycle(3), 6), 3))
    assert len(cycles) == 8
    assert all(c[0] == min(c) for c in cycles)


def walk_trace_dp(g, length):
    # independent oracle: per-start DP over walk endpoints
    out = g.out_bits()
    total = 0
    for s in range(g.n):
        counts = {s: 1}
        for _ in range(length):
            nxt = {}
            for v, c in counts.items():
                nbrs = out[v]
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
                    u = low.bit_length() - 1
                    nxt[u] = nxt.get(u, 0) + c
            counts = nxt
        total += counts.get(s, 0)
    return total


def test_closed_walks_match_dp_and_dominate_copies():
    rng = random.Random(55)
    for _ in range(20):
        g = random_oriented(rng, rng.randint(3, 8), 0.7)
        for ell in range(1, 9):
            walks = count_closed_walks(g, ell)
            assert walks == walk_trace_dp(g, ell)
            if ell >= 2:
                assert walks >= ell * count_cycle_copies(g, ell)


# ---------------------------------------------------------------------------
# Frontier (n <= 64) against the depth-first counter and brute force
# ---------------------------------------------------------------------------


@st.composite
def small_digraphs(draw):
    # each vertex pair: no arc, one arc either way, or (directed mode) both
    n = draw(st.integers(2, 10))
    directed = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states = draw(st.lists(st.integers(0, 3 if directed else 2),
                           min_size=len(pairs), max_size=len(pairs)))
    arcs = [a for (u, v), c in zip(pairs, states)
            for a, bit in (((u, v), 1), ((v, u), 2)) if c & bit]
    return new_graph(n, arcs, DIRECTED if directed else ORIENTED)


def dfs_cycles(g, k):
    out, inn = g.out_bits(), g.in_bits()
    return sum(_simple_paths(out, s, k - 1, -1 << (s + 1), inn[s] & (-1 << (s + 1)))
               for s in range(g.n))


def dfs_paths(g, order):
    out = g.out_bits()
    return g.n if order == 1 else sum(_simple_paths(out, s, order - 1, -1, -1) for s in range(g.n))


def enumerated_arc_counts(g, k):
    mult = {arc: 0 for arc in g.arcs}
    for cyc in enumerate_cycles(g, k):
        for i in range(k):
            mult[(cyc[i], cyc[(i + 1) % k])] += 1
    return mult


def neighbor_violated(g, k, limit):
    und = g.und_bits()
    return any((und[w] & sum(1 << v for v in cyc)).bit_count() > limit
               for cyc in enumerate_cycles(g, k) for w in range(g.n))


def assert_valid_witness(g, k, report):
    cyc = report.witness_cycle
    assert len(cyc) == k and len(set(cyc)) == k and cyc[0] == min(cyc)
    assert all((cyc[i], cyc[(i + 1) % k]) in g.arcs for i in range(k))
    mask = sum(1 << v for v in cyc)
    assert (g.und_bits()[report.witness_vertex] & mask).bit_count() > report.limit


def assert_matches_oracles(g, lengths, orders):
    for k in lengths:
        mult = arc_cycle_multiplicities(g, k)
        copies = count_cycle_copies(g, k)
        assert copies == dfs_cycles(g, k)
        if counting._frontier_ok(g, k - 1):  # the trace route may have answered
            assert counting._frontier_count(g, k - 1, counting._above(g.in_bits())) == copies
        assert mult == enumerated_arc_counts(g, k)
        assert sum(mult.values()) == k * copies
        tv = {v: 0 for v in range(g.n)}
        for cyc in enumerate_cycles(g, k):
            for v in cyc:
                tv[v] += 1
        assert vertex_cycle_counts(g, k) == tv
        for d in (2, 3, 4, 5):
            report = check_neighbor_condition(g, k, d)
            assert report.holds == (not neighbor_violated(g, k, report.limit))
            if not report.holds:
                assert_valid_witness(g, k, report)
    for order in orders:
        assert count_paths(g, order) == dfs_paths(g, order)


@settings(max_examples=60)
@given(small_digraphs())
def test_frontier_matches_dfs_and_enumeration(g):
    assert counting._frontier_ok(g, g.n)
    assert_matches_oracles(g, range(2, g.n + 1), range(1, g.n + 2))


@settings(max_examples=40)
@given(small_digraphs().filter(lambda g: g.n <= 7))
def test_frontier_matches_brute_force(g):
    for k in range(2, g.n + 1):
        assert count_cycle_copies(g, k) == naive_count(g, k)
    for order in range(1, g.n + 1):
        assert count_paths(g, order) == naive_paths(g, order)


def frontier_closings(g, arcs, last=None, start_known=True, **kwargs):
    # sum mult over every (start, vertex set, closing vertex t) yielded;
    # where paths from different starts are merged, over (vertex set, t)
    got = Counter()
    for ends, vis, mult, start in counting._frontier(g, arcs, last, **kwargs):
        for e, v, m, s in zip(ends.tolist(), vis.tolist(), mult.tolist(), start.tolist()):
            for t in range(g.n):
                if e >> t & 1:
                    got[(s, v | 1 << t, t) if start_known else (v | 1 << t, t)] += m
    return got


def path_key(seq):
    return seq[0], sum(1 << v for v in seq), seq[-1]


@settings(max_examples=40)
@given(small_digraphs().filter(lambda g: g.n <= 7))
def test_frontier_yields_every_closing_once(g):
    # the engine's contract, against simple paths built by permutations:
    # paths from any start, canonical cycles (interior above the start,
    # closing into it), and paths from each start closing into it
    inn = g.in_bits()
    for arcs in range(1, g.n):
        paths = [seq for seq in permutations(range(g.n), arcs + 1)
                 if all((seq[t], seq[t + 1]) in g.arcs for t in range(arcs))]
        closing = [seq for seq in paths if inn[seq[0]] >> seq[-1] & 1]
        assert frontier_closings(g, arcs, start_known=False) == \
            Counter(path_key(seq)[1:] for seq in paths)
        assert frontier_closings(g, arcs, counting._above(inn), canonical=True) == \
            Counter(path_key(seq) for seq in closing if seq[0] == min(seq))
        assert frontier_closings(g, arcs, counting._uint64(inn), by_start=True) == \
            Counter(path_key(seq) for seq in closing)


def test_frontier_uses_the_top_bit_at_n_64():
    # vertex 63 (the uint64 sign bit) lies on cycles; as a canonical start
    # it has no vertex above it
    rng = random.Random(64)
    arcs = set(random_oriented(rng, 64, 0.08).arcs)
    cycle = [(57 + i, 57 + (i + 1) % 7) for i in range(7)]  # 57 -> ... -> 63 -> 57
    arcs = {a for a in arcs if (a[1], a[0]) not in cycle} | set(cycle)
    g = new_graph(64, arcs)
    assert counting._frontier_ok(g, 6)
    assert vertex_cycle_counts(g, 7)[63] >= 1
    assert_matches_oracles(g, (3, 4, 5, 7), (2, 4, 6))


def test_frontier_at_n_64_on_a_blow_up():
    g = balanced_blow_up(directed_cycle(4), 64)  # vertex 63 in the last blob
    # the trace route answers count_cycle_copies here, so ask the frontier
    assert counting._frontier_count(g, 3, counting._above(g.in_bits())) == 16 ** 4
    assert count_cycle_copies(g, 4) == 16 ** 4
    assert set(vertex_cycle_counts(g, 4).values()) == {16 ** 3}
    assert set(arc_cycle_multiplicities(g, 4).values()) == {16 ** 2}
    assert check_neighbor_condition(g, 4, 4).holds
    # the fifth vertex shares the start's blob
    assert count_paths(g, 5) == 64 * 16 ** 3 * 15


def test_more_than_64_vertices_use_the_dfs():
    g = balanced_blow_up(directed_cycle(3), 65)  # blobs 22, 22, 21
    assert not counting._frontier_ok(g, 2)
    # the trace route answers count_cycle_copies here, so ask the DFS
    assert dfs_cycles(g, 3) == count_cycle_copies(g, 3) == 22 * 22 * 21
    assert count_paths(g, 3) == 3 * 22 * 22 * 21
    tv = vertex_cycle_counts(g, 3)
    assert [tv[0], tv[22], tv[44]] == [22 * 21, 22 * 21, 22 * 22]
    mult = arc_cycle_multiplicities(g, 3)
    assert mult[(0, 22)] == 21 and mult[(44, 0)] == 22
    # every vertex has 2 neighbours on each triangle through the other blobs
    assert check_neighbor_condition(g, 3, 3).holds
    report = check_neighbor_condition(g, 3, 4)
    assert not report.holds
    assert_valid_witness(g, 3, report)


def twin_free_65():
    # a random 60-vertex graph and 5 isolated vertices: too few twins for
    # the twin route and too many vertices for the frontier, so the DFS
    # counts, and the isolated vertices change no count of the 60-vertex part
    core = random_oriented(random.Random(65), 60, 0.1)
    return core, new_graph(65, core.arcs)


def test_more_than_64_vertices_without_twins_use_the_dfs(monkeypatch):
    core, g = twin_free_65()
    assert counting._twins(g) is None and not counting._frontier_ok(g, 2)
    calls = spy(monkeypatch, "_simple_paths")
    for order in (3, 5):
        assert count_paths(g, order) == counting._frontier_count(core, order - 1, None)
    # k = 6 so that the trace route declines on the closed 3-walks
    assert not counting._Walks(g).are_cycles(6)
    assert count_cycle_copies(g, 6) == counting._frontier_count(core, 5, counting._above(core.in_bits()))
    mat = counting._arc_matrix(core, 6)
    assert arc_cycle_multiplicities(g, 6) == {(u, v): int(mat[u, v]) for (u, v) in core.arcs}
    assert calls["_simple_paths"] == 2 * 65 + 65


def test_int64_bound_falls_back_and_stays_exact():
    # a hub with out-degree 62 and a long directed path: 64 * 62**10 >= 2**63,
    # so paths and cycles with 10 arcs take the DFS
    arcs = [(0, v) for v in range(1, 63)] + [(v, v + 1) for v in range(1, 63)] + [(63, 0)]
    g = new_graph(64, arcs)
    assert not counting._frontier_ok(g, 10)
    # 53 path segments without the hub; with it, 10 chain vertices split
    # around the hub in 10 ways with 54 choices each, plus 54..63 -> 0
    assert count_paths(g, 11) == 53 + 10 * 54 + 1 == dfs_paths(g, 11)
    # the only 11-cycle: 0 -> 54 -> ... -> 63 -> 0
    assert count_cycle_copies(g, 11) == 1
    cycle = (0,) + tuple(range(54, 64))
    assert list(enumerate_cycles(g, 11)) == [cycle]
    assert {a for a, m in arc_cycle_multiplicities(g, 11).items() if m} == \
        {(cycle[i], cycle[(i + 1) % 11]) for i in range(11)}
    report = check_neighbor_condition(g, 11, 3)  # the hub sees all 10 others
    assert not report.holds and report.witness_vertex == 0 and report.witness_cycle == cycle


# ---------------------------------------------------------------------------
# Adjacency traces against the walk DP, the depth-first counter and brute
# force
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(small_digraphs())
def test_traces_match_walk_dp(g):
    for length in range(1, 10):
        walks = walk_trace_dp(g, length)
        assert count_closed_walks(g, length) == walks
        assert has_closed_walk(g, length) == (walks > 0)


@settings(max_examples=60)
@given(small_digraphs())
def test_trace_route_matches_dfs(g):
    for k in range(3, g.n + 1):
        cycles = dfs_cycles(g, k)
        if counting._Walks(g).are_cycles(k):
            assert count_closed_walks(g, k) == k * cycles
        elif g.mode == ORIENTED:
            assert k >= 6  # some closed 3-walk is needed to decline
        assert count_cycle_copies(g, k) == cycles
        assert has_cycle_subgraph(g, k) == (cycles > 0)
    assert_existence_matches_copies(g)


@settings(max_examples=40)
@given(small_digraphs().filter(lambda g: g.n <= 7))
def test_trace_route_matches_brute_force(g):
    for k in range(3, g.n + 1):
        if counting._Walks(g).are_cycles(k):
            assert count_closed_walks(g, k) == k * naive_count(g, k)


def test_trace_dtype_tiers_stay_exact():
    # the complete digraph on 10 vertices: M = J - I, so
    # tr(M^L) = 9**L + 9 * (-1)**L, and n * maxoutdeg**(L-1) = 10 * 9**(L-1)
    g = new_graph(10, [(u, v) for u in range(10) for v in range(10) if u != v], DIRECTED)
    # the bound crosses 2**53 between lengths 16 and 17
    for length, dtype in ((5, np.float64), (16, np.float64), (17, object), (18, object),
                          (30, object)):
        assert counting._walk_dtype(g, length) is dtype
        exact = 9 ** length + 9 * (-1) ** length
        assert count_closed_walks(g, length) == walk_trace_dp(g, length) == exact
    # 9**18 + 9 is odd and above 2**53, and 9**30 is above 2**63, so float64
    # would have lost the last digits and int64 would have overflowed
    assert 9 ** 18 + 9 > 2 ** 53 and 9 ** 30 > 2 ** 63


def test_object_tier_contracts_float64_half_powers():
    # the complete digraph on 10 vertices again: up to length 32 the half
    # powers pass the 2**53 bound and are taken in float64; from length 33
    # they do not, and are taken in Python integers (at length 50 their
    # entries pass 2**63); either way only the contraction is formed in
    # Python integers
    g = new_graph(10, [(u, v) for u in range(10) for v in range(10) if u != v], DIRECTED)
    for length, half_dtype in ((17, np.float64), (18, np.float64), (30, np.float64),
                               (32, np.float64), (33, object), (40, object), (50, object)):
        assert counting._walk_dtype(g, length) is object
        assert counting._walk_dtype(g, (length + 1) // 2) is half_dtype
        exact = 9 ** length + 9 * (-1) ** length
        assert count_closed_walks(g, length) == walk_trace_dp(g, length) == exact
    # M^a and M^b are not symmetric here, so the contraction must pair
    # M^a[u, v] with M^b[v, u]
    rng = random.Random(3)
    g = new_graph(30, [(u, v) for u in range(30) for v in range(30)
                       if u != v and rng.random() < 0.5], DIRECTED)
    for length in (14, 15):
        assert counting._walk_dtype(g, length) is object
        assert counting._walk_dtype(g, (length + 1) // 2) is np.float64
        assert count_closed_walks(g, length) == walk_trace_dp(g, length)


def test_boolean_power_stays_exact_on_long_walks():
    # blobs of 16 on a 4-cycle: unclipped, M^512 = M^256 @ M^256 would
    # overflow float64 to inf, and in M^3 @ M^512 the product 0 * inf = nan
    # would read as a closed walk of length 515
    g = balanced_blow_up(directed_cycle(4), 64)
    assert not has_closed_walk(g, 515)
    assert has_closed_walk(g, 516)


def test_trace_route_declines_on_short_closed_walks():
    # blobs of 2 on a triangle: closed 6-walks wind the triangle twice
    g = balanced_blow_up(directed_cycle(3), 6)
    assert not counting._Walks(g).are_cycles(6)
    assert count_closed_walks(g, 6) == 6 * 32
    assert count_cycle_copies(g, 6) == naive_count(g, 6) == 4
    # digons give closed 4-walks that are no 4-cycles
    k4 = new_graph(4, [(u, v) for u in range(4) for v in range(4) if u != v], DIRECTED)
    assert not counting._Walks(k4).are_cycles(4)
    assert count_closed_walks(k4, 4) == 3 ** 4 + 3
    assert count_cycle_copies(k4, 4) == naive_count(k4, 4) == 6
    # the same holds above 64 vertices, where the fallback is the DFS
    big = balanced_blow_up(directed_cycle(3), 66)
    assert count_cycle_copies(big, 6) == dfs_cycles(big, 6) != count_closed_walks(big, 6) // 6


# ---------------------------------------------------------------------------
# Twin classes against the frontier, the depth-first counter and enumeration
# ---------------------------------------------------------------------------


@st.composite
def random_blow_ups(draw):
    # a 2-5-vertex pattern whose blobs of 1-5 vertices are independent
    # sets, tournaments or (directed mode) complete digraphs, n <= 20
    directed = draw(st.booleans())
    p = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    states = draw(st.lists(st.integers(0, 3 if directed else 2), min_size=len(pairs),
                           max_size=len(pairs)).filter(any))
    sizes = draw(st.lists(st.integers(1, 5), min_size=p, max_size=p)
                 .filter(lambda s: sum(s) <= 20))
    # independent blobs are twin classes; listing them twice draws them more often
    blobs = ("independent", "independent", "tournament") + (("digon",) if directed else ())
    kinds = draw(st.lists(st.sampled_from(blobs), min_size=p, max_size=p))
    offset = [sum(sizes[:i]) for i in range(p)]
    blob = [range(offset[i], offset[i] + sizes[i]) for i in range(p)]
    arcs = [(u, v) for (i, j), c in zip(pairs, states)
            for (a, b), bit in (((i, j), 1), ((j, i), 2)) if c & bit
            for u in blob[a] for v in blob[b]]
    for i, kind in enumerate(kinds):
        inner = [(u, v) for u in blob[i] for v in blob[i] if u < v]
        if kind == "tournament":
            flips = draw(st.lists(st.booleans(), min_size=len(inner), max_size=len(inner)))
            arcs += [(v, u) if f else (u, v) for (u, v), f in zip(inner, flips)]
        elif kind == "digon":
            arcs += inner + [(v, u) for u, v in inner]
    return new_graph(sum(sizes), arcs, DIRECTED if directed else ORIENTED)


def all_twins(g):
    # the twin classes without the routing test, so every example reaches
    # the twin counters; built from the adjacency matrix, and checked
    # against the quotient the counters build from the masks
    label = twin_classes(g)
    first = [label.index(c) for c in range(max(label, default=-1) + 1)]
    succ = bit_matrix(g.out_bits(), g.n)[first][:, first]
    tw = counting._Twins(label, tuple(map(label.count, range(len(first)))),
                         [row.nonzero()[0].tolist() for row in succ])
    assert counting._twin_quotient(g, label) == tw
    return tw


# the depth-first and enumeration oracles run where they have at most this
# many cycles or paths to visit; the frontier runs on every example
_DFS_WORK = 20_000


@settings(max_examples=100)
@given(random_blow_ups())
def test_twin_route_matches_frontier_and_dfs(g):
    tw = all_twins(g)
    inn = g.in_bits()
    for k in range(3, min(8, g.n) + 1):
        expected = counting._frontier_count(g, k - 1, counting._above(inn))
        closings = counting._twin_closings(tw, k)
        assert sum(closings.values()) == k * expected
        assert count_cycle_copies(g, k) == expected
        mat = counting._arc_matrix(g, k)
        mult = counting._twin_arc_counts(g, tw, k)
        assert mult == {(u, v): int(mat[u, v]) for (u, v) in g.arcs}
        assert arc_cycle_multiplicities(g, k) == mult
        if expected <= _DFS_WORK:
            assert dfs_cycles(g, k) == expected
            assert enumerated_arc_counts(g, k) == mult
    for order in range(2, min(8, g.n) + 1):
        expected = counting._frontier_count(g, order - 1, None)
        assert counting._twin_paths(tw, order - 1) == expected
        assert count_paths(g, order) == expected
        if expected <= _DFS_WORK:
            assert dfs_paths(g, order) == expected


@pytest.mark.parametrize("cid, k", [
    (ConstructionId("balanced_cycle_blowup", d=5), 10),
    (ConstructionId("balanced_cycle_blowup", d=6), 12),
    (ConstructionId("c7_chords_blowup"), 7),
    (ConstructionId("complete_bipartite_digraph"), 6),
])
def test_twin_route_matches_closed_forms_at_n_60(cid, k):
    g = generate(cid, 60)
    assert counting._twins(g) is not None
    copies = count_cycle_copies(g, k)
    assert copies == closed_form_count(cid, 60, k)
    assert sum(arc_cycle_multiplicities(g, k).values()) == k * copies


def spy(monkeypatch, *names):
    # record the calls of the named counting helpers
    calls = {name: 0 for name in names}
    for name in names:
        def wrapper(*args, _name=name, _f=getattr(counting, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(counting, name, wrapper)
    return calls


def test_twin_route_taken_on_blow_ups_only(monkeypatch):
    calls = spy(monkeypatch, "_twin_paths", "_twin_closings", "_frontier_count", "_arc_matrix")
    g = random_bipartite_orientation(16, 3)
    assert counting._twins(g) is None
    # k = 8, since closed 4-walks keep the trace route from answering
    count_paths(g, 6), count_cycle_copies(g, 8), arc_cycle_multiplicities(g, 8)
    assert calls == {"_twin_paths": 0, "_twin_closings": 0, "_frontier_count": 2, "_arc_matrix": 1}
    g = balanced_blow_up(directed_cycle(4), 16)
    count_paths(g, 6), count_cycle_copies(g, 8), arc_cycle_multiplicities(g, 8)
    assert calls == {"_twin_paths": 1, "_twin_closings": 2, "_frontier_count": 2, "_arc_matrix": 1}


def clear_input(rng, n, d, pendants=3):
    # the C_d blow-up, three arcs inside blobs and pendant sources
    g = balanced_blow_up(directed_cycle(d), n)
    sizes = [n // d + (i < n % d) for i in range(d)]
    starts = [sum(sizes[:i]) for i in range(d)]
    extra = set()
    while len(extra) < 3:  # arcs inside a blob lie on no d-cycle
        i = rng.randrange(d)
        extra.add(tuple(sorted(rng.sample(range(starts[i], starts[i] + sizes[i]), 2))))
    for x in range(n, n + pendants):  # sources lie on no cycle at all
        extra.update((x, v) for v in rng.sample(range(n), rng.randint(2, 4)))
    return new_graph(n + pendants, g.arcs | extra), g


@pytest.mark.parametrize("d, n", [(4, 32), (5, 35), (6, 36)])
def test_twin_route_on_clear_inputs(monkeypatch, d, n):
    g, blow_up = clear_input(random.Random(d * n), n, d)
    mat = counting._arc_matrix(g, d)
    calls = spy(monkeypatch, "_power", "_twin_closings", "_arc_matrix")
    mult = arc_cycle_multiplicities(g, d)
    # every closed d-walk winds once around the blobs, so the trace rung answers
    assert calls == {"_power": 1, "_twin_closings": 0, "_arc_matrix": 0}
    assert mult == {(u, v): int(mat[u, v]) for (u, v) in g.arcs} == enumerated_arc_counts(g, d)
    calls = spy(monkeypatch, "arc_cycle_multiplicities")
    result = clear(g, d, d + 1)
    assert result.cleared == blow_up
    assert result.removed_vertices == 3 and result.removed_arcs == g.num_arcs - blow_up.num_arcs
    # deleting the arcs on no d-cycle keeps every d-cycle, so one pass suffices
    assert calls["arc_cycle_multiplicities"] == 1


@st.composite
def pattern_blow_ups(draw):
    # a 1-4-vertex pattern (digons in directed mode) with independent blobs
    # of 1-5 vertices
    directed = draw(st.booleans())
    p = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    states = draw(st.lists(st.integers(0, 3 if directed else 2), min_size=len(pairs),
                           max_size=len(pairs)))
    sizes = draw(st.lists(st.integers(1, 5), min_size=p, max_size=p))
    offset = [sum(sizes[:i]) for i in range(p)]
    blob = [range(offset[i], offset[i] + sizes[i]) for i in range(p)]
    arcs = [(u, v) for (i, j), c in zip(pairs, states)
            for (a, b), bit in (((i, j), 1), ((j, i), 2)) if c & bit
            for u in blob[a] for v in blob[b]]
    return new_graph(sum(sizes), arcs, DIRECTED if directed else ORIENTED)


@settings(max_examples=150)
@given(st.one_of(pattern_blow_ups(), small_digraphs()), st.integers(2, 7), st.integers(2, 6))
def test_twin_rung_decides_the_neighbour_condition(g, k, d):
    report = check_neighbor_condition(g, k, d)
    with mock.patch.object(counting, "_twins", return_value=None):
        assert check_neighbor_condition(g, k, d) == report
    if k > g.n:
        return
    # the rung is exact both ways on any graph's classes: every closing
    # state of the class walk is some labeled cycle
    assert counting._twin_neighbours_hold(all_twins(g), k, report.limit) == report.holds
    if count_cycle_copies(g, k) <= _DFS_WORK:
        assert report.holds == (not neighbor_violated(g, k, report.limit))


def neighbor_input(rng, k, d, n, plant):
    # the C_d blow-up and, with ``plant``, a vertex joined to floor(2k/d) + 1
    # vertices of one k-cycle through the blobs
    g = balanced_blow_up(directed_cycle(d), n)
    if not plant:
        return g
    sizes = [n // d + (i < n % d) for i in range(d)]
    per_blob = [rng.sample(range(sum(sizes[:i]), sum(sizes[:i + 1])), k // d) for i in range(d)]
    cycle = [per_blob[j % d][j // d] for j in range(k)]
    return new_graph(n + 1, list(g.arcs) + [(n, v) for v in rng.sample(cycle, 2 * k // d + 1)])


@pytest.mark.parametrize("k, d, n, plant", [
    (k, d, n, plant) for k, d, sizes in ((4, 4, (36, 40)), (6, 3, (21, 24)), (5, 5, (35, 40)))
    for n, plant in ((sizes[0], False), (sizes[1], False), (sizes[0], True))])
def test_neighbour_inputs_take_the_twin_rung(monkeypatch, k, d, n, plant):
    g = neighbor_input(random.Random(k * n), k, d, n, plant)
    limit = 2 * k // d
    expected = counting._neighbor_violation(g, k, limit)
    assert (expected is None) != plant
    assert counting._twins(g) is not None
    calls = spy(monkeypatch, "_twin_walks", "_neighbor_violation")
    report = check_neighbor_condition(g, k, d)
    assert calls["_twin_walks"] > 0
    # a holding blow-up never builds the frontier; a planted vertex falls
    # through to it and gets its witness
    assert calls["_neighbor_violation"] == int(plant)
    assert report == counting.NeighborConditionReport(
        expected is None, limit, *(expected or (None, None)))
    if plant:
        assert_valid_witness(g, k, report)


def test_count_report_builds_the_adjacency_matrix_once(monkeypatch):
    # it once built M for the copies, the closed walks and each path order
    g = random_bipartite_orientation(20, 5)
    expected = (count_cycle_copies(g, 8), count_closed_walks(g, 8),
                {i: count_paths(g, i) for i in range(1, 9)},
                arc_cycle_multiplicities(g, 8))
    calls = spy(monkeypatch, "adjacency_matrix")
    report = count_report(g, 8, paths_up_to=8, per_arc=True)
    assert calls["adjacency_matrix"] == 1
    assert (report.copies, report.closed_walks, report.paths, report.per_arc) == expected


def digon_mode_graph(rng, n, p):
    return new_graph(n, [(u, v) for u in range(n) for v in range(n)
                         if u != v and rng.random() < p], DIRECTED)


@pytest.mark.parametrize("route", ["twin", "frontier", "dfs"])
def test_digons_take_the_ladders_of_every_length(monkeypatch, route):
    # copies and existence come from the trace, tr(M^2) / 2, and the per-arc
    # counts from M itself; the graphs are those the twin classes, the
    # frontier and the cycle enumeration would otherwise count
    g = {"twin": generate(ConstructionId("complete_bipartite_digraph"), 12),
         "frontier": digon_mode_graph(random.Random(2), 12, 0.3),
         "dfs": digon_mode_graph(random.Random(70), 70, 0.05)}[route]
    assert (counting._twins(g) is not None) == (route == "twin")
    assert counting._frontier_ok(g, 1) == (route != "dfs")
    out, inn = g.out_bits(), g.in_bits()
    per_arc = {(u, v): inn[u] >> v & 1 for (u, v) in g.arcs}  # v -> u closes a digon
    digons = [(u, v) for (u, v), m in sorted(per_arc.items()) if m and u < v]
    assert digons and sum((o & i).bit_count() for o, i in zip(out, inn)) == 2 * len(digons)
    und = g.und_bits()
    calls = spy(monkeypatch, "_simple_count", "_twin_closings", "_arc_matrix", "enumerate_cycles")
    assert count_cycle_copies(g, 2) == len(digons) and has_cycle_subgraph(g, 2)
    assert calls["_simple_count"] == 0
    assert arc_cycle_multiplicities(g, 2) == per_arc
    assert vertex_cycle_counts(g, 2) == {v: (out[v] & inn[v]).bit_count() for v in range(g.n)}
    assert calls == {"_simple_count": 0, "_twin_closings": 0, "_arc_matrix": 0, "enumerate_cycles": 0}
    assert list(enumerate_cycles(g, 2)) == digons  # each once, lowest vertex first
    for d in (2, 3, 4, 5):
        report = check_neighbor_condition(g, 2, d)
        violated = any((und[w] & (1 << u | 1 << v)).bit_count() > report.limit
                       for u, v in digons for w in range(g.n))
        assert report.holds == (not violated), d
        if not report.holds:
            assert_valid_witness(g, 2, report)


def test_count_report_computes_per_arc_counts_once(monkeypatch):
    g, _ = clear_input(random.Random(1), 20, 4)
    per_arc, per_vertex = arc_cycle_multiplicities(g, 4), vertex_cycle_counts(g, 4)
    calls = spy(monkeypatch, "_arc_counts")
    report = count_report(g, 4, per_arc=True, per_vertex=True)
    assert calls["_arc_counts"] == 1
    assert report.per_arc == per_arc and report.per_vertex == per_vertex


@st.composite
def trace_rung_inputs(draw):
    # random oriented graphs at k = 3-5, ones without directed triangles at
    # k = 6, 7 and digon-mode ones at k = 2: every closed k-walk is a cycle
    family = draw(st.sampled_from(["oriented", "triangle_free", "digons"]))
    k = draw(st.integers(*{"oriented": (3, 5), "triangle_free": (6, 7), "digons": (2, 2)}[family]))
    n = draw(st.integers(k, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states = draw(st.lists(st.integers(0, 3 if family == "digons" else 2),
                           min_size=len(pairs), max_size=len(pairs)))
    out, inn = [0] * n, [0] * n
    for (u, v), c in zip(pairs, states):
        for (a, b), bit in (((u, v), 1), ((v, u), 2)):
            # an arc a -> b closes a directed triangle iff b reaches a in two steps
            if c & bit and not (family == "triangle_free" and out[b] & inn[a]):
                out[a] |= 1 << b
                inn[b] |= 1 << a
    arcs = [(a, b) for a in range(n) for b in range(n) if out[a] >> b & 1]
    return new_graph(n, arcs, DIRECTED if family == "digons" else ORIENTED), k


def refuse(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return fail


@settings(max_examples=150)
@given(trace_rung_inputs())
def test_trace_rung_counts_cycles_through_each_arc(case):
    g, k = case
    assert counting._Walks(g).are_cycles(k)
    with mock.patch.multiple(counting, **{name: refuse(name) for name in
                                          ("_twin_closings", "_arc_matrix", "enumerate_cycles")}):
        mult = arc_cycle_multiplicities(g, k)
    mat = counting._arc_matrix(g, k)
    assert mult == {(u, v): int(mat[u, v]) for (u, v) in g.arcs}
    assert mult == enumerated_arc_counts(g, k)
    assert sum(mult.values()) == k * count_cycle_copies(g, k)


def test_trace_rung_falls_through(monkeypatch):
    calls = spy(monkeypatch, "_power", "_twin_closings", "_arc_matrix")
    # closed 4-walks: the 8-cycles of a bipartite orientation are not all of
    # its closed 8-walks, so the frontier counts them
    g = random_bipartite_orientation(16, 3)
    assert counting._twins(g) is None and not counting._Walks(g).are_cycles(8)
    assert arc_cycle_multiplicities(g, 8) == enumerated_arc_counts(g, 8)
    assert calls == {"_power": 0, "_twin_closings": 0, "_arc_matrix": 1}
    # every closed 20-walk of a C20 blow-up is a 20-cycle, but with blobs of
    # 6, n * 6**18 >= 2**53 fails the float64 bound and the twin classes
    # count; with blobs of 5, n * 5**18 < 2**53 and the trace rung answers
    for n, blob in ((120, 6), (100, 5)):
        g = balanced_blow_up(directed_cycle(20), n)
        calls.update(dict.fromkeys(calls, 0))
        assert set(arc_cycle_multiplicities(g, 20).values()) == {blob ** 18}
        trace = n * blob ** 18 < 1 << 53
        assert calls == {"_power": int(trace), "_twin_closings": int(not trace), "_arc_matrix": 0}, n


def test_closed_walk_flags_match_has_closed_walk():
    rng = random.Random(11)
    for n in range(13):
        for _ in range(3):
            digons = new_graph(n, [(u, v) for u in range(n) for v in range(n)
                                   if u != v and rng.random() < 0.3], DIRECTED)
            for g in (random_oriented(rng, n, 0.6), digons):
                walks = counting._Walks(g)
                flags = [walks.closed(j) for j in range(1, 21)]
                assert flags == [has_closed_walk(g, j) for j in range(1, 21)], (n, g.arcs)


def test_walks_are_cycles_stops_at_the_first_short_closed_walk(monkeypatch):
    # blobs of 3 on a triangle: M^2 has an empty diagonal, M^3 does not, so
    # the check for length 8 stops after the products M^2 and M^3 of j = 2, 3
    calls = spy(monkeypatch, "_product")
    assert not counting._Walks(balanced_blow_up(directed_cycle(3), 9)).are_cycles(8)
    assert calls["_product"] == 2


def test_each_count_builds_the_adjacency_matrix_once(monkeypatch):
    calls = spy(monkeypatch, "adjacency_matrix", "_twin_closings", "_contract", "_frontier_count")
    bipartite = random_bipartite_orientation(20, 0)
    cases = [
        # the trace route
        (count_cycle_copies, random_oriented(random.Random(4), 12), 4, None),
        # the Möbius route: 10-cycles of a K10,10 orientation, and 7-vertex paths
        (count_cycle_copies, bipartite, 10, "_contract"),
        (count_paths, random_bipartite_orientation(40, 1), 7, "_contract"),
        # the twin route, after the closed 3-walks decline the trace
        (count_cycle_copies, balanced_blow_up(directed_cycle(3), 9), 6, "_twin_closings"),
        # existence: the closed-walk filter, the trace check, then the frontier
        (has_cycle_subgraph, random_oriented(random.Random(24), 24), 8, "_frontier_count"),
    ]
    for count, g, k, route in cases:
        for name in calls:
            calls[name] = 0
        count(g, k)
        assert calls["adjacency_matrix"] == 1, (count.__name__, k)
        assert route is None or calls[route] > 0, (count.__name__, k)


# ---------------------------------------------------------------------------
# Cycle existence on the copy counters' ladder
# ---------------------------------------------------------------------------


def test_long_cycle_check_on_a_blow_up_takes_no_dfs(monkeypatch):
    # the twin counters answer; the depth-first counter took 28 s here
    def dfs(*args, **kwargs):
        raise AssertionError("the depth-first counter ran")

    monkeypatch.setattr(counting, "_simple_paths", dfs)
    assert not has_cycle_subgraph(generate(ConstructionId("c3_3t_sparse", t=4), 40), 12)


def count_closings(monkeypatch):
    # record the closing chunks that callers take from every frontier run
    calls = {"close": 0}
    frontier = counting._frontier

    def wrapper(*args, **kwargs):
        for chunk in frontier(*args, **kwargs):
            calls["close"] += 1
            yield chunk

    monkeypatch.setattr(counting, "_frontier", wrapper)
    return calls


def test_existence_stops_the_frontier_at_the_first_cycle(monkeypatch):
    # twin-free, with closed 3-walks, so neither the twin counters nor the
    # trace answer, and with 29,937 8-cycles spread over many chunks
    g = random_oriented(random.Random(24), 24, 0.5)
    assert counting._twins(g) is None and not counting._Walks(g).are_cycles(8)
    calls = count_closings(monkeypatch)
    # the full count on the frontier itself: the counting ladder may take
    # the Möbius sum instead
    assert counting._frontier_count(g, 7, counting._above(g.in_bits())) == 29_937
    full, calls["close"] = calls["close"], 0
    assert has_cycle_subgraph(g, 8)
    assert calls["close"] < full


def test_existence_stops_the_dfs_between_starts(monkeypatch):
    _, g = twin_free_65()
    assert not counting._Walks(g).are_cycles(6)
    calls = spy(monkeypatch, "_simple_paths")
    assert has_cycle_subgraph(g, 6)
    assert 0 < calls["_simple_paths"] < 65


def grid_graphs():
    yield from constructions_at((5, 9, 14, 20, 30))
    rng = random.Random(2026)
    for i in range(200):
        n = rng.randint(3, 12)
        directed = i % 2 == 1
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                r = rng.random()
                if r < p / 2:
                    arcs.append((u, v))
                elif r < p:
                    arcs.append((v, u))
                if directed and rng.random() < p / 4:
                    arcs += [(u, v), (v, u)]
        yield "random", new_graph(n, arcs, DIRECTED if directed else ORIENTED)


def test_has_cycle_subgraph_is_pinned_on_the_grid():
    # 76 construction graphs (n = 5-30) and 200 random oriented and
    # digon-mode graphs (n = 3-12), each asked for every length 2-12; the
    # digest was recorded with the former canonical-start depth-first check
    rows = [[label, g.n, g.mode, sorted(g.arcs), [has_cycle_subgraph(g, ell) for ell in range(2, 13)]]
            for label, g in grid_graphs()]
    assert len(rows) == 276 and sum(sum(flags) for *_, flags in rows) == 976
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "c7dbdd699842e0c73a45a7f85a3ecfaf0c1fa7f622ceea86fa86abf64215dac5"


# ---------------------------------------------------------------------------
# Möbius inversion over walk coincidences
# ---------------------------------------------------------------------------

# the largest order checked in each family: dense term tables grow like the
# Bell numbers, and digons let positions two apart coincide
_MOBIUS_ORDERS = {"bipartite": 10, "oriented": 9, "directed": 8}


@st.composite
def mobius_inputs(draw):
    # orientations of bipartite graphs (thinned where a pair draws 0),
    # random orientations and directed graphs with digons, and an order
    family = draw(st.sampled_from(sorted(_MOBIUS_ORDERS)))
    m = draw(st.integers(2, _MOBIUS_ORDERS[family]))
    n = draw(st.integers(m, 10))
    half = (n + 1) // 2
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if family != "bipartite" or u < half <= v]
    states = draw(st.lists(st.integers(0, 3 if family == "directed" else 2),
                           min_size=len(pairs), max_size=len(pairs)))
    arcs = [a for (u, v), c in zip(pairs, states)
            for a, bit in (((u, v), 1), ((v, u), 2)) if c & bit]
    g = new_graph(n, arcs, DIRECTED if family == "directed" else ORIENTED)
    return g, m


@settings(max_examples=120)
@given(mobius_inputs())
def test_mobius_route_matches_enumeration_frontier_and_dfs(case):
    g, m = case
    with mock.patch.object(counting, "_MOBIUS_RATIO", 1e30):  # route whenever exact
        walks = counting._Walks(g)
        paths = counting._mobius(walks, m, cyclic=False)
        cycles = counting._mobius(walks, m, cyclic=True)
    # the route declines only when there is no walk to count
    expected = dfs_paths(g, m)
    assert paths == expected or paths is None and expected == 0
    assert counting._frontier_count(g, m - 1, None) == expected
    if g.n <= 7:
        assert naive_paths(g, m) == expected
    if m == 2:
        assert cycles == sum((o & i).bit_count() for o, i in zip(g.out_bits(), g.in_bits())) // 2
        return
    expected = dfs_cycles(g, m)
    assert cycles == expected or cycles is None and expected == 0
    assert counting._frontier_count(g, m - 1, counting._above(g.in_bits())) == expected
    if g.n <= 7:
        assert naive_count(g, m) == expected


def test_mobius_route_taken_by_work(monkeypatch):
    calls = spy(monkeypatch, "_contract", "_frontier_count")
    rng = random.Random(18)
    k2020 = random_bipartite_orientation(40, 1)
    bipartite = random_bipartite_orientation(20, 0)
    thinned = new_graph(16, [a for a in sorted(random_bipartite_orientation(16, 3).arcs)
                             if rng.random() < 0.7])
    dense = random_oriented(rng, 12, 0.8)
    for g in (k2020, bipartite, thinned, dense):
        assert counting._twins(g) is None
    assert not counting._Walks(bipartite).are_cycles(10) and not counting._Walks(dense).are_cycles(10)
    # many walks per term: the K20,20 orientation at order 7 and 10-cycles
    # of a bipartite orientation take the route
    counts = [count_paths(k2020, 7), count_cycle_copies(bipartite, 10)]
    assert calls["_contract"] > 0 and calls["_frontier_count"] == 0
    # few walks per term: a thinned orientation and dense non-bipartite
    # 10-cycles stay on the frontier
    calls["_contract"] = 0
    counts += [count_paths(thinned, 8), count_cycle_copies(dense, 10)]
    assert calls == {"_contract": 0, "_frontier_count": 2}
    assert counts == [counting._frontier_count(k2020, 6, None), dfs_cycles(bipartite, 10),
                      dfs_paths(thinned, 8), dfs_cycles(dense, 10)]


def test_mobius_route_stops_at_the_float64_bound(monkeypatch):
    # 39**10 < 2**53 < 40**10: with the work rule out of the way, paths on
    # 10 vertices take the route at n = 39 and not at n = 40, and stay exact
    monkeypatch.setattr(counting, "_MOBIUS_RATIO", 1e30)
    calls = spy(monkeypatch, "_contract")
    rng = random.Random(53)
    for n in (39, 40):
        g = new_graph(n, [a for a in sorted(random_bipartite_orientation(n, n).arcs)
                          if rng.random() < 0.25])
        assert counting._twins(g) is None
        calls["_contract"] = 0
        assert count_paths(g, 10) == dfs_paths(g, 10) > 0
        assert (calls["_contract"] > 0) == (n ** 10 < 1 << 53) == (n == 39)
