"""Counting operations: copies, walks, paths, clearing, neighbor condition."""

import json
import random
from fractions import Fraction
from itertools import permutations

import pytest

from dicycles.counting import (
    arc_cycle_multiplicities,
    check_neighbor_condition,
    clear,
    count_closed_walks,
    count_cycle_copies,
    count_paths,
    count_report,
    cycle_type,
    enumerate_cycles,
    has_closed_walk,
    has_cycle_subgraph,
    thick_arcs,
    vertex_cycle_counts,
)
from dicycles.graphs import (
    DIRECTED,
    OrientedGraph,
    balanced_blow_up,
    directed_cycle,
    new_graph,
    random_bipartite_orientation,
)
from dicycles.search import _cycle_arc_patterns, has_transitive_triangle


def random_oriented(rng, n, p=0.5):
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < p / 2:
                arcs.append((u, v))
            elif r < p:
                arcs.append((v, u))
    return OrientedGraph(n, arcs)


def naive_count(g, k):
    return sum(1 for pat in _cycle_arc_patterns(g.n, k)
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
    assert not has_cycle_subgraph(OrientedGraph(5, []), 3)


def test_has_cycle_subgraph_matches_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        g = random_oriented(rng, rng.randint(3, 7), 0.5)
        for ell in range(3, g.n + 1):
            assert has_cycle_subgraph(g, ell) == (naive_count(g, ell) > 0)


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
    assert thick_arcs(g, 3, threshold=2) == {a for a in g.arcs if 0 in a}


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
    assert result.is_fixed_point and result.ell_walk_free and result.is_cleared

    tt3 = new_graph(3, [(0, 1), (1, 2), (0, 2)])
    result = clear(tt3, 3, 4)
    assert result.cleared.n == 0 and result.removed_arcs == 3


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


def test_cycle_type():
    assert cycle_type("FFF") == 3
    assert cycle_type(["F", "F", "B"]) == 1
    assert cycle_type(["forward", "backward", "forward", "backward"]) == 0
    with pytest.raises(ValueError):
        cycle_type("FF")


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
    data = json.loads(report.to_json())
    assert data["copies"] == "8"
    assert data["closed_walks"] == "24"
    assert data["paths"]["2"] == "12"
    assert all(v == "4" for v in data["per_vertex"].values())
    assert all(v == "2" for v in data["per_arc"].values())


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
