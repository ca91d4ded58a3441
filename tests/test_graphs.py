"""Graph core: construction invariants, blow-ups, quotients, file format."""

import random
from fractions import Fraction

import pytest

from dicycles.counting import count_cycle_copies, has_cycle_subgraph
from dicycles.graphs import (
    DIRECTED,
    ORIENTED,
    ArcRule,
    BlobAssignment,
    BlobInternal,
    DigonError,
    OrientedGraph,
    ParseError,
    PatternError,
    PatternSpec,
    SelfLoopError,
    VertexRangeError,
    balanced_blow_up,
    balanced_sizes,
    blow_up,
    canonical_arcs,
    directed_cycle,
    equispaced_coordinates,
    iterated_blow_up,
    iterated_blowup_cycle_count,
    new_graph,
    quotient_by_equivalence,
    random_bipartite_orientation,
    read_graph,
    uniform_pattern,
    write_graph,
)


def iso_key(g):
    """Equal exactly for isomorphic graphs of the same mode (n <= 8)."""
    return g.n, g.mode, canonical_arcs(g)


def test_new_graph_triangle():
    g = new_graph(3, [(0, 1), (1, 2), (2, 0)], ORIENTED)
    assert g.num_arcs == 3 and count_cycle_copies(g, 3) == 1


def test_new_graph_rejects_digon_in_oriented_mode():
    with pytest.raises(DigonError):
        new_graph(2, [(0, 1), (1, 0)], ORIENTED)
    with pytest.raises(DigonError, match="between 1 and 3"):
        new_graph(5, [(0, 2), (3, 1), (4, 3), (1, 3), (3, 4)], ORIENTED)


def test_neighbourhood_masks_are_built_with_the_graph():
    g = new_graph(4, [(0, 1), (2, 1), (3, 0), (1, 3)], ORIENTED)
    assert g.out_bits() == [0b0010, 0b1000, 0b0010, 0b0001]
    assert g.in_bits() == [0b1000, 0b0101, 0b0000, 0b0010]
    assert new_graph(0, []).out_bits() == []


def test_new_graph_digon_ok_in_directed_mode():
    g = new_graph(2, [(0, 1), (1, 0)], DIRECTED)
    assert g.num_arcs == 2


def test_new_graph_rejects_self_loop_and_range():
    with pytest.raises(SelfLoopError):
        new_graph(3, [(1, 1)])
    with pytest.raises(VertexRangeError):
        new_graph(3, [(0, 3)])
    with pytest.raises(VertexRangeError):
        new_graph(3, [(-1, 2)])


def test_new_graph_deduplicates():
    g = new_graph(3, [(0, 1), (0, 1), (1, 2)])
    assert g.num_arcs == 2


def test_graph_immutable():
    g = directed_cycle(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_balanced_sizes_remainder_to_low_indices():
    assert balanced_sizes(10, 4) == (3, 3, 2, 2)
    assert balanced_sizes(8, 4) == (2, 2, 2, 2)


def test_blow_up_c3_counts():
    g = balanced_blow_up(directed_cycle(3), 6)
    assert g.num_arcs == 12
    assert count_cycle_copies(g, 3) == 8


def test_blow_up_unit_sizes_is_base():
    for base in (directed_cycle(3), directed_cycle(4), directed_cycle(5)):
        g = blow_up(uniform_pattern(base), BlobAssignment((1,) * base.n))
        assert iso_key(g) == iso_key(base)


def test_blow_up_internal_structures():
    pattern = PatternSpec(
        directed_cycle(3),
        (Fraction(1, 3),) * 3,
        (BlobInternal("transitive_tournament"), BlobInternal(), BlobInternal()),
    )
    g = blow_up(pattern, BlobAssignment((4, 2, 2)))
    internal = [(u, v) for (u, v) in g.arcs if u < 4 and v < 4]
    assert len(internal) == 6  # C(4,2), a transitive tournament
    sub = g.subgraph(range(4))
    assert not has_cycle_subgraph(sub, 3)
    # independent blobs stay arcless inside
    assert not [(u, v) for (u, v) in g.arcs if 4 <= u < 6 and 4 <= v < 6]


def test_threshold_full_at_c_one():
    base = new_graph(2, [(0, 1)])
    pattern = uniform_pattern(base, arc_rule={(0, 1): ArcRule("threshold", 1.0)})
    g = blow_up(pattern, BlobAssignment((3, 3)))
    assert all(u < 3 <= v for (u, v) in g.arcs)
    assert g.num_arcs == 9


@pytest.mark.parametrize("c", [0.2, 0.5, 0.67757, 0.9])
def test_threshold_pair_never_contains_two_by_two_cycle(c):
    base = new_graph(2, [(0, 1)])
    pattern = uniform_pattern(base, arc_rule={(0, 1): ArcRule("threshold", c)})
    g = blow_up(pattern, BlobAssignment((6, 6)))
    assert not has_cycle_subgraph(g, 4)
    # every cross pair is oriented exactly one way
    assert g.num_arcs == 36


def test_pattern_weight_validation():
    with pytest.raises(PatternError):
        PatternSpec(directed_cycle(3), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
                    (BlobInternal(),) * 3)
    with pytest.raises(PatternError):
        BlobInternal("one_way_bipartite", Fraction(3, 2))


def test_iterated_blow_up_values():
    c4 = directed_cycle(4)
    assert iso_key(iterated_blow_up(c4, 4)) == iso_key(c4)
    assert count_cycle_copies(iterated_blow_up(c4, 16), 4) == 260
    assert iterated_blowup_cycle_count(4, 16) == 260
    assert count_cycle_copies(iterated_blow_up(c4, 5), 4) == 2


def test_random_bipartite_basics():
    g = random_bipartite_orientation(2, 7)
    assert g.num_arcs == 1
    g = random_bipartite_orientation(4, 7)
    assert g.num_arcs == 4
    assert all((u < 2) != (v < 2) for (u, v) in g.arcs)
    assert random_bipartite_orientation(9, 3) == random_bipartite_orientation(9, 3)
    assert random_bipartite_orientation(9, 3) != random_bipartite_orientation(9, 4)


def test_random_bipartite_mean_c6_count():
    # exact expectation at n=12: C(6,3)^2 * 3! * 2! / 2^6 = 75
    total = 0
    for seed in range(1000):
        total += count_cycle_copies(random_bipartite_orientation(12, seed), 6)
    mean = total / 1000
    assert abs(mean - 75) / 75 < 0.05


def test_quotient_of_blow_up():
    q, sizes = quotient_by_equivalence(balanced_blow_up(directed_cycle(4), 8))
    assert sizes == (2, 2, 2, 2)
    assert iso_key(q) == iso_key(directed_cycle(4))
    q, sizes = quotient_by_equivalence(directed_cycle(3))
    assert sizes == (1, 1, 1)


def test_quotient_tournament_blobs_all_singletons():
    from dicycles.constructions import ConstructionId, generate

    g = generate(ConstructionId("c5c3_tournament_blobs"), 8)
    _, sizes = quotient_by_equivalence(g)
    assert sizes == (1,) * 8


def test_quotient_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 7)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.4]
        try:
            g = OrientedGraph(n, arcs, DIRECTED)
        except ValueError:
            continue
        q1, _ = quotient_by_equivalence(g)
        q2, _ = quotient_by_equivalence(q1)
        assert q1.n == q2.n and iso_key(q1) == iso_key(q2)


def test_read_graph_triangle():
    g = read_graph("3 3\n0 1\n1 2\n2 0\n")
    assert g == directed_cycle(3)


def test_read_write_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 8)
        arcs = [(u, v) for u in range(n) for v in range(n) if u < v and rng.random() < 0.5]
        g = OrientedGraph(n, arcs)
        assert read_graph(write_graph(g)) == g
    text = "# comment\n3 2\n0 1\n# another\n1 2\n"
    assert write_graph(read_graph(text)) == "3 2\n0 1\n1 2\n"


def test_read_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        read_graph("3 1\n0 x\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        read_graph("")
    with pytest.raises(ParseError):
        read_graph("3 2\n0 1\n")  # missing arc line
    with pytest.raises(ParseError):
        read_graph("2 2\n0 1\n1 0\n")  # digon in oriented file


def test_directed_file_mode():
    text = "2 2 directed\n0 1\n1 0\n"
    g = read_graph(text)
    assert g.mode == DIRECTED and write_graph(g) == text


def test_equispaced_coordinates():
    assert equispaced_coordinates(1) == (0.5,)
    coords = equispaced_coordinates(4)
    assert coords[0] == 0.0 and coords[-1] == 1.0
    assert all(b > a for a, b in zip(coords, coords[1:]))


def test_blob_assignment_validation():
    with pytest.raises(ValueError):
        BlobAssignment((2, -1))


def test_canonical_arcs_detects_isomorphism():
    g1 = directed_cycle(4)
    perm = [2, 3, 0, 1]
    g2 = new_graph(4, [(perm[u], perm[v]) for u, v in g1.arcs])
    assert canonical_arcs(g1) == canonical_arcs(g2)
    near_cycle = new_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert iso_key(g1) != iso_key(near_cycle)
