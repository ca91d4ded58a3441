"""Graph core: construction invariants, blow-ups, quotients, file format."""

import copy
import hashlib
import json
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from dicycles import counting
from dicycles.counting import count_cycle_copies, has_cycle_subgraph
from dicycles.graphs import (
    DIRECTED,
    ORIENTED,
    ArcRule,
    BlobAssignment,
    BlobInternal,
    DigonError,
    GraphError,
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
    random_bipartite_orientation,
    read_graph,
    twin_classes,
    uniform_pattern,
    write_graph,
)


def iso_key(g):
    """Equal exactly for isomorphic graphs of the same mode (n <= 8)."""
    return g.n, g.mode, canonical_arcs(g)


def quotient_by_twins(g):
    # the twin quotient that the twin counters read, as a graph and the class sizes
    tw = counting._twin_quotient(g, twin_classes(g))
    return OrientedGraph(len(tw.sizes), [sum(1 << b for b in s) for s in tw.succ], g.mode), tw.sizes


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
    # endpoints are taken exactly, never truncated
    for bad in (1.7, "1", None):
        with pytest.raises(VertexRangeError, match=re.escape(repr((0, bad)))):
            new_graph(3, [(0, bad), (1, 2)])
    g = new_graph(3, [(np.int64(0), np.uint8(1)), (True, 2)])
    assert g.arcs == {(0, 1), (1, 2)} and all(type(u) is int for arc in g.arcs for u in arc)


def test_graph_from_masks():
    g = OrientedGraph(3, [0b010, 0b100, 0b000])
    assert g == new_graph(3, [(0, 1), (1, 2)])
    assert g.in_bits() == [0b000, 0b001, 0b010] and g.num_arcs == 2
    assert g.has_arc(0, 1) and not g.has_arc(1, 0) and not g.has_arc(3, 0)
    assert OrientedGraph(2, [np.int64(2), 0]).out_bits() == [2, 0]
    masks = [0b010, 0b100, 0b001]
    g = OrientedGraph(3, masks)
    masks[0] = 0
    assert g.out_bits() == [0b010, 0b100, 0b001] and g.arcs == {(0, 1), (1, 2), (2, 0)}
    for bad, error in [([1.0, 0], GraphError), (["1", 0], GraphError), ([None, 0], GraphError),
                       ([0b10], GraphError), ([0b10, 0, 0], GraphError),
                       ([0b100, 0], VertexRangeError), ([-1, 0], VertexRangeError),
                       ([0b01, 0], SelfLoopError), ([0b10, 0b01], DigonError)]:
        with pytest.raises(error):
            OrientedGraph(2, bad)
    # the arc-pair call of the arc-set constructor is refused, not misread
    with pytest.raises(GraphError):
        OrientedGraph(2, [(0, 1)])
    assert OrientedGraph(2, [0b10, 0b01], DIRECTED).num_arcs == 2


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


def test_threshold_arcs_follow_the_rule_pair_by_pair():
    # blow_up bisects for each vertex's arcs; here each cross pair is
    # decided on its own, x -> y iff x + c >= y (the clamped min(x + c, 1)
    # >= y on these coordinates).  At dyadic c and blobs of 2^j + 1
    # vertices the sums are exact, so exact ties y - x = c occur and the
    # rule is y - x <= c in exact arithmetic too.
    base = new_graph(2, [(0, 1)])
    rng = random.Random(21)
    cases = [(rng.random(), (rng.randint(0, 9), rng.randint(0, 9)), False) for _ in range(60)]
    cases += [(c / 8, sizes, True) for c in range(9)
              for sizes in ((3, 3), (5, 9), (2, 17), (1, 3), (9, 1))]
    for c, sizes, dyadic in cases:
        g = blow_up(uniform_pattern(base, arc_rule={(0, 1): ArcRule("threshold", c)}),
                    BlobAssignment(sizes))
        expected = set()
        for i, x in enumerate(equispaced_coordinates(sizes[0])):
            for j, y in enumerate(equispaced_coordinates(sizes[1])):
                forward = min(x + c, 1.0) >= y
                assert forward == (x + c >= y)
                if dyadic:
                    assert forward == (Fraction(y) - Fraction(x) <= Fraction(c))
                expected.add((i, sizes[0] + j) if forward else (sizes[0] + j, i))
        assert g.arcs == expected, (c, sizes)


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
    q, sizes = quotient_by_twins(balanced_blow_up(directed_cycle(4), 8))
    assert sizes == (2, 2, 2, 2)
    assert iso_key(q) == iso_key(directed_cycle(4))
    q, sizes = quotient_by_twins(directed_cycle(3))
    assert sizes == (1, 1, 1)


def test_quotient_tournament_blobs_all_singletons():
    from dicycles.constructions import ConstructionId, generate

    g = generate(ConstructionId("c5c3_tournament_blobs"), 8)
    _, sizes = quotient_by_twins(g)
    assert sizes == (1,) * 8


def test_quotient_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 7)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.4]
        try:
            g = new_graph(n, arcs, DIRECTED)
        except ValueError:
            continue
        q1, _ = quotient_by_twins(g)
        q2, _ = quotient_by_twins(q1)
        assert q1.n == q2.n and iso_key(q1) == iso_key(q2)


@pytest.mark.parametrize("mode, arcs", [(ORIENTED, [(0, 1), (1, 2), (3, 0)]),
                                        (DIRECTED, [(0, 1), (1, 0), (2, 3)])])
def test_graphs_pickle_and_copy(mode, arcs):
    g = new_graph(4, arcs, mode)
    g.arcs  # fill the cached arc set first; copies are rebuilt from the masks
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert h == g and hash(h) == hash(g)
        assert (h.n, h.mode, h.arcs, h.in_bits()) == (g.n, mode, frozenset(arcs), g.in_bits())


def test_read_graph_triangle():
    g = read_graph("3 3\n0 1\n1 2\n2 0\n")
    assert g == directed_cycle(3)


def test_read_write_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 8)
        arcs = [(u, v) for u in range(n) for v in range(n) if u < v and rng.random() < 0.5]
        g = new_graph(n, arcs)
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


# each malformed file, the line its ParseError names, the message, and the
# graph error class it wraps (None for a format error)
_BAD_FILES = [
    ("", 1, "missing header", None),
    ("# only a comment\n\n", 1, "missing header", None),
    ("3\n", 1, "header must be 'n m [directed]'", None),
    ("3 2 1 0\n", 1, "header must be 'n m [directed]'", None),
    ("3 x\n", 1, "non-integer header field", None),
    ("x 3\n", 1, "non-integer header field", None),
    ("3 0 undirected\n", 1, "unknown mode 'undirected'", None),
    ("3 1\n0\n", 2, "arc line must be 'u v'", None),
    ("3 1\n0 1 2\n", 2, "arc line must be 'u v'", None),
    ("3 1\n0 x\n", 2, "non-integer arc endpoint", None),
    ("3 1\n0 1.5\n", 2, "non-integer arc endpoint", None),
    ("3 1\n-1 2\n", 1, "arc (-1, 2) outside [0, 3)", VertexRangeError),
    ("3 1\n0 -2\n", 1, "arc (0, -2) outside [0, 3)", VertexRangeError),
    ("3 1\n0 3\n", 1, "arc (0, 3) outside [0, 3)", VertexRangeError),
    ("3 1\n0 99999999999999999999\n", 1, "arc (0, 99999999999999999999) outside [0, 3)",
     VertexRangeError),
    ("3 1\n0 1\n1 2\n", 3, "more than 1 arc lines", None),
    ("2 1\n0 1\n0 1 \n", 3, "more than 1 arc lines", None),
    ("3 2\n0 1\n", 1, "expected 2 arcs, found 1", None),
    ("3 1\n1 1\n", 1, "self-loop at vertex 1", SelfLoopError),
    ("2 2\n0 1\n1 0\n", 1, "digon between 0 and 1 in oriented mode", DigonError),
    ("-1 0\n", 1, "0 out-masks for -1 vertices", GraphError),
    ("3 -1\n", 1, "expected -1 arcs, found 0", None),
    ("3 -1\n0 1\n", 2, "more than -1 arc lines", None),
    # comments and blank lines count as lines
    ("# c\n\n3 1\n# y\n\n0 z\n", 6, "non-integer arc endpoint", None),
    # of several malformed lines, the first is named
    ("3 1\n0 x\n0 1\n", 2, "non-integer arc endpoint", None),
    ("3 1\n0 1\n1 y\n", 3, "non-integer arc endpoint", None),
    ("3 2\n0 1 5\n0 x\n", 2, "arc line must be 'u v'", None),
    ("3 2\n0 x\n1\n", 2, "non-integer arc endpoint", None),
]


@pytest.mark.parametrize("text, line, message, cause", _BAD_FILES)
def test_read_graph_error_table(text, line, message, cause):
    with pytest.raises(ParseError) as err:
        read_graph(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")
    assert type(err.value.__cause__) is cause if cause else err.value.__cause__ is None


def test_read_graph_matches_new_graph():
    rng = random.Random(19)
    for n in (0, 1, 2, 7, 8, 9, 63, 64, 65, 70):
        for mode in (ORIENTED, DIRECTED):
            pairs = [(u, v) if rng.random() < 0.5 else (v, u)
                     for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            if mode == DIRECTED:  # with digons
                pairs += [(v, u) for u, v in pairs if rng.random() < 0.3]
            g = new_graph(n, pairs, mode)
            lines = [f"{n} {len(pairs)}" + (" directed" if mode == DIRECTED else "")]
            for u, v in pairs:
                lines += rng.choice([[f"{u} {v}"], [f"  {u}\t{v} ", "# note", ""]])
            assert read_graph("\n".join(lines)) == g
    # a repeated arc line collapses, as in new_graph
    assert read_graph("3 2\n0 1\n0 1\n") == new_graph(3, [(0, 1)])


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


# sha256 over every construction that `reproduce` builds, recorded before the
# graph core stored only neighbourhood masks
CONSTRUCTIONS_SHA256 = "154f71540d836377fe10e54f58751befb052d28b27f6a4bfdaa37382a0287798"


def test_constructions_are_pinned():
    from dicycles.constructions import ConstructionId, generate
    from dicycles.reproduce import _FREENESS_SWEEPS, _closed_form_grid

    pairs = [(cid, n) for cid, _, sizes in _closed_form_grid() for n in sizes]
    pairs += [(cid, n) for _, cid, _, sizes in _FREENESS_SWEEPS for n in sizes]
    pairs += [(ConstructionId("balanced_cycle_blowup", d=d), n)
              for d in range(3, 7) for n in range(d, 61)]
    digest = hashlib.sha256()
    graphs = 0
    for cid, n in dict.fromkeys(pairs):
        g = generate(cid, n)
        digest.update(json.dumps([cid.label(), n, g.mode, g.out_bits(), g.in_bits(),
                                  sorted(g.arcs)]).encode())
        graphs += 1
    for n in range(2, 41):
        for seed in range(3):
            g = random_bipartite_orientation(n, seed)
            digest.update(json.dumps(["random_bipartite", n, seed, g.mode, g.out_bits(),
                                      g.in_bits(), sorted(g.arcs)]).encode())
            graphs += 1
    assert graphs == 1314
    assert digest.hexdigest() == CONSTRUCTIONS_SHA256
