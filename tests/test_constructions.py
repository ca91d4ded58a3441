"""Construction generators against brute-force counts and freeness claims."""

from fractions import Fraction

import pytest

from dicycles.constructions import (
    ConstructionError,
    ConstructionId,
    Estimate,
    NoClosedFormError,
    TooSmallError,
    closed_form_count,
    generate,
    seven_cycle_with_chords,
)
from dicycles.counting import (
    arc_cycle_multiplicities,
    count_cycle_copies,
    has_closed_walk,
    has_cycle_subgraph,
)
from dicycles.graphs import DIRECTED


def test_c3c6_sparse_at_nine():
    cid = ConstructionId("c3c6_sparse")
    g = generate(cid, 9)
    assert g.n == 9 and g.num_arcs == 4 + 16 + 4
    assert count_cycle_copies(g, 3) == 16
    assert closed_form_count(cid, 9, 3) == 16
    assert not has_cycle_subgraph(g, 6)
    assert all(m >= 1 for m in arc_cycle_multiplicities(g, 3).values())


def test_c3c6_closed_form_is_floor_ceil_product():
    cid = ConstructionId("c3c6_sparse")
    for n in range(3, 30):
        m = n - 1
        assert closed_form_count(cid, n, 3) == ((m + 1) // 2) * (m // 2)


def test_c5c3_at_eight():
    cid = ConstructionId("c5c3_tournament_blobs")
    g = generate(cid, 8)
    assert count_cycle_copies(g, 5) == 32 == closed_form_count(cid, 8, 5)
    assert not has_cycle_subgraph(g, 3)


def test_c5c3_closed_form_formula():
    cid = ConstructionId("c5c3_tournament_blobs")
    from math import comb

    for n in (8, 12, 16, 20):
        s = n // 4
        assert closed_form_count(cid, n, 5) == 4 * comb(s, 2) * s ** 3


def test_balanced_blowup_at_eight():
    cid = ConstructionId("balanced_cycle_blowup", d=4)
    g = generate(cid, 8)
    assert count_cycle_copies(g, 4) == 16 == closed_form_count(cid, 8, 4)
    assert not has_closed_walk(g, 6)


def test_closed_forms_match_counts_small():
    grid = [
        (ConstructionId("balanced_cycle_blowup", d=3), 3, range(3, 25)),
        (ConstructionId("balanced_cycle_blowup", d=3), 6, range(3, 15)),
        (ConstructionId("balanced_cycle_blowup", d=5), 5, range(5, 25)),
        (ConstructionId("sparse_singleton_blowup", k=4), 4, range(4, 25)),
        (ConstructionId("iterated_c4"), 4, range(4, 25)),
        (ConstructionId("c5c3_tournament_blobs"), 5, range(4, 25)),
        (ConstructionId("c5c7_bipartite_blobs"), 5, range(4, 25)),
        (ConstructionId("c5c7_bipartite_blobs", variant="opposite"), 5, range(4, 25)),
        (ConstructionId("c3_3t_sparse", t=3), 3, range(4, 25)),
        (ConstructionId("c3_3t_sparse", t=3), 6, range(4, 25)),
        (ConstructionId("c7_chords_blowup"), 5, range(7, 22)),
        (ConstructionId("c7_chords_blowup"), 7, range(7, 22)),
        (ConstructionId("complete_bipartite_digraph"), 4, range(2, 17)),
    ]
    for cid, k, n_values in grid:
        for n in n_values:
            assert count_cycle_copies(generate(cid, n), k) == \
                closed_form_count(cid, n, k), (cid.label(), k, n)


def test_c5c7_sizes_and_count_at_twenty():
    cid = ConstructionId("c5c7_bipartite_blobs")
    g = generate(cid, 20)
    counted = count_cycle_copies(g, 5)
    assert counted == closed_form_count(cid, 20, 5)
    # 2 * (s/2) * (s/2) * s' * t * t with s = s' = 6, t = 4
    assert counted == 2 * 3 * 3 * 6 * 4 * 4


def test_seven_cycle_chords_close_five_cycles():
    h7 = seven_cycle_with_chords()
    assert h7.num_arcs == 14
    for i in range(7):
        path = [(i + 3 + j) % 7 for j in range(5)]
        assert all(h7.has_arc(path[j], path[j + 1]) for j in range(4))
        assert h7.has_arc(i, (i + 3) % 7)
    assert count_cycle_copies(h7, 5) == 7
    assert not has_cycle_subgraph(h7, 4)


def test_iterated_closed_form_only_k4():
    cid = ConstructionId("iterated_c4")
    assert closed_form_count(cid, 16, 4) == 260
    with pytest.raises(NoClosedFormError):
        closed_form_count(cid, 16, 8)


def test_complete_bipartite_digraph():
    cid = ConstructionId("complete_bipartite_digraph")
    g = generate(cid, 8)
    assert g.mode == DIRECTED
    for k in (2, 4, 6, 8):
        assert has_cycle_subgraph(g, k)
    for ell in (3, 5, 7, 9):
        assert not has_closed_walk(g, ell)
    assert closed_form_count(cid, 8, 4) == 72


def test_random_bipartite_estimate_and_seed_requirement():
    cid = ConstructionId("random_bipartite")
    est = closed_form_count(cid, 12, 6)
    assert isinstance(est, Estimate) and est.kind == "expectation"
    assert est.value == Fraction(75)
    assert closed_form_count(cid, 12, 5).value == 0
    with pytest.raises(ValueError):
        generate(cid, 12)
    g = generate(cid, 12, seed=5)
    assert g.num_arcs == 36


def test_threshold_estimate_flag():
    est = closed_form_count(ConstructionId("threshold_c7", c=0.67757), 70, 5)
    assert isinstance(est, Estimate) and est.kind == "limit"
    assert est.value == pytest.approx(0.00043104 * 70 ** 5, rel=1e-3)


def test_too_small_errors():
    with pytest.raises(TooSmallError) as err:
        generate(ConstructionId("c7_chords_blowup"), 6)
    assert err.value.n_min == 7
    with pytest.raises(TooSmallError):
        generate(ConstructionId("balanced_cycle_blowup", d=5), 4)
    with pytest.raises(TooSmallError):
        generate(ConstructionId("c3_3t_sparse", t=4), 4)


def test_construction_id_validation():
    with pytest.raises(ValueError):
        ConstructionId("balanced_cycle_blowup")
    with pytest.raises(ValueError):
        ConstructionId("threshold_c7", c=1.5)
    with pytest.raises(ValueError):
        ConstructionId("no_such_thing")
    with pytest.raises(ValueError):
        ConstructionId("c5c7_bipartite_blobs", variant="diagonal")


def test_construction_id_rejects_parameters_its_kind_does_not_read():
    # each kind reads one parameter at most, and only c5c7 reads a variant;
    # the others were once accepted and printed in the label
    for kind, param, value in (("balanced_cycle_blowup", "d", 3), ("sparse_singleton_blowup", "k", 3),
                               ("threshold_c7", "c", 0.5), ("c3_3t_sparse", "t", 2)):
        assert ConstructionId(kind, **{param: value}).label() == f"{kind}({param}={value})"
        for other in ("d", "k", "c", "t"):
            if other != param:
                with pytest.raises(ConstructionError, match=f"{kind} takes no parameter {other}"):
                    ConstructionId(kind, **{param: value, other: 0})
        with pytest.raises(ConstructionError, match=f"{kind} takes no variant"):
            ConstructionId(kind, **{param: value}, variant="opposite")
    for kind in ("iterated_c4", "c5c7_bipartite_blobs", "random_bipartite"):
        for other in ("d", "k", "c", "t"):
            with pytest.raises(ConstructionError, match="takes no parameter"):
                ConstructionId(kind, **{other: -1})
    assert ConstructionId("c5c7_bipartite_blobs", variant="opposite").label() == \
        "c5c7_bipartite_blobs(variant=opposite)"


def test_c3_3t_sparse_freeness():
    cid = ConstructionId("c3_3t_sparse", t=3)
    g = generate(cid, 20)
    assert has_cycle_subgraph(g, 6)      # two hub vertices allow 6-cycles
    assert not has_cycle_subgraph(g, 9)  # but not 3t = 9
    assert closed_form_count(cid, 20, 3) == 2 * 9 * 9
