"""Spectra, trace identities, and the bipartite-orientation bounds."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dicycles import spectral
from dicycles.counting import adjacency_matrix, count_closed_walks, count_cycle_copies
from dicycles.graphs import (
    DIRECTED,
    balanced_blow_up,
    directed_cycle,
    new_graph,
    random_bipartite_orientation,
)
from dicycles.spectral import (
    NotCompleteBipartiteError,
    PreconditionViolatedError,
    SpectralError,
    bipartite_cycle_bound,
    complete_bipartite_sides,
    hom_count_via_spectrum,
    positive_real_part_sum,
    spectrum,
)


def random_oriented(rng, n, p=0.6):
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < p / 2:
                arcs.append((u, v))
            elif r < p:
                arcs.append((v, u))
    return new_graph(n, arcs)


def one_directional_bipartite(m):
    return new_graph(2 * m, [(u, v) for u in range(m) for v in range(m, 2 * m)])


def random_kab(rng, a, b):
    # a random orientation of K_{a,b} with its vertices shuffled, so either
    # side may hold vertex 0
    label = list(range(a + b))
    rng.shuffle(label)
    return new_graph(a + b, [(label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
                             for u in range(a) for v in range(a, a + b)])


def half_route_spy(monkeypatch):
    # the result of each half-size attempt (None when it declined) and the
    # shape of each matrix given to np.linalg.eig
    seen = {"half": [], "eig": []}
    half, eig = spectral._half_size_eig, np.linalg.eig

    def half_spy(m, sides):
        seen["half"].append(half(m, sides))
        return seen["half"][-1]

    def eig_spy(m):
        seen["eig"].append(m.shape)
        return eig(m)

    monkeypatch.setattr(spectral, "_half_size_eig", half_spy)
    monkeypatch.setattr(np.linalg, "eig", eig_spy)
    return seen


def singular(rows):
    # exact: Gaussian elimination over the rationals
    rows = [[Fraction(int(x)) for x in row] for row in rows]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return True
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return False


def nearest_distance(xs, ys):
    # the largest distance from a value of xs to the nearest value of ys
    return max((min(abs(x - y) for y in ys) for x in xs), default=0.0)


def test_half_size_spectrum_of_complete_bipartite_orientations():
    # the half route on every size, and spectrum(), which takes it from
    # HALF_SIZE_MIN_N vertices on, against the full solve and exact walks
    rng = random.Random(19)
    pairs = [(a, b) for a in range(1, 21) for b in range(1, a + 1)]
    taken = 0
    for a, b in pairs:
        g = random_kab(rng, a, b)
        m = adjacency_matrix(g)
        full = list(np.linalg.eig(m)[0])
        sides = complete_bipartite_sides(g)
        half = spectral._half_size_eig(m, sides)
        spec = spectrum(g)
        assert sorted(spec.bipartition) == [b, a]
        # the route declines exactly when BC is singular
        one = [v for v in range(a + b) if sides[v]]
        zero = [v for v in range(a + b) if not sides[v]]
        small, large = (one, zero) if len(one) <= len(zero) else (zero, one)
        assert (half is None) == singular(m[np.ix_(small, large)] @ m[np.ix_(large, small)]), (a, b)
        taken += half is not None
        for values in (spec.eigenvalues, half):
            if values is None:
                continue
            values = list(values)
            assert nearest_distance(values, full) < 1e-7 and nearest_distance(full, values) < 1e-7
            for j in range(1, 9):
                exact = count_closed_walks(g, j)
                assert abs(sum(z ** j for z in values) - exact) <= 1e-6 * max(1, exact), (a, b, j)
            assert nearest_distance([-z for z in values], values) < 1e-7
            assert nearest_distance([z.conjugate() for z in values], values) < 1e-7
    # the route holds whenever BC is nonsingular
    assert taken > len(pairs) // 2


def test_half_size_route_and_its_fallback(monkeypatch):
    seen = half_route_spy(monkeypatch)
    # a K16,16 orientation: one 16 x 16 solve of BC, no 32 x 32 one
    spectrum(random_bipartite_orientation(32, 0))
    assert seen["eig"] == [(16, 16)] and seen["half"][0] is not None
    # all arcs one way: BC = 0, so the route declines and M goes to eig
    seen["eig"].clear()
    spec = spectrum(one_directional_bipartite(16))
    assert seen["eig"] == [(16, 16), (32, 32)] and seen["half"][1] is None
    assert all(abs(z) < 1e-12 for z in spec.eigenvalues)
    # below HALF_SIZE_MIN_N vertices, and on a graph that is not complete
    # bipartite, the half route is never tried
    seen["eig"].clear()
    spectrum(random_bipartite_orientation(spectral.HALF_SIZE_MIN_N - 1, 4))
    spectrum(directed_cycle(5))
    assert seen["eig"] == [(spectral.HALF_SIZE_MIN_N - 1,) * 2, (5, 5)] and len(seen["half"]) == 2


def test_triangle_spectrum_is_cube_roots_of_unity():
    spec = spectrum(directed_cycle(3))
    roots = sorted((cmath.exp(2j * cmath.pi * t / 3) for t in range(3)),
                   key=lambda z: (-z.real, -z.imag))
    for got, want in zip(spec.eigenvalues, roots):
        assert abs(got - want) < 1e-9


def test_single_arc_is_nilpotent():
    spec = spectrum(new_graph(2, [(0, 1)]))
    assert all(abs(z) < 1e-12 for z in spec.eigenvalues)
    assert spec.bipartition == (1, 1)


def test_symmetrized_spectrum_of_bipartite_orientation():
    for m, rest in ((3, 5), (4, 4)):
        g = random_bipartite_orientation(m + rest, 17)
        spec = spectrum(g)
        top = 0.5 * math.sqrt(spec.bipartition[0] * spec.bipartition[1])
        assert spec.symmetrized[0] == pytest.approx(top, abs=1e-9)
        assert spec.symmetrized[-1] == pytest.approx(-top, abs=1e-9)
        assert all(abs(x) < 1e-9 for x in spec.symmetrized[1:-1])


def test_hom_count_examples():
    assert hom_count_via_spectrum(spectrum(directed_cycle(3)), 3) == pytest.approx(1.0)
    g = balanced_blow_up(directed_cycle(3), 6)
    assert hom_count_via_spectrum(spectrum(g), 3) == pytest.approx(8.0)


def test_hom_count_rejects_walk_length_below_one():
    # k = 0 divided by zero, and k = -1 summed the inverse eigenvalues
    spec = spectrum(directed_cycle(3))
    for k in (0, -1):
        with pytest.raises(SpectralError, match="walk length must be at least 1"):
            hom_count_via_spectrum(spec, k)


def test_hom_count_equals_c4_copies_without_digons():
    rng = random.Random(40)
    for _ in range(25):
        g = random_oriented(rng, rng.randint(4, 10))
        copies = count_cycle_copies(g, 4)
        assert hom_count_via_spectrum(spectrum(g), 4) == pytest.approx(copies, abs=1e-6 * max(1, copies))


def test_trace_identity_against_integer_power():
    rng = random.Random(41)
    graphs = [random_oriented(rng, rng.randint(4, 24), 0.7) for _ in range(10)]
    graphs.append(random_oriented(rng, 64, 0.6))  # top of the stated range
    for g in graphs:
        spec = spectrum(g)
        for k in range(1, 13):
            exact = count_closed_walks(g, k)
            approx = sum(z ** k for z in spec.eigenvalues).real
            assert abs(exact - approx) <= 1e-6 * max(1.0, abs(exact))


def test_conjugation_and_negation_closure():
    for seed in range(10):
        g = random_bipartite_orientation(12, seed)
        spec = spectrum(g)
        values = list(spec.eigenvalues)
        for z in values:
            assert min(abs(z.conjugate() - w) for w in values) < 1e-8
            assert min(abs(-z - w) for w in values) < 1e-8
        half = [z.real for z in values[: len(values) // 2]]
        tail = [-z.real for z in values[len(values) // 2:]]
        assert half == pytest.approx(sorted(tail, reverse=True), abs=1e-8)


def test_perron_bound():
    rng = random.Random(42)
    for _ in range(20):
        g = random_oriented(rng, rng.randint(3, 16), 0.8)
        spec = spectrum(g)
        top = spec.eigenvalues[0]
        assert abs(top.imag) < 1e-9 and top.real >= -1e-12
        assert all(abs(z) <= abs(top) + 1e-9 for z in spec.eigenvalues)


def test_positive_sum_bound_k44():
    for seed in range(20):
        g = random_bipartite_orientation(8, seed)
        report = positive_real_part_sum(spectrum(g))
        assert report.within_bound and report.ky_fan_holds
        assert report.bound == pytest.approx(2.0)


def test_positive_sum_one_directional_is_zero():
    report = positive_real_part_sum(spectrum(one_directional_bipartite(5)))
    assert report.sum_real_parts == pytest.approx(0.0, abs=1e-9)


def test_positive_sum_sweep_k66():
    for seed in range(100):
        report = positive_real_part_sum(spectrum(random_bipartite_orientation(12, seed)))
        assert report.within_bound and report.ky_fan_holds


def test_positive_sum_requires_complete_bipartite():
    with pytest.raises(NotCompleteBipartiteError):
        positive_real_part_sum(spectrum(directed_cycle(5)))


def test_bipartite_cycle_bound():
    for seed in range(10):
        report = bipartite_cycle_bound(random_bipartite_orientation(12, seed), 6)
        assert report.holds and float(report.bound) == pytest.approx(243.0)
    report = bipartite_cycle_bound(one_directional_bipartite(6), 6)
    assert report.copies == 0
    with pytest.raises(PreconditionViolatedError):
        bipartite_cycle_bound(random_bipartite_orientation(12, 0), 4)
    with pytest.raises(PreconditionViolatedError):
        bipartite_cycle_bound(directed_cycle(6), 6)


def test_complete_bipartite_detection():
    assert complete_bipartite_sides(random_bipartite_orientation(9, 2)) is not None
    # the directed 4-cycle orients K_{2,2}; the 6-cycle does not orient K_{3,3}
    assert complete_bipartite_sides(directed_cycle(4)) == (0, 1, 0, 1)
    assert complete_bipartite_sides(directed_cycle(6)) is None
    g = new_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert complete_bipartite_sides(g) is None


def reference_bipartite_sides(g):
    """Two-colouring by search, then an all-pairs check: the reference for
    complete_bipartite_sides."""
    n = g.n
    if n < 2:
        return None
    und = g.und_bits()
    for u, v in g.arcs:
        if u < v and (v, u) in g.arcs:
            return None
    side = [-1] * n
    side[0] = 0
    queue = [0]
    while queue:
        v = queue.pop()
        for u in range(n):
            if und[v] >> u & 1:
                if side[u] == -1:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return None
    if -1 in side:
        return None
    for u in range(n):
        for v in range(u + 1, n):
            if bool(und[u] >> v & 1) != (side[u] != side[v]):
                return None
    return tuple(side)


def _bipartition_cases():
    rng = random.Random(4242)
    cases = [new_graph(0, []), new_graph(1, []), new_graph(2, []), new_graph(5, []),
             new_graph(2, [(0, 1)]), new_graph(2, [(0, 1), (1, 0)], DIRECTED)]
    cases += [directed_cycle(d) for d in (3, 4, 5, 6, 7)]
    for n in range(2, 9):
        # K_{1,n-1} with the centre at each end of the labels
        cases.append(new_graph(n, [(0, v) if v % 2 else (v, 0) for v in range(1, n)]))
        cases.append(new_graph(n, [(v, n - 1) for v in range(n - 1)]))
    for _ in range(150):
        n = rng.randint(2, 14)
        side = [rng.randrange(2) for _ in range(n)]
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
        g = new_graph(n, arcs)
        cases.append(g)
        if arcs:
            cases.append(new_graph(n, [a for a in arcs if a != rng.choice(arcs)]))
            u, v = rng.choice(arcs)
            cases.append(new_graph(n, arcs + [(v, u)], DIRECTED))
        same = [(u, v) for u in range(1, n) for v in range(u + 1, n) if side[u] == side[v]]
        if same:
            cases.append(new_graph(n, arcs + [rng.choice(same)]))
        # two complete bipartite pieces side by side
        m = rng.randint(2, 6)
        cases.append(new_graph(n + m, arcs + [(n + i, n + j) for i in range(m // 2)
                                              for j in range(m // 2, m)]))
    return cases


def test_complete_bipartite_sides_matches_pairwise_reference():
    found = 0
    for g in _bipartition_cases():
        sides = complete_bipartite_sides(g)
        assert sides == reference_bipartite_sides(g), (g.n, sorted(g.arcs))
        found += sides is not None
    assert found > 100


def test_scalar_real_part_inequality():
    # Re z^k <= k |z|^(k-1) Re z for Re z >= 0 and k = 2 mod 4
    rng = random.Random(90)
    for _ in range(300):
        z = complex(rng.uniform(0, 2), rng.uniform(-2, 2))
        for k in (2, 6, 10):
            lhs = (z ** k).real
            rhs = k * abs(z) ** (k - 1) * z.real
            assert lhs <= rhs + 1e-9


def test_inequality_chain_endpoint():
    for seed in range(15):
        for n, k in ((12, 6), (20, 10)):
            g = random_bipartite_orientation(n, seed)
            copies = count_cycle_copies(g, k)
            m = n // 2
            rhs = 2 * (0.5 * math.sqrt(m * (n - m))) ** k
            assert k * copies <= rhs + 1e-6 * max(1.0, rhs)
