"""Runnable acceptance checks, one per headline claim of the package.

Each runner performs the full check at its stated tolerances and returns a
:class:`CriterionResult`; the CLI's ``reproduce`` subcommand and the
acceptance test suite both dispatch through :data:`REGISTRY`, so the
command line and the tests can never drift apart.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from . import counting, density, numtheory, search, spectral
from .constructions import (
    ConstructionId,
    closed_form_count,
    digon_pattern,
    generate,
)
from .graphs import (
    DIRECTED,
    ORIENTED,
    OrientedGraph,
    directed_cycle,
    random_bipartite_orientation,
    uniform_pattern,
)
from .numtheory import ceil_cubic_value
from .pattern_walks import density_monomials, evaluate_monomials


@dataclass
class CriterionResult:
    name: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed, 2),
            "details": self.details,
        }


def _timed(func):
    def wrapper() -> CriterionResult:
        start = time.time()
        passed, details = func()
        return CriterionResult(func.__name__.removeprefix("run_"), passed,
                               time.time() - start, details)
    wrapper.__name__ = func.__name__
    return wrapper


# -- 1 ---------------------------------------------------------------------


@_timed
def run_small_values():
    """Exhaustive maxima for k=3 with forbidden C4 / C5 / TT3 at n = 3..6."""
    expected = {3: 1, 4: 2, 5: 4, 6: 8}
    details = {}
    passed = True
    for forb in ([4], [5], ["TT3"]):
        for n in range(3, 7):
            t0 = time.time()
            record = search.exhaustive_extremal(n, 3, forb)
            run_time = time.time() - t0
            want = ceil_cubic_value(n)
            ok = record.max_copies == want == expected[n] and run_time <= 600
            passed = passed and ok
            details[f"forbid={forb} n={n}"] = {
                "value": record.max_copies, "expected": want,
                "seconds": round(run_time, 2), "ok": ok,
            }
    return passed, details


# -- 2 ---------------------------------------------------------------------


def _random_oriented(rng: random.Random, n: int, arc_prob: float) -> OrientedGraph:
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < arc_prob / 2:
                arcs.append((u, v))
            elif r < arc_prob:
                arcs.append((v, u))
    return OrientedGraph(n, arcs)


def _naive_cycle_count(g: OrientedGraph, k: int) -> int:
    """Independent oracle: test every cyclic vertex sequence explicitly."""
    total = 0
    for pattern in search._cycle_arc_patterns(g.n, k):
        if all(a in g.arcs for a in pattern):
            total += 1
    return total


@_timed
def run_counting_oracle():
    """DFS counters against naive sequence enumeration and the spectrum."""
    rng = random.Random(20240531)
    graphs = 0
    checks = 0
    passed = True
    details = {}
    while graphs < 200:
        n = rng.randint(3, 8)
        g = _random_oriented(rng, n, rng.choice([0.3, 0.6, 0.9]))
        graphs += 1
        for k in range(3, n + 1):
            if counting.count_cycle_copies(g, k) != _naive_cycle_count(g, k):
                passed = False
                details["copy_mismatch"] = f"n={n} k={k}"
            checks += 1
        spec = spectral.spectrum(g)
        for ell in range(1, 11):
            exact = counting.count_closed_walks(g, ell)
            approx = sum(z ** ell for z in spec.eigenvalues).real
            if abs(exact - approx) > 1e-6 * max(1.0, abs(exact)):
                passed = False
                details["walk_mismatch"] = f"n={n} ell={ell}"
            checks += 1
    details.update({"graphs": graphs, "checks": checks})
    return passed, details


# -- 3 ---------------------------------------------------------------------

ENUM_CAP = 3_000_000  # brute-force verification cap per (id, k, n)


def _closed_form_grid():
    grid = []
    for d in (3, 4, 5, 6):
        cid = ConstructionId("balanced_cycle_blowup", d=d)
        grid.append((cid, d, range(d, 61)))
        grid.append((cid, 2 * d, range(d, 61)))
    for k in (3, 4, 5):
        grid.append((ConstructionId("sparse_singleton_blowup", k=k), k, range(k, 61)))
    grid.append((ConstructionId("iterated_c4"), 4, range(4, 61)))
    for k in (3, 4, 5):
        grid.append((ConstructionId("c5c3_tournament_blobs"), k, range(4, 61)))
        grid.append((ConstructionId("c5c7_bipartite_blobs"), k, range(4, 61)))
        grid.append((ConstructionId("c5c7_bipartite_blobs", variant="opposite"), k,
                     range(4, 61)))
    grid.append((ConstructionId("c3c6_sparse"), 3, range(3, 61)))
    grid.append((ConstructionId("c3_3t_sparse", t=3), 3, range(4, 61)))
    grid.append((ConstructionId("c3_3t_sparse", t=3), 6, range(4, 61)))
    for k in (4, 5, 7):
        grid.append((ConstructionId("c7_chords_blowup"), k, range(7, 61)))
    for k in (2, 4, 6):
        grid.append((ConstructionId("complete_bipartite_digraph"), k, range(2, 61)))
    return grid


@_timed
def run_closed_forms():
    """generate() counts equal closed_form_count exactly across n <= 60."""
    passed = True
    details = {}
    verified = skipped = 0
    for cid, k, n_values in _closed_form_grid():
        for n in n_values:
            try:
                predicted = closed_form_count(cid, n, k)
            except Exception as exc:  # noqa: BLE001 - report and fail
                passed = False
                details[f"{cid.label()} k={k} n={n}"] = f"closed form error: {exc}"
                continue
            if predicted > ENUM_CAP:
                skipped += 1
                continue
            actual = counting.count_cycle_copies(generate(cid, n), k)
            if actual != predicted:
                passed = False
                details[f"{cid.label()} k={k} n={n}"] = {
                    "predicted": predicted, "actual": actual}
            verified += 1
    details.update({"verified": verified,
                    "skipped_above_enumeration_cap": skipped})
    return passed, details


# -- 4 ---------------------------------------------------------------------


def _closed_walk_lengths(g: OrientedGraph, max_len: int) -> set[int]:
    rows = g.out_bits()
    power = list(rows)
    lengths = set()
    for ell in range(1, max_len + 1):
        if ell > 1:
            power = counting._bool_matmul(power, rows, g.n)
        if any(power[i] >> i & 1 for i in range(g.n)):
            lengths.add(ell)
    return lengths


@_timed
def run_freeness():
    passed = True
    details = {}

    bad = []
    for d in (3, 4, 5, 6):
        cid = ConstructionId("balanced_cycle_blowup", d=d)
        for n in range(d, 61):
            lengths = _closed_walk_lengths(generate(cid, n), 60)
            if any(ell % d for ell in lengths):
                bad.append((d, n))
    details["cycle_blowup_walks"] = "ok" if not bad else f"violations {bad[:5]}"
    passed = passed and not bad

    bad = [n for n in range(8, 41)
           if counting.has_cycle_subgraph(generate(ConstructionId("c5c7_bipartite_blobs"), n), 7)]
    details["c5c7_no_C7"] = "ok" if not bad else f"C7 at n={bad}"
    passed = passed and not bad

    cid = ConstructionId("threshold_c7", c=0.67757)
    bad = [n for n in range(7, 211)
           if counting.has_cycle_subgraph(generate(cid, n), 4)]
    details["threshold_no_C4"] = "ok" if not bad else f"C4 at n={bad[:5]}"
    passed = passed and not bad

    bad = [n for n in range(4, 61)
           if counting.has_cycle_subgraph(generate(ConstructionId("c5c3_tournament_blobs"), n), 3)]
    details["c5c3_no_C3"] = "ok" if not bad else f"C3 at n={bad[:5]}"
    passed = passed and not bad

    bad = [n for n in range(3, 61)
           if counting.has_cycle_subgraph(generate(ConstructionId("c3c6_sparse"), n), 6)]
    details["c3c6_no_C6"] = "ok" if not bad else f"C6 at n={bad[:5]}"
    passed = passed and not bad
    return passed, details


# -- 5 ---------------------------------------------------------------------


@_timed
def run_spectral_bound():
    start = time.time()
    passed = True
    details = {}
    worst = {}
    for n, k in ((12, 6), (20, 10)):
        for seed in range(100):
            g = random_bipartite_orientation(n, seed)
            report = spectral.bipartite_cycle_bound(g, k)
            sums = spectral.positive_real_part_sum(spectral.spectrum(g))
            if not (report.holds and sums.within_bound and sums.ky_fan_holds):
                passed = False
                details[f"violation n={n} seed={seed}"] = {
                    "copies": report.copies, "bound": float(report.bound),
                    "sum": sums.sum_real_parts,
                }
            key = f"K_{n//2},{n//2} k={k}"
            worst[key] = max(worst.get(key, 0), report.copies)
    elapsed = time.time() - start
    details["max_copies_seen"] = worst
    details["seconds"] = round(elapsed, 2)
    if elapsed > 120:
        passed = False
        details["runtime"] = "exceeded 120 s budget"
    return passed, details


# -- 6 ---------------------------------------------------------------------


def _oracle_reachable(gens: tuple[int, ...], limit: int) -> bytearray:
    """Exhaustive coefficient search, independent of the DP implementation."""
    reach = bytearray(limit + 1)
    a = gens[0]
    rest = gens[1:]
    for x in range(0, limit // a + 1):
        base = x * a
        if not rest:
            reach[base] = 1
            continue
        b = rest[0]
        for y in range(0, (limit - base) // b + 1):
            base2 = base + y * b
            if len(rest) == 1:
                reach[base2] = 1
                continue
            c = rest[1]
            for z in range(0, (limit - base2) // c + 1):
                reach[base2 + z * c] = 1
    return reach


@_timed
def run_frobenius():
    passed = True
    details = {}
    sets = checks = 0
    for size in (1, 2, 3):
        for gens in combinations_with_replacement(range(1, 13), size):
            sets += 1
            oracle = _oracle_reachable(gens, 200)
            bound = numtheory.brauer_bound(gens)
            dk = math.gcd(*gens) if len(gens) > 1 else gens[0]
            for ell in range(0, 201):
                result = numtheory.representable(
                    numtheory.RepresentabilityQuery(ell, gens))
                checks += 1
                if result.representable != bool(oracle[ell]):
                    passed = False
                    details[f"mismatch {gens} ell={ell}"] = result.representable
                if result.representable:
                    witness = sum(x * a for x, a in zip(result.witness, gens))
                    if witness != ell:
                        passed = False
                        details[f"bad witness {gens} ell={ell}"] = result.witness
                if ell > bound and ell % dk == 0 and not result.representable:
                    passed = False
                    details[f"brauer gap {gens} ell={ell}"] = bound
    details.update({"generator_sets": sets, "checks": checks})
    return passed, details


# -- 7 ---------------------------------------------------------------------


@_timed
def run_c5c7():
    from .constructions import c5c7_pattern

    passed = True
    details = {}
    model = density.density_model(c5c7_pattern(), 5)
    result = density.optimize_weights(model)
    target = (0.3, 0.3, 0.2, 0.2)
    weight_err = max(abs(w - t) for w, t in zip(result.weights, target))
    value_err = abs(result.value - 27 / 50000)
    ok = weight_err <= 1e-3 and value_err <= 1e-5
    details["c5c7"] = {"weights": [round(w, 6) for w in result.weights],
                       "weight_err": weight_err, "value": result.value,
                       "value_err": value_err, "ok": ok}
    passed = passed and ok

    for d in (3, 4, 5, 6):
        model = density.density_model(uniform_pattern(directed_cycle(d)), d)
        result = density.optimize_weights(model)
        err = max(abs(w - 1 / d) for w in result.weights)
        ok = err <= 1e-6
        details[f"balanced d={d}"] = {"max_err": err, "ok": ok}
        passed = passed and ok
    return passed, details


# -- 8 ---------------------------------------------------------------------


@_timed
def run_threshold():
    start = time.time()
    result = density.optimize_threshold(resolution=512)
    elapsed = time.time() - start
    c_ok = abs(result.c_star - 0.67757) <= 5e-3
    dens_ok = 0.0516 <= result.density_per_choose <= 0.0567
    time_ok = elapsed <= 300
    details = {
        "c_star": result.c_star,
        "density_per_choose": result.density_per_choose,
        "evaluations": result.evaluations,
        "seconds": round(elapsed, 2),
        "c_ok": c_ok, "density_ok": dens_ok, "time_ok": time_ok,
    }
    return c_ok and dens_ok and time_ok, details


# -- 9 ---------------------------------------------------------------------


@_timed
def run_neighbor_condition():
    passed = True
    details = {}
    for k, d in ((4, 4), (6, 3), (5, 5)):
        cid = ConstructionId("balanced_cycle_blowup", d=d)
        worst_ratio = 0.0
        for n in range(d, 41):
            g = generate(cid, n)
            report = counting.check_neighbor_condition(g, k, d)
            copies = counting.count_cycle_copies(g, k)
            bound = Fraction(n, k) * Fraction(n, d) ** (k - 1)
            ok = report.holds and copies <= bound
            if not ok:
                passed = False
                details[f"(k={k}, d={d}) n={n}"] = {
                    "holds": report.holds, "copies": copies, "bound": float(bound),
                    "witness": report.witness_vertex,
                }
            if copies:
                worst_ratio = max(worst_ratio, copies / float(bound))
        details[f"(k={k}, d={d})"] = {"max_count_to_bound": round(worst_ratio, 4)}
    return passed, details


# -- 10 --------------------------------------------------------------------


def _triangle_free_sample(rng: random.Random, index: int) -> OrientedGraph:
    """Graphs with bipartite underlying structure (no C3 and no TT3)."""
    kind = index % 3
    n = rng.randint(8, 40)
    if kind == 0:
        return random_bipartite_orientation(n, rng.randrange(1 << 30))
    if kind == 1:
        g = random_bipartite_orientation(n, rng.randrange(1 << 30))
        keep = [a for a in g.arcs_sorted() if rng.random() < 0.7]
        return OrientedGraph(g.n, keep)
    from .graphs import balanced_blow_up

    return balanced_blow_up(directed_cycle(rng.choice([4, 5])), n)


@_timed
def run_path_bound():
    passed = True
    details = {}
    rng = random.Random(424242)
    max_ratio = 0.0
    for i in range(100):
        g = _triangle_free_sample(rng, i)
        assert not counting.has_cycle_subgraph(g, 3)
        assert not search.has_transitive_triangle(g)
        for order in (4, 6, 8):
            paths = counting.count_paths(g, order)
            bound = g.n * Fraction(g.n, 4) ** (order - 1)
            if paths > bound:
                passed = False
                details[f"violation i={i} order={order}"] = {
                    "n": g.n, "paths": paths, "bound": float(bound)}
            if bound:
                max_ratio = max(max_ratio, paths / float(bound))
    details.update({"samples": 100, "max_path_to_bound": round(max_ratio, 4)})
    return passed, details


# -- 11 --------------------------------------------------------------------


@_timed
def run_iterated_c4():
    from .graphs import iterated_blowup_cycle_count

    passed = True
    details = {}
    cid = ConstructionId("iterated_c4")
    for n in (16, 64, 256):
        counted = counting.count_cycle_copies(generate(cid, n), 4)
        predicted = iterated_blowup_cycle_count(4, n)
        ok = counted == predicted
        passed = passed and ok
        details[f"n={n}"] = {"count": counted, "recursion": predicted, "ok": ok}
    measured = details["n=256"]["count"] * 256 / 256 ** 4
    details["limit_constant"] = {
        "measured_256_count_over_n4": measured,
        "candidate_256_over_255": 256 / 255,
        "candidate_256_over_252": 256 / 252,
        "closer_to": "256/252" if abs(measured - 256 / 252) < abs(measured - 256 / 255)
        else "256/255",
    }
    # the recursion value trends to n^4/252; the n^4/(4^4-1) statement is
    # recorded alongside for comparison, not asserted
    passed = passed and details["limit_constant"]["closer_to"] == "256/252"
    return passed, details


# -- 12 --------------------------------------------------------------------


@_timed
def run_directed_mode():
    passed = True
    details = {}
    d = numtheory.smallest_valid_divisor(4, 9, DIRECTED)
    ok = d == 2
    details["smallest_valid_divisor(4,9,directed)"] = {"d": d, "ok": ok}
    passed = passed and ok

    predicted = numtheory.predicted_extremal(4, 9, 24, DIRECTED)
    coeff = predicted.coefficient or predicted.lower_bound_coefficient
    ok = coeff == Fraction(1, 32)
    details["predicted_coefficient"] = {"coefficient": str(coeff), "ok": ok}
    passed = passed and ok

    cid = ConstructionId("complete_bipartite_digraph")
    for n in range(2, 25, 2):
        g = generate(cid, n)
        m = n // 2
        formula = 2 * math.comb(m, 2) ** 2
        cf = closed_form_count(cid, n, 4)
        ok = cf == formula
        if n <= 12:
            ok = ok and counting.count_cycle_copies(g, 4) == formula
        ok = ok and not counting.has_closed_walk(g, 9)
        if not ok:
            passed = False
            details[f"n={n}"] = {"closed_form": cf, "formula": formula}
    details["formula"] = "2 * C(n/2, 2)^2 even-cycle count through digon-paired parts"
    # formula / n^4 limit 2 * (m^2/2)^2 / n^4, derived from the digon pattern
    leading = evaluate_monomials(density_monomials(digon_pattern(), 4),
                                 (Fraction(1, 2), Fraction(1, 2)))
    details["leading_term"] = str(leading)
    details["leading_term_matches"] = leading == Fraction(1, 32)
    passed = passed and leading == Fraction(1, 32)
    return passed, details


REGISTRY = {
    "small_values": run_small_values,
    "counting_oracle": run_counting_oracle,
    "closed_forms": run_closed_forms,
    "freeness": run_freeness,
    "spectral_bound": run_spectral_bound,
    "frobenius": run_frobenius,
    "c5c7": run_c5c7,
    "threshold": run_threshold,
    "neighbor_condition": run_neighbor_condition,
    "path_bound": run_path_bound,
    "iterated_c4": run_iterated_c4,
    "directed_mode": run_directed_mode,
}


def run(name: str) -> CriterionResult:
    if name not in REGISTRY:
        raise KeyError(f"unknown reproduction target {name!r}; "
                       f"choose from {', '.join(REGISTRY)}")
    return REGISTRY[name]()
