"""Job families and the seeded job batches of the three workloads.

A job is one verification step modelled on an acceptance criterion of
``dicycles.reproduce`` (named in each family's docstring).  Its run
function is the timed part: it calls public dicycles functions, each
through the tracer, and returns the outputs.  Its check function runs
after the timer stops and returns explicit comparisons against the
independent references in :mod:`refs`.

Output keys starting with ``_`` hold floats, graph objects or values the
program may choose (witnesses, annealing results); the others are exact
values fixed by the mathematics and go into the output digest.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from dicycles import (cli, constructions, counting, density, graphs, numtheory,
                      pattern_walks, search, spectral)

import refs
from refs import close, eq, le

WORKLOADS = ("long_cycles", "short_walks", "small_extremal")

# threshold_c7 optimum and its density band in units of C(n, 5) (criterion 8)
C_STAR = 0.67757
BAND = (0.0516, 0.0567)


@dataclass
class Job:
    id: str
    family: str
    params: dict
    arcs: Optional[list] = None  # benchmark-generated input graph
    path: Optional[str] = None   # the file holding it


@dataclass(frozen=True)
class Family:
    run: Callable
    check: Callable


def _identity(x):
    return x


def _num_arcs(g):
    return g.num_arcs


def _blowup(d: int) -> dict:
    return {"kind": "balanced_cycle_blowup", "d": d}


def _graph(job: Job, t):
    """The job's input graph: parsed from its file, or generated."""
    if job.path is not None:
        text = Path(job.path).read_text()
        return t.call("graphs.read_graph", graphs.read_graph, text)
    p = job.params
    cid = constructions.ConstructionId(**p["construction"])
    return t.call("constructions.generate", constructions.generate, cid, p["n"], work=_num_arcs)


def _arcs(job: Job, out: dict) -> list:
    return job.arcs if job.arcs is not None else sorted(out["_graph"].arcs)


def _blowup_d(job: Job) -> Optional[int]:
    spec = job.params.get("construction", {})
    return spec.get("d") if spec.get("kind") == "balanced_cycle_blowup" else None


def _run_cli(t, argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = t.call("cli.main", cli.main, argv)
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if code == 0 and lines else {}


# ---------------------------------------------------------------------------
# long_cycles families
# ---------------------------------------------------------------------------


def run_paths(job, t):
    """path_bound: simple paths of order 6-8 on triangle-free graphs."""
    g = _graph(job, t)
    return {
        "c3": t.call("counting.has_cycle_subgraph", counting.has_cycle_subgraph, g, 3),
        "tt3": t.call("search.has_transitive_triangle", search.has_transitive_triangle, g),
        "paths": t.call("counting.count_paths", counting.count_paths, g, job.params["order"],
                        work=_identity),
        "_graph": g,
    }


def check_paths(job, out):
    n, order = job.params["n"], job.params["order"]
    paths = out["paths"]
    checks = [
        eq("C3-free input", out["c3"], False),
        eq("TT3-free input", out["tt3"], False),
        le("paths <= n (n/4)^(i-1)", paths, n * Fraction(n, 4) ** (order - 1)),
        le("paths <= walks", paths, refs.all_walks(n, _arcs(job, out), order - 1)),
    ]
    d = _blowup_d(job)
    if d:
        checks.append(eq("paths == blow-up closed form", paths,
                         refs.cycle_blowup_paths(refs.balanced_sizes(n, d), order)))
    return checks


def run_cycles(job, t):
    """closed_forms / spectral_bound: k-cycle copies with k >= 6."""
    g = _graph(job, t)
    copies = t.call("counting.count_cycle_copies", counting.count_cycle_copies, g,
                    job.params["k"], work=_identity)
    return {"copies": copies, "_graph": g}


def check_cycles(job, out):
    n, k = job.params["n"], job.params["k"]
    copies = out["copies"]
    checks = [le("k * copies <= tr(A^k)", k * copies, refs.closed_walks(n, _arcs(job, out), k))]
    d = _blowup_d(job)
    if d:
        checks.append(eq("copies == blow-up closed form", copies,
                         refs.cycle_blowup_cycles(refs.balanced_sizes(n, d), k)))
    elif k % 4 == 2:
        checks.append(le("copies <= 2/k (n/4)^k", copies, Fraction(2, k) * Fraction(n, 4) ** k))
    return checks


def run_neighbor(job, t):
    """neighbor_condition: the cycle neighbor condition on C_d blow-ups,
    and its failure once a vertex is planted next to too much of a cycle."""
    p = job.params
    k, d = p["k"], p["d"]
    g = _graph(job, t)
    out = {}
    if p.get("plant"):
        w = p["n"]
        g = t.call("graphs.new_graph", graphs.new_graph, w + 1,
                   list(g.arcs) + [(w, v) for v in p["plant"]])
    else:
        out["copies"] = t.call("counting.count_cycle_copies", counting.count_cycle_copies, g, k,
                               work=_identity)
    report = t.call("counting.check_neighbor_condition", counting.check_neighbor_condition, g, k, d)
    out.update(holds=report.holds, limit=report.limit, _graph=g,
               _witness=(report.witness_vertex, report.witness_cycle))
    return out


def check_neighbor(job, out):
    p = job.params
    n, k, d = p["n"], p["k"], p["d"]
    checks = [eq("limit == floor(2k/d)", out["limit"], (2 * k) // d)]
    if not p.get("plant"):
        checks += [
            eq("condition holds on the blow-up", out["holds"], True),
            eq("copies == blow-up closed form", out["copies"],
               refs.cycle_blowup_cycles(refs.balanced_sizes(n, d), k)),
            le("copies <= n/k (n/d)^(k-1)", out["copies"], Fraction(n, k) * Fraction(n, d) ** (k - 1)),
        ]
        return checks
    arcs = sorted(out["_graph"].arcs)
    vertex, cycle = out["_witness"]
    checks.append(eq("planted violation found", out["holds"], False))
    if not out["holds"]:
        checks += [
            eq("witness is a k-cycle", len(cycle or ()) == k and refs.is_cycle(arcs, cycle), True),
            eq("witness vertex exceeds the limit",
               refs.neighbours_on(arcs, vertex, cycle or ()) > out["limit"], True),
        ]
    return checks


def run_clear(job, t):
    """freeness: clearing a C_d blow-up with dead arcs and pendant vertices."""
    p = job.params
    base = _graph(job, t)
    extra = [tuple(a) for a in p["extra"]]
    g = t.call("graphs.new_graph", graphs.new_graph, p["n"] + p["pendants"], list(base.arcs) + extra)
    res = t.call("counting.clear", counting.clear, g, p["d"], p["ell"])
    walk = t.call("counting.has_closed_walk", counting.has_closed_walk, res.cleared, p["ell"])
    return {
        "removed_arcs": res.removed_arcs,
        "removed_vertices": res.removed_vertices,
        "fixed_point": res.is_fixed_point,
        "ell_walk_free": res.ell_walk_free,
        "closed_walk": walk,
        "cleared_n": res.cleared.n,
        "_cleared_arcs": res.cleared.arcs,
    }


def check_clear(job, out):
    p = job.params
    n, d, ell = p["n"], p["d"], p["ell"]
    return [
        eq("cleared graph == the blow-up", out["_cleared_arcs"], frozenset(refs.cycle_blowup_arcs(n, d))),
        eq("cleared n", out["cleared_n"], n),
        eq("removed vertices", out["removed_vertices"], p["pendants"]),
        eq("removed arcs", out["removed_arcs"], len(p["extra"])),
        eq("not a fixed point", out["fixed_point"], False),
        eq("ell-walk-free iff d does not divide ell", out["ell_walk_free"], ell % d != 0),
        eq("closed ell-walk iff d divides ell", out["closed_walk"], ell % d == 0),
    ]


def run_cli_count(job, t):
    """closed_forms through the CLI: `dicycles count` on a graph file."""
    p = job.params
    code, report = _run_cli(t, ["count", "--in", job.path, "--k", str(p["k"]),
                                "--paths-up-to", str(p["paths_up_to"])])
    return {
        "code": code,
        "copies": int(report.get("copies", -1)),
        "closed_walks": int(report.get("closed_walks", -1)),
        "paths": [int(report.get("paths", {}).get(str(i), -1)) for i in range(1, p["paths_up_to"] + 1)],
    }


def check_cli_count(job, out):
    p = job.params
    n, d, k = p["n"], p["d"], p["k"]
    sizes = refs.balanced_sizes(n, d)
    return [
        eq("exit code", out["code"], 0),
        eq("copies == blow-up closed form", out["copies"], refs.cycle_blowup_cycles(sizes, k)),
        eq("closed walks == tr(A^k)", out["closed_walks"], refs.closed_walks(n, job.arcs, k)),
        eq("paths == blow-up closed form", out["paths"],
           [refs.cycle_blowup_paths(sizes, i) for i in range(1, p["paths_up_to"] + 1)]),
    ]


# ---------------------------------------------------------------------------
# short_walks families
# ---------------------------------------------------------------------------


def run_iterated_c4(job, t):
    """iterated_c4: C4 copies and closed 4-walks of the iterated blow-up."""
    g = _graph(job, t)
    return {
        "copies": t.call("counting.count_cycle_copies", counting.count_cycle_copies, g, 4,
                         work=_identity),
        "walks": t.call("counting.count_closed_walks", counting.count_closed_walks, g, 4),
        "_graph": g,
    }


def check_iterated_c4(job, out):
    n = job.params["n"]
    return [
        eq("copies == iterated blow-up recursion", out["copies"],
           graphs.iterated_blowup_cycle_count(4, n)),
        eq("closed walks == tr(A^4)", out["walks"], refs.closed_walks(n, _arcs(job, out), 4)),
    ]


def run_copies(job, t):
    """closed_forms: k-cycle copies (k <= 5) in the constructions."""
    g = _graph(job, t)
    return {"copies": t.call("counting.count_cycle_copies", counting.count_cycle_copies, g,
                             job.params["k"], work=_identity)}


def check_copies(job, out):
    p = job.params
    cid = constructions.ConstructionId(**p["construction"])
    checks = [eq("copies == closed_form_count", out["copies"],
                 constructions.closed_form_count(cid, p["n"], p["k"]))]
    d = _blowup_d(job)
    if d:
        checks.append(eq("copies == blow-up closed form", out["copies"],
                         refs.cycle_blowup_cycles(refs.balanced_sizes(p["n"], d), p["k"])))
    return checks


def run_walks(job, t):
    """counting_oracle: closed walks of length 3-8 (adjacency traces)."""
    g = _graph(job, t)
    return {"walks": t.call("counting.count_closed_walks", counting.count_closed_walks, g,
                            job.params["length"]),
            "_graph": g}


def check_walks(job, out):
    p = job.params
    return [eq("closed walks == tr(A^l)", out["walks"],
               refs.closed_walks(p["n"], _arcs(job, out), p["length"]))]


def run_freeness(job, t):
    """freeness: closed-walk and forbidden-cycle sweeps of constructions."""
    p = job.params
    g = _graph(job, t)
    if p["test"] == "walk":
        flags = [t.call("counting.has_closed_walk", counting.has_closed_walk, g, ell)
                 for ell in p["lengths"]]
    else:
        flags = [t.call("counting.has_cycle_subgraph", counting.has_cycle_subgraph, g, ell)
                 for ell in p["lengths"]]
    return {"flags": flags}


def check_freeness(job, out):
    p = job.params
    if p["test"] == "walk":
        d = _blowup_d(job)
        return [eq("closed l-walk iff d | l", out["flags"], [ell % d == 0 for ell in p["lengths"]])]
    return [eq("forbidden cycles absent", out["flags"], [False] * len(p["lengths"]))]


def run_spectral(job, t):
    """spectral_bound: spectrum and top-half real-part sum of a bipartite
    orientation."""
    g = _graph(job, t)
    spec = t.call("spectral.spectrum", spectral.spectrum, g)
    report = t.call("spectral.positive_real_part_sum", spectral.positive_real_part_sum, spec)
    return {
        "bipartition": list(spec.bipartition) if spec.bipartition else None,
        "_within": report.within_bound,
        "_ky_fan": report.ky_fan_holds,
        "_eigenvalues": spec.eigenvalues,
    }


def check_spectral(job, out):
    n = job.params["n"]
    a = (n + 1) // 2
    checks = [
        eq("bipartition", out["bipartition"], [a, n - a]),
        eq("sum <= sqrt(m(n-m))/2", out["_within"], True),
        eq("Ky Fan bound", out["_ky_fan"], True),
    ]
    eig = np.array(out["_eigenvalues"])
    for j in (2, 3, 4):
        exact = refs.closed_walks(n, job.arcs, j)
        checks.append(close(f"sum lambda^{j} == tr(A^{j})", complex(np.sum(eig ** j)), exact,
                            1e-6 * max(1.0, abs(exact))))
    return checks


_DENSITY_PATTERNS = {
    # name -> (pattern factory, weights where the density is known, density there)
    "c5c7": (constructions.c5c7_pattern,
             (Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5)), Fraction(27, 50000)),
    "c5c3": (constructions.c5c3_pattern, (Fraction(1, 4),) * 4, Fraction(1, 512)),
}


def _density_pattern(p):
    if p["pattern"] == "cycle":
        d = p["d"]
        return (graphs.uniform_pattern(graphs.directed_cycle(d)), (Fraction(1, d),) * d,
                Fraction(1, d ** d))
    factory, weights, value = _DENSITY_PATTERNS[p["pattern"]]
    return factory(), weights, value


def run_density(job, t):
    """c5c7: exact copy densities and the weight optimizer."""
    p = job.params
    pattern, weights, _ = _density_pattern(p)
    monos = t.call("pattern_walks.density_monomials", pattern_walks.density_monomials, pattern, p["k"])
    value = t.call("pattern_walks.evaluate_monomials", pattern_walks.evaluate_monomials, monos, weights)
    model = t.call("density.density_model", density.density_model, pattern, p["k"])
    best = t.call("density.optimize_weights", density.optimize_weights, model)
    return {"terms": len(monos), "value": value, "_weights": best.weights, "_best": best.value}


def check_density(job, out):
    p = job.params
    _, weights, value = _density_pattern(p)
    checks = [eq("density at the known weights", out["value"], value)]
    if p["pattern"] == "c5c7":
        # criterion 7 tolerances
        checks += [close("optimal weights", max(abs(w - float(x)) for w, x in zip(out["_weights"], weights)),
                         0.0, 1e-3),
                   close("optimal density", out["_best"], float(value), 1e-5)]
    elif p["pattern"] == "cycle":
        checks += [close("balanced optimum", max(abs(w - float(weights[0])) for w in out["_weights"]),
                         0.0, 1e-6)]
    else:
        checks.append(le("optimum at least the known density", float(value) - 1e-12, out["_best"]))
    return checks


def _c7_chords_limit(k: int) -> float:
    """Full-arc limit of the 7-cycle-with-chords blow-up: tr(B^k) / (k 7^k)."""
    base = [(i, (i + 1) % 7) for i in range(7)] + [(i, (i + 3) % 7) for i in range(7)]
    return refs.closed_walks(7, base, k) / (k * 7 ** k)


def run_threshold(job, t):
    """threshold: transfer-matrix quadrature of the threshold density."""
    p = job.params
    res = p["resolution"]
    value = t.call("density.threshold_density", density.threshold_density, p["c"], k=p["k"],
                   resolution=res, work=3 * res * res)
    return {"_density": value}


def check_threshold(job, out):
    p = job.params
    value = out["_density"]
    if p["expect"] == "full":
        # at c = 1 every threshold pair points along its skeleton arc
        exact = _c7_chords_limit(p["k"])
        return [close("c = 1 density == full blow-up limit", value, exact, 1e-9 * exact)]
    if p["expect"] == "band":
        per_choose = value * 120  # in units of C(n, 5)
        return [le("density >= band low", BAND[0], per_choose),
                le("density <= band high", per_choose, BAND[1])]
    est, se = refs.threshold_c7_mc(p["c"], p["k"], p["samples"], np.random.default_rng(p["mc_seed"]))
    return [close("quadrature ~= Monte Carlo", value, est, 5 * se + 0.01 * est)]


# ---------------------------------------------------------------------------
# small_extremal families
# ---------------------------------------------------------------------------


def _forbid(p) -> list:
    return [f if f == "TT3" else int(f) for f in p["forbid"]]


def run_exhaustive(job, t):
    """small_values / directed_mode: exact maxima by the full scan."""
    p = job.params
    n = p["n"]
    states = (3 if p["mode"] == graphs.ORIENTED else 4) ** (n * (n - 1) // 2)
    rec = t.call("search.exhaustive_extremal", search.exhaustive_extremal, n, p["k"], _forbid(p),
                 p["mode"], threads=1, work=states)
    return {"max": rec.max_copies, "_witnesses": [sorted(w.arcs) for w in rec.witnesses]}


def check_exhaustive(job, out):
    p = job.params
    n, k = p["n"], p["k"]
    forbid = _forbid(p)
    # forbidding digons in digon mode leaves the oriented problem
    predictor = search.finite_prediction(k, [f for f in forbid if f != 2])
    checks = [eq("max == finite_prediction", out["max"], predictor(n)),
              le("at least one witness", 1, len(out["_witnesses"]))]
    for arcs in out["_witnesses"]:
        checks += [eq("witness copies == max", refs.cycle_count(n, arcs, k), out["max"]),
                   eq("witness avoids the forbidden set", refs.contains_forbidden(n, arcs, forbid), False)]
    return checks


def run_local_search(job, t):
    """small_values at n = 7-12: annealing lower bounds, re-checked."""
    p = job.params
    forbid = _forbid(p)
    rec = t.call("search.local_search_extremal", search.local_search_extremal, p["n"], p["k"], forbid,
                 p["budget"], p["seed"], work=p["budget"])
    w = rec.witnesses[0]
    recount = t.call("counting.count_cycle_copies", counting.count_cycle_copies, w, p["k"], work=_identity)
    found = [t.call("search.has_transitive_triangle", search.has_transitive_triangle, w) if f == "TT3"
             else t.call("counting.has_cycle_subgraph", counting.has_cycle_subgraph, w, f)
             for f in forbid]
    return {"_value": rec.max_copies, "_recount": recount, "_found": found, "_arcs": sorted(w.arcs)}


def check_local_search(job, out):
    p = job.params
    n, k = p["n"], p["k"]
    forbid = _forbid(p)
    value = out["_value"]
    checks = [
        eq("witness recount (program)", out["_recount"], value),
        eq("witness recount (reference)", refs.cycle_count(n, out["_arcs"], k), value),
        eq("program finds no forbidden pattern", out["_found"], [False] * len(forbid)),
        eq("witness avoids the forbidden set", refs.contains_forbidden(n, out["_arcs"], forbid), False),
    ]
    if k == 3:
        checks.append(le("value <= ceil_cubic_value(n)", value, numtheory.ceil_cubic_value(n)))
    return checks


def run_representable(job, t):
    """frobenius: a representability sweep over consecutive targets."""
    p = job.params
    gens = tuple(p["gens"])
    results = [t.call("numtheory.representable", numtheory.representable,
                      numtheory.RepresentabilityQuery(x, gens))
               for x in range(p["lo"], p["hi"])]
    return {
        "bits": "".join("1" if r.representable else "0" for r in results),
        "witnesses": [list(r.witness) if r.witness is not None else None for r in results],
        "brauer": results[0].brauer_bound,
    }


def check_representable(job, out):
    p = job.params
    gens, lo, hi = p["gens"], p["lo"], p["hi"]
    reach = refs.representable_bits(gens, hi)
    expected = "".join("1" if reach >> x & 1 else "0" for x in range(lo, hi))
    bad = [x for x, w in zip(range(lo, hi), out["witnesses"])
           if w is not None and (min(w) < 0 or sum(c * a for c, a in zip(w, gens)) != x)]
    return [eq("representable == reference", out["bits"], expected),
            eq("witnesses sum to their targets", bad, []),
            eq("Brauer bound", out["brauer"], refs.brauer_bound(gens))]


# ---------------------------------------------------------------------------
# Every workload: one small call of each traced layer
# ---------------------------------------------------------------------------


def run_cross(job, t):
    """One small call of every layer, so each workload shows each layer's
    share: the C4 blow-up on 8 vertices, read from its file."""
    g = _graph(job, t)
    g5 = t.call("constructions.generate", constructions.generate,
                constructions.ConstructionId(**_blowup(5)), 10, work=_num_arcs)
    c3 = graphs.uniform_pattern(graphs.directed_cycle(3))
    spec = t.call("spectral.spectrum", spectral.spectrum, g)
    monos = t.call("pattern_walks.density_monomials", pattern_walks.density_monomials, c3, 3)
    model = t.call("density.density_model", density.density_model, c3, 3)
    best = t.call("density.optimize_weights", density.optimize_weights, model, [[0.5, 0.3, 0.2]])
    local = t.call("search.local_search_extremal", search.local_search_extremal, 6, 3, [4], 300,
                   job.params["seed"], work=300)
    code, frob = _run_cli(t, ["frobenius", "--l", "8", "--gens", "3,5"])
    return {
        "paths": t.call("counting.count_paths", counting.count_paths, g5, 4, work=_identity),
        "copies": t.call("counting.count_cycle_copies", counting.count_cycle_copies, g, 4, work=_identity),
        "walks": t.call("counting.count_closed_walks", counting.count_closed_walks, g, 8),
        "walk3": t.call("counting.has_closed_walk", counting.has_closed_walk, g, 3),
        "c4": t.call("counting.has_cycle_subgraph", counting.has_cycle_subgraph, g, 4),
        "neighbor": t.call("counting.check_neighbor_condition", counting.check_neighbor_condition,
                           g, 4, 4).holds,
        "cleared": t.call("counting.clear", counting.clear, g, 4, 6).is_fixed_point,
        "bipartition": list(spec.bipartition) if spec.bipartition else None,
        "density": pattern_walks.evaluate_monomials(monos, (Fraction(1, 3),) * 3),
        "exhaustive": t.call("search.exhaustive_extremal", search.exhaustive_extremal, 4, 3, [4],
                             threads=1, work=3 ** 6).max_copies,
        "frobenius": [t.call("numtheory.representable", numtheory.representable,
                             numtheory.RepresentabilityQuery(x, (3, 5))).representable for x in (7, 8)],
        "cli": [code, frob.get("representable")],
        "_weights": best.weights,
        "_local": (local.max_copies, sorted(local.witnesses[0].arcs)),
        "_threshold": t.call("density.threshold_density", density.threshold_density, 1.0, k=5,
                             resolution=16, work=3 * 16 * 16),
    }


def check_cross(job, out):
    arcs = job.arcs
    local_value, local_arcs = out["_local"]
    limit = _c7_chords_limit(5)
    return [
        eq("paths (C5 blow-up)", out["paths"], refs.cycle_blowup_paths(refs.balanced_sizes(10, 5), 4)),
        eq("copies (C4 blow-up)", out["copies"], refs.cycle_blowup_cycles((2, 2, 2, 2), 4)),
        eq("closed walks", out["walks"], refs.closed_walks(8, arcs, 8)),
        eq("no closed 3-walk", out["walk3"], False),
        eq("C4 present", out["c4"], True),
        eq("neighbor condition", out["neighbor"], True),
        eq("already cleared", out["cleared"], True),
        eq("bipartition", out["bipartition"], [4, 4]),
        eq("C3 density at 1/3", out["density"], Fraction(1, 27)),
        close("C3 optimum", max(abs(w - 1 / 3) for w in out["_weights"]), 0.0, 1e-6),
        eq("exhaustive n=4", out["exhaustive"], 2),
        eq("representable 7, 8 by 3, 5", out["frobenius"], [False, True]),
        eq("cli frobenius", out["cli"], [0, True]),
        eq("local search recount", refs.cycle_count(6, local_arcs, 3), local_value),
        le("local search <= ceil_cubic_value(6)", local_value, 8),
        close("threshold at c = 1", out["_threshold"], limit, 1e-9 * limit),
    ]


FAMILIES = {
    "paths": Family(run_paths, check_paths),
    "cycles": Family(run_cycles, check_cycles),
    "neighbor": Family(run_neighbor, check_neighbor),
    "clear": Family(run_clear, check_clear),
    "cli_count": Family(run_cli_count, check_cli_count),
    "iterated_c4": Family(run_iterated_c4, check_iterated_c4),
    "copies": Family(run_copies, check_copies),
    "walks": Family(run_walks, check_walks),
    "freeness": Family(run_freeness, check_freeness),
    "spectral": Family(run_spectral, check_spectral),
    "density": Family(run_density, check_density),
    "threshold": Family(run_threshold, check_threshold),
    "exhaustive": Family(run_exhaustive, check_exhaustive),
    "local_search": Family(run_local_search, check_local_search),
    "representable": Family(run_representable, check_representable),
    "cross": Family(run_cross, check_cross),
}


# ---------------------------------------------------------------------------
# Seeded batches
# ---------------------------------------------------------------------------


class Batch:
    """Collects a workload's warm-up jobs and timed jobs, writing each
    benchmark-generated input graph to its own file under ``workdir``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.jobs: list[Job] = []
        self.warmups: list[Job] = []

    def _make(self, family, params, arcs, n, tag) -> Job:
        job = Job(f"{tag}{family}-{len(self.jobs) + len(self.warmups)}", family, params, arcs)
        if arcs is not None:
            path = self.workdir / f"{job.id}.txt"
            path.write_text(refs.graph_text(n if n is not None else params["n"], arcs))
            job.path = str(path)
        return job

    def add(self, family, params, arcs=None, n=None):
        self.jobs.append(self._make(family, params, arcs, n, ""))

    def warm(self, family, params, arcs=None, n=None):
        self.warmups.append(self._make(family, params, arcs, n, "warm-"))


def _add_cross(b: Batch, rng) -> None:
    b.add("cross", {"seed": rng.randrange(1 << 30)}, arcs=refs.cycle_blowup_arcs(8, 4), n=8)


def _planted(rng, n: int, k: int, d: int) -> list[int]:
    """floor(2k/d) + 1 vertices of one k-cycle of the C_d blow-up."""
    blobs = refs.blob_ranges(refs.balanced_sizes(n, d))
    per_blob = [rng.sample(list(blob), k // d) for blob in blobs]
    cycle = [per_blob[j % d][j // d] for j in range(k)]
    return rng.sample(cycle, (2 * k) // d + 1)


def _clear_params(rng, n: int, d: int) -> dict:
    blobs = refs.blob_ranges(refs.balanced_sizes(n, d))
    extra = set()
    while len(extra) < 3:  # arcs inside a blob lie on no d-cycle
        u, v = sorted(rng.sample(list(blobs[rng.randrange(d)]), 2))
        extra.add((u, v))
    pendants = 3
    for x in range(n, n + pendants):  # sources lie on no cycle at all
        extra.update((x, v) for v in rng.sample(range(n), rng.randint(2, 4)))
    return {"n": n, "d": d, "ell": rng.choice((d + 1, 2 * d, 2 * d + 1, 3 * d)),
            "pendants": pendants, "extra": sorted(extra), "construction": _blowup(d)}


def _long_cycles(b: Batch, rng) -> None:
    b.warm("paths", {"n": 12, "order": 5, "kind": "bipartite"}, arcs=refs.balanced_bipartite(rng, 12))
    b.warm("cycles", {"n": 12, "k": 6, "kind": "bipartite"}, arcs=refs.balanced_bipartite(rng, 12))
    b.warm("neighbor", {"n": 12, "k": 4, "d": 4, "construction": _blowup(4)})
    b.warm("clear", _clear_params(rng, 12, 4))
    b.warm("cli_count", {"n": 9, "d": 3, "k": 3, "paths_up_to": 3}, arcs=refs.cycle_blowup_arcs(9, 3))
    b.warm("cross", {"seed": 0}, arcs=refs.cycle_blowup_arcs(8, 4), n=8)

    # fixed input: the path spot check on one K20,20 orientation, at order 7
    # (order 8 takes 10-15 s, longer than a pass)
    b.add("paths", {"n": 40, "order": 7, "kind": "bipartite", "input": "K20,20"},
          arcs=refs.bipartite_orientation(random.Random("K20,20"), 40))
    for n, order, d in ((16, 8, 4), (20, 7, 5), (20, 8, 5), (24, 6, 4), (24, 7, 5), (28, 6, 5),
                        (28, 7, 4), (32, 6, 4)):
        b.add("paths", {"n": n, "order": order, "kind": "bipartite"}, arcs=refs.balanced_bipartite(rng, n))
        b.add("paths", {"n": n, "order": order, "kind": "thinned"},
              arcs=refs.balanced_bipartite(rng, n, keep=0.7))
        b.add("paths", {"n": n, "order": order, "construction": _blowup(d)})
    for n, k in ((20, 8), (20, 10), (22, 10), (24, 6), (24, 8)):
        b.add("cycles", {"n": n, "k": k, "kind": "bipartite"}, arcs=refs.balanced_bipartite(rng, n))
    for d, k, n in ((3, 6, 30), (3, 9, 18), (4, 8, 24), (5, 10, 25), (6, 6, 36)):
        b.add("cycles", {"n": n, "k": k, "construction": _blowup(d)})
    for k, d, sizes in ((4, 4, (36, 40)), (6, 3, (21, 24)), (5, 5, (35, 40))):
        for n in sizes:
            b.add("neighbor", {"n": n, "k": k, "d": d, "construction": _blowup(d)})
        n = sizes[0]
        b.add("neighbor", {"n": n, "k": k, "d": d, "construction": _blowup(d),
                           "plant": _planted(rng, n, k, d)})
    for d, n in ((4, 32), (4, 40), (5, 35), (5, 40), (6, 30), (6, 36)):
        b.add("clear", _clear_params(rng, n, d))
    for d, n in ((3, 18), (4, 18), (5, 18)):
        b.add("cli_count", {"n": n, "d": d, "k": 2 * d, "paths_up_to": 5}, arcs=refs.cycle_blowup_arcs(n, d))
    _add_cross(b, rng)


def _short_walks(b: Batch, rng) -> None:
    b.warm("iterated_c4", {"n": 32, "construction": {"kind": "iterated_c4"}})
    b.warm("copies", {"n": 12, "k": 5, "construction": {"kind": "c5c3_tournament_blobs"}})
    b.warm("walks", {"n": 16, "length": 4}, arcs=refs.bipartite_orientation(rng, 16))
    b.warm("freeness", {"n": 12, "test": "walk", "lengths": [3, 4, 5, 6], "construction": _blowup(3)})
    b.warm("spectral", {"n": 16}, arcs=refs.bipartite_orientation(rng, 16))
    b.warm("density", {"pattern": "cycle", "d": 3, "k": 3})
    # the first 512-resolution quadrature in a process is the cold call
    b.warm("threshold", {"c": C_STAR, "k": 5, "resolution": 512, "expect": "band"})
    b.warm("cross", {"seed": 0}, arcs=refs.cycle_blowup_arcs(8, 4), n=8)

    # fixed input: the ROADMAP spot checks on iterated_c4 at n = 256
    b.add("iterated_c4", {"n": 256, "construction": {"kind": "iterated_c4"}})
    for spec, k, n in (({"kind": "c5c3_tournament_blobs"}, 5, 60),
                       ({"kind": "c5c7_bipartite_blobs"}, 5, 64),
                       ({"kind": "c5c7_bipartite_blobs", "variant": "opposite"}, 5, 60),
                       ({"kind": "c7_chords_blowup"}, 5, 84),
                       ({"kind": "c7_chords_blowup"}, 4, 98),
                       ({"kind": "iterated_c4"}, 4, 128),
                       ({"kind": "sparse_singleton_blowup", "k": 5}, 5, 96),
                       (_blowup(3), 3, 120),
                       (_blowup(4), 4, 96),
                       (_blowup(5), 5, 70),
                       ({"kind": "c3c6_sparse"}, 3, 128),
                       ({"kind": "complete_bipartite_digraph"}, 4, 40)):
        b.add("copies", {"n": n, "k": k, "construction": spec})
    for n, length in ((96, 4), (96, 8), (128, 6), (128, 8)):
        b.add("walks", {"n": n, "length": length}, arcs=refs.bipartite_orientation(rng, n))
    for length in (3, 5, 7):
        b.add("walks", {"n": 64, "length": length}, arcs=refs.random_orientation(rng, 64, 0.3))
    for n, length in ((64, 8), (128, 5)):
        b.add("walks", {"n": n, "length": length, "construction": {"kind": "iterated_c4"}})
    for d in (3, 4, 5):
        b.add("freeness", {"n": 105, "test": "walk", "lengths": list(range(3, 13)),
                           "construction": _blowup(d)})
    for spec, ell, lo, hi in (({"kind": "c5c7_bipartite_blobs"}, 7, 40, 60),
                              ({"kind": "threshold_c7", "c": C_STAR}, 4, 100, 140),
                              ({"kind": "c5c3_tournament_blobs"}, 3, 64, 96),
                              ({"kind": "c3c6_sparse"}, 6, 64, 96),
                              ({"kind": "iterated_c4"}, 3, 128, 129)):
        b.add("freeness", {"n": rng.randrange(lo, hi), "test": "subgraph", "lengths": [ell],
                           "construction": spec})
    # sizes in small steps around the median latency: no gap there for the
    # median to jump across, and no cluster of equal latencies
    for n in (64, 96, 112, 120, 128, 136, 144, 152, 160, 192):
        b.add("spectral", {"n": n}, arcs=refs.bipartite_orientation(rng, n))
    for d in (3, 4, 5):
        b.add("density", {"pattern": "cycle", "d": d, "k": d})
    b.add("density", {"pattern": "c5c7", "k": 5})
    b.add("density", {"pattern": "c5c3", "k": 5})
    # fixed input: the quadrature spot check at resolution 512
    b.add("threshold", {"c": C_STAR, "k": 5, "resolution": 512, "expect": "band"})
    b.add("threshold", {"c": 1.0, "k": 5, "resolution": 256, "expect": "full"})
    for res in (128, 256, 384, 512):
        b.add("threshold", {"c": round(rng.uniform(0.55, 0.8), 6), "k": 5, "resolution": res,
                            "expect": "mc", "samples": 200_000, "mc_seed": rng.randrange(1 << 30)})
    _add_cross(b, rng)


_LOCAL_TARGETS = ((3, [4]), (3, [5]), (3, ["TT3"]), (4, [3]))


def _small_extremal(b: Batch, rng) -> None:
    b.warm("exhaustive", {"n": 4, "k": 3, "forbid": [4], "mode": graphs.ORIENTED})
    b.warm("local_search", {"n": 6, "k": 3, "forbid": [4], "budget": 300, "seed": 1})
    b.warm("representable", {"gens": [3, 5], "lo": 0, "hi": 50})
    b.warm("cross", {"seed": 0}, arcs=refs.cycle_blowup_arcs(8, 4), n=8)

    # fixed input: the exhaustive spot check at n = 6
    b.add("exhaustive", {"n": 6, "k": 3, "forbid": [4], "mode": graphs.ORIENTED})
    for k, forbid in ((3, [4]), (3, [5]), (3, ["TT3"]), (4, [3])):
        b.add("exhaustive", {"n": 5, "k": k, "forbid": forbid, "mode": graphs.ORIENTED})
    b.add("exhaustive", {"n": 5, "k": 3, "forbid": [2, 4], "mode": graphs.DIRECTED})
    # Budgets are fixed per (n, forbidden set), so a pass does the same work
    # for every seed; the seed picks only the annealing seeds.  Two budgets
    # of six levels per target spread the latencies evenly, with no cluster
    # of equal ones: on a shared host whose speed changes from second to
    # second, a quantile inside such a cluster jumps between its fast and
    # its slow level.
    budgets = (1500, 2500, 3500, 5000, 6500, 8000)
    for n in range(7, 13):
        for i, (k, forbid) in enumerate(_LOCAL_TARGETS):
            for j in (0, 3):
                b.add("local_search", {"n": n, "k": k, "forbid": forbid,
                                       "budget": budgets[(n + i + j) % 6],
                                       "seed": rng.randrange(1 << 30)})
    # three coprime generators each, so every sweep costs about the same
    for _ in range(6):
        gens = sorted(rng.sample(range(3, 30), 3))
        while math.gcd(*gens) != 1:
            gens = sorted(rng.sample(range(3, 30), 3))
        b.add("representable", {"gens": gens, "lo": 0, "hi": 300})
    _add_cross(b, rng)


_BUILDERS = {"long_cycles": _long_cycles, "short_walks": _short_walks, "small_extremal": _small_extremal}


def build(workload: str, seed: int, workdir: Path) -> Batch:
    """The workload's warm-up and timed jobs for ``seed``; the same seed
    always gives the same inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    batch = Batch(workdir)
    _BUILDERS[workload](batch, random.Random(f"{workload}/{seed}"))
    return batch
