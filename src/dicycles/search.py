"""Ground-truth extremal values at small n, plus seeded local search.

The exhaustive engine scans every pair-state assignment (3 states per
vertex pair in oriented mode, 4 with digons) in vectorized chunks: cycle
copies are accumulated from precomputed arc patterns and forbidden
configurations are masked out, so the reported maximum is exact with no
isomorphism machinery in the hot path.  Canonical forms are only used to
deduplicate the reported witnesses.  Local search is simulated annealing
over pair states with forbidden-pattern rejection; it reports lower bounds
only.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional, Sequence

import numpy as np

from .counting import _simple_paths, count_cycle_copies, has_cycle_subgraph
from .graphs import DIRECTED, ORIENTED, OrientedGraph, canonical_arcs
from .numtheory import ceil_cubic_value
from .graphs import iterated_blowup_cycle_count


class SearchError(ValueError):
    pass


class TooLargeError(SearchError):
    pass


TT3 = "TT3"
MAX_WITNESSES = 4


def parse_forbidden(items) -> tuple:
    """Normalize a forbidden list to ints (cycle lengths) and the TT3 tag."""
    out = []
    for item in items:
        if isinstance(item, int):
            if item < 2:
                raise SearchError(f"forbidden cycle length {item} too small")
            out.append(item)
        else:
            token = str(item).strip().upper()
            if token in ("TT3", "TRANSITIVE_TRIANGLE"):
                out.append(TT3)
            elif token.startswith("C") and token[1:].isdigit():
                out.append(int(token[1:]))
            else:
                raise SearchError(f"cannot parse forbidden pattern {item!r}")
    return tuple(out)


def has_transitive_triangle(g: OrientedGraph) -> bool:
    out, inn = g.out_bits(), g.in_bits()
    return any(out[u] & inn[v] for (u, v) in g.arcs)


def contains_forbidden(g: OrientedGraph, forbidden) -> bool:
    for item in parse_forbidden(forbidden):
        if item == TT3:
            if has_transitive_triangle(g):
                return True
        elif has_cycle_subgraph(g, item):
            return True
    return False


@dataclass(frozen=True)
class ExtremalRecord:
    n: int
    k: int
    forbidden: tuple
    mode: str
    max_copies: int
    witnesses: tuple[OrientedGraph, ...]
    method: str
    search_budget: Optional[int] = None

    def to_dict(self) -> dict:
        from .graphs import write_graph

        return {
            "n": self.n,
            "k": self.k,
            "forbidden": [str(f) for f in self.forbidden],
            "mode": self.mode,
            "max_copies": str(self.max_copies),
            "witnesses": [write_graph(w) for w in self.witnesses],
            "method": self.method,
            "search_budget": self.search_budget,
        }


def _check_witness(g: OrientedGraph, k: int, forbidden, copies: int) -> None:
    """Re-verify a witness through the counting module."""
    recount = count_cycle_copies(g, k)
    if recount != copies:
        raise SearchError(f"witness has {recount} copies of C{k}, search reported {copies}")
    if contains_forbidden(g, forbidden):
        raise SearchError("witness contains a forbidden pattern")


# ---------------------------------------------------------------------------
# Exhaustive scan
# ---------------------------------------------------------------------------


def _cycle_arc_patterns(n: int, k: int) -> list[tuple[tuple[int, int], ...]]:
    """Each directed k-cycle on [0, n) once, as its arc tuple."""
    if k == 2:
        return [((u, v), (v, u)) for u, v in combinations(range(n), 2)]
    pats = []
    for subset in combinations(range(n), k):
        s = subset[0]
        for perm in permutations(subset[1:]):
            seq = (s,) + perm
            pats.append(tuple((seq[i], seq[(i + 1) % k]) for i in range(k)))
    return pats


def _tt3_arc_patterns(n: int) -> list[tuple[tuple[int, int], ...]]:
    return [((a, b), (b, c), (a, c)) for a, b, c in permutations(range(n), 3)]


def _forbidden_patterns(n: int, forbidden) -> list[tuple[tuple[int, int], ...]]:
    pats = []
    for item in parse_forbidden(forbidden):
        if item == TT3:
            pats.extend(_tt3_arc_patterns(n))
        elif item <= n:
            pats.extend(_cycle_arc_patterns(n, item))
    return pats


def _decode(code: int, pairs, mode: str, n: int) -> OrientedGraph:
    arcs = []
    for p, (u, v) in enumerate(pairs):
        if mode == ORIENTED:
            state = (code // 3 ** p) % 3
            if state == 1:
                arcs.append((u, v))
            elif state == 2:
                arcs.append((v, u))
        else:
            state = (code >> (2 * p)) & 3
            if state & 1:
                arcs.append((u, v))
            if state & 2:
                arcs.append((v, u))
    return OrientedGraph(n, arcs, mode)


def _scan_chunk(lo, hi, pairs, mode, count_pats, forb_pats):
    codes = np.arange(lo, hi, dtype=np.int64)
    arc: dict[tuple[int, int], np.ndarray] = {}
    for p, (u, v) in enumerate(pairs):
        if mode == ORIENTED:
            state = (codes // 3 ** p) % 3
            arc[(u, v)] = state == 1
            arc[(v, u)] = state == 2
        else:
            state = codes >> (2 * p)
            arc[(u, v)] = (state & 1).astype(bool)
            arc[(v, u)] = (state & 2).astype(bool)
    counts = np.zeros(len(codes), np.uint16)
    for pat in count_pats:
        mask = arc[pat[0]] & arc[pat[1]]
        for a in pat[2:]:
            mask &= arc[a]
        counts += mask
    allowed = np.ones(len(codes), bool)
    for pat in forb_pats:
        mask = arc[pat[0]] & arc[pat[1]]
        for a in pat[2:]:
            mask &= arc[a]
        allowed &= ~mask
    if not allowed.any():
        return -1, []
    valid_counts = np.where(allowed, counts, 0)
    best = int(valid_counts.max())
    if best == 0:
        # count zero is attainable (the empty assignment is always valid)
        hits = np.nonzero(allowed)[0][:MAX_WITNESSES]
    else:
        hits = np.nonzero(valid_counts == best)[0][:MAX_WITNESSES]
    return best, [int(codes[i]) for i in hits]


def exhaustive_extremal(n: int, k: int, forbidden, mode: str = ORIENTED,
                        threads: int = 1, chunk_size: int = 1 << 20) -> ExtremalRecord:
    """Exact maximum of k-cycle copies over all n-vertex graphs avoiding the
    forbidden patterns, by full enumeration of pair states.

    n <= 6 (3^15 oriented assignments; 4^15 with digons).  Witnesses are
    canonical-form deduplicated and re-verified through the counting
    module before being returned.
    """
    if n > 6:
        raise TooLargeError("exhaustive search supports n <= 6")
    if k < 2:
        raise SearchError("k must be at least 2")
    forbidden = parse_forbidden(forbidden)
    pairs = list(combinations(range(n), 2))
    total = (3 if mode == ORIENTED else 4) ** len(pairs)
    count_pats = _cycle_arc_patterns(n, k) if k <= n else []
    forb_pats = _forbidden_patterns(n, forbidden)

    ranges = [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]

    def work(rng):
        return _scan_chunk(rng[0], rng[1], pairs, mode, count_pats, forb_pats)

    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, ranges))
    else:
        results = [work(rng) for rng in ranges]

    best = -1
    codes: list[int] = []
    for chunk_best, chunk_codes in results:
        if chunk_best > best:
            best = chunk_best
            codes = list(chunk_codes)
        elif chunk_best == best:
            codes.extend(chunk_codes)
    if best < 0:
        raise SearchError("no admissible graph found (inconsistent forbidden set)")

    # the globally smallest attaining codes, so the output does not depend
    # on chunking or thread count
    codes = sorted(codes)[:MAX_WITNESSES]
    witnesses = []
    seen = set()
    for code in codes:
        g = _decode(code, pairs, mode, n)
        key = canonical_arcs(g)
        if key in seen:
            continue
        seen.add(key)
        _check_witness(g, k, forbidden, best)
        witnesses.append(g)
        if len(witnesses) >= MAX_WITNESSES:
            break
    return ExtremalRecord(n, k, forbidden, mode, best, tuple(witnesses), "exhaustive")


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------


class _AnnealState:
    """Mutable pair-state assignment with incremental adjacency and count."""

    def __init__(self, n: int, k: int, forbidden, mode: str):
        self.n = n
        self.k = k
        self.mode = mode
        self.forbidden = parse_forbidden(forbidden)
        self.pairs = list(combinations(range(n), 2))
        self.states = [0] * len(self.pairs)
        self.out = [0] * n
        self.inn = [0] * n
        self.count = 0

    def _creates_forbidden(self, u: int, v: int) -> bool:
        # would adding arc u -> v close a forbidden configuration?
        out, inn = self.out, self.inn
        for item in self.forbidden:
            if item == TT3:
                if (out[u] & out[v]) or (inn[u] & inn[v]) or (out[u] & inn[v]):
                    return True
            elif item == 2:
                if out[v] >> u & 1:
                    return True
            elif _simple_paths(out, v, item - 1, ~(1 << u), 1 << u, limit=1):
                return True
        return False

    def _add_arc(self, u: int, v: int) -> Optional[int]:
        """Add u -> v unless it closes a forbidden pattern; return delta."""
        if self._creates_forbidden(u, v):
            return None
        self.out[u] |= 1 << v
        self.inn[v] |= 1 << u
        delta = self._cycles_through(u, v)
        self.count += delta
        return delta

    def _remove_arc(self, u: int, v: int) -> int:
        delta = self._cycles_through(u, v)
        self.out[u] &= ~(1 << v)
        self.inn[v] &= ~(1 << u)
        self.count -= delta
        return delta

    def _cycles_through(self, u: int, v: int) -> int:
        # k-cycles containing the arc u -> v (currently present)
        if self.k == 3:
            return (self.out[v] & self.inn[u]).bit_count()
        return _simple_paths(self.out, v, self.k - 1, ~(1 << u), 1 << u)

    def _arcs_of(self, state: int, u: int, v: int) -> list[tuple[int, int]]:
        arcs = []
        if state & 1:
            arcs.append((u, v))
        if state & 2:
            arcs.append((v, u))
        return arcs

    def try_set(self, pair_idx: int, new_state: int) -> Optional[int]:
        """Apply a pair transition; None (state unchanged) on rejection."""
        old_state = self.states[pair_idx]
        u, v = self.pairs[pair_idx]
        old_arcs = self._arcs_of(old_state, u, v)
        new_arcs = self._arcs_of(new_state, u, v)
        removed = [a for a in old_arcs if a not in new_arcs]
        added = [a for a in new_arcs if a not in old_arcs]
        before = self.count
        done_rm = []
        done_add = []
        for a in removed:
            self._remove_arc(*a)
            done_rm.append(a)
        ok = True
        for a in added:
            if self._add_arc(*a) is None:
                ok = False
                break
            done_add.append(a)
        if not ok:
            for a in reversed(done_add):
                self._remove_arc(*a)
            for a in reversed(done_rm):
                # re-adding a previously present arc cannot be forbidden in
                # a graph that is a subgraph of the original valid graph
                if self._add_arc(*a) is None:
                    raise SearchError(f"rollback could not restore arc {a}")
            if self.count != before:
                raise SearchError("rollback did not restore the cycle count")
            return None
        self.states[pair_idx] = new_state
        return self.count - before

    def graph(self) -> OrientedGraph:
        arcs = []
        for idx, (u, v) in enumerate(self.pairs):
            arcs.extend(self._arcs_of(self.states[idx], u, v))
        return OrientedGraph(self.n, arcs, self.mode)


def local_search_extremal(n: int, k: int, forbidden, budget: int, seed: int,
                          mode: str = ORIENTED) -> ExtremalRecord:
    """Simulated annealing over pair states with forbidden-pattern rejection.

    Geometric cooling with a restart to the initial temperature on
    stagnation; all randomness comes from one generator seeded with
    ``seed``, so results are reproducible.  The reported value is a lower
    bound only.
    """
    rng = random.Random(seed)
    state = _AnnealState(n, k, forbidden, mode)
    n_states = 3 if mode == ORIENTED else 4
    best_count = 0
    best_graph = state.graph()
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
        idx = rng.randrange(len(state.pairs))
        new_state = rng.randrange(n_states)
        if new_state == state.states[idx]:
            continue
        old_state = state.states[idx]
        delta = state.try_set(idx, new_state)
        if delta is None:
            stagnation += 1
            continue
        if delta < 0 and rng.random() >= math.exp(delta / temperature):
            state.try_set(idx, old_state)
            stagnation += 1
            continue
        if state.count > best_count:
            best_count = state.count
            best_graph = state.graph()
            stagnation = 0
        else:
            stagnation += 1

    _check_witness(best_graph, k, forbidden, best_count)
    return ExtremalRecord(n, k, parse_forbidden(forbidden), mode, best_count,
                          (best_graph,), "local_search", budget)


# ---------------------------------------------------------------------------
# Formula verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyRow:
    n: int
    search_value: int
    predicted: Optional[int]
    match: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "search_value": str(self.search_value),
            "predicted": str(self.predicted) if self.predicted is not None else None,
            "match": self.match,
        }


def finite_prediction(k: int, forbidden) -> Optional[callable]:
    """Exact finite-n predictor for the pairs where one is known."""
    forb = parse_forbidden(forbidden)
    if k == 3 and forb in ((4,), (5,), (TT3,)):
        return ceil_cubic_value
    if k == 4 and forb == (3,):
        return lambda n: iterated_blowup_cycle_count(4, n)
    return None


def verify_formula(k: int, forbidden, n_range: Sequence[int],
                   mode: str = ORIENTED, threads: int = 1) -> list[VerifyRow]:
    """Exhaustive values against the known finite-n prediction per n."""
    predictor = finite_prediction(k, forbidden)
    rows = []
    for n in n_range:
        record = exhaustive_extremal(n, k, forbidden, mode, threads=threads)
        predicted = predictor(n) if predictor is not None else None
        match = (record.max_copies == predicted) if predicted is not None else None
        rows.append(VerifyRow(n, record.max_copies, predicted, match))
    return rows
