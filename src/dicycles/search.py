"""Ground-truth extremal values at small n, plus seeded local search.

The exhaustive engine covers every pair-state assignment (3 states per
vertex pair in oriented mode, 4 with digons) without scanning them all.
Forbidding cycles or TT3 is hereditary, so it extends the admissible
graphs on vertices 0..v-1, held as numpy arrays of pair-state masks and
cycle counts, by every attachment of vertex v.  Each step tests only
the cycle and forbidden patterns through v, as one vectorized product per
block of graphs, and the graphs on all n vertices are scored without being
stored.  The reported maximum is exact with no isomorphism machinery in the
hot path; canonical forms only deduplicate the reported witnesses.  Local
search is simulated annealing over pair states with forbidden-pattern
rejection; it reports lower bounds only.  Its move runs inline, one loop
per call: it touches the bitmasks of one pair's two vertices and counts
only the cycles through the arcs it changes (paths with one interior
vertex by a plain expression, two or three by bitmask formulas, longer
ones by the shared DFS, the counter picked once per call), and a
rejected or forbidden move restores the four saved masks without
counting again.  Its pair and state are drawn by the same
``getrandbits`` rejection loop that ``randrange`` runs, without the call.
These shortcuts leave the random stream, and so every seeded record, as
they were.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

import numpy as np

from .counting import _simple_paths, count_cycle_copies, has_cycle_subgraph
from .graphs import ORIENTED, OrientedGraph, canonical_arcs, iterated_blowup_cycle_count, new_graph
from .numtheory import ceil_cubic_value


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
            length = item
        else:
            token = str(item).strip().upper()
            if token in ("TT3", "TRANSITIVE_TRIANGLE"):
                out.append(TT3)
                continue
            if not (token.startswith("C") and token[1:].isdigit()):
                raise SearchError(f"cannot parse forbidden pattern {item!r}")
            length = int(token[1:])
        if length < 2:
            raise SearchError(f"forbidden cycle length {length} too small")
        out.append(length)
    return tuple(out)


def has_transitive_triangle(g: OrientedGraph) -> bool:
    """True iff some arc u -> v has a w with u -> w -> v."""
    inn = g.in_bits()
    for row in g.out_bits():
        rest = row
        while rest:
            low = rest & -rest
            if row & inn[low.bit_length() - 1]:
                return True
            rest ^= low
    return False


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


def _decode(mask: int, pairs, mode: str, n: int) -> OrientedGraph:
    """The graph of a pair-state mask (see :func:`_by_top_vertex`)."""
    arcs = []
    for p, (u, v) in enumerate(pairs):
        state = (mask >> (2 * p)) & 3
        if state & 1:
            arcs.append((u, v))
        if state & 2:
            arcs.append((v, u))
    return new_graph(n, arcs, mode)


def _by_top_vertex(pats, n: int, index: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each vertex v, the patterns whose largest vertex is v, as two
    uint64 arrays of pair-state masks (two bits per pair, the lower one for
    the arc from the smaller vertex): their arcs at v and the rest."""
    split = [([], []) for _ in range(n)]
    for pat in pats:
        v = max(max(arc) for arc in pat)
        at = rest = 0
        for a, b in pat:
            bit = 1 << (2 * index[min(a, b), max(a, b)] + (a > b))
            if v in (a, b):
                at |= bit
            else:
                rest |= bit
        split[v][0].append(at)
        split[v][1].append(rest)
    return [(np.array(at, np.uint64), np.array(rest, np.uint64)) for at, rest in split]


# (attachment, graph) cells per block of one extension step; a block is
# every attachment against a run of frontier graphs, which bounds its
# memory at a few MB
_BLOCK_CELLS = 1 << 18
# the score weight of a forbidden pattern: above any k-cycle count on at
# most 6 vertices (144, for k = 5), so a graph scores below zero exactly
# when it completes a forbidden pattern
_PENALTY = 1024


def _extend(frontier, att_mask, count_pats, forb_pats, last: bool, threads: int):
    """Attach a new vertex to every frontier graph in every given way.

    ``frontier`` is (masks, counts) of the admissible graphs on the earlier
    vertices; an attachment adds its arcs to the mask.  A pattern through
    the new vertex is completed exactly when the attachment holds its arcs
    at the new vertex and the graph holds the rest, so each distinct rest
    is tested once per graph.  One float32 product of (attachments x rests)
    weights and (rests x graphs) presence then gives every cell its new
    count, minus _PENALTY per completed forbidden pattern; every term is an
    integer far below 2**24, so it is exact.  Returns the admissible
    extensions; with ``last``, only the largest count and its smallest
    masks (a negative count if none is admissible).
    """
    masks, counts = frontier
    # per attachment and distinct rest: +1 for each count pattern that the
    # attachment activates, -_PENALTY for each forbidden one
    ats = np.concatenate([count_pats[0], forb_pats[0]])
    rests, which = np.unique(np.concatenate([count_pats[1], forb_pats[1]]), return_inverse=True)
    sign = np.repeat([1, -_PENALTY], [count_pats[0].size, forb_pats[0].size])
    on = ((att_mask[:, None] & ats) == ats) * sign
    weights = (on @ (which[:, None] == np.arange(rests.size))).astype(np.float32)
    size = _BLOCK_CELLS // att_mask.size  # at most 4**5 attachments
    blocks = [slice(lo, lo + size) for lo in range(0, masks.size, size)]

    def block(cols):
        present = (masks[cols] & rests[:, None]) == rests[:, None]
        score = weights @ present.astype(np.float32)
        score += counts[cols]
        if not last:
            r, c = np.nonzero(score >= 0)
            return masks[cols][c] | att_mask[r], score[r, c].astype(np.int64)
        top = score.max()
        r, c = np.divmod(np.flatnonzero(score == top), score.shape[1])
        hits = masks[cols][c] | att_mask[r]
        hits = np.partition(hits, min(hits.size, MAX_WITNESSES) - 1)[:MAX_WITNESSES]
        return int(top), hits.tolist()

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(block, blocks))
    else:
        results = [block(cols) for cols in blocks]
    if last:
        best = max(top for top, _ in results)
        return best, sorted(m for top, hits in results if top == best for m in hits)[:MAX_WITNESSES]
    return tuple(np.concatenate(col) for col in zip(*results))


def exhaustive_extremal(n: int, k: int, forbidden, mode: str = ORIENTED,
                        threads: int = 1) -> ExtremalRecord:
    """Exact maximum of k-cycle copies over all n-vertex graphs avoiding the
    forbidden patterns.

    Forbidding cycles or TT3 is hereditary: every admissible graph on the
    vertices 0..v is an admissible graph on 0..v-1 plus the pair states of
    vertex v.  So the admissible graphs are built vertex by vertex, each
    step testing only the patterns through the new vertex (see
    :func:`_extend`), and the graphs on all n vertices are only scored,
    never stored.  n <= 6, in both modes (3 states per pair, or 4 with
    digons).  A graph's mask holds pair p's state in bits 2p and 2p + 1
    (pair order of ``combinations``); the witnesses are the graphs of the
    smallest masks attaining the maximum, canonical-form deduplicated and
    re-verified through the counting module.  ``threads`` maps each step's
    blocks of frontier graphs over a thread pool; the result does not
    depend on it.
    """
    if n > 6:
        raise TooLargeError("exhaustive search supports n <= 6")
    if k < 2:
        raise SearchError("k must be at least 2")
    forbidden = parse_forbidden(forbidden)
    pairs = list(combinations(range(n), 2))
    index = {pair: p for p, pair in enumerate(pairs)}
    radix = 3 if mode == ORIENTED else 4
    count_pats = _by_top_vertex(_cycle_arc_patterns(n, k) if k <= n else [], n, index)
    forb_pats = _by_top_vertex(_forbidden_patterns(n, forbidden), n, index)

    # the empty graph on vertex 0
    frontier = (np.zeros(1, np.uint64), np.zeros(1, np.int64))
    for v in range(1, n):
        # every state of the pairs (u, v), u < v, as 2-bit fields of the mask
        states = np.arange(radix ** v)[:, None] // radix ** np.arange(v) % radix
        pos = np.array([index[u, v] for u in range(v)])
        att_mask = (states @ 4 ** pos).astype(np.uint64)
        frontier = _extend(frontier, att_mask, count_pats[v], forb_pats[v], v == n - 1, threads)
    # with one vertex or none, the empty graph is the only one
    best, masks = frontier if n > 1 else (0, [0])
    if best < 0:
        raise SearchError("no admissible graph found (inconsistent forbidden set)")

    witnesses = []
    seen = set()
    for mask in masks:
        g = _decode(mask, pairs, mode, n)
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


def _path_counter(arcs: int):
    """The counter ``paths(out, inn, start, end, limit)`` of the simple paths
    start -> end with ``arcs`` arcs.  With the arc end -> start present they
    are its cycles of length arcs + 1; without it, the cycles that adding it
    would close.  With a ``limit`` the count may stop once it reaches it.

    Paths with two or three interior vertices are counted by bitmask
    formulas, longer ones by the general DFS.  One interior vertex is the
    plain expression (out[start] & inn[end]).bit_count(), which the
    annealer writes in its loop instead of asking for a counter.
    """
    if arcs == 3:
        return _three_arc_paths
    if arcs == 4:
        return _four_arc_paths
    return lambda out, inn, start, end, limit: _simple_paths(out, start, arcs, ~(1 << end),
                                                             1 << end, limit)


def _three_arc_paths(out: list[int], inn: list[int], start: int, end: int,
                     limit: Optional[int]) -> int:
    # the paths start -> c -> d -> end are, for each c, the d in
    # out[c] & inn[end] other than start
    ends = inn[end] & ~(1 << start)
    mids = out[start] & ~(1 << end)
    total = 0
    while mids:
        low = mids & -mids
        mids ^= low
        total += (out[low.bit_length() - 1] & ends).bit_count()
        if limit is not None and total >= limit:
            break
    return total


def _four_arc_paths(out: list[int], inn: list[int], start: int, end: int,
                    limit: Optional[int]) -> int:
    # the paths start -> a -> b -> c -> end are, for each middle b, the pairs
    # of an a in A = out[start] & inn[b] other than end and a c in
    # C = out[b] & inn[end] other than start with a != c: |A| |C| - |A & C|
    firsts = out[start] & ~(1 << end)
    lasts = inn[end] & ~(1 << start)
    total = 0
    for b, into in enumerate(inn):
        if b == start or b == end:
            continue
        before = firsts & into
        if before:
            after = out[b] & lasts
            total += before.bit_count() * after.bit_count() - (before & after).bit_count()
            if limit is not None and total >= limit:
                break
    return total


def local_search_extremal(n: int, k: int, forbidden, budget: int, seed: int,
                          mode: str = ORIENTED) -> ExtremalRecord:
    """Simulated annealing over pair states with forbidden-pattern rejection.

    Geometric cooling with a restart to the initial temperature on
    stagnation; all randomness comes from one generator seeded with
    ``seed``, so results are reproducible.  The reported value is a lower
    bound only.

    A pair state is a 2-bit mask: bit 1 is the arc u -> v, bit 2 the arc
    v -> u (so oriented mode uses 0, 1, 2).  A move changes the arcs of one
    pair {u, v}, so it runs inline on out[u], out[v], in[u] and in[v]: it
    saves them, removes the old arcs, tests the forbidden patterns and adds
    the new arcs, counting only the k-cycles through the arcs it changes
    (the path counter is picked by k once per call).  A forbidden or
    rejected downhill move restores the four saved masks rather than
    counting again, and a new best saves only the pair states; the witness
    graph is built once, at the end, and re-verified through the counting
    module.  Each move draws a pair, a new state and, if allowed and
    downhill, one ``random``.  The pair and the state are drawn as
    ``randrange(m)`` draws them, by ``getrandbits(m.bit_length())`` redrawn
    while at least m, so the stream, and with it every record, is the same
    as when every move called ``randrange`` and was counted again.

    With fewer than two vertices there is no pair to draw, and the empty
    graph is returned without drawing; k < 2 raises :class:`SearchError`,
    as in :func:`exhaustive_extremal`, and so does a negative budget.
    """
    if k < 2:
        raise SearchError("k must be at least 2")
    if budget < 0:
        raise SearchError("budget must be non-negative")
    forbidden = parse_forbidden(forbidden)
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    # each pair's arcs per 2-bit state
    arcs = [((), ((u, v),), ((v, u),), ((u, v), (v, u))) for u, v in pairs]
    n_pairs, n_states = len(pairs), 3 if mode == ORIENTED else 4
    states, out, inn = [0] * n_pairs, [0] * n, [0] * n
    # the k-cycles through an arc a -> b are the paths b -> a with k - 1
    # arcs.  Adding a -> b closes an l-cycle iff there is a path b -> a with
    # l - 1 arcs, and a TT3 iff a and b share an out- or an in-neighbour or
    # a -> w -> b for some w; no cycle is longer than n
    through = None if k == 3 else _path_counter(k - 1)
    tt3, c3 = TT3 in forbidden, 3 in forbidden
    closers = [_path_counter(item - 1) for item in forbidden if item not in (TT3, 3) and item <= n]
    closes = closers[0] if len(closers) == 1 else None
    if len(closers) > 1:
        closes = lambda *path: any(paths(*path) for paths in closers)
    # randrange(m) draws m.bit_length() bits, not (m - 1).bit_length()
    pair_bits, state_bits = n_pairs.bit_length(), n_states.bit_length()
    getrandbits, uniform, exp = rng.getrandbits, rng.random, math.exp
    count = best_count = 0
    best_states = list(states)
    t0, t_end = 1.0, 0.02
    cooling = (t_end / t0) ** (1.0 / max(budget, 1))
    temperature = t0
    stagnation = 0
    restart_after = max(budget // 10, 1000)
    # with no pair, getrandbits(0) is 0 and the draw below would never end
    for _ in range(budget if n_pairs else 0):
        temperature *= cooling
        if stagnation >= restart_after:
            temperature = t0
            stagnation = 0
        idx = getrandbits(pair_bits)
        while idx >= n_pairs:
            idx = getrandbits(pair_bits)
        new = getrandbits(state_bits)
        while new >= n_states:
            new = getrandbits(state_bits)
        old = states[idx]
        if new == old:
            continue
        u, v = pairs[idx]
        saved = out[u], out[v], inn[u], inn[v]
        moved = count
        for a, b in arcs[idx][old & ~new]:
            moved -= (out[b] & inn[a]).bit_count() if through is None else through(out, inn, b, a, None)
            out[a] &= ~(1 << b)
            inn[b] &= ~(1 << a)
        for a, b in arcs[idx][new & ~old]:
            if (tt3 and (out[a] & out[b] or inn[a] & inn[b] or out[a] & inn[b])
                    or c3 and out[b] & inn[a]
                    or closes and closes(out, inn, b, a, 1)):
                break
            out[a] |= 1 << b
            inn[b] |= 1 << a
            moved += (out[b] & inn[a]).bit_count() if through is None else through(out, inn, b, a, None)
        else:
            # a downhill move is taken with probability exp(delta / temperature)
            if moved >= count or uniform() < exp((moved - count) / temperature):
                states[idx] = new
                count = moved
                if count > best_count:
                    best_count, best_states, stagnation = count, list(states), 0
                else:
                    stagnation += 1
                continue
        # a forbidden or rejected move leaves the graph as it was
        out[u], out[v], inn[u], inn[v] = saved
        stagnation += 1

    best_graph = new_graph(n, [arc for pair, s in zip(arcs, best_states) for arc in pair[s]], mode)
    _check_witness(best_graph, k, forbidden, best_count)
    return ExtremalRecord(n, k, forbidden, mode, best_count, (best_graph,), "local_search", budget)


# ---------------------------------------------------------------------------
# Known finite-n values
# ---------------------------------------------------------------------------


def finite_prediction(k: int, forbidden) -> Optional[callable]:
    """Exact finite-n predictor for the pairs where one is known."""
    forb = parse_forbidden(forbidden)
    if k == 3 and forb in ((4,), (5,), (TT3,)):
        return ceil_cubic_value
    if k == 4 and forb == (3,):
        return lambda n: iterated_blowup_cycle_count(4, n)
    return None
