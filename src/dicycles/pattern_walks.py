"""Closed-walk enumeration over pattern skeletons.

A directed k-cycle in a blow-up projects to a closed k-walk on the blobs,
where cross arcs advance along base arcs and internal structure (transitive
tournaments, one-way bipartite splits) absorbs consecutive "stay" steps.
Enumerating these walks once yields, per walk, both

* the exact number of vertex assignments at finite blob sizes (falling
  factorials, with one valid ordering per tournament chain and part-respecting
  pairs for bipartite stays), and
* the limit weight as blob sizes grow proportionally to weights (the copy
  density per n^k).

Each cycle subgraph corresponds to exactly k linear walks (its rotations),
so sums over linear walks are divided by k.  Threshold arc rules are not
polynomial and are handled by quadrature in the density module instead.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import (
    INDEPENDENT,
    ONE_WAY_BIPARTITE,
    THRESHOLD,
    TRANSITIVE_TOURNAMENT,
    PatternError,
    PatternSpec,
    _bipartite_first_part,
)

CROSS = 0
STAY = 1


def _stay_allowed(pattern: PatternSpec, blob: int) -> bool:
    return pattern.blob_internal[blob].kind in (TRANSITIVE_TOURNAMENT, ONE_WAY_BIPARTITE)


def closed_walks(table: list[list[tuple[int, object]]], k: int) -> list[tuple[tuple[int, ...], tuple]]:
    """All linear closed k-walks over a per-blob step table.

    ``table[b]`` lists the steps out of blob ``b`` as (next blob, label).
    Each walk is returned as (blobs, labels): ``blobs[t]`` is the blob of
    the t-th vertex and ``labels[t]`` labels the step from vertex t to
    vertex (t+1) mod k.  Walks come in depth-first order of the table.
    """
    walks = []
    blobs = [0] * k
    labels = [None] * k

    def extend(t: int):
        b = blobs[t - 1]
        if t == k:
            for nxt, label in table[b]:
                if nxt == blobs[0]:
                    labels[k - 1] = label
                    walks.append((tuple(blobs), tuple(labels)))
            return
        for nxt, label in table[b]:
            blobs[t] = nxt
            labels[t - 1] = label
            extend(t + 1)

    for start in range(len(table)):
        blobs[0] = start
        extend(1)
    return walks


def enumerate_closed_walks(pattern: PatternSpec, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All linear closed k-walks as (blobs, step kinds).

    ``blobs[t]`` is the blob of the t-th vertex; ``steps[t]`` (CROSS or
    STAY) describes the move from vertex t to vertex (t+1) mod k.
    """
    if pattern.has_threshold():
        raise PatternError("threshold patterns have no polynomial walk expansion")
    if k < 2:
        raise ValueError("k must be at least 2")
    arcs = sorted(pattern.base.arcs)
    table = [([(b, STAY)] if _stay_allowed(pattern, b) else [])
             + [(v, CROSS) for (u, v) in arcs if u == b]
             for b in range(pattern.p)]
    return closed_walks(table, k)


def _cyclic_runs(blobs: tuple[int, ...], steps: tuple[int, ...]) -> dict[int, list[int]]:
    """Group the walk's vertices into per-blob visit runs.

    Returns blob -> list of run step-lengths (a run of r stay steps spans
    r+1 vertices); the decomposition is cyclic, so a run may wrap through
    position 0.
    """
    k = len(blobs)
    runs: dict[int, list[int]] = {}
    if all(s == STAY for s in steps):
        # a cycle entirely inside one blob; impossible under the acyclic
        # internal structures, signalled with a negative run length
        runs.setdefault(blobs[0], []).append(-1)
        return runs
    # rotate so position 0 starts a run (previous step is a cross)
    start = next(t for t in range(k) if steps[t - 1] == CROSS)
    t = 0
    while t < k:
        pos = (start + t) % k
        length = 0
        while steps[(start + t + length) % k] == STAY:
            length += 1
        runs.setdefault(blobs[pos], []).append(length)
        t += length + 1
    return runs


def _falling(s: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= s - i
        if out == 0:
            return 0
    return out


def finite_walk_count(pattern: PatternSpec, sizes: tuple[int, ...],
                      blobs: tuple[int, ...], steps: tuple[int, ...]) -> int:
    """Vertex assignments realizing one linear walk at the given blob sizes."""
    total = 1
    for blob, run_lengths in _cyclic_runs(blobs, steps).items():
        if any(r < 0 for r in run_lengths):
            return 0
        s = sizes[blob]
        internal = pattern.blob_internal[blob]
        if internal.kind == TRANSITIVE_TOURNAMENT:
            # a run of r steps is an increasing chain on r+1 distinct
            # vertices: one valid ordering per chosen set
            vertices = sum(r + 1 for r in run_lengths)
            ways = _falling(s, vertices)
            for r in run_lengths:
                ways //= math.factorial(r + 1)
        elif internal.kind == ONE_WAY_BIPARTITE:
            if any(r >= 2 for r in run_lengths):
                return 0  # two consecutive internal arcs are impossible
            pairs = sum(1 for r in run_lengths if r == 1)
            singles = sum(1 for r in run_lengths if r == 0)
            h1 = _bipartite_first_part(s, internal.split)
            ways = _falling(h1, pairs) * _falling(s - h1, pairs) * _falling(s - 2 * pairs, singles)
        else:
            if any(r > 0 for r in run_lengths):
                return 0
            ways = _falling(s, len(run_lengths))
        if ways == 0:
            return 0
        total *= ways
    return total


def limit_walk_weight(pattern: PatternSpec, weights: tuple[Fraction, ...],
                      blobs: tuple[int, ...], steps: tuple[int, ...]) -> Fraction:
    """Limit of finite_walk_count / n^k when sizes ~ weights * n."""
    total = Fraction(1)
    for blob, run_lengths in _cyclic_runs(blobs, steps).items():
        if any(r < 0 for r in run_lengths):
            return Fraction(0)
        internal = pattern.blob_internal[blob]
        w = weights[blob]
        if internal.kind == TRANSITIVE_TOURNAMENT:
            vertices = sum(r + 1 for r in run_lengths)
            factor = w ** vertices
            for r in run_lengths:
                factor /= math.factorial(r + 1)
        elif internal.kind == ONE_WAY_BIPARTITE:
            if any(r >= 2 for r in run_lengths):
                return Fraction(0)
            pairs = sum(1 for r in run_lengths if r == 1)
            singles = sum(1 for r in run_lengths if r == 0)
            split = internal.split
            factor = (w * w * split * (1 - split)) ** pairs * w ** singles
        else:
            if any(r > 0 for r in run_lengths):
                return Fraction(0)
            factor = w ** len(run_lengths)
        total *= factor
    return total


def pattern_cycle_count(pattern: PatternSpec, sizes: tuple[int, ...], k: int) -> int:
    """Exact number of directed k-cycle copies in the realized blow-up."""
    if len(sizes) != pattern.p:
        raise PatternError("one size per blob required")
    total = 0
    for blobs, steps in enumerate_closed_walks(pattern, k):
        total += finite_walk_count(pattern, sizes, blobs, steps)
    assert total % k == 0, "every cycle has exactly k linear representations"
    return total // k


def density_monomials(pattern: PatternSpec, k: int) -> dict[tuple[int, ...], Fraction]:
    """Copy density per n^k as a polynomial in the blob weights.

    Keys are per-blob vertex-count exponents; coefficients collect the
    structural factors (orderings, splits) of all walks with that blob
    multiset, already divided by k.
    """
    ones = tuple(Fraction(1) for _ in range(pattern.p))
    monos: dict[tuple[int, ...], Fraction] = {}
    for blobs, steps in enumerate_closed_walks(pattern, k):
        coeff = limit_walk_weight(pattern, ones, blobs, steps)
        if coeff == 0:
            continue
        expo = [0] * pattern.p
        for b in blobs:
            expo[b] += 1
        key = tuple(expo)
        monos[key] = monos.get(key, Fraction(0)) + Fraction(coeff, k)
    return monos


def evaluate_monomials(monos: dict[tuple[int, ...], Fraction], weights) -> Fraction:
    total = Fraction(0)
    for expo, coeff in monos.items():
        term = coeff
        for w, e in zip(weights, expo):
            if e:
                term *= Fraction(w) ** e
        total += term
    return total


def monomial_gradient(monos: dict[tuple[int, ...], Fraction], weights) -> list[Fraction]:
    p = len(next(iter(monos))) if monos else len(weights)
    grad = [Fraction(0)] * p
    ws = [Fraction(w) for w in weights]
    for expo, coeff in monos.items():
        for b in range(p):
            e = expo[b]
            if not e:
                continue
            term = coeff * e
            for j in range(p):
                ej = expo[j] - (1 if j == b else 0)
                if ej:
                    term *= ws[j] ** ej
            grad[b] += term
    return grad
