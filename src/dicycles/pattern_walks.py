"""Closed-walk enumeration over pattern skeletons.

A directed k-cycle in a blow-up projects to a closed k-walk over
:func:`step_table`, the one step model of a pattern: cross arcs advance
along base arcs and internal structure (transitive tournaments, one-way
bipartite splits) absorbs consecutive "stay" steps.  Enumerating these
walks once yields, per walk, both

* the exact number of vertex assignments at finite blob sizes (falling
  factorials, with one valid ordering per tournament chain and part-respecting
  pairs for bipartite stays), and
* the limit coefficient as blob sizes grow proportionally to weights:
  times the walk's weight monomial (one factor per vertex), it is the
  walk's share of the copy density per n^k.

Each cycle subgraph corresponds to exactly k linear walks (its rotations),
so sums over linear walks are divided by k.  Threshold arc rules are not
polynomial; the density module integrates their walks by quadrature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from .graphs import (
    ONE_WAY_BIPARTITE,
    THRESHOLD,
    TRANSITIVE_TOURNAMENT,
    PatternError,
    PatternSpec,
    _bipartite_first_part,
)

# step tags; single characters, so a walk's tags join into a string
STAY = "S"     # inside a tournament or one-way bipartite blob
CROSS = "O"    # along a full base arc
ALONG = "F"    # along a threshold base arc
AGAINST = "B"  # against a threshold base arc


def step_table(pattern: PatternSpec) -> list[list[tuple[int, str]]]:
    """Per-blob steps as (next blob, tag).

    A tournament or one-way bipartite blob first gets its STAY step; then
    each base arc u -> v, in sorted order, gives a CROSS step u -> v if it
    is full, or an ALONG step u -> v and an AGAINST step v -> u if it is a
    threshold arc.
    """
    table = [[(b, STAY)] if internal.kind in (TRANSITIVE_TOURNAMENT, ONE_WAY_BIPARTITE) else []
             for b, internal in enumerate(pattern.blob_internal)]
    for (u, v), rule in sorted(pattern.arc_rule.items()):
        if rule.kind == THRESHOLD:
            table[u].append((v, ALONG))
            table[v].append((u, AGAINST))
        else:
            table[u].append((v, CROSS))
    return table


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


def enumerate_closed_walks(pattern: PatternSpec, k: int) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
    """All linear closed k-walks that leave a blob, as (blobs, step tags).

    ``blobs[t]`` is the blob of the t-th vertex; ``steps[t]`` (CROSS or
    STAY) describes the move from vertex t to vertex (t+1) mod k.  A walk
    of stay steps only would be a cycle inside one blob, which the acyclic
    internal structures do not have.
    """
    if pattern.has_threshold():
        raise PatternError("threshold patterns have no polynomial walk expansion")
    if k < 2:
        raise ValueError("k must be at least 2")
    return [walk for walk in closed_walks(step_table(pattern), k) if CROSS in walk[1]]


def _cyclic_runs(blobs: tuple[int, ...], steps: tuple[str, ...]) -> dict[int, list[int]]:
    """Group the walk's vertices into per-blob visit runs.

    Returns blob -> list of run step-lengths (a run of r stay steps spans
    r+1 vertices); the decomposition is cyclic, so a run may wrap through
    position 0.
    """
    k = len(blobs)
    runs: dict[int, list[int]] = {}
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


def finite_walk_count(pattern: PatternSpec, sizes: tuple[int, ...],
                      blobs: tuple[int, ...], steps: tuple[str, ...]) -> int:
    """Vertex assignments realizing one linear walk at the given blob sizes."""
    total = 1
    for blob, run_lengths in _cyclic_runs(blobs, steps).items():
        s = sizes[blob]
        internal = pattern.blob_internal[blob]
        if internal.kind == TRANSITIVE_TOURNAMENT:
            # a run of r steps is an increasing chain on r+1 distinct
            # vertices: one valid ordering per chosen set
            vertices = sum(r + 1 for r in run_lengths)
            ways = math.perm(s, vertices)
            for r in run_lengths:
                ways //= math.factorial(r + 1)
        elif internal.kind == ONE_WAY_BIPARTITE:
            if any(r >= 2 for r in run_lengths):
                return 0  # two consecutive internal arcs are impossible
            pairs = sum(1 for r in run_lengths if r == 1)
            singles = sum(1 for r in run_lengths if r == 0)
            if 2 * pairs > s:
                return 0
            h1 = _bipartite_first_part(s, internal.split)
            ways = math.perm(h1, pairs) * math.perm(s - h1, pairs) * math.perm(s - 2 * pairs, singles)
        else:
            if any(r > 0 for r in run_lengths):
                return 0
            ways = math.perm(s, len(run_lengths))
        if ways == 0:
            return 0
        total *= ways
    return total


def limit_walk_coefficient(pattern: PatternSpec, blobs: tuple[int, ...],
                           steps: tuple[str, ...]) -> Fraction:
    """Limit of finite_walk_count / prod(sizes[b] for b in blobs) as the
    sizes grow proportionally: the structural factor (tournament orderings,
    bipartite splits) that multiplies the walk's weight monomial.
    """
    total = Fraction(1)
    for blob, run_lengths in _cyclic_runs(blobs, steps).items():
        internal = pattern.blob_internal[blob]
        if internal.kind == TRANSITIVE_TOURNAMENT:
            for r in run_lengths:
                total /= math.factorial(r + 1)
        elif internal.kind == ONE_WAY_BIPARTITE:
            if any(r >= 2 for r in run_lengths):
                return Fraction(0)
            split = internal.split
            total *= (split * (1 - split)) ** run_lengths.count(1)
        elif any(r > 0 for r in run_lengths):
            return Fraction(0)
    return total


def pattern_cycle_count(pattern: PatternSpec, sizes: tuple[int, ...], k: int) -> int:
    """Exact number of directed k-cycle copies in the realized blow-up."""
    if len(sizes) != pattern.p:
        raise PatternError("one size per blob required")
    total = 0
    for blobs, steps in enumerate_closed_walks(pattern, k):
        total += finite_walk_count(pattern, sizes, blobs, steps)
    if total % k:
        raise PatternError(f"{total} closed walks is not a multiple of k = {k}: every "
                           "cycle has exactly k linear representations")
    return total // k


def density_monomials(pattern: PatternSpec, k: int) -> dict[tuple[int, ...], Fraction]:
    """Copy density per n^k as a polynomial in the blob weights.

    Keys are per-blob vertex-count exponents; coefficients collect the
    structural factors (orderings, splits) of all walks with that blob
    multiset, already divided by k.
    """
    monos: dict[tuple[int, ...], Fraction] = {}
    for blobs, steps in enumerate_closed_walks(pattern, k):
        coeff = limit_walk_coefficient(pattern, blobs, steps)
        if coeff == 0:
            continue
        expo = [0] * pattern.p
        for b in blobs:
            expo[b] += 1
        key = tuple(expo)
        monos[key] = monos.get(key, Fraction(0)) + Fraction(coeff, k)
    return monos


def _as_ratio(x) -> tuple[int, int]:
    try:
        return x.as_integer_ratio()
    except AttributeError:  # numpy integers, strings
        x = Fraction(x)
        return x.numerator, x.denominator


class CompiledMonomials:
    """A polynomial (exponent tuple -> rational coefficient) put into
    integer form once, for exact evaluation at many weight vectors.

    Coefficients go over their lcm L, and the weights of one evaluation
    over their common denominator D (a power of two for floats), as
    integers N_j = w_j * D.  The value is then
    sum(C * D ** pad * prod(N_j ** e_j)) / (L * D ** top), with C = c * L,
    top the largest degree and pad = top - degree.  Gradient entry b is
    the same sum over the terms C * e_b with e_b lowered by one, over
    L * D ** (top - 1).  Each term is kept as its integer coefficient and
    the positions of its factors in the power table of an evaluation,
    [N_0 ** 0, ..., N_0 ** m_0, N_1 ** 0, ..., D ** 0, ..., D ** m], where
    m_j and m are the highest powers that any term takes.
    """

    def __init__(self, monos: dict[tuple[int, ...], Fraction]):
        self.p = len(next(iter(monos))) if monos else 0
        coeffs = [_as_ratio(c) for c in monos.values()]
        self.lcm = math.lcm(*(d for _, d in coeffs))
        self.top = max((sum(expo) for expo in monos), default=0)
        # exponents of N_0, ..., N_{p-1} and, last, of D
        terms = [(n * (self.lcm // d), expo + (self.top - sum(expo),))
                 for (n, d), expo in zip(coeffs, monos)]
        self.degrees = [max((expo[j] for _, expo in terms), default=0) for j in range(self.p + 1)]
        offsets = list(accumulate((degree + 1 for degree in self.degrees), initial=0))

        def factors(expo):
            return tuple(offset + e for offset, e in zip(offsets, expo) if e)

        self.terms = [(coeff, factors(expo)) for coeff, expo in terms]
        self.gradient_terms = [
            [(coeff * expo[b], factors(expo[:b] + (expo[b] - 1,) + expo[b + 1:]))
             for coeff, expo in terms if expo[b]]
            for b in range(self.p)]

    def _table(self, weights) -> tuple[list[int], int]:
        ratios = [_as_ratio(w) for w in weights]
        denom = math.lcm(*(d for _, d in ratios))
        bases = [n * (denom // d) for n, d in (ratios[j] for j in range(self.p))] + [denom]
        table = []
        for base, degree in zip(bases, self.degrees):
            table += accumulate(repeat(base, degree), mul, initial=1)
        return table, denom

    def ratio(self, weights) -> tuple[int, int]:
        """The value at the weights as (numerator, denominator) integers,
        not reduced; ``numerator / denominator`` is the correctly rounded
        float of the exact value."""
        table, denom = self._table(weights)
        return _term_sum(self.terms, table), self.lcm * denom ** self.top

    def gradient_ratio(self, weights) -> tuple[list[int], int]:
        """The gradient at the weights as per-blob integer numerators over
        one shared denominator."""
        if not self.p:
            return [0] * len(weights), 1
        table, denom = self._table(weights)
        nums = [_term_sum(terms, table) for terms in self.gradient_terms]
        return nums, self.lcm * denom ** max(self.top - 1, 0)


def _term_sum(terms, table) -> int:
    total = 0
    for coeff, factors in terms:
        for i in factors:
            coeff *= table[i]
        total += coeff
    return total


def evaluate_monomials(monos: dict[tuple[int, ...], Fraction], weights) -> Fraction:
    return Fraction(*CompiledMonomials(monos).ratio(weights))
