"""Exact counting and detection on oriented graphs.

Copy counts of directed k-cycles, closed-walk counts (adjacency-matrix
traces), simple-path counts, per-arc and per-vertex cycle statistics,
iterative clearing and the cycle neighbor condition.  Everything here is
exact.

Each count asks its closed walks of one object (:class:`_Walks`), which
builds the float64 adjacency matrix M once for the count's trace, filters
and Möbius sum.  tr(M^length) takes its dtype from a bound the code
proves: n * maxoutdeg**(length-1) caps every entry and partial sum on the
way, so float64 (BLAS) is used below 2**53; above it the half powers stay
in float64 while the bound holds for them, and only their contraction, or
else the whole power, is in Python integers.  Closed-walk existence uses
boolean powers (each product clipped to {0, 1}), kept as far as the count
asks for them.  With no closed j-walk for 2 <= j <= k // 2, every closed
k-walk is a k-cycle, so cycle copies are tr(M^k) / k, the k-cycles
through an arc (u, v) are the (k-1)-walks (M^(k-1))[v, u] back from v to
u, and cycle existence is walk existence; in oriented mode that covers
every k <= 5.  k = 2 is the digon case of this route: a closed 2-walk is
always a digon, so the digons are tr(M^2) / 2, and M[v, u] says whether
the arc (u, v) lies on one.

Twins are vertices with equal out- and in-neighbourhoods
(:func:`graphs.twin_classes`); every blow-up of a pattern has its blobs
as twin classes.  When the classes average at least two vertices, paths,
cycle copies and per-arc multiplicities are counted over the classes in
Python integers: a state is (current class, vertices used per class), a
step into class b has size_b - used_b choices, and a cycle closes back to
its fixed start vertex.  The work then depends on the pattern and the
path length, not on n: the 265,720,500,000 12-cycles of the C6 blow-up
on 60 vertices are counted in about 0.35 ms (one core of a 2-core x86
host, Python 3.11), where the frontier takes over a minute.  The neighbor
condition tries the classes first too: a vertex of class c has as many
neighbours on a cycle as the cycle uses vertices of the classes adjacent
to c, so the cycles' used vectors decide it; only a violation, which needs
a witness cycle, goes on to the frontier.

Paths and cycle copies on twin-free graphs are then tried by Möbius
inversion over walk coincidences (Alon-Yuster-Zwick): a simple path or
cycle is an injective map of a path or cycle H, and inj(H) is a signed
sum of homomorphism counts of the quotients of H that merge positions.  A
merge of positions d apart needs a closed d-walk in the graph, so the
boolean powers prune the sum (hard on bipartite graphs), and each
remaining term is a short chain of float64 matrix products, exact while
n**|V(H)| < 2**53.  The sum is taken when its estimated flops are at most
a constant times the walks the frontier would prune from: the 2.5 * 10^7
seven-vertex paths of a K20,20 orientation take about 0.5 ms instead of
0.1 s on the frontier.

Other paths, cycle copies and per-arc multiplicities, and the neighbor
condition that the classes do not settle (it needs vertex sets and a
witness cycle), run on a numpy frontier (the vectorised Held-Karp subset
dynamic program) when the graph has at most 64 vertices and
``n * maxoutdeg**arcs < 2**63``:
states are (end vertex, uint64 visited set, int64 multiplicity), equal
states are merged after every level, and one generator yields each chunk
of paths with the mask of the vertices that close each path.  Its callers
count the last arc in place (by a popcount for paths and copies) and stop
by leaving their loop.  The bound caps every multiplicity and partial sum,
so int64 never overflows.  The frontier is expanded in chunks of a fixed
number of states, breadth-first within a chunk and depth-first over
chunks, which bounds its memory by the depth times the children of one
chunk.  Larger graphs, and graphs that fail the bound, use one bitset
depth-first path counter with Python integers; only
:func:`enumerate_cycles` materializes the cycles themselves.  Paths and
cycle copies share one ladder: the twin classes, then the Möbius sum,
then the frontier, then the depth-first counter.  Cycle copies and
per-arc multiplicities try the trace before it, and per-arc
multiplicities skip the Möbius sum (and enumerate the cycles in place of
the depth-first counter).  Cycle existence takes the same ladder without the
Möbius sum after its closed-walk filter, and the frontier and the
depth-first counter stop at the first cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from operator import mul
from typing import Callable, Iterator, Optional

import numpy as np

from .graphs import OrientedGraph, bit_matrix, new_graph, twin_classes


def _simple_paths(out: list[int], start: int, arcs: int, inner: int, last: int,
                  limit: Optional[int] = None) -> int:
    """Simple directed paths leaving ``start`` with exactly ``arcs`` arcs.

    Interior vertices must lie in the bitmask ``inner`` and the end vertex
    in ``last``.  With ``limit`` the count may stop early once it reaches
    the limit.
    """
    if arcs == 1:
        return (out[start] & last).bit_count()
    total = 0
    # (vertex, visited mask, interior vertices still to place)
    stack = [(start, 1 << start, arcs - 1)]
    while stack:
        v, vis, left = stack.pop()
        avail = out[v] & inner & ~vis
        if left == 1:
            # the end vertices of each last interior vertex are counted in
            # place rather than pushed, since that layer is the largest
            while avail:
                low = avail & -avail
                avail ^= low
                total += (out[low.bit_length() - 1] & last & ~(vis | low)).bit_count()
            if limit is not None and total >= limit:
                return total
            continue
        while avail:
            low = avail & -avail
            avail ^= low
            stack.append((low.bit_length() - 1, vis | low, left - 1))
    return total


# ---------------------------------------------------------------------------
# Frontier engine (n <= 64)
# ---------------------------------------------------------------------------

# states per chunk; the frontier never holds more than depth * maxoutdeg
# chunks of states at once
_CHUNK = 512


def _frontier_ok(g: OrientedGraph, arcs: int) -> bool:
    """True iff paths with ``arcs`` arcs can be counted on the frontier:
    masks fit in uint64, and n * maxoutdeg**arcs, which bounds every
    multiplicity and every partial sum, fits in int64."""
    return g.n <= 64 and g.n * _max_outdeg(g) ** arcs < 1 << 63


def _max_outdeg(g: OrientedGraph) -> int:
    return max((b.bit_count() for b in g.out_bits()), default=0)


def _uint64(bits: list[int]) -> np.ndarray:
    return np.array(bits, dtype=np.uint64)


def _out_table(out: np.ndarray, bit: np.ndarray) -> np.ndarray:
    """Row u holds the bits of u's out-neighbours (``out``, the uint64
    out-masks), padded with zeros to the largest out-degree."""
    rows = np.sort(out[:, None] & bit, axis=1)[:, ::-1]  # the set bits first
    return rows[:, :int(np.bitwise_count(out).max(initial=0))]


def _expand(table: np.ndarray, end: np.ndarray, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(state, vertex bit) for every out-neighbour of end[state] in free[state]."""
    step = table[end] & free[:, None]
    hit = np.flatnonzero(step)
    return hit // table.shape[1], step.ravel()[hit]


def _frontier(g: OrientedGraph, arcs: int, last: Optional[np.ndarray] = None,
              canonical: bool = False, by_start: bool = False) -> Iterator[tuple[np.ndarray, ...]]:
    """Expand the simple paths of ``g`` to ``arcs - 1`` arcs and yield them,
    a chunk at a time, as ``(ends, vis, mult, start)``: ``ends`` holds the
    unvisited out-neighbours of each path's end, within last[start] when
    ``last`` is given, so each of its set bits closes one path with
    ``arcs`` arcs, and ``mult`` is the number of paths behind each state.
    A caller stops the expansion by leaving its loop.

    ``canonical`` keeps interior vertices above the start, so that the
    start is the lowest bit of ``vis``.  ``by_start`` keeps paths from
    different starts apart; otherwise ``start`` is only meaningful when
    ``canonical``.
    """
    bit = np.left_shift(np.uint64(1), np.arange(g.n, dtype=np.uint64))
    out = _uint64(g.out_bits())
    table = _out_table(out, bit)
    high = ~(bit | (bit - np.uint64(1)))  # the vertices above each start
    verts = np.arange(g.n, dtype=np.uint8)  # vertex numbers, as end and start
    stack = [(0, verts, bit, np.ones(g.n, dtype=np.int64), verts)]
    while stack:
        level, end, vis, mult, start = stack.pop()
        if level + 1 < arcs:
            free = ~vis & high[start] if canonical else ~vis
            par, low = _expand(table, end, free)
            end = np.bitwise_count(low - np.uint64(1))
            vis, mult, start = vis[par] | low, mult[par], start[par]
            level += 1
            if level + 1 < arcs:
                # sparse graphs merge few states; dense ones run 2-20x slower unmerged
                end, vis, mult, start = _merge(end, vis, mult, start, by_start)
                for lo in reversed(range(0, end.size, _CHUNK)):
                    hi = lo + _CHUNK
                    stack.append((level, end[lo:hi], vis[lo:hi], mult[lo:hi], start[lo:hi]))
                continue
        # the last level before the closing arc is not merged: counting it
        # in place is cheaper than sorting it
        ends = out[end] & ~vis
        yield (ends if last is None else ends & last[start]), vis, mult, start


def _merge(end, vis, mult, start, by_start: bool):
    """Sum the multiplicities of equal states, ordered by visited set first,
    which keeps the states whose children can coincide in one chunk."""
    key = (vis << np.uint64(6)) | end.astype(np.uint64)
    if by_start:
        key = (key << np.uint64(6)) | start.astype(np.uint64)
    order = np.argsort(key)
    end, vis, mult, start = end[order], vis[order], mult[order], start[order]
    # compare the fields, not the keys: above 52 vertices keys can collide,
    # which at worst leaves some equal states apart
    new = np.empty(end.size, dtype=bool)
    new[:1] = True
    np.not_equal(vis[1:], vis[:-1], out=new[1:])
    new[1:] |= end[1:] != end[:-1]
    if by_start:
        new[1:] |= start[1:] != start[:-1]
    first = np.flatnonzero(new)
    return end[first], vis[first], np.add.reduceat(mult, first), start[first]


def _frontier_count(g: OrientedGraph, arcs: int, last: Optional[np.ndarray],
                    limit: Optional[int] = None) -> int:
    """Simple paths with ``arcs`` arcs from every start; with ``last``, only
    canonical ones (interior above the start) ending in last[start].  With
    ``limit`` the count may stop early once it reaches the limit."""
    total = 0
    for ends, _, mult, _ in _frontier(g, arcs, last, canonical=last is not None):
        total += int(np.bitwise_count(ends).astype(np.int64) @ mult)
        if limit is not None and total >= limit:
            break
    return total


def _arc_matrix(g: OrientedGraph, k: int) -> np.ndarray:
    """m[u, v] = k-cycle copies through the arc (u, v): each copy is found
    once per arc, as a simple path from v back to u."""
    mat = np.zeros((g.n, g.n), dtype=np.int64)
    for ends, _, mult, start in _frontier(g, k - 1, _uint64(g.in_bits()), by_start=True):
        # one closing arc (tail, start) per set bit of ends, lowest first
        while ends.size:
            live = ends != 0
            ends, mult, start = ends[live], mult[live], start[live]
            low = ends & (~ends + np.uint64(1))
            np.add.at(mat, (np.bitwise_count(low - np.uint64(1)), start), mult)
            ends ^= low
    return mat


def _above(bits: list[int]) -> np.ndarray:
    """Each vertex's mask restricted to the vertices above it."""
    return _uint64([b & ~((2 << v) - 1) for v, b in enumerate(bits)])


# ---------------------------------------------------------------------------
# Twin classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Twins:
    """The twin classes of a graph: each vertex's class, the class sizes
    and each class's successor classes."""

    label: list[int]
    sizes: tuple[int, ...]
    succ: list[list[int]]


def _twins(g: OrientedGraph) -> Optional[_Twins]:
    """The twin classes of ``g`` when they cut the state space, else None.

    Twins are interchangeable in every count, so a path is counted by its
    class sequence and the number of vertices it uses in each class.  That
    pays when the classes average at least two vertices; otherwise the
    states are nearly the labeled ones and the numpy frontier is faster.
    """
    label = twin_classes(g)
    if 2 * (max(label, default=-1) + 1) > g.n:
        return None
    return _twin_quotient(g, label)


def _twin_quotient(g: OrientedGraph, label: list[int]) -> _Twins:
    """The classes of the labelling ``label`` (:func:`graphs.twin_classes`),
    with each class's successors read from its first member's out-mask;
    twins have equal out-masks, so any member would do."""
    first: list[int] = []  # classes are numbered in the order of their first members
    for v, c in enumerate(label):
        if c == len(first):
            first.append(v)
    sizes = Counter(label)
    out = g.out_bits()
    succ = [[b for b, r in enumerate(first) if out[a] >> r & 1] for a in first]
    return _Twins(label, tuple(sizes[c] for c in range(len(first))), succ)


def _used_fields(sizes: tuple[int, ...], arcs: int) -> tuple[list[int], list[int]]:
    """The layout of the packed used vector of paths with ``arcs`` arcs:
    class b uses ``used >> off[b] & mask[b]`` vertices, in a field wide
    enough for the arcs + 1 vertices of a path."""
    off, mask = [], []
    width = 0
    for size in sizes:
        off.append(width)
        bits = min(size, arcs + 1).bit_length()
        mask.append((1 << bits) - 1)
        width += bits
    return off, mask


def _twin_walks(tw: _Twins, starts: list[int], arcs: int) -> dict[tuple[int, int], int]:
    """Simple paths with ``arcs`` arcs over the twin classes.

    A state is (current class, used vertices per class) with the number of
    labeled paths behind it.  Paths start at any vertex of a class in
    ``starts`` and are merged regardless of their start.  A step into
    class b has size_b - used_b choices.  The used vector is packed into
    one integer (:func:`_used_fields`).
    """
    sizes = tw.sizes
    off, mask = _used_fields(sizes, arcs)
    unit = [1 << o for o in off]
    states = {(s, unit[s]): sizes[s] for s in starts}
    for _ in range(arcs):
        nxt: dict[tuple[int, int], int] = {}
        for (c, used), m in states.items():
            for b in tw.succ[c]:
                free = sizes[b] - (used >> off[b] & mask[b])
                if free:
                    key = (b, used + unit[b])
                    nxt[key] = nxt.get(key, 0) + m * free
        states = nxt
    return states


def _twin_paths(tw: _Twins, arcs: int) -> int:
    """Simple paths with ``arcs`` arcs."""
    return sum(_twin_walks(tw, list(range(len(tw.sizes))), arcs).values())


def _twin_closings(tw: _Twins, k: int) -> dict[tuple[int, int], int]:
    """For each class pair (a, s), the k-cycles of the graph rooted at a
    vertex of s whose closing arc comes from a.

    Rotating a cycle to start after each of its arcs is a bijection, so
    this is also the number of (cycle, arc from class a to class s) pairs,
    and the values sum to k times the number of k-cycles.  The start is a
    fixed vertex, so the closing step has one choice.
    """
    total: dict[tuple[int, int], int] = {}
    for s in range(len(tw.sizes)):
        for (a, _), m in _twin_walks(tw, [s], k - 1).items():
            if s in tw.succ[a]:
                total[a, s] = total.get((a, s), 0) + m
    return total


def _twin_neighbours_hold(tw: _Twins, k: int, limit: int) -> bool:
    """True iff no vertex has more than ``limit`` underlying neighbours on
    any k-cycle, read from the cycles' used vectors.

    The k-cycles through a fixed vertex of class s are the paths of
    :func:`_twin_walks` from s that close back to s.  A vertex of class c
    has sum(used_b for b adjacent to c) neighbours on a cycle with used
    vector ``used``; twins are never adjacent, so this does not depend on
    the vertex chosen in c.  The check stops at the first violation.
    """
    off, mask = _used_fields(tw.sizes, k - 1)
    adjacent = [set(succ) for succ in tw.succ]
    for a, succ in enumerate(tw.succ):
        for b in succ:
            adjacent[b].add(a)
    for s in range(len(tw.sizes)):
        for a, used in _twin_walks(tw, [s], k - 1):
            if s in tw.succ[a]:
                counts = [used >> o & m for o, m in zip(off, mask)]
                if any(sum(counts[b] for b in adj) > limit for adj in adjacent):
                    return False
    return True


def _twin_arc_counts(g: OrientedGraph, tw: _Twins, k: int) -> dict[tuple[int, int], int]:
    """k-cycles through each arc.  The twin symmetries act transitively on
    the arcs from class a to class b, so each carries an equal share of
    their total."""
    total = _twin_closings(tw, k)
    label, sizes = tw.label, tw.sizes
    return {(u, v): total.get((label[u], label[v]), 0) // (sizes[label[u]] * sizes[label[v]])
            for (u, v) in g.arcs}


# ---------------------------------------------------------------------------
# Möbius inversion over walk coincidences
# ---------------------------------------------------------------------------

# the Möbius sum is taken when its estimated cost is at most this many
# flops per walk of the frontier's proxy: on 116 graphs and orders, every
# one up to a ratio of 107 was faster on it, and the first slower one was
# at 109
_MOBIUS_RATIO = 32
# the fixed cost of one contraction step (a few numpy calls, about 11 us),
# and of one enumerated partition, in flops of a small BLAS product
_STEP_FLOPS = 25_000
_VARS = "abcdefghijklmnopqrstuvwxyz"

# by (m, cyclic, closed-walk flags): the number of partitions the term
# table is known to exceed, or the planned table: each term's coefficient,
# arc count and contraction plan, the number of steps of each flop
# exponent, and the most variables any intermediate keeps.  Each is a
# function of its key.
_TABLES: dict[tuple, int | tuple[list[tuple[int, int, list[tuple]]], Counter, int]] = {}


def _mobius(walks: _Walks, m: int, cyclic: bool) -> Optional[int]:
    """Simple paths on m vertices, or with ``cyclic`` m-cycle copies, by
    Möbius inversion over walk coincidences; None when the route is not
    taken.

    With H the path or cycle on positions 0..m-1, the injective maps
    H -> G are inj(H) = sum over set partitions pi of the positions of
    mu(0, pi) * hom(H/pi, G), with mu(0, pi) = prod over blocks B of
    (-1)**(|B|-1) * (|B|-1)!.  Merging positions i < j closes a walk of
    length j - i, and in a cycle also one of length m - (j - i), so a
    partition is dropped when G has no closed walk of such a length (this
    covers loops at j - i = 1 and digons at 2).  Each quotient H/pi is
    canonicalised (over rotations for cycles), and hom(H/pi, G) is a
    contraction of copies of the adjacency matrix (:func:`_contract`).

    Every entry of every intermediate counts maps from a subset of H's
    vertices into V(G), and so does every partial sum of a product.
    n**m < 2**53 therefore proves float64 exact; at or above it the route
    is not taken.  The signed sum is taken in Python integers.

    The route is taken when its estimated cost, the flops of every
    contraction step plus a fixed cost per step, is at most
    ``_MOBIUS_RATIO`` times the walks 1^T M^(m-2) 1 that the frontier
    prunes from (divided by m for cycles), and when no intermediate holds
    more than n**3 entries.  The term table is enumerated and planned once
    per (m, cyclic, closed-walk lengths), and not at all when a lower bound
    on its cost already rejects it.
    """
    n = walks.g.n
    if n ** m >= 1 << 53:
        return None
    a = walks.a
    per_start = np.ones(n)
    for _ in range(m - 2):
        per_start = a @ per_start
    budget = _MOBIUS_RATIO * float(per_start.sum()) / (m if cyclic else 1)
    # a term's first step joins two arcs, so it costs at least n**2 + _STEP_FLOPS
    if budget < n * n + _STEP_FLOPS:
        return None
    key = (m, cyclic, tuple(walks.closed(j) for j in range(1, m)))
    table = _TABLES.get(key, 0)
    if isinstance(table, int):
        # enumerating a partition costs about as much as a step; an int
        # records a limit that the enumeration has already exceeded
        limit = int(budget // _STEP_FLOPS)
        if limit <= table:
            return None
        terms = _mobius_terms(m, cyclic, key[2], limit)
        if terms is None:
            _TABLES[key] = limit
            return None
        plans = [(c, len(arcs), _plan(arcs)) for c, arcs in terms]
        steps = [s for _, _, plan in plans for s in plan]
        widest = max((s[4] + s[5] + s[7] for s in steps), default=0)
        table = _TABLES[key] = plans, Counter(s[-1] for s in steps), widest
    plans, exponents, widest = table
    if widest > 3 or sum(count * (n ** e + _STEP_FLOPS) for e, count in exponents.items()) > budget:
        return None
    total = sum(c * _contract(a, k, steps, n) for c, k, steps in plans)
    return total // m if cyclic else total


def _mobius_terms(m: int, cyclic: bool, closed: tuple[bool, ...],
                  limit: int) -> Optional[list[tuple[int, tuple[tuple[int, int], ...]]]]:
    """(coefficient, quotient arcs) for every quotient H/pi with a nonzero
    coefficient, where closed[d - 1] says whether G has a closed d-walk;
    None once more than ``limit`` partitions are enumerated."""
    def joins(i: int, j: int) -> bool:
        return closed[j - i - 1] and (not cyclic or closed[m - (j - i) - 1])

    coeff: dict[tuple[tuple[int, int], ...], int] = {}
    for count, label in enumerate(_partitions(m, joins)):
        if count == limit:
            return None
        mu = prod((-1) ** (s - 1) * factorial(s - 1) for s in Counter(label).values())
        key = _quotient(label, cyclic)
        coeff[key] = coeff.get(key, 0) + mu
    return [(c, arcs) for arcs, c in coeff.items() if c]


def _partitions(m: int, joins: Callable[[int, int], bool]) -> Iterator[list[int]]:
    """Each set partition of 0..m-1 whose blocks hold only pairs i < j with
    joins(i, j), as the block of each position (blocks numbered by first
    member).  The list yielded is reused."""
    label = [0] * m
    blocks: list[list[int]] = []

    def extend(p: int) -> Iterator[list[int]]:
        if p == m:
            yield label
            return
        for b, members in enumerate(blocks):
            if all(joins(q, p) for q in members):
                members.append(p)
                label[p] = b
                yield from extend(p + 1)
                members.pop()
        blocks.append([p])
        label[p] = len(blocks) - 1
        yield from extend(p + 1)
        blocks.pop()

    return extend(0)


def _quotient(label: list[int], cyclic: bool) -> tuple[tuple[int, int], ...]:
    """The arcs of H/pi, with blocks renumbered by first visit along H; for
    a cycle, along the least such renumbering over all starting positions."""
    def visits(seq: list[int]) -> tuple[int, ...]:
        names: dict[int, int] = {}
        return tuple(names.setdefault(b, len(names)) for b in seq)

    if cyclic:
        seq = min(visits(label[r:] + label[:r]) for r in range(len(label)))
        return tuple(sorted(set(zip(seq, seq[1:] + seq[:1]))))
    seq = visits(label)
    return tuple(sorted(set(zip(seq, seq[1:]))))


def _plan(arcs: tuple[tuple[int, int], ...]) -> list[tuple]:
    """Pairwise contraction steps for hom(Q, G), Q the digraph ``arcs``.

    Each arc (a, b) is the factor M[a, b].  Each step greedily contracts
    the two factors whose product spans the fewest variables, then keeps
    the fewest.  A step (i, j, sx, sy, nb, nl, nc, nr, e) brings factors
    i < j to (batch, left, summed) and (batch, summed, right) axes, with
    nb, nl, nc and nr variables in each group, summing the variables no
    other factor holds; the product is appended as a new factor, and the
    step costs about n**e flops.
    """
    ops = [1 << a | 1 << b for a, b in arcs]
    names = [_VARS[a] + _VARS[b] for a, b in arcs]
    steps = []
    while len(ops) > 1:
        once = twice = more = 0  # the variables in at least one, two, three factors
        for o in ops:
            more |= twice & o
            twice |= once & o
            once |= o
        best = None
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                x, y = ops[i], ops[j]
                keep = (x | y) & (more | twice & (x ^ y))  # held by another factor
                score = ((keep | x & y).bit_count(), keep.bit_count(), not x & y)
                if best is None or score < best[0]:
                    best = (score, i, j, keep)
        _, i, j, keep = best
        x, y = ops[i], ops[j]
        groups = [x & y & keep, x & ~y & keep, x & y & ~keep, y & ~x & keep]
        b, left, c, right = ("".join(_VARS[v] for v in range(len(_VARS)) if s >> v & 1) for s in groups)
        e = max(x.bit_count(), y.bit_count(), sum(s.bit_count() for s in groups))
        steps.append((i, j, f"{names[i]}->{b}{left}{c}", f"{names[j]}->{b}{c}{right}",
                      len(b), len(left), len(c), len(right), e))
        del ops[j], ops[i], names[j], names[i]
        ops.append(groups[0] | groups[1] | groups[3])
        names.append(b + left + right)
    return steps


def _contract(a: np.ndarray, k: int, steps: list[tuple], n: int) -> int:
    """hom(Q, G) for the k-arc quotient Q planned by :func:`_plan`: each
    step is one batched matrix product of two factors."""
    ops = [a] * k
    for i, j, sx, sy, nb, nl, nc, nr, _ in steps:
        x = np.einsum(sx, ops[i]).reshape(n ** nb, n ** nl, n ** nc)
        y = np.einsum(sy, ops[j]).reshape(n ** nb, n ** nc, n ** nr)
        del ops[j], ops[i]
        ops.append((x @ y).reshape((n,) * (nb + nl + nr)))
    return int(ops[0].sum())


# ---------------------------------------------------------------------------
# Cycle copies
# ---------------------------------------------------------------------------


def _check_cycle_length(k: int) -> None:
    if k < 2:
        raise ValueError("cycle length must be at least 2")


def count_cycle_copies(g: OrientedGraph, k: int) -> int:
    """Number of subgraphs isomorphic to the directed k-cycle.

    Each copy is counted once (not per rotation).  k = 2 counts digons,
    which only exist in directed mode.
    """
    _check_cycle_length(k)
    return _copies(_Walks(g), k)


def _copies(walks: _Walks, k: int) -> int:
    if k > walks.g.n:
        return 0
    if walks.are_cycles(k):
        # each copy is then k closed walks, one per rotation
        return walks.trace(k) // k
    return _simple_count(walks, k, cyclic=True)


def _simple_count(walks: _Walks, m: int, cyclic: bool, limit: Optional[int] = None) -> int:
    """Simple paths on m vertices (2 <= m <= n), or with ``cyclic``
    m-cycle copies (3 <= m <= n), over the twin classes, else by the Möbius
    sum (without ``limit``), else on the frontier, else by the depth-first
    counter.  With ``limit`` the frontier and the depth-first counter may
    stop once the count reaches it."""
    g = walks.g
    tw = _twins(g)
    if tw is not None:
        return sum(_twin_closings(tw, m).values()) // m if cyclic else _twin_paths(tw, m - 1)
    if limit is None:
        count = _mobius(walks, m, cyclic)
        if count is not None:
            return count
    inn = g.in_bits()
    if _frontier_ok(g, m - 1):
        return _frontier_count(g, m - 1, _above(inn) if cyclic else None, limit)
    out = g.out_bits()
    total = 0
    for s in range(g.n):
        # a cycle is counted from its lowest vertex, with the rest above it
        inner = -1 << (s + 1) if cyclic else -1
        total += _simple_paths(out, s, m - 1, inner, inn[s] & inner if cyclic else -1, limit)
        if limit is not None and total >= limit:
            break
    return total


def enumerate_cycles(g: OrientedGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each directed k-cycle (k >= 2, digons included) once, as a
    vertex tuple starting at its minimum vertex."""
    _check_cycle_length(k)
    out = g.out_bits()
    inn = g.in_bits()
    n = g.n
    for s in range(n):
        high = -1 << (s + 1)
        target = inn[s]
        stack = [(s, 1 << s, (s,))]
        while stack:
            v, vis, path = stack.pop()
            avail = out[v] & high & ~vis
            if len(path) == k - 1:
                closing = avail & target
                while closing:
                    low = closing & -closing
                    closing ^= low
                    yield path + (low.bit_length() - 1,)
                continue
            while avail:
                low = avail & -avail
                avail ^= low
                u = low.bit_length() - 1
                stack.append((u, vis | low, path + (u,)))


def vertex_cycle_counts(g: OrientedGraph, k: int) -> dict[int, int]:
    """t_v: the number of k-cycle copies through each vertex."""
    return _vertex_counts(g, arc_cycle_multiplicities(g, k))


def _vertex_counts(g: OrientedGraph, mult: dict[tuple[int, int], int]) -> dict[int, int]:
    """Each copy through v leaves it by exactly one arc, so t_v sums the
    multiplicities of v's out-arcs."""
    tv = {v: 0 for v in range(g.n)}
    for (u, _), m in mult.items():
        tv[u] += m
    return tv


def arc_cycle_multiplicities(g: OrientedGraph, k: int) -> dict[tuple[int, int], int]:
    """For each arc, the number of k-cycle copies containing it.

    When every closed k-walk is a k-cycle (:meth:`_Walks.are_cycles`) and
    n * maxoutdeg**(k-2) < 2**53 proves the float64 power M^(k-1) exact,
    the count for (u, v) is (M^(k-1))[v, u]; otherwise it is taken over
    the twin classes, else on the frontier, else by enumerating the
    cycles.
    """
    _check_cycle_length(k)
    return _arc_counts(_Walks(g), k)


def _arc_counts(walks: _Walks, k: int) -> dict[tuple[int, int], int]:
    g = walks.g
    if k > g.n:
        return {arc: 0 for arc in g.arcs}
    if _walk_dtype(g, k - 1) is np.float64 and walks.are_cycles(k):
        # each k-cycle through (u, v) is then the one closed k-walk that
        # leaves u by (u, v), so it is one (k-1)-walk from v back to u
        p = _power(walks.a, k - 1)
        return {(u, v): int(p[v, u]) for (u, v) in g.arcs}
    tw = _twins(g)
    if tw is not None:
        return _twin_arc_counts(g, tw, k)
    if _frontier_ok(g, k - 1):
        mat = _arc_matrix(g, k)
        return {(u, v): int(mat[u, v]) for (u, v) in g.arcs}
    mult = {arc: 0 for arc in g.arcs}
    for cyc in enumerate_cycles(g, k):
        for i in range(k):
            mult[(cyc[i], cyc[(i + 1) % k])] += 1
    return mult


# ---------------------------------------------------------------------------
# Closed walks (homomorphic images of cycles): exact adjacency traces
# ---------------------------------------------------------------------------


def adjacency_matrix(g: OrientedGraph, dtype=np.float64) -> np.ndarray:
    """The adjacency matrix M (M[u, v] = 1 iff u -> v), unpacked from the
    out-neighbour bitmasks.  With ``dtype=object`` the entries are Python
    integers."""
    return bit_matrix(g.out_bits(), g.n).astype(dtype)


def _walk_dtype(g: OrientedGraph, length: int):
    """An exact dtype for the powers of M up to ``length``.

    An entry of M^j counts walks whose first j - 1 steps are free choices,
    so it is at most maxoutdeg**(j-1); every partial sum of a product is a
    non-negative part of such an entry, and the trace is a sum of n of
    them.  n * maxoutdeg**(length-1) therefore bounds every number on the
    way to tr(M^length): below 2**53 float64 (BLAS) is exact, and above
    that Python integers are used.
    """
    return np.float64 if g.n * _max_outdeg(g) ** (length - 1) < 1 << 53 else object


def _power(a: np.ndarray, length: int, boolean: bool = False) -> np.ndarray:
    """a**length (length >= 1) by repeated squaring.  With ``boolean``
    every product is clipped to {0, 1}, so a 0/1 float64 input keeps its
    entries at most n and the result (the reachability by walks of exactly
    ``length`` steps) is exact."""
    result = None
    while True:
        if length & 1:
            result = a if result is None else _product(result, a, boolean)
        length >>= 1
        if not length:
            return result
        a = _product(a, a, boolean)


def _product(a: np.ndarray, b: np.ndarray, boolean: bool) -> np.ndarray:
    c = a @ b
    return np.minimum(c, 1, out=c) if boolean else c


def count_closed_walks(g: OrientedGraph, length: int) -> int:
    """tr(M^length), exact: float64 below the bound of :func:`_walk_dtype`,
    Python integers above it (:meth:`_Walks.trace`)."""
    if length < 1:
        raise ValueError("walk length must be at least 1")
    return _Walks(g).trace(length)


def has_closed_walk(g: OrientedGraph, length: int) -> bool:
    """True iff a closed directed walk of exactly ``length`` exists.

    Equivalent to the presence of a homomorphic image of the directed
    ``length``-cycle.  Uses the boolean power of M, so no large integers
    are materialized.
    """
    if length < 1:
        raise ValueError("walk length must be at least 1")
    return _Walks(g).exists(length)


class _Walks:
    """The closed walks of one graph, for one count: the float64 adjacency
    matrix ``a``, built once when first read, and what the count asks of
    it, so that the checks and the counters of one count share their
    products."""

    def __init__(self, g: OrientedGraph):
        self.g = g
        self._clipped: Optional[np.ndarray] = None  # the clipped M^len(_flags)
        self._flags: list[bool] = []

    @cached_property
    def a(self) -> np.ndarray:
        return adjacency_matrix(self.g)

    def closed(self, j: int) -> bool:
        """Whether a closed j-walk exists (j >= 1).  The clipped power M^j
        (reachability in exactly j steps) is one boolean product from
        M^(j-1), so the first L flags cost L - 1 products; they are kept.
        A single long length is cheaper by :meth:`exists`."""
        flags = self._flags
        while len(flags) < j:
            self._clipped = self.a if not flags else _product(self._clipped, self.a, boolean=True)
            flags.append(bool(self._clipped.diagonal().any()))
        return flags[j - 1]

    def exists(self, length: int) -> bool:
        """Whether a closed ``length``-walk exists, by the boolean power."""
        return bool(_power(self.a, length, boolean=True).diagonal().any())

    def are_cycles(self, length: int) -> bool:
        """True when every closed ``length``-walk is a directed cycle.

        A closed walk that repeats a vertex splits there into two closed
        walks; loops never occur, so the shorter has length j with
        2 <= j <= length // 2.  Without such closed walks the identity
        tr(M^length) = length * C_length holds.  In oriented mode this
        covers every length up to 5, and 6 and 7 on triangle-free graphs.
        The flags are taken up to the first closed walk.
        """
        return not any(self.closed(j) for j in range(2, length // 2 + 1))

    def trace(self, length: int) -> int:
        """tr(M^length), exact: float64 where the bound of
        :func:`_walk_dtype` proves it exact.  Above that bound the half
        powers M^a and M^b (a + b = length) are taken in the dtype that
        bound allows for them, and only the contraction
        tr(M^a M^b) = sum M^a[u, v] * M^b[v, u] is formed in Python
        integers."""
        if _walk_dtype(self.g, length) is np.float64:
            return int(np.trace(_power(self.a, length)))
        half = (length + 1) // 2
        dtype = _walk_dtype(self.g, half)
        a = self.a if dtype is np.float64 else adjacency_matrix(self.g, object)
        low = _power(a, length // 2)
        high = low @ a if half > length // 2 else low
        if dtype is np.float64:
            low, high = low.astype(np.int64), high.astype(np.int64)
        return sum(map(mul, low.ravel().tolist(), high.T.ravel().tolist()))


def has_cycle_subgraph(g: OrientedGraph, length: int) -> bool:
    """True iff a simple directed cycle of exactly ``length`` exists."""
    _check_cycle_length(length)
    if length > g.n:
        return False
    # a closed walk is necessary for a cycle; this filter is cheap and
    # settles most freeness sweeps without counting
    walks = _Walks(g)
    if not walks.exists(length):
        return False
    return walks.are_cycles(length) or _simple_count(walks, length, cyclic=True, limit=1) > 0


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


def count_paths(g: OrientedGraph, i: int) -> int:
    """Number of simple directed paths on exactly i vertices."""
    if i < 1:
        raise ValueError("path order must be at least 1")
    return _paths(_Walks(g), i)


def _paths(walks: _Walks, i: int) -> int:
    if i == 1:
        return walks.g.n
    if i > walks.g.n:
        return 0
    return _simple_count(walks, i, cyclic=False)


# ---------------------------------------------------------------------------
# Clearing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClearingResult:
    """Outcome of iteratively deleting material lying on no k-cycle.

    ``is_fixed_point`` is True when the input graph was already fully
    supported on k-cycles (nothing was removed).  ``ell_walk_free`` reports
    whether the cleared graph has no closed walk of the forbidden length;
    clearing never removes such walks, it only reports their presence.
    """

    cleared: OrientedGraph
    removed_arcs: int
    removed_vertices: int
    is_fixed_point: bool
    ell_walk_free: bool


def clear(g: OrientedGraph, k: int, ell: int) -> ClearingResult:
    """Delete arcs and vertices on no k-cycle.

    One pass reaches the fixed point: a k-cycle uses only arcs on k-cycles,
    so deleting the other arcs leaves every k-cycle, and every remaining
    arc on one.
    """
    if ell < 1:
        raise ValueError("walk length must be at least 1")
    dead = {arc for arc, m in arc_cycle_multiplicities(g, k).items() if m == 0}
    removed_arcs = len(dead)
    current = new_graph(g.n, g.arcs - dead, g.mode) if dead else g
    # every remaining arc lies on a k-cycle, so exactly the vertices that
    # keep an arc do; deleting the others changes no arc's multiplicity
    und = current.und_bits()
    alive = [v for v in range(current.n) if und[v]]
    removed_vertices = current.n - len(alive)
    if removed_vertices:
        current = current.subgraph(alive)
    return ClearingResult(
        cleared=current,
        removed_arcs=removed_arcs,
        removed_vertices=removed_vertices,
        is_fixed_point=(removed_arcs == 0 and removed_vertices == 0),
        ell_walk_free=not has_closed_walk(current, ell) if current.n else True,
    )


# ---------------------------------------------------------------------------
# Neighbor condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeighborConditionReport:
    holds: bool
    limit: int
    witness_vertex: Optional[int] = None
    witness_cycle: Optional[tuple[int, ...]] = None


def check_neighbor_condition(g: OrientedGraph, k: int, d: int) -> NeighborConditionReport:
    """Check that every vertex has at most floor(2k/d) underlying neighbors
    on every k-cycle copy (k >= 2, digons included); returns the first
    violating (vertex, cycle).

    The twin classes are tried first (under the rule of :func:`_twins`):
    when no cycle's class counts give any class too many neighbours, the
    condition holds.  Otherwise the frontier, or where its bound fails the
    cycle enumeration, finds the witness.
    """
    _check_cycle_length(k)
    if d < 2:
        raise ValueError("d must be at least 2")
    limit = (2 * k) // d
    if k > g.n:
        return NeighborConditionReport(True, limit)
    tw = _twins(g)
    if tw is not None and _twin_neighbours_hold(tw, k, limit):
        return NeighborConditionReport(True, limit)
    if _frontier_ok(g, k - 1):
        found = _neighbor_violation(g, k, limit)
        if found is None:
            return NeighborConditionReport(True, limit)
        return NeighborConditionReport(False, limit, *found)
    und_bits = g.und_bits()
    for cyc in enumerate_cycles(g, k):
        mask = 0
        for v in cyc:
            mask |= 1 << v
        for w in range(g.n):
            if (und_bits[w] & mask).bit_count() > limit:
                return NeighborConditionReport(False, limit, w, cyc)
    return NeighborConditionReport(True, limit)


def _neighbor_violation(g: OrientedGraph, k: int, limit: int) -> Optional[tuple[int, tuple[int, ...]]]:
    """A vertex with more than ``limit`` underlying neighbours on a k-cycle,
    and that cycle, or None.

    The count depends only on the cycle's vertex set.  A canonical path
    closes into cycles on vis | {t} for each t in ``ends``; w has
    c = |und(w) & vis| neighbours on vis, so it violates iff c > limit, or
    c == limit and some closing t is a neighbour of w.
    """
    und_bits = g.und_bits()
    und = _uint64(und_bits)[:, None]
    for ends, vis, _, _ in _frontier(g, k - 1, _above(g.in_bits()), canonical=True):
        live = np.flatnonzero(ends)
        for lo in range(0, live.size, _CHUNK):
            i = live[lo:lo + _CHUNK]
            c = np.bitwise_count(und & vis[i])
            bad = (c > limit) | ((c == limit) & ((und & ends[i]) != 0))
            if bad.any():
                # the lowest violating vertex, then the first such path
                w, j = divmod(int(np.argmax(bad)), i.size)
                t = int(ends[i[j]]) & (und_bits[w] if c[w, j] == limit else -1)
                cycle_set = int(vis[i[j]]) | (t & -t)
                members = [v for v in range(g.n) if cycle_set >> v & 1]
                # any k-cycle through the whole set is a witness
                cyc = next(enumerate_cycles(g.subgraph(members), k))
                return w, tuple(members[x] for x in cyc)
    return None


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    """Bundle of exact counts for one graph and cycle length."""

    k: int
    copies: int
    closed_walks: int
    paths: Optional[dict[int, int]] = None
    per_arc: Optional[dict[tuple[int, int], int]] = None
    per_vertex: Optional[dict[int, int]] = None

    def to_dict(self) -> dict:
        # big integers as decimal strings so downstream JSON parsers never
        # truncate to 64 bits
        data = {
            "k": self.k,
            "copies": str(self.copies),
            "closed_walks": str(self.closed_walks),
        }
        if self.paths is not None:
            data["paths"] = {str(i): str(c) for i, c in sorted(self.paths.items())}
        if self.per_arc is not None:
            data["per_arc"] = {f"{u} {v}": str(c) for (u, v), c in sorted(self.per_arc.items())}
        if self.per_vertex is not None:
            data["per_vertex"] = {str(v): str(c) for v, c in sorted(self.per_vertex.items())}
        return data


def count_report(g: OrientedGraph, k: int, paths_up_to: Optional[int] = None,
                 per_arc: bool = False, per_vertex: bool = False) -> CountReport:
    _check_cycle_length(k)
    if paths_up_to is not None and paths_up_to < 0:
        raise ValueError("paths_up_to must be non-negative")
    walks = _Walks(g)  # one adjacency matrix for every count of the report
    mult = _arc_counts(walks, k) if per_arc or per_vertex else None
    return CountReport(
        k=k,
        copies=_copies(walks, k),
        closed_walks=walks.trace(k),
        paths={i: _paths(walks, i) for i in range(1, paths_up_to + 1)} if paths_up_to else None,
        per_arc=mult if per_arc else None,
        per_vertex=_vertex_counts(g, mult) if per_vertex else None,
    )
