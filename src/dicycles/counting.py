"""Exact counting and detection on oriented graphs.

Copy counts of directed k-cycles, closed-walk counts (adjacency-matrix
traces in big-integer arithmetic), simple-path counts, per-arc and
per-vertex cycle statistics, iterative clearing, the cycle neighbor
condition, and cycle-type.  Everything here is exact.  Cycle and path
counts share one bitset depth-first path counter; only
:func:`enumerate_cycles` materializes the cycles themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import ORIENTED, OrientedGraph


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
# Cycle copies
# ---------------------------------------------------------------------------


def count_digons(g: OrientedGraph) -> int:
    return sum(1 for (u, v) in g.arcs if u < v and (v, u) in g.arcs)


def count_cycle_copies(g: OrientedGraph, k: int) -> int:
    """Number of subgraphs isomorphic to the directed k-cycle.

    Each copy is counted once (not per rotation).  k = 2 counts digons,
    which only exist in directed mode.
    """
    if k < 2:
        raise ValueError("cycle length must be at least 2")
    if k == 2:
        return count_digons(g)
    if k > g.n:
        return 0
    out = g.out_bits()
    inn = g.in_bits()
    total = 0
    for s in range(g.n):
        high = -1 << (s + 1)  # vertices strictly above the canonical start
        total += _simple_paths(out, s, k - 1, high, inn[s] & high)
    return total


def enumerate_cycles(g: OrientedGraph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each directed k-cycle once, as a vertex tuple starting at its
    minimum vertex."""
    if k < 3:
        raise ValueError("enumerate_cycles requires k >= 3")
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
    if k == 2:
        tv = {v: 0 for v in range(g.n)}
        for u, v in g.arcs:
            if u < v and (v, u) in g.arcs:
                tv[u] += 1
                tv[v] += 1
        return tv
    tv = {v: 0 for v in range(g.n)}
    if 3 <= k <= g.n:
        for cyc in enumerate_cycles(g, k):
            for v in cyc:
                tv[v] += 1
    return tv


def arc_cycle_multiplicities(g: OrientedGraph, k: int) -> dict[tuple[int, int], int]:
    """For each arc, the number of k-cycle copies containing it."""
    if k == 2:
        return {(u, v): 1 if (v, u) in g.arcs else 0 for (u, v) in g.arcs}
    mult = {arc: 0 for arc in g.arcs}
    if not 3 <= k <= g.n:
        return mult
    for cyc in enumerate_cycles(g, k):
        for i in range(k):
            mult[(cyc[i], cyc[(i + 1) % k])] += 1
    return mult


def thick_arcs(g: OrientedGraph, k: int, threshold: int) -> set[tuple[int, int]]:
    """Arcs on at least ``threshold`` copies of the k-cycle.

    The complementary arcs (on >= 1 but < threshold copies) are the thin
    ones; the threshold is a caller-chosen scaling parameter.
    """
    mult = arc_cycle_multiplicities(g, k)
    return {arc for arc, m in mult.items() if m >= threshold}


# ---------------------------------------------------------------------------
# Closed walks (homomorphic images of cycles)
# ---------------------------------------------------------------------------


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for j in range(n):
            x = ai[j]
            if x:
                bj = b[j]
                for t in range(n):
                    if bj[t]:
                        oi[t] += x * bj[t]
    return out


def count_closed_walks(g: OrientedGraph, length: int) -> int:
    """tr(M^length) in exact big-integer arithmetic (power by squaring)."""
    if length < 1:
        raise ValueError("walk length must be at least 1")
    n = g.n
    if n == 0:
        return 0
    base = [[0] * n for _ in range(n)]
    for u, v in g.arcs:
        base[u][v] = 1
    result = None
    sq = base
    e = length
    while e:
        if e & 1:
            result = sq if result is None else _int_matmul(result, sq)
        e >>= 1
        if e:
            sq = _int_matmul(sq, sq)
    return sum(result[i][i] for i in range(n))


def _bool_rows(g: OrientedGraph) -> list[int]:
    return list(g.out_bits())


def _bool_matmul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * n
    for i in range(n):
        row = a[i]
        acc = 0
        while row:
            low = row & -row
            row ^= low
            acc |= b[low.bit_length() - 1]
        out[i] = acc
    return out


def bool_power(g: OrientedGraph, length: int) -> list[int]:
    """Rows of the boolean adjacency power A^length (walks of exact length)."""
    n = g.n
    base = _bool_rows(g)
    result = None
    sq = base
    e = length
    while e:
        if e & 1:
            result = sq if result is None else _bool_matmul(result, sq, n)
        e >>= 1
        if e:
            sq = _bool_matmul(sq, sq, n)
    return result if result is not None else [1 << i for i in range(n)]


def has_closed_walk(g: OrientedGraph, length: int) -> bool:
    """True iff a closed directed walk of exactly ``length`` exists.

    Equivalent to the presence of a homomorphic image of the directed
    ``length``-cycle.  Uses boolean bit-matrix powers, so no large integers
    are materialized.
    """
    if length < 1:
        raise ValueError("walk length must be at least 1")
    if g.n == 0:
        return False
    rows = bool_power(g, length)
    return any(rows[i] >> i & 1 for i in range(g.n))


def has_cycle_subgraph(g: OrientedGraph, length: int) -> bool:
    """True iff a simple directed cycle of exactly ``length`` exists."""
    if length < 2:
        raise ValueError("cycle length must be at least 2")
    n = g.n
    if length > n:
        return False
    if length == 2:
        return count_digons(g) > 0
    # a closed walk is necessary for a cycle; this filter is cheap and
    # settles most freeness sweeps without enumeration
    if not has_closed_walk(g, length):
        return False
    if length == 3:
        return True  # digon-free or not, closed 3-walks are always simple
    if length == 4 and g.mode == ORIENTED:
        # C4 exists iff some pair sees 2-walks both ways; middles are
        # automatically distinct in oriented mode
        rows2 = _bool_matmul(g.out_bits(), g.out_bits(), n)
        for u in range(n):
            back = rows2[u]
            while back:
                low = back & -back
                back ^= low
                v = low.bit_length() - 1
                if v != u and rows2[v] >> u & 1:
                    return True
        return False
    for _ in enumerate_cycles(g, length):
        return True
    return False


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


def count_paths(g: OrientedGraph, i: int) -> int:
    """Number of simple directed paths on exactly i vertices."""
    if i < 1:
        raise ValueError("path order must be at least 1")
    if i == 1:
        return g.n
    if i > g.n:
        return 0
    out = g.out_bits()
    return sum(_simple_paths(out, s, i - 1, -1, -1) for s in range(g.n))


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

    @property
    def is_cleared(self) -> bool:
        return self.ell_walk_free


def clear(g: OrientedGraph, k: int, ell: int) -> ClearingResult:
    """Delete arcs and vertices on no k-cycle until a fixed point."""
    current = g
    removed_arcs = 0
    while True:
        mult = arc_cycle_multiplicities(current, k)
        dead = {arc for arc, m in mult.items() if m == 0}
        if not dead:
            break
        removed_arcs += len(dead)
        current = OrientedGraph(current.n, current.arcs - dead, current.mode)
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
    on every k-cycle copy; returns the first violating (vertex, cycle)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    limit = (2 * k) // d
    if k > g.n or k < 3:
        return NeighborConditionReport(True, limit)
    und_bits = g.und_bits()
    for cyc in enumerate_cycles(g, k):
        mask = 0
        for v in cyc:
            mask |= 1 << v
        for w in range(g.n):
            if (und_bits[w] & mask).bit_count() > limit:
                return NeighborConditionReport(False, limit, w, cyc)
    return NeighborConditionReport(True, limit)


# ---------------------------------------------------------------------------
# Cycle-type
# ---------------------------------------------------------------------------

_FORWARD = {"f", "forward"}
_BACKWARD = {"b", "backward"}


def cycle_type(orientation) -> int:
    """|#forward - #backward| over an arc-orientation sequence of a cycle."""
    seq = list(orientation)
    if len(seq) < 3:
        raise ValueError("a cycle has at least 3 arcs")
    fwd = bwd = 0
    for item in seq:
        token = str(item).lower()
        if token in _FORWARD:
            fwd += 1
        elif token in _BACKWARD:
            bwd += 1
        else:
            raise ValueError(f"orientation entries must be forward/backward, got {item!r}")
    return abs(fwd - bwd)


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

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
    return CountReport(
        k=k,
        copies=count_cycle_copies(g, k),
        closed_walks=count_closed_walks(g, k),
        paths={i: count_paths(g, i) for i in range(1, paths_up_to + 1)} if paths_up_to else None,
        per_arc=arc_cycle_multiplicities(g, k) if per_arc else None,
        per_vertex=vertex_cycle_counts(g, k) if per_vertex else None,
    )
