"""Oriented-graph core: validated digraphs, blow-up machinery, and file I/O.

An oriented graph has no self-loops and at most one arc per vertex pair.
Directed mode relaxes the second restriction so that digons (pairs of
opposite arcs) are allowed.  All graph values are immutable after
construction and safe to share across workers; every generator taking a
seed is a pure function of its parameters and the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Optional, Sequence

ORIENTED = "oriented"
DIRECTED = "directed"


class GraphError(ValueError):
    """Base class for graph construction and parsing problems."""


class SelfLoopError(GraphError):
    pass


class DigonError(GraphError):
    """A digon was supplied in oriented mode."""


class VertexRangeError(GraphError):
    pass


class ParseError(GraphError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PatternError(GraphError):
    """Invalid pattern specification."""


class SizeMismatchError(GraphError):
    """Blob assignment does not fit the pattern."""


class OrientedGraph:
    """Immutable digraph on vertices 0..n-1 with arcs as ordered pairs.

    In ``oriented`` mode at most one of (u, v), (v, u) may be present; in
    ``directed`` mode both may (a digon).  Duplicate arcs in the input are
    silently deduplicated.
    """

    __slots__ = ("n", "arcs", "mode", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]], mode: str = ORIENTED):
        if mode not in (ORIENTED, DIRECTED):
            raise GraphError(f"unknown mode {mode!r}")
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        arc_set = frozenset((int(u), int(v)) for u, v in arcs)
        out, inn = [0] * n, [0] * n
        for u, v in arc_set:
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"arc ({u}, {v}) outside [0, {n})")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        if mode == ORIENTED:
            # bit v of out[u] & in[u] is set iff u -> v and v -> u
            for u in range(n):
                both = out[u] & inn[u]
                if both:
                    v = (both & -both).bit_length() - 1
                    raise DigonError(f"digon between {u} and {v} in oriented mode")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arc_set)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", inn)

    def __setattr__(self, name, value):
        raise AttributeError("OrientedGraph is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def arcs_sorted(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def out_bits(self) -> list[int]:
        """Out-neighborhoods as bitmasks (index v set in out_bits()[u] iff u->v)."""
        return self._out

    def in_bits(self) -> list[int]:
        return self._in

    def und_bits(self) -> list[int]:
        """Underlying-undirected neighborhoods as bitmasks."""
        out, inn = self.out_bits(), self.in_bits()
        return [out[v] | inn[v] for v in range(self.n)]

    def subgraph(self, keep: Sequence[int]) -> "OrientedGraph":
        """Induced subgraph on ``keep``, relabeled to 0..len(keep)-1 in order."""
        keep = list(keep)
        index = {v: i for i, v in enumerate(keep)}
        arcs = [(index[u], index[v]) for u, v in self.arcs if u in index and v in index]
        return OrientedGraph(len(keep), arcs, self.mode)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedGraph)
            and self.n == other.n
            and self.mode == other.mode
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mode, self.arcs))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={self.num_arcs}, mode={self.mode})"


def new_graph(n: int, arcs: Iterable[tuple[int, int]], mode: str = ORIENTED) -> OrientedGraph:
    """Build a validated graph (invariants enforced, arcs deduplicated)."""
    return OrientedGraph(n, arcs, mode)


def canonical_arcs(g: OrientedGraph) -> tuple[tuple[int, int], ...]:
    """Lexicographically minimal arc tuple over all vertex permutations.

    Brute force over n! permutations; intended for n <= 8 (witness
    deduplication and isomorphism checks in tests).
    """
    if g.n > 8:
        raise GraphError("canonical_arcs is brute force; n <= 8 required")
    best = None
    for perm in permutations(range(g.n)):
        cand = tuple(sorted((perm[u], perm[v]) for u, v in g.arcs))
        if best is None or cand < best:
            best = cand
    return best if best is not None else ()


# ---------------------------------------------------------------------------
# Patterns and blow-ups
# ---------------------------------------------------------------------------

INDEPENDENT = "independent"
TRANSITIVE_TOURNAMENT = "transitive_tournament"
ONE_WAY_BIPARTITE = "one_way_bipartite"

FULL = "full"
THRESHOLD = "threshold"


@dataclass(frozen=True)
class BlobInternal:
    """Internal structure of one blob.

    ``kind`` is one of independent / transitive_tournament /
    one_way_bipartite; ``split`` (a rational strictly between 0 and 1) is
    only meaningful for one_way_bipartite and gives the fraction of the
    blob in the first part, with all internal arcs from first to second.
    """

    kind: str = INDEPENDENT
    split: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in (INDEPENDENT, TRANSITIVE_TOURNAMENT, ONE_WAY_BIPARTITE):
            raise PatternError(f"unknown blob kind {self.kind!r}")
        if self.kind == ONE_WAY_BIPARTITE:
            if self.split is None or not (0 < self.split < 1):
                raise PatternError("one_way_bipartite split must lie strictly in (0, 1)")
        elif self.split is not None:
            raise PatternError("split only applies to one_way_bipartite blobs")


@dataclass(frozen=True)
class ArcRule:
    """Orientation rule for a base arc: full one-directional, or threshold.

    A threshold rule with constant c orients each cross pair individually:
    with f(x) = min(x + c, 1), the arc runs x -> y iff f(coord(x)) >=
    coord(y), and y -> x otherwise.
    """

    kind: str = FULL
    c: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (FULL, THRESHOLD):
            raise PatternError(f"unknown arc rule {self.kind!r}")
        if self.kind == THRESHOLD:
            if self.c is None or not (0.0 <= self.c <= 1.0):
                raise PatternError("threshold constant must lie in [0, 1]")
        elif self.c is not None:
            raise PatternError("constant only applies to threshold rules")


@dataclass(frozen=True)
class PatternSpec:
    """Weighted blueprint digraph from which constructions are realized.

    ``base`` is a small graph whose vertices are the blobs, ``blob_weights``
    are non-negative rationals summing to exactly 1, ``blob_internal`` gives
    one :class:`BlobInternal` per blob, and ``arc_rule`` maps each base arc
    to its :class:`ArcRule` (defaulting to full).
    """

    base: OrientedGraph
    blob_weights: tuple[Fraction, ...]
    blob_internal: tuple[BlobInternal, ...]
    arc_rule: Optional[dict] = None

    def __post_init__(self):
        p = self.base.n
        if len(self.blob_weights) != p or len(self.blob_internal) != p:
            raise PatternError("weights and internals must match the base vertex count")
        weights = tuple(Fraction(w) for w in self.blob_weights)
        object.__setattr__(self, "blob_weights", weights)
        if any(w < 0 for w in weights):
            raise PatternError("blob weights must be non-negative")
        if sum(weights) != 1:
            raise PatternError("blob weights must sum to exactly 1")
        rules = dict(self.arc_rule or {})
        for arc in rules:
            if arc not in self.base.arcs:
                raise PatternError(f"rule given for non-arc {arc}")
        for arc in self.base.arcs:
            rules.setdefault(arc, ArcRule())
        for (u, v), rule in rules.items():
            if rule.kind == THRESHOLD and u == v:
                raise PatternError("threshold arcs only permitted between distinct blobs")
        object.__setattr__(self, "arc_rule", rules)

    @property
    def p(self) -> int:
        return self.base.n

    def has_threshold(self) -> bool:
        return any(r.kind == THRESHOLD for r in self.arc_rule.values())


def uniform_pattern(base: OrientedGraph,
                    internal: Optional[Sequence[BlobInternal]] = None,
                    arc_rule: Optional[dict] = None) -> PatternSpec:
    """Pattern with balanced rational weights 1/p on each blob."""
    p = base.n
    if internal is None:
        internal = tuple(BlobInternal() for _ in range(p))
    return PatternSpec(base, tuple(Fraction(1, p) for _ in range(p)), tuple(internal), arc_rule)


def directed_cycle(d: int, mode: str = ORIENTED) -> OrientedGraph:
    """The directed d-cycle; d = 2 is a digon and requires directed mode."""
    if d < 2:
        raise GraphError("cycle length must be at least 2")
    if d == 2:
        if mode != DIRECTED:
            raise DigonError("a 2-cycle is a digon; use directed mode")
        return OrientedGraph(2, [(0, 1), (1, 0)], DIRECTED)
    return OrientedGraph(d, [(i, (i + 1) % d) for i in range(d)], mode)


def balanced_sizes(n: int, p: int) -> tuple[int, ...]:
    """Split n into p parts differing by at most one, remainder to low indices."""
    q, r = divmod(n, p)
    return tuple(q + 1 if i < r else q for i in range(p))


def equispaced_coordinates(size: int) -> tuple[float, ...]:
    """Deterministic coordinates in [0, 1]: i/(size-1), or 1/2 for singletons."""
    if size == 0:
        return ()
    if size == 1:
        return (0.5,)
    return tuple(i / (size - 1) for i in range(size))


@dataclass(frozen=True)
class BlobAssignment:
    """Concrete realization of a pattern at finite n: one size per blob."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if any(s < 0 for s in sizes):
            raise SizeMismatchError("blob sizes must be non-negative")

    @property
    def n(self) -> int:
        return sum(self.sizes)


def _bipartite_first_part(size: int, split: Fraction) -> int:
    # deterministic half-up rounding of split * size in exact arithmetic
    return (size * split.numerator + split.denominator // 2) // split.denominator


def blow_up(pattern: PatternSpec, assignment: BlobAssignment) -> OrientedGraph:
    """Realize a pattern at finite n.

    Blob i occupies the contiguous index range following blobs 0..i-1.
    Internal structure: transitive tournaments are ordered by vertex index;
    one-way bipartite blobs send all arcs from the first part to the
    second.  Threshold arcs compare f(coord(x)) = min(coord(x) + c, 1)
    against coord(y), with each blob at its equispaced coordinates.
    """
    p = pattern.p
    if len(assignment.sizes) != p:
        raise SizeMismatchError(f"assignment has {len(assignment.sizes)} parts, pattern has {p}")
    sizes = assignment.sizes
    offsets = [0] * p
    for i in range(1, p):
        offsets[i] = offsets[i - 1] + sizes[i - 1]
    n = sum(sizes)

    arcs: list[tuple[int, int]] = []
    for b in range(p):
        lo, s = offsets[b], sizes[b]
        internal = pattern.blob_internal[b]
        if internal.kind == TRANSITIVE_TOURNAMENT:
            arcs.extend((lo + i, lo + j) for i in range(s) for j in range(i + 1, s))
        elif internal.kind == ONE_WAY_BIPARTITE:
            h1 = _bipartite_first_part(s, internal.split)
            arcs.extend((lo + i, lo + j) for i in range(h1) for j in range(h1, s))

    for (u, v), rule in sorted(pattern.arc_rule.items()):
        lu, lv = offsets[u], offsets[v]
        if rule.kind == FULL:
            arcs.extend((lu + i, lv + j) for i in range(sizes[u]) for j in range(sizes[v]))
        else:
            cu, cv = equispaced_coordinates(sizes[u]), equispaced_coordinates(sizes[v])
            for i in range(sizes[u]):
                fx = min(cu[i] + rule.c, 1.0)
                for j in range(sizes[v]):
                    if fx >= cv[j]:
                        arcs.append((lu + i, lv + j))
                    else:
                        arcs.append((lv + j, lu + i))

    return OrientedGraph(n, arcs, pattern.base.mode)


def balanced_blow_up(base: OrientedGraph, n: int) -> OrientedGraph:
    """Balanced blow-up of a plain graph (independent blobs, full arcs)."""
    return blow_up(uniform_pattern(base), BlobAssignment(balanced_sizes(n, base.n)))


def iterated_blow_up(base: OrientedGraph, n: int) -> OrientedGraph:
    """Recursive balanced blow-up; recursion stops in blobs smaller than |V(base)|.

    Deterministic: blobs are filled in lexicographic order with remainders
    assigned to the lowest-indexed blobs, and every blob of size at least
    |V(base)| receives its own iterated blow-up.
    """
    if base.n < 3:
        raise GraphError("iterated blow-up requires a base on at least 3 vertices")

    def build(m: int, offset: int, out: list[tuple[int, int]]):
        p = base.n
        if m < p:
            return  # blob too small; stays an independent set
        sizes = balanced_sizes(m, p)
        offs = [offset] * p
        for i in range(1, p):
            offs[i] = offs[i - 1] + sizes[i - 1]
        for (u, v) in base.arcs:
            out.extend((offs[u] + i, offs[v] + j)
                       for i in range(sizes[u]) for j in range(sizes[v]))
        for i in range(p):
            build(sizes[i], offs[i], out)

    arcs: list[tuple[int, int]] = []
    build(n, 0, arcs)
    return OrientedGraph(n, arcs, base.mode)


def iterated_blowup_cycle_count(base_size: int, n: int) -> int:
    """Exact count of base-length cycles in the iterated blow-up.

    Satisfies f(n) = prod(sizes) + sum f(size_i) with balanced sizes and
    f(n) = 0 below the base size.
    """
    p = base_size
    if n < p:
        return 0
    sizes = balanced_sizes(n, p)
    total = 1
    for s in sizes:
        total *= s
    return total + sum(iterated_blowup_cycle_count(p, s) for s in sizes)


def random_bipartite_orientation(n: int, seed: int) -> OrientedGraph:
    """Random orientation of the complete balanced bipartite graph.

    Parts have sizes ceil(n/2) and floor(n/2); each cross pair is oriented
    by an independent fair coin from a generator seeded with ``seed``, so
    the output is reproducible per seed.
    """
    a = (n + 1) // 2
    rng = random.Random(seed)
    arcs = []
    for u in range(a):
        for v in range(a, n):
            if rng.getrandbits(1):
                arcs.append((u, v))
            else:
                arcs.append((v, u))
    return OrientedGraph(n, arcs, ORIENTED)


def twin_classes(g: OrientedGraph) -> list[int]:
    """The twin class of each vertex.

    Twins are vertices with identical out- and in-neighborhoods; classes
    are numbered in the order of their minimum members.  Twins are never
    adjacent, since an arc between them would put each in its own
    neighborhood.
    """
    index: dict[tuple[int, int], int] = {}
    return [index.setdefault(key, len(index)) for key in zip(g.out_bits(), g.in_bits())]


def quotient_by_equivalence(g: OrientedGraph) -> tuple[OrientedGraph, tuple[int, ...]]:
    """Merge twins (see :func:`twin_classes`).

    Returns the quotient graph and the class sizes; classes are ordered by
    their minimum member, and there is an arc between two classes iff there
    is an arc between all representatives (equivalently, any).
    """
    label = twin_classes(g)
    sizes = [0] * (max(label, default=-1) + 1)
    first = []  # the first member of each class stands for it
    for v, c in enumerate(label):
        if not sizes[c]:
            first.append(v)
        sizes[c] += 1
    out = g.out_bits()
    arcs = [(a, b) for a, u in enumerate(first) for b, v in enumerate(first) if out[u] >> v & 1]
    return OrientedGraph(len(sizes), arcs, g.mode), tuple(sizes)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
# UTF-8 text.  Line 1: "n m" or "n m directed"; then m lines "u v" giving
# the arc u -> v, 0-indexed.  Lines starting with '#' are comments.
# Canonical output sorts arcs lexicographically.


def read_graph(text: str) -> OrientedGraph:
    header = None
    arcs: list[tuple[int, int]] = []
    n = m = 0
    mode = ORIENTED
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) not in (2, 3):
                raise ParseError("header must be 'n m [directed]'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("non-integer header field", lineno) from None
            if len(parts) == 3:
                if parts[2] != DIRECTED:
                    raise ParseError(f"unknown mode {parts[2]!r}", lineno)
                mode = DIRECTED
            header = lineno
            continue
        if len(parts) != 2:
            raise ParseError("arc line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer arc endpoint", lineno) from None
        if len(arcs) >= m:
            raise ParseError(f"more than {m} arc lines", lineno)
        arcs.append((u, v))
    if header is None:
        raise ParseError("missing header", 1)
    if len(arcs) != m:
        raise ParseError(f"expected {m} arcs, found {len(arcs)}", header)
    try:
        return OrientedGraph(n, arcs, mode)
    except GraphError as exc:
        raise ParseError(str(exc), header) from exc


def write_graph(g: OrientedGraph) -> str:
    lines = [f"{g.n} {g.num_arcs}" + (" directed" if g.mode == DIRECTED else "")]
    lines.extend(f"{u} {v}" for u, v in g.arcs_sorted())
    return "\n".join(lines) + "\n"
