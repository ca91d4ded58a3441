"""Oriented-graph core: validated digraphs, blow-up machinery, and file I/O.

An oriented graph has no self-loops and at most one arc per vertex pair.
Directed mode relaxes the second restriction so that digons (pairs of
opposite arcs) are allowed.  A graph is its out-neighbourhood bitmasks,
``OrientedGraph(n, out_masks)``; ``new_graph(n, arcs)`` builds one from arc
pairs.  All graph values are immutable after construction and safe to
share across workers; every generator taking a seed is a pure function of
its parameters and the seed.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations
from typing import Iterable, Optional, Sequence

import numpy as np

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
    """Immutable digraph on vertices 0..n-1, stored as its neighbourhood masks.

    ``out[u]`` has bit v set iff u -> v; the in-masks and the arc set are
    derived from it (:func:`new_graph` builds a graph from arc pairs).  In
    ``oriented`` mode at most one of u -> v, v -> u may be present; in
    ``directed`` mode both may (a digon).
    """

    __slots__ = ("n", "mode", "_out", "_in", "_arcs")

    def __init__(self, n: int, out: Sequence[int], mode: str = ORIENTED):
        if mode not in (ORIENTED, DIRECTED):
            raise GraphError(f"unknown mode {mode!r}")
        try:
            out = [operator.index(b) for b in out]
        except TypeError:
            raise GraphError("out-masks must be integers") from None
        if len(out) != n:
            raise GraphError(f"{len(out)} out-masks for {n} vertices")
        for u, b in enumerate(out):
            if b < 0 or b >> n:
                raise VertexRangeError(f"out-mask of vertex {u} has bits outside [0, {n})")
            if b >> u & 1:
                raise SelfLoopError(f"self-loop at vertex {u}")
        inn = _pack(bit_matrix(out, n).T)
        if mode == ORIENTED:
            # bit v of out[u] & in[u] is set iff u -> v and v -> u
            for u, both in enumerate(map(operator.and_, out, inn)):
                if both:
                    v = (both & -both).bit_length() - 1
                    raise DigonError(f"digon between {u} and {v} in oriented mode")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", inn)
        object.__setattr__(self, "_arcs", None)

    def __setattr__(self, name, value):
        raise AttributeError("OrientedGraph is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which the
        # immutable __setattr__ would refuse to restore slot by slot
        return OrientedGraph, (self.n, self._out, self.mode)

    # -- basic queries -------------------------------------------------

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The arcs (u, v), derived from the out-masks on first use."""
        if self._arcs is None:
            rows, cols = bit_matrix(self._out, self.n).nonzero()
            object.__setattr__(self, "_arcs", frozenset(zip(rows.tolist(), cols.tolist())))
        return self._arcs

    @property
    def num_arcs(self) -> int:
        return sum(b.bit_count() for b in self._out)

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v >= 0 and self._out[u] >> v & 1 == 1

    def out_bits(self) -> list[int]:
        """Out-neighborhoods as bitmasks (index v set in out_bits()[u] iff u->v)."""
        return self._out

    def in_bits(self) -> list[int]:
        return self._in

    def und_bits(self) -> list[int]:
        """Underlying-undirected neighborhoods as bitmasks."""
        return [out | inn for out, inn in zip(self._out, self._in)]

    def subgraph(self, keep: Sequence[int]) -> "OrientedGraph":
        """Induced subgraph on ``keep``, relabeled to 0..len(keep)-1 in order."""
        keep = list(keep)
        return OrientedGraph(len(keep), _pack(bit_matrix(self._out, self.n)[keep][:, keep]), self.mode)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrientedGraph) and (self.mode, self._out) == (other.mode, other._out)

    def __hash__(self) -> int:
        return hash((self.n, self.mode, tuple(self._out)))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={self.num_arcs}, mode={self.mode})"


def bit_matrix(masks: Sequence[int], n: int) -> np.ndarray:
    """The 0/1 uint8 matrix whose row i holds bits 0..n-1 of ``masks[i]``."""
    width = (n + 7) // 8
    raw = b"".join(b.to_bytes(width, "little") for b in masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(masks), 8 * width)[:, :n]


def _pack(matrix: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as a mask (the inverse of :func:`bit_matrix`)."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(len(packed))]


def new_graph(n: int, arcs: Iterable[tuple[int, int]], mode: str = ORIENTED) -> OrientedGraph:
    """Build a validated graph from arc pairs (duplicates collapse)."""
    out = [0] * n
    for arc in arcs:
        try:
            u, v = arc
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise VertexRangeError(f"arc {arc!r} has a non-integer endpoint") from None
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"arc ({u}, {v}) outside [0, {n})")
        out[u] |= 1 << v
    return OrientedGraph(n, out, mode)


def canonical_arcs(g: OrientedGraph) -> tuple[tuple[int, int], ...]:
    """Lexicographically minimal arc tuple over all vertex permutations.

    Brute force over n! permutations; intended for n <= 8 (witness
    deduplication and isomorphism checks in tests).  A sorted arc tuple
    lists the set bits of its adjacency matrix in row-major order, so the
    smallest tuple is the relabelled matrix whose n^2 bits, read row by row,
    form the largest number: one gather relabels the matrix by every
    permutation, and its rows packed into big-endian 64-bit keys are
    compared at once.
    """
    n = g.n
    if n > 8:
        raise GraphError("canonical_arcs is brute force; n <= 8 required")
    perms = np.array(list(permutations(range(n))), np.intp)
    relabelled = bit_matrix(g.out_bits(), n)[perms[:, :, None], perms[:, None, :]]
    keys = np.zeros((len(perms), 8), np.uint8)
    keys[:, :(n * n + 7) // 8] = np.packbits(relabelled.reshape(len(perms), n * n), axis=1)
    best = relabelled[keys.view(">u8").argmax()]
    return tuple(zip(*(axis.tolist() for axis in best.nonzero())))


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
    the arc runs x -> y iff coord(y) - coord(x) <= c, and y -> x
    otherwise.  On coordinates in [0, 1] this is the rule
    min(coord(x) + c, 1) >= coord(y).
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
        return new_graph(2, [(0, 1), (1, 0)], DIRECTED)
    return new_graph(d, [(i, (i + 1) % d) for i in range(d)], mode)


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


def _bipartite_first_part(size: int, split: Fraction) -> int:
    # deterministic half-up rounding of split * size in exact arithmetic
    return (size * split.numerator + split.denominator // 2) // split.denominator


def _span(lo: int, hi: int) -> int:
    """The mask of the vertices lo..hi-1."""
    return (1 << hi) - (1 << lo)


def blow_up(pattern: PatternSpec, sizes: Sequence[int]) -> OrientedGraph:
    """Realize a pattern at finite n, with ``sizes[i]`` vertices in blob i.

    Blob i occupies the contiguous index range following blobs 0..i-1.
    Internal structure: transitive tournaments are ordered by vertex index;
    one-way bipartite blobs send all arcs from the first part to the
    second.  A threshold arc u -> v runs x -> y iff coord(y) - coord(x)
    <= c (tested as coord(x) + c >= coord(y)), and y -> x otherwise, with
    each blob at its equispaced coordinates in [0, 1]; there the rule is
    min(coord(x) + c, 1) >= coord(y).
    """
    try:
        sizes = [operator.index(s) for s in sizes]
    except TypeError:
        raise SizeMismatchError("blob sizes must be integers") from None
    if len(sizes) != pattern.p:
        raise SizeMismatchError(f"{len(sizes)} blob sizes, pattern has {pattern.p} blobs")
    if any(s < 0 for s in sizes):
        raise SizeMismatchError("blob sizes must be non-negative")
    offsets = list(accumulate(sizes, initial=0))
    out = [0] * offsets[-1]
    for lo, s, internal in zip(offsets, sizes, pattern.blob_internal):
        if internal.kind == TRANSITIVE_TOURNAMENT:
            for i in range(lo, lo + s):
                out[i] |= _span(i + 1, lo + s)
        elif internal.kind == ONE_WAY_BIPARTITE:
            h1 = lo + _bipartite_first_part(s, internal.split)
            for i in range(lo, h1):
                out[i] |= _span(h1, lo + s)

    for (u, v), rule in pattern.arc_rule.items():
        lu, lv = offsets[u], offsets[v]
        if rule.kind == FULL:
            for i in range(lu, offsets[u + 1]):
                out[i] |= _span(lv, offsets[v + 1])
        else:
            # coordinates increase within a blob, so x -> y (x + c >= y) holds for a
            # prefix of v's blob, and y -> x (x + c < y) for a prefix of u's blob
            fx = [x + rule.c for x in equispaced_coordinates(sizes[u])]
            cv = equispaced_coordinates(sizes[v])
            for i in range(sizes[u]):
                out[lu + i] |= _span(lv, lv + bisect_right(cv, fx[i]))
            for j in range(sizes[v]):
                out[lv + j] |= _span(lu, lu + bisect_left(fx, cv[j]))

    return OrientedGraph(len(out), out, pattern.base.mode)


def balanced_blow_up(base: OrientedGraph, n: int) -> OrientedGraph:
    """Balanced blow-up of a plain graph (independent blobs, full arcs)."""
    return blow_up(uniform_pattern(base), balanced_sizes(n, base.n))


def iterated_blow_up(base: OrientedGraph, n: int) -> OrientedGraph:
    """Recursive balanced blow-up; recursion stops in blobs smaller than |V(base)|.

    Deterministic: blobs are filled in lexicographic order with remainders
    assigned to the lowest-indexed blobs, and every blob of size at least
    |V(base)| receives its own iterated blow-up.
    """
    if base.n < 3:
        raise GraphError("iterated blow-up requires a base on at least 3 vertices")

    out = [0] * n

    def build(m: int, offset: int):
        p = base.n
        if m < p:
            return  # blob too small; stays an independent set
        sizes = balanced_sizes(m, p)
        offs = list(accumulate(sizes, initial=offset))
        for (u, v) in base.arcs:
            for i in range(offs[u], offs[u + 1]):
                out[i] |= _span(offs[v], offs[v + 1])
        for i in range(p):
            build(sizes[i], offs[i])

    build(n, 0)
    return OrientedGraph(n, out, base.mode)


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
    out = [0] * n
    for u in range(a):
        for v in range(a, n):
            if rng.getrandbits(1):
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
    return OrientedGraph(n, out, ORIENTED)


def twin_classes(g: OrientedGraph) -> list[int]:
    """The twin class of each vertex.

    Twins are vertices with identical out- and in-neighborhoods; classes
    are numbered in the order of their minimum members.  Twins are never
    adjacent, since an arc between them would put each in its own
    neighborhood.
    """
    index: dict[tuple[int, int], int] = {}
    return [index.setdefault(key, len(index)) for key in zip(g.out_bits(), g.in_bits())]


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
# UTF-8 text.  Line 1: "n m" or "n m directed"; then m lines "u v" giving
# the arc u -> v, 0-indexed.  Lines starting with '#' are comments.
# Canonical output sorts arcs lexicographically.


def read_graph(text: str) -> OrientedGraph:
    """Parse a graph file: a header ``n m [directed]`` and then m arc lines
    ``u v``; blank lines and lines starting with ``#`` are skipped.

    A malformed line raises :class:`ParseError` with its line number; of
    several, the first.  A graph error (an endpoint out of range, a
    self-loop or a digon in oriented mode) raises it at the header line.
    The arc lines are split as they are read; each distinct endpoint token
    is converted once, and the arcs are set in one bit matrix.
    """
    lines = text.splitlines()
    for header, raw in enumerate(lines, start=1):
        parts = raw.split()
        if parts and parts[0][0] != "#":
            break
    else:
        raise ParseError("missing header", 1)
    if len(parts) not in (2, 3):
        raise ParseError("header must be 'n m [directed]'", header)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("non-integer header field", header) from None
    mode = ORIENTED
    if len(parts) == 3:
        if parts[2] != DIRECTED:
            raise ParseError(f"unknown mode {parts[2]!r}", header)
        mode = DIRECTED

    tokens: list[str] = []  # u, v of each arc line in turn
    shape = None  # the first arc line that is malformed or one too many
    for lineno, raw in enumerate(lines[header:], start=header + 1):
        parts = raw.split()
        if len(parts) == 2 and parts[0][0] != "#":
            tokens += parts
            if len(tokens) > 2 * m:
                shape = ParseError(f"more than {m} arc lines", lineno)
                break
        elif parts and parts[0][0] != "#":
            shape = ParseError("arc line must be 'u v'", lineno)
            break
    try:
        value = {t: int(t) for t in set(tokens)}
    except ValueError:
        # the first arc line with a bad endpoint comes before ``shape``
        for lineno, raw in enumerate(lines[header:], start=header + 1):
            parts = raw.split()
            if len(parts) == 2 and parts[0][0] != "#":
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    raise ParseError("non-integer arc endpoint", lineno) from None
    if shape is not None:
        raise shape
    if len(tokens) != 2 * m:
        raise ParseError(f"expected {m} arcs, found {len(tokens) // 2}", header)
    try:
        if n >= 0 and all(0 <= v < n for v in value.values()):
            ends = np.fromiter(map(value.__getitem__, tokens), dtype=np.int64, count=len(tokens))
            mat = np.zeros((n, n), dtype=np.uint8)
            mat[ends[0::2], ends[1::2]] = 1
            return OrientedGraph(n, _pack(mat), mode)
        ends = [value[t] for t in tokens]
        return new_graph(n, zip(ends[0::2], ends[1::2]), mode)  # raises at the first bad arc
    except GraphError as exc:
        raise ParseError(str(exc), header) from exc


def write_graph(g: OrientedGraph) -> str:
    lines = [f"{g.n} {g.num_arcs}" + (" directed" if g.mode == DIRECTED else "")]
    lines.extend(f"{u} {v}" for u, v in sorted(g.arcs))
    return "\n".join(lines) + "\n"
