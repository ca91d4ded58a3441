"""Named generators for the lower-bound constructions, each paired with an
exact closed-form copy count.

Every pattern-based construction shares one exact counting engine
(:mod:`dicycles.pattern_walks`); the iterated 4-cycle blow-up has its own
recursion, and the two non-deterministic/analytic families (random
bipartite orientation, threshold orientation) report expectations or limit
values carrying an explicit flag instead of an exact count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import (
    DIRECTED,
    ONE_WAY_BIPARTITE,
    ORIENTED,
    TRANSITIVE_TOURNAMENT,
    ArcRule,
    BlobInternal,
    OrientedGraph,
    PatternSpec,
    balanced_sizes,
    blow_up,
    directed_cycle,
    iterated_blow_up,
    iterated_blowup_cycle_count,
    new_graph,
    random_bipartite_orientation,
    uniform_pattern,
)
from .pattern_walks import pattern_cycle_count


class ConstructionError(ValueError):
    pass


class TooSmallError(ConstructionError):
    def __init__(self, kind: str, n: int, n_min: int):
        super().__init__(f"{kind} needs n >= {n_min}, got {n}")
        self.n_min = n_min


class NoClosedFormError(ConstructionError):
    pass


KINDS = (
    "balanced_cycle_blowup",
    "sparse_singleton_blowup",
    "iterated_c4",
    "c5c3_tournament_blobs",
    "c5c7_bipartite_blobs",
    "c3c6_sparse",
    "c7_chords_blowup",
    "threshold_c7",
    "random_bipartite",
    "complete_bipartite_digraph",
    "c3_3t_sparse",
)


# the one parameter each kind reads; the other kinds read none
_PARAMETER = {
    "balanced_cycle_blowup": "d",
    "sparse_singleton_blowup": "k",
    "threshold_c7": "c",
    "c3_3t_sparse": "t",
}


@dataclass(frozen=True)
class ConstructionId:
    """A construction family plus its parameters.

    d: cycle length for balanced_cycle_blowup (>= 3 oriented, 2 allowed in
    directed mode); k: cycle length for sparse_singleton_blowup; c:
    threshold constant in [0, 1]; t: hub multiplier for c3_3t_sparse
    (t >= 2); variant: large-blob placement for c5c7 (adjacent/opposite).
    A parameter that the kind does not read must be left unset.
    """

    kind: str
    d: Optional[int] = None
    k: Optional[int] = None
    c: Optional[float] = None
    t: Optional[int] = None
    variant: str = "adjacent"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstructionError(f"unknown construction {self.kind!r}")
        for f in ("d", "k", "c", "t"):
            if f != _PARAMETER.get(self.kind) and getattr(self, f) is not None:
                raise ConstructionError(f"{self.kind} takes no parameter {f}")
        if self.kind == "balanced_cycle_blowup":
            if self.d is None or self.d < 2:
                raise ConstructionError("balanced_cycle_blowup needs d >= 2")
        if self.kind == "sparse_singleton_blowup":
            if self.k is None or self.k < 3:
                raise ConstructionError("sparse_singleton_blowup needs k >= 3")
        if self.kind == "threshold_c7":
            if self.c is None or not 0.0 <= self.c <= 1.0:
                raise ConstructionError("threshold_c7 needs c in [0, 1]")
        if self.kind == "c3_3t_sparse":
            if self.t is None or self.t < 2:
                raise ConstructionError("c3_3t_sparse needs t >= 2")
        if self.kind == "c5c7_bipartite_blobs":
            if self.variant not in ("adjacent", "opposite"):
                raise ConstructionError("variant must be adjacent or opposite")
        elif self.variant != "adjacent":
            raise ConstructionError(f"{self.kind} takes no variant")

    def label(self) -> str:
        f = _PARAMETER.get(self.kind)
        params = [f"{f}={getattr(self, f)}"] if f else []
        if self.variant != "adjacent":
            params.append(f"variant={self.variant}")
        return self.kind + (f"({', '.join(params)})" if params else "")


@dataclass(frozen=True)
class Estimate:
    """A non-exact target value: an expectation over seeds or an n->inf limit."""

    value: object  # Fraction or float
    kind: str  # "expectation" | "limit"
    note: str = ""


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


def c5c3_pattern() -> PatternSpec:
    """Balanced 4-cycle blow-up with transitive tournaments inside blobs."""
    internals = tuple(BlobInternal(TRANSITIVE_TOURNAMENT) for _ in range(4))
    return uniform_pattern(directed_cycle(4), internals)


def c5c7_pattern(variant: str = "adjacent") -> PatternSpec:
    """4-cycle blow-up, two larger blobs carrying one-way bipartite splits.

    The larger blobs (weight 3/10 each) sit on adjacent or opposite
    positions of the 4-cycle; both variants realize the same optimum.
    """
    large = BlobInternal(ONE_WAY_BIPARTITE, Fraction(1, 2))
    small = BlobInternal()
    if variant == "adjacent":
        internals = (large, large, small, small)
        weights = (Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5))
    else:
        internals = (large, small, large, small)
        weights = (Fraction(3, 10), Fraction(1, 5), Fraction(3, 10), Fraction(1, 5))
    return PatternSpec(directed_cycle(4), weights, internals)


def seven_cycle_with_chords() -> OrientedGraph:
    """The 7-cycle plus the 7 chords v_i -> v_{i+3}.

    Each chord closes a directed 5-cycle together with four consecutive
    cycle arcs; this is checked below so a wrong chord convention fails
    fast.
    """
    arcs = [(i, (i + 1) % 7) for i in range(7)] + [(i, (i + 3) % 7) for i in range(7)]
    g = new_graph(7, arcs)
    for i in range(7):
        # chord (i, i+3) must be closed by the cycle path i+3 -> ... -> i
        path = [(i + 3 + j) % 7 for j in range(5)]
        if path[-1] != i or not all(g.has_arc(path[j], path[j + 1]) for j in range(4)):
            raise ConstructionError(f"chord ({i}, {(i + 3) % 7}) does not close a 5-cycle "
                                    "with consecutive arcs")
    return g


def c7_chords_pattern() -> PatternSpec:
    return uniform_pattern(seven_cycle_with_chords())


def threshold_c7_pattern(c: float) -> PatternSpec:
    """7-cycle-with-chords skeleton whose seven cycle arcs orient blob pairs
    by the threshold rule with constant c; the chords stay one-directional.
    """
    # The cycle arcs are the only choice of threshold arcs that is
    # 4-cycle-free at the optimum while peaking near c = 0.678 with density
    # about 0.0517 * C(n, 5); threshold chords admit 4-cycles outright, and
    # threshold rules on all arcs peak elsewhere (near c = 0.75).
    rules = {(i, (i + 1) % 7): ArcRule("threshold", c) for i in range(7)}
    return uniform_pattern(seven_cycle_with_chords(), arc_rule=rules)


def hub_triangle_pattern() -> PatternSpec:
    """3-cycle pattern hub -> A -> B -> hub used by the sparse families: the
    hub holds a bounded number of vertices, so its weight is 0."""
    half = Fraction(1, 2)
    return PatternSpec(directed_cycle(3), (Fraction(0), half, half),
                       tuple(BlobInternal() for _ in range(3)))


def digon_pattern() -> PatternSpec:
    return uniform_pattern(directed_cycle(2, DIRECTED))


def _c5c7_sizes(n: int, variant: str) -> tuple[int, ...]:
    """Nearest integers to (0.3, 0.3, 0.2, 0.2) * n, largest-remainder rule."""
    fracs = [Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5)]
    if variant == "opposite":
        fracs = [fracs[0], fracs[2], fracs[1], fracs[3]]
    floors = [int(f * n) for f in fracs]
    rem = n - sum(floors)
    order = sorted(range(4), key=lambda i: (-(fracs[i] * n - floors[i]), i))
    sizes = floors[:]
    for i in order[:rem]:
        sizes[i] += 1
    return tuple(sizes)


def _hub_sizes(n: int, t: int) -> tuple[int, ...]:
    rest = n - (t - 1)
    return (t - 1, (rest + 1) // 2, rest // 2)


def _pattern_and_sizes(cid: ConstructionId, n: int) -> tuple[PatternSpec, tuple[int, ...]]:
    """The pattern behind a blow-up construction and its blob sizes at n."""
    if cid.kind == "balanced_cycle_blowup":
        _require(cid, n, cid.d)
        mode = DIRECTED if cid.d == 2 else ORIENTED
        return uniform_pattern(directed_cycle(cid.d, mode)), balanced_sizes(n, cid.d)
    if cid.kind == "sparse_singleton_blowup":
        _require(cid, n, cid.k)
        return uniform_pattern(directed_cycle(cid.k)), (1,) + balanced_sizes(n - 1, cid.k - 1)
    if cid.kind == "c5c3_tournament_blobs":
        _require(cid, n, 4)
        return c5c3_pattern(), balanced_sizes(n, 4)
    if cid.kind == "c5c7_bipartite_blobs":
        _require(cid, n, 4)
        return c5c7_pattern(cid.variant), _c5c7_sizes(n, cid.variant)
    if cid.kind == "c3c6_sparse":
        _require(cid, n, 3)
        return hub_triangle_pattern(), _hub_sizes(n, 2)
    if cid.kind == "c3_3t_sparse":
        _require(cid, n, cid.t + 1)
        return hub_triangle_pattern(), _hub_sizes(n, cid.t)
    if cid.kind == "c7_chords_blowup":
        _require(cid, n, 7)
        return c7_chords_pattern(), balanced_sizes(n, 7)
    if cid.kind == "threshold_c7":
        _require(cid, n, 7)
        return threshold_c7_pattern(cid.c), balanced_sizes(n, 7)
    if cid.kind == "complete_bipartite_digraph":
        _require(cid, n, 2)
        return digon_pattern(), balanced_sizes(n, 2)
    raise ConstructionError(f"{cid.kind} is not a pattern blow-up")


def _require(cid: ConstructionId, n: int, n_min: int):
    if n < n_min:
        raise TooSmallError(cid.label(), n, n_min)


def generate(cid: ConstructionId, n: int, seed: Optional[int] = None) -> OrientedGraph:
    """Materialize a construction at n vertices.

    Deterministic except for random_bipartite, which requires a seed.
    """
    if cid.kind == "random_bipartite":
        _require(cid, n, 2)
        if seed is None:
            raise ConstructionError("random_bipartite requires a seed")
        return random_bipartite_orientation(n, seed)
    if cid.kind == "iterated_c4":
        _require(cid, n, 4)
        return iterated_blow_up(directed_cycle(4), n)
    pattern, sizes = _pattern_and_sizes(cid, n)
    return blow_up(pattern, sizes)


def closed_form_count(cid: ConstructionId, n: int, k: int):
    """Exact copy count of the directed k-cycle in generate(cid, n).

    Returns an int for deterministic pattern constructions (any k), the
    exact expectation as a flagged :class:`Estimate` for random_bipartite,
    and the quadrature limit (value * n^k scale) for threshold_c7.  Raises
    NoClosedFormError where no formula is derivable (iterated_c4 beyond
    k = 4).
    """
    if k < 2:
        raise ConstructionError("k must be at least 2")
    if cid.kind == "iterated_c4":
        _require(cid, n, 4)
        if k != 4:
            raise NoClosedFormError("iterated_c4 has a closed form only for k = 4")
        return iterated_blowup_cycle_count(4, n)
    if cid.kind == "random_bipartite":
        _require(cid, n, 2)
        if k % 2 == 1:
            return Estimate(Fraction(0), "expectation", "odd cycles never appear")
        j = k // 2
        a, b = (n + 1) // 2, n // 2
        cycles = math.comb(a, j) * math.comb(b, j) * math.factorial(j) * math.factorial(j - 1)
        return Estimate(Fraction(cycles, 2 ** k), "expectation",
                        "mean copy count over uniform orientations")
    if cid.kind == "threshold_c7":
        from . import density  # local import; density builds on this module

        _require(cid, n, 7)
        value = density.threshold_density(cid.c, k=k) * float(n) ** k
        return Estimate(value, "limit", "quadrature limit density times n^k")
    pattern, sizes = _pattern_and_sizes(cid, n)
    return pattern_cycle_count(pattern, sizes, k)
