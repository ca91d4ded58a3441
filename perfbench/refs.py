"""Independent reference values for the benchmark's checks.

Nothing here imports dicycles: every expected value is recomputed from
the benchmark's own inputs (arc lists, blob sizes, generators) with
methods that share no code with the program under test.  Checks are
explicit comparisons, so they still run under ``python -O``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

# float64 sums of non-negative integers are exact below this
_FLOAT_EXACT = 1 << 53


class Expect:
    """One comparison of a program output with its expected value.

    ``kind`` is ``eq`` (equal), ``le`` (actual at most expected) or
    ``close`` (within ``tol`` of expected).
    """

    __slots__ = ("label", "actual", "expected", "kind", "tol")

    def __init__(self, label, actual, expected, kind="eq", tol=0.0):
        self.label = label
        self.actual = actual
        self.expected = expected
        self.kind = kind
        self.tol = tol

    def ok(self) -> bool:
        if self.kind == "eq":
            return self.actual == self.expected
        if self.kind == "le":
            return self.actual <= self.expected
        if self.kind == "close":
            return abs(self.actual - self.expected) <= self.tol
        raise ValueError(f"unknown comparison {self.kind!r}")

    def corrupted(self) -> "Expect":
        """The same comparison against a wrong expected value."""
        e = self.expected
        if self.kind == "le":
            wrong = self.actual - abs(self.actual) - 1
        elif self.kind == "close":
            wrong = self.actual + 10 * self.tol + 1
        elif isinstance(e, bool):
            wrong = not e
        elif isinstance(e, (int, Fraction)):
            wrong = e + 1
        elif isinstance(e, str):
            wrong = e + "?"
        else:
            wrong = ("corrupted", e)
        return Expect(self.label, self.actual, wrong, self.kind, self.tol)

    def describe(self) -> str:
        sign = {"eq": "==", "le": "<=", "close": "~="}[self.kind]
        return f"{self.label}: {str(self.actual)[:60]} {sign} {str(self.expected)[:60]} failed"


def eq(label, actual, expected) -> Expect:
    return Expect(label, actual, expected)


def le(label, actual, bound) -> Expect:
    return Expect(label, actual, bound, "le")


def close(label, actual, expected, tol) -> Expect:
    return Expect(label, actual, expected, "close", tol)


# ---------------------------------------------------------------------------
# Graph inputs
# ---------------------------------------------------------------------------


def graph_text(n: int, arcs) -> str:
    """The plain-text graph format: header "n m", then one "u v" per arc."""
    lines = [f"{n} {len(arcs)}"]
    lines.extend(f"{u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"


def bipartite_orientation(rng, n: int) -> list[tuple[int, int]]:
    """Each pair across parts [0, ceil(n/2)) and the rest oriented by a coin."""
    a = (n + 1) // 2
    return [(u, v) if rng.random() < 0.5 else (v, u) for u in range(a) for v in range(a, n)]


def balanced_bipartite(rng, n: int, keep: float = 1.0) -> list[tuple[int, int]]:
    """Orientation of K_{m,m} (n = 2m) in which each vertex of the first
    part sends arcs to floor(m/2) vertices of the second, and each vertex of
    the second part to the rest; with ``keep`` < 1 every vertex then drops
    the same number of its out-arcs.

    Fixed out-degrees fix every walk count, so path and cycle counts (and
    the time to enumerate them) vary little from seed to seed.  The matrix
    is a circulant scrambled by row and column permutations and random
    2x2 switches, which keep all line sums.
    """
    m = n // 2
    h = m // 2
    rows = [[(j - i) % m < h for j in range(m)] for i in range(m)]
    for _ in range(4 * m * m):
        i1, i2 = rng.sample(range(m), 2)
        j1, j2 = rng.sample(range(m), 2)
        if rows[i1][j1] and rows[i2][j2] and not rows[i1][j2] and not rows[i2][j1]:
            rows[i1][j1] = rows[i2][j2] = False
            rows[i1][j2] = rows[i2][j1] = True
    out: dict[int, list[int]] = {v: [] for v in range(n)}
    for i in range(m):
        for j in range(m):
            u, v = (i, m + j) if rows[i][j] else (m + j, i)
            out[u].append(v)
    arcs = []
    for u, targets in out.items():
        drop = round((1.0 - keep) * len(targets))
        arcs.extend((u, v) for v in sorted(rng.sample(targets, len(targets) - drop)))
    return arcs


def random_orientation(rng, n: int, density: float) -> list[tuple[int, int]]:
    """Each pair present with probability ``density``, oriented by a coin."""
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return arcs


def balanced_sizes(n: int, p: int) -> tuple[int, ...]:
    """Blob sizes of a balanced blow-up: remainder to the lowest blobs."""
    q, r = divmod(n, p)
    return tuple(q + 1 if i < r else q for i in range(p))


def blob_ranges(sizes) -> list[range]:
    out, lo = [], 0
    for s in sizes:
        out.append(range(lo, lo + s))
        lo += s
    return out


def cycle_blowup_arcs(n: int, d: int) -> list[tuple[int, int]]:
    """Balanced blow-up of the directed d-cycle with independent blobs."""
    blobs = blob_ranges(balanced_sizes(n, d))
    return [(u, v) for i in range(d) for u in blobs[i] for v in blobs[(i + 1) % d]]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def falling(s: int, m: int) -> int:
    return math.perm(s, m) if 0 <= m <= s else 0


def cycle_blowup_paths(sizes, order: int) -> int:
    """Simple paths on ``order`` vertices in a blow-up of the d-cycle.

    A path starting in blob b visits blobs b, b+1, ... in turn; it needs
    distinct vertices only inside each blob.
    """
    d = len(sizes)
    total = 0
    for b in range(d):
        visits = [0] * d
        for j in range(order):
            visits[(b + j) % d] += 1
        term = 1
        for s, m in zip(sizes, visits):
            term *= falling(s, m)
        total += term
    return total


def cycle_blowup_cycles(sizes, k: int) -> int:
    """Directed k-cycles in a blow-up of the d-cycle (0 unless d | k).

    A cycle of length m*d winds m times and meets every blob m times; its
    linear forms starting in blob 0 number prod(falling(s_i, m)), and each
    cycle has m of them.
    """
    d = len(sizes)
    if k % d:
        return 0
    m = k // d
    prod = 1
    for s in sizes:
        prod *= falling(s, m)
    return prod // m


# ---------------------------------------------------------------------------
# Walk algebra
# ---------------------------------------------------------------------------


def walk_matrix(n: int, arcs, length: int) -> np.ndarray:
    """The adjacency power A^length, exactly.

    Entries of A^j are at most D^(j-1) for the largest out-degree D, and all
    partial sums are non-negative, so float64 products are exact while
    D^(length-1) < 2^53; otherwise the power is taken over Python integers.
    """
    a = np.zeros((n, n))
    outdeg = [0] * n
    for u, v in arcs:
        a[u, v] = 1.0
        outdeg[u] += 1
    if max(outdeg, default=0) ** max(length - 1, 0) >= _FLOAT_EXACT:
        a = a.astype(np.int64).astype(object)
    m = a
    for _ in range(length - 1):
        m = m @ a
    return m


def closed_walks(n: int, arcs, length: int) -> int:
    """tr(A^length): closed walks of that length."""
    if n == 0:
        return 0
    m = walk_matrix(n, arcs, length)
    return sum(int(m[i, i]) for i in range(n))


def all_walks(n: int, arcs, length: int) -> int:
    """Walks with ``length`` arcs (any start, any end); bounds path counts."""
    if length == 0:
        return n
    m = walk_matrix(n, arcs, length)
    return sum(int(x) for x in m.ravel())


# ---------------------------------------------------------------------------
# Small-graph enumeration
# ---------------------------------------------------------------------------


def cycle_count(n: int, arcs, k: int, stop_at: int | None = None) -> int:
    """Directed k-cycles by testing every cyclic vertex sequence (small n)."""
    arcset = set(arcs)
    if k == 2:
        return sum(1 for u, v in arcset if u < v and (v, u) in arcset)
    total = 0
    for subset in combinations(range(n), k):
        s = subset[0]
        for perm in permutations(subset[1:]):
            seq = (s,) + perm
            if all((seq[i], seq[(i + 1) % k]) in arcset for i in range(k)):
                total += 1
                if stop_at is not None and total >= stop_at:
                    return total
    return total


def has_transitive_triangle(arcs) -> bool:
    arcset = set(arcs)
    out: dict[int, set] = {}
    for u, v in arcset:
        out.setdefault(u, set()).add(v)
    return any(out.get(u, set()) & out.get(v, set()) for u, v in arcset)


def contains_forbidden(n: int, arcs, forbidden) -> bool:
    for item in forbidden:
        if item == "TT3":
            if has_transitive_triangle(arcs):
                return True
        elif item <= n and cycle_count(n, arcs, item, stop_at=1):
            return True
    return False


def is_cycle(arcs, cycle) -> bool:
    arcset = set(arcs)
    k = len(cycle)
    return (len(set(cycle)) == k
            and all((cycle[i], cycle[(i + 1) % k]) in arcset for i in range(k)))


def neighbours_on(arcs, w: int, vertices) -> int:
    """Underlying neighbours of w among ``vertices``."""
    on = set(vertices)
    nbrs = {v for u, v in arcs if u == w} | {u for u, v in arcs if v == w}
    return len(nbrs & on)


# ---------------------------------------------------------------------------
# Number theory and densities
# ---------------------------------------------------------------------------


def representable_bits(gens, limit: int) -> int:
    """Bit t set iff t <= limit is a non-negative combination of ``gens``."""
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for a in gens:
        while True:
            grown = (reach | (reach << a)) & mask
            if grown == reach:
                break
            reach = grown
    return reach


def brauer_bound(gens) -> int:
    gens = tuple(gens)
    if len(gens) == 1:
        return -gens[0]
    chain, g = [], 0
    for a in gens:
        g = math.gcd(g, a)
        chain.append(g)
    return sum(gens[i] * chain[i - 1] // chain[i] for i in range(1, len(gens))) - sum(gens)


def threshold_c7_mc(c: float, k: int, samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo k-cycle density (per n^k) of the threshold 7-cycle pattern.

    Seven equal blobs on the 7-cycle with chords i -> i+3; the seven cycle
    pairs are threshold pairs (x -> y iff min(x + c, 1) >= y, else y -> x)
    and the chords are full arcs.  Returns (estimate, standard error).
    """
    rel = np.zeros((7, 7), np.int8)  # 1/2: threshold along/against, 3: full arc
    for i in range(7):
        rel[i, (i + 1) % 7] = 1
        rel[(i + 1) % 7, i] = 2
        rel[i, (i + 3) % 7] = 3
    blobs = rng.integers(0, 7, size=(samples, k))
    x = rng.random((samples, k))
    ok = np.ones(samples, bool)
    for t in range(k):
        a, b = blobs[:, t], blobs[:, (t + 1) % k]
        xa, xb = x[:, t], x[:, (t + 1) % k]
        r = rel[a, b]
        along = np.minimum(xa + c, 1.0) >= xb
        against = np.minimum(xb + c, 1.0) < xa
        ok &= (r == 3) | ((r == 1) & along) | ((r == 2) & against)
    p = ok.mean()
    return p / k, math.sqrt(max(p * (1 - p), 1.0 / samples) / samples) / k
