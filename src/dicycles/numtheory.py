"""Representability of integers as non-negative combinations of generators,
the explicit Brauer-style threshold, the divisor parameter d, and the
predicted extremal table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .graphs import DIRECTED, ORIENTED


class NumTheoryError(ValueError):
    pass


class EmptyGeneratorsError(NumTheoryError):
    pass


class NoSuchDivisorError(NumTheoryError):
    """Raised when k divides ell, so no valid divisor d exists."""


class InvalidParametersError(NumTheoryError):
    pass


@dataclass(frozen=True)
class RepresentabilityQuery:
    """Can target be written as a non-negative combination of generators?"""

    target: int
    generators: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(int(a) for a in self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) < 1:
            raise EmptyGeneratorsError("at least one generator required")
        if any(a < 1 for a in gens):
            raise NumTheoryError("generators must be positive")
        if self.target < 0:
            raise NumTheoryError("target must be non-negative")


@dataclass(frozen=True)
class RepresentabilityResult:
    representable: bool
    witness: Optional[tuple[int, ...]]
    brauer_bound: int
    gcd_chain: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "representable": self.representable,
            "witness": list(self.witness) if self.witness is not None else None,
            "brauer_bound": self.brauer_bound,
            "gcd_chain": list(self.gcd_chain),
        }


def gcd_chain(generators: tuple[int, ...]) -> tuple[int, ...]:
    """d_i = gcd(a_1, ..., a_i)."""
    chain = []
    g = 0
    for a in generators:
        g = math.gcd(g, a)
        chain.append(g)
    return tuple(chain)


def brauer_bound(generators) -> int:
    """a_2 d_1/d_2 + a_3 d_2/d_3 + ... + a_k d_{k-1}/d_k - sum(a_i).

    Every integer divisible by d_k and strictly above this value is
    representable.  Exact integer arithmetic (each d_i divides d_{i-1}).
    """
    gens = tuple(int(a) for a in generators)
    if not gens:
        raise EmptyGeneratorsError("at least one generator required")
    if any(a < 1 for a in gens):
        raise NumTheoryError("generators must be positive")
    if len(gens) == 1:
        return -gens[0]  # degenerate: every multiple of a_1 above -a_1 works
    chain = gcd_chain(gens)
    total = 0
    for i in range(1, len(gens)):
        total += gens[i] * chain[i - 1] // chain[i]
    return total - sum(gens)


def representable(q: RepresentabilityQuery) -> RepresentabilityResult:
    """Exact decision by bounded dynamic programming over values.

    Each suffix's reachable values are one integer bitset: bit v is set iff
    v <= target is a combination of a_{i+1..k}.  Closing a row under a
    generator a ORs in its shifts by a, 2a, 4a, ... while they fit, which
    after j shifts adds every multiple up to (2^j - 1) a.  The witness,
    when one exists, is lexicographically minimal in the coefficient vector
    (smallest x_1, then x_2, ...).
    """
    gens = q.generators
    target = q.target
    k = len(gens)
    full = (1 << (target + 1)) - 1
    suffix = [0] * k + [1]
    for i in range(k - 1, -1, -1):
        row = suffix[i + 1]
        shift = gens[i]
        while shift <= target:
            row |= (row << shift) & full
            shift <<= 1
        suffix[i] = row
    if not suffix[0] >> target & 1:
        return RepresentabilityResult(False, None, *_bound_and_chain(gens))
    witness = []
    rest = target
    for i in range(k):
        a = gens[i]
        x = 0
        while not suffix[i + 1] >> (rest - x * a) & 1:
            x += 1
        witness.append(x)
        rest -= x * a
    if rest:
        raise NumTheoryError(f"witness {witness} leaves {rest} of the target {target}")
    return RepresentabilityResult(True, tuple(witness), *_bound_and_chain(gens))


@lru_cache(maxsize=1024)
def _bound_and_chain(gens: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(brauer_bound, gcd_chain) of a validated generator tuple, computed
    once per tuple: a sweep asks for every target with the same ones."""
    return brauer_bound(gens), gcd_chain(gens)


def smallest_valid_divisor(k: int, ell: int, mode: str = ORIENTED) -> int:
    """Smallest divisor of k not dividing ell.

    Oriented mode additionally requires d > 2 (a blow-up of the d-cycle
    must exist); directed mode allows d = 2 (the complete bipartite
    digraph plays the role of the 2-cycle blow-up).
    """
    if k < 1 or ell < 1:
        raise InvalidParametersError("k and ell must be positive")
    if ell % k == 0:
        raise NoSuchDivisorError(f"k={k} divides ell={ell}")
    lowest = 3 if mode == ORIENTED else 2
    for d in range(lowest, k + 1):
        if k % d == 0 and ell % d != 0:
            return d
    raise NoSuchDivisorError(f"no divisor of {k} above {lowest - 1} avoids dividing {ell}")


# ---------------------------------------------------------------------------
# Predicted extremal values
# ---------------------------------------------------------------------------

EXACT = "exact"
ASYMPTOTIC = "asymptotic"
CONJECTURAL = "conjectural"
OPEN_INTERVAL = "open-interval"
ORDER_ONLY = "order-only"


@dataclass(frozen=True)
class PredictedValue:
    """One row of the known-regime table for (k, ell, mode).

    ``coefficient`` is the exact rational leading coefficient of the row's
    regime: proven on EXACT and ASYMPTOTIC rows, conjectured on CONJECTURAL
    ones.  ``exponent`` is the power of n it multiplies.  A row with a
    coefficient uses it as ``lower_bound_coefficient``, and its ``value``
    is ``float(coefficient) * n ** exponent``, except on the EXACT row,
    whose value is the exact integer at n.  An ORDER_ONLY row has no
    coefficient, only the best construction value known for the pair as
    ``lower_bound_coefficient``.  The open (5, 4) row has neither; its
    ``interval`` holds the known bounds in units of C(n, 5).
    ``hypotheses`` records the checks that selected the regime.
    """

    k: int
    ell: int
    mode: str
    regime: str
    exponent: int
    coefficient: Optional[Fraction] = None
    value: Optional[object] = None  # int for exact, float otherwise
    interval: Optional[tuple[float, float]] = None
    d: Optional[int] = None
    lower_bound_coefficient: Optional[Fraction] = None
    hypotheses: dict = field(default_factory=dict)
    note: str = ""

    def to_dict(self) -> dict:
        def frac(x):
            return f"{x.numerator}/{x.denominator}" if x is not None else None

        return {
            "k": self.k,
            "ell": self.ell,
            "mode": self.mode,
            "regime": self.regime,
            "exponent": self.exponent,
            "coefficient": frac(self.coefficient),
            "value": str(self.value) if isinstance(self.value, int) else self.value,
            "interval": list(self.interval) if self.interval else None,
            "d": self.d,
            "lower_bound_coefficient": frac(self.lower_bound_coefficient),
            "hypotheses": self.hypotheses,
            "note": self.note,
        }


def ceil_cubic_value(n: int) -> int:
    """ceil(n/3) * ceil((n-1)/3) * ceil((n-2)/3), in integers at every n."""
    return math.prod(-(-m // 3) for m in (n, n - 1, n - 2))


def predicted_extremal(k: int, ell: int, n: int, mode: str = ORIENTED) -> PredictedValue:
    """Known extremal regimes: tag, leading coefficient, hypothesis checks.

    When k divides ell the order is n^(k-1); oriented k = 3 has a
    coefficient there (the hub construction), every other row only a
    singleton-blob lower bound.  Otherwise d is the smallest valid divisor
    of k for the mode.  Small cases (k <= 5 oriented) have their own
    sharp regimes; the general regimes require the stated lower bounds on
    ell and parity conditions, and anything not covered is reported as
    order-only with only a construction lower bound attached.  Every row
    is made by one builder, which applies the coefficient rule of
    :class:`PredictedValue`.
    """
    if k < 3 or ell < 3 or k == ell:
        raise InvalidParametersError("need k >= 3, ell >= 3, k != ell")
    if n < 0:
        raise InvalidParametersError("n must be non-negative")
    if mode not in (ORIENTED, DIRECTED):
        raise InvalidParametersError(f"unknown mode {mode!r}")

    sparse = ell % k == 0
    d = None if sparse else smallest_valid_divisor(k, ell, mode)

    def row(regime, exponent, coefficient=None, **fields):
        if coefficient is not None:
            fields["lower_bound_coefficient"] = coefficient
            fields["value"] = (ceil_cubic_value(n) if regime == EXACT
                               else float(coefficient) * n ** exponent)
        return PredictedValue(k, ell, mode, regime, exponent, coefficient, d=d, **fields)

    if sparse:
        hypotheses = {"k_divides_ell": True}
        if mode == ORIENTED and k == 3:
            if ell == 6:
                return row(ASYMPTOTIC, 2, Fraction(1, 4), hypotheses=hypotheses)
            return row(CONJECTURAL, 2, Fraction(ell // 3 - 1, 4), hypotheses=hypotheses,
                       note="conjectured; hub construction lower bound")
        return row(ORDER_ONLY, k - 1, lower_bound_coefficient=Fraction(1, (k - 1) ** (k - 1)),
                   hypotheses=hypotheses,
                   note="order n^(k-1); singleton-blob blow-up lower bound")

    # leading term of n/k * (n/d)^(k-1), the d-cycle blow-up
    blowup = Fraction(1, k * d ** (k - 1))

    if mode == DIRECTED:
        hypotheses = {"k_divides_ell": False, "ell_ge_2(k-1)^2": ell >= 2 * (k - 1) ** 2}
        if hypotheses["ell_ge_2(k-1)^2"]:
            return row(ASYMPTOTIC, k, blowup, hypotheses=hypotheses)
        return row(ORDER_ONLY, k, lower_bound_coefficient=blowup, hypotheses=hypotheses,
                   note="ell below the proven digon-mode threshold; "
                        "d-cycle blow-up gives the lower bound")

    if k == 3 and ell in (4, 5):
        return row(EXACT, 3, Fraction(1, 27), hypotheses={"small_ell": True},
                   note="exact ceiling product at every n")
    if k == 5 and ell == 4:
        return row(OPEN_INTERVAL, 5, interval=(0.0517, 0.0567), hypotheses={"ell": 4},
                   note="open; bounds in units of C(n,5): threshold "
                        "construction vs certificate ceiling")
    if k <= 5:
        # (coefficient, hypotheses, note) by (k, ell), with (k, None) for any other ell
        small = {
            (3, None): (Fraction(1, 27), {}, ""),
            (4, 3): (Fraction(1, 4 ** 4 - 1), {"ell": 3},
                     "stated with the iterated blow-up; the exact recursion trends "
                     "to n^4/252 (see construction closed forms)"),
            (4, None): (Fraction(1, 256), {}, ""),
            (5, 3): (Fraction(1, 512), {"ell": 3}, "4-cycle blow-up with tournament blobs"),
            (5, 7): (Fraction(27, 16) * Fraction(1, 5) ** 5, {"ell": 7},
                     "unbalanced 4-cycle blow-up with bipartite blobs"),
            (5, None): (Fraction(1, 3125), {}, ""),
        }
        coefficient, hypotheses, note = small.get((k, ell), small[k, None])
        return row(ASYMPTOTIC, k, coefficient, hypotheses=hypotheses, note=note)

    # general k >= 6
    hyp_blowup = {
        "ell_ge_2(k-1)^2": ell >= 2 * (k - 1) ** 2,
        "k_odd_or_ell_even_or_d_le_4": (k % 2 == 1) or (ell % 2 == 0) or (d <= 4),
    }
    hyp_bipartite = {
        "ell_gt_33k^2": ell > 33 * k ** 2,
        "k_eq_2_mod_4": k % 4 == 2,
        "ell_odd": ell % 2 == 1,
        "3_divides_k_implies_3_divides_ell": (k % 3 != 0) or (ell % 3 == 0),
    }
    # leading term of 2/k * (n/4)^k, a random orientation of K_{n/2,n/2}
    bipartite = Fraction(2, k * 4 ** k)
    if all(hyp_blowup.values()):
        return row(ASYMPTOTIC, k, blowup, hypotheses=hyp_blowup)
    if all(hyp_bipartite.values()):
        return row(ASYMPTOTIC, k, bipartite, hypotheses=hyp_bipartite,
                   note="random bipartite orientation regime")
    lower = max(blowup, bipartite) if k % 2 == 0 and ell % 2 == 1 else blowup
    return row(ORDER_ONLY, k, lower_bound_coefficient=lower,
               hypotheses={**hyp_blowup, **hyp_bipartite},
               note="no proven regime covers this (k, ell)")
