"""Representability of integers as non-negative combinations of generators,
the explicit Brauer-style threshold, the divisor parameter d, and the
predicted extremal table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
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
        return RepresentabilityResult(False, None, brauer_bound(gens), gcd_chain(gens))
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
    return RepresentabilityResult(True, tuple(witness), brauer_bound(gens), gcd_chain(gens))


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

    ``coefficient`` is the proven leading coefficient (exact rational) when
    a proven asymptotic pins it down, ``exponent`` the power of n it
    multiplies.  For
    the open (5, 4) case ``interval`` holds the known bounds in units of
    C(n, 5).  ``lower_bound_coefficient`` is the best construction value
    known for the pair, populated even when no matching upper bound is
    proven.  ``hypotheses`` records the checks that selected the regime.
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
    """ceil(n/3) * ceil((n-1)/3) * ceil((n-2)/3)."""
    return math.ceil(n / 3) * math.ceil((n - 1) / 3) * math.ceil((n - 2) / 3)


def _value_at(coeff: Fraction, exponent: int, n: int) -> float:
    return float(coeff) * n ** exponent


def _blowup_coefficient(k: int, d: int) -> Fraction:
    # leading term of n/k * (n/d)^(k-1)
    return Fraction(1, k) * Fraction(1, d) ** (k - 1)


def _bipartite_coefficient(k: int) -> Fraction:
    # leading term of 2/k * (n/4)^k
    return Fraction(2, k) * Fraction(1, 4) ** k


def predicted_extremal(k: int, ell: int, n: int, mode: str = ORIENTED) -> PredictedValue:
    """Known extremal regimes: tag, leading coefficient, hypothesis checks.

    Small cases (k <= 5 oriented) have their own sharp regimes; the
    general regimes require the stated lower bounds on ell and parity
    conditions, and anything not covered is reported as order-only with
    only a construction lower bound attached.
    """
    if k < 3 or ell < 3 or k == ell:
        raise InvalidParametersError("need k >= 3, ell >= 3, k != ell")
    if mode not in (ORIENTED, DIRECTED):
        raise InvalidParametersError(f"unknown mode {mode!r}")

    sparse = ell % k == 0

    if mode == DIRECTED:
        if sparse:
            lb = Fraction(1, (k - 1) ** (k - 1))
            return PredictedValue(k, ell, mode, ORDER_ONLY, k - 1,
                                  lower_bound_coefficient=lb,
                                  hypotheses={"k_divides_ell": True},
                                  note="order n^(k-1); singleton-blob blow-up lower bound")
        d = smallest_valid_divisor(k, ell, DIRECTED)
        coeff = _blowup_coefficient(k, d)
        hyp = {"k_divides_ell": False, "ell_ge_2(k-1)^2": ell >= 2 * (k - 1) ** 2}
        if hyp["ell_ge_2(k-1)^2"]:
            return PredictedValue(k, ell, mode, ASYMPTOTIC, k, coeff,
                                  _value_at(coeff, k, n), d=d,
                                  lower_bound_coefficient=coeff, hypotheses=hyp)
        return PredictedValue(k, ell, mode, ORDER_ONLY, k, d=d,
                              lower_bound_coefficient=coeff, hypotheses=hyp,
                              note="ell below the proven digon-mode threshold; "
                                   "d-cycle blow-up gives the lower bound")

    # oriented mode
    if sparse:
        if k == 3 and ell == 6:
            coeff = Fraction(1, 4)
            return PredictedValue(k, ell, mode, ASYMPTOTIC, 2, coeff,
                                  _value_at(coeff, 2, n),
                                  lower_bound_coefficient=coeff,
                                  hypotheses={"k_divides_ell": True})
        if k == 3:
            t = ell // 3
            coeff = Fraction(t - 1, 4)
            return PredictedValue(k, ell, mode, CONJECTURAL, 2, coeff,
                                  _value_at(coeff, 2, n),
                                  lower_bound_coefficient=coeff,
                                  hypotheses={"k_divides_ell": True},
                                  note="conjectured; hub construction lower bound")
        lb = Fraction(1, (k - 1) ** (k - 1))
        return PredictedValue(k, ell, mode, ORDER_ONLY, k - 1,
                              lower_bound_coefficient=lb,
                              hypotheses={"k_divides_ell": True},
                              note="order n^(k-1); singleton-blob blow-up lower bound")

    d = smallest_valid_divisor(k, ell, ORIENTED)

    if k == 3:
        if ell in (4, 5):
            return PredictedValue(k, ell, mode, EXACT, 3, Fraction(1, 27),
                                  ceil_cubic_value(n), d=d,
                                  lower_bound_coefficient=Fraction(1, 27),
                                  hypotheses={"small_ell": True},
                                  note="exact ceiling product at every n")
        coeff = Fraction(1, 27)
        return PredictedValue(k, ell, mode, ASYMPTOTIC, 3, coeff,
                              _value_at(coeff, 3, n), d=d,
                              lower_bound_coefficient=coeff,
                              hypotheses={"ell>6": ell > 6})

    if k == 4:
        if ell == 3:
            coeff = Fraction(1, 4 ** 4 - 1)
            return PredictedValue(k, ell, mode, ASYMPTOTIC, 4, coeff,
                                  _value_at(coeff, 4, n), d=d,
                                  lower_bound_coefficient=coeff,
                                  hypotheses={"ell": 3},
                                  note="stated with the iterated blow-up; the exact "
                                       "recursion trends to n^4/252 (see construction "
                                       "closed forms)")
        coeff = Fraction(1, 256)
        return PredictedValue(k, ell, mode, ASYMPTOTIC, 4, coeff,
                              _value_at(coeff, 4, n), d=d,
                              lower_bound_coefficient=coeff,
                              hypotheses={"ell>4": ell > 4})

    if k == 5:
        if ell == 3:
            coeff = Fraction(1, 512)
            return PredictedValue(k, ell, mode, ASYMPTOTIC, 5, coeff,
                                  _value_at(coeff, 5, n), d=d,
                                  lower_bound_coefficient=coeff,
                                  hypotheses={"ell": 3},
                                  note="4-cycle blow-up with tournament blobs")
        if ell == 4:
            return PredictedValue(k, ell, mode, OPEN_INTERVAL, 5,
                                  interval=(0.0517, 0.0567), d=d,
                                  lower_bound_coefficient=None,
                                  hypotheses={"ell": 4},
                                  note="open; bounds in units of C(n,5): threshold "
                                       "construction vs certificate ceiling")
        if ell == 7:
            coeff = Fraction(27, 16) * Fraction(1, 5) ** 5
            return PredictedValue(k, ell, mode, ASYMPTOTIC, 5, coeff,
                                  _value_at(coeff, 5, n), d=d,
                                  lower_bound_coefficient=coeff,
                                  hypotheses={"ell": 7},
                                  note="unbalanced 4-cycle blow-up with bipartite blobs")
        coeff = Fraction(1, 3125)
        return PredictedValue(k, ell, mode, ASYMPTOTIC, 5, coeff,
                              _value_at(coeff, 5, n), d=d,
                              lower_bound_coefficient=coeff,
                              hypotheses={"ell>5": ell > 5, "ell_not_7": True})

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
    blowup_coeff = _blowup_coefficient(k, d)
    lower = blowup_coeff
    if k % 2 == 0 and ell % 2 == 1:
        lower = max(lower, _bipartite_coefficient(k))

    if all(hyp_blowup.values()):
        return PredictedValue(k, ell, mode, ASYMPTOTIC, k, blowup_coeff,
                              _value_at(blowup_coeff, k, n), d=d,
                              lower_bound_coefficient=blowup_coeff,
                              hypotheses=hyp_blowup)
    if all(hyp_bipartite.values()):
        coeff = _bipartite_coefficient(k)
        return PredictedValue(k, ell, mode, ASYMPTOTIC, k, coeff,
                              _value_at(coeff, k, n), d=d,
                              lower_bound_coefficient=coeff,
                              hypotheses=hyp_bipartite,
                              note="random bipartite orientation regime")
    return PredictedValue(k, ell, mode, ORDER_ONLY, k, d=d,
                          lower_bound_coefficient=lower,
                          hypotheses={**hyp_blowup, **hyp_bipartite},
                          note="no proven regime covers this (k, ell)")
