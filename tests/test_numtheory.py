"""Representability, divisor parameter, and the predicted-value table."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from dicycles.graphs import DIRECTED, ORIENTED
from dicycles.numtheory import (
    ASYMPTOTIC,
    CONJECTURAL,
    EXACT,
    OPEN_INTERVAL,
    ORDER_ONLY,
    EmptyGeneratorsError,
    InvalidParametersError,
    NoSuchDivisorError,
    NumTheoryError,
    RepresentabilityQuery,
    brauer_bound,
    ceil_cubic_value,
    gcd_chain,
    predicted_extremal,
    representable,
    smallest_valid_divisor,
)


def oracle_representable(ell, gens):
    if len(gens) == 1:
        return ell % gens[0] == 0
    if len(gens) == 2:
        a, b = gens
        return any((ell - x * a) % b == 0 for x in range(ell // a + 1))
    a, b, c = gens
    return any((ell - x * a - y * b) % c == 0
               for x in range(ell // a + 1)
               for y in range((ell - x * a) // b + 1))


def test_representable_examples():
    r = representable(RepresentabilityQuery(7, (3, 5)))
    assert not r.representable and r.witness is None
    r = representable(RepresentabilityQuery(8, (3, 5)))
    assert r.representable and r.witness == (1, 1)
    r = representable(RepresentabilityQuery(20, (5, 6)))
    assert r.representable and r.witness == (4, 0)
    assert r.brauer_bound == 6 * 5 // 1 - 11


def test_witness_is_lexicographically_minimal():
    for ell in range(0, 80):
        r = representable(RepresentabilityQuery(ell, (4, 6, 9)))
        if not r.representable:
            continue
        x = r.witness
        assert sum(a * b for a, b in zip(x, (4, 6, 9))) == ell
        # no witness with a smaller leading coefficient exists
        for smaller in range(x[0]):
            assert not oracle_representable(ell - 4 * smaller, (6, 9))


def test_brauer_bound_examples():
    assert brauer_bound((3, 5)) == 7
    assert brauer_bound((4, 4)) == -4
    for k in range(2, 13):
        assert brauer_bound((k, k + 1)) == k * k - k - 1
    with pytest.raises(EmptyGeneratorsError):
        brauer_bound(())
    for gens in ((0, 0), (-3, 5), (0, 5), (0,), (-1,), (3, 5, -2)):
        with pytest.raises(NumTheoryError, match="positive"):
            brauer_bound(gens)


def test_representability_sweep_against_oracle():
    for size in (1, 2, 3):
        for gens in combinations_with_replacement(range(1, 9), size):
            bound = brauer_bound(gens)
            dk = gcd_chain(gens)[-1]
            for ell in range(0, 61):
                got = representable(RepresentabilityQuery(ell, gens))
                assert got.representable == oracle_representable(ell, gens), (gens, ell)
                if ell > bound and ell % dk == 0:
                    assert got.representable, (gens, ell)


def bytearray_representable(ell, gens):
    """The suffix DP as one bytearray per suffix, scanned value by value:
    the reference for the bitset rows.  Returns (representable, witness)."""
    k = len(gens)
    suffix = [bytearray(ell + 1) for _ in range(k + 1)]
    suffix[k][0] = 1
    for i in range(k - 1, -1, -1):
        row = bytearray(suffix[i + 1])
        for v in range(gens[i], ell + 1):
            if row[v - gens[i]]:
                row[v] = 1
        suffix[i] = row
    if not suffix[0][ell]:
        return False, None
    witness, rest = [], ell
    for i, a in enumerate(gens):
        x = 0
        while not suffix[i + 1][rest - x * a]:
            x += 1
        witness.append(x)
        rest -= x * a
    return True, tuple(witness)


def test_bitset_rows_match_bytearray_reference():
    rng = random.Random(7)
    cases = [(1,), (7,), (2, 4), (5, 5, 5), (6, 10, 15), (3, 1000), (64, 1), (1, 1, 1, 1)]
    cases += [tuple(rng.sample(range(1, 40), rng.randint(1, 4))) for _ in range(40)]
    for gens in cases:
        for ell in list(range(0, 130)) + [255, 256, 257, 1023, 1024]:
            got = representable(RepresentabilityQuery(ell, gens))
            assert (got.representable, got.witness) == bytearray_representable(ell, gens), (gens, ell)


def test_smallest_valid_divisor():
    assert smallest_valid_divisor(12, 9, ORIENTED) == 4
    assert smallest_valid_divisor(6, 9, ORIENTED) == 6
    assert smallest_valid_divisor(6, 9, DIRECTED) == 2
    with pytest.raises(NoSuchDivisorError):
        smallest_valid_divisor(3, 9, ORIENTED)


def test_smallest_valid_divisor_properties():
    for k, ell in product(range(3, 41), range(3, 41)):
        if ell % k == 0:
            continue
        for mode, lowest in ((ORIENTED, 3), (DIRECTED, 2)):
            d = smallest_valid_divisor(k, ell, mode)
            assert k % d == 0 and ell % d != 0 and d >= lowest
            for smaller in range(lowest, d):
                assert not (k % smaller == 0 and ell % smaller != 0)


def test_predicted_examples():
    row = predicted_extremal(3, 4, 6)
    assert row.regime == EXACT and row.value == 8
    assert ceil_cubic_value(6) == 8

    row = predicted_extremal(5, 7, 20)
    assert row.regime == ASYMPTOTIC
    assert row.coefficient == Fraction(27, 16) / 5 ** 5
    assert row.value == pytest.approx(27 / 16 * (20 / 5) ** 5)

    row = predicted_extremal(5, 4, 30)
    assert row.regime == OPEN_INTERVAL and row.interval == (0.0517, 0.0567)


def test_ceil_cubic_value_is_exact_at_every_n():
    # ceil(m/3) = (m + 2) // 3; a float n / 3 loses the last digits of n
    # above 2**53, and these n gave a wrong product
    exact = [(n + 2) // 3 * ((n + 1) // 3) * (n // 3) for n in range(2001)]
    assert [ceil_cubic_value(n) for n in range(2001)] == exact
    assert ceil_cubic_value(10 ** 17 + 2) == 37037037037037039259259259259259303703703703703704
    rng = random.Random(5)
    for n in [3 * 2 ** 53 + 1] + [rng.randrange(10 ** 16, 2 * 10 ** 16) for _ in range(200)]:
        assert ceil_cubic_value(n) == (n + 2) // 3 * ((n + 1) // 3) * (n // 3), n


def test_predicted_small_k_table():
    assert predicted_extremal(3, 7, 9).coefficient == Fraction(1, 27)
    assert predicted_extremal(3, 6, 10).coefficient == Fraction(1, 4)
    assert predicted_extremal(3, 6, 10).exponent == 2
    assert predicted_extremal(3, 9, 10).regime == CONJECTURAL
    assert predicted_extremal(3, 9, 10).coefficient == Fraction(2, 4)
    assert predicted_extremal(4, 3, 8).coefficient == Fraction(1, 255)
    assert predicted_extremal(4, 7, 8).coefficient == Fraction(1, 256)
    assert predicted_extremal(5, 3, 8).coefficient == Fraction(1, 512)
    assert predicted_extremal(5, 8, 8).coefficient == Fraction(1, 3125)
    assert predicted_extremal(5, 13, 8).coefficient == Fraction(1, 3125)
    assert predicted_extremal(4, 8, 8).regime == ORDER_ONLY
    assert predicted_extremal(4, 8, 8).exponent == 3


def test_predicted_general_regimes():
    # blow-up regime: k = 6, ell = 50 >= 2*25, d = 3 (3 divides 6, not 50)
    row = predicted_extremal(6, 50, 12)
    assert row.regime == ASYMPTOTIC and row.d == 3
    assert row.coefficient == Fraction(1, 6 * 3 ** 5)
    # random bipartite regime: k = 6, odd huge ell divisible by 3
    ell = 3 * 401  # odd, > 33*36, 3 | ell, 6 does not divide it
    assert ell % 2 == 1 and ell > 33 * 36 and ell % 6 != 0
    row = predicted_extremal(6, ell, 12)
    assert row.regime == ASYMPTOTIC
    assert row.coefficient == Fraction(2, 6 * 4 ** 6)
    # d = 6 with odd ell below the bipartite threshold: no proven regime
    row = predicted_extremal(6, 57, 12)
    assert row.regime == ORDER_ONLY
    assert row.lower_bound_coefficient is not None


def test_predicted_directed_mode():
    row = predicted_extremal(4, 9, 24, DIRECTED)
    assert row.regime == ORDER_ONLY and row.d == 2
    assert row.lower_bound_coefficient == Fraction(1, 32)
    row = predicted_extremal(4, 21, 24, DIRECTED)
    assert row.regime == ASYMPTOTIC and row.d == 2
    assert row.coefficient == Fraction(1, 32)
    row = predicted_extremal(3, 6, 24, DIRECTED)
    assert row.regime == ORDER_ONLY and row.exponent == 2


def test_predicted_total_and_exclusive():
    regimes = {EXACT, ASYMPTOTIC, CONJECTURAL, OPEN_INTERVAL, ORDER_ONLY}
    for mode in (ORIENTED, DIRECTED):
        for k, ell in product(range(3, 41), range(3, 41)):
            if k == ell:
                continue
            row = predicted_extremal(k, ell, 100, mode)
            assert row.regime in regimes
            if row.regime in (EXACT, ASYMPTOTIC, CONJECTURAL):
                assert row.coefficient is not None
            if row.regime == OPEN_INTERVAL:
                assert row.interval is not None
            if row.regime == ORDER_ONLY:
                assert row.lower_bound_coefficient is not None


def test_predicted_invalid_parameters():
    with pytest.raises(InvalidParametersError):
        predicted_extremal(2, 5, 10)
    with pytest.raises(InvalidParametersError):
        predicted_extremal(4, 4, 10)


def test_predicted_rejects_negative_n():
    # n = -3 was reported as an exact extremal value of -1
    for n in (-3, -1):
        with pytest.raises(InvalidParametersError, match="n must be non-negative"):
            predicted_extremal(3, 4, n)
    assert predicted_extremal(3, 4, 0).value == 0


def test_predicted_json_round_trip():
    row = predicted_extremal(5, 7, 20)
    data = row.to_dict()
    assert data["coefficient"] == "27/50000"
    assert data["regime"] == "asymptotic"


def predicted_grid():
    """Each row of the table for both modes, k 3-15, ell 3-119 and four n,
    keyed "mode k ell n", or the class name of the error it raises."""
    rows = {}
    for mode, k, ell, n in product((ORIENTED, DIRECTED), range(3, 16), range(3, 120),
                                   (1, 7, 24, 100)):
        try:
            rows[f"{mode} {k} {ell} {n}"] = predicted_extremal(k, ell, n, mode)
        except NumTheoryError as exc:
            rows[f"{mode} {k} {ell} {n}"] = type(exc).__name__
    return rows


def test_predicted_table_is_pinned_on_the_grid():
    # the digest of the table once its rules were each written once and
    # the always-true hypotheses of the oriented k <= 5 default rows were dropped
    rows = {key: row if isinstance(row, str) else row.to_dict()
            for key, row in predicted_grid().items()}
    assert len(rows) == 12168
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "8fea15ddc04f1d32c4391fcb6c36f5b1d3f7ad4a1726bb8e3b9ce1d94d91bbc7"


def test_predicted_rows_with_a_coefficient_follow_one_rule():
    seen = set()
    for key, row in predicted_grid().items():
        if isinstance(row, str) or row.coefficient is None:
            continue
        n = int(key.split()[-1])
        assert row.lower_bound_coefficient == row.coefficient, key
        if row.regime == EXACT:
            assert row.value == ceil_cubic_value(n), key
        else:
            assert row.value == float(row.coefficient) * n ** row.exponent, key
        seen.add(row.regime)
    assert seen == {EXACT, ASYMPTOTIC, CONJECTURAL}
