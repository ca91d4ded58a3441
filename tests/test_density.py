"""Density evaluators, gradients, optimizers, and the threshold quadrature."""

import functools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicycles import density
from dicycles.constructions import (
    ConstructionId,
    c5c3_pattern,
    c5c7_pattern,
    c7_chords_pattern,
    closed_form_count,
    digon_pattern,
    seven_cycle_with_chords,
    threshold_c7_pattern,
)
from dicycles.density import (
    DensityError,
    WeightsOffSimplexError,
    _project,
    _threshold_kernels,
    density_model,
    hub_split_model,
    mc_threshold_density,
    optimize_threshold,
    optimize_weights,
    threshold_density,
)
from dicycles.graphs import (
    DIRECTED,
    THRESHOLD,
    ArcRule,
    BlobInternal,
    PatternError,
    PatternSpec,
    directed_cycle,
    new_graph,
    uniform_pattern,
)
from dicycles.pattern_walks import (
    AGAINST,
    ALONG,
    CROSS,
    STAY,
    CompiledMonomials,
    closed_walks,
    density_monomials,
    evaluate_monomials,
    pattern_cycle_count,
    step_table,
)

NAMED_PATTERNS = {
    "c5c3": c5c3_pattern(),
    "c5c7": c5c7_pattern(),
    "c5c7_opposite": c5c7_pattern("opposite"),
    "c7_chords": c7_chords_pattern(),
    "digon": digon_pattern(),
    # the hub triangle of the sparse families, with weight on its hub
    "hub_1/5": PatternSpec(directed_cycle(3), (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)),
                           tuple(BlobInternal() for _ in range(3))),
    **{f"cycle_{d}": uniform_pattern(directed_cycle(d)) for d in range(3, 7)},
}


def reference_evaluate(monos, weights):
    """Per-term Fraction evaluation: the oracle for the integer evaluator."""
    total = Fraction(0)
    for expo, coeff in monos.items():
        term = coeff
        for w, e in zip(weights, expo):
            if e:
                term *= Fraction(w) ** e
        total += term
    return total


def reference_gradient(monos, weights):
    p = len(next(iter(monos))) if monos else len(weights)
    grad = [Fraction(0)] * p
    ws = [Fraction(w) for w in weights]
    for expo, coeff in monos.items():
        for b in range(p):
            e = expo[b]
            if not e:
                continue
            term = coeff * e
            for j in range(p):
                ej = expo[j] - (1 if j == b else 0)
                if ej:
                    term *= ws[j] ** ej
            grad[b] += term
    return grad


def _evaluator_models():
    models = [(f"hub:{t}", hub_split_model(t).monomials) for t in range(2, 6)]
    # mixed degrees and signs exercise the padding of lower-degree terms
    models.append(("mixed", {(0, 0, 0): Fraction(5), (1, 0, 2): Fraction(3, 7),
                             (2, 1, 1): Fraction(-1, 2), (0, 1, 0): Fraction(2)}))
    models += [(f"{name} k={k}", density_monomials(pattern, k))
               for name, pattern in sorted(NAMED_PATTERNS.items()) for k in range(2, 8)]
    return models


def _random_simplex_points(rng, p):
    """Fraction and float points, some with zero weights."""
    points = []
    for zeros in (0, 0, 1, p - 1):
        draws = [rng.random() + 0.01 for _ in range(p)]
        for i in rng.sample(range(p), zeros):
            draws[i] = 0.0
        total = sum(draws)
        floats = [x / total for x in draws]
        fracs = [Fraction(x).limit_denominator(rng.choice((7, 1000, 10 ** 9))) for x in floats]
        fracs[fracs.index(max(fracs))] += 1 - sum(fracs)
        points += [floats, fracs]
    return points


def compiled_gradient(poly, w):
    """The gradient at w, read from w's power table, as numerators over one
    denominator; the zero polynomial has no blobs, so its gradient is zero."""
    if not poly.p:
        return [0] * len(w), 1
    return poly.gradient_at(poly.powers(w))


def exact_gradient(monos, w):
    nums, den = compiled_gradient(CompiledMonomials(monos), w)
    return [Fraction(g, den) for g in nums]


def test_integer_evaluator_matches_fraction_oracle():
    rng = random.Random(20261018)
    for name, monos in _evaluator_models():
        p = len(next(iter(monos))) if monos else 2
        for w in _random_simplex_points(rng, p) + [[Fraction(1, p)] * p]:
            assert evaluate_monomials(monos, w) == reference_evaluate(monos, w), name
            assert exact_gradient(monos, w) == reference_gradient(monos, w), name


def test_integer_division_is_float_of_fraction_bit_for_bit():
    # the optimizer divides the integer numerator by the denominator; that
    # must be float() of the exact value, so its results stay byte-identical
    rng = random.Random(53)
    for name, monos in _evaluator_models():
        if not monos:
            continue
        p = len(next(iter(monos)))
        for w in _random_simplex_points(rng, p):
            num, den = CompiledMonomials(monos).ratio(w)
            assert (num / den).hex() == float(reference_evaluate(monos, w)).hex(), name
            nums, den = compiled_gradient(CompiledMonomials(monos), w)
            assert [(g / den).hex() for g in nums] == \
                [float(g).hex() for g in reference_gradient(monos, w)], name


def test_compiled_evaluator_matches_fraction_oracle_at_every_point():
    # one compilation serves every evaluation, as in the optimizer
    rng = random.Random(20261019)
    for name, monos in _evaluator_models():
        p = len(next(iter(monos))) if monos else 2
        poly = CompiledMonomials(monos)
        for w in _random_simplex_points(rng, p) + [[Fraction(1, p)] * p, [1.0] + [0.0] * (p - 1)]:
            exact = reference_evaluate(monos, w)
            num, den = poly.ratio(w)
            assert Fraction(num, den) == exact, name
            assert (num / den).hex() == float(exact).hex(), name
            exact_grad = reference_gradient(monos, w)
            nums, den = compiled_gradient(poly, w)
            assert [Fraction(g, den) for g in nums] == exact_grad, name
            assert [(g / den).hex() for g in nums] == [float(g).hex() for g in exact_grad], name


WRONG_COUNTS = [(Fraction(1, 4),) * 4, (0.5, 0.5), (), [0.2] * 5]


@pytest.mark.parametrize("weights", WRONG_COUNTS)
def test_evaluator_rejects_a_wrong_weight_count(weights):
    # 4 weights read as 1/27 and 2 ran off the end of the weight list
    monos = density_monomials(uniform_pattern(directed_cycle(3)), 3)
    poly = CompiledMonomials(monos)
    for evaluate in (lambda: evaluate_monomials(monos, weights), lambda: poly.ratio(weights),
                     lambda: poly.powers(weights)):
        message = f"^{len(weights)} weights given for a polynomial in 3 blobs$"
        with pytest.raises(PatternError, match=message):
            evaluate()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_evaluator_rejects_a_weight_that_is_not_finite(bad):
    monos = density_monomials(uniform_pattern(directed_cycle(3)), 3)
    with pytest.raises(PatternError, match="is not a finite number"):
        evaluate_monomials(monos, (0.5, bad, 0.5))


def test_zero_polynomial_takes_any_weight_count():
    for weights in ((), (0.5, 0.5), (Fraction(1, 3),) * 3):
        assert evaluate_monomials({}, weights) == 0


@functools.lru_cache(maxsize=1)
def _compiled_models():
    return [(name, monos, CompiledMonomials(monos)) for name, monos in _evaluator_models() if monos]


def _weights(p):
    floats = st.floats(min_value=-2.0, max_value=2.0, allow_subnormal=True)
    return st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
                              floats, floats.map(np.float64), st.integers(-3, 3),
                              st.fractions(-2, 2, max_denominator=10 ** 6)),
                    min_size=p, max_size=p)


@settings(max_examples=300)
@given(st.data())
def test_power_table_matches_fraction_oracle(data):
    # subnormal weights make D = 2^1074; the mixed model pads lower degrees with D
    name, monos, poly = data.draw(st.sampled_from(_compiled_models()))
    w = data.draw(_weights(poly.p))
    table = poly.powers(w)
    num, den = poly.value_at(table)
    exact = reference_evaluate(monos, w)
    assert Fraction(num, den) == exact, name
    assert (num / den).hex() == float(exact).hex(), name
    nums, den = poly.gradient_at(table)
    exact_grad = reference_gradient(monos, w)
    assert [Fraction(g, den) for g in nums] == exact_grad, name
    assert [(g / den).hex() for g in nums] == [float(g).hex() for g in exact_grad], name


def numpy_project_simplex(v):
    """The sort-based projection as numpy operations: the reference for
    the Python-float projection."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / (np.arange(len(v)) + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _projection_inputs():
    rng = random.Random(1019)
    vectors = [[0.3], [-2.5], [1.0], [0.0], [-0.0, 1.0], [0.5, 0.5], [0.0, 0.0, 0.0],
               [-1.0, -1.0, -1.0], [-3.0, -0.5, -7.25, -0.5], [2.0, 2.0, -1.0, 2.0],
               [1.0, 0.0, -0.0, 0.0], [0.9, 0.1, -1e-17, 1e-17]]
    for _ in range(600):
        p = rng.randint(1, 8)
        kind = rng.randrange(5)
        if kind == 0:  # near the simplex, as the ascent's candidates are
            v = [rng.random() for _ in range(p)]
            v = [x / sum(v) + rng.gauss(0, 0.05) for x in v]
        elif kind == 1:  # all negative
            v = [-rng.expovariate(1.0) for _ in range(p)]
        elif kind == 2:  # ties
            pool = [rng.uniform(-1, 2) for _ in range(2)]
            v = [rng.choice(pool) for _ in range(p)]
        elif kind == 3:  # one large entry: the rest clip to zero
            v = [rng.uniform(-0.5, 0.5) for _ in range(p)]
            v[rng.randrange(p)] = rng.uniform(2, 50)
        else:
            v = [rng.gauss(0, 3) for _ in range(p)]
        vectors.append(v)
    return vectors


def test_float_projection_matches_numpy_bit_for_bit():
    vectors = _projection_inputs()
    assert len(vectors) >= 500
    clipped = 0
    for v in vectors:
        expected = [x.hex() for x in numpy_project_simplex(np.array(v)).tolist()]
        assert [x.hex() for x in _project(v)] == expected, v
        clipped += "0x0.0p+0" in expected
    # hex strings also tell -0.0 from +0.0
    assert clipped > 100


def test_projection_when_the_largest_entry_swamps_one():
    # u + (1 - u) rounds to 0 at these sizes, so no index passes the test;
    # the projection is that of v - max(v)
    assert _project([1e20, 0.0]) == [1.0, 0.0]
    assert _project([1e17, 1e17]) == [0.5, 0.5]
    assert _project([0.0, 3e19, -1.0, 3e19]) == [0.0, 0.5, 0.0, 0.5]
    # a start that far out is projected onto the vertex it points at
    model = density_model(c5c3_pattern(), 5)
    p = len(next(iter(model.monomials)))
    assert (optimize_weights(model, [[1e20] + [0.0] * (p - 1)])
            == optimize_weights(model, [[1.0] + [0.0] * (p - 1)]))
    for v in ([math.inf, 0.0], [math.nan, 1.0]):
        with pytest.raises(DensityError, match="cannot project"):
            _project(v)


def test_ascent_evaluates_the_gradient_once_per_point(monkeypatch):
    model = density_model(c5c3_pattern(), 5)
    expected = optimize_weights(model)
    events, tables, inside = [], [], [False]
    ascend, project = density._ascend, density._project
    powers, value_at, gradient_at = (CompiledMonomials.powers, CompiledMonomials.value_at,
                                     CompiledMonomials.gradient_at)

    def spy_ascend(poly, w):
        events.append(("start", None))
        inside[0] = True
        try:
            return ascend(poly, w)
        finally:
            inside[0] = False

    def spy_project(v):
        w = project(v)
        if inside[0]:
            events.append(("candidate", tuple(w)))
        return w

    def spy_powers(self, weights):
        table = powers(self, weights)
        tables.append((table, tuple(weights)))  # kept, so no id is reused
        if inside[0]:
            events.append(("table", None))
        return table

    def point(table):
        return next(w for t, w in tables if t is table)

    def spy_value(self, table):
        num, den = value_at(self, table)
        if inside[0]:
            events.append(("value", (point(table), num / den)))
        return num, den

    def spy_gradient(self, table):
        events.append(("gradient", point(table)))
        return gradient_at(self, table)

    monkeypatch.setattr(density, "_ascend", spy_ascend)
    monkeypatch.setattr(density, "_project", spy_project)
    monkeypatch.setattr(CompiledMonomials, "powers", spy_powers)
    monkeypatch.setattr(CompiledMonomials, "value_at", spy_value)
    monkeypatch.setattr(CompiledMonomials, "gradient_at", spy_gradient)
    assert optimize_weights(model) == expected
    # replay each ascent: a candidate is accepted iff it beats the current value
    points = gradients = evaluated = skipped = built = 0
    for kind, data in events:
        if kind == "table":
            built += 1
        elif kind == "start":
            current = value = rejected = None
            has_gradient = False
        elif kind == "candidate":
            skipped += data == rejected
        elif kind == "value":
            w, v = data
            assert w != rejected, "a candidate equal to the last rejected one was evaluated"
            if current is None or v > value:
                current, value, has_gradient = w, v, False
                points += 1
            else:
                rejected = w
                evaluated += 1
        else:
            # at the current accepted point, once, and never at a rejected candidate
            assert data == current and not has_gradient
            has_gradient = True
            gradients += 1
    assert gradients == points >= 11
    assert evaluated > 0 and skipped > 100
    # one table per evaluated point: the gradient reads the table of its point
    assert built == points + evaluated


# optimize_weights results of every `dicycles optimize` polynomial pattern
# (cycle:d at k = d) and of the benchmark's one-start C3 call, as the
# per-term Fraction evaluator gave them: (weights, value, weights_rational,
# value_rational)
PINNED_OPTIMA = {
    "c5c7": ((0.2999999991107352, 0.2999999991107352, 0.20000000088926484, 0.20000000088926484),
             0.0005400000000000003, ("3/10", "3/10", "1/5", "1/5"), "27/50000"),
    "c5c3": ((0.24999999820161112, 0.2500000013941498, 0.24999999835262982, 0.2500000020516095),
             0.001953125000000002, ("1/4", "1/4", "1/4", "1/4"), "1/512"),
    "cycle:3": ((0.3333333304111112, 0.3333333391778419, 0.3333333304110471),
                0.037037037037037056, ("1/3", "1/3", "1/3"), "1/27"),
    "cycle:4": ((0.2499999967767168, 0.25000000263361666, 0.24999999712984344, 0.2500000034598233),
                0.003906250000000003, ("1/4", "1/4", "1/4", "1/4"), "1/256"),
    "cycle:5": ((0.19999999826514633, 0.20000000045646169, 0.20000000039530144,
                 0.20000000043820323, 0.2000000004448875),
                0.0003200000000000003, ("1/5",) * 5, "1/3125"),
    "cycle:6": ((0.1666666663322847, 0.1666666663298181, 0.1666666663230086,
                 0.16666666620444764, 0.16666666848424888, 0.1666666663261923),
                2.1433470507544607e-05, ("1/6",) * 6, "1/46656"),
    "hub:2": ((0.4999999943709478, 0.5000000056290523), 0.25, ("1/2", "1/2"), "1/4"),
    "hub:3": ((0.49999999415908003, 0.5000000058409202), 0.5000000000000001,
              ("1/2", "1/2"), "1/2"),
    "cross": ((0.33333333585761976, 0.33333333223682127, 0.33333333190555914),
              0.037037037037037056, ("1/3", "1/3", "1/3"), "1/27"),
}


def _pinned_model(name):
    if name == "c5c7":
        return density_model(c5c7_pattern(), 5), None
    if name == "c5c3":
        return density_model(c5c3_pattern(), 5), None
    if name.startswith("hub:"):
        return hub_split_model(int(name[4:])), None
    if name == "cross":
        return density_model(uniform_pattern(directed_cycle(3)), 3), [[0.5, 0.3, 0.2]]
    d = int(name[6:])
    return density_model(uniform_pattern(directed_cycle(d)), d), None


@pytest.mark.parametrize("name", sorted(PINNED_OPTIMA))
def test_optimize_weights_pinned(name):
    model, inits = _pinned_model(name)
    result = optimize_weights(model, inits)
    weights, value, weights_rational, value_rational = PINNED_OPTIMA[name]
    assert [w.hex() for w in result.weights] == [w.hex() for w in weights]
    assert result.value.hex() == value.hex()
    assert result.weights_rational == tuple(Fraction(w) for w in weights_rational)
    assert result.value_rational == Fraction(value_rational)


# further optimize_weights results, compared by .hex(), as the per-base
# power table gave them: (weights, value, value_rational)
HEX_OPTIMA = {
    "c7_chords k=5": (("0x1.249248c983889p-3", "0x1.24924948c4996p-3", "0x1.249249a4302a6p-3",
                       "0x1.2492499cf194ep-3", "0x1.249249484238cp-3", "0x1.249248c37a3f0p-3",
                       "0x1.249248a0d9a79p-3"),
                      "0x1.b4b985cf97f02p-12", "1/2401"),
    "c7_chords k=6": (("0x0.0p+0", "0x1.1bf20b4dfd258p-29", "0x1.5555555ba612cp-2",
                       "0x1.1bf20b4dfd258p-29", "0x0.0p+0", "0x1.5555552eaeb57p-2",
                       "0x1.5555552eaeb57p-2"),
                      "0x1.67980e0bf08d6p-11", "1/1458"),
    "digon k=4": (("0x1.ffffffb21d91cp-2", "0x1.00000026f1374p-1"),
                  "0x1.0000000000003p-5", "1/32"),
    "cycle_7 k=7": (("0x1.249249155646ap-3", "0x1.24924913affa3p-3", "0x1.2492491557dc2p-3",
                     "0x1.24924952c1cf4p-3", "0x1.24924913af7a7p-3", "0x1.24924945df473p-3",
                     "0x1.249249155152cp-3"),
                    "0x1.45f3b3bb082a4p-20", "1/823543"),
    "cycle_3 k=6": (("0x1.55555525afcb9p-2", "0x1.5555552905dcep-2", "0x1.555555b14a57cp-2"),
                    "0x1.67980e0bf08cbp-11", "1/1458"),
    "hub:4": (("0x1.ffffffaa18a30p-2", "0x1.0000002af3ae9p-1"),
              "0x1.8000000000001p-1", "3/4"),
    "hub:5": (("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
              "0x1.0000000000000p+0", "1"),
    "hub:6": (("0x1.ffffffc5d6052p-2", "0x1.0000001d14fd8p-1"),
              "0x1.4000000000001p+0", "5/4"),
}

# one start each, drawn by _random_starts, over these models in turn
RANDOM_START_MODELS = ("c5c7 k=5", "c5c3 k=5", "c7_chords k=5", "digon k=4", "cycle_7 k=7")
RANDOM_START_OPTIMA = [
    (("0x1.3333332f39544p-2", "0x1.3333333733ea3p-2", "0x1.99999974fa8b4p-3", "0x1.999999be2af84p-3"),
     "0x1.1b1d92b7fe08fp-11", "27/50000"),
    (("0x1.ffffffefe1582p-3", "0x1.00000002a6419p-2", "0x1.00000002b98a1p-2", "0x1.00000002af888p-2"),
     "0x1.0000000000004p-9", "1/512"),
    (("0x1.2492493ce3cbep-3", "0x1.249248bce4601p-3", "0x1.2492494fc18f0p-3", "0x1.2492492221a5dp-3",
      "0x1.24924951cf7ffp-3", "0x1.2492495a939f1p-3", "0x1.249248e7f180dp-3"),
     "0x1.b4b985cf97f04p-12", "1/2401"),
    (("0x1.fffffff3bc336p-2", "0x1.0000000621e66p-1"),
     "0x1.0000000000002p-5", "1/32"),
    (("0x1.827a053702fd4p-4", "0x1.2492492492492p-54", "0x1.e6776e11f9350p-2", "0x1.2492492492492p-54",
      "0x1.2492492492492p-54", "0x1.b6f6626e901a4p-7", "0x1.ab325d8cd18aep-2"),
     "0x1.8819be1460819p-174", "0"),
    (("0x1.33333334e0660p-2", "0x1.3333333188410p-2", "0x1.999999a158be0p-3", "0x1.99999991d5f46p-3"),
     "0x1.1b1d92b7fe08fp-11", "27/50000"),
    (("0x1.ffffffe1a5c10p-3", "0x1.ffffffe8966fep-3", "0x1.ffffffe1a5c12p-3", "0x1.0000002a0f073p-2"),
     "0x1.0000000000003p-9", "1/512"),
    (("0x1.2492491beae4ep-3", "0x1.24924981909c1p-3", "0x1.2492496e2f95fp-3", "0x1.249249618076bp-3",
      "0x1.249248e9fbfbbp-3", "0x1.249248ce499d9p-3", "0x1.249248da8ed99p-3"),
     "0x1.b4b985cf97f02p-12", "1/2401"),
    (("0x1.00000011de6bap-1", "0x1.ffffffdc4328ep-2"),
     "0x1.0000000000002p-5", "1/32"),
    (("0x1.37f87776c2d73p-2", "0x0.0p+0", "0x1.2c93b7f3435a3p-2", "0x1.3cc167d81a650p-6",
      "0x1.44c1b7a85969ep-3", "0x1.ca8dbc8896e6ep-3", "0x0.0p+0"),
     "0x0.0p+0", "0"),
]


def _hex_model(name):
    if name.startswith("hub:"):
        return hub_split_model(int(name[4:]))
    pattern, k = name.split(" k=")
    spec = NAMED_PATTERNS.get(pattern) or uniform_pattern(directed_cycle(int(pattern[6:])))
    return density_model(spec, int(k))


def _random_starts():
    rng = random.Random(2028)
    starts = []
    for i in range(len(RANDOM_START_OPTIMA)):
        model = _hex_model(RANDOM_START_MODELS[i % len(RANDOM_START_MODELS)])
        starts.append((model, [rng.random() for _ in range(model.p)]))
    return starts


def assert_hex_result(result, pinned):
    weights, value, value_rational = pinned
    assert [w.hex() for w in result.weights] == list(weights)
    assert result.value.hex() == value
    assert result.value_rational == Fraction(value_rational)


@pytest.mark.parametrize("name", sorted(HEX_OPTIMA))
def test_optimize_weights_pinned_by_hex(name):
    assert_hex_result(optimize_weights(_hex_model(name)), HEX_OPTIMA[name])


def test_optimize_weights_from_random_starts_pinned_by_hex():
    for (model, start), pinned in zip(_random_starts(), RANDOM_START_OPTIMA):
        assert_hex_result(optimize_weights(model, [start]), pinned)


# threshold_density(c, k, resolution) by .hex() at resolutions 16 and 128
THRESHOLD_HEX = {
    (0.3, 3): ("0x1.f8e50aa870035p-7", "0x1.f8e50aa870033p-7"),
    (0.3, 4): ("0x1.e50718fa55e6bp-25", "0x1.a9593e97d0182p-27"),
    (0.3, 5): ("0x1.70cc4f84f7ce4p-12", "0x1.7019987d31fd1p-12"),
    (0.3, 6): ("0x1.947d5363a3c85p-14", "0x1.9475625010d28p-14"),
    (0.3, 7): ("0x1.f06b704ef5050p-19", "0x1.ed1702625eedbp-19"),
    (0.5, 3): ("0x1.2492492492492p-6", "0x1.2492492492492p-6"),
    (0.5, 4): ("0x1.7e225515a4f1bp-27", "0x1.7e225515a4f1bp-36"),
    (0.5, 5): ("0x1.b1af9b593e28bp-12", "0x1.b15190e64dd53p-12"),
    (0.5, 6): ("0x1.f8f682c26d9e5p-14", "0x1.f8f682b807c24p-14"),
    (0.5, 7): ("0x1.14163932d9c8dp-18", "0x1.132dfa565351ep-18"),
    (0.67757, 3): ("0x1.3cfc9b7c57843p-6", "0x1.3cfc9b7c57843p-6"),
    (0.67757, 4): ("0x1.fc1d04825d920p-28", "0x1.1ce48833b6fd0p-36"),
    (0.67757, 5): ("0x1.c43a5b8b42e88p-12", "0x1.c3fbc562e8d1ep-12"),
    (0.67757, 6): ("0x1.1e81f9cb711bcp-13", "0x1.1e81f9c756977p-13"),
    (0.67757, 7): ("0x1.ee20f2f036229p-19", "0x1.ecf1660d38bf0p-19"),
    (0.75, 3): ("0x1.43eb1a1f58d0dp-6", "0x1.43eb1a1f58d0dp-6"),
    (0.75, 4): ("0x1.7e225515a4f1bp-28", "0x1.7e225515a4f1bp-37"),
    (0.75, 5): ("0x1.c23815530f086p-12", "0x1.c20524ff77855p-12"),
    (0.75, 6): ("0x1.28881c66f2419p-13", "0x1.28881c6458ca9p-13"),
    (0.75, 7): ("0x1.bd2625bf2baa2p-19", "0x1.bc33a42e06f8bp-19"),
    (1.0, 3): ("0x1.4e5e0a72f0538p-6", "0x1.4e5e0a72f0538p-6"),
    (1.0, 4): ("0x0.0p+0", "0x0.0p+0"),
    (1.0, 5): ("0x1.b4b985cf97efap-12", "0x1.b4b985cf97efap-12"),
    (1.0, 6): ("0x1.37f23b01fecfdp-13", "0x1.37f23b01fecfdp-13"),
    (1.0, 7): ("0x1.45f3b3bb08298p-19", "0x1.45f3b3bb08298p-19"),
}


@pytest.mark.parametrize("c", sorted({c for c, _ in THRESHOLD_HEX}))
def test_threshold_density_pinned_by_hex(c):
    for k in range(3, 8):
        got = tuple(threshold_density(c, k=k, resolution=n).hex() for n in (16, 128))
        assert got == THRESHOLD_HEX[c, k], k


def test_exact_density_values():
    model = density_model(uniform_pattern(directed_cycle(5)), 5)
    assert model.value([Fraction(1, 5)] * 5) == Fraction(1, 5) ** 5

    model = density_model(c5c7_pattern(), 5)
    w = (Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5))
    assert model.value(w) == Fraction(27, 50000)

    model = density_model(c5c3_pattern(), 5)
    assert model.value([Fraction(1, 4)] * 4) == Fraction(1, 512)

    model = density_model(c7_chords_pattern(), 5)
    assert model.value([Fraction(1, 7)] * 7) == Fraction(7, 7 ** 5)


def test_weights_off_simplex_rejected():
    model = density_model(uniform_pattern(directed_cycle(3)), 3)
    with pytest.raises(WeightsOffSimplexError):
        model.value([0.5, 0.5, 0.5])
    with pytest.raises(WeightsOffSimplexError):
        model.value([1.5, -0.25, -0.25])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weights_that_are_not_finite_are_rejected(bad):
    # a NaN weight passed both the sign and the sum test, and the density
    # came out nan
    with pytest.raises(WeightsOffSimplexError, match="not finite"):
        threshold_density(0.7, resolution=16, pattern=threshold_c7_pattern(0.7),
                          weights=(bad,) + (1 / 6,) * 6)
    with pytest.raises(WeightsOffSimplexError, match="not finite"):
        density_model(uniform_pattern(directed_cycle(3)), 3).value([bad, 0.5, 0.5])


# each entry took a weight vector of the wrong length: zip dropped the
# seventh blob (0.00488 against 0.000431), the missing weights read as
# zero, or an index ran off the end
WRONG_WEIGHT_COUNTS = {
    "threshold_density": lambda: threshold_density(0.7, resolution=64, pattern=threshold_c7_pattern(0.7),
                                                   weights=(Fraction(1, 6),) * 6),
    "value_long": lambda: density_model(uniform_pattern(directed_cycle(3)), 3).value((0.5, 0.5, 0, 0)),
    "value_short": lambda: density_model(uniform_pattern(directed_cycle(3)), 3).value((0.5, 0.5)),
    "optimize_weights": lambda: optimize_weights(density_model(uniform_pattern(directed_cycle(3)), 3),
                                                 [[1 / 3] * 3, [0.5, 0.5]]),
    # a model with no monomial has nothing to read the blob count from
    "zero_model_short": lambda: transitive_triangle_model().value((1,)),
    "zero_model_long": lambda: transitive_triangle_model().value((0.5, 0.5, 0, 0, 0)),
}


def transitive_triangle_model():
    # the blow-up of a transitive triangle has no directed triangle
    return density_model(uniform_pattern(new_graph(3, [(0, 1), (1, 2), (0, 2)])), 3)


@pytest.mark.parametrize("name", sorted(WRONG_WEIGHT_COUNTS))
def test_weight_count_must_match_the_blobs(name):
    with pytest.raises(WeightsOffSimplexError, match="weights given for"):
        WRONG_WEIGHT_COUNTS[name]()


def test_zero_model_is_zero_on_its_simplex():
    model = transitive_triangle_model()
    assert model.p == 3 and not any(model.monomials.values())
    assert model.value((Fraction(1, 3),) * 3) == 0
    assert hub_split_model(3).p == 2


def test_density_invariant_under_base_automorphism():
    rng = random.Random(8)
    for pattern, k in ((uniform_pattern(directed_cycle(4)), 4),
                       (c7_chords_pattern(), 5)):
        model = density_model(pattern, k)
        p = pattern.p
        draws = [rng.random() + 0.05 for _ in range(p)]
        total = sum(draws)
        w = [Fraction(x / total).limit_denominator(10 ** 6) for x in draws]
        w[0] += 1 - sum(w)
        rotated = w[1:] + w[:1]  # rotation is an automorphism of both bases
        assert model.value(w) == model.value(rotated)


def test_finite_counts_approach_density():
    cases = [
        (ConstructionId("balanced_cycle_blowup", d=4),
         uniform_pattern(directed_cycle(4)), [Fraction(1, 4)] * 4, 4),
        (ConstructionId("c5c3_tournament_blobs"), c5c3_pattern(),
         [Fraction(1, 4)] * 4, 5),
        (ConstructionId("c5c7_bipartite_blobs"), c5c7_pattern(),
         (Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5)), 5),
    ]
    for cid, pattern, weights, k in cases:
        model = density_model(pattern, k)
        dens = float(model.value(weights))
        errors = {}
        for n in (40, 80, 160):
            count = closed_form_count(cid, n, k)
            errors[n] = abs(count / n ** k - dens)
        fitted = errors[40] * 40 * 1.5 + 1e-12
        assert errors[80] <= fitted / 80
        assert errors[160] <= fitted / 160


@pytest.mark.parametrize("name", sorted(NAMED_PATTERNS))
def test_finite_counts_are_a_polynomial_led_by_the_density(name):
    # with sizes w * N the exact count is a degree-k polynomial in N, so its
    # k-th divided difference is the leading coefficient: the limit density.
    # N runs over multiples of a denominator that makes every size and every
    # bipartite first part (split * size) an integer.
    pattern = NAMED_PATTERNS[name]
    w = pattern.blob_weights
    denom = math.lcm(*(x.denominator for x in w),
                     *((x * b.split).denominator
                       for x, b in zip(w, pattern.blob_internal) if b.split is not None))
    for k in range(2, 8):
        counts = [pattern_cycle_count(pattern, tuple(int(x * denom * j) for x in w), k)
                  for j in range(1, k + 2)]
        diff = sum((-1) ** (k - i) * math.comb(k, i) * counts[i] for i in range(k + 1))
        leading = Fraction(diff, math.factorial(k) * denom ** k)
        assert leading == evaluate_monomials(density_monomials(pattern, k), w), k


def test_threshold_pattern_has_no_polynomial_model():
    with pytest.raises(PatternError):
        density_model(threshold_c7_pattern(0.7), 5)


def test_gradient_matches_finite_differences():
    rng = random.Random(77)
    for pattern, k in ((uniform_pattern(directed_cycle(4)), 4),
                       (c5c7_pattern(), 5), (c5c3_pattern(), 5)):
        model = density_model(pattern, k)
        p = pattern.p
        for _ in range(34):
            draws = np.array([rng.random() + 0.05 for _ in range(p)])
            w = draws / draws.sum()
            grad = np.array([float(x) for x in exact_gradient(model.monomials, w)])
            h = 1e-6
            for i in range(p - 1):
                # tangent direction keeping the simplex constraint
                e = np.zeros(p)
                e[i], e[-1] = 1.0, -1.0
                up = evaluate_monomials(model.monomials, w + h * e)
                down = evaluate_monomials(model.monomials, w - h * e)
                numeric = (float(up) - float(down)) / (2 * h)
                analytic = grad[i] - grad[-1]
                scale = max(abs(numeric), abs(analytic), 1e-9)
                assert abs(numeric - analytic) / scale < 1e-5


def test_project_simplex_properties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = rng.normal(size=rng.integers(2, 8))
        w = _project(v.tolist())
        assert w == numpy_project_simplex(v).tolist()
        assert min(w) >= 0 and abs(sum(w) - 1) < 1e-12
        assert np.allclose(_project(w), w)


def test_optimize_weights_balanced_cycles():
    for d in (3, 4, 5, 6):
        model = density_model(uniform_pattern(directed_cycle(d)), d)
        result = optimize_weights(model)
        assert max(abs(w - 1 / d) for w in result.weights) < 1e-6
        assert result.value == pytest.approx((1 / d) ** d, rel=1e-9)


def test_optimize_weights_c5c7():
    result = optimize_weights(density_model(c5c7_pattern(), 5))
    target = (0.3, 0.3, 0.2, 0.2)
    assert max(abs(w - t) for w, t in zip(result.weights, target)) < 1e-3
    assert abs(result.value - 27 / 50000) < 1e-5
    assert result.value_rational == Fraction(27, 50000)


def test_optimize_weights_hub_model():
    result = optimize_weights(hub_split_model(3))
    assert max(abs(w - 0.5) for w in result.weights) < 1e-6
    assert result.value == pytest.approx(0.5, abs=1e-9)
    result = optimize_weights(hub_split_model(2))
    assert result.value == pytest.approx(0.25, abs=1e-9)


def test_threshold_degenerate_endpoint_matches_one_directional():
    # at c = 1 every threshold arc points fully forward
    quad = threshold_density(1.0, resolution=256)
    assert quad == pytest.approx(1 / 2401, rel=1e-9)


def test_threshold_quadrature_resolution_convergence():
    d256 = threshold_density(0.67757, resolution=256)
    d512 = threshold_density(0.67757, resolution=512)
    assert abs(d256 - d512) / d512 < 2e-4


def test_threshold_monte_carlo_agrees():
    quad = threshold_density(0.67757, resolution=256)
    mc, se = mc_threshold_density(0.67757, 400_000, seed=99)
    assert abs(mc - quad) <= 3 * se
    assert (mc, se) == (0.000427, 1.4596032937068895e-05)


def _all_threshold_pattern(c):
    base = seven_cycle_with_chords()
    return uniform_pattern(base, arc_rule={arc: ArcRule("threshold", c) for arc in base.arcs})


# mc_threshold_density outputs as the clamped test min(x + c, 1) >= y gave
# them: (c, seed, k, all-threshold pattern) -> (estimate, standard error)
PINNED_MONTE_CARLO = {
    (0.0, 7, 5, False): (0.000272, 3.29624076790516e-05),
    (0.3, 7, 5, False): (0.00035999999999999997, 3.791316394077392e-05),
    (0.9, 7, 5, False): (0.00041999999999999996, 4.094474325233949e-05),
    (1.0, 7, 5, False): (0.00040800000000000005, 4.0356792736787195e-05),
    (0.0, 3, 4, True): (0.0, 1.1180339887498948e-153),
    (0.3, 3, 4, True): (5e-05, 1.5809807082946963e-05),
    (0.9, 3, 4, True): (2e-05, 9.99959999199968e-06),
    (1.0, 3, 4, True): (0.0, 1.1180339887498948e-153),
}


@pytest.mark.parametrize("key", sorted(PINNED_MONTE_CARLO))
def test_monte_carlo_estimates_are_pinned(key):
    # the rule y - x <= c needs no clamp at 1 for coordinates in [0, 1],
    # so the unclamped test gives the clamped test's estimates bit for bit
    c, seed, k, all_threshold = key
    pattern = _all_threshold_pattern(c) if all_threshold else None
    assert mc_threshold_density(c, 50_000, seed=seed, k=k, pattern=pattern) == PINNED_MONTE_CARLO[key]


def test_threshold_all_arcs_variant_evaluates():
    pattern = _all_threshold_pattern(0.7)
    dens = threshold_density(0.7, resolution=128, pattern=pattern)
    mc, se = mc_threshold_density(0.7, 300_000, seed=5, pattern=pattern)
    assert abs(mc - dens) <= 3.5 * se
    assert (mc, se) == (0.00042466666666666667, 1.680803295605562e-05)


def test_optimize_threshold_fast_resolution():
    result = optimize_threshold(resolution=256)
    assert abs(result.c_star - 0.67757) <= 5e-3
    assert 0.0516 <= result.density_per_choose <= 0.0567
    assert result.density == pytest.approx(result.density_per_choose / 120)


def test_optimize_threshold_range_validation():
    with pytest.raises(ValueError):
        optimize_threshold(c_range=(0.9, 0.2))


def dense_threshold_reference(c, k, resolution, pattern):
    """tr(T^k) / (k N^k) over the blob-by-cell transfer matrix T, whose
    (a, b) block is w_b times the step kernel, with the full-arc kernel
    materialized as the all-ones matrix."""
    n = resolution
    kernels = _threshold_kernels(c, n)
    w = [float(x) for x in pattern.blob_weights]
    t = np.zeros((pattern.p * n, pattern.p * n))
    for (u, v), rule in pattern.arc_rule.items():
        if rule.kind == THRESHOLD:
            t[u * n:(u + 1) * n, v * n:(v + 1) * n] += w[v] * kernels[ALONG]
            t[v * n:(v + 1) * n, u * n:(u + 1) * n] += w[u] * kernels[AGAINST]
        else:
            t[u * n:(u + 1) * n, v * n:(v + 1) * n] += w[v] * np.ones((n, n))
    return float(np.trace(np.linalg.matrix_power(t, k))) / (k * n ** k)


@pytest.mark.parametrize("c", [0.0, 0.3, 0.67757, 1.0])
def test_threshold_quadrature_matches_dense_reference(c):
    # every threshold_c7 tag holds a full arc from k = 3 on, and k >= 5
    # gives tags with two or more full-arc segments
    pattern = threshold_c7_pattern(c)
    for k in range(3, 8):
        for n in (32, 64):
            ref = dense_threshold_reference(c, k, n, pattern)
            assert threshold_density(c, k=k, resolution=n) == pytest.approx(ref, rel=1e-12, abs=1e-300)
    n = 128
    ref = dense_threshold_reference(c, 5, n, pattern)
    assert threshold_density(c, k=5, resolution=n) == pytest.approx(ref, rel=1e-12, abs=1e-300)


def test_threshold_all_arcs_variant_matches_dense_reference():
    # no full arcs: every tag takes the dense matrix trace
    for c, n in ((0.7, 32), (0.4, 64), (0.75, 128)):
        pattern = _all_threshold_pattern(c)
        for k in (3, 4, 5, 6, 7):
            ref = dense_threshold_reference(c, k, n, pattern)
            dens = threshold_density(c, k=k, resolution=n, pattern=pattern)
            assert dens == pytest.approx(ref, rel=1e-12, abs=1e-300)


def _cell_average(c, n, i, j):
    """The share of grid cell (i, j) where y - x <= c, exactly: the cell
    clipped by the half-plane (Sutherland-Hodgman), its area by the
    shoelace formula, times n^2."""
    x0, x1, y0, y1 = Fraction(i, n), Fraction(i + 1, n), Fraction(j, n), Fraction(j + 1, n)
    square = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    slack = [c - (y - x) for x, y in square]
    clipped = []
    for a, b, sa, sb in zip(square, square[1:] + square[:1], slack, slack[1:] + slack[:1]):
        if sa >= 0:
            clipped.append(a)
        if (sa < 0) != (sb < 0):
            t = sa / (sa - sb)
            clipped.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    twice_area = sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(clipped, clipped[1:] + clipped[:1]))
    return twice_area / 2 * n * n


@pytest.mark.parametrize("c", [0.0, 0.25, 0.3, 0.5, 0.67757, 1.0])
def test_threshold_kernels_are_exact_cell_averages(c):
    # the cell averages lie in [0, 1], so 2e-15 is a few ulps of each
    for n in (3, 7, 12, 16, 64):
        ref = np.array([[float(_cell_average(Fraction(c), n, i, j)) for j in range(n)]
                        for i in range(n)])
        kernels = _threshold_kernels(c, n)
        assert np.abs(kernels[ALONG] - ref).max() <= 2e-15
        assert np.abs(kernels[AGAINST] - (1.0 - ref.T)).max() <= 2e-15


def test_step_table_lists_stays_first_then_sorted_arcs():
    assert step_table(c5c7_pattern()) == [[(0, STAY), (1, CROSS)], [(1, STAY), (2, CROSS)],
                                          [(3, CROSS)], [(0, CROSS)]]
    # 0 -> 1 is a threshold cycle arc, 0 -> 3 a full chord, 6 -> 0 a threshold cycle arc
    assert step_table(threshold_c7_pattern(0.5))[0] == [(1, ALONG), (3, CROSS), (6, AGAINST)]


@pytest.mark.parametrize("name", ["c5c3", "c5c7"])
def test_threshold_kernels_reject_blob_internal_structure(name):
    # the stay steps of tournament and bipartite blobs have no kernel;
    # dropping them read 0.0 where the densities are 1/512 and 27/50000
    pattern = NAMED_PATTERNS[name]
    with pytest.raises(PatternError):
        threshold_density(0.5, k=5, resolution=32, pattern=pattern)
    with pytest.raises(PatternError):
        mc_threshold_density(0.5, 1000, seed=0, pattern=pattern)


def test_threshold_constant_comes_from_the_pattern_or_raises():
    # the quadrature and the Monte-Carlo check both read the kernel for c;
    # a pattern built for another constant raises instead of being
    # integrated with the wrong kernel
    pattern = threshold_c7_pattern(0.7)
    with pytest.raises(PatternError, match="threshold constant"):
        threshold_density(0.3, resolution=128, pattern=pattern)
    with pytest.raises(PatternError, match="threshold constant"):
        mc_threshold_density(0.3, 1000, seed=0, pattern=pattern)
    own = threshold_density(0.7, resolution=128, pattern=pattern)
    assert own.hex() == threshold_density(0.7, resolution=128).hex()
    assert own == pytest.approx(0.00043084382, rel=1e-9)
    assert threshold_density(0.3, resolution=128) == pytest.approx(0.00035104749970260335, rel=1e-12)


def test_threshold_walks_are_grouped_once_per_step_table(monkeypatch):
    # every threshold_c7_pattern(c) has one step table, so the golden-section
    # search groups its walks once
    calls = []

    def spy(table, k):
        calls.append((table, k))
        return closed_walks(table, k)

    monkeypatch.setattr(density, "closed_walks", spy)
    density._threshold_walks.cache_clear()
    result = optimize_threshold(resolution=32)
    assert result.evaluations > 20
    table = tuple(map(tuple, step_table(threshold_c7_pattern(0.5))))
    assert calls == [(table, 5)]
    grouped = density._threshold_walks(table, 5)
    hash(grouped)  # tuples all the way down: no caller can change the kept grouping
    assert grouped == density._threshold_walks.__wrapped__(table, 5)
    assert len(calls) == 2


def test_threshold_walk_cache_keeps_patterns_apart():
    # the all-threshold pattern shares blobs and k with threshold_c7, not its table
    other = _all_threshold_pattern(0.7)
    density._threshold_walks.cache_clear()
    cold = threshold_density(0.7, resolution=32, pattern=other).hex()
    density._threshold_walks.cache_clear()
    own = threshold_density(0.7, resolution=32).hex()
    assert threshold_density(0.7, resolution=32, pattern=other).hex() == cold != own
    assert threshold_density(0.7, resolution=32).hex() == own
    # the validation runs on every call, cached grouping or not
    for _ in range(3):
        with pytest.raises(PatternError):
            threshold_density(0.5, resolution=32, pattern=c5c7_pattern())
        with pytest.raises(PatternError, match="threshold constant"):
            threshold_density(0.3, resolution=32, pattern=threshold_c7_pattern(0.7))


def test_threshold_kernels_reject_mixed_constants_and_parallel_steps():
    base = seven_cycle_with_chords()
    mixed = uniform_pattern(base, arc_rule={arc: ArcRule(THRESHOLD, 0.3 + 0.4 * (i % 2))
                                            for i, arc in enumerate(sorted(base.arcs))})
    # a threshold arc 0 -> 1 beside a full arc 1 -> 0 gives two steps 1 -> 0,
    # of which the Monte-Carlo estimator kept one
    digon = uniform_pattern(directed_cycle(2, DIRECTED), arc_rule={(0, 1): ArcRule(THRESHOLD, 0.5)})
    for pattern in (mixed, digon):
        with pytest.raises(PatternError):
            threshold_density(0.5, k=4, resolution=32, pattern=pattern)
        with pytest.raises(PatternError):
            mc_threshold_density(0.5, 1000, seed=0, k=4, pattern=pattern)


FULL_ARC_CASES = ([(f"cycle_{d}", k) for d in range(3, 7) for k in (d, 2 * d)]
                  + [("c7_chords", k) for k in (5, 6, 7)])


@pytest.mark.parametrize("name,k", FULL_ARC_CASES)
def test_quadrature_matches_walk_expansion_on_full_arc_patterns(name, k):
    # both walk the same step table; with full arcs over independent blobs
    # every kernel is all ones, so the quadrature is the polynomial at any c
    pattern = NAMED_PATTERNS[name]
    skewed = [Fraction(b + 1) for b in range(pattern.p)]
    skewed = [w / sum(skewed) for w in skewed]
    for weights in (pattern.blob_weights, tuple(skewed)):
        exact = float(density_model(pattern, k).value(weights))
        assert exact > 0
        for c in (0.0, 0.3, 1.0):
            dens = threshold_density(c, k=k, resolution=8, pattern=pattern, weights=weights)
            assert dens == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("kwargs", [{"resolution": 0}, {"resolution": -3}, {"k": 2}, {"k": 0}])
def test_threshold_rejects_bad_resolution_and_k(kwargs):
    with pytest.raises(DensityError):
        threshold_density(0.5, **kwargs)
    with pytest.raises(DensityError):
        optimize_threshold(**kwargs)


def test_density_results_are_python_floats():
    assert type(threshold_density(0.67757, resolution=64)) is float
    assert type(threshold_density(0.7, resolution=32, pattern=_all_threshold_pattern(0.7))) is float
    result = optimize_threshold(resolution=32)
    assert all(type(x) is float for x in (result.c_star, result.density, result.density_per_choose))
    assert type(result.resolution) is int and type(result.evaluations) is int
    json.dumps(result.to_dict())
    weights = optimize_weights(density_model(uniform_pattern(directed_cycle(3)), 3), [[0.5, 0.3, 0.2]])
    assert type(weights.value) is float and all(type(w) is float for w in weights.weights)
    json.dumps(weights.to_dict())
