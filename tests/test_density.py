"""Density evaluators, gradients, optimizers, and the threshold quadrature."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

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
    uniform_pattern,
)
from dicycles.pattern_walks import (
    AGAINST,
    ALONG,
    CROSS,
    STAY,
    CompiledMonomials,
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


def exact_gradient(monos, w):
    nums, den = CompiledMonomials(monos).gradient_ratio(w)
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
            nums, den = CompiledMonomials(monos).gradient_ratio(w)
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
            nums, den = poly.gradient_ratio(w)
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
    values, gradients = [], []
    ratio, gradient_ratio = CompiledMonomials.ratio, CompiledMonomials.gradient_ratio

    def spy_ratio(self, weights):
        values.append(tuple(weights))
        return ratio(self, weights)

    def spy_gradient(self, weights):
        gradients.append(tuple(weights))
        return gradient_ratio(self, weights)

    monkeypatch.setattr(CompiledMonomials, "ratio", spy_ratio)
    monkeypatch.setattr(CompiledMonomials, "gradient_ratio", spy_gradient)
    assert optimize_weights(model) == expected
    # a rejected candidate leaves w where it was, and with it the gradient
    assert all(a != b for a, b in zip(gradients, gradients[1:]))
    assert set(gradients) <= set(values)
    assert 11 <= len(gradients) < len(values) / 2


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
}


@pytest.mark.parametrize("name", sorted(WRONG_WEIGHT_COUNTS))
def test_weight_count_must_match_the_blobs(name):
    with pytest.raises(WeightsOffSimplexError, match="weights given for"):
        WRONG_WEIGHT_COUNTS[name]()


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
