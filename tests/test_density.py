"""Density evaluators, gradients, optimizers, and the threshold quadrature."""

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
    hub_triangle_pattern,
    seven_cycle_with_chords,
    threshold_c7_pattern,
)
from dicycles.density import (
    WeightsOffSimplexError,
    density_model,
    evaluate_density,
    hub_split_model,
    mc_threshold_density,
    optimize_threshold,
    optimize_weights,
    project_simplex,
    threshold_density,
)
from dicycles.graphs import ArcRule, PatternError, directed_cycle, uniform_pattern
from dicycles.pattern_walks import (
    density_monomials,
    evaluate_monomials,
    monomial_gradient,
    pattern_cycle_count,
)

NAMED_PATTERNS = {
    "c5c3": c5c3_pattern(),
    "c5c7": c5c7_pattern(),
    "c5c7_opposite": c5c7_pattern("opposite"),
    "c7_chords": c7_chords_pattern(),
    "digon": digon_pattern(),
    "hub_1/5": hub_triangle_pattern(Fraction(1, 5)),
    **{f"cycle_{d}": uniform_pattern(directed_cycle(d)) for d in range(3, 7)},
}


def test_exact_density_values():
    model = density_model(uniform_pattern(directed_cycle(5)), 5)
    assert evaluate_density(model, [Fraction(1, 5)] * 5) == Fraction(1, 5) ** 5

    model = density_model(c5c7_pattern(), 5)
    w = (Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5))
    assert evaluate_density(model, w) == Fraction(27, 50000)

    model = density_model(c5c3_pattern(), 5)
    assert evaluate_density(model, [Fraction(1, 4)] * 4) == Fraction(1, 512)

    model = density_model(c7_chords_pattern(), 5)
    assert evaluate_density(model, [Fraction(1, 7)] * 7) == Fraction(7, 7 ** 5)


def test_weights_off_simplex_rejected():
    model = density_model(uniform_pattern(directed_cycle(3)), 3)
    with pytest.raises(WeightsOffSimplexError):
        evaluate_density(model, [0.5, 0.5, 0.5])
    with pytest.raises(WeightsOffSimplexError):
        evaluate_density(model, [1.5, -0.25, -0.25])


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
        assert evaluate_density(model, w) == evaluate_density(model, rotated)


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
        dens = float(evaluate_density(model, weights))
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
            grad = np.array([float(x) for x in monomial_gradient(model.monomials, w)])
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
        w = project_simplex(v)
        assert w.min() >= 0 and abs(w.sum() - 1) < 1e-12
        assert np.allclose(project_simplex(w), w)


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


def test_threshold_all_arcs_variant_evaluates():
    base = seven_cycle_with_chords()
    pattern = uniform_pattern(base, arc_rule={arc: ArcRule("threshold", 0.7) for arc in base.arcs})
    dens = threshold_density(0.7, resolution=128, pattern=pattern)
    mc, se = mc_threshold_density(0.7, 300_000, seed=5, pattern=pattern)
    assert abs(mc - dens) <= 3.5 * se


def test_optimize_threshold_fast_resolution():
    result = optimize_threshold(resolution=256)
    assert abs(result.c_star - 0.67757) <= 5e-3
    assert 0.0516 <= result.density_per_choose <= 0.0567
    assert result.density == pytest.approx(result.density_per_choose / 120)


def test_optimize_threshold_range_validation():
    with pytest.raises(ValueError):
        optimize_threshold(c_range=(0.9, 0.2))
