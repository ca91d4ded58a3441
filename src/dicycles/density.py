"""Analytic copy densities of pattern limit objects and their optimizers.

Both models walk :func:`pattern_walks.step_table`, the one step model.
Polynomial patterns (full arcs, tournament or bipartite blobs) get a
:class:`DensityModel`: the exact rational density polynomial from the
walk expansion.  Threshold patterns with independent blobs get
:func:`threshold_density`, a transfer-matrix quadrature of their cycle
integral, with a Monte-Carlo cross-check.  A threshold arc runs x -> y
iff y - x <= c (for x, y in [0, 1] the same as min(x + c, 1) >= y), so
its kernel depends only on the cell difference j - i.  A full arc's
kernel is the all-ones matrix, so its steps factor the trace into
matrix-vector products.
The quadrature integrates the kernels of its argument c, so a pattern
built for another threshold constant raises PatternError.
Optimizers: multi-start projected gradient ascent on the weight simplex,
and golden-section search for the threshold constant.  The ascent
compiles the polynomial once per call (:class:`CompiledMonomials`) and
evaluates it, and its gradient, as exact integer sums over one common
denominator, so every step sees the correctly rounded exact value.  A
rejected step leaves the weights where they were, so the gradient is
evaluated only at accepted points.  The steps and the simplex projection
run on Python float lists, which for a handful of blobs cost less than
numpy arrays and give the same floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constructions import threshold_c7_pattern
from .graphs import THRESHOLD, PatternError, PatternSpec
from .pattern_walks import (
    AGAINST,
    ALONG,
    CROSS,
    STAY,
    CompiledMonomials,
    closed_walks,
    density_monomials,
    evaluate_monomials,
    step_table,
)


class DensityError(ValueError):
    pass


class WeightsOffSimplexError(DensityError):
    pass


def _check_length(weights: Sequence, p: int) -> None:
    if len(weights) != p:
        raise WeightsOffSimplexError(f"{len(weights)} weights given for {p} blobs")


def _check_simplex(weights: Sequence, p: int) -> None:
    _check_length(weights, p)
    total = 0.0
    for w in weights:
        if float(w) < -1e-12:
            raise WeightsOffSimplexError(f"negative weight {w}")
        total += float(w)
    if abs(total - 1.0) > 1e-9:
        raise WeightsOffSimplexError(f"weights sum to {total}, expected 1")


@dataclass
class DensityModel:
    """The limit of (k-cycle copies)/n^k of a polynomial pattern.

    ``monomials`` holds the exact expansion, a homogeneous degree-k
    polynomial in the blob weights (exponent tuple -> coefficient).
    """

    k: int
    monomials: dict

    def value(self, weights) -> Fraction:
        # an identically zero model has no monomial to fix the blob count
        _check_simplex(weights, len(next(iter(self.monomials), weights)))
        return evaluate_monomials(self.monomials, weights)


def density_model(pattern: PatternSpec, k: int) -> DensityModel:
    """Exact density model; a threshold pattern raises PatternError (see
    :func:`threshold_density`)."""
    return DensityModel(k, density_monomials(pattern, k))


def hub_split_model(t: int) -> DensityModel:
    """n^2-scale triangle density with t-1 fixed hub vertices.

    Two weighted layers A and B; every triangle uses one hub vertex, one
    vertex of A and one of B, so the density per n^2 is (t-1) * wA * wB.
    """
    if t < 2:
        raise DensityError("t must be at least 2")
    return DensityModel(3, {(1, 1): Fraction(t - 1)})


# ---------------------------------------------------------------------------
# Simplex projection and weight optimization
# ---------------------------------------------------------------------------


def _project(v: list[float]) -> list[float]:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based), on
    Python floats: the same operations in the same order as the numpy
    form, so the same floats.

    When the largest entry u swamps 1.0, u + (1 - u) rounds to 0 and no
    index passes the test; the projection does not change when a constant
    is added to every entry, so only then is v - max(v) projected instead.
    """
    w = v
    for _ in range(2):
        css, lam = 0.0, None
        for i, x in enumerate(sorted(w, reverse=True)):
            css += x
            t = (1.0 - css) / (i + 1)
            if x + t > 0:
                lam = t
        if lam is not None:
            # as np.maximum(y, 0.0): +0.0 for every y <= 0, where max(y, 0.0) keeps -0.0
            return [y if (y := x + lam) > 0.0 else 0.0 for x in w]
        top = max(w)
        w = [x - top for x in w]
    raise DensityError(f"cannot project {v} onto the simplex")


@dataclass(frozen=True)
class WeightsResult:
    weights: tuple[float, ...]
    value: float
    weights_rational: tuple[Fraction, ...]
    value_rational: Optional[Fraction]

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "value": self.value,
            "weights_rational": [f"{w.numerator}/{w.denominator}" for w in self.weights_rational],
            "value_as_rational": (f"{self.value_rational.numerator}/{self.value_rational.denominator}"
                                  if self.value_rational is not None else None),
        }


def _default_initializations(p: int) -> list[np.ndarray]:
    inits = [np.full(p, 1.0 / p)]
    for i in range(p):
        w = np.full(p, 0.3 / max(p - 1, 1))
        w[i] = 0.7
        inits.append(w / w.sum())
    rng = random.Random(190437)
    for _ in range(6):
        draws = np.array([-math.log(rng.random()) for _ in range(p)])
        inits.append(draws / draws.sum())
    return inits


# the ascent's step cap, and the relative gain a step must make to grow the step size
_ASCENT_STEPS, _ASCENT_TOL = 20000, 1e-14


def _ascend(poly: CompiledMonomials, w: list[float]) -> tuple[list[float], float]:
    # int true division rounds correctly, so each value is float() of the
    # exact Fraction, bit for bit; the gradient is kept until w moves
    num, den = poly.ratio(w)
    value = num / den
    grad = None
    step = 0.25
    for _ in range(_ASCENT_STEPS):
        if grad is None:
            nums, den = poly.gradient_ratio(w)
            grad = [g / den for g in nums]
        cand = _project([x + step * g for x, g in zip(w, grad)])
        num, den = poly.ratio(cand)
        cand_value = num / den
        if cand_value > value + _ASCENT_TOL * max(abs(value), 1e-30):
            w, value, grad = cand, cand_value, None
            step *= 1.3
        else:
            if cand_value > value:
                w, value, grad = cand, cand_value, None
            step *= 0.5
            if step < 1e-16:
                break
    return w, value


def optimize_weights(model: DensityModel, initializations=None) -> WeightsResult:
    """Multi-start projected gradient ascent on the simplex, then an exact
    rational re-evaluation at rounded weights.

    Deterministic given the initialization list (the default list is
    fixed); ties between starts break toward lexicographically smaller
    weights.  A pattern with no k-cycles has nothing to optimize and
    raises DensityError.
    """
    if not any(model.monomials.values()):
        raise DensityError(f"the C{model.k} density of this pattern is identically zero")
    poly = CompiledMonomials(model.monomials)
    if initializations is None:
        initializations = _default_initializations(poly.p)
    best_w, best_v = None, -math.inf
    for w0 in initializations:
        _check_length(w0, poly.p)
        w = _project(np.asarray(w0, dtype=float).tolist())
        w, v = _ascend(poly, w)
        if v > best_v + 1e-15 or (abs(v - best_v) <= 1e-15
                                  and best_w is not None and tuple(w) < tuple(best_w)):
            best_w, best_v = w, v

    rational = [Fraction(x).limit_denominator(10 ** 6) for x in best_w]
    drift = 1 - sum(rational)
    rational[best_w.index(max(best_w))] += drift
    value_rational = None
    if all(x >= 0 for x in rational):
        value_rational = Fraction(*poly.ratio(rational))
    return WeightsResult(tuple(best_w), best_v, tuple(rational), value_rational)


# ---------------------------------------------------------------------------
# Threshold density by transfer-matrix quadrature
# ---------------------------------------------------------------------------


def _threshold_kernels(c: float, resolution: int) -> dict[str, np.ndarray]:
    """Cell averages of the kernels [y - x <= c] (ALONG) and
    [x - y > c] (AGAINST) on an N x N grid.

    With x = (i + u)/N and y = (j + v)/N, cell (i, j) is
    P(v - u <= cN - d), d = j - i, for independent uniforms u and v: F(cN - d)
    with F the CDF of the triangular law on [-1, 1].  So ALONG is the
    Toeplitz matrix of F(cN - d) for d = 1 - N .. N - 1.  A CROSS step, along
    a full arc, has the all-ones kernel, which _tag_trace applies unbuilt.
    """
    n = resolution
    t = np.clip(c * n - np.arange(1 - n, n), -1.0, 1.0)
    f = np.where(t < 0.0, 0.5 * (1.0 + t) ** 2, 1.0 - 0.5 * (1.0 - t) ** 2)
    # row i of the reversed windows is f[N - 1 - i:2N - 1 - i], entry j the value at d = j - i
    along = np.ascontiguousarray(sliding_window_view(f, n)[::-1])
    return {ALONG: along, AGAINST: 1.0 - along.T}


def _kernel_steps(pattern: PatternSpec, c: float) -> list[list[tuple[int, str]]]:
    """The step table, if the threshold kernels for constant c cover every
    step: no stay steps, no threshold constant other than c and one step
    per ordered blob pair.  Other patterns raise PatternError rather than
    lose steps or integrate the wrong kernel."""
    table = step_table(pattern)
    if any(tag == STAY for steps in table for _, tag in steps):
        raise PatternError("the threshold kernels cover independent blobs only")
    constants = {float(rule.c) for rule in pattern.arc_rule.values() if rule.kind == THRESHOLD}
    if len(constants) > 1:
        raise PatternError("mixed threshold constants are not supported")
    if constants and constants != {float(c)}:
        raise PatternError(f"the pattern's threshold constant {constants.pop()} differs from c = {c}")
    if any(len({b for b, _ in steps}) < len(steps) for steps in table):
        raise PatternError("two steps between one pair of blobs are not supported")
    return table


def _threshold_walks(pattern: PatternSpec, c: float, k: int):
    """Closed k-walks over the step table, grouped by cyclic kernel pattern.

    Returns {canonical cyclic tag tuple: {blob exponent tuple: count}}.
    """
    grouped: dict[tuple, dict[tuple, int]] = {}
    for blobs, tags in closed_walks(_kernel_steps(pattern, c), k):
        expo = [0] * pattern.p
        for b in blobs:
            expo[b] += 1
        tag = min(tags[i:] + tags[:i] for i in range(k))
        counts = grouped.setdefault(tag, {})
        counts[tuple(expo)] = counts.get(tuple(expo), 0) + 1
    return grouped


def _tag_trace(tag: tuple[str, ...], kernels: dict[str, np.ndarray], resolution: int) -> float:
    """Trace of the product of the tag's kernels.

    The full-arc kernel of CROSS is the all-ones matrix J = 1 1^T, so a tag
    that contains it factors: rotated to start at a CROSS, tr(J S_1 J S_2 ... J S_m)
    is the product of the 1^T S_i 1, each a chain of matrix-vector products
    (an empty segment gives 1^T 1 = N).  Tags without CROSS take the dense
    matrix trace.
    """
    if CROSS not in tag:
        mats = [kernels[t] for t in tag]
        prod = mats[0]
        for m in mats[1:-1]:
            prod = prod @ m
        return float(np.tensordot(prod, mats[-1].T, axes=2))
    start = tag.index(CROSS)
    total = 1.0
    for segment in "".join(tag[start:] + tag[:start]).split(CROSS)[1:]:
        v = np.ones(resolution)
        for t in reversed(segment):
            v = kernels[t] @ v
        total *= float(v.sum())
    return total


def threshold_density(c: float, k: int = 5, resolution: int = 512,
                      pattern: Optional[PatternSpec] = None,
                      weights: Optional[tuple[Fraction, ...]] = None) -> float:
    """Limit k-cycle copy density of a threshold pattern, whose threshold
    arcs run x -> y iff y - x <= c.

    The k-dimensional cycle integral factors through transfer matrices of
    the per-step kernels on a resolution x resolution grid, exact cell
    averages of the rule (:func:`_threshold_kernels`); traces are
    shared across walks with the same cyclic kernel sequence.  The
    full-arc kernel has rank one, so a sequence that contains it costs
    matrix-vector products instead of matrix products.  Error decreases
    quadratically with the grid resolution.  Needs k >= 3 (an oriented
    pattern has no shorter cycles, and the grid would report its own
    cell-average error) and resolution >= 1.  A pattern the kernels do not
    cover, or whose threshold constant is not c, raises PatternError (see
    :func:`_kernel_steps`), and weights for other than the pattern's blobs
    raise WeightsOffSimplexError.
    """
    if k < 3:
        raise DensityError(f"k must be at least 3, got {k}")
    if resolution < 1:
        raise DensityError(f"resolution must be at least 1, got {resolution}")
    if pattern is None:
        pattern = threshold_c7_pattern(c)
    if weights is None:
        weights = pattern.blob_weights
    _check_simplex(weights, pattern.p)
    grouped = _threshold_walks(pattern, c, k)
    kernels = _threshold_kernels(c, resolution)
    scale = float(resolution) ** k
    total = 0.0
    for tag, expo_counts in grouped.items():
        integral = _tag_trace(tag, kernels, resolution) / scale
        for expo, count in expo_counts.items():
            mono = count
            for w, e in zip(weights, expo):
                mono *= float(w) ** e
            total += mono * integral
    return total / k


def mc_threshold_density(c: float, samples: int, seed: int, k: int = 5,
                         pattern: Optional[PatternSpec] = None) -> tuple[float, float]:
    """Monte-Carlo estimate of the same density with its standard error;
    the same patterns raise PatternError.  Each threshold step tests the
    rule y - x <= c as x + c >= y on uniform coordinates in [0, 1)."""
    if pattern is None:
        pattern = threshold_c7_pattern(c)
    p = pattern.p
    weights = np.array([float(w) for w in pattern.blob_weights])
    # rel[a, b]: 0 no step, 1/2 threshold along/against the skeleton arc,
    # 3 full arc a->b (always present, never reversed)
    code = {ALONG: 1, AGAINST: 2, CROSS: 3}
    rel = np.zeros((p, p), np.int8)
    for a, steps in enumerate(_kernel_steps(pattern, c)):
        for b, tag in steps:
            rel[a, b] = code[tag]
    rng = np.random.default_rng(seed)
    blobs = rng.choice(p, size=(samples, k), p=weights)
    coords = rng.random((samples, k))
    ok = np.ones(samples, bool)
    for t in range(k):
        a, b = blobs[:, t], blobs[:, (t + 1) % k]
        x, y = coords[:, t], coords[:, (t + 1) % k]
        r = rel[a, b]
        fwd = x + c >= y
        bwd = y + c < x
        ok &= np.where(r == 3, True, np.where(r == 1, fwd, np.where(r == 2, bwd, False)))
    hits = int(ok.sum())
    p_hat = hits / samples
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-300) / samples)
    return p_hat / k, se / k


@dataclass(frozen=True)
class ThresholdResult:
    c_star: float
    density: float
    density_per_choose: float  # in units of C(n, 5): density * 120 at k = 5
    resolution: int
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "c_star": self.c_star,
            "density": self.density,
            "density_per_choose": self.density_per_choose,
            "resolution": self.resolution,
            "evaluations": self.evaluations,
        }


# the coarse grid's points, and the bracket width at which golden-section search stops
_THRESHOLD_GRID, _THRESHOLD_TOL = 9, 1e-4


def optimize_threshold(c_range: tuple[float, float] = (0.0, 1.0),
                       resolution: int = 512, k: int = 5) -> ThresholdResult:
    """Maximize the threshold-pattern density over the constant c.

    A coarse grid brackets the maximum (the objective is empirically
    unimodal on [0, 1]; the grid stage guards against a wrong bracket),
    then golden-section search refines it.
    """
    lo, hi = c_range
    if not (0.0 <= lo < hi <= 1.0):
        raise DensityError("c_range must be a nonempty subinterval of [0, 1]")
    cache: dict[float, float] = {}

    def f(c: float) -> float:
        if c not in cache:
            cache[c] = threshold_density(c, k=k, resolution=resolution)
        return cache[c]

    grid = np.linspace(lo, hi, _THRESHOLD_GRID)
    values = [f(c) for c in grid]
    best = int(np.argmax(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _THRESHOLD_GRID - 1)]

    phi = (math.sqrt(5.0) - 1) / 2
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _THRESHOLD_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
    c_star = (a + b) / 2
    dens = f(round(c_star, 12))
    per_choose = dens * math.factorial(k)
    # the bracket is numpy float64; results hold Python floats, as JSON needs
    return ThresholdResult(float(c_star), dens, per_choose, resolution, len(cache))
