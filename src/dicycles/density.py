"""Analytic copy densities of pattern limit objects and their optimizers.

Polynomial patterns (full arcs, tournament or bipartite blobs) get exact
rational densities from the shared walk expansion; threshold patterns need
a genuine multidimensional integral over the cycle, evaluated by a
transfer-matrix quadrature whose kernels carry exact per-cell areas, with
a Monte-Carlo cross-check.  Optimizers: multi-start projected gradient
ascent on the weight simplex, and golden-section search for the threshold
constant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .constructions import threshold_c7_pattern
from .graphs import THRESHOLD, PatternError, PatternSpec
from .pattern_walks import (
    closed_walks,
    density_monomials,
    evaluate_monomials,
    monomial_gradient,
)


class DensityError(ValueError):
    pass


class WeightsOffSimplexError(DensityError):
    pass


def _check_simplex(weights: Sequence) -> None:
    total = 0.0
    for w in weights:
        if float(w) < -1e-12:
            raise WeightsOffSimplexError(f"negative weight {w}")
        total += float(w)
    if abs(total - 1.0) > 1e-9:
        raise WeightsOffSimplexError(f"weights sum to {total}, expected 1")


@dataclass
class DensityModel:
    """Evaluator for the limit of (k-cycle copies)/n^k of a pattern.

    For polynomial patterns ``monomials`` holds the exact expansion (a
    homogeneous degree-k polynomial in the blob weights) and analytic
    gradients are available; threshold patterns evaluate through the
    quadrature below and expose no analytic gradient.
    """

    pattern: Optional[PatternSpec]
    k: int
    monomials: Optional[dict] = None
    evaluator: Optional[Callable] = None
    has_gradient: bool = False

    def value(self, weights, params: Optional[dict] = None):
        _check_simplex(weights)
        if self.monomials is not None:
            return evaluate_monomials(self.monomials, weights)
        return self.evaluator(weights, params or {})

    def gradient(self, weights) -> list[Fraction]:
        if not self.has_gradient:
            raise DensityError("no analytic gradient for this model")
        return monomial_gradient(self.monomials, weights)


def density_model(pattern: PatternSpec, k: int) -> DensityModel:
    if pattern.has_threshold():
        def evaluator(weights, params):
            return threshold_density(
                params.get("c"), k=k, pattern=pattern,
                weights=tuple(Fraction(w).limit_denominator(10 ** 9) for w in weights),
                resolution=params.get("resolution", 512))

        return DensityModel(pattern, k, evaluator=evaluator)
    return DensityModel(pattern, k, monomials=density_monomials(pattern, k),
                        has_gradient=True)


def hub_split_model(t: int) -> DensityModel:
    """n^2-scale triangle density with t-1 fixed hub vertices.

    Two weighted layers A and B; every triangle uses one hub vertex, one
    vertex of A and one of B, so the density per n^2 is (t-1) * wA * wB.
    """
    if t < 2:
        raise DensityError("t must be at least 2")
    return DensityModel(None, 3, monomials={(1, 1): Fraction(t - 1)}, has_gradient=True)


def evaluate_density(model: DensityModel, weights, params: Optional[dict] = None):
    """Copy density at the given simplex weights (exact for polynomials)."""
    return model.value(weights, params)


# ---------------------------------------------------------------------------
# Simplex projection and weight optimization
# ---------------------------------------------------------------------------


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / (np.arange(len(v)) + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


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


def _ascend(f, grad, w: np.ndarray, tolerance: float, max_iter: int = 20000) -> tuple[np.ndarray, float]:
    value = f(w)
    step = 0.25
    for _ in range(max_iter):
        g = grad(w)
        cand = project_simplex(w + step * g)
        cand_value = f(cand)
        if cand_value > value + tolerance * max(abs(value), 1e-30):
            w, value = cand, cand_value
            step *= 1.3
        else:
            if cand_value > value:
                w, value = cand, cand_value
            step *= 0.5
            if step < 1e-16:
                break
    return w, value


def optimize_weights(model: DensityModel, initializations=None,
                     tolerance: float = 1e-14) -> WeightsResult:
    """Multi-start projected gradient ascent on the simplex, then an exact
    rational re-evaluation at rounded weights.

    Deterministic given the initialization list (the default list is
    fixed); ties between starts break toward lexicographically smaller
    weights.
    """
    if model.monomials is None:
        raise DensityError("optimize_weights needs a polynomial model")
    p = len(next(iter(model.monomials)))

    def f(w):
        return float(evaluate_monomials(model.monomials, w))

    def grad(w):
        return np.array([float(x) for x in monomial_gradient(model.monomials, w)])

    if initializations is None:
        initializations = _default_initializations(p)
    best_w, best_v = None, -math.inf
    for w0 in initializations:
        w = project_simplex(np.asarray(w0, dtype=float))
        w, v = _ascend(f, grad, w, tolerance)
        if v > best_v + 1e-15 or (abs(v - best_v) <= 1e-15
                                  and best_w is not None and tuple(w) < tuple(best_w)):
            best_w, best_v = w, v

    rational = [Fraction(x).limit_denominator(10 ** 6) for x in best_w]
    drift = 1 - sum(rational)
    rational[int(np.argmax(best_w))] += drift
    value_rational = None
    if all(x >= 0 for x in rational):
        value_rational = evaluate_monomials(model.monomials, rational)
    return WeightsResult(tuple(float(x) for x in best_w), best_v,
                         tuple(rational), value_rational)


# ---------------------------------------------------------------------------
# Threshold density by transfer-matrix quadrature
# ---------------------------------------------------------------------------


def _forward_cell_integrals(c: float, resolution: int) -> np.ndarray:
    """Cell-averaged values of the kernel [min(x+c, 1) >= y] on an N x N grid."""
    n = resolution
    edges = np.linspace(0.0, 1.0, n + 1)
    x0 = edges[:-1][:, None]
    x1 = edges[1:][:, None]
    y0 = edges[:-1][None, :]
    y1 = edges[1:][None, :]

    def integral(m):
        # int_{x0}^{x1} min(x + c, m) dx for the clamp level m = min(1, y)
        m = np.minimum(m, 1.0)
        split = np.clip(m - c, x0, x1)
        linear = 0.5 * (split ** 2 - x0 ** 2) + c * (split - x0)
        return linear + m * (x1 - split)

    area = integral(y1) - integral(y0)
    return area * (n * n)


def _threshold_matrices(c: float, resolution: int) -> dict[str, np.ndarray]:
    fwd = _forward_cell_integrals(c, resolution)
    return {
        "F": fwd,                    # step along a skeleton arc
        "B": 1.0 - fwd.T,            # step against a skeleton arc
        "O": np.ones_like(fwd),      # step along a full (one-directional) arc
    }


def _threshold_steps(pattern: PatternSpec) -> list[list[tuple[int, str]]]:
    """Per-blob step table: (next blob, kernel tag)."""
    p = pattern.p
    steps: list[list[tuple[int, str]]] = [[] for _ in range(p)]
    c_seen = set()
    for (u, v), rule in sorted(pattern.arc_rule.items()):
        if rule.kind == THRESHOLD:
            c_seen.add(rule.c)
            steps[u].append((v, "F"))
            steps[v].append((u, "B"))
        else:
            steps[u].append((v, "O"))
    if len(c_seen) > 1:
        raise PatternError("mixed threshold constants are not supported")
    return steps


def _threshold_walks(pattern: PatternSpec, k: int):
    """Closed k-walks over the step table, grouped by cyclic kernel pattern.

    Returns {canonical cyclic tag tuple: {blob exponent tuple: count}}.
    """
    grouped: dict[tuple, dict[tuple, int]] = {}
    for blobs, tags in closed_walks(_threshold_steps(pattern), k):
        expo = [0] * pattern.p
        for b in blobs:
            expo[b] += 1
        tag = min(tags[i:] + tags[:i] for i in range(k))
        counts = grouped.setdefault(tag, {})
        counts[tuple(expo)] = counts.get(tuple(expo), 0) + 1
    return grouped


def threshold_density(c: float, k: int = 5, resolution: int = 512,
                      pattern: Optional[PatternSpec] = None,
                      weights: Optional[tuple[Fraction, ...]] = None) -> float:
    """Limit k-cycle copy density of a threshold pattern.

    The k-dimensional cycle integral factors through transfer matrices of
    the per-step kernels; traces are shared across walks with the same
    cyclic kernel sequence.  Error decreases quadratically with the grid
    resolution.
    """
    if pattern is None:
        pattern = threshold_c7_pattern(c)
    if weights is None:
        weights = pattern.blob_weights
    _check_simplex(weights)
    kernels = _threshold_matrices(c, resolution)
    grouped = _threshold_walks(pattern, k)
    scale = float(resolution) ** k
    total = 0.0
    for tag, expo_counts in grouped.items():
        mats = [kernels[t] for t in tag]
        prod = mats[0]
        for m in mats[1:-1]:
            prod = prod @ m
        trace = float(np.tensordot(prod, mats[-1].T, axes=2)) if len(mats) > 1 else float(np.trace(prod))
        integral = trace / scale
        for expo, count in expo_counts.items():
            mono = count
            for w, e in zip(weights, expo):
                mono *= float(w) ** e
            total += mono * integral
    return total / k


def mc_threshold_density(c: float, samples: int, seed: int, k: int = 5,
                         pattern: Optional[PatternSpec] = None) -> tuple[float, float]:
    """Monte-Carlo estimate of the same density with its standard error."""
    if pattern is None:
        pattern = threshold_c7_pattern(c)
    p = pattern.p
    weights = np.array([float(w) for w in pattern.blob_weights])
    # relation[a, b]: 0 none, 1/2 threshold along/against the skeleton arc,
    # 3 full arc a->b (always present, never reversed)
    rel = np.zeros((p, p), np.int8)
    for (u, v), rule in pattern.arc_rule.items():
        if rule.kind == THRESHOLD:
            rel[u, v] = 1
            rel[v, u] = 2
        else:
            rel[u, v] = 3
    rng = np.random.default_rng(seed)
    blobs = rng.choice(p, size=(samples, k), p=weights)
    coords = rng.random((samples, k))
    ok = np.ones(samples, bool)
    for t in range(k):
        a, b = blobs[:, t], blobs[:, (t + 1) % k]
        x, y = coords[:, t], coords[:, (t + 1) % k]
        r = rel[a, b]
        fwd = np.minimum(x + c, 1.0) >= y
        bwd = np.minimum(y + c, 1.0) < x
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


def optimize_threshold(c_range: tuple[float, float] = (0.0, 1.0),
                       resolution: int = 512, k: int = 5,
                       grid_points: int = 9, tol: float = 1e-4) -> ThresholdResult:
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

    grid = np.linspace(lo, hi, grid_points)
    values = [f(c) for c in grid]
    best = int(np.argmax(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid_points - 1)]

    phi = (math.sqrt(5.0) - 1) / 2
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
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
    return ThresholdResult(c_star, dens, per_choose, resolution, len(cache))
