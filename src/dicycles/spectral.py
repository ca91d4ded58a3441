"""Eigenvalue-based walk counting and the bipartite-orientation bound.

Exact integer matrix powers are the ground truth everywhere; floating-point
spectra are advisory and carry explicit residual tolerances, so no bound
verification hinges on eigensolver noise.

An orientation of K_{a,b} (b <= a) is [[0, B], [C, 0]] with its smaller
side first, and its spectrum is +-sqrt(mu) over the eigenvalues mu of the
b x b matrix BC, plus a - b zeros: one eigensolve at half the size, about
an eighth of the work.  The eigenvectors assembled from those of BC pass
the same residual test as a full solve; when BC is singular or the test
fails, the full n x n matrix is solved instead.  Other graphs, and those
below ``HALF_SIZE_MIN_N`` vertices, where numpy's fixed costs outweigh the
saving, are always solved at full size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .counting import adjacency_matrix, count_cycle_copies
from .graphs import OrientedGraph


class SpectralError(ValueError):
    pass


class ConvergenceFailure(SpectralError):
    pass


class NotCompleteBipartiteError(SpectralError):
    pass


class PreconditionViolatedError(SpectralError):
    pass


RESIDUAL_TOL = 1e-9
# an eigenvalue mu of BC (see _half_size_eig) is zero up to roundoff when
# |mu| is at most this times b * (the largest row sum of BC): on 475
# orientations of K_{a,b} with b <= 20 and a singular BC, no |mu| was above
# 2e-17 of that scale, and on 875 with a nonsingular BC, b <= 96, none was
# below 2.8e-10
ZERO_MU_TOL = 1e-12
# the half-size route's fixed numpy cost, and the full solve after a
# singular BC (25 of 40 random K6,6 orientations, 3 of 40 K14,14 ones),
# make it slower than the full solve on small graphs: on 40 random
# orientations of K_{a,b}, a - b <= 1, per size n, it took 1.5x the full
# solve's time at n = 12, 1.07x at n = 23, 0.94x at n = 25, 0.73x at
# n = 28 and 0.57x at n = 38 (best of 15)
HALF_SIZE_MIN_N = 25
# slack of both comparisons in positive_real_part_sum, for eigensolver rounding
POSITIVE_SUM_TOL = 1e-8


def complete_bipartite_sides(g: OrientedGraph) -> Optional[tuple[int, ...]]:
    """Vertex sides (0/1 labels) if g orients a complete bipartite graph.

    Returns None when the underlying undirected graph is not complete
    bipartite with both sides nonempty.  Side 1 is the neighbourhood of
    vertex 0; then every vertex must be adjacent to exactly the other side.
    """
    n = g.n
    if n < 2:
        return None
    out, inn = g.out_bits(), g.in_bits()
    if any(o & i for o, i in zip(out, inn)):
        return None  # digons never orient a simple underlying edge
    side1 = out[0] | inn[0]
    if not side1:
        return None
    side0 = ((1 << n) - 1) ^ side1
    for v in range(n):
        if out[v] | inn[v] != (side0 if side1 >> v & 1 else side1):
            return None
    return tuple(side1 >> v & 1 for v in range(n))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of the adjacency matrix M, Re-descending, plus the
    eigenvalues of the symmetric part (M + M^T)/2 and the bipartition
    sizes when the graph orients a complete bipartite graph."""

    n: int
    eigenvalues: tuple[complex, ...]
    symmetrized: tuple[float, ...]
    bipartition: Optional[tuple[int, int]] = None

    def positive_half_sum(self) -> float:
        half = self.n // 2
        return float(sum(z.real for z in self.eigenvalues[:half]))

    def symmetrized_half_sum(self) -> float:
        return float(sum(self.symmetrized[: self.n // 2]))


def spectrum(g: OrientedGraph) -> Spectrum:
    """Dense eigendecomposition with a residual check at 1e-9.

    An orientation of a complete bipartite graph with at least
    ``HALF_SIZE_MIN_N`` vertices is solved at half size
    (:func:`_half_size_eig`); when that route declines or its vectors fail
    the residual test, and for every other graph, the n x n matrix goes to
    ``np.linalg.eig``.  The bipartition sizes are those of
    :func:`complete_bipartite_sides`, None unless the graph orients a
    complete bipartite graph.
    """
    n = g.n
    if n == 0:
        return Spectrum(0, (), ())
    m = adjacency_matrix(g)
    sides = complete_bipartite_sides(g)
    values = None if sides is None or n < HALF_SIZE_MIN_N else _half_size_eig(m, sides)
    if values is None:
        values = _full_eig(m)
    order = np.lexsort((-values.imag, -values.real))
    values = values[order]
    sym = np.linalg.eigvalsh((m + m.T) / 2.0)[::-1]

    sizes = None if sides is None else (n - sum(sides), sum(sides))
    return Spectrum(n, tuple(complex(z) for z in values),
                    tuple(float(x) for x in sym), sizes)


def _residual_scale(m: np.ndarray) -> float:
    """The residual test: max |M V - V diag(values)| over unit eigenvector
    columns V, divided by this (scale * n, with scale the largest absolute
    row sum of M, at least 1), must be at most ``RESIDUAL_TOL``; a NaN
    fails it."""
    return max(1.0, float(np.abs(m).sum(axis=1).max())) * len(m)


def _full_eig(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of M by ``np.linalg.eig``, residual-checked."""
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    residual = float(np.abs(m @ vectors - vectors * values).max()) / _residual_scale(m)
    if not residual <= RESIDUAL_TOL:
        raise ConvergenceFailure(f"relative eigen residual {residual:.3e} too large")
    return values


def _half_size_eig(m: np.ndarray, sides: tuple[int, ...]) -> Optional[np.ndarray]:
    """Eigenvalues of an orientation of K_{a,b} (b <= a) from one b x b
    eigensolve; None when the route declines or fails its residual test.

    With the smaller side S first and the larger side L second, M is
    [[0, B], [C, 0]] with B = M[S, L] and C = M[L, S], so M^2 is the block
    sum of BC and CB, and det(x I - M) = x**(a-b) det(x**2 I - BC).  Each
    eigenpair (mu, y) of BC gives the eigenvalues +-lambda, lambda the
    principal root of mu, with eigenvectors [y; +-z], z = C y / lambda;
    the a - b others are 0, with eigenvectors [0; w] for w in the null
    space of B (the last a - b columns of a complete QR of B^T).

    The route declines when BC is singular, that is when some mu is zero up
    to roundoff (``ZERO_MU_TOL``): eig returns roundoff of order 1e-16
    there, whose roots would put eigenvalues of order 1e-8 where M has a
    multiple or defective zero.  Otherwise the vectors, scaled to unit
    length, go through the full solve's residual test, taken block by
    block: M [y; +-z] - (+-lambda) [y; +-z] is [+-(B z - lambda y); C y -
    lambda z] and M [0; w] is [B w; 0], so the zero blocks of M, which add
    exact zeros to M V, are skipped, and no n x n array is formed.
    """
    side = np.array(sides, dtype=bool)
    if 2 * side.sum() > len(side):
        side = ~side
    small, large = np.flatnonzero(side), np.flatnonzero(~side)
    b = len(small)
    bmat, cmat = m[np.ix_(small, large)], m[np.ix_(large, small)]
    bc = bmat @ cmat
    try:
        mu, y = np.linalg.eig(bc)
    except np.linalg.LinAlgError:  # pragma: no cover
        return None
    if np.abs(mu).min() <= ZERO_MU_TOL * b * bc.sum(axis=1).max():
        return None
    lam = np.sqrt(mu.astype(complex))
    cy = cmat @ y
    z = cy / lam
    length = np.hypot(np.linalg.norm(y, axis=0), np.linalg.norm(z, axis=0))
    residual = max(float((np.abs(bmat @ z - y * lam) / length).max()),
                   float((np.abs(cy - z * lam) / length).max()))
    if len(large) > b:
        null = np.linalg.qr(bmat.T, mode="complete")[0][:, b:]
        residual = max(residual, float(np.abs(bmat @ null).max()))
    if not residual / _residual_scale(m) <= RESIDUAL_TOL:
        return None
    return np.concatenate((lam, -lam, np.zeros(len(large) - b)))


def hom_count_via_spectrum(spec: Spectrum, k: int) -> float:
    """(sum of lambda_i^k) / k over the spectrum; the imaginary parts must
    cancel."""
    if k < 1:
        raise SpectralError("walk length must be at least 1")
    total = sum(z ** k for z in spec.eigenvalues)
    scale = max(1.0, max((abs(z) for z in spec.eigenvalues), default=0.0) ** k * spec.n)
    if abs(total.imag) > 1e-6 * scale:
        raise ConvergenceFailure(f"imaginary residue {total.imag:.3e} in trace")
    return total.real / k


@dataclass(frozen=True)
class PositiveSumReport:
    sum_real_parts: float
    symmetrized_sum: float
    bound: float
    within_bound: bool
    ky_fan_holds: bool

    def to_dict(self) -> dict:
        return {
            "sum_real_parts": self.sum_real_parts,
            "symmetrized_sum": self.symmetrized_sum,
            "bound": self.bound,
            "within_bound": self.within_bound,
            "ky_fan_holds": self.ky_fan_holds,
        }


def positive_real_part_sum(spec: Spectrum) -> PositiveSumReport:
    """Top-half real-part sum against both of its upper bounds.

    Checks the symmetric-part domination (sum of the largest real parts is
    at most the corresponding sum for (M + M^T)/2) and, for orientations of
    complete bipartite graphs, the closed form sqrt(m(n-m))/2.
    """
    if spec.bipartition is None:
        raise NotCompleteBipartiteError(
            "positive_real_part_sum needs an orientation of a complete bipartite graph")
    m, rest = spec.bipartition
    s = spec.positive_half_sum()
    sym = spec.symmetrized_half_sum()
    bound = 0.5 * (m * rest) ** 0.5
    return PositiveSumReport(
        sum_real_parts=s,
        symmetrized_sum=sym,
        bound=bound,
        within_bound=s <= bound + POSITIVE_SUM_TOL,
        ky_fan_holds=s <= sym + POSITIVE_SUM_TOL,
    )


@dataclass(frozen=True)
class CycleBoundReport:
    copies: int
    bound: Fraction
    holds: bool

    def to_dict(self) -> dict:
        return {
            "copies": str(self.copies),
            "bound": f"{self.bound.numerator}/{self.bound.denominator}",
            "holds": self.holds,
        }


def bipartite_cycle_bound(g: OrientedGraph, k: int) -> CycleBoundReport:
    """Exact k-cycle count against 2/k * (n/4)^k.

    Only valid for orientations of complete bipartite graphs and k = 2
    mod 4; the comparison is exact rational arithmetic.
    """
    if k % 4 != 2:
        raise PreconditionViolatedError(f"k = {k} is not 2 mod 4")
    if complete_bipartite_sides(g) is None:
        raise PreconditionViolatedError("not an orientation of a complete bipartite graph")
    copies = count_cycle_copies(g, k)
    bound = Fraction(2, k) * Fraction(g.n, 4) ** k
    return CycleBoundReport(copies, bound, copies <= bound)
