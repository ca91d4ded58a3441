"""Eigenvalue-based walk counting and the bipartite-orientation bound.

Exact integer matrix powers are the ground truth everywhere; floating-point
spectra are advisory and carry explicit residual tolerances, so no bound
verification hinges on eigensolver noise.
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

    The bipartition sizes are those of :func:`complete_bipartite_sides`,
    None unless the graph orients a complete bipartite graph.
    """
    n = g.n
    if n == 0:
        return Spectrum(0, (), ())
    m = adjacency_matrix(g)
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    scale = max(1.0, float(np.abs(m).sum(axis=1).max()))
    residual = np.abs(m @ vectors - vectors * values).max()
    if residual > RESIDUAL_TOL * scale * n:
        raise ConvergenceFailure(f"eigen residual {residual:.3e} too large")
    order = np.lexsort((-values.imag, -values.real))
    values = values[order]
    sym = np.linalg.eigvalsh((m + m.T) / 2.0)[::-1]

    sides = complete_bipartite_sides(g)
    sizes = None if sides is None else (n - sum(sides), sum(sides))
    return Spectrum(n, tuple(complex(z) for z in values),
                    tuple(float(x) for x in sym), sizes)


def hom_count_via_spectrum(g: OrientedGraph, k: int) -> float:
    """(sum of lambda_i^k) / k; the imaginary parts must cancel."""
    spec = spectrum(g)
    total = sum(z ** k for z in spec.eigenvalues)
    scale = max(1.0, max((abs(z) for z in spec.eigenvalues), default=0.0) ** k * g.n)
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
