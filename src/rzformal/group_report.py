"""Group-level view of the formality verdicts.

A subgroup A of (Z/2)^m pulls back to a reflection subgroup G of the
right-angled Coxeter group of a graph: G contains the commutator
subgroup, with G modulo commutators equal to A. The verdict whether
H*(G;F2) is free over the polynomial part is exactly the equivariant
formality verdict for A acting on the real moment-angle complex of the
clique complex, and this module packages that translation: hull and
complement, the companion semidirect subgroup, the Cohen-Macaulay
dimension, and the Poincare series of H*(G;F2) in the free case.

Corank is read as m minus rank(A) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .f2 import Subgroup
from .formality import FormalityReport, decide
from .moment_angle import hochster_real_betti
from .simplicial import Graph, InputError, SimplicialComplex, mask_vertices


@dataclass(frozen=True)
class PoincareSeries:
    """A series numerator(t) / (1-t)^r with nonnegative coefficients."""

    numerator: tuple[int, ...]
    r: int

    def to_json_obj(self) -> dict:
        return {"numerator": list(self.numerator), "r": self.r}


def poincare_series(k: SimplicialComplex, r: int) -> PoincareSeries:
    """Series of the Betti numbers of RZ_K over a rank-r polynomial ring."""
    if r < 0:
        raise ValueError("denominator exponent must be nonnegative")
    return PoincareSeries(hochster_real_betti(k).dims, r)


@dataclass(frozen=True)
class GroupReport:
    """Structural facts about one coabelian reflection subgroup."""

    gamma: Graph
    a: Subgroup
    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    presentation: dict
    verdict: str
    cm_dimension: int | None
    poincare: PoincareSeries | None
    formality: FormalityReport

    @property
    def formal(self) -> bool:
        return self.verdict == "formal"

    def to_json_obj(self) -> dict:
        return {
            "gamma": self.gamma.to_json_obj(),
            "A": self.a.to_json_obj(),
            "I": list(self.i_set),
            "J": list(self.j_set),
            "G_semidirect": {
                "normal_closure_on": list(self.i_set),
                "commutator_on": list(self.j_set),
            },
            "verdict": self.verdict,
            "cm_dimension": self.cm_dimension,
            "poincare": self.poincare.to_json_obj() if self.poincare else None,
            "presentation": self.presentation,
        }


def coabelian_report(g: Graph, a: Subgroup) -> GroupReport:
    """Full report for the subgroup of the Coxeter group of ``g`` over ``a``.

    The hull support I and its complement J describe the companion
    subgroup as a semidirect product: the normal closure of the
    parabolic on I, extended by the commutator subgroup of the
    parabolic on J. Cohen-Macaulay dimension and Poincare series are
    attached exactly when the verdict is formal.
    """
    if a.m != g.m:
        raise InputError(
            f"subgroup on {a.m} coordinates does not match {g.m} vertices"
        )
    k = g.clique_complex()
    report = decide(k, a)
    i_mask = a.hull_mask
    i_set = mask_vertices(i_mask)
    j_set = mask_vertices(((1 << g.m) - 1) & ~i_mask)
    presentation = {
        "generators": [f"g{v}" for v in range(1, g.m + 1)],
        "relations": [f"g{v}^2" for v in range(1, g.m + 1)],
        "commuting_pairs": [list(e) for e in g.edges],
    }
    if report.formal:
        cm_dimension: int | None = a.rank
        series: PoincareSeries | None = poincare_series(k, a.rank)
    else:
        cm_dimension = None
        series = None
    return GroupReport(
        gamma=g,
        a=a,
        i_set=i_set,
        j_set=j_set,
        presentation=presentation,
        verdict=report.verdict,
        cm_dimension=cm_dimension,
        poincare=series,
        formality=report,
    )
