"""Deciders for equivariant formality of coordinate reflection actions.

Four routes to the same yes/no question for a subgroup acting on the
real moment-angle complex of K through coordinate reflections on I:

* ``flag_criterion``: the missing-edge condition, flag complexes only;
* ``general_criterion``: triviality of the restriction maps
  H̃*(K_J) -> H̃*(K_J minus the open star of I ∩ J) over all vertex
  subsets J, plus I in K;
* ``betti_sum_oracle``: compares total Betti numbers of the fixed set
  and the ambient space, the definition-level ground truth;
* ``torus_oracle``: the same comparison for the torus action on the
  complex moment-angle complex, which has the same answer.

All four produce a FormalityReport with a deterministic witness when
the verdict is negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import moment_angle
from .cohomology import _restriction_map_trivial
from .f2 import Subgroup
from .simplicial import SimplicialComplex, cap, check_cap, mask_vertices, vertex_mask


class FixedPointModelError(RuntimeError):
    """Link-based and cubical-model fixed-point Betti numbers differ."""


@dataclass(frozen=True)
class FormalityReport:
    verdict: str
    method: str
    hull: tuple[int, ...]
    witness: dict | None = None
    totals: tuple[int, int] | None = None

    @property
    def formal(self) -> bool:
        return self.verdict == "formal"

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "hull": list(self.hull),
            "witness": self.witness,
            "totals": list(self.totals) if self.totals is not None else None,
        }


def _as_mask(k: SimplicialComplex, i_set: Iterable[int] | int) -> int:
    mask = i_set if isinstance(i_set, int) else vertex_mask(i_set)
    if mask & ~k.ambient:
        raise ValueError("coordinate set is not contained in the vertex set")
    if k.ghost_mask:
        raise ValueError("every vertex must be a face")
    return mask


def flag_criterion(k: SimplicialComplex, i_set: Iterable[int] | int) -> FormalityReport:
    """Missing-edge test; valid for flag complexes only."""
    i_mask = _as_mask(k, i_set)
    hull = mask_vertices(i_mask)
    if not k.is_flag():
        raise ValueError("flag criterion requires flag complex")
    if not k.has_face(i_mask):
        witness = {"kind": "not_a_face", "I": list(hull)}
        return FormalityReport("not_formal", "flag_criterion", hull, witness)
    for j1, j2 in k.missing_edges():
        edge_mask = vertex_mask((j1, j2))
        for i in mask_vertices(i_mask & ~edge_mask):
            if not k.has_face(vertex_mask((i, j1))) or not k.has_face(
                vertex_mask((i, j2))
            ):
                witness = {"kind": "missing_edge", "edge": [j1, j2], "i": i}
                return FormalityReport("not_formal", "flag_criterion", hull, witness)
    return FormalityReport("formal", "flag_criterion", hull)


def general_criterion(
    k: SimplicialComplex, i_set: Iterable[int] | int
) -> FormalityReport:
    """Restriction-map test; works for arbitrary complexes.

    Requires I to be a face and, for every vertex subset J, the faces
    of K_J not containing the face I ∩ J to form a subcomplex whose
    inclusion is trivial on reduced cohomology.  Removing the open
    star of I ∩ J rather than all of its vertices is essential: the
    two deletions agree when I meets J in at most one vertex but not
    in general, and only the star deletion matches the fixed-point
    Betti count on every complex.  Each map is decided from three
    Betti totals; the relative term is the link of σ = I ∩ J in K_J.
    The witness is the first failing J of ``k.full_subcomplexes()``,
    whose 2^m-step walk is capped like the Hochster sums.  A cone K_J
    is acyclic and skipped, as the walk itself skips the cones that
    hold the top vertex; the cone test is sound, so the witness is
    unchanged.
    """
    i_mask = _as_mask(k, i_set)
    check_cap("hochster", k.m)
    hull = mask_vertices(i_mask)
    if not k.has_face(i_mask):
        witness = {"kind": "not_a_face", "I": list(hull)}
        return FormalityReport("not_formal", "general_criterion", hull, witness)
    for j_mask, j_faces in k.full_subcomplexes():
        sigma = j_mask & i_mask
        if sigma == 0 or k.is_cone_on(j_mask):
            continue
        if not _restriction_map_trivial(j_faces, sigma):
            j_vertices = list(mask_vertices(j_mask))
            witness = {"kind": "nontrivial_restriction", "J": j_vertices}
            return FormalityReport("not_formal", "general_criterion", hull, witness)
    return FormalityReport("formal", "general_criterion", hull)


def betti_sum_oracle(
    k: SimplicialComplex, i_set: Iterable[int] | int
) -> FormalityReport:
    """Ground-truth comparison of fixed and ambient total Betti numbers.

    The fixed side comes from the link formula; for complexes within
    the cubical cap it is recomputed on the cubical model cut along I
    and any mismatch raises FixedPointModelError rather than guessing.
    """
    i_mask = _as_mask(k, i_set)
    hull = mask_vertices(i_mask)
    ambient_total = moment_angle.hochster_real_betti(k).total
    fixed_table = moment_angle.fixed_betti_via_link(k, i_mask)
    if k.m <= cap("cubical"):
        recomputed = moment_angle.build_cubical(k).fixed_subcomplex(i_mask).betti()
        if recomputed.dims != fixed_table.dims:
            raise FixedPointModelError(
                "fixed-point model disagreement: link formula gives "
                f"{fixed_table.dims}, cubical model gives {recomputed.dims}"
            )
    totals = (fixed_table.total, ambient_total)
    if fixed_table.total == ambient_total:
        return FormalityReport("formal", "betti_sum_oracle", hull, None, totals)
    witness = {"kind": "betti_totals", "fixed": totals[0], "ambient": totals[1]}
    return FormalityReport("not_formal", "betti_sum_oracle", hull, witness, totals)


def torus_oracle(k: SimplicialComplex, i_set: Iterable[int] | int) -> FormalityReport:
    """Betti-sum comparison for the coordinate torus acting on Z_K."""
    i_mask = _as_mask(k, i_set)
    hull = mask_vertices(i_mask)
    ambient_total = moment_angle.hochster_complex_betti(k).total
    if k.has_face(i_mask):
        link = k.link(i_mask)
        fixed_total = moment_angle.hochster_complex_betti(link).total
    else:
        fixed_total = 0
    totals = (fixed_total, ambient_total)
    if fixed_total == ambient_total:
        return FormalityReport("formal", "torus_oracle", hull, None, totals)
    witness = {"kind": "betti_totals", "fixed": fixed_total, "ambient": ambient_total}
    return FormalityReport("not_formal", "torus_oracle", hull, witness, totals)


def decide(k: SimplicialComplex, a: Subgroup) -> FormalityReport:
    """Verdict for an arbitrary subgroup acting by coordinate reflections.

    The action of A and of its coordinate hull have the same answer, so
    this reduces to I = hull(A) and dispatches to the flag criterion
    when K is flag, the restriction criterion otherwise.
    """
    if a.m != k.m:
        raise ValueError(
            f"subgroup on {a.m} coordinates does not match {k.m} vertices"
        )
    i_mask = a.hull_mask
    if k.is_flag():
        return flag_criterion(k, i_mask)
    return general_criterion(k, i_mask)


def evaluate_all(
    k: SimplicialComplex, i_set: Iterable[int] | int
) -> dict[str, FormalityReport]:
    """Run every applicable method; key order is the report order."""
    i_mask = i_set if isinstance(i_set, int) else vertex_mask(i_set)
    reports = {}
    if k.is_flag():
        reports["flag_criterion"] = flag_criterion(k, i_mask)
    reports["general_criterion"] = general_criterion(k, i_mask)
    reports["betti_sum_oracle"] = betti_sum_oracle(k, i_mask)
    reports["torus_oracle"] = torus_oracle(k, i_mask)
    return reports


def reports_agree(reports: dict[str, FormalityReport]) -> bool:
    verdicts = {r.verdict for r in reports.values()}
    return len(verdicts) == 1
