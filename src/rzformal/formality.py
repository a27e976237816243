"""Deciders for equivariant formality of coordinate reflection actions.

Four routes to the same yes/no question for a subgroup acting on the
real moment-angle complex of K through coordinate reflections on I:

* ``flag_criterion``: the missing-edge condition on the 1-skeleton,
  flag complexes only;
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

from typing import NamedTuple

from . import moment_angle
from .cohomology import _restriction_map_trivial, memoized, subset_walk
from .f2 import Subgroup
from .simplicial import InputError, SimplicialComplex, cap, check_cap, mask_vertices


class FixedPointModelError(RuntimeError):
    """Link-based and cubical-model fixed-point Betti numbers differ."""


class FormalityReport(NamedTuple):
    verdict: str
    method: str
    i_mask: int
    witness: dict | None = None
    totals: tuple[int, int] | None = None

    @property
    def formal(self) -> bool:
        return self.verdict == "formal"

    @property
    def hull(self) -> tuple[int, ...]:
        return mask_vertices(self.i_mask)

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "hull": list(self.hull),
            "witness": self.witness,
            "totals": list(self.totals) if self.totals is not None else None,
        }


def _check_input(k: SimplicialComplex, i_mask: int) -> None:
    """Refuse a (K, I) that the deciders do not take."""
    if i_mask & ~k.ambient:
        raise InputError("coordinate set is not contained in the vertex set")
    if k.ghost_mask:
        raise InputError("every vertex must be a face")
    if not k.facets:
        raise InputError("the void complex has no faces")


def _not_a_face(method: str, i_mask: int) -> FormalityReport:
    """The criteria's report when I is not a face of K."""
    witness = {"kind": "not_a_face", "I": list(mask_vertices(i_mask))}
    return FormalityReport("not_formal", method, i_mask, witness)


def flag_criterion(k: SimplicialComplex, i_mask: int) -> FormalityReport:
    """Missing-edge test; valid for flag complexes only.

    The witness is the first non-edge {j1 < j2}, in lexicographic order,
    with a vertex of I off it that is not a common neighbour of j1 and j2,
    and the least such vertex. Each non-edge's mask of such vertices, and
    their union, are kept on ``k``: I is formal iff it misses the union,
    and otherwise the masks are tried in order.
    """
    _check_input(k, i_mask)
    union, obstructions = _obstructions(k)
    if not k.has_face(i_mask):
        return _not_a_face("flag_criterion", i_mask)
    if i_mask & union:
        for j1, j2, bad in obstructions:
            off = i_mask & bad
            if off:
                i = (off & -off).bit_length()
                witness = {"kind": "missing_edge", "edge": [j1, j2], "i": i}
                return FormalityReport("not_formal", "flag_criterion", i_mask, witness)
    return FormalityReport("formal", "flag_criterion", i_mask)


def _obstructions(k: SimplicialComplex) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(union, (j1, j2, bad) per non-edge {j1 < j2} in lexicographic order), cached.

    ``bad`` holds the vertices off {j1, j2} that are not common neighbours
    of j1 and j2. A complex that is not flag is refused on the first call.
    """
    found = k._cache.get("flag_obstructions")
    if found is None:
        if not k.is_flag():
            raise InputError("flag criterion requires flag complex")
        adj, verts = k.neighbours(), k.vertices_mask
        union, obstructions = 0, []
        for j1 in mask_vertices(verts):
            n1 = adj[j1 - 1]
            for j2 in mask_vertices((verts & ~n1) >> j1 << j1):  # non-neighbours above j1
                bad = verts & ~(1 << (j1 - 1) | 1 << (j2 - 1)) & ~(n1 & adj[j2 - 1])
                union |= bad
                obstructions.append((j1, j2, bad))
        found = k._cache["flag_obstructions"] = union, tuple(obstructions)
    return found


def general_criterion(k: SimplicialComplex, i_mask: int) -> FormalityReport:
    """Restriction-map test; works for arbitrary complexes.

    Requires I to be a face and, for every vertex subset J, the faces of
    K_J not containing the face σ = I ∩ J to form a subcomplex whose
    inclusion is trivial on reduced cohomology. Removing the open star of
    σ rather than all of its vertices is essential: the two deletions
    agree when |σ| ≤ 1 but not in general, and only the star deletion
    matches the fixed-point Betti count on every complex. Each map is
    decided from three Betti totals, the relative term being the link of
    σ in K_J, and a map from β̃(K_J) = 0 is trivial. The witness is the
    first failing J in lexicographic order; the walk is capped like the
    Hochster sums. Each test's result is kept per (J, σ) on the walked
    complex, among its last ``MEMO_BOUND``, so the other I of a census
    read it. A K_J that meets the apexes A is a cone and any other
    is (lk A)_J, so the walk is that of lk A for I ∖ A, and none if
    I ⊆ A; the report still carries all of I.
    """
    _check_input(k, i_mask)
    check_cap("hochster", k.m)
    if not k.has_face(i_mask):
        return _not_a_face("general_criterion", i_mask)
    link, rest = k.link(k.apexes), i_mask & ~k.apexes
    if rest:
        tested = link._cache.setdefault("restrictions", {})
        for j_mask, total in _walked(link):
            sigma = j_mask & rest
            if sigma and not memoized(
                (j_mask, sigma), _restricted, (link, j_mask, sigma, total), tested
            ):
                witness = {"kind": "nontrivial_restriction", "J": list(mask_vertices(j_mask))}
                return FormalityReport("not_formal", "general_criterion", i_mask, witness)
    return FormalityReport("formal", "general_criterion", i_mask)


def _restricted(args: tuple[SimplicialComplex, int, int, int]) -> bool:
    """The restriction test of (L, J, σ, β̃(L_J)), on the faces of L_J."""
    link, j_mask, sigma, total = args
    return _restriction_map_trivial(link.subfaces(j_mask), sigma, total)


def _walked(k: SimplicialComplex):
    """The (J, β̃(K_J)) of ``subset_walk(k.faces())``, one walk per complex.

    The items found and the walk that finds the rest are kept on ``k``, as
    the pair ``k._cache["walk"]``: a later I reads the items, then resumes
    the walk where an earlier I stopped at its witness. A walk that raised
    is dropped.
    """
    walked = k._cache.get("walk")
    if walked is None:
        walked = k._cache["walk"] = [], subset_walk(k.faces())
    found, walk = walked
    yield from found
    while True:
        try:
            item = next(walk)
        except StopIteration:
            return
        except BaseException:
            del k._cache["walk"]
            raise
        found.append(item)
        yield item


def betti_sum_oracle(k: SimplicialComplex, i_mask: int) -> FormalityReport:
    """Ground-truth comparison of fixed and ambient total Betti numbers.

    The fixed side comes from the link formula; for complexes within
    the cubical cap it is recomputed on the cubical model cut along I
    and any mismatch raises FixedPointModelError rather than guessing.
    """
    _check_input(k, i_mask)
    ambient_total = moment_angle.betti_totals(k)[0]
    fixed_table = moment_angle.fixed_betti_via_link(k, i_mask)
    if k.m <= cap("cubical"):
        recomputed = moment_angle.build_cubical(k).fixed_subcomplex(i_mask).betti()
        if recomputed.dims != fixed_table.dims:
            raise FixedPointModelError(
                "fixed-point model disagreement: link formula gives "
                f"{fixed_table.dims}, cubical model gives {recomputed.dims}"
            )
    return _totals_report("betti_sum_oracle", i_mask, fixed_table.total, ambient_total)


def torus_oracle(k: SimplicialComplex, i_mask: int) -> FormalityReport:
    """Betti-sum comparison for the coordinate torus acting on Z_K."""
    _check_input(k, i_mask)
    ambient_total = moment_angle.betti_totals(k)[1]
    fixed_total = 0
    if k.has_face(i_mask):
        fixed_total = moment_angle.betti_totals(k.link(i_mask))[1]
    return _totals_report("torus_oracle", i_mask, fixed_total, ambient_total)


def _totals_report(method: str, i_mask: int, fixed: int, ambient: int) -> FormalityReport:
    """The report of a Betti-sum oracle: formal iff the two totals are equal."""
    if fixed == ambient:
        return FormalityReport("formal", method, i_mask, None, (fixed, ambient))
    witness = {"kind": "betti_totals", "fixed": fixed, "ambient": ambient}
    return FormalityReport("not_formal", method, i_mask, witness, (fixed, ambient))


def decide(k: SimplicialComplex, a: Subgroup) -> FormalityReport:
    """Verdict for an arbitrary subgroup acting by coordinate reflections.

    The action of A and of its coordinate hull have the same answer, so
    this reduces to I = hull(A) and dispatches to the flag criterion
    when K is flag, the restriction criterion otherwise.
    """
    if a.m != k.m:
        raise InputError(
            f"subgroup on {a.m} coordinates does not match {k.m} vertices"
        )
    i_mask = a.hull_mask
    if k.is_flag():
        return flag_criterion(k, i_mask)
    return general_criterion(k, i_mask)


def evaluate_all(k: SimplicialComplex, i_mask: int) -> dict[str, FormalityReport]:
    """Run every applicable method; key order is the report order."""
    reports = {}
    if k.is_flag():
        reports["flag_criterion"] = flag_criterion(k, i_mask)
    reports["general_criterion"] = general_criterion(k, i_mask)
    reports["betti_sum_oracle"] = betti_sum_oracle(k, i_mask)
    reports["torus_oracle"] = torus_oracle(k, i_mask)
    return reports


def reports_agree(reports: dict[str, FormalityReport]) -> bool:
    return len({r.verdict for r in reports.values()}) == 1
