"""Reduced simplicial cohomology with F2 coefficients.

Conventions for the augmented cochain complex:

* the empty face sits in degree -1, so the complex {} has reduced
  cohomology F2 there and a nonvoid complex with a vertex has none;
* the void complex has no faces and zero cohomology everywhere.

Betti numbers come from one column reduction, ``add_faces``. The
Hochster walk caches nothing here; the restriction test memoizes face
lists in any order, keyed by the tuple itself.

The one restriction map is onto a star deletion A = X ∖ st σ.
Over a field the long exact sequence of the pair gives

    Σ_d dim H^d(X, A) = β̃(X) + β̃(A) - 2 Σ_d rank(H̃^d(X) -> H̃^d(A)),

so the restriction is zero exactly when β(X, A) = β̃(X) + β̃(A). The
relative cochains live on the faces that contain σ, the link of σ in X
shifted up by |σ|, so β(X, A) is the link's total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class BettiTable:
    """Betti numbers from degree ``min_degree``, trailing zeros cut.

    ``min_degree`` is -1 for the reduced cohomology of a complex and 0
    for the spaces built from one.
    """

    min_degree: int
    dims: tuple[int, ...]

    @classmethod
    def from_dict(cls, table: dict[int, int], min_degree: int = -1) -> "BettiTable":
        top = max((d for d, v in table.items() if v), default=min_degree - 1)
        dims = tuple(table.get(d, 0) for d in range(min_degree, top + 1))
        return cls(min_degree, dims)

    def __getitem__(self, degree: int) -> int:
        i = degree - self.min_degree
        if 0 <= i < len(self.dims):
            return self.dims[i]
        return 0

    def nonzero(self) -> Iterator[tuple[int, int]]:
        for i, v in enumerate(self.dims):
            if v:
                yield self.min_degree + i, v

    @property
    def total(self) -> int:
        return sum(self.dims)

    def to_json_obj(self) -> dict:
        dims = list(self.dims)
        return {"min_degree": self.min_degree, "dims": dims, "total": self.total}


class _HomData:
    """Reduced Betti numbers of one face list, per degree and in total."""

    __slots__ = ("betti", "total_betti")

    def __init__(self, betti: dict[int, int]):
        self.betti = betti
        self.total_betti = sum(betti.values())


_hom_cache: dict[tuple[int, ...], _HomData] = {}


def clear_caches() -> None:
    _hom_cache.clear()


def boundary_columns(faces: tuple[int, ...]) -> dict[int, int]:
    """Per face, its boundary as a bitmask over the positions in ``faces``."""
    index = {f: i for i, f in enumerate(faces)}
    columns = {}
    for f in faces:
        col = 0
        rest = f
        while rest:
            low = rest & -rest
            col |= 1 << index[f ^ low]
            rest ^= low
        columns[f] = col
    return columns


def add_faces(faces, columns, pivots: dict[int, int], betti: list[int], added: list[int]):
    """Reduce the columns of ``faces`` into ``pivots``, keyed by highest bit.

    A d-face bears a d-cycle if its column reduces to zero and else kills
    a (d-1)-class; ``betti[d + 1]`` counts β̃_d, exact whenever the faces
    added so far form a complex. New pivot keys go to ``added``.
    """
    for f in faces:
        col = columns[f]
        d = f.bit_count()
        while col:
            p = col.bit_length()
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                added.append(p)
                betti[d - 1] -= 1
                break
            col ^= other
        else:
            betti[d] += 1


def _build_hom_data(faces: tuple[int, ...]) -> _HomData:
    betti = [0] * (max(map(int.bit_count, faces), default=-1) + 1)
    add_faces(faces, boundary_columns(faces), {}, betti, [])
    return _HomData({d - 1: b for d, b in enumerate(betti)})


def hom_data(faces: tuple[int, ...]) -> _HomData:
    """Memoized cohomology data of a face list in any order, keyed by the tuple."""
    data = _hom_cache.get(faces)
    if data is None:
        data = _hom_cache[faces] = _build_hom_data(faces)
    return data


def reduced_betti(k: SimplicialComplex) -> BettiTable:
    """Reduced F2 Betti numbers of a complex (ghost vertices ignored)."""
    return BettiTable.from_dict(hom_data(k.faces()).betti)


def _restriction_map_trivial(faces: tuple[int, ...], sigma: int) -> bool:
    """Whether H̃*(X) -> H̃*(X ∖ st σ) vanishes, for a face σ of X.

    Decided from β̃(X), then β̃ of the deletion (the faces not containing
    σ), then β̃(lk_X σ) = β(X, X ∖ st σ), each only if the ones before
    are nonzero. Any face order gives the same verdict.
    """
    total = hom_data(faces).total_betti
    if total == 0:
        return True
    deleted = hom_data(tuple(f for f in faces if f & sigma != sigma)).total_betti
    if deleted == 0:
        return True
    link = hom_data(tuple(f ^ sigma for f in faces if f & sigma == sigma))
    return link.total_betti == total + deleted
