"""Reduced simplicial cohomology with F2 coefficients.

Conventions for the augmented cochain complex:

* the empty face sits in degree -1, so the complex {} has reduced
  cohomology F2 there and a nonvoid complex with a vertex has none;
* the void complex has no faces and zero cohomology everywhere.

A complex is given by a face list in any order. Its cohomology data is
memoized globally, keyed by the face tuple itself; a cached value
depends only on the set of faces in its key.

A face list is closed under taking faces, and a cache entry takes its
Betti numbers from boundary ranks alone, b_d = n_d - rank ∂_d - rank
∂_(d+1). The one restriction map is onto a star deletion A = X ∖ st σ.
Over a field the long exact sequence of the pair gives

    Σ_d dim H^d(X, A) = β̃(X) + β̃(A) - 2 Σ_d rank(H̃^d(X) -> H̃^d(A)),

so the restriction is zero exactly when β(X, A) = β̃(X) + β̃(A). The
relative cochains live on the faces that contain σ, the link of σ in X
shifted up by |σ|, so β(X, A) is the link's total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import f2
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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BettiTable":
        return cls(obj["min_degree"], tuple(obj["dims"]))


class _HomData:
    """Reduced Betti numbers of one face list, per degree and in total."""

    __slots__ = ("betti", "total_betti")

    def __init__(self, betti: dict[int, int]):
        self.betti = betti
        self.total_betti = sum(betti.values())


_hom_cache: dict[tuple[int, ...], _HomData] = {}


def clear_caches() -> None:
    _hom_cache.clear()


def group_by_dim(faces: Iterable[int]) -> dict[int, list[int]]:
    """Split a face list by dimension, keeping the list's order in each."""
    out: dict[int, list[int]] = {}
    for f in faces:
        out.setdefault(f.bit_count() - 1, []).append(f)
    return out


def _boundary_rows(by_dim: dict[int, list[int]]) -> dict[int, list[int]]:
    """Per t >= 0, the boundary of each t-face as bits over the (t-1)-faces."""
    rows = {}
    for t, faces_t in by_dim.items():
        if t < 0:
            continue
        index = {f: i for i, f in enumerate(by_dim.get(t - 1, ()))}
        out = []
        for tau in faces_t:
            row = 0
            rest = tau
            while rest:
                low = rest & -rest
                row |= 1 << index[tau ^ low]
                rest ^= low
            out.append(row)
        rows[t] = out
    return rows


def _build_hom_data(faces: tuple[int, ...]) -> _HomData:
    by_dim = group_by_dim(faces)
    rows = _boundary_rows(by_dim)
    ranks = {t: f2.rank(r, len(by_dim.get(t - 1, ()))) for t, r in rows.items()}
    betti = {
        d: len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d, fs in by_dim.items()
    }
    return _HomData(betti)


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
    are nonzero. Any face order gives the same verdict; a walk tuple K_J
    of ``full_subcomplexes()`` ascends by mask, so the link is the entry
    that the walk of lk σ caches for J ∖ σ, and for |σ| = 1 the deletion
    is the walk entry of K_(J∖σ).
    """
    total = hom_data(faces).total_betti
    if total == 0:
        return True
    deleted = hom_data(tuple(f for f in faces if f & sigma != sigma)).total_betti
    if deleted == 0:
        return True
    link = hom_data(tuple(f ^ sigma for f in faces if f & sigma == sigma))
    return link.total_betti == total + deleted
