"""Reduced simplicial cohomology with F2 coefficients.

Conventions for the augmented cochain complex:

* the empty face sits in degree -1, so the complex {} has reduced
  cohomology F2 there and a nonvoid complex with a vertex has none;
* the void complex has no faces and zero cohomology everywhere.

A complex is given by a face list in any order. Its cohomology data is
memoized globally, keyed by the face tuple itself; a cached value
depends only on the set of faces in its key.

A cache entry takes its Betti numbers from boundary ranks alone,
b_d = n_d - rank ∂_d - rank ∂_(d+1). A face list need not be closed
under taking faces: boundary terms outside the list are dropped, so the
faces of X not in a subcomplex A give the relative cohomology H*(X, A).
Over a field the long exact sequence of the pair gives

    Σ_d dim H^d(X, A) = β̃(X) + β̃(A) - 2 Σ_d rank(H̃^d(X) -> H̃^d(A)),

so the restriction to A is zero exactly when β(X, A) = β̃(X) + β̃(A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import f2
from .simplicial import SimplicialComplex, vertex_mask


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
    """Per t >= 0, the boundary of each t-face as bits over the (t-1)-faces.

    A boundary face that is not in the list contributes nothing.
    """
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
                i = index.get(tau ^ low)
                if i is not None:
                    row |= 1 << i
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


def _restriction_map_trivial(
    src_faces: tuple[int, ...], tgt_faces: tuple[int, ...]
) -> bool:
    """Whether restriction onto a subcomplex of the face list kills H̃*.

    ``tgt_faces`` must be a subcomplex (downward closed) of the faces
    ``src_faces``; either list may come in any order. The restriction is
    zero exactly when β(X, A) = β̃(X) + β̃(A), where the faces of X not
    in A span the relative cochain complex.
    """
    src = hom_data(src_faces)
    if src.total_betti == 0:
        return True
    tgt = hom_data(tgt_faces)
    if tgt.total_betti == 0:
        return True
    tgt_set = set(tgt_faces)
    rel = hom_data(tuple(f for f in src_faces if f not in tgt_set))
    return rel.total_betti == src.total_betti + tgt.total_betti


def restriction_is_trivial(k: SimplicialComplex, j_sub: Iterable[int] | int) -> bool:
    """Whether H̃*(K) -> H̃*(K_J) vanishes for the full subcomplex on j_sub.

    ``j_sub`` must consist of non-ghost vertices of ``k``.
    """
    j_mask = j_sub if isinstance(j_sub, int) else vertex_mask(j_sub)
    if j_mask & ~k.vertices_mask:
        raise ValueError("subset must consist of non-ghost vertices")
    return _restriction_map_trivial(k.faces(), k.subfaces(j_mask))
