"""Betti numbers of moment-angle complexes and their cubical models.

The real moment-angle complex of K sits inside the cube [-1,1]^m; its
F2 Betti numbers decompose over vertex subsets J as reduced cohomology
of the full subcomplexes K_J (degree shift 1). The complex version has
shift |J| + 1 and the same total dimension.

Two direct cell models of the real version are available:

* unsubdivided: cells (sigma, eps) with sigma a face of K and eps a
  sign pattern on the remaining coordinates;
* subdivided: each coordinate interval is split at 0, so every cell is
  a per-coordinate choice among {-1}, {0}, {1}, [-1,0], [0,1], and is
  present iff the support of interval and zero coordinates is a face.

Only the subdivided model is a subcomplex-closed home for fixed sets
of coordinate reflections, which fix exactly the cells sitting at 0 on
the reflected coordinates.

Every computation exponential in the vertex count m checks one entry of
``CAPS`` with ``check_cap`` before it starts: the 2^m sums over vertex
subsets here and in the general criterion, the cubical models with up
to 5^m cells, and census enumeration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import f2
from .cohomology import hom_data
from .simplicial import SimplicialComplex, mask_vertices, submasks, vertex_mask

# name: (environment variable, default vertex cap, what it guards)
CAPS = {
    "hochster": ("RZFORMAL_HOCHSTER_CAP", 20, "loop over vertex subsets"),
    "cubical": ("RZFORMAL_CUBICAL_CAP", 8, "cubical model"),
    "census flag": ("RZFORMAL_CENSUS_FLAG_CAP", 5, "census flag mode"),
    "census all-complexes": ("RZFORMAL_CENSUS_ALL_CAP", 4, "census all-complexes mode"),
}


def cap(name: str, override: int | None = None) -> int:
    """The vertex cap ``name``: the override, else its variable, else its default."""
    if override is not None:
        return override
    env, default, _ = CAPS[name]
    return int(os.environ.get(env, default))


def check_cap(name: str, m: int, override: int | None = None) -> None:
    """Refuse an m-vertex input over the cap ``name``."""
    limit = cap(name, override)
    if m > limit:
        env, _, what = CAPS[name]
        source = env if override is None else "max_vertices"
        raise ValueError(f"{what} for m = {m} exceeds the cap {limit} ({source})")


@dataclass(frozen=True)
class SpaceBettiTable:
    """F2 Betti numbers of a space, degree 0 upward, trailing zeros cut."""

    dims: tuple[int, ...]

    @classmethod
    def from_dict(cls, table: dict[int, int]) -> "SpaceBettiTable":
        top = max((d for d, v in table.items() if v), default=-1)
        return cls(tuple(table.get(d, 0) for d in range(top + 1)))

    def __getitem__(self, degree: int) -> int:
        if 0 <= degree < len(self.dims):
            return self.dims[degree]
        return 0

    @property
    def total(self) -> int:
        return sum(self.dims)

    def to_json_obj(self) -> dict:
        return {"min_degree": 0, "dims": list(self.dims), "total": self.total}


def _hochster_tables(
    k: SimplicialComplex, max_vertices: int | None
) -> tuple[SpaceBettiTable, SpaceBettiTable]:
    """Real and complex tables from one pass over the full subcomplexes K_J.

    Degree d of K_J lands in degree d + 1 of the real space and in
    degree d + |J| + 1 of the complex one. Both are cached on k. A cone
    K_J is contractible, so it is skipped; the cone test is sound, so
    the sums are exact.
    """
    cached = k._cache.get("hochster")
    if cached is not None:
        return cached
    check_cap("hochster", k.m, max_vertices)
    real: dict[int, int] = {}
    cplx: dict[int, int] = {}
    for j_mask in submasks(k.ambient):
        if k.is_cone_on(j_mask):
            continue
        size = j_mask.bit_count()
        for d, b in hom_data(k.subfaces(j_mask)).betti.items():
            if b:
                real[d + 1] = real.get(d + 1, 0) + b
                cplx[d + size + 1] = cplx.get(d + size + 1, 0) + b
    tables = SpaceBettiTable.from_dict(real), SpaceBettiTable.from_dict(cplx)
    k._cache["hochster"] = tables
    return tables


def hochster_real_betti(
    k: SimplicialComplex, max_vertices: int | None = None
) -> SpaceBettiTable:
    """Betti numbers of the real moment-angle complex of k."""
    return _hochster_tables(k, max_vertices)[0]


def hochster_complex_betti(
    k: SimplicialComplex, max_vertices: int | None = None
) -> SpaceBettiTable:
    """Betti numbers of the complex moment-angle complex of k."""
    return _hochster_tables(k, max_vertices)[1]


def fixed_betti_via_link(
    k: SimplicialComplex,
    i_set: Iterable[int] | int,
    max_vertices: int | None = None,
) -> SpaceBettiTable:
    """Betti numbers of the points fixed by reflections on ``i_set``.

    The fixed set is the real moment-angle complex of the link of I
    (with the untouched coordinates as ghost vertices) when I is a
    face, and empty otherwise.
    """
    i_mask = i_set if isinstance(i_set, int) else vertex_mask(i_set)
    if i_mask & ~k.ambient:
        raise ValueError("coordinate set is not contained in the vertex set")
    if not k.has_face(i_mask):
        return SpaceBettiTable(())
    return hochster_real_betti(k.link(i_mask), max_vertices)


def _spread(mask: int, code: int) -> int:
    """Place ``code`` in the 3-bit field of every set bit of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= code << (3 * (low.bit_length() - 1))
        mask ^= low
    return out


class CubicalComplex:
    """A cell model of the real moment-angle complex of one complex.

    Unsubdivided cells are pairs (face mask, sign mask on the other
    coordinates). Subdivided cells are ints with a 3-bit code per
    coordinate: 0 is {-1}, 1 is {0}, 2 is {1}, 3 is [-1,0], 4 is [0,1].
    A subdivided complex also keeps, per dimension, its cells grouped
    by the mask of their zero coordinates.

    A fixed subcomplex takes its boundary rows from its model, which
    builds each cell's row at most once, on first request. Fixed cells
    are closed under taking faces, so rows shared this way stay valid
    for every fixed subcomplex.
    """

    def __init__(
        self,
        ambient: int,
        subdivided: bool,
        cells_by_dim,
        zero_groups: list[dict[int, list[int]]] | None = None,
        model: "CubicalComplex | None" = None,
    ):
        self.ambient = ambient
        self.subdivided = subdivided
        self.cells_by_dim = tuple(tuple(sorted(cells)) for cells in cells_by_dim)
        self._zero_groups = zero_groups
        # the complex whose rows this one shares; None for a model, which
        # must not reference itself so that it is freed without waiting
        # for the cycle collector
        self._model = model
        self._coords = [b - 1 for b in mask_vertices(ambient)]
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return self.ambient.bit_count()

    @property
    def dim(self) -> int:
        return len(self.cells_by_dim) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(cells) for cells in self.cells_by_dim)

    def cells(self, d: int) -> tuple:
        if 0 <= d < len(self.cells_by_dim):
            return self.cells_by_dim[d]
        return ()

    def cell_set(self) -> frozenset:
        return frozenset(c for cells in self.cells_by_dim for c in cells)

    def boundary(self, cell) -> list:
        """Cells of one dimension lower in the F2 boundary of ``cell``."""
        out = []
        if self.subdivided:
            for i in self._coords:
                code = (cell >> (3 * i)) & 7
                if code >= 3:
                    out.append(cell - (3 << (3 * i)))
                    out.append(cell - (2 << (3 * i)))
        else:
            sigma, eps = cell
            rest = sigma
            while rest:
                low = rest & -rest
                out.append((sigma ^ low, eps))
                out.append((sigma ^ low, eps | low))
                rest ^= low
        return out

    def _rows(self, d: int, cells: tuple) -> tuple[list[int], int]:
        """Boundary rows of some d-cells of this model, and their width.

        A (d-1)-cell gets its column the first time it is met as a face,
        so a fixed subcomplex asked for first spans only its own columns.
        Each row is built once.
        """
        rows = self._cache.setdefault(("rows", d), {})
        columns = self._cache.setdefault(("columns", d - 1), {})
        out = []
        for cell in cells:
            row = rows.get(cell)
            if row is None:
                row = 0
                for child in self.boundary(cell):
                    j = columns.get(child)
                    if j is None:
                        j = columns[child] = len(columns)
                    row ^= 1 << j
                rows[cell] = row
            out.append(row)
        return out, len(columns)

    def betti(self) -> SpaceBettiTable:
        """Cellular F2 homology Betti numbers."""
        cached = self._cache.get("betti")
        if cached is not None:
            return cached
        model = self._model or self
        counts = self.counts()
        top = len(counts) - 1
        ranks = [0] * (top + 2)
        for d in range(1, top + 1):
            ranks[d] = f2.rank(*model._rows(d, self.cells_by_dim[d]))
        table = {d: counts[d] - ranks[d] - ranks[d + 1] for d in range(top + 1)}
        result = SpaceBettiTable.from_dict(table)
        self._cache["betti"] = result
        return result

    def fixed_subcomplex(self, i_set: Iterable[int] | int) -> "CubicalComplex":
        """Subcomplex of cells pointwise fixed by reflections on i_set."""
        if not self.subdivided:
            raise ValueError("requires subdivided model")
        i_mask = i_set if isinstance(i_set, int) else vertex_mask(i_set)
        if i_mask & ~self.ambient:
            raise ValueError("coordinate set is not contained in the vertex set")
        groups = [
            {zero: cells for zero, cells in by_zero.items() if zero & i_mask == i_mask}
            for by_zero in self._zero_groups
        ]
        while groups and not groups[-1]:
            groups.pop()
        cells_by_dim = [
            [c for cells in by_zero.values() for c in cells] for by_zero in groups
        ]
        return CubicalComplex(
            self.ambient, True, cells_by_dim, groups, self._model or self
        )

    def __repr__(self) -> str:
        kind = "subdivided" if self.subdivided else "plain"
        return f"CubicalComplex(m={self.m}, {kind}, counts={self.counts()})"


def build_cubical(
    k: SimplicialComplex,
    subdivided: bool = False,
    max_vertices: int | None = None,
) -> CubicalComplex:
    """Cell model of the real moment-angle complex of ``k``."""
    cache_key = ("cubical", subdivided)
    cached = k._cache.get(cache_key)
    if cached is not None:
        return cached
    check_cap("cubical", k.m, max_vertices)
    dims = range(max(k.dim + 2, 1))
    if not subdivided:
        cells_by_dim: list[list] = [[] for _ in dims]
        for face in k.faces():
            others = k.ambient & ~face
            d = face.bit_count()
            for eps in submasks(others):
                cells_by_dim[d].append((face, eps))
        while cells_by_dim and not cells_by_dim[-1]:
            cells_by_dim.pop()
        groups = None
    else:
        # the zero coordinates of a cell are those of its face outside
        # its interval coordinates d_mask
        groups = [{} for _ in dims]
        for face in k.faces():
            others = k.ambient & ~face
            signs = [_spread(s, 2) for s in submasks(others)]
            for d_mask in submasks(face):
                base = _spread(face ^ d_mask, 1) + _spread(d_mask, 3)
                group = groups[d_mask.bit_count()].setdefault(face ^ d_mask, [])
                for up in submasks(d_mask):
                    enc = base + _spread(up, 1)
                    group += [enc + sign for sign in signs]
        while groups and not groups[-1]:
            groups.pop()
        cells_by_dim = [
            [c for cells in by_zero.values() for c in cells] for by_zero in groups
        ]
    model = CubicalComplex(k.ambient, subdivided, cells_by_dim, groups)
    k._cache[cache_key] = model
    return model

