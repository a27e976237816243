"""Betti numbers of moment-angle complexes and their cubical models.

The real moment-angle complex of K sits inside the cube [-1,1]^m; its
F2 Betti numbers decompose over vertex subsets J as reduced cohomology
of the full subcomplexes K_J (degree shift 1). The complex version has
shift |J| + 1 and the same total dimension.

``CubicalComplex`` recomputes these numbers from cells of the cube. It
has one cell encoding: a 3-bit code per coordinate, naming one of the
points {-1}, {0}, {1} or the intervals [-1,0], [0,1], [-1,1]. The
coordinates cut at 0 (its ``subdivide`` mask) decide which intervals
occur. With no cut it is the plain model, one cell per face sigma and
sign pattern off sigma; cut along every coordinate it has up to 5^m
cells.

The reflection in coordinate i fixes the points with x_i = 0. Once the
coordinates of I are cut at 0, the points of RZ_K with x_i = 0 on I
form a subcomplex: the cells with {0} on I, which lie over the faces
containing I. So the fixed set needs the cut along I alone, with at
most 3^m cells, and reading it off the cube never uses the link
formula that it checks.

Every computation exponential in the vertex count m checks one entry of
``simplicial.CAPS`` with ``check_cap`` before it starts: the 2^m sums
over vertex subsets here and in the general criterion, the cubical
models with up to 5^m cells, and census enumeration.
"""

from __future__ import annotations

from typing import Iterable

from . import f2
from .cohomology import BettiTable, add_faces, boundary_columns
from .simplicial import SimplicialComplex, check_cap, submasks, vertex_mask


def _hochster_tables(k: SimplicialComplex) -> tuple[BettiTable, BettiTable]:
    """Real and complex tables from one walk of ``k.full_subcomplexes()``.

    β̃_d(K_J) adds to degree d + 1 of the real space, d + |J| + 1 of the
    complex one. Only the faces J adds to its parent's are reduced, and
    leaving J undoes them. A ghost vertex is a factor S^0, resp. S^1.
    """
    cached = k._cache.get("hochster")
    if cached is not None:
        return cached
    check_cap("hochster", k.m)
    columns = boundary_columns(k.faces())
    size = k.dim + 2  # β̃_d sits at d + 1
    betti, real, cplx = [0] * size, [0] * size, [0] * (size + k.m)
    pivots: dict[int, int] = {}
    added: list[int] = []
    path = []  # J, face count, len(added) and betti before J, down to here
    for j_mask, faces in k.full_subcomplexes():
        parent = j_mask ^ (1 << j_mask.bit_length() >> 1)
        while path and path[-1][0] != parent:
            _, _, n, betti = path.pop()
            for p in added[n:]:
                del pivots[p]
            del added[n:]
        start = path[-1][1] if path else 0
        path.append((j_mask, len(faces), len(added), betti[:]))
        add_faces(faces[start:], columns, pivots, betti, added)
        shift = j_mask.bit_count()
        for d, b in enumerate(betti):
            if b:
                real[d] += b
                cplx[d + shift] += b
    ghosts = k.ghost_mask.bit_count()
    for _ in range(ghosts):  # times (1 + t)^ghosts
        for d in range(len(cplx) - 1, 0, -1):
            cplx[d] += cplx[d - 1]
    real = {d: b << ghosts for d, b in enumerate(real)}
    tables = BettiTable.from_dict(real, 0), BettiTable.from_dict(dict(enumerate(cplx)), 0)
    k._cache["hochster"] = tables
    return tables


def hochster_real_betti(k: SimplicialComplex) -> BettiTable:
    """Betti numbers of the real moment-angle complex of k."""
    return _hochster_tables(k)[0]


def hochster_complex_betti(k: SimplicialComplex) -> BettiTable:
    """Betti numbers of the complex moment-angle complex of k."""
    return _hochster_tables(k)[1]


def fixed_betti_via_link(
    k: SimplicialComplex, i_set: Iterable[int] | int
) -> BettiTable:
    """Betti numbers of the points fixed by reflections on ``i_set``.

    The fixed set is the real moment-angle complex of the link of I
    (with the untouched coordinates as ghost vertices) when I is a
    face, and empty otherwise.
    """
    i_mask = i_set if isinstance(i_set, int) else vertex_mask(i_set)
    if i_mask & ~k.ambient:
        raise ValueError("coordinate set is not contained in the vertex set")
    if not k.has_face(i_mask):
        return BettiTable(0, ())
    return hochster_real_betti(k.link(i_mask))


def _spread(mask: int, code: int) -> int:
    """Place ``code`` in the 3-bit field of every set bit of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= code << (3 * (low.bit_length() - 1))
        mask ^= low
    return out


# the two end codes of each interval code: [-1,0] has ends {-1} and {0},
# [0,1] has {0} and {1}, [-1,1] has {-1} and {1}; points have none
_ENDS = ((), (), (), (0, 1), (1, 2), (0, 2))


class CubicalComplex:
    """A cubical complex in [-1,1]^m read off the faces of one complex.

    A cell is an int with a 3-bit code per coordinate: 0 is {-1}, 1 is
    {0}, 2 is {1}, 3 is [-1,0], 4 is [0,1] and 5 is [-1,1]. Besides the
    face masks, a complex keeps two coordinate masks: ``subdivide``, the
    coordinates cut at 0, and ``zero``, the coordinates held at 0 (a
    subset of ``subdivide``). For each face sigma containing ``zero``
    its cells carry {0} on ``zero``, [-1,1] on sigma outside
    ``subdivide``, {0}, [-1,0] or [0,1] on the rest of sigma, and -1
    or 1 off sigma. The cells are generated on first use.
    """

    def __init__(self, ambient: int, faces: tuple[int, ...], subdivide: int, zero: int):
        self.ambient = ambient
        self.faces = faces
        self.subdivide = subdivide
        self.zero = zero
        self._cells: tuple[tuple[int, ...], ...] | None = None
        self._betti: BettiTable | None = None

    @property
    def m(self) -> int:
        return self.ambient.bit_count()

    @property
    def cells_by_dim(self) -> tuple[tuple[int, ...], ...]:
        if self._cells is None:
            self._cells = self._generate()
        return self._cells

    def _generate(self) -> tuple[tuple[int, ...], ...]:
        by_dim: list[list[int]] = [[] for _ in range(self.m + 1)]
        zero = self.zero
        for face in self.faces:
            if face & zero != zero:
                continue
            whole = face & ~self.subdivide
            cut = face & self.subdivide & ~zero
            base = _spread(zero, 1) + _spread(whole, 5)
            signs = [_spread(s, 2) for s in submasks(self.ambient & ~face)]
            for d_mask in submasks(cut):
                low = base + _spread(cut ^ d_mask, 1) + _spread(d_mask, 3)
                cells = by_dim[whole.bit_count() + d_mask.bit_count()]
                for up in submasks(d_mask):
                    enc = low + _spread(up, 1)
                    cells += [enc + sign for sign in signs]
        while by_dim and not by_dim[-1]:
            by_dim.pop()
        return tuple(tuple(cells) for cells in by_dim)

    @property
    def dim(self) -> int:
        return len(self.cells_by_dim) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(cells) for cells in self.cells_by_dim)

    def cells(self, d: int) -> tuple[int, ...]:
        if 0 <= d < len(self.cells_by_dim):
            return self.cells_by_dim[d]
        return ()

    def cell_set(self) -> frozenset[int]:
        return frozenset(c for cells in self.cells_by_dim for c in cells)

    def boundary(self, cell: int) -> list[int]:
        """Cells of one dimension lower in the F2 boundary of ``cell``."""
        out = []
        shift = 0
        while cell >> shift:
            code = (cell >> shift) & 7
            for end in _ENDS[code]:
                out.append(cell + ((end - code) << shift))
            shift += 3
        return out

    def betti(self) -> BettiTable:
        """Cellular F2 homology Betti numbers."""
        if self._betti is None:
            by_dim = self.cells_by_dim
            ranks = [0] * (len(by_dim) + 1)
            for d in range(1, len(by_dim)):
                column = {c: j for j, c in enumerate(by_dim[d - 1])}
                rows = []
                for cell in by_dim[d]:
                    row = 0
                    for child in self.boundary(cell):
                        row ^= 1 << column[child]
                    rows.append(row)
                ranks[d] = f2.rank(rows, len(column))
            self._betti = BettiTable.from_dict(
                {d: len(cells) - ranks[d] - ranks[d + 1] for d, cells in enumerate(by_dim)},
                0,
            )
        return self._betti

    def fixed_subcomplex(self, i_set: Iterable[int] | int) -> "CubicalComplex":
        """The points fixed by reflections on ``i_set``: those at 0 there.

        Cutting the coordinates of I at 0 makes {x_i = 0 for i in I} a
        union of cells, closed under taking faces, and a point of RZ_K
        lies there only if its face contains I. So the fixed set is the
        subcomplex of the faces sigma containing I with {0} on I.
        """
        i_mask = i_set if isinstance(i_set, int) else vertex_mask(i_set)
        if i_mask & ~self.ambient:
            raise ValueError("coordinate set is not contained in the vertex set")
        return CubicalComplex(
            self.ambient, self.faces, self.subdivide | i_mask, self.zero | i_mask
        )

    def __repr__(self) -> str:
        return (
            f"CubicalComplex(m={self.m}, subdivide={self.subdivide:#b}, "
            f"zero={self.zero:#b}, counts={self.counts()})"
        )


def build_cubical(k: SimplicialComplex) -> CubicalComplex:
    """Cell model of the real moment-angle complex of ``k``, uncut."""
    model = k._cache.get("cubical")
    if model is None:
        check_cap("cubical", k.m)
        model = k._cache["cubical"] = CubicalComplex(k.ambient, k.faces(), 0, 0)
    return model
