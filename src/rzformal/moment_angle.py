"""Betti numbers of moment-angle complexes and their cubical models.

The real moment-angle complex of K sits inside the cube [-1,1]^m; its
F2 Betti numbers decompose over vertex subsets J as reduced cohomology
of the full subcomplexes K_J (degree shift 1). The complex version has
shift |J| + 1 and the same total dimension.

``CubicalComplex`` recomputes these numbers from cells of the cube: a
2-bit code per coordinate names one of the points {-1}, {0}, {1} or the
interval [-1,1]. The plain model has one cell per face sigma and sign
pattern off sigma.

The reflection in coordinate i fixes the points with x_i = 0. Those of
RZ_K with x_i = 0 on I lie over the faces containing I, and cutting the
cube at 0 along I alone makes them a subcomplex: a cell per face
containing I and sign pattern off it, with {0} on I, at most 3^m cells.
Reading the fixed set off the cube never uses the link formula that it
checks.

Every computation exponential in the vertex count m checks one entry of
``simplicial.CAPS`` with ``check_cap`` before it starts: the 2^m sums
over vertex subsets here and in the general criterion, the cubical
models with up to 3^m cells, and census enumeration.
"""

from __future__ import annotations

from . import f2
from .cohomology import BettiTable, add_faces, boundary_columns, memoized
from .simplicial import SimplicialComplex, check_cap, submasks


def _hochster_tables(k: SimplicialComplex) -> tuple[BettiTable, BettiTable]:
    """Real and complex tables of ``k``, memoized on its ambient set and facets.

    The ambient set is in the key because ghost vertices scale the tables;
    so every complex with the same facets and vertices shares one entry,
    such as the links lk_K(I) that recur across a census.
    """
    check_cap("hochster", k.m)
    return memoized((k.ambient, k.facets), _walk_tables, k)


def _walk_tables(k: SimplicialComplex) -> tuple[BettiTable, BettiTable]:
    """Real and complex tables from one walk of ``k.full_subcomplexes()``.

    β̃_d(K_J) adds to degree d + 1 of the real space, d + |J| + 1 of the
    complex one. Only the faces J adds to its parent's are reduced, and
    leaving J undoes them. A ghost vertex is a factor S^0, resp. S^1.
    A cone is walked once, as the link L of its apexes A: a K_J that
    meets A is a cone, any other is L_J, and L keeps K's ghosts.
    """
    apexes = k.apexes
    if apexes:
        return _hochster_tables(k.link(apexes))
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
    return BettiTable.from_dict(real, 0), BettiTable.from_dict(dict(enumerate(cplx)), 0)


def hochster_real_betti(k: SimplicialComplex) -> BettiTable:
    """Betti numbers of the real moment-angle complex of k."""
    return _hochster_tables(k)[0]


def hochster_complex_betti(k: SimplicialComplex) -> BettiTable:
    """Betti numbers of the complex moment-angle complex of k."""
    return _hochster_tables(k)[1]


def fixed_betti_via_link(k: SimplicialComplex, i_mask: int) -> BettiTable:
    """Betti numbers of the points fixed by reflections on ``i_mask``.

    The fixed set is the real moment-angle complex of the link of I
    (with the untouched coordinates as ghost vertices) when I is a
    face, and empty otherwise.
    """
    if i_mask & ~k.ambient:
        raise ValueError("coordinate set is not contained in the vertex set")
    if not k.has_face(i_mask):
        return BettiTable(0, ())
    return hochster_real_betti(k.link(i_mask))


def _spread(mask: int, code: int) -> int:
    """Place ``code`` in the 2-bit field of every set bit of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= code << (2 * (low.bit_length() - 1))
        mask ^= low
    return out


# the end codes of each code: [-1,1] has ends {-1} and {1}; points have none
_ENDS = ((), (), (), (0, 2))


class CubicalComplex:
    """A cubical complex in [-1,1]^m read off the faces of one complex.

    A cell is an int with a 2-bit code per coordinate: 0 is {-1}, 1 is
    {0}, 2 is {1} and 3 is [-1,1]. Besides the face masks, a complex
    keeps ``zero``, the coordinates held at 0. Every face sigma must
    contain ``zero``; its cells carry {0} on ``zero``, [-1,1] on the rest
    of sigma, and -1 or 1 off sigma. The cells are generated on first use.
    """

    def __init__(self, ambient: int, faces: tuple[int, ...], zero: int):
        self.ambient = ambient
        self.faces = faces
        self.zero = zero
        self._cells: tuple[tuple[int, ...], ...] | None = None

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
        held = _spread(zero, 1)
        for face in self.faces:
            free = face & ~zero
            low = held + _spread(free, 3)
            signs = submasks(self.ambient & ~face)
            by_dim[free.bit_count()] += [low + _spread(s, 2) for s in signs]
        while by_dim and not by_dim[-1]:
            by_dim.pop()
        return tuple(tuple(cells) for cells in by_dim)

    def counts(self) -> tuple[int, ...]:
        return tuple(len(cells) for cells in self.cells_by_dim)

    def boundary(self, cell: int) -> list[int]:
        """Cells of one dimension lower in the F2 boundary of ``cell``."""
        out = []
        shift = 0
        while cell >> shift:
            code = (cell >> shift) & 3
            for end in _ENDS[code]:
                out.append(cell + ((end - code) << shift))
            shift += 2
        return out

    def betti(self) -> BettiTable:
        """Cellular F2 homology Betti numbers.

        Memoized on the data the cells are generated from, the ambient set,
        ``zero`` and the faces, so models with the same cells share one
        rank and no other result is ever read for them.
        """
        # three fields, where a Hochster key has two: the kinds never collide
        key = (self.ambient, self.zero, self.faces)
        return memoized(key, CubicalComplex._rank, self)

    def _rank(self) -> BettiTable:
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
        return BettiTable.from_dict(
            {d: len(cells) - ranks[d] - ranks[d + 1] for d, cells in enumerate(by_dim)},
            0,
        )

    def fixed_subcomplex(self, i_mask: int) -> "CubicalComplex":
        """The points fixed by reflections on ``i_mask``: those at 0 there.

        A point of RZ_K has x_i = 0 only if its face contains i, and
        cutting the coordinates of I at 0 makes {x_i = 0 for i in I} a
        union of cells, closed under taking faces. So the fixed set is the
        subcomplex of the faces sigma containing I with {0} on I, and only
        those faces, the star of I, are passed on.
        """
        if i_mask & ~self.ambient:
            raise ValueError("coordinate set is not contained in the vertex set")
        star = tuple([f for f in self.faces if f & i_mask == i_mask])
        return CubicalComplex(self.ambient, star, self.zero | i_mask)

    def __repr__(self) -> str:
        return f"CubicalComplex(m={self.m}, zero={self.zero:#b}, faces={len(self.faces)})"


def build_cubical(k: SimplicialComplex) -> CubicalComplex:
    """Cell model of the real moment-angle complex of ``k``; the cap comes first."""
    check_cap("cubical", k.m)
    model = k._cache.get("cubical")
    if model is None:
        model = k._cache["cubical"] = CubicalComplex(k.ambient, k.faces(), 0)
    return model
