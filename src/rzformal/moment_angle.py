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

from math import comb

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
    """Real and complex tables from one depth-first walk over the J ⊆ V(K).

    β̃_d(K_J) adds to degree d + 1 of the real space, d + |J| + 1 of the
    complex one. Entering J ∪ v, v above top(J), reduces only its new
    faces, ``k.faces_by_top()[v]`` inside J ∪ v, into the one pivot dict,
    and leaving it deletes the pivots it added. ``add_faces`` adds the
    change that J ∪ v makes to its parent's Betti row to a bucket keyed
    by (|J ∪ v|, a), a the vertices above v. That change recurs in each
    of the 2^a sets J ∪ v ∪ S, S above v, and C(a, i) of them have
    |S| = i: so the real table takes change · 2^a, and the complex one
    change · C(a, i) at degree + |J ∪ v| + i. A ghost vertex g gives
    K_(J ∪ g) = K_J, a factor S^0, resp. S^1, so ghosts add to a.
    The walk keeps one frame per vertex on its current path, on an
    explicit stack, so no vertex count meets the recursion limit.

    A cone is walked once, as the link L of its apexes A: a K_J that
    meets A is a cone, any other is L_J, and L keeps K's ghosts.
    """
    apexes = k.apexes
    if apexes:
        return _hochster_tables(k.link(apexes))
    faces = k.faces()
    columns = boundary_columns(faces)
    tops = k.faces_by_top()
    n, ghosts = k.vertices_mask.bit_count(), k.ghost_mask.bit_count()
    width = k.dim + 2  # β̃_d sits at d + 1
    # changes[s][a]: the Betti changes of the J with s vertices, a of V above top(J)
    changes = [[[0] * width for _ in range(n + 1)] for _ in range(n + 1)]
    pivots: dict[int, int] = {}
    added: list[int] = []
    add_faces(faces[:1], columns, pivots, changes[0][n], added)  # K_∅
    # per J on the path: J, the vertices above top(J) still to append, and
    # len(added) once K_J is in
    frames = [[0, k.vertices_mask, len(added)]]
    while frames:
        frame = frames[-1]
        j_mask, above, mark = frame
        for p in added[mark:]:  # leave J's last child
            del pivots[p]
        del added[mark:]
        if not above:
            frames.pop()
            continue
        v = above & -above
        frame[1] = above = above ^ v
        grown = j_mask | v
        new = [f for f in tops[v] if f | grown == grown]
        add_faces(new, columns, pivots, changes[len(frames)][above.bit_count()], added)
        if above:
            frames.append([grown, above, len(added)])
    real, cplx = [0] * width, [0] * (width + k.m)
    for s, by_above in enumerate(changes):
        for a, row in enumerate(by_above, ghosts):
            for d, b in enumerate(row):
                if b:
                    real[d] += b << a
                    for i in range(a + 1):
                        cplx[d + s + i] += b * comb(a, i)
    return (
        BettiTable.from_dict(dict(enumerate(real)), 0),
        BettiTable.from_dict(dict(enumerate(cplx)), 0),
    )


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
    of sigma, and -1 or 1 off sigma. The faces must be closed under
    removing a vertex outside ``zero``, so that the cells are closed
    under taking boundaries. The cells are generated on first use, and
    ``betti`` raises ValueError at a boundary cell that is missing.
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
                try:
                    for child in self.boundary(cell):
                        row ^= 1 << column[child]
                except KeyError:  # a boundary cell with no face of its own
                    raise ValueError(
                        "every face of a cubical model must contain zero, and the "
                        "faces must be closed under removing vertices outside zero"
                    ) from None
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
