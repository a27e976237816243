"""Betti numbers of moment-angle complexes and their cubical models.

The real moment-angle complex of K sits inside the cube [-1,1]^m; its
F2 Betti numbers decompose over vertex subsets J as reduced cohomology
of the full subcomplexes K_J (degree shift 1). The complex version has
shift |J| + 1 and the same total dimension. Both are read off the sums
T[s][d] of β̃_d(K_J) over the J with |J| = s. A vertex in one facet only
changes these sums by a closed form, so such vertices are peeled off
first, and the walk over the J visits only the core that is left,
relabeled so that the vertices in the most small faces come first.

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

from itertools import chain
from math import comb

from .cohomology import BettiTable, add_faces, memoized, subset_walk
from .simplicial import SimplicialComplex, check_cap, mask_vertices, submasks


def _hochster_tables(k: SimplicialComplex) -> tuple[BettiTable, BettiTable]:
    """Real and complex tables of ``k``, memoized on its ambient set and facets.

    The ambient set is in the key because ghost vertices scale the tables;
    so every complex with the same facets and vertices shares one entry,
    such as the links lk_K(I) that recur across a census.
    """
    check_cap("hochster", k.m)
    return memoized((k.ambient, k.facets), _walk_tables, k)


def _walk_tables(k: SimplicialComplex) -> tuple[BettiTable, BettiTable]:
    """Real and complex tables from the sums T[s][d] = Σ_{|J|=s} β̃_d(K_J).

    β̃_d(K_J) adds to degree d + 1 of the real space, d + |J| + 1 of the
    complex one. A cone is walked once, as the link L of its apexes A: a
    K_J that meets A is a cone, any other is L_J, and L keeps K's ghosts.
    Otherwise ``_peel`` takes off free vertices, ``_core_sums`` walks the
    core left, and each peeled vertex w, in the reverse order, turns the
    sums of K ∖ w into those of K (see ``_peel``). A ghost vertex g gives
    K_(J ∪ g) = K_J, so it multiplies the sums by 1 + x, x counting |J|.
    """
    apexes = k.apexes
    if apexes:
        return _hochster_tables(k.link(apexes))
    core, peels = _peel(k)
    width = k.dim + 2  # β̃_d sits at d + 1
    sums = _core_sums(core, width)
    for n, f in reversed(peels):
        sums = _times_one_plus_x(sums)
        sums[1][0] -= 1  # K_w is a point, not {}
        for s in range(2, n + 1):  # J ≠ ∅ missing F ∖ w: w is a new component
            sums[s][1] += comb(n - 1 - f, s - 1)
    for _ in range(k.ghost_mask.bit_count()):
        sums = _times_one_plus_x(sums)
    real, cplx = [0] * width, [0] * (width + k.m)
    for s, row in enumerate(sums):
        for d, b in enumerate(row):
            real[d] += b
            cplx[d + s] += b
    return BettiTable.from_row(real, 0), BettiTable.from_row(cplx, 0)


def _times_one_plus_x(sums: list[list[int]]) -> list[list[int]]:
    """The sums over J ⊆ V ∪ w when K_(J ∪ w) = K_J: row s gains row s - 1."""
    zero = [0] * len(sums[0])
    pairs = zip(sums + [zero], [zero] + sums)
    return [[a + b for a, b in zip(row, below)] for row, below in pairs]


def _peel(k: SimplicialComplex) -> tuple[SimplicialComplex, list[tuple[int, int]]]:
    """The core of ``k`` left by peeling free vertices, and (n, f) per vertex peeled.

    A free vertex w lies in one facet F, so for J ⊆ V ∖ w, K_(J ∪ w) is
    K_J with w coned onto the simplex (F ∖ w) ∩ J: a homotopy equivalent
    complex if J meets F ∖ w, one more component if J ≠ ∅ does not, and
    a point if J = ∅. With n the vertices of K, w among them, and
    f = |F ∖ w|, the sums of K are (1 + x) times those of K ∖ w, plus
    C(n - 1 - f, s - 1) at β̃_0 of each s ≥ 2, minus 1 at β̃_-1 of s = 1.
    The vertices in one facet only are those in ``once`` and not in
    ``twice``; a round peels all of them, and peeling can free more.
    """
    peels = []
    core = k
    while True:
        once = twice = 0
        for face in core.facets:
            twice |= once & face
            once |= face
        free = once & ~twice
        if not free:
            return core, peels
        rest = core.vertices_mask
        for face in core.facets:
            own = face & free
            while own:
                w = own & -own
                own ^= w
                peels.append((rest.bit_count(), (face & rest).bit_count() - 1))
                rest ^= w
        core = SimplicialComplex(rest, [face & rest for face in core.facets])


def _core_sums(core: SimplicialComplex, width: int) -> list[list[int]]:
    """The sums T[s][d + 1] over J ⊆ V(core), from the changes of ``subset_walk``.

    The walk is of ``_heaviest_stars_first(core)``, as the sums do not
    depend on labels. The change that J ∪ v makes to its parent's Betti
    row recurs in each of the 2^a sets J ∪ v ∪ S, S above v, and C(a, i)
    of them have |S| = i, so it adds to row |J ∪ v| + i with weight C(a, i).
    """
    n = core.vertices_mask.bit_count()
    # changes[s][a]: the Betti changes of the J with s vertices, a of V above top(J)
    changes = [[[0] * width for _ in range(n + 1)] for _ in range(n + 1)]
    for _ in subset_walk(_heaviest_stars_first(core), changes):
        pass
    sums = [[0] * width for _ in range(n + 1)]
    for s, by_above in enumerate(changes):
        for a, row in enumerate(by_above):
            for d, b in enumerate(row):
                if b:
                    for i in range(a + 1):
                        sums[s + i][d] += b * comb(a, i)
    return sums


def _heaviest_stars_first(core: SimplicialComplex) -> tuple[int, ...]:
    """The faces of ``core`` relabeled 1..n by descending Σ_{f ∋ v} 2^-|f|.

    Ties keep label order, and the faces keep theirs. The walk reduces a
    face f once for each J below top(f) that holds f ∖ top(f),
    2^(pos(top f) - |f| + 1) times, so vertices in many small faces go
    first. The sums do not depend on labels.
    """
    faces = core.faces()
    top = core.dim + 1
    weight = dict.fromkeys(mask_vertices(core.vertices_mask), 0)
    for f in faces[1:]:
        w = 1 << top - f.bit_count()
        for v in mask_vertices(f):
            weight[v] += w
    order = sorted(weight, key=lambda v: -weight[v])
    new = {0: 0} | {1 << v - 1: 1 << i for i, v in enumerate(order)}
    for f in faces:  # f less its lowest vertex comes before f
        new[f] = new[f & f - 1] | new[f & -f]
    return tuple(new[f] for f in faces)


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
        # bit 0 of the 2-bit field of every coordinate up to the top one
        self._field_lows = ((1 << 2 * ambient.bit_length()) - 1) // 3
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
            signs = submasks(_spread(self.ambient & ~face, 2))
            by_dim[free.bit_count()] += [low + s for s in signs]
        while by_dim and not by_dim[-1]:
            by_dim.pop()
        return tuple(tuple(cells) for cells in by_dim)

    def counts(self) -> tuple[int, ...]:
        return tuple(len(cells) for cells in self.cells_by_dim)

    def boundary(self, cell: int) -> list[int]:
        """Cells of one dimension lower in the F2 boundary of ``cell``.

        Code 3 has both bits of its field set, so ``cell & cell >> 1`` holds
        bit 0 of exactly the [-1,1] fields; their ends {-1} and {1} are codes
        0 and 2, the cell less 3 or 1 in that field.
        """
        out = []
        intervals = cell & cell >> 1 & self._field_lows
        while intervals:
            low = intervals & -intervals
            out += (cell - 3 * low, cell - low)
            intervals ^= low
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
        """β_d at entry d + 1 of one ``add_faces`` row, cells indexed by dimension."""
        by_dim = self.cells_by_dim
        index = {c: i for i, c in enumerate(chain.from_iterable(by_dim))}
        items = [(cell, 0, 1) for cell in by_dim[0]] if by_dim else []
        try:
            for d, cells in enumerate(by_dim[1:], 2):
                for cell in cells:
                    col = 0
                    for child in self.boundary(cell):
                        col |= 1 << index[child]
                    items.append((cell, col, d))
        except KeyError:  # a boundary cell with no face of its own
            raise ValueError(
                "every face of a cubical model must contain zero, and the "
                "faces must be closed under removing vertices outside zero"
            ) from None
        betti = [0] * (len(by_dim) + 1)
        add_faces(items, {}, betti, [])
        return BettiTable.from_row(betti[1:], 0)

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
