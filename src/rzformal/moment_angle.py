"""Betti numbers of moment-angle complexes and their cubical models.

The real moment-angle complex of K sits inside the cube [-1,1]^m; its
F2 Betti numbers decompose over vertex subsets J as reduced cohomology
of the full subcomplexes K_J (degree shift 1). The complex version has
shift |J| + 1 and the same total dimension. Both are read off the sums
T[s][d] of β̃_d(K_J) over the J with |J| = s. A vertex in one facet only
changes these sums by a closed form, so such vertices are peeled off
first, and only the core that is left is summed over its J, by
``cohomology.subset_sums``, every J at once.

``CubicalComplex`` recomputes these numbers from cells of the cube, each
coordinate one of the points {-1}, {0}, {1} or the interval [-1,1]. The
plain model has one cell per face sigma and sign pattern off sigma. No
cell is ever generated: a cell is indexed by its face and sign pattern,
so a boundary column is a few shifts of masks read off the faces.

The reflection in coordinate i fixes the points with x_i = 0. Those of
RZ_K with x_i = 0 on I lie over the faces containing I, and cutting the
cube at 0 along I alone makes them a subcomplex: a cell per face
containing I and sign pattern off it, with {0} on I, at most 3^m cells.
Reading the fixed set off the cube never uses the link formula that it
checks.

Neither result depends on the vertex labels. A model whose cells are {0}
on ``zero`` has the cells of the model with those coordinates dropped,
and an order-preserving relabeling keeps every cell index and boundary;
the Hochster tables depend on K up to isomorphism. So the memo keys are
taken up to order-preserving relabeling: two (K, I) whose fixed models
agree once the held coordinates are dropped share one rank, and two links
that agree once their labels are closed up share one table.

Every computation exponential in the vertex count m checks one entry of
``simplicial.CAPS`` with ``check_cap`` before it starts: the 2^m sums
over vertex subsets here and in the general criterion, the cubical
models with up to 3^m cells, and census enumeration.
"""

from __future__ import annotations

from math import comb

from .cohomology import BettiTable, add_faces, memoized, subset_sums
from .simplicial import SimplicialComplex, check_cap, squeeze


def _hochster_tables(k: SimplicialComplex) -> tuple[BettiTable, BettiTable]:
    """Real and complex tables of ``k``, kept on it and memoized on its ambient set and facets.

    The ambient set is in the key because ghost vertices scale the tables.
    On a miss, a complex whose ambient set is not 1..m is looked up again
    as ``k.squeezed()``, its labels closed up in order: the tables do not
    depend on the labels. So every complex with the same facets and
    vertices up to an order-preserving relabeling shares one walk, such as
    the links lk_K(I) that recur across a census. The cap comes first.
    """
    check_cap("hochster", k.m)
    tables = k._cache.get("tables")
    if tables is None:
        tables = k._cache["tables"] = memoized((k.ambient, k.facets), _squeezed_tables, k)
    return tables


def _squeezed_tables(k: SimplicialComplex) -> tuple[BettiTable, BettiTable]:
    """The tables of ``k`` by way of the memo entry of ``k.squeezed()``."""
    if k.ambient == (1 << k.m) - 1:
        return _walk_tables(k)
    squeezed = k.squeezed()
    return memoized((squeezed.ambient, squeezed.facets), _walk_tables, squeezed)


def _walk_tables(k: SimplicialComplex) -> tuple[BettiTable, BettiTable]:
    """Real and complex tables from the sums T[s][d] = Σ_{|J|=s} β̃_d(K_J).

    β̃_d(K_J) adds to degree d + 1 of the real space, d + |J| + 1 of the
    complex one. A cone is summed once, as the link L of its apexes A: a
    K_J that meets A is a cone, any other is L_J, and L keeps K's ghosts.
    Otherwise ``_peel`` takes off free vertices, ``subset_sums`` sums over
    the J of the core left, and each peeled vertex w, in the reverse
    order, turns the sums of K ∖ w into those of K (see ``_peel``). A
    ghost vertex g gives K_(J ∪ g) = K_J, so it multiplies the sums by
    1 + x, x counting |J|.
    """
    apexes = k.apexes
    if apexes:
        return _hochster_tables(k.link(apexes))
    core, peels = _peel(k)
    width = k.dim + 2  # β̃_d sits at d + 1
    sums = subset_sums(core.faces(), width)
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


_NOT_A_MODEL = (
    "every face of a cubical model must contain zero, and the "
    "faces must be closed under removing vertices outside zero"
)


class CubicalComplex:
    """A cubical complex in [-1,1]^m read off the faces of one complex.

    A cell is two vertex masks, ``lo | hi << w`` with w the bit length of
    the ambient set; coordinate v is {-1} in neither, {0} in lo only, {1}
    in hi only and [-1,1] in both. Besides the face masks, a complex
    keeps ``zero``, the coordinates held at 0. Every face sigma must
    contain ``zero``; its cells carry {0} on ``zero``, [-1,1] on the rest
    of sigma, and -1 or 1 off sigma. The faces must be closed under
    removing a vertex outside ``zero``, so that the cells are closed
    under taking boundaries; ``betti`` raises ValueError if either fails.
    No cell is generated: a cell is indexed by its face and sign pattern.
    """

    def __init__(self, ambient: int, faces: tuple[int, ...], zero: int):
        self.ambient = ambient
        self.faces = faces
        self.zero = zero
        self._w = ambient.bit_length()

    @property
    def m(self) -> int:
        return self.ambient.bit_count()

    def _offsets(self) -> tuple[dict[int, int], list[int]]:
        """``base``, the index of each face's first cell, and the cell counts.

        The cells of face sigma have dimension |sigma ∖ zero|. The one whose
        sign pattern, read on the bits of ``ambient ∖ sigma`` from the lowest
        up with 1 for {1}, is i has index ``base[sigma] + i`` in it.
        """
        base = {}
        sizes = [0] * (self.m + 1)
        for f in self.faces:
            d = (f & ~self.zero).bit_count()
            base[f] = sizes[d]
            sizes[d] += 1 << (self.ambient & ~f).bit_count()
        while sizes and not sizes[-1]:
            sizes.pop()
        return base, sizes

    def counts(self) -> tuple[int, ...]:
        return tuple(self._offsets()[1])

    def boundary(self, cell: int) -> list[int]:
        """Cells of one dimension lower in the F2 boundary of ``cell``.

        The intervals are the coordinates in both masks; the ends of one,
        {-1} and {1}, drop it from both masks or from lo.
        """
        out = []
        w = self._w
        intervals = cell & cell >> w
        while intervals:
            v = intervals & -intervals
            out += (cell - v - (v << w), cell - v)
            intervals ^= v
        return out

    def betti(self) -> BettiTable:
        """Cellular F2 homology Betti numbers.

        Memoized on the data the cells are read from, the ambient set,
        ``zero`` and the faces, so models with the same cells share one
        rank and no other result is ever read for them. On a miss, the
        model is looked up again as ``squeezed()``, the same cells with
        the coordinates held at 0 dropped; ``_rank`` builds the same
        columns for both.
        """
        # three fields, where a Hochster key has two: the kinds never collide
        key = (self.ambient, self.zero, self.faces)
        return memoized(key, CubicalComplex._squeezed_betti, self)

    def _squeezed_betti(self) -> BettiTable:
        """The Betti numbers by way of the memo entry of ``squeezed()``."""
        if self.zero == 0 and self.ambient == (1 << self.m) - 1:
            return self._rank()
        model = self.squeezed()
        return memoized((model.ambient, 0, model.faces), CubicalComplex._rank, model)

    def squeezed(self) -> "CubicalComplex":
        """The model on ambient 1..n of ``ambient ∖ zero``, its labels closed up in order.

        Every cell is {0} on ``zero``, so dropping those coordinates, and
        closing up the rest in order, keeps each face's cells, their
        indices and their boundaries. Raises ValueError if a face does not
        contain ``zero``.
        """
        zero = self.zero
        for f in self.faces:
            if f & zero != zero:
                raise ValueError(_NOT_A_MODEL)
        keep = self.ambient & ~zero
        return CubicalComplex((1 << keep.bit_count()) - 1, squeeze(self.faces, keep), 0)

    def _columns(self, face: int, base: dict[int, int]) -> list[tuple[int, int]]:
        """(mask, low) per vertex v of ``face`` off ``zero``, for its columns.

        The column of cell i of ``face`` is the sum over v of ``mask`` shifted
        by ins(i, p) = 2i − (i & low), low = 2^p − 1, which inserts a 0 bit
        into i at p, the number of bits of ``ambient ∖ face`` below v: the
        ends of v are the cells of ``face ∖ v`` whose patterns are i with v
        at bit p. The masks are read off ``boundary`` of the cell i = 0.
        """
        w, off = self._w, self.ambient & ~face
        ends: dict[int, int] = {}
        for child in self.boundary(face | (face & ~self.zero) << w):
            lo = child & ((1 << w) - 1)
            index, ones = base[lo], child >> w & ~lo  # ones: the coordinates at {1}
            while ones:
                u = ones & -ones
                index += 1 << (self.ambient & ~lo & u - 1).bit_count()
                ones ^= u
            v = face ^ lo
            ends[v] = ends.get(v, 0) | 1 << index
        return [(mask, (1 << (off & v - 1).bit_count()) - 1) for v, mask in ends.items()]

    def _rank(self) -> BettiTable:
        """β_d = c_d − r_d − r_(d+1) at entry d + 1, the ranks r by ``add_faces``.

        Top dimension first, with clearing (Chen and Kerber, 2011): a
        reduced d-column is a cycle, so the (d−1)-cell at its pivot row has
        a boundary in the span of those of the rows before it. Its column
        is never built and counts as zero; r_(d−1) is unchanged.

        A column's rows are found by ``_columns`` from the faces alone, so
        closure is checked on the faces. The boundary cells of a cell of
        sigma are, for each v in sigma ∖ zero, cells of sigma ∖ v, which
        exist exactly when sigma ∖ v is a face.
        """
        faces = set(self.faces)
        for f in self.faces:
            free = f & ~self.zero
            while free:
                v = free & -free
                if f ^ v not in faces:
                    raise ValueError(_NOT_A_MODEL)
                free ^= v
        base, sizes = self._offsets()
        by_dim: list[list[int]] = [[] for _ in sizes]
        for f in self.faces:
            by_dim[(f & ~self.zero).bit_count()].append(f)
        betti = [0] * (len(sizes) + 1)
        cleared: set[int] = set()  # indices of (d−1)-cells at pivot rows
        for d in range(len(sizes) - 1, 0, -1):
            items = []
            for f in by_dim[d]:
                first = base[f]
                parts = self._columns(f, base)
                for i in range(1 << (self.ambient & ~f).bit_count()):
                    if first + i in cleared:
                        continue
                    col = 0
                    for mask, low in parts:
                        col |= mask << (i << 1) - (i & low)
                    items.append((first + i, col, d + 1))
            betti[d + 1] += len(cleared)
            added: list[int] = []
            add_faces(items, {}, betti, added)
            cleared = {p - 1 for p in added}
        if sizes:  # a 0-cell's column is empty
            betti[1] += sizes[0]
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
