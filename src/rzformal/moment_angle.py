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
coordinate one of the points {-1}, {1} or the interval [-1,1]. The
plain model has one cell per face sigma and sign pattern off sigma. No
cell is ever generated: a cell is indexed by its face and sign pattern,
so a boundary column is a few shifts of masks read off the faces.

The reflection in coordinate i fixes the points with x_i = 0. Those of
RZ_K with x_i = 0 on I lie over the faces containing I, and cutting the
cube at 0 along I alone makes them a subcomplex: a cell per face sigma
containing I and sign pattern off sigma, with {0} on I. Dropping the
coordinates of I leaves the plain model on the ambient set less I of the
faces sigma ∖ I, at most 3^m cells. They are read off the faces of K's
own model, so the fixed set never uses the link formula that it checks.

Neither result depends on the vertex labels. A relabeling of the
coordinates maps the cells of a model and their boundaries onto those of
the relabeled model, and the Hochster tables depend on K up to
isomorphism. So the memo keys are taken up to any relabeling
(``cohomology.memoized_up_to_relabeling``): isomorphic models may share
one rank and isomorphic complexes one walk, each computed on the object
that first asked.

Every computation exponential in the vertex count m checks one entry of
``simplicial.CAPS`` with ``check_cap`` before it starts: the 2^m sums
over vertex subsets here and in the general criterion, the cubical
models with up to 3^m cells, and census enumeration.
"""

from __future__ import annotations

from math import comb

from .cohomology import BettiTable, add_faces, memoized_up_to_relabeling, subset_sums
from .simplicial import SimplicialComplex, check_cap, submasks


def _hochster_tables(k: SimplicialComplex) -> tuple[BettiTable, BettiTable]:
    """Real and complex tables of ``k``, kept on it and memoized up to relabeling.

    The key is the ambient set and the facets, which ghost vertices scale
    the tables by; the tables do not depend on the labels, so every
    complex isomorphic to one already walked, such as the links lk_K(I)
    that recur across a census, may share its walk. The cap comes first.
    """
    check_cap("hochster", k.m)
    tables = k._cache.get("tables")
    if tables is None:
        tables = k._cache["tables"] = memoized_up_to_relabeling(
            (k.ambient, k.facets), _walk_tables, k
        )
    return tables


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


def betti_totals(k: SimplicialComplex) -> tuple[int, int]:
    """The total real and complex Betti numbers of ``k``, kept on it beside its tables.

    The cap comes first, as in ``_hochster_tables``; the first call reads
    the tables through ``hochster_real_betti`` and ``hochster_complex_betti``.
    """
    check_cap("hochster", k.m)
    totals = k._cache.get("totals")
    if totals is None:
        totals = hochster_real_betti(k).total, hochster_complex_betti(k).total
        k._cache["totals"] = totals
    return totals


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


_NOT_CLOSED = "the faces of a cubical model must be closed under removing a vertex"


class CubicalComplex:
    """A cubical complex in [-1,1]^m read off the faces of one complex.

    A cell is two vertex masks, ``lo | hi << w`` with w the bit length of
    the ambient set; coordinate v is {-1} in neither, {1} in hi only and
    [-1,1] in both. The cells of a face sigma are [-1,1] on sigma and -1
    or 1 off it, so lo is sigma. The faces must be closed under removing
    a vertex, so that the cells are closed under taking boundaries;
    ``betti`` raises ValueError if they are not. No cell is generated: a
    cell is indexed by its face and sign pattern.
    """

    def __init__(self, ambient: int, faces: tuple[int, ...]):
        self.ambient = ambient
        self.faces = faces
        self._w = ambient.bit_length()
        self._stars: dict[int, tuple[int, ...]] | None = None

    @property
    def m(self) -> int:
        return self.ambient.bit_count()

    def _offsets(self) -> tuple[dict[int, int], list[int]]:
        """``base``, the index of each face's first cell, and the cell counts.

        The cells of face sigma have dimension |sigma|. The one whose sign
        pattern, read on the bits of ``ambient ∖ sigma`` from the lowest up
        with 1 for {1}, is i has index ``base[sigma] + i`` in it.
        """
        base = {}
        sizes = [0] * (self.m + 1)
        for f in self.faces:
            d = f.bit_count()
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
        {-1} and {1}, drop it from both masks or from lo. The cell-level
        reference for the columns that ``_rank`` builds from the faces,
        which never generate a cell.
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

        Memoized up to relabeling on the data the cells are read from, the
        ambient set and the faces: a relabeling of the coordinates maps the
        cells and their boundaries onto those of the relabeled model, so
        isomorphic models may share one rank.
        """
        # three fields, where a Hochster key has two: the kinds never collide
        return memoized_up_to_relabeling((self.ambient, 0, self.faces), CubicalComplex._rank, self)

    def _columns(self, face: int, base: dict[int, int]) -> list[tuple[int, int]]:
        """(mask, low) per vertex v of ``face``, for its columns.

        The column of cell i of ``face`` is the sum over v of ``mask`` shifted
        by ins(i, p) = 2i − (i & low), low = 2^p − 1, which inserts a 0 bit
        into i at p, the number of bits of ``ambient ∖ face`` below v: the
        ends of v, {-1} and {1}, are the cells of ``face ∖ v`` whose patterns
        are i with 0 or 1 at bit p, so ``mask`` is bits 0 and 2^p shifted by
        ``base[face ∖ v]``. Raises ValueError if ``face ∖ v`` is not a face.
        """
        off, parts, rest = self.ambient & ~face, [], face
        while rest:
            v = rest & -rest
            rest ^= v
            row = base.get(face ^ v)
            if row is None:
                raise ValueError(_NOT_CLOSED)
            low = (1 << (off & v - 1).bit_count()) - 1
            parts.append(((1 | 1 << low + 1) << row, low))
        return parts

    def _rank(self) -> BettiTable:
        """β_d = c_d − r_d − r_(d+1) at entry d + 1, the ranks r by ``add_faces``.

        Top dimension first, with clearing (Chen and Kerber, 2011): a
        reduced d-column is a cycle, so the (d−1)-cell at its pivot row has
        a boundary in the span of those of the rows before it. Its column
        is never built and counts as zero; r_(d−1) is unchanged.

        ``_columns`` runs on every face of size ≥ 1, cleared or not, and
        looks up each face sigma ∖ v: those lookups check that the faces
        are closed under removing a vertex.
        """
        base, sizes = self._offsets()
        by_dim: list[list[int]] = [[] for _ in sizes]
        for f in self.faces:
            by_dim[f.bit_count()].append(f)
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
        union of cells, closed under taking faces: a cell per face sigma
        containing I and sign pattern off sigma, {0} on I. With the
        coordinates of I dropped, these are the cells of the model on
        ``ambient ∖ I`` of the faces sigma ∖ I, read off this model's faces,
        in their order. The faces sigma ∖ I of every I are indexed once per
        model, in one pass over each face's subfaces: Σ 2^|sigma| entries,
        at most 3^m. An I in no face has none.
        """
        if i_mask & ~self.ambient:
            raise ValueError("coordinate set is not contained in the vertex set")
        if self._stars is None:
            index: dict[int, list[int]] = {}
            for f in self.faces:
                for sub in submasks(f):
                    index.setdefault(sub, []).append(f ^ sub)
            self._stars = {i: tuple(faces) for i, faces in index.items()}
        return CubicalComplex(self.ambient ^ i_mask, self._stars.get(i_mask, ()))

    def __repr__(self) -> str:
        return f"CubicalComplex(m={self.m}, faces={len(self.faces)})"


def build_cubical(k: SimplicialComplex) -> CubicalComplex:
    """Cell model of the real moment-angle complex of ``k``; the cap comes first."""
    check_cap("cubical", k.m)
    model = k._cache.get("cubical")
    if model is None:
        model = k._cache["cubical"] = CubicalComplex(k.ambient, k.faces())
    return model
