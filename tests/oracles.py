"""Independent reference implementations used only by the tests.

Everything here avoids the package's bitmask representation on
purpose: matrices are dense lists of 0/1 ints, faces are frozensets,
and elimination is the textbook row-by-row sweep. Slow but obviously
correct, which is the point. The cubical model of RZ_K below is cut at
0 along any given coordinates; its cells are tuples of per-coordinate
intervals, not the package's vertex masks, and its boundary rows are sets
of column numbers, since a dense matrix over up to 5^m cells is too
slow to rank. ``verify_by_parsing`` is the census verifier that reads every
line in full, the reference for the one that compares lines as bytes.
"""

from collections import Counter
from itertools import combinations, product

from rzformal import census
from rzformal.formality import FixedPointModelError
from rzformal.simplicial import InputError, cap, read_caps_once


def dense_rank(rows):
    """GF(2) rank of a dense 0/1 matrix given as lists."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def dense_rref(rows, ncols):
    """Reduced row echelon form and pivot columns, dense lists."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    return [r for r in mat[:rank]], pivots


def dense_kernel(rows, ncols):
    """Basis of the right null space, one dense vector per free column."""
    ech, pivots = dense_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, pcol in zip(ech, pivots):
            if row[free]:
                vec[pcol] = 1
        basis.append(vec)
    return basis


def in_row_space(vec, rows):
    """Membership test via a rank comparison."""
    base = [list(r) for r in rows]
    return dense_rank(base + [list(vec)]) == dense_rank(base)


def reduced_betti_dense(faces):
    """Reduced F2 Betti numbers of a face family given as frozensets.

    Includes the empty face convention: a family containing only
    frozenset() has one dimension in degree -1, the empty family has
    none anywhere. Returns a dict degree -> dimension with zero values
    dropped.
    """
    faces = {frozenset(f) for f in faces}
    if not faces:
        return {}
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for fs in by_dim.values():
        fs.sort(key=sorted)
    top = max(by_dim)
    ranks = {}
    for d in range(-1, top + 1):
        lower = by_dim.get(d, [])
        upper = by_dim.get(d + 1, [])
        if not lower or not upper:
            ranks[d + 1] = 0
            continue
        rows = []
        for tau in upper:
            row = [1 if f < tau else 0 for f in lower]
            rows.append(row)
        # rows index the (d+1)-faces; columns the d-faces; the rank of
        # the incidence matrix is the rank of the coboundary map C^d -> C^{d+1}
        ranks[d + 1] = dense_rank(rows)
    betti = {}
    for d in range(-1, top + 1):
        n = len(by_dim.get(d, []))
        b = n - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            betti[d] = b
    return betti


def restriction_trivial_dense(x_faces, a_faces):
    """Whether restriction H̃*(X) -> H̃*(A) is zero, A a subcomplex of X.

    Faces are vertex collections, the empty face included. In every
    degree d, each vector of a basis of the cocycles Z^d(X) is
    restricted to the d-faces of A and must lie in the coboundaries
    B^d(A), the row space spanned by the coboundaries of A's
    (d-1)-faces.
    """

    def by_dim(faces):
        out = {}
        for f in sorted({frozenset(f) for f in faces}, key=lambda f: (len(f), sorted(f))):
            out.setdefault(len(f) - 1, []).append(f)
        return out

    x_dim, a_dim = by_dim(x_faces), by_dim(a_faces)
    for d, x_d in x_dim.items():
        cob = [[1 if f < tau else 0 for f in x_d] for tau in x_dim.get(d + 1, [])]
        a_d = a_dim.get(d, [])
        boundaries = [[1 if g < f else 0 for f in a_d] for g in a_dim.get(d - 1, [])]
        for z in dense_kernel(cob, len(x_d)):
            value = dict(zip(x_d, z))
            if not in_row_space([value[f] for f in a_d], boundaries):
                return False
    return True


def faces_of(facets):
    """Downward closure of an iterable of vertex collections."""
    out = set()
    for facet in facets:
        facet = tuple(facet)
        for r in range(len(facet) + 1):
            for sub in combinations(facet, r):
                out.add(frozenset(sub))
    return out


def cliques_of(vertices, edges):
    """Every subset of ``vertices`` whose pairs are all edges, empty set included."""
    vertices = sorted(vertices)
    edge_set = {frozenset(e) for e in edges}
    return {
        frozenset(c)
        for r in range(len(vertices) + 1)
        for c in combinations(vertices, r)
        if all(frozenset(pair) in edge_set for pair in combinations(c, 2))
    }


def flag_witness_dense(faces, m, i_set):
    """The flag criterion's witness for I, None if formal.

    ``faces`` comes from ``faces_of``. I must be a face; then the witness
    is the first non-edge {j1 < j2} in lexicographic order with a vertex
    i of I off it that misses an end, with the least such i.
    """
    if frozenset(i_set) not in faces:
        return {"kind": "not_a_face", "I": sorted(i_set)}
    vertices = [v for v in range(1, m + 1) if frozenset([v]) in faces]
    for j1, j2 in combinations(vertices, 2):
        if frozenset((j1, j2)) in faces:
            continue
        for i in sorted(set(i_set) - {j1, j2}):
            if frozenset((i, j1)) not in faces or frozenset((i, j2)) not in faces:
                return {"kind": "missing_edge", "edge": [j1, j2], "i": i}
    return None


def general_criterion_dense(faces, m, i_set):
    """(formal, witness) of the general criterion, every map tested afresh.

    ``faces`` comes from ``faces_of``. I must be a face; then for each
    J ⊆ {1..m} in sorted-tuple order with σ = I ∩ J ≠ ∅, the restriction
    H̃*(K_J) -> H̃*(K_J ∖ st σ) must vanish, by the definition unless
    H̃*(K_J) = 0. The witness is the first J that fails. Nothing is kept
    from one J, or one call, to the next.
    """
    i_set = frozenset(i_set)
    if i_set not in faces:
        return False, {"kind": "not_a_face", "I": sorted(i_set)}
    subsets = sorted(c for r in range(m + 1) for c in combinations(range(1, m + 1), r))
    for j in map(frozenset, subsets):
        sigma = i_set & j
        if not sigma:
            continue
        x = [f for f in faces if f <= j]
        deleted = [f for f in x if not sigma <= f]
        if reduced_betti_dense(x) and not restriction_trivial_dense(x, deleted):
            return False, {"kind": "nontrivial_restriction", "J": sorted(j)}
    return True, None


def hochster_real_dense(facets, m):
    """RZ_K Betti numbers from the dense cohomology oracle.

    ``facets`` spans the complex; the ambient set is {1..m} and may
    include ghost vertices. Returns a list indexed from degree 0.
    """
    all_faces = faces_of(facets)
    acc = {}
    for bits in range(1 << m):
        j = {v for v in range(1, m + 1) if bits >> (v - 1) & 1}
        sub = {f for f in all_faces if f <= j}
        for d, b in reduced_betti_dense(sub).items():
            acc[d + 1] = acc.get(d + 1, 0) + b
    if not acc:
        return []
    return [acc.get(d, 0) for d in range(max(acc) + 1)]


def hochster_complex_dense(facets, m):
    """Z_K Betti numbers from the dense cohomology oracle."""
    all_faces = faces_of(facets)
    acc = {}
    for bits in range(1 << m):
        j = {v for v in range(1, m + 1) if bits >> (v - 1) & 1}
        sub = {f for f in all_faces if f <= j}
        for d, b in reduced_betti_dense(sub).items():
            acc[d + len(j) + 1] = acc.get(d + len(j) + 1, 0) + b
    if not acc:
        return []
    return [acc.get(d, 0) for d in range(max(acc) + 1)]


def subset_rows_dense(facets, m):
    """Per J ⊆ V(K), the reduced Betti row of K_J from the dense oracle.

    V(K) holds the vertices of {1..m} that span a face; row entry d + 1
    is β̃_d, for d from -1 to dim K. Keyed by J as a bitmask.
    """
    all_faces = faces_of(facets)
    spanned = set().union(*all_faces) if all_faces else set()
    width = max(map(len, all_faces), default=0) + 1
    rows = {}
    for bits in range(1 << m):
        j = {v for v in range(1, m + 1) if bits >> (v - 1) & 1}
        if j <= spanned:
            row = [0] * width
            for d, b in reduced_betti_dense({f for f in all_faces if f <= j}).items():
                row[d + 1] = b
            rows[bits] = row
    return rows


def subset_sums_dense(facets, m):
    """T[s][d + 1] = Σ β̃_d(K_J) over the J ⊆ V(K) with |J| = s, s = 0..|V(K)|."""
    rows = subset_rows_dense(facets, m)
    width = len(rows[0])
    sums = [[0] * width for _ in range(max(rows).bit_count() + 1)]
    for j, row in rows.items():
        sums[j.bit_count()] = [a + b for a, b in zip(sums[j.bit_count()], row)]
    return sums


# the cells of one coordinate, as intervals (lo, hi): off a face, on it,
# and on it when cut at 0
_OFF = ((-1, -1), (1, 1))
_WHOLE = ((-1, -1), (1, 1), (-1, 1))
_CUT = ((-1, -1), (0, 0), (1, 1), (-1, 0), (0, 1))


def _labels(mask):
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


def cube_cells(k, cut):
    """Every cell of RZ_K in [-1,1]^m, cut at 0 along the coordinate mask ``cut``.

    RZ_K is the union, over the facets sigma of K, of the boxes with
    [-1,1] on sigma and {-1, 1} off it. A cell is a tuple of (coordinate,
    lo, hi), one per ambient coordinate in order: the product of the
    intervals [lo, hi]. The cells of a box are the products of the cells
    of its factors, where a coordinate of ``cut`` splits [-1,1] at 0.
    """
    coords = _labels(k.ambient)
    cut = set(_labels(cut))
    cells = set()
    for facet in k.facets:
        sigma = set(_labels(facet))
        factors = []
        for v in coords:
            pieces = (_CUT if v in cut else _WHOLE) if v in sigma else _OFF
            factors.append([(v, lo, hi) for lo, hi in pieces])
        cells.update(product(*factors))
    return cells


def cube_dim(cell):
    return sum(lo < hi for _, lo, hi in cell)


def cube_boundary(cell):
    """The cells of one dimension lower in the F2 boundary of ``cell``."""
    out = []
    for p, (v, lo, hi) in enumerate(cell):
        if lo < hi:
            out += [cell[:p] + ((v, end, end),) + cell[p + 1:] for end in (lo, hi)]
    return out


def fixed_cells(cells, mask):
    """The cells that are the point 0 on every coordinate of ``mask``, those dropped.

    A cell that lacks a coordinate of ``mask`` is not among them.
    """
    out = set(cells)
    for v in _labels(mask):
        out = {c for c in out if (v, 0, 0) in c}
    return {tuple(x for x in c if not mask >> (x[0] - 1) & 1) for c in out}


def cube_counts(cells):
    """The number of cells of each dimension, () for no cells."""
    by_dim = Counter(cube_dim(c) for c in cells)
    return tuple(by_dim[d] for d in range(max(by_dim, default=-1) + 1))


def _set_rank(rows):
    """GF(2) rank of rows given as sets of column numbers, sum being ^."""
    pivots = {}
    for row in rows:
        while row and max(row) in pivots:
            row = row ^ pivots[max(row)]
        if row:
            pivots[max(row)] = row
    return len(pivots)


def cube_ranks(cells):
    """{d: F2 rank of the boundary map from d-cells} of a closed cell set, d ≥ 1."""
    by_dim = {}
    for c in cells:
        by_dim.setdefault(cube_dim(c), []).append(c)
    ranks = {}
    for d in range(1, max(by_dim, default=-1) + 1):
        column = {c: j for j, c in enumerate(by_dim.get(d - 1, ()))}
        rows = [{column[b] for b in cube_boundary(c)} for c in by_dim.get(d, ())]
        ranks[d] = _set_rank(rows)
    return ranks


def cube_betti(cells):
    """F2 homology Betti numbers of a closed cell set, trailing zeros cut."""
    counts = cube_counts(cells)
    ranks = cube_ranks(cells)
    dims = [
        n - ranks.get(d, 0) - ranks.get(d + 1, 0) for d, n in enumerate(counts)
    ]
    while dims and not dims[-1]:
        dims.pop()
    return dims


# coordinate v of a package cell by its bits in the (hi, lo) masks:
# {-1}, {0}, {1} and [-1,1]
_CODES = {(0, 0): (-1, -1), (0, 1): (0, 0), (1, 0): (1, 1), (1, 1): (-1, 1)}


def decode_cell(cell, ambient):
    """A cell of a package cubical model on ``ambient``, as a ``cube_cells`` cell.

    The package keeps a cell as two masks, ``lo | hi << w`` with w the bit
    length of ``ambient``.
    """
    w = ambient.bit_length()
    return tuple(
        (v, *_CODES[cell >> (w + v - 1) & 1, cell >> (v - 1) & 1]) for v in _labels(ambient)
    )


def model_cells(model):
    """The cells of a package cubical model as its masks, by dimension, in index order.

    Face sigma, in the order of ``model.faces``, has one cell per sign
    pattern on the coordinates off sigma, and [-1,1] on sigma. Pattern i
    puts its bit j, 1 for {1}, on the j-th lowest coordinate off sigma,
    and the cells of a face go up in i.
    """
    w = model.ambient.bit_length()
    by_dim = {}
    for face in model.faces:
        off = _labels(model.ambient & ~face)
        for i in range(1 << len(off)):
            ones = sum(1 << (v - 1) for j, v in enumerate(off) if i >> j & 1)
            by_dim.setdefault(face.bit_count(), []).append(face | (face | ones) << w)
    return [by_dim.get(d, []) for d in range(max(by_dim, default=-1) + 1)]


def decode_cells(model):
    """The cells of a package cubical model; a cell listed twice counts once."""
    return {decode_cell(c, model.ambient) for cells in model_cells(model) for c in cells}


def _plus(x, y):
    """The sum of two 0/1 tuples in (Z/2)^m."""
    return tuple(a ^ b for a, b in zip(x, y))


def subgroups_dense(m):
    """Every subgroup of (Z/2)^m, as the frozenset of its elements (0/1 tuples)."""
    vectors = list(product((0, 1), repeat=m))
    found = {frozenset([vectors[0]])}
    todo = list(found)
    while todo:
        group = todo.pop()
        for v in vectors:
            bigger = group | {_plus(v, a) for a in group}
            if bigger not in found:
                found.add(bigger)
                todo.append(bigger)
    return sorted(found, key=lambda group: (len(group), sorted(group)))


def group_h1_dense(m, edges, a):
    """dim H^1(G; F2), G the preimage of A in the right-angled Coxeter group.

    The Coxeter group of the graph on {1..m} with ``edges`` has generators
    g_v and relators g_v^2 and, for each edge uv, (g_u g_v)^2. It maps onto
    (Z/2)^m, and G is the preimage of A, given as the set of its elements.
    Reidemeister-Schreier rewriting (Magnus, Karrass and Solitar, 1966)
    over the cosets (Z/2)^m / A gives G one generator (c, v) per coset c
    and vertex v. Those on a BFS spanning tree of the coset graph are 1,
    and each relator read from each coset is a relator of G. Read mod 2, a
    relator is the set of generators it passes an odd number of times, so
    dim Hom(G, F2) is the number of generators less the rank of these sets.
    """
    coset = {}  # each x to the least element of x + A
    for x in product((0, 1), repeat=m):  # ascending, so x is the least of a new coset
        if x not in coset:
            coset.update((_plus(x, y), x) for y in a)
    cosets = sorted(set(coset.values()))  # the first is A itself
    units = [tuple(int(u == v) for u in range(m)) for v in range(m)]
    step = {(c, v): coset[_plus(c, units[v])] for c in cosets for v in range(m)}
    column = {key: n for n, key in enumerate(step)}
    rows = []
    seen, queue = {cosets[0]}, [cosets[0]]
    for c in queue:
        for v in range(m):
            d = step[c, v]
            if d not in seen:
                seen.add(d)
                queue.append(d)
                rows.append({column[c, v]})
    relators = [[v, v] for v in range(m)] + [[u - 1, v - 1] * 2 for u, v in edges]
    for c in cosets:
        for word in relators:
            row, here = set(), c
            for v in word:
                row ^= {column[here, v]}
                here = step[here, v]
            rows.append(row)
    return len(column) - _set_rank(rows)


def verify_by_parsing(path):
    """``census.verify_census`` with every line read by ``read_line`` and recomputed."""
    mismatches, corrupt, records = [], [], 0
    last = (None, None)
    with read_caps_once(), open(path, "rb") as f:
        max_m = max(cap(f"census {mode}") for mode in census.MODES)
        for lineno, raw in enumerate(f, 1):
            records += 1
            try:
                line, last, i_mask = census.read_line(raw, max_m, last)
                recomputed = census.compute_record(last[1], i_mask).json_line()
            except InputError:
                corrupt.append(lineno)
                continue
            except FixedPointModelError:
                mismatches.append(lineno)
                continue
            if recomputed != line:
                mismatches.append(lineno)
    return {"records": records, "mismatches": mismatches, "corrupt": corrupt}
