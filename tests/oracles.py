"""Independent reference implementations used only by the tests.

Everything here avoids the package's bitmask representation on
purpose: matrices are dense lists of 0/1 ints, faces are frozensets,
and elimination is the textbook row-by-row sweep. Slow but obviously
correct, which is the point. The exception is ``subdivided_model``, the
package's cubical model cut at 0 along every coordinate, which the
tests hold against the model cut along I alone.
"""

from itertools import combinations

from rzformal.moment_angle import CubicalComplex


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


def subdivided_model(k):
    """Cubical model of RZ_K cut at 0 along every coordinate."""
    return CubicalComplex(k.ambient, k.faces(), k.ambient, 0)
