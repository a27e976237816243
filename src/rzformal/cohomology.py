"""Reduced simplicial cohomology with F2 coefficients.

Conventions for the augmented cochain complex:

* the empty face sits in degree -1, so the complex {} has reduced
  cohomology F2 there and a nonvoid complex with a vertex has none;
* the void complex has no faces and zero cohomology everywhere.

Betti numbers come from one column reduction, ``add_faces``, of the
``boundary_items`` of a whole face list in ``hom_data``, and of the
faces beyond {v} that each J ∪ v adds to K_J in ``subset_walk``, the
one walk over vertex subsets J. Shared results follow one policy,
``memoized``: each cache keeps its last ``MEMO_BOUND`` entries, each
keyed by the exact data it is computed from. ``_hom_cache`` holds the
restriction test's face lists, keyed by the tuple itself, and ``_memo``
the Hochster walks and cubical ranks.

The one restriction map is onto a star deletion A = X ∖ st σ.
Over a field the long exact sequence of the pair gives

    Σ_d dim H^d(X, A) = β̃(X) + β̃(A) - 2 Σ_d rank(H̃^d(X) -> H̃^d(A)),

so the restriction is zero exactly when β(X, A) = β̃(X) + β̃(A). The
relative cochains live on the faces that contain σ, the link of σ in X
shifted up by |σ|, so β(X, A) is the link's total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simplicial import mask_vertices


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

    @property
    def total(self) -> int:
        return sum(self.dims)

    def to_json_obj(self) -> dict:
        dims = list(self.dims)
        return {"min_degree": self.min_degree, "dims": dims, "total": self.total}


# census flag m=5 meets 3,686 distinct keys; the last 1,024 keep nearly
# every hit and add under 1 MB to its peak. A formal non-cone check at
# m = 18 would keep 30,948 face lists, and double its peak, without it
MEMO_BOUND = 1024
_memo: dict[tuple, object] = {}
# apart from ``_memo``: sharing one dict makes each evict the other's hits
_hom_cache: dict[tuple[int, ...], BettiTable] = {}


def clear_caches() -> None:
    _hom_cache.clear()
    _memo.clear()


def memoized(key: tuple, compute, arg, cache: dict | None = None):
    """``compute(arg)``, kept under ``key`` among the last ``MEMO_BOUND`` results.

    ``cache`` is ``_memo`` unless given, read at each call. The oldest
    entry goes first. ``key`` must hold everything the result depends
    on; callers check their caps before they call this.
    """
    memo = _memo if cache is None else cache
    try:
        return memo[key]
    except KeyError:
        pass
    value = compute(arg)
    if len(memo) >= MEMO_BOUND:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def boundary_items(faces: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(face, boundary column, |face|) per face, a column a bitmask over ``faces``."""
    index = {f: i for i, f in enumerate(faces)}
    items = []
    for f in faces:
        col = 0
        rest = f
        while rest:
            low = rest & -rest
            col |= 1 << index[f ^ low]
            rest ^= low
        items.append((f, col, f.bit_count()))
    return items


def add_faces(items, pivots: dict[int, int], betti: list[int], added: list[int], within=-1) -> int:
    """Reduce the columns of the ``boundary_items`` whose faces lie in ``within``.

    Each column is reduced against ``pivots``, keyed by highest bit. A
    d-face bears a d-cycle if its column reduces to zero and else kills
    a (d-1)-class. ``betti[d + 1]`` gains the change in β̃_d; it is exact
    whenever the faces added so far, with those reduced before, form a
    complex, so rows may sum the changes of many calls. New pivot keys
    go to ``added``, so deleting them undoes the call. Returns the number
    of faces reduced.
    """
    taken = 0
    for f, col, d in items:
        if f | within != within:
            continue
        taken += 1
        while col:
            p = col.bit_length()
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                added.append(p)
                betti[d - 1] -= 1
                break
            col ^= other
        else:
            betti[d] += 1
    return taken


def _walk_groups(k) -> dict[int, list[tuple[int, int, int]]]:
    """The ``boundary_items`` of k's faces of two or more vertices, by top vertex.

    Keyed by the top vertex v as a one-bit mask, each group ascending by
    face. The faces that K_(J ∪ v), v above J, adds to K_J are {v} and
    those of group v inside J ∪ v; a face's boundary faces come before
    it, in K_J or earlier in its group.
    """
    groups = {1 << v - 1: [] for v in mask_vertices(k.vertices_mask)}
    for item in sorted(boundary_items(k.faces())):
        if item[2] > 1:
            groups[1 << item[0].bit_length() >> 1].append(item)
    return groups


def subset_walk(k, changes=None):
    """Yield (J, β̃(K_J)) for each J ⊆ V(k) with β̃(K_J) ≠ 0, lexicographic in J.

    Depth first, one frame per vertex of the current path on an explicit
    stack, so no vertex count meets the recursion limit. Entering J ∪ v,
    v above top(J), takes the vertex {v} without reduction: it kills the
    class of {} if J = ∅ and else bears a 0-cycle. The pivot of a vertex
    sits at the empty face, which no other column reaches, so none is
    kept. Then it reduces the faces of ``_walk_groups(k)[v]`` inside
    J ∪ v into the one pivot dict, and leaving it deletes the pivots they
    added. The change J ∪ v makes to its parent's Betti row goes to
    ``changes[|J ∪ v|][a]``, a the vertices above v, and K_∅'s to
    ``changes[0][|V(k)|]``. A frame carries β̃(K_J): its parent's, plus
    the new faces, less twice the pivots they add. The walk reads k's
    facets and groups now and keeps no reference to k.
    """
    n = k.vertices_mask.bit_count()
    if changes is None:  # totals only: one scratch row takes every change
        changes = [[[0] * (k.dim + 2)] * (n + 1)] * (n + 1)
    return _walk(bool(k.facets), _walk_groups(k), k.vertices_mask, changes)


def _walk(nonvoid: bool, groups, vertices: int, changes):
    """The walk of ``subset_walk``, on what it read of k."""
    pivots: dict[int, int] = {}
    added: list[int] = []
    if nonvoid:  # K_∅ = {}: its one face bears a (-1)-cycle
        changes[0][vertices.bit_count()][0] += 1
        yield 0, 1
    # per J on the path: J, the vertices above top(J) still to append,
    # len(added) once K_J is in, and β̃(K_J); each pass enters one J ∪ v
    frames = [[0, vertices, 0, int(nonvoid)]] if vertices else []
    while frames:
        frame = frames[-1]
        j_mask, above, mark, total = frame
        if len(added) > mark:  # leave J's last child
            for p in added[mark:]:
                del pivots[p]
            del added[mark:]
        v = above & -above
        above ^= v
        grown = j_mask | v
        row = changes[len(frames)][above.bit_count()]
        if j_mask:
            row[1] += 1
            taken = add_faces(groups[v], pivots, row, added, grown)
            total += 1 + taken - 2 * (len(added) - mark)
        else:
            row[0] -= 1
            total -= 1
        if total:
            yield grown, total
        if above:
            frame[1] = above
            frames.append([grown, above, len(added), total])
        else:  # J ∪ v holds the top vertex: J is done
            frames.pop()


def _build_hom_data(faces: tuple[int, ...]) -> BettiTable:
    betti = [0] * (max(map(int.bit_count, faces), default=-1) + 1)
    add_faces(boundary_items(faces), {}, betti, [])
    return BettiTable.from_dict(dict(enumerate(betti, -1)))


def hom_data(faces: tuple[int, ...]) -> BettiTable:
    """Reduced Betti table of a face list in any order, memoized in ``_hom_cache``."""
    return memoized(faces, _build_hom_data, faces, _hom_cache)


def _restriction_map_trivial(faces: tuple[int, ...], sigma: int, total: int) -> bool:
    """Whether H̃*(X) -> H̃*(X ∖ st σ) vanishes, for a face σ of X.

    Decided from ``total`` = β̃(X), then β̃ of the deletion (the faces not
    containing σ), then β̃(lk_X σ) = β(X, X ∖ st σ), each only if the
    ones before are nonzero. Any face order gives the same verdict.
    """
    if total == 0:
        return True
    deleted = hom_data(tuple(f for f in faces if f & sigma != sigma)).total
    if deleted == 0:
        return True
    link = hom_data(tuple(f ^ sigma for f in faces if f & sigma == sigma))
    return link.total == total + deleted
