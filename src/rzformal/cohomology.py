"""Reduced simplicial cohomology with F2 coefficients.

Conventions for the augmented cochain complex:

* the empty face sits in degree -1, so the complex {} has reduced
  cohomology F2 there and a nonvoid complex with a vertex has none;
* the void complex has no faces and zero cohomology everywhere.

Every Betti number in the package comes from one column reduction,
``add_faces``: of the ``boundary_items`` of a whole face list in
``hom_data``, of the faces beyond {v} that each J ∪ v adds to K_J in
``subset_walk``, the one walk over vertex subsets J, and of the cells
of a cubical model in ``moment_angle``. Shared results follow one policy,
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


@dataclass(frozen=True)
class BettiTable:
    """Betti numbers from degree ``min_degree``, trailing zeros cut.

    ``min_degree`` is -1 for the reduced cohomology of a complex and 0
    for the spaces built from one.
    """

    min_degree: int
    dims: tuple[int, ...]

    @classmethod
    def from_row(cls, row: list[int], min_degree: int) -> "BettiTable":
        """The table of ``row``, whose entry 0 is degree ``min_degree``."""
        dims = list(row)
        while dims and not dims[-1]:
            dims.pop()
        return cls(min_degree, tuple(dims))

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
    """Reduce the (face, column, d + 1) items whose faces lie in ``within``.

    A d-face is a simplex of ``boundary_items`` or a d-cell of a cubical
    model, its column a bitmask over positions of (d-1)-faces, reduced
    against ``pivots``, keyed by highest bit. A d-face bears a d-cycle if
    its column reduces to zero and else kills a (d-1)-class.
    ``betti[d + 1]`` gains the change in β̃_d; it is exact whenever the
    faces added so far, with those reduced before, form a complex, so
    rows may sum the changes of many calls. New pivot keys go to
    ``added``, so deleting them undoes the call. Returns the number of
    faces reduced.
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


def _walk_groups(faces: tuple[int, ...]) -> dict[int, list[tuple[int, int, int]]]:
    """The ``boundary_items`` of faces of two or more vertices, by top vertex.

    Keyed by every vertex as a one-bit mask, each group ascending by face,
    so a face's boundary faces come before it, in K_J or in its group.
    """
    groups = {f: [] for f in faces if f.bit_count() == 1}
    for item in sorted(boundary_items(faces)):
        if item[2] > 1:
            groups[1 << item[0].bit_length() >> 1].append(item)
    return groups


def subset_walk(faces: tuple[int, ...], changes=None):
    """Yield (J, β̃(K_J)) for each J ⊆ V(K) with β̃(K_J) ≠ 0, lexicographic in J.

    K is the complex of ``faces``, in any order; () is the void complex.
    Depth first, one frame per vertex of the path on an explicit stack.
    K_(J ∪ v), v above top(J), adds {v} and the faces of group v inside
    J ∪ v to K_J. The vertex needs no reduction: it kills the class of {}
    if J = ∅ and else bears a 0-cycle, and its pivot, at the empty face,
    meets no other column. The other faces go into the one pivot dict,
    and leaving J ∪ v deletes their pivots. The change J ∪ v makes to its
    parent's Betti row goes to ``changes[|J ∪ v|][a]``, a the vertices
    above v, and K_∅'s to ``changes[0][|V(K)|]``; without ``changes`` the
    walk fills a table of its own.
    """
    groups = _walk_groups(faces)
    n = len(groups)
    if changes is None:
        width = max(map(int.bit_count, faces), default=0) + 1
        changes = [[[0] * width for _ in range(n + 1)] for _ in range(n + 1)]
    pivots: dict[int, int] = {}
    added: list[int] = []
    if faces:  # K_∅ = {}: its one face bears a (-1)-cycle
        changes[0][n][0] += 1
        yield 0, 1
    # per J on the path: J, the vertices above top(J) still to append,
    # len(added) once K_J is in, and β̃(K_J); each pass enters one J ∪ v
    frames = [[0, sum(groups), 0, 1]] if groups else []
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
    return BettiTable.from_row(betti, -1)


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
