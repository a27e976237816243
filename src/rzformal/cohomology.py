"""Reduced simplicial cohomology with F2 coefficients.

Conventions for the augmented cochain complex:

* the empty face sits in degree -1, so the complex {} has reduced
  cohomology F2 there and a nonvoid complex with a vertex has none;
* the void complex has no faces and zero cohomology everywhere.

Betti numbers come from ranks, β̃_d = f_d − r_d − r_(d+1) with f_d the
d-faces and r_d the rank of their boundary columns, by two column
reductions. ``add_faces`` reduces the columns of one complex into a
pivot dict and keeps no Betti numbers: its callers count the pivots it
adds. It serves the ``boundary_items``
of a whole face list in ``hom_data``, the faces beyond {v} that each
J ∪ v adds to K_J in ``subset_walk``, the general criterion's lazy walk
over vertex subsets J, and the cells of a cubical model, one dimension
per call, top first with clearing: a cell at a pivot row one dimension
up gets no column (``moment_angle``). ``subset_sums`` reduces the
columns of every full subcomplex K_J at once, one J per bit of an int,
for the Hochster sums over all J; one J at a time, those cost a Python
loop pass per J. Shared results follow one policy,
``memoized``: each cache keeps the ``MEMO_BOUND`` entries used last, each
keyed by the data it is computed from. ``_hom_cache`` holds the
restriction test's face lists, keyed by the tuple itself. ``_memo`` holds
the Hochster tables and cubical ranks, which no relabeling of the
vertices changes: keys are taken up to any relabeling. An entry is
looked up under its raw key, in ``_raw_memo``, and on a miss under its
shape key, the key of an isomorphic copy on 1..m (``simplicial.shape``),
once a second raw key alike in m and kind has come.
The general criterion keeps each restriction test per (J, σ) on the
complex it walks, in a dict of its own under the same policy.

The one restriction map is onto a star deletion A = X ∖ st σ.
Over a field the long exact sequence of the pair gives

    Σ_d dim H^d(X, A) = β̃(X) + β̃(A) - 2 Σ_d rank(H̃^d(X) -> H̃^d(A)),

so the restriction is zero exactly when β(X, A) = β̃(X) + β̃(A). The
relative cochains live on the faces that contain σ, the link of σ in X
shifted up by |σ|, so β(X, A) is the link's total.
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heappush
from math import comb
from typing import NamedTuple

from .simplicial import shape, squeeze


class BettiTable(NamedTuple):
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


# census flag m=5 meets 1,856 raw cubical and 1,830 raw table keys, of 114
# and 110 shapes; kept to the last 1,024 used, raw keys apart, it ranks and
# walks each shape once, as without the bound, and the memo adds under 1 MB
# to its peak.
# Its general criterion tests 12,237 (J, σ) per walked complex where it
# tested 21,705 (K, I, J). A formal non-cone check at m = 18 would keep
# 30,948 face lists, and double its peak, without the bound
MEMO_BOUND = 1024
_memo: dict[tuple, object] = {}
# the raw keys of ``_memo``'s results, in slots of their own
_raw_memo: dict[tuple, object] = {}
# per sketch (m, kind) of raw keys, its one raw key not yet shaped, or
# None: at most two entries per m, so unbounded
_sketches: dict[tuple, tuple | None] = {}
# apart from ``_memo``: sharing one dict makes each evict the other's hits
_hom_cache: dict[tuple[int, ...], BettiTable] = {}


def clear_caches() -> None:
    _hom_cache.clear()
    _memo.clear()
    _raw_memo.clear()
    _sketches.clear()


def memoized_up_to_relabeling(raw: tuple, compute, arg):
    """``compute(arg)`` for a result that no relabeling of the vertices changes.

    ``raw`` is (ambient, ..., masks), the masks within ``ambient`` last,
    and holds everything the result depends on. It is looked up among the
    last ``MEMO_BOUND`` raw keys used, in ``_raw_memo``; on a miss, in
    ``_memo`` under its shape key (``_shape_key``), the raw key of an
    isomorphic copy on 1..m, which has the same result. ``compute`` runs
    on ``arg`` itself.

    A shape costs more than a lookup, and only raw keys alike in m and
    kind can be isomorphic. So the first raw key of each such sketch is
    only noted in ``_sketches``, and shaped when a second one comes. In
    one ``check``, K and lk_K(I) differ in m.
    """
    value = _raw_memo.pop(raw, None)
    if value is None:
        sketch = (raw[0].bit_count(), *raw[1:-1])
        first = _sketches.pop(sketch, raw)
        if first is raw:  # nothing met so far can be isomorphic to it
            value = compute(arg)
        else:
            if first in _raw_memo:  # the first of the sketch, shaped now
                _keep(_memo, _shape_key(first), _raw_memo[first])
            value = memoized(_shape_key(raw), compute, arg)
        # None once the sketch's raw keys are shaped as they come
        _sketches[sketch] = raw if first is raw else None
    _keep(_raw_memo, raw, value)
    return value


def _shape_key(raw: tuple) -> tuple:
    """The raw key of the copy on 1..m that ``shape`` relabels the key ``raw`` onto."""
    ambient, masks = raw[0], raw[-1]
    return ((1 << ambient.bit_count()) - 1, *raw[1:-1], shape(masks, ambient))


def memoized(key: tuple, compute, arg, cache: dict | None = None):
    """``compute(arg)``, kept under ``key`` among the last ``MEMO_BOUND`` results.

    ``cache`` is ``_memo`` unless given, read at each call. A hit moves
    its entry to the back, and the entry used longest ago goes first.
    ``key`` must hold everything the result depends on, and the result
    is never None; callers check their caps before they call this.
    """
    memo = _memo if cache is None else cache
    value = memo.pop(key, None)
    if value is None:
        value = compute(arg)
    _keep(memo, key, value)
    return value


def _keep(cache: dict, key, value) -> None:
    """``value`` under ``key`` at the back of ``cache``, its front entry dropped when full."""
    if len(cache) >= MEMO_BOUND:
        del cache[next(iter(cache))]
    cache[key] = value


def boundary_items(faces: tuple[int, ...]) -> list[tuple[int, int]]:
    """(face, boundary column) per face, a column a bitmask over ``faces``."""
    index = {f: i for i, f in enumerate(faces)}
    items = []
    for f in faces:
        col = 0
        rest = f
        while rest:
            low = rest & -rest
            col |= 1 << index[f ^ low]
            rest ^= low
        items.append((f, col))
    return items


def add_faces(items, pivots: dict[int, int], added: list[int], within=-1) -> int:
    """Reduce the (face, column) items whose faces lie in ``within``; return how many.

    A face is a simplex of ``boundary_items`` or a cell of a cubical
    model, its column a bitmask over the positions of the faces one
    dimension lower. Each column is reduced against ``pivots``, keyed by
    highest bit, and one that does not reduce to zero becomes the pivot
    at its highest bit, whose key goes to ``added``: deleting those keys
    undoes the call. So the columns' rank is the number of keys added,
    and callers read every Betti number off ranks, β_d = c_d − r_d − r_(d+1).
    """
    taken = 0
    for f, col in items:
        if f | within != within:
            continue
        taken += 1
        while col:
            p = col.bit_length()
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                added.append(p)
                break
            col ^= other
    return taken


def _walk_groups(faces: tuple[int, ...]) -> dict[int, list[tuple[int, int]]]:
    """The ``boundary_items`` of faces of two or more vertices, by top vertex.

    Keyed by every vertex as a one-bit mask, each group ascending by face,
    so a face's boundary faces come before it, in K_J or in its group.
    """
    groups = {f: [] for f in faces if f.bit_count() == 1}
    for item in sorted(boundary_items(faces)):
        if item[0].bit_count() > 1:
            groups[1 << item[0].bit_length() >> 1].append(item)
    return groups


def subset_walk(faces: tuple[int, ...]):
    """Yield (J, β̃(K_J)) for each J ⊆ V(K) with β̃(K_J) ≠ 0, lexicographic in J.

    K is the complex of ``faces``, in any order; () is the void complex.
    Depth first, one frame per vertex of the path on an explicit stack.
    K_(J ∪ v), v above top(J), adds {v} and the faces of group v inside
    J ∪ v to K_J. The vertex needs no reduction: it kills the class of {}
    if J = ∅ and else bears a 0-cycle, and its pivot, at the empty face,
    meets no other column. The other faces go into the one pivot dict,
    and leaving J ∪ v deletes their pivots.
    """
    groups = _walk_groups(faces)
    pivots: dict[int, int] = {}
    added: list[int] = []
    if faces:  # K_∅ = {}: its one face bears a (-1)-cycle
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
        if j_mask:
            taken = add_faces(groups[v], pivots, added, grown)
            total += 1 + taken - 2 * (len(added) - mark)
        else:
            total -= 1
        if total:
            yield grown, total
        if above:
            frame[1] = above
            frames.append([grown, above, len(added), total])
        else:  # J ∪ v holds the top vertex: J is done
            frames.pop()


# lanes per block of ``subset_sums``: 2^12 lanes make 512-byte lane masks
LANE_BITS = 12


def _faces_by_size(faces: tuple[int, ...]) -> list[list[int]]:
    """The faces relabeled onto bits 0..n-1 in label order, ascending, by size."""
    vertices = 0
    for f in faces:
        vertices |= f
    by_size: list[list[int]] = [[] for _ in range(vertices.bit_count() + 1)]
    for g in squeeze(sorted(faces), vertices):  # squeezing keeps the order
        by_size[g.bit_count()].append(g)
    while by_size and not by_size[-1]:
        by_size.pop()
    return by_size


def subset_sums(faces: tuple[int, ...], width: int) -> list[list[int]]:
    """T[s][d + 1] = Σ β̃_d(K_J) over the J ⊆ V(K) with |J| = s, s = 0..|V(K)|.

    K is the complex of ``faces``, in any order, on n vertices, and
    ``width`` at least dim K + 2. With f_d faces and r_d the rank of the
    boundary of the d-faces, β̃_d(K_J) = f_d(K_J) - r_d(J) - r_(d+1)(J),
    and each term is summed over all J at once. A face of k vertices lies
    in C(n - k, s - k) of the J with |J| = s. A vertex's column has rank 1
    in every J ≠ ∅. The ranks of the faces of k ≥ 2 vertices come from one
    bit-sliced elimination (Biham's bit-slicing, 1997): lane J is bit J of
    an int, so each F2 row operation acts on every J at once. A column f
    has a 1 at row f ∖ u for each u ∈ f, in the lanes of the J ⊇ f. Going
    down the rows, the lanes whose column leads at row p reduce by the
    pivot they already have there, and the others make it their pivot.

    A block holds the 2^LANE_BITS sets J of the lowest vertices; block h
    fixes which of the others are in J, takes the faces inside, and adds
    its ranks at s + |h|. So the lane masks stay 512 bytes long.
    """
    by_size = _faces_by_size(faces)
    n = len(by_size[1]) if len(by_size) > 1 else 0
    sums = [[0] * width for _ in range(n + 1)]
    for k, group in enumerate(by_size):
        for s in range(k, n + 1):
            sums[s][k] += len(group) * comb(n - k, s - k)
    for s in range(1, n + 1):
        sums[s][0] -= comb(n, s)
        sums[s][1] -= comb(n, s)
    bits = min(n, LANE_BITS)
    low = (1 << bits) - 1
    every, holding, of_size = _lane_masks(bits)
    for k in range(2, len(by_size)):
        index = {g: r for r, g in enumerate(by_size[k - 1])}
        cols = []
        for f in by_size[k]:
            rows, rest = [], f
            while rest:
                u = rest & -rest
                rows.append(index[f ^ u])
                rest ^= u
            cols.append((f >> bits, f & low, rows))
        for h in range(1 << n - bits):
            block = [(own, rows) for top, own, rows in cols if not top & ~h]
            # bit i of lane J's count of pivot rows in planes[i]: each
            # row's lanes go in by a ripple-carry add
            planes: list[int] = []
            for carry in _pivot_lanes(block, holding, every):
                i = 0
                while carry:
                    if i == len(planes):
                        planes.append(carry)
                        break
                    planes[i], carry = planes[i] ^ carry, planes[i] & carry
                    i += 1
            for s, lanes in enumerate(of_size, h.bit_count()):
                r = sum((plane & lanes).bit_count() << i for i, plane in enumerate(planes))
                sums[s][k] -= r
                sums[s][k - 1] -= r
    return sums


@cache
def _lane_masks(bits: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The masks of 2^bits lanes: every lane, the lanes of the J holding v, per v,
    and the lanes of the J with s vertices, per s.

    Constants of the width, built once each: ``clear_caches`` leaves them.
    The lanes holding v run 2^v without it and 2^v with it.
    """
    every = (1 << (1 << bits)) - 1
    holding = [every // ((1 << (2 << v)) - 1) * ((1 << (1 << v)) - 1 << (1 << v))
               for v in range(bits)]
    of_size = [1]
    for v in range(bits):
        of_size = [a | b << (1 << v) for a, b in zip(of_size + [0], [0] + of_size)]
    return every, tuple(holding), tuple(of_size)


def _pivot_lanes(cols: list[tuple[int, list[int]]], holding: tuple[int, ...], every: int):
    """Per row with a pivot, the lanes that have one there, once ``cols`` are reduced.

    A column is its face's own vertices among the lane bits and its rows.
    It lies in the lanes ``every`` less those that miss one of its own
    vertices, by ``holding``, with a 1 at each row in each of them. A
    pivot at p is stored as its rows below p, each with the lanes of the
    pivots there.
    """
    pivots: dict[int, dict[int, int]] = {}
    has: dict[int, int] = {}
    for own, rows in cols:
        active = every
        while own:
            u = own & -own
            active &= holding[u.bit_length() - 1]
            own ^= u
        col = dict.fromkeys(rows, active)
        heap = [-r for r in rows]
        heapify(heap)
        while heap:
            p = -heappop(heap)
            lead = col.pop(p) & active
            if not lead:
                continue
            have = has.get(p, 0)
            old = lead & have
            if old:
                for q, lanes in pivots[p].items():
                    if q in col:
                        col[q] ^= lanes & old
                    else:
                        col[q] = lanes & old
                        heappush(heap, -q)
            new = lead ^ old
            if new:
                below = pivots.setdefault(p, {})
                for q, lanes in col.items():
                    lanes &= new
                    if lanes:
                        below[q] = below.get(q, 0) | lanes
                has[p] = have | new
                active ^= new
                if not active:
                    break
    return has.values()


def _build_hom_data(faces: tuple[int, ...]) -> BettiTable:
    """β̃_d = f_d − r_d − r_(d+1) at entry d + 1, the size k of a d-face.

    r at k, the rank of the columns of the k-vertex faces, counts their
    pivots, each at the row of a face of k − 1 vertices.
    """
    added: list[int] = []
    add_faces(boundary_items(faces), {}, added)
    sizes = [f.bit_count() for f in faces]
    rows = [sizes[p - 1] for p in added]  # row p is the face at position p − 1
    top = max(sizes, default=-1)
    ranks = [rows.count(k - 1) for k in range(top + 2)]
    betti = [sizes.count(k) - ranks[k] - ranks[k + 1] for k in range(top + 1)]
    return BettiTable.from_row(betti, -1)


def hom_data(faces: tuple[int, ...]) -> BettiTable:
    """Reduced Betti table of a face list in any order, memoized in ``_hom_cache``."""
    return memoized(faces, _build_hom_data, faces, _hom_cache)


def _restriction_map_trivial(faces: tuple[int, ...], sigma: int, total: int) -> bool:
    """Whether H̃*(X) -> H̃*(X ∖ st σ) vanishes, for a face σ of X.

    Decided from β̃ of the deletion (the faces not containing σ), then,
    only if that is nonzero, from β̃(lk_X σ) = β(X, X ∖ st σ) against
    ``total`` = β̃(X). When β̃(X) = 0 the pair's sequence gives
    β(X, X ∖ st σ) = β̃ of the deletion, so that case needs no test of its
    own. Any face order gives the same verdict.
    """
    deleted = hom_data(tuple(f for f in faces if f & sigma != sigma)).total
    if deleted == 0:
        return True
    link = hom_data(tuple(f ^ sigma for f in faces if f & sigma == sigma))
    return link.total == total + deleted
