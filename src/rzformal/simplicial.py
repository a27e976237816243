"""Simple graphs and simplicial complexes on labeled vertices.

Vertices carry 1-based labels; throughout the package a set of vertices
is a bitmask int with bit k-1 for vertex k. A complex remembers its
ambient vertex set, so vertices that belong to the ambient set but span
no face ("ghost" vertices) are tracked, and links or full subcomplexes
keep their original labels.

Two degenerate complexes are distinguished: the void complex, with no
faces at all, and the complex {}, whose only face is the empty one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterable, Iterator


class InputError(ValueError):
    """A refusal of outside input: a file, a census line, an option or a variable.

    A command reports it in one ``error:`` line with exit 3, and ``verify``
    calls a line that raises it corrupt. Any other exception is a fault of
    the program.
    """


def label_mask(labels: Iterable, m: int, what: str) -> int:
    """Bitmask of the vertex labels of an input ``what``, each an int in 1..m.

    The one check of labels from outside: JSON ``true`` is no vertex.
    """
    mask = 0
    for v in labels:
        if type(v) is not int or not 1 <= v <= m:
            raise InputError(f"{what} holds {v!r}, not a vertex in 1..{m}")
        mask |= 1 << (v - 1)
    return mask


# entry b: the labels 1..8 of the bits of the byte b
_BYTE_LABELS = tuple(
    tuple(k + 1 for k in range(8) if b >> k & 1) for b in range(256)
)


def mask_vertices(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex labels of a nonnegative bitmask, a byte at a time."""
    if mask < 256:
        return _BYTE_LABELS[mask]
    out: list[int] = []
    base = 0
    while mask:
        byte = mask & 255
        if byte:
            for v in _BYTE_LABELS[byte]:
                out.append(base + v)
        mask >>= 8
        base += 8
    return tuple(out)


def squeeze(masks: Iterable[int], keep: int) -> tuple[int, ...]:
    """The masks with the bits of ``keep`` closed up onto bits 0, 1, ... in order.

    Bits outside ``keep`` are dropped. The relabeling keeps the order of
    vertices, so it keeps the numeric order of masks within ``keep``.
    Each run of consecutive bits of ``keep`` moves down by the number of
    bits outside ``keep`` below it.
    """
    runs = []
    rest = keep
    while rest:
        low = rest & -rest
        run = rest ^ (rest + low) & rest
        runs.append((run, low.bit_length() - 1 - (keep & low - 1).bit_count()))
        rest ^= run
    out = []
    for f in masks:
        g = 0
        for run, shift in runs:
            g |= (f & run) >> shift
        out.append(g)
    return tuple(out)


def shape(masks: tuple[int, ...], keep: int) -> tuple[int, ...]:
    """The masks, each within ``keep``, relabeled onto bits 0..m-1, m = |keep|.

    The image under one bijection of ``keep`` onto the low m bits, ascending
    by (size, mask) as canonical facets and faces are: the masks of an
    isomorphic copy on 1..m. The bijection orders the vertices by (number
    of masks holding it, sum of their sizes, label), summed in one pass
    over the masks. The first two do not change under relabeling, so
    isomorphic mask lists whose vertices they tell apart have one shape.
    """
    held = {1 << (v - 1): 0 for v in mask_vertices(keep)}
    for f in masks:
        weight = f.bit_count() | 1 << 32  # the count above bit 32, sizes below
        rest = f
        while rest:
            v = rest & -rest
            held[v] += weight
            rest ^= v
    to = {v: 1 << r for r, (_, v) in enumerate(sorted((n, v) for v, n in held.items()))}
    out = []
    for f in masks:
        g = 0
        while f:
            v = f & -f
            g |= to[v]
            f ^= v
        out.append(g)
    out.sort()
    out.sort(key=int.bit_count)
    return tuple(out)


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and the mask itself.

    Ascending numeric order, 2^popcount of them.
    """
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # next submask in increasing order: force a carry through the
        # bits outside the mask, then project back onto the mask
        sub = (sub - mask) & mask


# the largest vertex count a JSON input may give, far above every cap
MAX_M = 1024

# name: (environment variable, default vertex cap, what it guards)
CAPS = {
    "hochster": ("RZFORMAL_HOCHSTER_CAP", 20, "loop over vertex subsets"),
    "cubical": ("RZFORMAL_CUBICAL_CAP", 8, "cubical model"),
    "census flag": ("RZFORMAL_CENSUS_FLAG_CAP", 5, "census flag mode"),
    "census all-complexes": ("RZFORMAL_CENSUS_ALL_CAP", 5, "census all-complexes mode"),
}


# the caps of the running command, read once by ``read_caps_once``; None outside one
_read_caps: dict[str, int] | None = None


def natural(text: str, what: str) -> int:
    """The integer that ``text``, the input ``what``, writes in ASCII digits alone.

    ``int`` would also read a sign, underscores, spaces and other scripts'
    digits; an integer from outside is refused unless it is digits 0-9.
    """
    if not (text.isascii() and text.isdigit()):
        raise InputError(f"{what} must be a non-negative integer, got {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # more digits than int() converts
        raise InputError(str(exc)) from None


def _cap_from_env(name: str) -> int:
    env, default, _ = CAPS[name]
    raw = os.environ.get(env)
    return default if raw is None else natural(raw, env)


def cap(name: str) -> int:
    """The vertex cap ``name``: its variable, else its default.

    Within ``read_caps_once``, the value read as the block began; outside,
    as in a library call, the variable as it is now.
    """
    if _read_caps is not None:
        return _read_caps[name]
    return _cap_from_env(name)


@contextmanager
def read_caps_once() -> Iterator[None]:
    """Read every cap once, now; ``cap`` returns these values until the block ends.

    A malformed variable raises here. Within another such block, the values
    read as that one began are kept. Forked workers inherit the values; a
    spawned one reads the environment again, which holds the same.
    """
    global _read_caps
    outer = _read_caps
    if outer is None:
        _read_caps = {name: _cap_from_env(name) for name in CAPS}
    try:
        yield
    finally:
        _read_caps = outer


def _over_listing_cap(what: str) -> InputError:
    """Refusal of a list of more than 2^cap("hochster") ``what``."""
    n, env = cap("hochster"), CAPS["hochster"][0]
    return InputError(f"listing more than 2^{n} {what} exceeds the cap {n} ({env})")


def check_cap(name: str, m: int) -> None:
    """Refuse an m-vertex input over the cap ``name``."""
    limit = _read_caps[name] if _read_caps is not None else _cap_from_env(name)
    if m > limit:
        env, _, what = CAPS[name]
        raise InputError(f"{what} on {m} vertices exceeds the cap {limit} ({env})")


def json_m(obj: dict, field: str, what: str) -> int:
    """``obj["m"]`` of a JSON ``what`` with fields "m" and ``field``.

    Refused outside 0..MAX_M before anything of size m is built.
    """
    if not isinstance(obj, dict) or "m" not in obj or field not in obj:
        raise InputError(f"{what} JSON needs fields 'm' and {field!r}")
    m = obj["m"]
    if type(m) is not int or not 0 <= m <= MAX_M:
        raise InputError(f"{what} field 'm' must be an integer in 0..{MAX_M}")
    return m


def _int_lists(obj: dict, field: str, what: str) -> list[list[int]]:
    """``obj[field]``, checked to be a JSON list of lists of integers."""
    value = obj[field]
    if not isinstance(value, list) or not all(
        isinstance(item, list) and all(type(v) is int for v in item)
        for item in value
    ):
        raise InputError(f"{what} field {field!r} must be a list of lists of integers")
    return value


def _canonical_facets(masks: Iterable[int]) -> tuple[int, ...]:
    """Drop faces contained in others; sort by (dimension, mask)."""
    facets: list[int] = []
    larger = size = 0  # facets[:larger] are larger than size
    for f in sorted(set(masks), key=int.bit_count, reverse=True):
        if f.bit_count() != size:
            larger, size = len(facets), f.bit_count()
        if not any(f & ~g == 0 for g in facets[:larger]):
            facets.append(f)
    facets.sort(key=lambda f: (f.bit_count(), f))
    return tuple(facets)


class Graph:
    """A simple graph on vertex set {1, ..., m}."""

    __slots__ = ("m", "edges", "adj")

    def __init__(self, m: int, edges: Iterable[Iterable[int]]):
        if m < 0:
            raise InputError("m must be nonnegative")
        seen = set()
        adj = [0] * m
        for e in edges:
            u, v = sorted(e)
            label_mask((u, v), m, "an edge")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            seen.add((u, v))
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        self.m = m
        self.edges = tuple(sorted(seen))
        self.adj = tuple(adj)

    def clique_complex(self) -> "SimplicialComplex":
        """Flag complex whose faces are the cliques of this graph."""
        verts = (1 << self.m) - 1
        maximal = [c for c, common in _cliques(self.adj, verts) if not common]
        return SimplicialComplex(verts, maximal)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Graph":
        m = json_m(obj, "edges", "graph")
        edges = _int_lists(obj, "edges", "graph")
        for e in edges:
            if len(e) != 2:
                raise InputError(f"edge {e!r} must have two endpoints")
        return cls(m, edges)

    def to_json_obj(self) -> dict:
        return {"m": self.m, "edges": [list(e) for e in self.edges]}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and (self.m, self.edges) == (other.m, other.edges)

    def __hash__(self) -> int:
        return hash((self.m, self.edges))

    def __repr__(self) -> str:
        return f"Graph(m={self.m}, edges={list(self.edges)})"


def _cliques(adj, verts: int) -> Iterator[tuple[int, int]]:
    """(clique, common neighbours) for each clique within ``verts``, ∅ first.

    ``adj[k]`` is the neighbour mask of vertex k+1. A clique grows only by a
    common neighbour above its largest vertex, so each is listed once, and
    is maximal when it has none. Refused past 2^cap("hochster") cliques.
    """
    bound = 1 << cap("hochster")
    stack = [(0, verts)]
    listed = 0
    while stack:
        clique, common = stack.pop()
        yield clique, common
        listed += 1
        if listed > bound:
            raise _over_listing_cap("cliques")
        top = clique.bit_length()
        above = common >> top << top
        while above:
            v = above & -above
            above ^= v
            stack.append((clique | v, common & adj[v.bit_length() - 1]))


class SimplicialComplex:
    """An abstract simplicial complex, stored by its maximal faces.

    ``ambient`` is the bitmask of ambient vertices, ``m`` their number
    and ``facets`` the canonically ordered maximal faces. Of the ambient
    vertices, ``vertices_mask`` holds those that span a face,
    ``ghost_mask`` the rest and ``apexes`` those in every facet (0 if K is
    void or {}); K is the join of the simplex on its apexes with
    ``link(apexes)``. Equality compares ambient set and facets, so a
    complex with a ghost vertex differs from the same face set without it.
    """

    def __init__(self, ambient: int, facet_masks: Iterable[int]):
        self._set(ambient, _canonical_facets(facet_masks))
        outside = self.vertices_mask & ~ambient
        if outside:
            raise InputError(f"vertices {mask_vertices(outside)} not in the ambient set")

    def _set(self, ambient: int, facets: tuple[int, ...]) -> None:
        """Fill the fields from canonical facets within ``ambient``."""
        spanned, apexes = 0, -1 if facets else 0
        for f in facets:
            spanned |= f
            apexes &= f
        self.ambient = ambient
        self.m = ambient.bit_count()
        self.facets = facets
        self.vertices_mask = spanned
        self.ghost_mask = ambient & ~spanned
        self.apexes = apexes
        self._cache: dict = {}

    @classmethod
    def from_facets(cls, m: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Complex on ambient {1..m} spanned by the given faces."""
        return cls((1 << m) - 1, [label_mask(face, m, "a face") for face in facets])

    @property
    def dim(self) -> int:
        """Dimension; -1 for {} and -2 for the void complex."""
        if not self.facets:
            return -2
        return self.facets[-1].bit_count() - 1  # facets ascend by size

    def vertex_labels(self) -> tuple[int, ...]:
        return mask_vertices(self.ambient)

    def faces(self) -> tuple[int, ...]:
        """All faces as masks, sorted by (dimension, mask).

        A facet on s vertices has 2^s faces, so s is capped like 2^m loops,
        before any is listed; more than 2^cap faces in all are refused.
        """
        faces = self._cache.get("faces")
        if faces is None:
            check_cap("hochster", self.dim + 1)
            bound = 1 << cap("hochster")
            seen: set[int] = set()
            for facet in self.facets:
                seen.update(submasks(facet))
                if len(seen) > bound:
                    raise _over_listing_cap("faces")
            faces = tuple(sorted(seen, key=lambda f: (f.bit_count(), f)))
            self._cache["faces"] = faces
        return faces

    def subfaces(self, j_mask: int) -> tuple[int, ...]:
        """Faces of K_J, same order as ``faces()``; not cached."""
        return tuple(f for f in self.faces() if f & ~j_mask == 0)

    def has_face(self, mask: int) -> bool:
        try:
            face_set = self._cache["face_set"]
        except KeyError:
            face_set = self._cache["face_set"] = frozenset(self.faces())
        return mask in face_set

    def link(self, s_mask: int) -> "SimplicialComplex":
        """Link of the face ``s_mask``, on ambient set ambient minus it.

        Memoized per face, so callers share the link and its caches; the
        link of the empty face is the complex itself.
        """
        if not self.has_face(s_mask):
            raise ValueError("not a face")
        if s_mask == 0:
            return self
        key = ("link", s_mask)
        try:
            return self._cache[key]
        except KeyError:
            pass
        # a facet through s, less s, is maximal in the link, and f ↦ f − s
        # keeps the (dimension, mask) order: the facets are canonical as built
        lk = self._cache[key] = SimplicialComplex._canonical(
            self.ambient & ~s_mask,
            tuple(f - s_mask for f in self.facets if f & s_mask == s_mask),
        )
        return lk

    @staticmethod
    def _canonical(ambient: int, facets: tuple[int, ...]) -> "SimplicialComplex":
        """The complex of facets already canonical within ``ambient``, unchecked."""
        k = SimplicialComplex.__new__(SimplicialComplex)
        k._set(ambient, facets)
        return k

    def neighbours(self) -> tuple[int, ...]:
        """The 1-skeleton: entry k-1 is the neighbour mask of vertex k."""
        adj = self._cache.get("neighbours")
        if adj is None:
            adj = [0] * self.ambient.bit_length()
            for f in self.facets:
                for v in mask_vertices(f):
                    adj[v - 1] |= f ^ (1 << (v - 1))
            adj = self._cache["neighbours"] = tuple(adj)
        return adj

    def is_flag(self) -> bool:
        """Whether every clique of the 1-skeleton is a face.

        Stops at the first that is not: a minimal one, less its largest
        vertex, is a face that this vertex extends.
        """
        flag = self._cache.get("is_flag")
        if flag is None:
            cliques = _cliques(self.neighbours(), self.vertices_mask)
            flag = self._cache["is_flag"] = all(self.has_face(c) for c, _ in cliques)
        return flag

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimplicialComplex":
        m = json_m(obj, "facets", "complex")
        return cls.from_facets(m, _int_lists(obj, "facets", "complex"))

    def json_facets(self) -> tuple[tuple[int, ...], ...]:
        """The facets as label tuples in JSON order: by size, then lexicographic.

        Cached; tuples, so no reader changes them.
        """
        facets = self._cache.get("json_facets")
        if facets is None:
            if self.ambient != (1 << self.m) - 1:
                raise ValueError("JSON output needs contiguous vertex labels")
            facets = sorted(mask_vertices(f) for f in self.facets)
            facets = self._cache["json_facets"] = tuple(sorted(facets, key=len))
        return facets

    def to_json_obj(self) -> dict:
        return {"m": self.m, "facets": [list(f) for f in self.json_facets()]}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.ambient == other.ambient
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.facets))

    def __repr__(self) -> str:
        facets = [mask_vertices(f) for f in self.facets]
        return f"SimplicialComplex(vertices={self.vertex_labels()}, facets={facets})"
