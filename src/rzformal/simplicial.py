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
from typing import Iterable, Iterator


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of 1-based vertex labels."""
    mask = 0
    for v in vertices:
        if v < 1:
            raise ValueError(f"vertex labels are 1-based, got {v}")
        mask |= 1 << (v - 1)
    return mask


def mask_vertices(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex labels of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
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


def cap(name: str) -> int:
    """The vertex cap ``name``: its variable, else its default."""
    env, default, _ = CAPS[name]
    raw = os.environ.get(env)
    if raw is None:
        return default
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{env} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _over_listing_cap(what: str) -> ValueError:
    """Refusal of a list of more than 2^cap("hochster") ``what``."""
    n, env = cap("hochster"), CAPS["hochster"][0]
    return ValueError(f"listing more than 2^{n} {what} exceeds the cap {n} ({env})")


def check_cap(name: str, m: int) -> None:
    """Refuse an m-vertex input over the cap ``name``."""
    limit = cap(name)
    if m > limit:
        env, _, what = CAPS[name]
        raise ValueError(f"{what} on {m} vertices exceeds the cap {limit} ({env})")


def json_m(obj: dict, field: str, what: str) -> int:
    """``obj["m"]`` of a JSON ``what`` with fields "m" and ``field``.

    Refused outside 0..MAX_M before anything of size m is built.
    """
    if not isinstance(obj, dict) or "m" not in obj or field not in obj:
        raise ValueError(f"{what} JSON needs fields 'm' and {field!r}")
    m = obj["m"]
    if type(m) is not int or not 0 <= m <= MAX_M:
        raise ValueError(f"{what} field 'm' must be an integer in 0..{MAX_M}")
    return m


def _int_lists(obj: dict, field: str, what: str) -> list[list[int]]:
    """``obj[field]``, checked to be a JSON list of lists of integers."""
    value = obj[field]
    if not isinstance(value, list) or not all(
        isinstance(item, list) and all(type(v) is int for v in item)
        for item in value
    ):
        raise ValueError(f"{what} field {field!r} must be a list of lists of integers")
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
            raise ValueError("m must be nonnegative")
        seen = set()
        adj = [0] * m
        for e in edges:
            u, v = sorted(e)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u and v <= m):
                raise ValueError(f"edge ({u},{v}) out of range 1..{m}")
            seen.add((u, v))
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        self.m = m
        self.edges = tuple(sorted(seen))
        self.adj = tuple(adj)

    @classmethod
    def empty(cls, m: int) -> "Graph":
        return cls(m, [])

    @classmethod
    def complete(cls, m: int) -> "Graph":
        return cls(m, [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)])

    @classmethod
    def cycle(cls, m: int) -> "Graph":
        if m < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls(m, [(i, i % m + 1) for i in range(1, m + 1)])

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
                raise ValueError(f"edge {e!r} must have two endpoints")
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

    ``ambient`` is the bitmask of ambient vertices and ``facets`` the
    canonically ordered maximal faces. Equality compares both, so a
    complex with a ghost vertex differs from the same face set without
    it.
    """

    def __init__(self, ambient: int, facet_masks: Iterable[int]):
        facets = _canonical_facets(facet_masks)
        for f in facets:
            if f & ~ambient:
                raise ValueError(
                    f"facet {mask_vertices(f)} not contained in the ambient set"
                )
        self.ambient = ambient
        self.facets = facets
        self._cache: dict = {}

    @classmethod
    def from_facets(cls, m: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Complex on ambient {1..m} spanned by the given faces."""
        masks = []
        for face in facets:
            face = tuple(face)
            if not all(1 <= v <= m for v in face):
                raise ValueError(f"face {face} out of range 1..{m}")
            masks.append(vertex_mask(face))
        return cls((1 << m) - 1, masks)

    @classmethod
    def void(cls, m: int) -> "SimplicialComplex":
        return cls((1 << m) - 1, [])

    @classmethod
    def simplex(cls, m: int) -> "SimplicialComplex":
        return cls((1 << m) - 1, [(1 << m) - 1])

    @property
    def m(self) -> int:
        """Number of ambient vertices."""
        return self.ambient.bit_count()

    @property
    def dim(self) -> int:
        """Dimension; -1 for {} and -2 for the void complex."""
        if not self.facets:
            return -2
        return self.facets[-1].bit_count() - 1  # facets ascend by size

    @property
    def vertices_mask(self) -> int:
        """Mask of vertices that actually span a face."""
        mask = 0
        for f in self.facets:
            mask |= f
        return mask

    @property
    def ghost_mask(self) -> int:
        return self.ambient & ~self.vertices_mask

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
        """Faces of K_J, same order as ``faces()``; not cached.

        No caller in the package; kept for the tests and the benchmark hook.
        """
        return tuple(f for f in self.faces() if f & ~j_mask == 0)

    def full_subcomplexes(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(J, faces of K_J) for J ⊆ ``vertices_mask``, lexicographic in J.

        Depth first: K_(J ∪ v), v above J, adds the faces in J ∪ v with
        top vertex v, so faces ascend by mask. K_∅ is (0,), or () if K is
        void. Left out: J holding K's top vertex with ``is_cone_on(J)``.
        """
        tops = self._cache.get("tops")
        if tops is None:  # nonempty faces by top vertex
            tops = self._cache["tops"] = {}
            for f in sorted(self.faces()[1:]):
                tops.setdefault(1 << f.bit_length() >> 1, []).append(f)
        is_cone_on = self.is_cone_on
        stack = [(0, self.faces()[:1], self.vertices_mask)]
        pop, push = stack.pop, stack.append
        while stack:
            j_mask, faces, above = pop()
            yield j_mask, faces
            higher = 0  # push the largest v first, so the smallest pops next
            while above:
                v = 1 << (above.bit_length() - 1)
                above ^= v
                grown = j_mask | v
                if higher or not is_cone_on(grown):
                    new = tuple([f for f in tops[v] if f | grown == grown])
                    push((grown, faces + new, higher))
                higher |= v

    def is_cone_on(self, j_mask: int) -> bool:
        """Whether a vertex of J lies in every facet meeting J, so K_J is a cone.

        Sound, not complete: an apex missing a non-maximal F ∩ J is not seen.
        """
        apex = -1  # every bit, until a facet meets J
        for f in self.facets:
            if f & j_mask:
                apex &= f & j_mask
                if not apex:
                    return False
        return apex > 0

    def has_face(self, mask: int) -> bool:
        try:
            face_set = self._cache["face_set"]
        except KeyError:
            face_set = self._cache["face_set"] = frozenset(self.faces())
        return mask in face_set

    def full_subcomplex(self, j: Iterable[int] | int) -> "SimplicialComplex":
        """Restriction to the vertex subset ``j``, ambient set ``j``."""
        j_mask = j if isinstance(j, int) else vertex_mask(j)
        if j_mask & ~self.ambient:
            raise ValueError("subset is not contained in the ambient vertex set")
        return SimplicialComplex(j_mask, (f & j_mask for f in self.facets))

    def link(self, sigma: Iterable[int] | int) -> "SimplicialComplex":
        """Link of a face, on ambient set ambient minus sigma.

        Memoized per face, so callers share the link and its caches; the
        link of the empty face is the complex itself.
        """
        s_mask = sigma if isinstance(sigma, int) else vertex_mask(sigma)
        if not self.has_face(s_mask):
            raise ValueError("not a face")
        if s_mask == 0:
            return self
        key = ("link", s_mask)
        try:
            return self._cache[key]
        except KeyError:
            pass
        new_facets = [f & ~s_mask for f in self.facets if f & s_mask == s_mask]
        lk = self._cache[key] = SimplicialComplex(self.ambient & ~s_mask, new_facets)
        return lk

    def underlying_graph(self) -> Graph:
        """1-skeleton as a graph on {1..m}; requires a full ambient set."""
        if self.ambient != (1 << self.m) - 1:
            raise ValueError("underlying graph needs contiguous vertex labels")
        edges = [mask_vertices(f) for f in self.faces() if f.bit_count() == 2]
        return Graph(self.m, edges)

    def is_flag(self) -> bool:
        """Whether every clique of the 1-skeleton is a face.

        Stops at the first that is not: a minimal one, less its largest
        vertex, is a face that this vertex extends.
        """
        flag = self._cache.get("is_flag")
        if flag is None:
            adj = [0] * self.ambient.bit_length()
            for f in self.faces():
                if f.bit_count() == 2:
                    low = f & -f
                    adj[low.bit_length() - 1] |= f ^ low
                    adj[f.bit_length() - 1] |= low
            cliques = _cliques(adj, self.vertices_mask)
            flag = self._cache["is_flag"] = all(self.has_face(c) for c, _ in cliques)
        return flag

    def missing_edges(self) -> tuple[tuple[int, int], ...]:
        """Non-adjacent pairs of non-ghost vertices, lexicographic."""
        try:
            return self._cache["missing_edges"]
        except KeyError:
            pass
        verts = mask_vertices(self.vertices_mask)
        missing = tuple(
            (u, v)
            for i, u in enumerate(verts)
            for v in verts[i + 1 :]
            if not self.has_face(vertex_mask((u, v)))
        )
        self._cache["missing_edges"] = missing
        return missing

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimplicialComplex":
        m = json_m(obj, "facets", "complex")
        return cls.from_facets(m, _int_lists(obj, "facets", "complex"))

    def to_json_obj(self) -> dict:
        if self.ambient != (1 << self.m) - 1:
            raise ValueError("JSON output needs contiguous vertex labels")
        facets = sorted(mask_vertices(f) for f in self.facets)
        facets.sort(key=len)
        return {"m": self.m, "facets": [list(f) for f in facets]}

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
