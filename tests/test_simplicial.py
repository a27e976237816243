"""Complexes, graphs, clique complexes, links and restrictions."""

import gc
import json
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _labels, cliques_of, faces_of, relabeled_images
from shapes import complete_graph, cycle_graph, empty_graph, void_complex
from rzformal import Graph, SimplicialComplex
from rzformal.census import all_complexes, flag_complexes
from rzformal.simplicial import label_mask, mask_vertices, shape, submasks


def facet_sets(k):
    return sorted(sorted(mask_vertices(f)) for f in k.facets)


def test_vertex_mask_round_trip():
    assert label_mask([1, 3], 3, "I") == 0b101
    assert mask_vertices(0b101) == (1, 3)
    assert label_mask([], 3, "I") == 0


def test_mask_vertices_reads_every_byte():
    # masks of up to 12 bits, then seeded ones up to 2^1024 with bits on
    # each side of a byte boundary, so that a mislabeled byte shows
    for mask in range(1 << 12):
        assert list(mask_vertices(mask)) == _labels(mask), mask
    rng = random.Random(41)
    for bits in ((7, 8), (15, 16), (63, 64), (1023,)):
        edge = sum(1 << b for b in bits)
        for width in (0, 16, 64, 200, 1024):
            for _ in range(10):
                mask = rng.getrandbits(width) | edge if width else edge
                assert list(mask_vertices(mask)) == _labels(mask), hex(mask)


def test_submasks_enumerates_all_subsets_ascending():
    subs = list(submasks(0b101))
    assert subs == [0b000, 0b001, 0b100, 0b101]


def test_graph_basics():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1)])
    assert g.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert g.adj[0] == 0b1010
    assert complete_graph(3).edges == ((1, 2), (1, 3), (2, 3))
    assert empty_graph(2).edges == () and empty_graph(2).adj == (0, 0)
    assert cycle_graph(4).edges == g.edges


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_clique_complex_of_cycle_is_the_cycle():
    k = cycle_graph(4).clique_complex()
    assert facet_sets(k) == [[1, 2], [1, 4], [2, 3], [3, 4]]
    assert k.is_flag()


def test_clique_search_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            cycle_graph(5).clique_complex().is_flag()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_is_flag_and_clique_complexes_match_the_clique_definition():
    rng = random.Random(1973)
    verdicts = []
    for _ in range(300):
        m = rng.randint(0, 8)
        density = rng.random()
        edges = [e for e in combinations(range(1, m + 1), 2) if rng.random() < density]
        k = Graph(m, edges).clique_complex()
        assert {frozenset(mask_vertices(f)) for f in k.faces()} == cliques_of(
            range(1, m + 1), edges
        )
        assert k.is_flag()
        sizes = [rng.randint(0, m) for _ in range(rng.randint(0, 6))]
        random_facets = [rng.sample(range(1, m + 1), s) for s in sizes]
        # the clique complex with its largest facet replaced by its boundary
        punctured = [mask_vertices(f) for f in k.facets]
        top = punctured.pop()
        punctured += combinations(top, max(len(top) - 1, 0))
        for facets in (random_facets, punctured):
            faces = faces_of(facets)
            vertices = {v for f in faces for v in f}
            flag = cliques_of(vertices, [f for f in faces if len(f) == 2]) <= faces
            assert SimplicialComplex.from_facets(m, facets).is_flag() == flag, facets
            verdicts.append(flag)
    assert verdicts.count(False) > 100 and verdicts.count(True) > 100


def test_clique_complex_of_a_large_complete_bipartite_graph_is_fast():
    # K_(80,80) has 6,400 maximal cliques, its edges; each is tested only
    # against kept facets of larger size, so none against the others
    g = Graph(160, [(u, v) for u in range(1, 81) for v in range(81, 161)])
    start = time.process_time()
    k = g.clique_complex()
    elapsed = time.process_time() - start
    assert len(k.facets) == 6400
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_clique_complex_of_complete_graph_is_simplex():
    k = complete_graph(3).clique_complex()
    assert facet_sets(k) == [[1, 2, 3]]
    assert k.dim == 2


def test_clique_complex_of_empty_graph_is_points():
    k = empty_graph(2).clique_complex()
    assert facet_sets(k) == [[1], [2]]


def test_from_facets_closes_downward_and_dedups():
    k = SimplicialComplex.from_facets(3, [[1, 2], [2, 1], [1]])
    assert facet_sets(k) == [[1, 2]]
    assert k.has_face(0b001)
    assert k.has_face(0)  # the empty face
    assert not k.has_face(0b100)
    assert k.ghost_mask == 0b100


def test_void_versus_empty_face():
    void = void_complex(2)
    point = SimplicialComplex.from_facets(2, [[]])
    assert void.facets == ()
    assert void.dim == -2
    assert point.facets == (0,)
    assert point.dim == -1
    assert not void.has_face(0)
    assert point.has_face(0)


def test_faces_sorted_by_size_then_mask():
    k = SimplicialComplex.from_facets(3, [[1, 2], [3]])
    faces = list(k.faces())
    sizes = [bin(f).count("1") for f in faces]
    assert sizes == sorted(sizes)
    assert faces[0] == 0


def test_link_examples():
    c4 = cycle_graph(4).clique_complex()
    lk = c4.link(0b0001)
    assert facet_sets(lk) == [[2], [4]]
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    lk2 = tri.link(0b011)
    assert facet_sets(lk2) == [[]]
    # vertices outside the face survive as ambient, not as faces
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    lk3 = two.link(0b01)
    assert facet_sets(lk3) == [[]]
    assert lk3.m == 1
    assert lk3.vertex_labels() == (2,)


def test_link_is_memoized_per_face():
    c4 = cycle_graph(4).clique_complex()
    assert c4.link(0b0001) is c4.link(0b0001)
    assert c4.link(0b0001) is not c4.link(0b0010)
    # the link of the empty face is the complex itself
    assert c4.link(0) is c4


def test_link_of_non_face_raises():
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    with pytest.raises(ValueError):
        two.link(0b11)


def test_a_link_equals_the_complex_built_from_its_facets():
    # every face of the all-complexes m <= 4, then of 50 seeded complexes
    # with ghost vertices: the link is built without the antichain test
    from rzformal.census import all_complexes

    rng = random.Random(43)
    ghosts = []
    for _ in range(50):
        m = rng.randint(2, 9)
        spanned = rng.sample(range(1, m + 1), rng.randint(1, m - 1))
        facets = [
            rng.sample(spanned, rng.randint(1, min(len(spanned), 4)))
            for _ in range(rng.randint(1, 7))
        ]
        ghosts.append(SimplicialComplex.from_facets(m, facets))
    assert all(k.ghost_mask for k in ghosts)
    cases = [k for m in range(1, 5) for k in all_complexes(m)] + ghosts
    fields = ("facets", "vertices_mask", "ghost_mask", "apexes", "m", "ambient")
    for k in cases:
        for s in k.faces():
            built = SimplicialComplex(
                k.ambient & ~s, [f & ~s for f in k.facets if f & s == s]
            )
            lk = k.link(s)
            assert lk == built
            for field in fields:
                assert getattr(lk, field) == getattr(built, field), (k, s, field)


def test_link_faces_join_back():
    k = SimplicialComplex.from_facets(4, [[1, 2, 3], [2, 3, 4]])
    sigma = 0b0110
    lk = k.link(sigma)
    for f in lk.faces():
        assert f & sigma == 0
        assert k.has_face(f | sigma)


def test_is_flag_and_neighbours():
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert not tri.is_flag()
    assert tri.neighbours() == (0b110, 0b101, 0b011)
    filled = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    assert filled.is_flag()
    assert filled.neighbours() == tri.neighbours()
    pts = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    assert pts.is_flag()
    assert pts.neighbours() == (0, 0, 0)


def test_json_round_trips():
    k = SimplicialComplex.from_facets(4, [[1, 2], [2, 3, 4]])
    blob = json.dumps(k.to_json_obj())
    assert SimplicialComplex.from_json_obj(json.loads(blob)) == k
    g = Graph(3, [(1, 2)])
    blob = json.dumps(g.to_json_obj())
    assert Graph.from_json_obj(json.loads(blob)) == g


def complexes(max_m=5):
    """Random complexes as (m, list of facets)."""
    return st.integers(min_value=1, max_value=max_m).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=m),
                    min_size=1,
                    max_size=m,
                    unique=True,
                ),
                min_size=1,
                max_size=6,
            ),
        )
    )


@settings(max_examples=120, deadline=None)
@given(complexes())
def test_faces_are_downward_closed(case):
    m, facets = case
    k = SimplicialComplex.from_facets(m, facets)
    faces = set(k.faces())
    for f in faces:
        for sub in submasks(f):
            assert sub in faces


@settings(max_examples=120, deadline=None)
@given(
    complexes(),
    st.integers(min_value=0, max_value=31),
    st.sampled_from(["facets", "void", "{}"]),
)
def test_full_subcomplex_faces_are_exactly_the_contained_ones(case, raw, kind):
    m, facets = case
    facets = {"facets": facets, "void": [], "{}": [[]]}[kind]
    k = SimplicialComplex.from_facets(m, facets)
    j = raw & k.vertices_mask
    sub = SimplicialComplex(j, (f & j for f in k.facets))
    assert set(sub.faces()) == {f for f in k.faces() if f & ~j == 0}
    assert set(sub.faces()) == set(k.subfaces(j))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.sets(st.tuples(
    st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))))
def test_clique_complex_is_flag_and_matches_graph(m, raw_edges):
    edges = [(a, b) for a, b in raw_edges if a < b and b <= m]
    g = Graph(m, edges)
    k = g.clique_complex()
    assert k.is_flag()
    assert {f for f in k.faces() if f.bit_count() == 2} == {
        label_mask(e, m, "an edge") for e in g.edges
    }
    # the 1-skeleton of a clique complex is the graph
    assert k.neighbours() == g.adj


def by_size(masks):
    return tuple(sorted(masks, key=lambda g: (g.bit_count(), g)))


def test_a_shape_is_the_masks_under_one_bijection_of_the_ambient_set():
    # seeded complexes at m <= 8 with up to two ghost vertices, and their
    # links, on gapped ambient sets: the facets (a Hochster key) and the
    # faces (a cubical key) of each. The shape is their image under a
    # bijection of the ambient set onto bits 0..m-1: by brute force over
    # all m! bijections at m <= 6, and at every m the image under the one
    # that orders the vertices by (masks holding it, their size sum, label)
    rng = random.Random(34)
    brute = ghosts = 0
    for _ in range(80):
        m = rng.randint(1, 8)
        used = rng.sample(range(1, m + 1), m - rng.randint(0, min(2, m - 1)))
        facets = [[v] for v in used]
        facets += [rng.sample(used, rng.randint(1, min(4, len(used)))) for _ in range(rng.randint(0, 5))]
        k = SimplicialComplex.from_facets(m, facets)
        for c in [k] + [k.link(f) for f in rng.sample(k.faces(), min(3, len(k.faces())))]:
            ghosts += c.ghost_mask != 0
            for masks in (c.facets, c.faces()):
                got = shape(masks, c.ambient)

                def rank(v):
                    holding = [f for f in masks if f >> (v - 1) & 1]
                    return len(holding), sum(f.bit_count() for f in holding), v

                to = {v: r for r, v in enumerate(sorted(mask_vertices(c.ambient), key=rank))}
                assert got == by_size(sum(1 << to[v] for v in mask_vertices(f)) for f in masks)
                if c.m <= 6:
                    assert got in relabeled_images(masks, c.ambient), (c, masks)
                    brute += 1
    assert brute > 300 and ghosts > 50


def test_equal_shapes_are_isomorphic_complexes():
    # the 1,024 flag complexes on 5 vertices fall into 34 isomorphism
    # classes, and the all-complexes on 4 into 20. A brute-force canonical
    # form, the least image of the facets over all m! relabelings, tells
    # the classes apart: no shape of the facets or of the faces is shared
    # by two classes
    for m, complexes, classes in ((5, flag_complexes(5), 34), (4, all_complexes(4), 20)):
        perms = list(permutations(range(m)))
        seen = {}
        for k in complexes:
            form = min(
                by_size(sum(1 << p[v - 1] for v in mask_vertices(f)) for f in k.facets)
                for p in perms
            )
            for key in (("facets", shape(k.facets, k.ambient)), ("faces", shape(k.faces(), k.ambient))):
                assert seen.setdefault(key, form) == form, (k, key)
        assert len(set(seen.values())) == classes
