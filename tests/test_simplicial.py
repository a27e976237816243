"""Complexes, graphs, clique complexes, links and restrictions."""

import gc
import json
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cliques_of, faces_of
from rzformal import Graph, SimplicialComplex
from rzformal.simplicial import mask_vertices, submasks, vertex_mask


def facet_sets(k):
    return sorted(sorted(mask_vertices(f)) for f in k.facets)


def test_vertex_mask_round_trip():
    assert vertex_mask([1, 3]) == 0b101
    assert mask_vertices(0b101) == (1, 3)
    assert vertex_mask([]) == 0


def test_submasks_enumerates_all_subsets_ascending():
    subs = list(submasks(0b101))
    assert subs == [0b000, 0b001, 0b100, 0b101]


def test_graph_basics():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1)])
    assert g.edges == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert g.adj[0] == vertex_mask([2, 4])
    assert Graph.complete(3).edges == ((1, 2), (1, 3), (2, 3))
    assert Graph.empty(2).edges == () and Graph.empty(2).adj == (0, 0)
    assert Graph.cycle(4).edges == g.edges


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_clique_complex_of_cycle_is_the_cycle():
    k = Graph.cycle(4).clique_complex()
    assert facet_sets(k) == [[1, 2], [1, 4], [2, 3], [3, 4]]
    assert k.is_flag()


def test_clique_search_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            Graph.cycle(5).clique_complex().is_flag()
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
    k = Graph.complete(3).clique_complex()
    assert facet_sets(k) == [[1, 2, 3]]
    assert k.dim == 2


def test_clique_complex_of_empty_graph_is_points():
    k = Graph.empty(2).clique_complex()
    assert facet_sets(k) == [[1], [2]]


def test_from_facets_closes_downward_and_dedups():
    k = SimplicialComplex.from_facets(3, [[1, 2], [2, 1], [1]])
    assert facet_sets(k) == [[1, 2]]
    assert k.has_face(vertex_mask([1]))
    assert k.has_face(0)  # the empty face
    assert not k.has_face(vertex_mask([3]))
    assert k.ghost_mask == vertex_mask([3])


def test_void_versus_empty_face():
    void = SimplicialComplex.void(2)
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


def test_full_subcomplex():
    k = Graph.cycle(4).clique_complex()
    sub = k.full_subcomplex(vertex_mask([1, 2, 3]))
    assert facet_sets(sub) == [[1, 2], [2, 3]]
    # the ambient set shrinks to J but labels are preserved
    assert sub.m == 3
    assert sub.vertex_labels() == (1, 2, 3)
    empty = k.full_subcomplex(0)
    assert facet_sets(empty) == [[]]
    assert empty.dim == -1


def test_full_subcomplex_composition():
    k = Graph.cycle(5).clique_complex()
    a = vertex_mask([1, 2, 3, 4])
    b = vertex_mask([2, 3])
    assert k.full_subcomplex(a).full_subcomplex(b) == k.full_subcomplex(a & b)


def test_link_examples():
    c4 = Graph.cycle(4).clique_complex()
    lk = c4.link(vertex_mask([1]))
    assert facet_sets(lk) == [[2], [4]]
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    lk2 = tri.link(vertex_mask([1, 2]))
    assert facet_sets(lk2) == [[]]
    # vertices outside the face survive as ambient, not as faces
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    lk3 = two.link(vertex_mask([1]))
    assert facet_sets(lk3) == [[]]
    assert lk3.m == 1
    assert lk3.vertex_labels() == (2,)


def test_link_is_memoized_per_face():
    c4 = Graph.cycle(4).clique_complex()
    assert c4.link(vertex_mask([1])) is c4.link([1])
    assert c4.link(vertex_mask([1])) is not c4.link(vertex_mask([2]))
    # the link of the empty face is the complex itself
    assert c4.link(0) is c4


def test_link_of_non_face_raises():
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    with pytest.raises(ValueError):
        two.link(vertex_mask([1, 2]))


def test_link_faces_join_back():
    k = SimplicialComplex.from_facets(4, [[1, 2, 3], [2, 3, 4]])
    sigma = vertex_mask([2, 3])
    lk = k.link(sigma)
    for f in lk.faces():
        assert f & sigma == 0
        assert k.has_face(f | sigma)


def test_is_flag_and_missing_edges():
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert not tri.is_flag()
    assert tri.missing_edges() == ()
    filled = SimplicialComplex.from_facets(3, [[1, 2, 3]])
    assert filled.is_flag()
    pts = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    assert pts.is_flag()
    assert pts.missing_edges() == ((1, 2), (1, 3), (2, 3))


def test_underlying_graph_round_trip():
    g = Graph.cycle(5)
    assert g.clique_complex().underlying_graph() == g


def test_underlying_graph_keeps_ghosts_isolated():
    k = SimplicialComplex.from_facets(3, [[1, 2]])
    g = k.underlying_graph()
    assert g.m == 3
    assert g.edges == ((1, 2),)


def test_underlying_graph_needs_contiguous_labels():
    sub = Graph.cycle(4).clique_complex().full_subcomplex(vertex_mask([2, 3, 4]))
    with pytest.raises(ValueError):
        sub.underlying_graph()


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
    sub = k.full_subcomplex(j)
    assert set(sub.faces()) == {f for f in k.faces() if f & ~j == 0}
    assert set(sub.faces()) == set(k.subfaces(j))
    # the walk yields every J of non-ghost vertices once, except the leaf
    # cones (J holds the top vertex and is a cone), in lexicographic order
    # of its vertices, with exactly the faces of K_J
    walk = list(k.full_subcomplexes())
    top = 1 << k.vertices_mask.bit_length() >> 1
    kept = [j for j in submasks(k.vertices_mask) if not (j & top and k.is_cone_on(j))]
    assert sorted(j for j, _ in walk) == kept
    order = [mask_vertices(j) for j, _ in walk]
    assert order == sorted(order)
    for j, faces in walk:
        assert list(faces) == sorted(set(faces))
        assert set(faces) == set(k.subfaces(j))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.sets(st.tuples(
    st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))))
def test_clique_complex_is_flag_and_matches_graph(m, raw_edges):
    edges = [(a, b) for a, b in raw_edges if a < b and b <= m]
    g = Graph(m, edges)
    k = g.clique_complex()
    assert k.is_flag()
    assert k.underlying_graph() == g
    # missing edges of a clique complex are exactly the non-edges
    non_edges = tuple(
        (u, v)
        for u in range(1, m + 1)
        for v in range(u + 1, m + 1)
        if (u, v) not in g.edges
    )
    assert k.missing_edges() == non_edges
