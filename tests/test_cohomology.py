"""Reduced F2 cohomology and restriction-map triviality."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import faces_of, reduced_betti_dense, restriction_trivial_dense
from rzformal import (
    BettiTable,
    Graph,
    SimplicialComplex,
    cohomology,
    reduced_betti,
    restriction_is_trivial,
)
from rzformal.simplicial import mask_vertices, submasks, vertex_mask


def as_dict(table):
    return {d: b for d, b in table.nonzero()}


def dense_betti(faces):
    """Reduced Betti numbers of a bitmask face list from the dense oracle."""
    return reduced_betti_dense({frozenset(mask_vertices(f)) for f in faces})


def dense_of(k):
    return dense_betti(k.faces())


def test_three_points():
    k = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    assert as_dict(reduced_betti(k)) == {0: 2}


def test_four_cycle():
    k = Graph.cycle(4).clique_complex()
    assert as_dict(reduced_betti(k)) == {1: 1}


def test_empty_face_only():
    k = SimplicialComplex.from_facets(2, [[]])
    assert as_dict(reduced_betti(k)) == {-1: 1}


def test_void_complex_has_no_cohomology():
    assert as_dict(reduced_betti(SimplicialComplex.void(3))) == {}


def test_simplex_is_acyclic():
    assert as_dict(reduced_betti(SimplicialComplex.simplex(4))) == {}


def test_triangle_boundary():
    k = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert as_dict(reduced_betti(k)) == {1: 1}


def test_projective_plane_like_gluing_is_mod2_sensitive():
    # minimal 6-vertex triangulation of RP^2: over F2 it has betti 1
    # in degrees 1 and 2, which separates mod-2 from rational homology
    facets = [
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 2, 5],
        [2, 3, 6], [3, 4, 6], [4, 5, 6], [2, 5, 6],
        [2, 4, 5], [2, 3, 4],
    ]
    k = SimplicialComplex.from_facets(6, facets)
    got = as_dict(reduced_betti(k))
    assert got == dense_of(k)


def test_betti_table_accessors():
    k = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    t = reduced_betti(k)
    assert t[0] == 2
    assert t[5] == 0
    assert t[-1] == 0
    assert t.total == 2
    blob = t.to_json_obj()
    assert BettiTable.from_json_obj(blob) == t


def test_restriction_trivial_examples():
    pts = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    assert not restriction_is_trivial(pts, vertex_mask([2, 3]))
    path = SimplicialComplex.from_facets(3, [[1, 2], [1, 3]])
    assert restriction_is_trivial(path, vertex_mask([2, 3]))
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert restriction_is_trivial(tri, vertex_mask([2, 3]))


def test_restriction_to_whole_complex_iff_acyclic():
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert not restriction_is_trivial(tri, tri.vertices_mask)
    simplex = SimplicialComplex.simplex(3)
    assert restriction_is_trivial(simplex, simplex.vertices_mask)


def test_restriction_to_empty_set_is_trivial():
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert restriction_is_trivial(tri, 0)


def complexes(max_m=6):
    return st.integers(min_value=1, max_value=max_m).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.lists(
                    st.integers(min_value=1, max_value=m),
                    min_size=1,
                    max_size=min(m, 4),
                    unique=True,
                ),
                min_size=1,
                max_size=7,
            ),
        )
    )


@settings(max_examples=150, deadline=None)
@given(complexes())
def test_betti_matches_dense_oracle(case):
    m, facets = case
    k = SimplicialComplex.from_facets(m, facets)
    assert as_dict(reduced_betti(k)) == dense_of(k)


@settings(max_examples=150, deadline=None)
@given(complexes())
def test_euler_characteristic(case):
    m, facets = case
    k = SimplicialComplex.from_facets(m, facets)
    chi_faces = sum((-1) ** (f.bit_count() - 1) for f in k.faces())
    chi_betti = sum((-1) ** d * b for d, b in reduced_betti(k).nonzero())
    assert chi_faces == chi_betti


@settings(max_examples=100, deadline=None)
@given(complexes(max_m=5), st.integers(min_value=0, max_value=31))
def test_restriction_from_acyclic_source_is_trivial(case, raw):
    m, facets = case
    k = SimplicialComplex.from_facets(m, facets)
    if reduced_betti(k).total != 0:
        return
    assert restriction_is_trivial(k, raw & k.vertices_mask)


@settings(max_examples=100, deadline=None)
@given(complexes(max_m=5), st.integers(min_value=0, max_value=31))
def test_restriction_to_acyclic_target_is_trivial(case, raw):
    m, facets = case
    k = SimplicialComplex.from_facets(m, facets)
    j = raw & k.vertices_mask
    if reduced_betti(k.full_subcomplex(j)).total != 0:
        return
    assert restriction_is_trivial(k, j)


def test_exhaustive_small_against_dense_oracle():
    # every complex spanned by subsets of a fixed facet pool on 4 vertices
    pool = [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3], [1, 2, 3], [2, 3, 4]]
    import itertools

    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            k = SimplicialComplex.from_facets(4, combo)
            assert as_dict(reduced_betti(k)) == dense_of(k)


def random_complex(rng, m, cone=False):
    """Random facets on 1..m, some vertices possibly ghosts; a cone over m if asked."""
    top = m - 1 if cone else m
    facets = [
        rng.sample(range(1, top + 1), rng.randint(1, min(top, 4)))
        for _ in range(rng.randint(1, 7))
    ]
    if cone:
        facets = [f + [m] for f in facets]
    return SimplicialComplex.from_facets(m, facets)


def test_rank_betti_equals_the_dense_betti_per_degree():
    rng = random.Random(17)
    for _ in range(150):
        m = rng.randint(1, 8)
        k = random_complex(rng, m)
        j = rng.getrandbits(m)
        for faces in (k.faces(), k.subfaces(j)):
            betti = cohomology._build_hom_data(faces).betti
            assert {d: b for d, b in betti.items() if b} == dense_betti(faces)


def test_cone_test_is_sound_on_every_subset():
    rng = random.Random(23)
    for n in range(120):
        m = rng.randint(2, 7)
        k = random_complex(rng, m, cone=n % 3 == 0)
        for c in (k, k.link(k.facets[0] & -k.facets[0])):
            for j in submasks(c.ambient):
                if c.is_cone_on(j):
                    assert dense_betti(c.subfaces(j)) == {}
        if n % 3 == 0:
            # on a cone over m, every J containing the apex is found
            apex = 1 << (m - 1)
            assert all(k.is_cone_on(j) for j in submasks(k.ambient) if j & apex)


def test_restriction_map_matches_the_dense_oracle():
    # star deletions, full subcomplexes and downward closures of random
    # face subsets, each compared with the textbook cocycle restriction
    rng = random.Random(41)
    verdicts = {kind: [] for kind in ("star", "full", "closure")}
    for n in range(600):
        m = rng.randint(1, 7)
        k = random_complex(rng, m)
        faces = k.faces()
        kind = ("star", "full", "closure")[n % 3]
        if kind == "star":
            sigma = rng.choice(faces[1:])
            tgt = tuple(f for f in faces if f & sigma != sigma)
        elif kind == "full":
            tgt = k.subfaces(rng.getrandbits(m))
        else:
            picked = [f for f in faces if rng.random() < 0.3]
            tgt = tuple(f for f in faces if any(f & ~g == 0 for g in picked))
        trivial = cohomology._restriction_map_trivial(faces, tgt)
        expected = restriction_trivial_dense(
            [mask_vertices(f) for f in faces], [mask_vertices(f) for f in tgt]
        )
        assert trivial == expected, (k, tgt)
        verdicts[kind].append(trivial)
    for kind, seen in verdicts.items():
        assert True in seen and False in seen, kind
