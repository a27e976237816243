"""Reduced F2 cohomology and restriction-map triviality."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    reduced_betti_dense,
    restriction_trivial_dense,
    subset_rows_dense,
    subset_sums_dense,
)
from shapes import cycle_graph, simplex, void_complex
from rzformal import SimplicialComplex, cohomology, general_criterion
from rzformal.cohomology import hom_data
from rzformal.simplicial import mask_vertices, submasks


def as_dict(table):
    return {d: b for d, b in enumerate(table.dims, table.min_degree) if b}


def dense_betti(faces):
    """Reduced Betti numbers of a bitmask face list from the dense oracle."""
    return reduced_betti_dense({frozenset(mask_vertices(f)) for f in faces})


def dense_of(k):
    return dense_betti(k.faces())


def test_three_points():
    k = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    assert as_dict(hom_data(k.faces())) == {0: 2}


def test_four_cycle():
    k = cycle_graph(4).clique_complex()
    assert as_dict(hom_data(k.faces())) == {1: 1}


def test_empty_face_only():
    k = SimplicialComplex.from_facets(2, [[]])
    assert as_dict(hom_data(k.faces())) == {-1: 1}


def test_void_complex_has_no_cohomology():
    assert as_dict(hom_data(void_complex(3).faces())) == {}


def test_simplex_is_acyclic():
    assert as_dict(hom_data(simplex(4).faces())) == {}


def test_triangle_boundary():
    k = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert as_dict(hom_data(k.faces())) == {1: 1}


def test_projective_plane_like_gluing_is_mod2_sensitive():
    # minimal 6-vertex triangulation of RP^2: over F2 it has betti 1
    # in degrees 1 and 2, which separates mod-2 from rational homology
    facets = [
        [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 2, 5],
        [2, 3, 6], [3, 4, 6], [4, 5, 6], [2, 5, 6],
        [2, 4, 5], [2, 3, 4],
    ]
    k = SimplicialComplex.from_facets(6, facets)
    got = as_dict(hom_data(k.faces()))
    assert got == dense_of(k)


def test_betti_table_accessors():
    k = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    t = hom_data(k.faces())
    assert dict(enumerate(t.dims, t.min_degree)) == {-1: 0, 0: 2}
    assert t.total == 2
    assert t.to_json_obj() == {"min_degree": -1, "dims": [0, 2], "total": 2}


def deletion(faces, sigma):
    """The faces not containing sigma: the deletion of its open star."""
    return tuple(f for f in faces if f & sigma != sigma)


def restriction_trivial(faces, sigma):
    """The restriction test, given the source's total as the criterion's walk gives it."""
    return cohomology._restriction_map_trivial(faces, sigma, hom_data(faces).total)


def test_restriction_trivial_examples():
    # deleting the star of vertex 1 leaves the full subcomplex K_{2,3}
    pts = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    assert not restriction_trivial(pts.faces(), 0b001)
    path = SimplicialComplex.from_facets(3, [[1, 2], [1, 3]])
    assert restriction_trivial(path.faces(), 0b001)
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert restriction_trivial(tri.faces(), 0b001)


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
    assert as_dict(hom_data(k.faces())) == dense_of(k)


@settings(max_examples=150, deadline=None)
@given(complexes(), st.sampled_from(["facets", "void", "{}"]))
def test_the_subset_walk_yields_each_j_with_nonzero_betti_once_in_lex_order(case, kind):
    # J ranges over the vertices that span a face, so a ghost is in no J,
    # and the one-vertex J, points, never show
    m, facets = case
    facets = {"facets": facets, "void": [], "{}": [[]]}[kind]
    k = SimplicialComplex.from_facets(m, facets)
    rows = subset_rows_dense(facets, m)
    pairs = list(cohomology.subset_walk(k.faces()))
    lex = sorted(rows, key=mask_vertices)
    assert pairs == [(j, sum(rows[j])) for j in lex if sum(rows[j])]
    # any face order will do
    assert list(cohomology.subset_walk(k.faces()[::-1])) == pairs
    if k.vertices_mask:
        assert pairs[0] == (0, 1) and all(j.bit_count() != 1 for j, _ in pairs)


def test_the_bit_sliced_sums_equal_the_dense_sums(monkeypatch):
    # void and {} included, and ghosts, which lie in no J; with two lane
    # bits a block holds 4 lanes, so every n > 2 spans several blocks
    rng = random.Random(23)
    cases = [(3, []), (3, [[]]), (1, [[1]]), (4, [[2, 4]])]
    while len(cases) < 120:
        m = rng.randint(1, 12)
        used = rng.sample(range(1, m + 1), min(m, rng.randint(1, 10)))
        facets = [rng.sample(used, rng.randint(1, min(len(used), 4)))
                  for _ in range(rng.randint(1, 9))]
        cases.append((m, facets))
    for lane_bits in (cohomology.LANE_BITS, 2):
        monkeypatch.setattr(cohomology, "LANE_BITS", lane_bits)
        for m, facets in cases:
            k = SimplicialComplex.from_facets(m, facets)
            want = subset_sums_dense(facets, m)
            width = len(want[0]) + 1  # wider than dim K + 2: the extra column stays 0
            got = cohomology.subset_sums(k.faces(), width)
            assert got == [row + [0] for row in want], (lane_bits, m, facets)
            assert cohomology.subset_sums(k.faces()[::-1], width) == got


def test_the_sums_relabel_a_core_onto_the_lowest_bits_in_label_order():
    # the vertices are closed up in order, so faces on the vertices 1..n
    # keep their masks
    c5 = cycle_graph(5).clique_complex()
    by_size = cohomology._faces_by_size(c5.faces())
    assert by_size == [sorted(f for f in c5.faces() if f.bit_count() == d) for d in range(3)]
    gaps = SimplicialComplex.from_facets(9, [[2, 5, 9], [5, 7]])
    moved = SimplicialComplex.from_facets(4, [[1, 2, 4], [2, 3]])
    assert cohomology._faces_by_size(gaps.faces()) == cohomology._faces_by_size(moved.faces())
    assert cohomology._faces_by_size(()) == []
    assert cohomology._faces_by_size((0,)) == [[0]]
    # against a label map, on seeded face lists with gaps, in both orders
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(1, 10)
        used = rng.sample(range(1, m + 1), rng.randint(1, m))
        facets = [rng.sample(used, rng.randint(1, min(4, len(used)))) for _ in range(3)]
        k = SimplicialComplex.from_facets(m, [[v] for v in used] + facets)
        new = {v: 1 << i for i, v in enumerate(sorted(used))}
        want = [[] for _ in range(k.dim + 2)]
        for f in k.faces():
            want[f.bit_count()].append(sum(new[v] for v in mask_vertices(f)))
        want = [sorted(size) for size in want]
        for faces in (k.faces(), k.faces()[::-1]):
            assert cohomology._faces_by_size(faces) == want, (k, faces)


@settings(max_examples=150, deadline=None)
@given(complexes())
def test_euler_characteristic(case):
    m, facets = case
    k = SimplicialComplex.from_facets(m, facets)
    chi_faces = sum((-1) ** (f.bit_count() - 1) for f in k.faces())
    t = hom_data(k.faces())
    chi_betti = sum((-1) ** d * b for d, b in enumerate(t.dims, t.min_degree))
    assert chi_faces == chi_betti


def some_face(k, raw):
    """A nonempty face of k picked by ``raw``."""
    faces = k.faces()
    return faces[1 + raw % (len(faces) - 1)]


@settings(max_examples=100, deadline=None)
@given(complexes(max_m=5), st.integers(min_value=0, max_value=63))
def test_restriction_from_acyclic_source_is_trivial(case, raw):
    m, facets = case
    k = SimplicialComplex.from_facets(m, facets)
    if hom_data(k.faces()).total != 0:
        return
    assert restriction_trivial(k.faces(), some_face(k, raw))


@settings(max_examples=100, deadline=None)
@given(complexes(max_m=5), st.integers(min_value=0, max_value=63))
def test_restriction_to_acyclic_target_is_trivial(case, raw):
    m, facets = case
    k = SimplicialComplex.from_facets(m, facets)
    sigma = some_face(k, raw)
    if dense_betti(deletion(k.faces(), sigma)):
        return
    assert restriction_trivial(k.faces(), sigma)


def test_exhaustive_small_against_dense_oracle():
    # every complex spanned by subsets of a fixed facet pool on 4 vertices
    pool = [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3], [1, 2, 3], [2, 3, 4]]
    import itertools

    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            k = SimplicialComplex.from_facets(4, combo)
            assert as_dict(hom_data(k.faces())) == dense_of(k)


def random_complex(rng, m):
    """Random facets on 1..m, some vertices possibly ghosts."""
    facets = [
        rng.sample(range(1, m + 1), rng.randint(1, min(m, 4)))
        for _ in range(rng.randint(1, 7))
    ]
    return SimplicialComplex.from_facets(m, facets)


def test_rank_betti_equals_the_dense_betti_per_degree():
    rng = random.Random(17)
    for _ in range(150):
        m = rng.randint(1, 8)
        k = random_complex(rng, m)
        j = rng.getrandbits(m)
        for faces in (k.faces(), k.subfaces(j)):
            assert as_dict(cohomology._build_hom_data(faces)) == dense_betti(faces)


def test_restriction_map_matches_the_dense_oracle():
    # star deletions of random nonempty faces, each compared with the
    # textbook cocycle restriction
    rng = random.Random(41)
    seen = set()
    for _ in range(300):
        m = rng.randint(1, 7)
        k = random_complex(rng, m)
        faces = k.faces()
        sigma = rng.choice(faces[1:])
        trivial = restriction_trivial(faces, sigma)
        expected = restriction_trivial_dense(
            [mask_vertices(f) for f in faces],
            [mask_vertices(f) for f in deletion(faces, sigma)],
        )
        assert trivial == expected, (k, sigma)
        seen.add(trivial)
    assert seen == {True, False}


def test_the_restriction_test_builds_each_entry_once_over_every_i(monkeypatch):
    # a census decides every I of one complex; the walk gives each β̃(K_J),
    # and the criterion asks for the same deletions and links across the
    # I, and the cache builds each face list once
    built, asked = [], []
    build, get = cohomology._build_hom_data, cohomology.hom_data
    monkeypatch.setattr(
        cohomology, "_build_hom_data", lambda faces: built.append(faces) or build(faces)
    )
    monkeypatch.setattr(cohomology, "hom_data", lambda faces: asked.append(faces) or get(faces))
    rng = random.Random(59)
    reused = 0
    for _ in range(40):
        k = random_complex(rng, rng.randint(3, 7))
        k = SimplicialComplex(k.vertices_mask, k.facets)  # the criterion refuses ghosts
        cohomology.clear_caches()
        built.clear()
        asked.clear()
        for i_mask in submasks(k.ambient):
            general_criterion(k, i_mask)
        assert len(built) == len(set(built)) and set(built) == set(asked), k
        reused += len(asked) - len(built)
    assert reused > 0
