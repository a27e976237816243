"""Betti numbers of the real and complex coordinate-subspace spaces.

The two computation routes, the combinatorial one (a sum of reduced
cohomology over vertex subsets) and the cellular one (a cubical model
with an honest boundary matrix), are developed independently inside
the package, so their agreement is a strong internal check. Both are
also compared against the dense reference oracle from oracles.py.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cube_betti,
    cube_cells,
    cube_boundary,
    cube_counts,
    cube_ranks,
    decode_cell,
    decode_cells,
    fixed_cells,
    hochster_complex_dense,
    hochster_real_dense,
    model_cells,
    reduced_betti_dense,
)
from shapes import cycle_graph, simplex, void_complex
from rzformal import (
    SimplicialComplex,
    betti_sum_oracle,
    build_cubical,
    cohomology,
    fixed_betti_via_link,
    hochster_complex_betti,
    hochster_real_betti,
    moment_angle,
    torus_oracle,
)
from rzformal.census import all_complexes, flag_complexes
from rzformal.cohomology import BettiTable
from rzformal.moment_angle import CubicalComplex
from rzformal.simplicial import label_mask, mask_vertices, shape, submasks


def dims(table):
    return list(table.dims)


def test_real_betti_of_four_cycle():
    k = cycle_graph(4).clique_complex()
    assert dims(hochster_real_betti(k)) == [1, 2, 1]


def test_real_betti_of_triangle_boundary():
    k = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert dims(hochster_real_betti(k)) == [1, 0, 1]


def test_real_betti_of_three_points():
    k = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    t = hochster_real_betti(k)
    assert t.total == 6
    assert dims(t) == [1, 5]


def test_real_betti_of_simplex_is_a_point():
    assert dims(hochster_real_betti(simplex(3))) == [1]


def test_complex_betti_of_two_points_is_a_three_sphere():
    k = SimplicialComplex.from_facets(2, [[1], [2]])
    t = hochster_complex_betti(k)
    assert [d for d in range(len(t.dims)) if t.dims[d]] == [0, 3]
    assert t.total == 2


def test_complex_betti_of_triangle_boundary_is_a_five_sphere():
    k = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert dims(hochster_complex_betti(k)) == [1, 0, 0, 0, 0, 1]


def test_real_and_complex_totals_agree_on_samples():
    for facets, m in [
        ([[1], [2], [3]], 3),
        ([[1, 2], [2, 3], [3, 4], [1, 4]], 4),
        ([[1, 2], [2, 3], [1, 3]], 3),
        ([[1, 2, 3]], 3),
        ([[]], 2),
    ]:
        k = SimplicialComplex.from_facets(m, facets)
        assert hochster_real_betti(k).total == hochster_complex_betti(k).total


def test_ghost_vertices_double_the_space():
    # a ghost vertex contributes an S^0 factor to the real space
    base = SimplicialComplex.from_facets(1, [[1]])
    ghosted = SimplicialComplex.from_facets(2, [[1]])
    assert hochster_real_betti(base).total * 2 == hochster_real_betti(ghosted).total


def test_void_complex_is_empty_space():
    assert hochster_real_betti(void_complex(2)).total == 0
    assert hochster_complex_betti(void_complex(2)).total == 0


def test_real_betti_matches_dense_oracle_exhaustively_m3():
    for k in all_complexes(3):
        facets = [list(mask_vertices(f)) for f in k.facets]
        assert dims(hochster_real_betti(k)) == hochster_real_dense(facets, 3)
        assert dims(hochster_complex_betti(k)) == hochster_complex_dense(facets, 3)


def test_real_betti_matches_dense_oracle_random():
    rng = random.Random(424242)
    for _ in range(25):
        m = rng.randint(1, 5)
        facets = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, min(m, 3))
            facets.append(rng.sample(range(1, m + 1), size))
        k = SimplicialComplex.from_facets(m, facets)
        assert dims(hochster_real_betti(k)) == hochster_real_dense(facets, m)
        assert dims(hochster_complex_betti(k)) == hochster_complex_dense(facets, m)


def test_cubical_counts_single_vertex():
    k = SimplicialComplex.from_facets(1, [[1]])
    plain = build_cubical(k)
    assert plain.counts() == (2, 1)
    assert cube_counts(cube_cells(k, k.ambient)) == (3, 2)


def test_cubical_counts_empty_face_complex():
    k = SimplicialComplex.from_facets(1, [[]])
    assert build_cubical(k).counts() == (2,)
    assert cube_counts(cube_cells(k, k.ambient)) == (2,)


def test_cubical_counts_four_cycle():
    k = cycle_graph(4).clique_complex()
    c = build_cubical(k)
    assert c.counts() == (16, 32, 16)
    # euler characteristic of a torus
    assert 16 - 32 + 16 == 0
    assert dims(c.betti()) == [1, 2, 1]


def test_cubical_betti_examples():
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    assert dims(build_cubical(tri).betti()) == [1, 0, 1]
    # two disjoint points give a circle, the boundary of the square
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    assert dims(build_cubical(two).betti()) == [1, 1]


def test_cubical_agrees_with_hochster_exhaustively_m3():
    for k in all_complexes(3):
        want = dims(hochster_real_betti(k))
        assert dims(build_cubical(k).betti()) == want
        assert cube_betti(cube_cells(k, k.ambient)) == want


def test_cubical_agrees_with_hochster_on_ghosts():
    for m, facets in [(2, [[1]]), (3, [[1, 2]]), (3, [[1], [2]]), (2, [[]])]:
        k = SimplicialComplex.from_facets(m, facets)
        want = dims(hochster_real_betti(k))
        assert dims(build_cubical(k).betti()) == want
        assert cube_betti(cube_cells(k, k.ambient)) == want


def assert_boundaries_are_the_oracles(model):
    for cells in model_cells(model):
        for cell in cells:
            got = [decode_cell(b, model.ambient) for b in model.boundary(cell)]
            assert sorted(got) == sorted(cube_boundary(decode_cell(cell, model.ambient)))


def fixed_by_oracle(k, i_mask, cut):
    """Betti numbers of the oracle's cells at 0 on I, the model cut along ``cut``."""
    return cube_betti(fixed_cells(cube_cells(k, cut), i_mask))


def test_fixed_points_of_triangle_boundary_single_coordinate():
    # the fixed set of the first coordinate reflection is a circle
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    f = build_cubical(tri).fixed_subcomplex(0b001)
    assert dims(f.betti()) == [1, 1]
    assert fixed_by_oracle(tri, 0b001, tri.ambient) == [1, 1]
    assert dims(fixed_betti_via_link(tri, 0b001)) == [1, 1]


def test_fixed_points_of_triangle_boundary_edge():
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    f = build_cubical(tri).fixed_subcomplex(0b011)
    assert dims(f.betti()) == [2]
    assert fixed_by_oracle(tri, 0b011, tri.ambient) == [2]
    assert dims(fixed_betti_via_link(tri, 0b011)) == [2]


def test_fixed_points_of_non_face_are_empty():
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    assert build_cubical(two).fixed_subcomplex(0b11).counts() == ()
    assert fixed_cells(cube_cells(two, two.ambient), 0b11) == set()
    assert fixed_betti_via_link(two, 0b11).total == 0


def test_fixed_points_of_coordinates_outside_the_ambient_set_are_refused():
    # the link of 1 in the triangle's boundary lives on {2, 3}, so 1 is
    # outside it, as 4 is outside the triangle's boundary itself
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    link = tri.link(0b001)
    for k, i_mask in ((tri, 0b1000), (link, 0b001), (link, 0b011)):
        with pytest.raises(ValueError, match="not contained in the vertex set"):
            fixed_betti_via_link(k, i_mask)
        with pytest.raises(ValueError, match="not contained in the vertex set"):
            build_cubical(k).fixed_subcomplex(i_mask)


def test_fixed_points_of_two_points_single_coordinate():
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    assert dims(fixed_betti_via_link(two, 0b01)) == [2]
    assert dims(build_cubical(two).fixed_subcomplex(0b01).betti()) == [2]
    assert fixed_by_oracle(two, 0b01, two.ambient) == [2]


def test_fixed_subcomplex_of_empty_coordinate_set_is_everything():
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    c = build_cubical(tri)
    assert decode_cells(c.fixed_subcomplex(0)) == decode_cells(c) == cube_cells(tri, 0)
    assert_boundaries_are_the_oracles(c)
    assert dims(fixed_betti_via_link(tri, 0)) == dims(hochster_real_betti(tri))


def test_fixed_subcomplex_of_plain_model_matches_subdivided_model():
    # cutting the plain model along I alone gives the fixed set of the
    # model cut along every coordinate
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    plain = build_cubical(tri)
    # over the faces {1}, {1,2}, {1,3}: 4 points and 4 arcs, a circle
    assert plain.fixed_subcomplex(0b001).counts() == (4, 4)
    for i_mask in submasks(tri.ambient):
        want = fixed_by_oracle(tri, i_mask, tri.ambient)
        assert dims(plain.fixed_subcomplex(i_mask).betti()) == want


def test_fixed_betti_matches_cubical_exhaustively_m3():
    for k in all_complexes(3):
        c = build_cubical(k)
        for i_mask in submasks(k.vertices_mask):
            link_side = fixed_betti_via_link(k, i_mask)
            cube_side = c.fixed_subcomplex(i_mask).betti()
            assert dims(link_side) == dims(cube_side)
            # fixed sets never have more total cohomology than the space
            assert link_side.total <= hochster_real_betti(k).total


def test_fixed_cubical_models_rank_to_the_oracle():
    # every (K, I) at m = 4, then seeded m = 5-6 models with |I| >= 2 and
    # ghost vertices; the model and the oracle cut along I alone
    cases = [(k, i) for k in all_complexes(4) for i in submasks(k.ambient)]
    rng = random.Random(56)
    for _ in range(60):
        m = rng.randint(5, 6)
        used = rng.sample(range(1, m + 1), m - rng.randint(1, 2))
        facets = [rng.sample(used, rng.randint(2, min(4, len(used)))) for _ in range(4)]
        k = SimplicialComplex.from_facets(m, [[v] for v in used] + facets)
        for facet in facets:
            cases.append((k, label_mask(rng.sample(facet, rng.randint(2, len(facet))), m, "I")))
    cohomology.clear_caches()
    for k, i_mask in cases:
        got = dims(build_cubical(k).fixed_subcomplex(i_mask).betti())
        assert got == fixed_by_oracle(k, i_mask, i_mask), (k, i_mask)


def test_the_fixed_model_is_the_model_of_the_link():
    # read off K's own model, the model fixed on a face I lives on the
    # ambient set less I and has the faces of lk I; a non-face gives no
    # faces. Every I of every complex at m <= 4, then seeded m = 5-7
    # complexes with ghost vertices, fixed on faces and non-faces
    cases = [(k, list(submasks(k.ambient))) for m in range(1, 5) for k in all_complexes(m)]
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(5, 7)
        used = rng.sample(range(1, m + 1), m - rng.randint(1, 2))
        facets = [rng.sample(used, rng.randint(1, min(4, len(used)))) for _ in range(4)]
        k = SimplicialComplex.from_facets(m, [[v] for v in used] + facets)
        i_masks = rng.sample(k.faces(), 6) + [rng.getrandbits(m) for _ in range(4)]
        cases.append((k, i_masks))
    non_faces = 0
    for k, i_masks in cases:
        for i_mask in i_masks:
            fixed = build_cubical(k).fixed_subcomplex(i_mask)
            assert fixed.ambient == k.ambient & ~i_mask, (k, i_mask)
            if k.has_face(i_mask):
                assert fixed.faces == k.link(i_mask).faces(), (k, i_mask)
            else:
                assert fixed.faces == (), (k, i_mask)
                non_faces += 1
    assert non_faces > 100


def test_fixed_subcomplex_rows_match_rebuilt_complex_and_link():
    # the fixed cells ranked by the package, the oracle's cells at 0 on I,
    # rebuilt and ranked from the model cut along I, and the link formula
    for m in range(1, 5):
        for k in all_complexes(m):
            for i_mask in submasks(k.ambient):
                want = fixed_by_oracle(k, i_mask, i_mask)
                fixed = build_cubical(k).fixed_subcomplex(i_mask)
                assert dims(fixed.betti()) == want, (k, i_mask)
                assert dims(fixed_betti_via_link(k, i_mask)) == want, (k, i_mask)


def test_fixed_subcomplex_cut_along_i_equals_the_full_subdivision():
    for m in range(1, 5):
        for k in all_complexes(m):
            fine = cube_cells(k, k.ambient)
            for i_mask in submasks(k.ambient):
                fixed = build_cubical(k).fixed_subcomplex(i_mask)
                want = cube_betti(fixed_cells(fine, i_mask))
                assert dims(fixed.betti()) == want, (k, i_mask)
                # one cell per face sigma containing I and sign pattern off sigma
                sizes = [2 ** (m - f.bit_count()) for f in k.faces() if f & i_mask == i_mask]
                assert sum(fixed.counts()) == sum(sizes), (k, i_mask)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, (1 << m) - 1), max_size=5))
))
def test_fixed_cells_are_the_oracle_cells_at_zero_on_i(case):
    # for every I, each cell of the package's fixed set, decoded into
    # intervals, is a cell at 0 on I of the oracle model cut along I, with
    # the coordinates of I dropped, each such cell is listed exactly once,
    # and each boundary is the oracle's
    m, facets = case
    k = SimplicialComplex((1 << m) - 1, facets)
    for i_mask in submasks(k.ambient):
        fixed = build_cubical(k).fixed_subcomplex(i_mask)
        cells = decode_cells(fixed)
        assert cells == fixed_cells(cube_cells(k, i_mask), i_mask), i_mask
        assert fixed.counts() == cube_counts(cells), i_mask
        assert_boundaries_are_the_oracles(fixed)


def spy_columns(monkeypatch):
    """The (cell index, column, d + 1) items of every d-column ``_rank`` builds."""
    built = []
    add = moment_angle.add_faces

    def spy(items, *args):
        built.extend(items)
        return add(items, *args)

    monkeypatch.setattr(moment_angle, "add_faces", spy)
    return built


@pytest.mark.parametrize("i_set", [[], [1, 2]])
def test_oracle_builds_and_ranks_only_the_fixed_cells(monkeypatch, i_set):
    calls = []
    boundary = CubicalComplex.boundary

    def counted(self, cell):
        calls.append(cell)
        return boundary(self, cell)

    monkeypatch.setattr(CubicalComplex, "boundary", counted)
    built = spy_columns(monkeypatch)
    cohomology.clear_caches()
    k = SimplicialComplex.from_facets(6, [[1, 2, 3], [1, 2, 4], [3, 4, 5], [5, 6], [1, 6]])
    i_mask = label_mask(i_set, 6, "I")
    betti_sum_oracle(k, i_mask)
    cells = fixed_cells(cube_cells(k, i_mask), i_mask)
    counts, ranks = cube_counts(cells), cube_ranks(cells)
    # ranking generates no cell: ``boundary`` is read once per nonempty face
    # of the fixed model, on its cell with every sign -1, in the model that
    # asked, on the coordinates off I with their own labels
    model = build_cubical(k).fixed_subcomplex(i_mask)
    star = [f for f in k.faces() if f & i_mask == i_mask]
    assert model.ambient == k.ambient & ~i_mask
    assert model.faces == tuple(f ^ i_mask for f in star)
    assert sorted(calls) == sorted(f | f << model._w for f in model.faces if f)
    # a cell of dimension d ≥ 1 gets one column unless it was cleared, and
    # the d-cells cleared are the pivot rows of the (d+1)-columns
    columns = Counter(d - 1 for _, _, d in built)
    assert len(set((i, d) for i, _, d in built)) == len(built)
    assert columns == Counter({d: n - ranks.get(d + 1, 0) for d, n in enumerate(counts) if d})


def test_each_column_is_the_boundary_of_its_cell(monkeypatch):
    # every column that ``_rank`` builds, against ``boundary`` of the cell at
    # its index: the plain and every fixed model of the flag complexes at
    # m <= 4 and of all complexes at m <= 3, then seeded m = 5-7 models
    # with ghost vertices, fixed on faces and non-faces
    built = spy_columns(monkeypatch)
    cases = [(k, list(submasks(k.ambient))) for m in range(1, 5) for k in flag_complexes(m)]
    cases += [(k, list(submasks(k.ambient))) for m in range(1, 4) for k in all_complexes(m)]
    rng = random.Random(28)
    for _ in range(12):
        m = rng.randint(5, 7)
        used = rng.sample(range(1, m + 1), m - rng.randint(1, 2))
        facets = [rng.sample(used, rng.randint(1, min(4, len(used)))) for _ in range(3)]
        k = SimplicialComplex.from_facets(m, [[v] for v in used] + facets)
        faces = [f for f in k.faces() if f]
        cases.append((k, [0] + rng.sample(faces, 3) + [rng.getrandbits(m) for _ in range(2)]))
    for k, i_masks in cases:
        plain = build_cubical(k)
        for model in [plain] + [plain.fixed_subcomplex(i) for i in i_masks]:
            del built[:]
            got = model._rank()
            cells = model_cells(model)
            index = [{c: j for j, c in enumerate(part)} for part in cells]
            for j, col, d in built:
                want = sum(1 << index[d - 2][b] for b in model.boundary(cells[d - 1][j]))
                assert col == want, (model, d, j)
            assert dims(got) == cube_betti(decode_cells(model)), model


def test_counts_are_read_off_the_faces(monkeypatch):
    # Σ 2^|ambient ∖ sigma| cells per dimension |sigma|, no cell generated,
    # equal to the oracle's count of the cells at 0 on I
    def no_cells(self, cell):
        raise AssertionError("a cell was generated")

    monkeypatch.setattr(CubicalComplex, "boundary", no_cells)
    for m in range(1, 4):
        for k in all_complexes(m):
            for i_mask in submasks(k.ambient):
                fixed = build_cubical(k).fixed_subcomplex(i_mask)
                cells = fixed_cells(cube_cells(k, i_mask), i_mask)
                assert fixed.counts() == cube_counts(cells), (k, i_mask)


def test_one_hochster_loop_serves_both_spaces_and_the_link(monkeypatch):
    walked = []
    walk = moment_angle._walk_tables

    def counted(c):
        walked.append(c)
        return walk(c)

    monkeypatch.setattr(moment_angle, "_walk_tables", counted)
    cohomology.clear_caches()
    k = cycle_graph(4).clique_complex()
    hochster_real_betti(k)
    hochster_complex_betti(k)
    # one walk of K fills both tables
    assert walked == [k]
    fixed_betti_via_link(k, 0b0001)
    # the torus oracle reuses the memoized link and its tables; the link,
    # on 2, 4 and the ghost 3, is walked on its own labels
    torus_oracle(k, 0b0001)
    assert walked == [k, k.link(0b0001)]
    assert walked[1] == SimplicialComplex(0b1110, [0b0010, 0b1000])
    # the sums reduce along the walk and never touch the cohomology cache
    assert cohomology._hom_cache == {}


def cells_key(model):
    """The data a model's cells are read from: its memo key."""
    return model.ambient, 0, model.faces


def spy_ranks(monkeypatch):
    """The models ``CubicalComplex._rank`` ranks from here on, memo cleared."""
    ranked = []
    rank = CubicalComplex._rank

    def spy(model):
        ranked.append(model)
        return rank(model)

    monkeypatch.setattr(CubicalComplex, "_rank", spy)
    cohomology.clear_caches()
    return ranked


def test_the_hochster_memo_key_holds_the_ambient_set():
    # the same facets with a ghost vertex: every table doubles (real) or
    # is convolved with 1 + t (complex), so the two may not share an entry
    cohomology.clear_caches()
    edge = SimplicialComplex(0b011, [0b011])
    ghosted = SimplicialComplex(0b111, [0b011])
    for k, m in ((edge, 2), (ghosted, 3)):
        assert dims(hochster_real_betti(k)) == hochster_real_dense([[1, 2]], m)
        assert dims(hochster_complex_betti(k)) == hochster_complex_dense([[1, 2]], m)
    assert hochster_real_betti(ghosted).total == 2 * hochster_real_betti(edge).total


def test_the_cubical_memo_key_holds_the_ambient_set(monkeypatch):
    ranked = spy_ranks(monkeypatch)
    two_points = SimplicialComplex(0b011, [0b01, 0b10])
    ghosted = SimplicialComplex(0b111, [0b01, 0b10])
    for k in (two_points, ghosted):
        got = build_cubical(k).fixed_subcomplex(0b01).betti()
        assert got == fixed_betti_via_link(k, 0b01)
    assert len(ranked) == 2


def test_the_same_star_of_i_shares_one_cubical_entry(monkeypatch):
    # the faces containing I = {1} are {1} and {1, 2} in both; the faces
    # elsewhere differ, and the plain model of each is ranked on its own
    ranked = spy_ranks(monkeypatch)
    k1 = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    k2 = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4]])
    fixed = [build_cubical(k).fixed_subcomplex(0b0001) for k in (k1, k2)]
    # less I, on the coordinates 2, 3, 4
    assert fixed[0].faces == fixed[1].faces == (0b0000, 0b0010)
    assert fixed[0].ambient == fixed[1].ambient == 0b1110
    assert fixed[0].betti() is fixed[1].betti()
    assert fixed[0].betti() == fixed_betti_via_link(k2, 0b0001)
    # ranked once, as the first model that asked, on its own labels
    assert [cells_key(c) for c in ranked] == [(0b1110, 0, (0b0000, 0b0010))]
    assert build_cubical(k1).betti() != build_cubical(k2).betti()
    assert len(ranked) == 3


def test_empty_fixed_models_on_other_coordinates_share_one_rank(monkeypatch):
    ranked = spy_ranks(monkeypatch)
    k = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4]])
    # {1, 3} and {1, 4} are no faces: no faces and no cells, on the
    # coordinates 2, 4 and 2, 3, two raw entries; relabeled onto 1, 2,
    # both are the empty model on two coordinates, one shape entry and one
    # rank, of the first model that asked
    empty = [build_cubical(k).fixed_subcomplex(i) for i in (0b0101, 0b1001)]
    assert empty[0].faces == empty[1].faces == ()
    assert [c.ambient for c in empty] == [0b1010, 0b0110]
    assert [c.betti().total for c in empty] == [0, 0]
    assert set(cohomology._raw_memo) == {cells_key(c) for c in empty}
    assert set(cohomology._memo) == {(0b11, 0, ())}
    assert [cells_key(c) for c in ranked] == [(0b1010, 0, ())]


def relabel(mask, labels):
    """``mask`` with vertex v moved to ``labels[v - 1]``."""
    return label_mask([labels[v - 1] for v in mask_vertices(mask)], max(labels), "a face")


def test_shifted_padded_and_relabeled_copies_share_one_entry(monkeypatch):
    # K on 1..5 with the ghost 3, and copies with the same vertex order: K
    # shifted up by 3, K on 2, 3, 5, 6, 8 coned over 1, 4, 7 (fixed on
    # its apexes, the cells of a gapped copy of K, as is the link of the
    # apexes), and K on 1, 4, 5, 8, 9
    ranked = spy_ranks(monkeypatch)
    walked = []
    walk = moment_angle._walk_tables
    monkeypatch.setattr(moment_angle, "_walk_tables", lambda c: walked.append(c) or walk(c))
    facets = [[1, 2], [2, 4], [1, 4], [4, 5]]
    k = SimplicialComplex.from_facets(5, facets)
    pad = label_mask([1, 4, 7], 8, "pad")
    coned = SimplicialComplex(0xFF, [relabel(f, [2, 3, 5, 6, 8]) | pad for f in k.facets])
    copies = [
        SimplicialComplex(0b11111 << 3, [relabel(f, [4, 5, 6, 7, 8]) for f in k.facets]),
        coned.link(pad),
        SimplicialComplex(0b110011001, [relabel(f, [1, 4, 5, 8, 9]) for f in k.facets]),
    ]
    assert [c.ghost_mask.bit_count() for c in copies] == [1, 1, 1]
    tables = [(hochster_real_betti(c), hochster_complex_betti(c)) for c in [k] + copies]
    assert tables == [tables[0]] * 4
    assert list(tables[0][0].dims) == hochster_real_dense(facets, 5)
    assert walked == [k]
    # one rank for the plain models of K and two copies, and the cone's model
    # fixed on its apexes
    models = [build_cubical(k)] + [build_cubical(c) for c in (copies[0], copies[2])]
    models.append(build_cubical(coned).fixed_subcomplex(pad))
    assert [c.betti() for c in models] == [models[0].betti()] * 4
    assert models[0].betti() == hochster_real_betti(k)
    assert [cells_key(c) for c in ranked] == [cells_key(models[0])]
    assert len({shape(c.faces, c.ambient) for c in models}) == 1


def test_isomorphic_copies_in_another_vertex_order_share_one_entry(monkeypatch):
    # a triangle with a path of two edges on 1..5 and the ghost 6, and a copy
    # in another vertex order: the tables and the plain model's rank are
    # computed for the first and read for the copy, whose raw keys differ.
    # Each vertex but 1 and 2, which an automorphism swaps, lies in masks
    # of its own numbers and sizes, so the copy has the same shape
    ranked = spy_ranks(monkeypatch)
    walked = []
    walk = moment_angle._walk_tables
    monkeypatch.setattr(moment_angle, "_walk_tables", lambda c: walked.append(c) or walk(c))
    facets = [[1, 2, 3], [3, 4], [4, 5]]
    labels = [5, 3, 6, 1, 4, 2]
    k = SimplicialComplex.from_facets(6, facets)
    copy = SimplicialComplex.from_facets(6, [[labels[v - 1] for v in f] for f in facets])
    assert copy.facets != k.facets and copy.ghost_mask == 0b000010
    tables = [(hochster_real_betti(c), hochster_complex_betti(c)) for c in (k, copy)]
    assert tables[0] == tables[1]
    assert list(tables[0][0].dims) == hochster_real_dense(facets, 6)
    assert walked == [k]
    ranks = [build_cubical(c).betti() for c in (k, copy)]
    assert ranks[0] is ranks[1]
    assert ranked == [build_cubical(k)]


class _Forgetful(dict):
    """A cache that keeps nothing, so that every lookup misses."""

    def __setitem__(self, key, value):
        pass


class _Shaped(dict):
    """Sketches as if each had been met before: every raw miss is shaped."""

    def pop(self, key, default=None):
        return None


def test_every_memo_key_names_one_result(monkeypatch):
    # with the raw keys forgotten and every miss looked up by its shape,
    # each result is computed afresh on the object that asks, and a key
    # asked for twice must name the same result. Over the tables of each
    # complex and link and the plain and fixed models: every I of every
    # complex at m <= 4, three I of each flag complex at m = 5, and seeded
    # complexes with ghost vertices at m = 5-7, fixed on faces and non-faces
    seen = {}
    asked = Counter()
    memoized = cohomology.memoized

    def recording(key, compute, arg, cache=None):
        if cache is not None:
            return memoized(key, compute, arg, cache)
        value = compute(arg)
        assert seen.setdefault(key, value) == value, (key, arg)
        asked[len(key)] += 1
        return value

    monkeypatch.setattr(cohomology, "memoized", recording)
    monkeypatch.setattr(cohomology, "_raw_memo", _Forgetful())
    monkeypatch.setattr(cohomology, "_sketches", _Shaped())
    cases = [(k, list(submasks(k.ambient))) for m in range(1, 5) for k in all_complexes(m)]
    cases += [(k, [0, 0b00001, 0b00011]) for k in flag_complexes(5)]
    rng = random.Random(34)
    for _ in range(40):
        m = rng.randint(5, 7)
        used = rng.sample(range(1, m + 1), m - rng.randint(1, 2))
        facets = [[v] for v in used]
        facets += [rng.sample(used, rng.randint(2, min(4, len(used)))) for _ in range(4)]
        k = SimplicialComplex.from_facets(m, facets)
        cases.append((k, [0] + rng.sample(k.faces(), 4) + [rng.getrandbits(m) for _ in range(2)]))
    for k, i_masks in cases:
        hochster_real_betti(k)
        for i_mask in i_masks:
            fixed_betti_via_link(k, i_mask)
            build_cubical(k).fixed_subcomplex(i_mask).betti()
    # tables have two fields and models three: each key met many times
    assert Counter(len(key) for key in seen) == {2: 159, 3: 159}
    assert asked[2] > 10 * 159 and asked[3] > 10 * 159, asked


def test_a_model_of_faces_not_closed_names_its_precondition():
    # the star of {2} in the path 1-2-3-4 is not closed: the edge cells'
    # ends at x_2 = ±1 have no face. Less {2}, its faces are those of the
    # fixed model, which is closed
    k = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4]])
    star = tuple(f for f in k.faces() if f & 0b0010)
    fixed = build_cubical(k).fixed_subcomplex(0b0010)
    assert fixed.faces == tuple(f ^ 0b0010 for f in star)
    assert fixed.betti() == fixed_betti_via_link(k, 0b0010)
    with pytest.raises(ValueError, match="closed under removing a vertex"):
        CubicalComplex(k.ambient, star).betti()


def test_the_repr_of_a_model_generates_no_cell():
    k = SimplicialComplex.from_facets(8, [[1, 2, 3], [4, 5, 6], [7, 8]])
    model = build_cubical(k)
    assert repr(model) == f"CubicalComplex(m=8, faces={len(k.faces())})"
    assert repr(model.fixed_subcomplex(0b11)) == "CubicalComplex(m=6, faces=2)"
    # beside its faces, a model keeps only the index of their stars, faces too
    assert vars(model).keys() == {"ambient", "faces", "_w", "_stars"}
    assert model._stars[0b11] == (0b000, 0b100)


def assert_stars_are_the_filtered_faces(model):
    # every I in the ambient set, faces, non-faces and ∅, gets the faces
    # f ∖ I of the f ⊇ I, in the model's order, as a filter of the faces would
    for i_mask in submasks(model.ambient):
        fixed = model.fixed_subcomplex(i_mask)
        assert fixed.ambient == model.ambient ^ i_mask
        assert fixed.faces == tuple(f ^ i_mask for f in model.faces if f & i_mask == i_mask)
    # one entry per face and subface: Σ 2^|f|, at most 3^m
    entries = sum(map(len, model._stars.values()))
    assert entries == sum(1 << f.bit_count() for f in model.faces) <= 3 ** model.m


def test_the_star_index_gives_each_i_the_filtered_faces(monkeypatch):
    # the index reads the model's faces alone, never the link it checks
    def refuse(k, s_mask):
        raise AssertionError("the star index read a link")

    monkeypatch.setattr(SimplicialComplex, "link", refuse)
    for m in range(1, 5):
        for k in all_complexes(m):
            assert_stars_are_the_filtered_faces(build_cubical(k))
    rng = random.Random(33)
    for m in (5, 6, 7):
        for _ in range(8):
            live = sorted(rng.sample(range(1, m + 1), rng.randint(1, m - 1)))
            facets = [rng.sample(live, rng.randint(1, min(len(live), 4))) for _ in range(4)]
            k = SimplicialComplex((1 << m) - 1, [label_mask(f, m, "a face") for f in facets])
            assert k.ghost_mask  # a vertex of the cube in no face
            model = build_cubical(k)
            assert_stars_are_the_filtered_faces(model)
            # a fixed model has its own index, on an ambient set with a gap
            assert_stars_are_the_filtered_faces(model.fixed_subcomplex(1 << facets[0][0] - 1))


def test_a_cubical_entry_is_the_star_of_i_not_its_link(monkeypatch):
    # lk {1} and lk {2, 3} are both the vertex 4, but the fixed sets have
    # 8 and 4 components: three and two coordinates at -1 or 1 besides x_4
    ranked = spy_ranks(monkeypatch)
    k = SimplicialComplex.from_facets(5, [[1, 4], [2, 3, 4]])
    for i_mask, total in ((0b00001, 8), (0b00110, 4)):
        assert k.link(i_mask).facets == (0b01000,)
        got = build_cubical(k).fixed_subcomplex(i_mask).betti()
        assert got == fixed_betti_via_link(k, i_mask)
        assert got.total == total
    assert len(ranked) == 2


def every_subset_tables(c):
    """Hochster's real and complex sums over every J ⊆ ambient, ranked densely."""
    real, cplx = [0] * (c.m + 2), [0] * (2 * c.m + 2)
    for j in submasks(c.ambient):
        faces = {frozenset(mask_vertices(f)) for f in c.subfaces(j)}
        for d, b in reduced_betti_dense(faces).items():
            real[d + 1] += b
            cplx[d + j.bit_count() + 1] += b
    return BettiTable.from_row(real, 0), BettiTable.from_row(cplx, 0)


def test_pruned_hochster_sums_equal_the_sum_over_every_subset():
    # the walk weights the change of each J ∪ v by the 2^a, resp. C(a, i),
    # sets below it, a the vertices above v and the ghosts; m = 8..10 puts
    # a at 7 and more
    rng = random.Random(31)
    cases = []
    for n in range(80):
        m = rng.randint(2, 7)
        top = m - 1 if n % 2 else m
        facets = [
            rng.sample(range(1, top + 1), rng.randint(1, min(top, 4)))
            for _ in range(rng.randint(1, 6))
        ]
        if n % 2:
            facets = [f + [m] for f in facets]  # a cone over vertex m
        cases.append((m, facets))
    for n in range(6):  # plain, a cone over vertex m, then two ghosts 1 and 2
        m = 8 + n % 3
        low, top = (3, m) if n % 3 == 2 else (1, m - n % 3)
        facets = [rng.sample(range(low, top + 1), rng.randint(1, 4)) for _ in range(m)]
        if n % 3 == 1:
            facets = [f + [m] for f in facets]
        cases.append((m, facets))
    ghosted = 0
    for m, facets in cases:
        k = SimplicialComplex.from_facets(m, facets)
        for c in (k, k.link(k.facets[-1] & -k.facets[-1])):
            ghosted += c.ghost_mask != 0 and c.m >= 8
            want = every_subset_tables(c)
            assert (hochster_real_betti(c), hochster_complex_betti(c)) == want, (m, facets)
    assert ghosted >= 4


def test_ghost_vertices_multiply_the_tables_exactly():
    # K_(J ∪ g) = K_J for a ghost vertex g: each ghost doubles the real
    # table and shifts a copy of the complex one up by a degree, while the
    # walk visits only the J of non-ghost vertices
    rng = random.Random(67)
    cases = [(m, []) for m in range(7)] + [(m, [[]]) for m in range(7)]
    for _ in range(60):
        m = rng.randint(1, 6)
        used = rng.sample(range(1, m + 1), rng.randint(1, m))
        facets = [
            rng.sample(used, rng.randint(1, min(len(used), 3)))
            for _ in range(rng.randint(1, 4))
        ]
        cases.append((m, facets))
    ghosted = 0
    for m, facets in cases:
        k = SimplicialComplex.from_facets(m, facets)
        ghosted += k.ghost_mask != 0
        assert dims(hochster_real_betti(k)) == hochster_real_dense(facets, m), (m, facets)
        assert dims(hochster_complex_betti(k)) == hochster_complex_dense(facets, m), (m, facets)
    assert ghosted > 40


def chordal(m, rng):
    """Facets of a chordal flag complex: each vertex joins part of an earlier facet."""
    facets = [[1]]
    for v in range(2, m + 1):
        base = rng.choice(facets)
        facets.append(rng.sample(base, rng.randint(1, len(base))) + [v])
    return facets


def peel_cases():
    """(m, facets) of complexes with free vertices, and the degenerate ones."""
    rng = random.Random(89)
    cases = [
        (0, []), (0, [[]]), (3, []), (3, [[]]),  # void and {}, then ghosts only
        (1, [[1]]), (4, [[1, 2, 3, 4]]), (5, [[2, 4]]),  # one vertex, one facet
        (6, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]]),  # peels in three rounds
        (7, [[1], [2], [3, 4], [5, 6, 7]]),  # isolated vertices
        # C4 and a triangle's boundary at 4, with a tail at 1: only 7 peels
        (7, [[1, 2], [2, 3], [3, 4], [4, 1], [4, 5], [5, 6], [6, 4], [1, 7]]),
    ]
    for m in range(2, 10):  # trees, then forests with ghosts
        edges = [[v, rng.randint(1, v - 1)] for v in range(2, m + 1)]
        cases.append((m, edges))
        cases.append((m + 1, [e for e in edges if rng.random() < 0.6] + [[1]]))
    cases += [(m, chordal(m, rng)) for m in range(3, 9)]
    for m in range(4, 10):  # every vertex plus a few triangles
        triangles = [rng.sample(range(1, m + 1), 3) for _ in range(rng.randint(1, m // 2))]
        cases.append((m, [[v] for v in range(1, m + 1)] + triangles))
    return cases


def test_peeled_tables_equal_the_sum_over_every_subset():
    # each free vertex w of facet F turns the sums of K ∖ w into those of
    # K by (1 + x), one β̃_0 per J ≠ ∅ missing F ∖ w, and a point at J = ∅
    peeled = 0
    for m, facets in peel_cases():
        k = SimplicialComplex.from_facets(m, facets)
        peeled += bool(moment_angle._peel(k)[1])
        want = every_subset_tables(k)
        assert (hochster_real_betti(k), hochster_complex_betti(k)) == want, (m, facets)
        assert dims(hochster_real_betti(k)) == hochster_real_dense(facets, m), (m, facets)
        assert dims(hochster_complex_betti(k)) == hochster_complex_dense(facets, m), (m, facets)
    assert peeled > 30


def test_chordal_flag_complexes_peel_to_nothing():
    # a simplicial vertex of a chordal graph lies in one maximal clique
    rng = random.Random(13)
    for m in range(1, 12):
        k = SimplicialComplex.from_facets(m, chordal(m, rng))
        assert k.is_flag()
        core, peels = moment_angle._peel(k)
        assert core.facets == (0,) and len(peels) == m


def spy_sums(monkeypatch):
    """The face tuples the Hochster sums are taken of from here on, memo cleared."""
    summed = []
    sums = moment_angle.subset_sums
    monkeypatch.setattr(moment_angle, "subset_sums", lambda f, w: summed.append(f) or sums(f, w))
    cohomology.clear_caches()
    return summed


def test_the_walk_visits_only_the_core(monkeypatch):
    summed = spy_sums(monkeypatch)
    strip = SimplicialComplex.from_facets(6, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]])
    assert moment_angle._peel(strip)[0].facets == (0,)
    hochster_real_betti(strip)
    assert summed == [(0,)]  # the core {}: K_∅ alone
    # C4 has no free vertex: the sums take all of it
    del summed[:]
    c4 = cycle_graph(4).clique_complex()
    hochster_real_betti(c4)
    assert summed == [c4.faces()]
    # a tail on C4 peels off, and the sums are C4's again
    del summed[:]
    tailed = SimplicialComplex.from_facets(6, [[1, 2], [2, 3], [3, 4], [4, 1], [4, 5], [5, 6]])
    hochster_real_betti(tailed)
    assert summed == [c4.faces()]


def test_the_sums_walk_a_core_out_of_order_relabeled(monkeypatch):
    # C4 with the chord {1, 3} has no free vertex; 1 and 3 lie in three
    # edges each, 2 and 4 in two. The sums relabel a core only onto the
    # lowest bits in label order, so a core on 1..4 keeps its own faces
    summed = spy_sums(monkeypatch)
    chorded = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]])
    hochster_real_betti(chorded)
    assert summed == [chorded.faces()]
    relabeled = cohomology._faces_by_size(chorded.faces())
    assert sorted(f for size in relabeled for f in size) == sorted(chorded.faces())
    # the same core with its labels moved up keeps their order on 1..4
    del summed[:]
    shifted = SimplicialComplex.from_facets(6, [[3, 4], [4, 5], [5, 6], [3, 6], [3, 5]])
    hochster_real_betti(shifted)
    assert [sorted(faces) for faces in summed] == [sorted(shifted.faces())]
    assert cohomology._faces_by_size(shifted.faces()) == relabeled


def test_the_tables_do_not_depend_on_the_vertex_labels(monkeypatch):
    # the peel order and the lane order follow the labels; the sums must
    # not. Past m = 12 the cores span more than one lane block. The memo
    # would hand a relabeled copy the tables of the first, so each
    # labeling is a new complex, walked with the memo cleared, and so is
    # each model within the cubical cap, ranked
    walked = []
    walk = moment_angle._walk_tables
    monkeypatch.setattr(moment_angle, "_walk_tables", lambda c: walked.append(c) or walk(c))
    ranked = spy_ranks(monkeypatch)

    def afresh(m, facets):
        cohomology.clear_caches()
        del walked[:], ranked[:]
        k = SimplicialComplex.from_facets(m, facets)
        tables = hochster_real_betti(k), hochster_complex_betti(k)
        model = build_cubical(k) if m <= 8 else None
        rank = model and model.betti()
        # each labeling walks its own K and ranks its own model
        assert walked[:1] == [k] and ranked == ([model] if model else []), facets
        return tables, rank

    rng = random.Random(41)
    cases = []
    for _ in range(40):
        m = rng.randint(2, 12)
        used = rng.sample(range(1, m + 1), rng.randint(1, m))
        facets = [[v] for v in used]
        facets += [rng.sample(used, rng.randint(1, min(len(used), 3))) for _ in range(m)]
        cases.append((m, facets))
    for m in (14, 15):  # a band of triangles, with no free vertex, and a few more
        band = [[v, v % m + 1, (v + 1) % m + 1] for v in range(1, m + 1)]
        cases.append((m, band + [rng.sample(range(1, m + 1), 3) for _ in range(3)]))
    blocks = 0
    for m, facets in cases:
        k = SimplicialComplex.from_facets(m, facets)
        blocks += moment_angle._peel(k)[0].vertices_mask.bit_count() > cohomology.LANE_BITS
        want = afresh(m, facets)
        perm = dict(zip(range(1, m + 1), rng.sample(range(1, m + 1), m)))
        for relabel in ({v: m + 1 - v for v in perm}, perm):
            other = [[relabel[v] for v in f] for f in facets]
            assert afresh(m, other) == want, (m, facets, relabel)
    assert blocks == 2


def test_cells_fixed_by_generators_equals_cells_fixed_by_hull():
    rng = random.Random(99)
    for _ in range(40):
        m = rng.randint(1, 4)
        facets = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, min(m, 3))
            facets.append(rng.sample(range(1, m + 1), size))
        k = SimplicialComplex.from_facets(m, facets)
        fine = cube_cells(k, k.ambient)
        gens = [rng.getrandbits(m) for _ in range(rng.randint(0, 3))]
        fixed = fine
        hull = 0
        view = build_cubical(k)
        for g in gens:
            # the coordinates fixed so far are dropped: fix the rest
            fixed = fixed_cells(fixed, g & view.ambient)
            view = view.fixed_subcomplex(g & view.ambient)
            hull |= g
        assert fixed == fixed_cells(fine, hull)
        # a fixed subcomplex of a fixed subcomplex is fixed by both: the
        # oracle's cells at 0 on the hull, cut along the hull
        assert view.ambient == k.ambient & ~hull
        assert decode_cells(view) == fixed_cells(cube_cells(k, hull), hull)
        assert dims(view.betti()) == cube_betti(fixed)


def test_hochster_cap(monkeypatch):
    # the default cap refuses before any loop over vertex subsets
    with pytest.raises(ValueError, match="exceeds the cap 20"):
        hochster_real_betti(void_complex(21))
    with pytest.raises(ValueError, match="exceeds the cap 20"):
        hochster_complex_betti(void_complex(21))
    # the variable moves the cap either way, and the error names it
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "3")
    with pytest.raises(ValueError, match=r"exceeds the cap 3 \(RZFORMAL_HOCHSTER_CAP\)"):
        hochster_real_betti(void_complex(4))
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "4")
    assert hochster_real_betti(void_complex(4)).total == 0


def test_cubical_cap(monkeypatch):
    with pytest.raises(ValueError, match=r"exceeds the cap 8 \(RZFORMAL_CUBICAL_CAP\)"):
        build_cubical(void_complex(9))
    monkeypatch.setenv("RZFORMAL_CUBICAL_CAP", "9")
    assert build_cubical(void_complex(9)).counts() == ()
    monkeypatch.setenv("RZFORMAL_CUBICAL_CAP", "3")
    with pytest.raises(ValueError):
        build_cubical(simplex(4))


def test_the_cubical_cap_is_read_before_the_cached_model(monkeypatch):
    # a model kept on the complex is refused under a lower cap, as an equal
    # new complex is
    k = cycle_graph(4).clique_complex()
    build_cubical(k)
    monkeypatch.setenv("RZFORMAL_CUBICAL_CAP", "3")
    for complex_ in (k, cycle_graph(4).clique_complex()):
        with pytest.raises(ValueError, match=r"exceeds the cap 3 \(RZFORMAL_CUBICAL_CAP\)"):
            build_cubical(complex_)


def test_space_betti_table_json():
    k = cycle_graph(4).clique_complex()
    t = hochster_real_betti(k)
    obj = t.to_json_obj()
    assert obj == {"min_degree": 0, "dims": [1, 2, 1], "total": 4}
