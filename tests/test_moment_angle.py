"""Betti numbers of the real and complex coordinate-subspace spaces.

The two computation routes, the combinatorial one (a sum of reduced
cohomology over vertex subsets) and the cellular one (a cubical model
with an honest boundary matrix), are developed independently inside
the package, so their agreement is a strong internal check. Both are
also compared against the dense reference oracle from oracles.py.
"""

import random

import pytest

from oracles import (
    hochster_complex_dense,
    hochster_real_dense,
    reduced_betti_dense,
    subdivided_model,
)
from rzformal import (
    Graph,
    SimplicialComplex,
    betti_sum_oracle,
    build_cubical,
    cohomology,
    f2,
    fixed_betti_via_link,
    hochster_complex_betti,
    hochster_real_betti,
    torus_oracle,
)
from rzformal.census import all_complexes
from rzformal.cohomology import BettiTable
from rzformal.moment_angle import CubicalComplex
from rzformal.simplicial import mask_vertices, submasks, vertex_mask


def dims(table):
    return list(table.dims)


def test_real_betti_of_four_cycle():
    k = Graph.cycle(4).clique_complex()
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
    assert dims(hochster_real_betti(SimplicialComplex.simplex(3))) == [1]


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
    assert hochster_real_betti(SimplicialComplex.void(2)).total == 0
    assert hochster_complex_betti(SimplicialComplex.void(2)).total == 0


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
    fine = subdivided_model(k)
    assert fine.counts() == (3, 2)


def test_cubical_counts_empty_face_complex():
    k = SimplicialComplex.from_facets(1, [[]])
    assert build_cubical(k).counts() == (2,)
    assert subdivided_model(k).counts() == (2,)


def test_cubical_counts_four_cycle():
    k = Graph.cycle(4).clique_complex()
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
        assert dims(subdivided_model(k).betti()) == want


def test_cubical_agrees_with_hochster_on_ghosts():
    for m, facets in [(2, [[1]]), (3, [[1, 2]]), (3, [[1], [2]]), (2, [[]])]:
        k = SimplicialComplex.from_facets(m, facets)
        want = dims(hochster_real_betti(k))
        assert dims(build_cubical(k).betti()) == want
        assert dims(subdivided_model(k).betti()) == want


def test_fixed_points_of_triangle_boundary_single_coordinate():
    # the fixed set of the first coordinate reflection is a circle
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    c = subdivided_model(tri)
    f = c.fixed_subcomplex([1])
    assert dims(f.betti()) == [1, 1]
    assert dims(fixed_betti_via_link(tri, [1])) == [1, 1]


def test_fixed_points_of_triangle_boundary_edge():
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    c = subdivided_model(tri)
    f = c.fixed_subcomplex([1, 2])
    assert dims(f.betti()) == [2]
    assert dims(fixed_betti_via_link(tri, [1, 2])) == [2]


def test_fixed_points_of_non_face_are_empty():
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    c = subdivided_model(two)
    assert c.fixed_subcomplex([1, 2]).counts() == ()
    assert fixed_betti_via_link(two, [1, 2]).total == 0


def test_fixed_points_of_two_points_single_coordinate():
    two = SimplicialComplex.from_facets(2, [[1], [2]])
    assert dims(fixed_betti_via_link(two, [1])) == [2]
    c = subdivided_model(two)
    assert dims(c.fixed_subcomplex([1]).betti()) == [2]


def test_fixed_subcomplex_of_empty_coordinate_set_is_everything():
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    c = subdivided_model(tri)
    assert c.fixed_subcomplex([]).cell_set() == c.cell_set()
    assert dims(fixed_betti_via_link(tri, [])) == dims(hochster_real_betti(tri))


def test_fixed_subcomplex_of_plain_model_matches_subdivided_model():
    # cutting the plain model along I alone gives the same fixed set
    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    plain, fine = build_cubical(tri), subdivided_model(tri)
    # over the faces {1}, {1,2}, {1,3}: 4 points and 4 arcs, a circle
    assert plain.fixed_subcomplex([1]).counts() == (4, 4)
    for i_mask in submasks(tri.ambient):
        want = dims(fine.fixed_subcomplex(i_mask).betti())
        assert dims(plain.fixed_subcomplex(i_mask).betti()) == want


def test_fixed_betti_matches_cubical_exhaustively_m3():
    for k in all_complexes(3):
        c = subdivided_model(k)
        for i_mask in submasks(k.vertices_mask):
            link_side = fixed_betti_via_link(k, i_mask)
            cube_side = c.fixed_subcomplex(i_mask).betti()
            assert dims(link_side) == dims(cube_side)
            # fixed sets never have more total cohomology than the space
            assert link_side.total <= hochster_real_betti(k).total


def rebuilt_fixed_betti(model, i_mask):
    """Reference: filter the model's cells by a full scan, index them
    afresh and rank boundary matrices over those indices alone."""
    sel = sum(7 << (3 * (v - 1)) for v in mask_vertices(i_mask))
    want = sum(1 << (3 * (v - 1)) for v in mask_vertices(i_mask))
    cells = [[c for c in model.cells(d) if c & sel == want] for d in range(model.dim + 1)]
    while cells and not cells[-1]:
        cells.pop()
    ranks = [0] * (len(cells) + 1)
    for d in range(1, len(cells)):
        index = {c: i for i, c in enumerate(cells[d - 1])}
        rows = []
        for cell in cells[d]:
            row = 0
            for child in model.boundary(cell):
                row ^= 1 << index[child]
            rows.append(row)
        ranks[d] = f2.rank(rows, len(index))
    dims = [len(cells[d]) - ranks[d] - ranks[d + 1] for d in range(len(cells))]
    while dims and not dims[-1]:
        dims.pop()
    return frozenset(c for part in cells for c in part), dims


def test_fixed_subcomplex_rows_match_rebuilt_complex_and_link():
    # the fixed subcomplex of the full subdivision, a complex rebuilt
    # from its model's cells by a full scan, and the link formula agree
    for m in range(1, 5):
        for k in all_complexes(m):
            c = subdivided_model(k)
            for i_mask in submasks(k.ambient):
                fixed = c.fixed_subcomplex(i_mask)
                cells, want = rebuilt_fixed_betti(c, i_mask)
                assert fixed.cell_set() == cells, (k, i_mask)
                assert dims(fixed.betti()) == want, (k, i_mask)
                assert dims(fixed_betti_via_link(k, i_mask)) == want, (k, i_mask)


def test_fixed_subcomplex_cut_along_i_equals_the_full_subdivision():
    for m in range(1, 5):
        for k in all_complexes(m):
            fine = subdivided_model(k)
            for i_mask in submasks(k.ambient):
                fixed = build_cubical(k).fixed_subcomplex(i_mask)
                _, want = rebuilt_fixed_betti(fine, i_mask)
                assert dims(fixed.betti()) == want, (k, i_mask)
                assert dims(fine.fixed_subcomplex(i_mask).betti()) == want, (k, i_mask)
                # one cell per face sigma containing I and sign pattern off sigma
                sizes = [2 ** (m - f.bit_count()) for f in k.faces() if f & i_mask == i_mask]
                assert sum(fixed.counts()) == sum(sizes), (k, i_mask)


@pytest.mark.parametrize("i_set", [[], [1, 2]])
def test_oracle_builds_and_ranks_only_the_fixed_cells(monkeypatch, i_set):
    calls, generated = [], []
    boundary = CubicalComplex.boundary
    generate = CubicalComplex._generate

    def counted(self, cell):
        calls.append(cell)
        return boundary(self, cell)

    def recorded(self):
        cells = generate(self)
        generated.extend(c for part in cells for c in part)
        return cells

    monkeypatch.setattr(CubicalComplex, "boundary", counted)
    monkeypatch.setattr(CubicalComplex, "_generate", recorded)
    k = SimplicialComplex.from_facets(6, [[1, 2, 3], [1, 2, 4], [3, 4, 5], [5, 6], [1, 6]])
    i_mask = vertex_mask(i_set)
    betti_sum_oracle(k, i_mask)
    sizes = [2 ** (6 - f.bit_count()) for f in k.faces() if f & i_mask == i_mask]
    # the fixed set has a vertex per sign pattern off I; every other
    # cell gets one boundary row, and no cell outside it is generated
    assert len(generated) == sum(sizes)
    assert len(calls) == sum(sizes) - 2 ** (6 - len(i_set))
    assert set(calls) < set(generated)


def test_one_hochster_loop_serves_both_spaces_and_the_link(monkeypatch):
    walked = []
    walk = SimplicialComplex.full_subcomplexes

    def counted(c):
        walked.append(c)
        return walk(c)

    monkeypatch.setattr(SimplicialComplex, "full_subcomplexes", counted)
    cohomology.clear_caches()
    k = Graph.cycle(4).clique_complex()
    hochster_real_betti(k)
    hochster_complex_betti(k)
    # one walk of K fills both tables
    assert walked == [k]
    fixed_betti_via_link(k, vertex_mask([1]))
    # the torus oracle reuses the memoized link and its tables
    torus_oracle(k, vertex_mask([1]))
    assert len(walked) == 2 and walked[1] is k.link(vertex_mask([1]))
    # the sums reduce along the walk and never touch the cohomology cache
    assert cohomology._hom_cache == {}


def test_pruned_hochster_sums_equal_the_sum_over_every_subset():
    rng = random.Random(31)
    for n in range(80):
        m = rng.randint(2, 7)
        top = m - 1 if n % 2 else m
        facets = [
            rng.sample(range(1, top + 1), rng.randint(1, min(top, 4)))
            for _ in range(rng.randint(1, 6))
        ]
        if n % 2:
            facets = [f + [m] for f in facets]  # a cone over vertex m
        k = SimplicialComplex.from_facets(m, facets)
        for c in (k, k.link(k.facets[-1] & -k.facets[-1])):
            real, cplx = {}, {}
            for j in submasks(c.ambient):
                faces = {frozenset(mask_vertices(f)) for f in c.subfaces(j)}
                for d, b in reduced_betti_dense(faces).items():
                    real[d + 1] = real.get(d + 1, 0) + b
                    shift = d + j.bit_count() + 1
                    cplx[shift] = cplx.get(shift, 0) + b
            assert hochster_real_betti(c) == BettiTable.from_dict(real, 0)
            assert hochster_complex_betti(c) == BettiTable.from_dict(cplx, 0)


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


def test_cells_fixed_by_generators_equals_cells_fixed_by_hull():
    rng = random.Random(99)
    for _ in range(40):
        m = rng.randint(1, 4)
        facets = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, min(m, 3))
            facets.append(rng.sample(range(1, m + 1), size))
        k = SimplicialComplex.from_facets(m, facets)
        c = subdivided_model(k)
        gens = [rng.getrandbits(m) for _ in range(rng.randint(0, 3))]
        fixed = c.cell_set()
        hull = 0
        view = c
        for g in gens:
            fixed &= c.fixed_subcomplex(g).cell_set()
            hull |= g
            view = view.fixed_subcomplex(g)
        assert fixed == c.fixed_subcomplex(hull).cell_set()
        # a fixed subcomplex of a fixed subcomplex is fixed by both
        assert view.cell_set() == fixed
        assert dims(view.betti()) == dims(c.fixed_subcomplex(hull).betti())


def test_hochster_cap(monkeypatch):
    # the default cap refuses before any loop over vertex subsets
    with pytest.raises(ValueError, match="exceeds the cap 20"):
        hochster_real_betti(SimplicialComplex.void(21))
    with pytest.raises(ValueError, match="exceeds the cap 20"):
        hochster_complex_betti(SimplicialComplex.void(21))
    # the variable moves the cap either way, and the error names it
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "3")
    with pytest.raises(ValueError, match=r"exceeds the cap 3 \(RZFORMAL_HOCHSTER_CAP\)"):
        hochster_real_betti(SimplicialComplex.void(4))
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "4")
    assert hochster_real_betti(SimplicialComplex.void(4)).total == 0


def test_cubical_cap(monkeypatch):
    with pytest.raises(ValueError, match=r"exceeds the cap 8 \(RZFORMAL_CUBICAL_CAP\)"):
        build_cubical(SimplicialComplex.void(9))
    monkeypatch.setenv("RZFORMAL_CUBICAL_CAP", "9")
    assert build_cubical(SimplicialComplex.void(9)).counts() == ()
    monkeypatch.setenv("RZFORMAL_CUBICAL_CAP", "3")
    with pytest.raises(ValueError):
        build_cubical(SimplicialComplex.simplex(4))


def test_space_betti_table_json():
    k = Graph.cycle(4).clique_complex()
    t = hochster_real_betti(k)
    obj = t.to_json_obj()
    assert obj == {"min_degree": 0, "dims": [1, 2, 1], "total": 4}
