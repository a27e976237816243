"""The four formality deciders and their agreement."""

import gc
import json
import random
import weakref
from collections import Counter
from itertools import combinations

import pytest
from oracles import (
    faces_of,
    flag_witness_dense,
    general_criterion_dense,
    hochster_complex_dense,
    hochster_real_dense,
    restriction_trivial_dense,
)
from shapes import cycle_graph, simplex

from rzformal import (
    FixedPointModelError,
    FormalityReport,
    Graph,
    SimplicialComplex,
    Subgroup,
    betti_sum_oracle,
    decide,
    evaluate_all,
    flag_criterion,
    general_criterion,
    hochster_complex_betti,
    hochster_real_betti,
    reports_agree,
    torus_oracle,
)
from rzformal import cohomology, formality, moment_angle
from rzformal.cli import run
from rzformal.simplicial import InputError, label_mask, mask_vertices, submasks

C4 = cycle_graph(4).clique_complex()
THREE_POINTS = SimplicialComplex.from_facets(3, [[1], [2], [3]])
TRIANGLE_BOUNDARY = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
TWO_POINTS = SimplicialComplex.from_facets(2, [[1], [2]])


def test_flag_criterion_four_cycle_single_vertex_is_formal():
    r = flag_criterion(C4, 0b0001)
    assert r.verdict == "formal"
    assert r.method == "flag_criterion"
    assert r.hull == (1,)
    assert r.witness is None


def test_flag_criterion_three_points_single_vertex_is_not_formal():
    r = flag_criterion(THREE_POINTS, 0b001)
    assert r.verdict == "not_formal"
    assert r.witness == {"kind": "missing_edge", "edge": [2, 3], "i": 1}


def test_flag_criterion_simplex_is_always_formal():
    k = simplex(3)
    for i_mask in submasks(k.vertices_mask):
        assert flag_criterion(k, i_mask).formal


def test_flag_criterion_matches_the_dense_reference():
    # verdict and witness on every flag complex with m <= 5 and every I,
    # then on seeded clique complexes with m = 6..10, I a face or not
    from rzformal.census import flag_complexes

    cases = [(k, list(submasks(k.ambient))) for m in range(6) for k in flag_complexes(m)]
    rng = random.Random(61)
    for _ in range(60):
        m = rng.randint(6, 10)
        pairs = list(combinations(range(1, m + 1), 2))
        k = Graph(m, [e for e in pairs if rng.random() < rng.random()]).clique_complex()
        i_masks = [rng.choice(k.faces()) for _ in range(12)]
        cases.append((k, i_masks + [rng.getrandbits(m) for _ in range(4)]))
    witnesses = set()
    for k, i_masks in cases:
        faces = faces_of(mask_vertices(f) for f in k.facets)
        for i_mask in i_masks:
            expected = flag_witness_dense(faces, k.m, mask_vertices(i_mask))
            r = flag_criterion(k, i_mask)
            assert (r.formal, r.witness) == (expected is None, expected), (k, i_mask)
            witnesses.add(expected and expected["kind"])
    assert witnesses == {None, "not_a_face", "missing_edge"}


def test_flag_criterion_non_face_is_not_formal():
    r = flag_criterion(TWO_POINTS, 0b11)
    assert r.verdict == "not_formal"
    assert r.witness == {"kind": "not_a_face", "I": [1, 2]}


def test_flag_criterion_rejects_non_flag_complexes():
    with pytest.raises(ValueError):
        flag_criterion(TRIANGLE_BOUNDARY, 0b001)


def test_flag_criterion_empty_set_is_formal():
    assert flag_criterion(C4, 0).formal


def test_general_criterion_matches_flag_on_flag_examples():
    assert general_criterion(C4, 0b0001).formal
    assert not general_criterion(THREE_POINTS, 0b001).formal
    assert not general_criterion(TWO_POINTS, 0b11).formal


def test_general_criterion_three_points_witness_is_lex_first():
    r = general_criterion(THREE_POINTS, 0b001)
    assert r.witness == {"kind": "nontrivial_restriction", "J": [1, 2, 3]}


def test_general_criterion_triangle_boundary():
    # a non-flag complex where single vertices and the edge both work
    assert general_criterion(TRIANGLE_BOUNDARY, 0b001).formal
    assert general_criterion(TRIANGLE_BOUNDARY, 0b011).formal
    # the full vertex set is not a face
    r = general_criterion(TRIANGLE_BOUNDARY, 0b111)
    assert r.verdict == "not_formal"
    assert r.witness == {"kind": "not_a_face", "I": [1, 2, 3]}


def test_general_criterion_disjoint_edge_and_point():
    # the edge is a face, yet reflecting both of its vertices is not
    # equivariantly formal: deleting the open star of the edge from the
    # whole complex leaves three points worth of extra cohomology
    k = SimplicialComplex.from_facets(3, [[1, 2], [3]])
    r = general_criterion(k, 0b011)
    assert r.verdict == "not_formal"
    assert r.witness == {"kind": "nontrivial_restriction", "J": [1, 2, 3]}
    assert not betti_sum_oracle(k, 0b011).formal
    assert not torus_oracle(k, 0b011).formal


def test_general_criterion_star_deletion_regression():
    # the obstruction here lives on the link of the reflected edge and
    # is invisible to full-subcomplex restrictions
    k = SimplicialComplex.from_facets(4, [[1, 2], [1, 3], [2, 3, 4]])
    r = general_criterion(k, 0b0110)
    assert r.verdict == "not_formal"
    assert r.witness == {"kind": "nontrivial_restriction", "J": [1, 2, 3, 4]}
    oracle = betti_sum_oracle(k, 0b0110)
    assert oracle.totals == (2, 4)
    assert not oracle.formal


def test_general_criterion_witness_is_the_first_nontrivial_j_in_lex_order():
    # the dense restriction oracle, run on the star deletion of I ∩ J for
    # every J in sorted-tuple order, stops at the criterion's witness
    rng = random.Random(53)
    witnesses = 0
    for _ in range(60):
        m = rng.randint(2, 7)
        facets = [[v] for v in range(1, m + 1)] + [
            rng.sample(range(1, m + 1), rng.randint(2, min(m, 4)))
            for _ in range(rng.randint(1, 5))
        ]
        k = SimplicialComplex.from_facets(m, facets)
        faces = k.faces()
        i_mask = rng.choice(faces[1:])
        expected = None
        for j in sorted(submasks(k.ambient), key=mask_vertices):
            sigma = j & i_mask
            if sigma == 0:
                continue
            j_faces = [f for f in faces if f & ~j == 0]
            deleted = [f for f in j_faces if f & sigma != sigma]
            if not restriction_trivial_dense(
                [mask_vertices(f) for f in j_faces], [mask_vertices(f) for f in deleted]
            ):
                j_vertices = list(mask_vertices(j))
                expected = {"kind": "nontrivial_restriction", "J": j_vertices}
                break
        assert general_criterion(k, i_mask).witness == expected, (k, i_mask)
        witnesses += expected is not None
    assert 10 < witnesses < 50


def test_betti_sum_oracle_examples():
    r = betti_sum_oracle(C4, 0b0001)
    assert r.formal
    assert r.totals == (4, 4)
    r = betti_sum_oracle(THREE_POINTS, 0b001)
    assert r.verdict == "not_formal"
    assert r.totals == (4, 6)
    assert r.witness == {"kind": "betti_totals", "fixed": 4, "ambient": 6}


def test_betti_sum_oracle_empty_set():
    r = betti_sum_oracle(C4, 0)
    assert r.formal
    assert r.totals == (4, 4)


def test_torus_oracle_examples():
    assert torus_oracle(C4, 0b0001).formal
    r = torus_oracle(THREE_POINTS, 0b001)
    assert r.verdict == "not_formal"
    # the fixed torus is a 2-torus: the link's two ghost vertices each
    # contribute a circle factor
    assert r.totals == (4, 6)
    assert torus_oracle(simplex(3), 0b111).formal


def test_smith_thom_inequality_everywhere():
    # the fixed set never has more total cohomology than the space
    rng = random.Random(5150)
    for _ in range(30):
        m = rng.randint(1, 5)
        facets = [[v] for v in range(1, m + 1)]
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, min(m, 3))
            facets.append(rng.sample(range(1, m + 1), size))
        k = SimplicialComplex.from_facets(m, facets)
        for i_mask in submasks(k.vertices_mask):
            fixed, ambient = betti_sum_oracle(k, i_mask).totals
            assert fixed <= ambient


def test_decide_dispatches_on_flagness():
    assert decide(C4, Subgroup(4, ["1000"])).method == "flag_criterion"
    assert (
        decide(TRIANGLE_BOUNDARY, Subgroup(3, ["100"])).method
        == "general_criterion"
    )


def test_general_criterion_is_capped_like_the_hochster_sums(monkeypatch):
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "2")
    with pytest.raises(ValueError, match="exceeds the cap 2"):
        general_criterion(TRIANGLE_BOUNDARY, 0b001)
    # decide reaches the general criterion on a non-flag complex
    with pytest.raises(ValueError, match="exceeds the cap 2"):
        decide(TRIANGLE_BOUNDARY, Subgroup(3, ["100"]))
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "3")
    assert general_criterion(TRIANGLE_BOUNDARY, 0b001).formal


def test_general_criterion_on_a_cone_skips_every_j_with_the_apex(monkeypatch):
    rng = random.Random(10)
    base = [[v] for v in range(1, 10)] + [rng.sample(range(1, 10), 3) for _ in range(12)]
    k = SimplicialComplex.from_facets(10, [f + [10] for f in base])
    calls = []
    trivial = formality._restriction_map_trivial

    def spy_trivial(faces, *rest):
        calls.append(faces)
        return trivial(faces, *rest)

    monkeypatch.setattr(formality, "_restriction_map_trivial", spy_trivial)
    assert general_criterion(k, 1 << 9).formal
    # with I = {apex}, only J containing the apex have I ∩ J nonempty,
    # and each such K_J is a cone over the apex
    assert calls == []


def _cones(rng, count):
    """(m, facets): {}, void, a vertex, a simplex, then seeded cones.

    Each cone joins random faces with one or two apexes at random
    positions; every third leaves some vertices as ghosts.
    """
    cases = [(0, [[]]), (0, []), (2, [[]]), (3, []), (1, [[1]]), (4, [[1, 2, 3, 4]])]
    for n in range(count):
        m = rng.randint(2, 6)
        apexes = rng.sample(range(1, m + 1), rng.randint(1, 2))
        rest = [v for v in range(1, m + 1) if v not in apexes]
        used = rng.sample(rest, rng.randint(0, len(rest))) if n % 3 == 0 else rest
        facets = [
            rng.sample(used, rng.randint(0, min(len(used), 3))) + apexes
            for _ in range(rng.randint(1, 4))
        ]
        facets += [[v] + apexes for v in used]
        cases.append((m, facets))
    return cases


def test_cones_match_the_dense_oracles_unreduced():
    # the tables and the criterion split off the apexes; the dense oracles
    # sum and test every J of K itself, and the witness is the first
    # failing J in sorted-tuple order
    ghosted = restrictions = 0
    for m, facets in _cones(random.Random(83), 60):
        k = SimplicialComplex.from_facets(m, facets)
        faces = faces_of(facets)
        apexes = [v for v in range(1, m + 1) if all(f | {v} in faces for f in faces)]
        assert k.apexes == (label_mask(apexes, m, "apexes") if faces else 0)
        assert list(hochster_real_betti(k).dims) == hochster_real_dense(facets, m)
        assert list(hochster_complex_betti(k).dims) == hochster_complex_dense(facets, m)
        if not faces:  # the deciders refuse the void complex
            continue
        if k.ghost_mask:
            ghosted += 1
            continue
        trivial = {}
        for i_mask in submasks(k.ambient):
            i_set = frozenset(mask_vertices(i_mask))
            expected = None if i_set in faces else {"kind": "not_a_face", "I": sorted(i_set)}
            for j_mask in sorted(submasks(k.ambient), key=mask_vertices) if not expected else ():
                j_set = frozenset(mask_vertices(j_mask))
                sigma = i_set & j_set
                if sigma and (j_set, sigma) not in trivial:
                    x = [f for f in faces if f <= j_set]
                    deleted = [f for f in x if not sigma <= f]
                    trivial[j_set, sigma] = restriction_trivial_dense(x, deleted)
                if sigma and not trivial[j_set, sigma]:
                    expected = {"kind": "nontrivial_restriction", "J": sorted(j_set)}
                    break
            r = general_criterion(k, i_mask)
            assert (r.formal, r.witness) == (expected is None, expected), (m, facets, i_mask)
            restrictions += r.witness is not None and r.witness["kind"] != "not_a_face"
    assert ghosted > 10 and restrictions > 100


def test_the_criterion_matches_an_unmemoized_reference_on_every_i():
    # every I of every complex at m <= 4 (the flag ones among them) and of
    # every flag complex at m = 5, in census order: a later I reads the
    # restriction tests that earlier ones kept per (J, σ) on the link
    from rzformal.census import all_complexes, flag_complexes

    cohomology.clear_caches()
    cases = [k for m in range(1, 5) for k in all_complexes(m)] + list(flag_complexes(5))
    kinds = Counter()
    for k in cases:
        faces = faces_of(mask_vertices(f) for f in k.facets)
        for i_mask in submasks(k.ambient):
            r = general_criterion(k, i_mask)
            want = general_criterion_dense(faces, k.m, mask_vertices(i_mask))
            assert (r.formal, r.witness) == want, (k, i_mask)
            kinds[r.witness and r.witness["kind"]] += 1
    assert kinds.keys() == {None, "not_a_face", "nontrivial_restriction"}


def test_a_cone_is_walked_once_as_the_link_of_its_apexes(monkeypatch):
    hochster_walks = []
    hochster_walk = moment_angle._walk_tables

    def counted_tables(c):
        hochster_walks.append(c)
        return hochster_walk(c)

    summed = []
    sums = cohomology.subset_sums
    walked = []
    walk = cohomology.subset_walk
    monkeypatch.setattr(moment_angle, "_walk_tables", counted_tables)
    monkeypatch.setattr(moment_angle, "subset_sums", lambda c, w: summed.append(c) or sums(c, w))
    monkeypatch.setattr(formality, "subset_walk", lambda c: walked.append(c) or walk(c))
    cohomology.clear_caches()
    # the pentagon on 1, 3, 4, 6, 7 joined with the edge {2, 5}
    pentagon = [[1, 3], [3, 4], [4, 6], [6, 7], [1, 7]]
    k = SimplicialComplex.from_facets(7, [f + [2, 5] for f in pentagon])
    apexes = 0b0010010
    assert k.apexes == apexes
    hochster_real_betti(k)
    hochster_complex_betti(k)
    # K's call hands over to lk A's, walked on its own labels, whose sums
    # are the only ones taken (no vertex of the pentagon is free, so the
    # link is its own core)
    link = k.link(apexes)
    assert hochster_walks == [k, link]
    assert summed == [link.faces()]
    assert link.vertices_mask.bit_count() == 5
    # reflections on apexes only, I = ∅ included, walk no J
    for i_mask in submasks(apexes):
        assert general_criterion(k, i_mask).formal
    assert walked == []
    # any other I walks the link alone, on its own labels, and later ones
    # read that walk
    general_criterion(k, 0b0000011)
    general_criterion(k, 0b0000001)
    assert walked == [link.faces()]


# the pentagon on 1, 3, 4, 6, 7 joined with the edge {2, 5}: a flag cone
PENTAGON_CONE = SimplicialComplex.from_facets(
    7, [f + [2, 5] for f in [[1, 3], [3, 4], [4, 6], [6, 7], [1, 7]]]
)


@pytest.mark.parametrize("i_set", [[2], [1, 2], [2, 5], [1, 2, 5]])
def test_every_report_on_a_cone_keeps_the_callers_i(tmp_path, capsys, i_set):
    # the general criterion walks the link of the apexes {2, 5} for I less
    # them; its report, like every other, still carries all of I
    i_mask = label_mask(i_set, 7, "I")
    for decider in (flag_criterion, general_criterion, betti_sum_oracle, torus_oracle):
        report = decider(PENTAGON_CONE, i_mask)
        assert report.i_mask == i_mask, decider
        assert report.hull == tuple(i_set), decider
        assert report.to_json_obj()["hull"] == i_set, decider
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(PENTAGON_CONE.to_json_obj()))
    argv = ["check", str(path), "--I", ",".join(map(str, i_set)), "--method", "all"]
    assert run(argv) in (0, 1)
    reports = json.loads(capsys.readouterr().out)
    assert [r["hull"] for r in reports] == [i_set] * 4


def test_a_formal_non_cone_walks_every_j(monkeypatch):
    # the general criterion's worst case: C4 * L with I = {1} is formal
    # for every L, and with no apex to split off and no witness to stop
    # at, the criterion runs to the end of the walk of K
    rng = random.Random(26)
    base = [(u, v) for u, v in combinations(range(5, 9), 2) if rng.random() < 0.5]
    assert Graph(4, [(u - 4, v - 4) for u, v in base]).clique_complex().apexes == 0
    cycle = [(1, 2), (2, 3), (3, 4), (1, 4)]
    joins = [(u, v) for u in range(1, 5) for v in range(5, 9)]
    k = Graph(8, cycle + joins + base).clique_complex()
    assert k.apexes == 0
    finished = []
    walk = cohomology.subset_walk

    def counted(c):
        yield from walk(c)
        finished.append(c)

    monkeypatch.setattr(formality, "subset_walk", counted)
    reports = evaluate_all(k, 0b00000001)
    assert list(reports) == [
        "flag_criterion", "general_criterion", "betti_sum_oracle", "torus_oracle"
    ]
    assert all(r.formal for r in reports.values())
    # the walk of K ran to its end, once: a second check reads what it found
    assert finished == [k.faces()]
    assert general_criterion(k, 0b00000001).formal
    assert finished == [k.faces()]
    # it yields every J with β̃(K_J) ≠ 0
    lex = sorted(submasks(k.ambient), key=mask_vertices)
    totals = [(j, cohomology.hom_data(k.subfaces(j)).total) for j in lex]
    nonzero = [(j, t) for j, t in totals if t]
    assert list(walk(k.faces())) == nonzero and len(nonzero) == 24


def test_a_walk_resumed_across_i_gives_the_reports_of_fresh_walks(monkeypatch):
    # a census decides every I of one complex on one walk, kept on the
    # complex: an I that stops at its witness leaves the walk part done,
    # and a later I reads what was found and resumes the walk
    rng = random.Random(71)
    cases = []
    for _ in range(60):
        m = rng.randint(2, 7)
        facets = [[v] for v in range(1, m + 1)]
        facets += [rng.sample(range(1, m + 1), rng.randint(2, min(m, 4))) for _ in range(6)]
        cases.append((m, facets))
    link = [[v] for v in range(5, 9)] + [rng.sample(range(5, 9), 3) for _ in range(8)]
    c4 = [[1, 2], [2, 3], [3, 4], [1, 4]]
    cases.append((8, [e + f for e in c4 for f in link]))  # C4 * L at m = 8
    walks = []
    walk = cohomology.subset_walk
    monkeypatch.setattr(formality, "subset_walk", lambda k: walks.append(k) or walk(k))
    resumed = 0
    for m, facets in cases:
        order = list(submasks((1 << m) - 1))
        rng.shuffle(order)
        fresh = [general_criterion(SimplicialComplex.from_facets(m, facets), i) for i in order]
        shared = SimplicialComplex.from_facets(m, facets)
        walks.clear()
        stopped = False
        for i_mask, expected in zip(order, fresh):
            assert general_criterion(shared, i_mask) == expected, (m, facets, i_mask)
            resumed += stopped and walks != []
            stopped = stopped or (expected.witness or {}).get("J") is not None
        assert len(walks) <= 1
    assert resumed > 1000


def test_a_finished_walk_is_kept_as_the_list_of_its_items(monkeypatch):
    # C4 with I = {1} is formal, so its walk runs to the end; every later I
    # reads the list of what it found and never walks again
    k = cycle_graph(4).clique_complex()
    assert general_criterion(k, 0b0001).formal
    walked = k._cache["walk"]
    found, _ = walked
    assert found == list(cohomology.subset_walk(k.faces()))
    fresh = cycle_graph(4).clique_complex()
    expected = [general_criterion(fresh, i_mask) for i_mask in range(16)]

    def refuse(faces):
        raise AssertionError("a finished walk was walked again")

    monkeypatch.setattr(formality, "subset_walk", refuse)
    assert [general_criterion(k, i_mask) for i_mask in range(16)] == expected
    assert k._cache["walk"] is walked


def test_every_i_of_a_complex_reads_the_totals_summed_once(monkeypatch):
    # the ambient totals are kept on K: over all 32 I of a flag m = 5
    # complex, the Hochster tables of K itself are read once for each
    # space; I = ∅ reads the real table once more, as the fixed side,
    # since its link is K
    k = cycle_graph(5).clique_complex()
    ran = {"real": [], "complex": []}
    real, cplx = moment_angle.hochster_real_betti, moment_angle.hochster_complex_betti
    monkeypatch.setattr(moment_angle, "hochster_real_betti",
                        lambda c: ran["real"].append(c) or real(c))
    monkeypatch.setattr(moment_angle, "hochster_complex_betti",
                        lambda c: ran["complex"].append(c) or cplx(c))
    for i_mask in [*range(1, 32), 0]:
        reports = evaluate_all(k, i_mask)
        assert reports_agree(reports)
        if i_mask == 31:
            assert [c is k for c in ran["real"]].count(True) == 1
    assert [c is k for c in ran["real"]].count(True) == 2
    assert [c is k for c in ran["complex"]].count(True) == 1
    assert moment_angle.betti_totals(k) == (real(k).total, cplx(k).total)


def test_every_i_of_a_flag_complex_reads_the_flag_bit_once(monkeypatch):
    # evaluate_all reads it for each record, and the flag criterion only
    # when it first builds the obstructions it keeps on K
    k = cycle_graph(5).clique_complex()
    reads = []
    is_flag = SimplicialComplex.is_flag
    monkeypatch.setattr(SimplicialComplex, "is_flag", lambda c: reads.append(c) or is_flag(c))
    for i_mask in range(32):
        assert reports_agree(evaluate_all(k, i_mask))
    assert len(reads) == 33


def test_the_oracles_read_the_cap_before_the_kept_totals(monkeypatch):
    # in a library call the cap is read at each call: a lowered cap refuses
    # a complex whose tables and totals are kept on it
    k = cycle_graph(5).clique_complex()
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "5")
    for i_mask in range(32):
        betti_sum_oracle(k, i_mask)
        torus_oracle(k, i_mask)
    assert "totals" in k._cache
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "4")
    for decider in (betti_sum_oracle, torus_oracle):
        with pytest.raises(InputError, match=r"exceeds the cap 4 \(RZFORMAL_HOCHSTER_CAP\)"):
            decider(k, 0b00001)
    with pytest.raises(InputError, match="exceeds the cap 4"):
        moment_angle.betti_totals(k)


def test_a_walk_that_raised_is_walked_again(monkeypatch):
    # an interrupted walk must not read as a finished one: on three points
    # with I = {1} the witness J = {1, 2, 3} is the walk's third item
    walk = cohomology.subset_walk

    def interrupted(k):
        yield from list(walk(k))[:2]
        raise KeyboardInterrupt

    monkeypatch.setattr(formality, "subset_walk", interrupted)
    k = SimplicialComplex.from_facets(3, [[1], [2], [3]])
    with pytest.raises(KeyboardInterrupt):
        general_criterion(k, 0b001)
    monkeypatch.setattr(formality, "subset_walk", walk)
    assert general_criterion(k, 0b001).witness == {
        "kind": "nontrivial_restriction", "J": [1, 2, 3]
    }


def test_a_walk_stopped_at_a_witness_leaves_no_cycle_through_the_complex():
    # the suspended walk kept on k reads k's faces and groups, not k, so
    # k dies at its last reference, with no help from the cyclic collector
    gc.collect()
    gc.disable()
    try:
        k = SimplicialComplex.from_facets(3, [[1], [2], [3]])
        report = general_criterion(k, 0b001)
        assert report.witness == {"kind": "nontrivial_restriction", "J": [1, 2, 3]}
        assert k._cache["walk"][0][-1] == (0b111, 2)  # stopped, not finished
        ref = weakref.ref(k)
        del k
        assert ref() is None
    finally:
        gc.enable()


def test_decide_uses_the_hull():
    # the two-coordinate diagonal has the same hull as the full group
    diag = Subgroup(2, ["11"])
    full = Subgroup(2, ["10", "01"])
    assert decide(TWO_POINTS, diag).to_json_obj() == decide(TWO_POINTS, full).to_json_obj()
    assert decide(TWO_POINTS, diag).verdict == "not_formal"


def test_decide_trivial_subgroup_is_formal():
    assert decide(TWO_POINTS, Subgroup(2, [])).formal


def test_decide_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        decide(C4, Subgroup(3, ["100"]))


def test_criteria_reject_vertices_outside_the_complex():
    with pytest.raises(ValueError):
        general_criterion(C4, 0b10000)
    ghosted = SimplicialComplex.from_facets(3, [[1, 2]])
    with pytest.raises(ValueError):
        general_criterion(ghosted, 0b100)


def test_evaluate_all_and_reports_agree():
    reports = evaluate_all(C4, 0b0001)
    assert set(reports) == {
        "flag_criterion",
        "general_criterion",
        "betti_sum_oracle",
        "torus_oracle",
    }
    assert reports_agree(reports)
    assert all(r.formal for r in reports.values())


def test_evaluate_all_skips_flag_on_non_flag_complexes():
    reports = evaluate_all(TRIANGLE_BOUNDARY, 0b001)
    assert "flag_criterion" not in reports
    assert reports_agree(reports)


def test_report_json_shape():
    r = general_criterion(THREE_POINTS, 0b001)
    obj = r.to_json_obj()
    assert list(obj) == ["verdict", "method", "hull", "witness", "totals"]
    assert obj["hull"] == [1]


def test_all_methods_agree_exhaustively_on_small_complexes():
    from rzformal.census import all_complexes

    for m in (1, 2, 3):
        for k in all_complexes(m):
            flag = k.is_flag()
            for i_mask in submasks(k.vertices_mask):
                reports = evaluate_all(k, i_mask)
                assert reports_agree(reports), (k, i_mask)
                if flag:
                    assert "flag_criterion" in reports


def test_all_methods_agree_on_random_larger_complexes():
    rng = random.Random(314159)
    for _ in range(40):
        m = rng.randint(4, 5)
        facets = [[v] for v in range(1, m + 1)]
        for _ in range(rng.randint(2, 7)):
            size = rng.randint(1, min(m, 4))
            facets.append(rng.sample(range(1, m + 1), size))
        k = SimplicialComplex.from_facets(m, facets)
        verts = list(k.vertex_labels())
        i = rng.sample(verts, rng.randint(0, len(verts)))
        reports = evaluate_all(k, label_mask(i, m, "I"))
        assert reports_agree(reports), (k, i)


def test_all_routes_agree_on_a_seeded_sweep_at_m_6_to_8():
    # beyond the censuses and with the cubical check on, every complex
    # without ghosts, some of them cones; I drawn from the faces, the
    # non-faces and the subsets of the apexes. A FixedPointModelError,
    # the cubical model against the link formula, fails the sweep
    rng = random.Random(2718)
    kinds = Counter()
    for n in range(300):
        m = rng.randint(6, 8)
        apexes = rng.sample(range(1, m + 1), rng.randint(1, 2)) if n % 2 else []
        rest = [v for v in range(1, m + 1) if v not in apexes]
        facets = [
            rng.sample(rest, rng.randint(1, min(len(rest), 4))) + apexes
            for _ in range(rng.randint(2, 6))
        ]
        k = SimplicialComplex.from_facets(m, facets + [[v] + apexes for v in rest])
        non_faces = [i for i in (rng.getrandbits(m) for _ in range(6)) if not k.has_face(i)]
        drawn = {
            "face": rng.sample(k.faces(), 3),
            "non-face": non_faces[:2],
            "apexes": rng.sample(list(submasks(k.apexes)), min(2, 1 << k.apexes.bit_count())),
        }
        for kind, i_masks in drawn.items():
            for i_mask in i_masks:
                reports = evaluate_all(k, i_mask)
                assert reports_agree(reports), (k, i_mask, reports)
                kinds[kind] += 1
    assert min(kinds.values()) > 400, kinds


def test_formal_report_round_trip_fields():
    r = FormalityReport("formal", "flag_criterion", 0b11)
    assert r.formal
    assert r.hull == (1, 2)
    assert r.to_json_obj()["hull"] == [1, 2]
    assert r.to_json_obj()["witness"] is None
