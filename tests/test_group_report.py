"""Reports for coabelian subgroups of right-angled Coxeter groups."""

from itertools import combinations

import pytest

from oracles import group_h1_dense, subgroups_dense
from shapes import complete_graph, cycle_graph, empty_graph, simplex
from rzformal import (
    Graph,
    PoincareSeries,
    Subgroup,
    coabelian_report,
    decide,
    hochster_real_betti,
    poincare_series,
)
from rzformal.simplicial import SimplicialComplex


def test_complete_graph_full_subgroup():
    r = coabelian_report(complete_graph(3), Subgroup(3, ["100", "010", "001"]))
    assert r.verdict == "formal"
    assert r.cm_dimension == 3
    assert r.poincare.numerator == (1,)
    assert r.poincare.r == 3
    assert r.i_set == (1, 2, 3)
    assert r.j_set == ()


def test_four_cycle_single_generator():
    r = coabelian_report(cycle_graph(4), Subgroup(4, ["1000"]))
    assert r.verdict == "formal"
    assert r.cm_dimension == 1
    assert r.poincare.numerator == (1, 2, 1)
    assert r.poincare.r == 1
    assert r.i_set == (1,)
    assert r.j_set == (2, 3, 4)


def test_empty_graph_diagonal_subgroup():
    r = coabelian_report(empty_graph(2), Subgroup(2, ["11"]))
    assert r.verdict == "not_formal"
    assert r.cm_dimension is None
    assert r.poincare is None
    # the witness survives in the embedded formality report
    assert r.formality.witness == {"kind": "not_a_face", "I": [1, 2]}


def test_report_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        coabelian_report(complete_graph(3), Subgroup(4, ["1000", "0100", "0010", "0001"]))


def test_report_json_schema():
    r = coabelian_report(cycle_graph(4), Subgroup(4, ["1000"]))
    obj = r.to_json_obj()
    assert list(obj) == [
        "gamma",
        "A",
        "I",
        "J",
        "G_semidirect",
        "verdict",
        "cm_dimension",
        "poincare",
        "presentation",
    ]
    assert obj["I"] == [1]
    assert obj["J"] == [2, 3, 4]
    assert obj["G_semidirect"] == {
        "normal_closure_on": [1],
        "commutator_on": [2, 3, 4],
    }
    assert obj["poincare"] == {"numerator": [1, 2, 1], "r": 1}
    pres = obj["presentation"]
    assert pres["generators"] == ["g1", "g2", "g3", "g4"]
    assert pres["relations"] == ["g1^2", "g2^2", "g3^2", "g4^2"]
    assert sorted(pres["commuting_pairs"]) == [[1, 2], [1, 4], [2, 3], [3, 4]]


def test_presentation_lists_every_generator_once():
    g = empty_graph(3)
    r = coabelian_report(g, Subgroup(3, []))
    assert len(r.presentation["generators"]) == 3
    assert r.presentation["commuting_pairs"] == []


def test_poincare_series_two_points_rank_one():
    k = SimplicialComplex.from_facets(2, [[1], [2]])
    p = poincare_series(k, 1)
    assert p.numerator == (1, 1)
    assert [p.coefficient(n) for n in range(6)] == [1, 2, 2, 2, 2, 2]


def test_poincare_series_four_cycle_rank_zero_is_finite():
    k = cycle_graph(4).clique_complex()
    p = poincare_series(k, 0)
    assert p.numerator == (1, 2, 1)
    assert [p.coefficient(n) for n in range(6)] == [1, 2, 1, 0, 0, 0]


def test_poincare_series_simplex_full_rank():
    k = simplex(2)
    p = poincare_series(k, 2)
    # 1/(1-t)^2 counts monomials in two variables
    assert [p.coefficient(n) for n in range(5)] == [1, 2, 3, 4, 5]


def test_poincare_series_rejects_negative_rank():
    with pytest.raises(ValueError):
        poincare_series(simplex(2), -1)


def test_poincare_coefficient_matches_direct_convolution():
    import math

    p = PoincareSeries((1, 2, 1), 3)
    for n in range(8):
        want = sum(
            a * math.comb(n - s + 2, 2) for s, a in enumerate((1, 2, 1)) if s <= n
        )
        assert p.coefficient(n) == want
    assert p.coefficient(-1) == 0


def test_formal_report_expansion_matches_fixed_space_growth():
    # for a formal pair the series starts at the ambient Betti numbers
    # in degree zero: coefficient(0) = numerator[0] = 1 component
    r = coabelian_report(cycle_graph(4), Subgroup(4, ["1000"]))
    assert r.poincare.coefficient(0) == 1


def h1_against_the_verdicts(pairs):
    """(formal, short) over (graph, A) pairs, A the set of its elements.

    Asserts dim H^1(G; F2) = rank A + β_1(RZ_K) where ``decide`` says formal,
    as H*_A(RZ_K) ≅ H*(BA) ⊗ H*(RZ_K) then, and at most that everywhere,
    by the Serre spectral sequence. β_1 comes from the same rewriting with
    A = 0, where G is the commutator subgroup, π_1(RZ_K) for flag K.
    """
    known = {}
    formal = short = 0
    for g, a in pairs:
        if g not in known:
            k = g.clique_complex()
            beta_1 = group_h1_dense(g.m, g.edges, {(0,) * g.m})
            assert beta_1 == (hochster_real_betti(k).dims + (0, 0))[1], g
            known[g] = k, beta_1
        k, beta_1 = known[g]
        bound = len(a).bit_length() - 1 + beta_1
        sub = Subgroup(g.m, ["".join(map(str, x)) for x in a])
        h1 = group_h1_dense(g.m, g.edges, a)
        assert h1 <= bound, (g, sub)
        if decide(k, sub).formal:
            assert h1 == bound, (g, sub)
            assert coabelian_report(g, sub).poincare.coefficient(1) == h1
            formal += 1
        else:
            short += h1 < bound
    return formal, short


def all_graphs(m):
    pairs = list(combinations(range(1, m + 1), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(m, [p for n, p in enumerate(pairs) if bits >> n & 1])


def test_group_h1_is_rank_plus_beta_1_exactly_when_formal_up_to_m4():
    # every flag complex with m <= 4 against every subgroup A
    subgroups = {m: subgroups_dense(m) for m in range(1, 5)}
    pairs = [(g, a) for m in subgroups for g in all_graphs(m) for a in subgroups[m]]
    assert len(pairs) == 4428
    formal, short = h1_against_the_verdicts(pairs)
    # a non-formal pair at equality would be a finding about degree 1,
    # not a fault: degree 1 separates the verdicts on every pair here
    print(f"group H^1: {len(pairs)} pairs, {formal} formal, {short} strictly short")
