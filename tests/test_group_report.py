"""Reports for coabelian subgroups of right-angled Coxeter groups."""

import pytest

from rzformal import (
    Graph,
    PoincareSeries,
    Subgroup,
    coabelian_report,
    poincare_series,
)
from rzformal.simplicial import SimplicialComplex


def test_complete_graph_full_subgroup():
    r = coabelian_report(Graph.complete(3), Subgroup.full(3))
    assert r.verdict == "formal"
    assert r.cm_dimension == 3
    assert r.poincare.numerator == (1,)
    assert r.poincare.r == 3
    assert r.i_set == (1, 2, 3)
    assert r.j_set == ()


def test_four_cycle_single_generator():
    r = coabelian_report(Graph.cycle(4), Subgroup(4, ["1000"]))
    assert r.verdict == "formal"
    assert r.cm_dimension == 1
    assert r.poincare.numerator == (1, 2, 1)
    assert r.poincare.r == 1
    assert r.i_set == (1,)
    assert r.j_set == (2, 3, 4)


def test_empty_graph_diagonal_subgroup():
    r = coabelian_report(Graph.empty(2), Subgroup(2, ["11"]))
    assert r.verdict == "not_formal"
    assert r.cm_dimension is None
    assert r.poincare is None
    # the witness survives in the embedded formality report
    assert r.formality.witness == {"kind": "not_a_face", "I": [1, 2]}


def test_report_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        coabelian_report(Graph.complete(3), Subgroup.full(4))


def test_report_json_schema():
    r = coabelian_report(Graph.cycle(4), Subgroup(4, ["1000"]))
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
    g = Graph.empty(3)
    r = coabelian_report(g, Subgroup.trivial(3))
    assert len(r.presentation["generators"]) == 3
    assert r.presentation["commuting_pairs"] == []


def test_poincare_series_two_points_rank_one():
    k = SimplicialComplex.from_facets(2, [[1], [2]])
    p = poincare_series(k, 1)
    assert p.numerator == (1, 1)
    assert [p.coefficient(n) for n in range(6)] == [1, 2, 2, 2, 2, 2]


def test_poincare_series_four_cycle_rank_zero_is_finite():
    from rzformal import Graph as G

    k = G.cycle(4).clique_complex()
    p = poincare_series(k, 0)
    assert p.numerator == (1, 2, 1)
    assert [p.coefficient(n) for n in range(6)] == [1, 2, 1, 0, 0, 0]


def test_poincare_series_simplex_full_rank():
    k = SimplicialComplex.simplex(2)
    p = poincare_series(k, 2)
    # 1/(1-t)^2 counts monomials in two variables
    assert [p.coefficient(n) for n in range(5)] == [1, 2, 3, 4, 5]


def test_poincare_series_rejects_negative_rank():
    with pytest.raises(ValueError):
        poincare_series(SimplicialComplex.simplex(2), -1)


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
    r = coabelian_report(Graph.cycle(4), Subgroup(4, ["1000"]))
    assert r.poincare.coefficient(0) == 1
