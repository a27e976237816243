"""Mod-2 linear algebra against a dense reference implementation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_kernel, dense_rank, dense_rref, in_row_space
from rzformal import Subgroup
from rzformal.f2 import (
    kernel_basis,
    rank,
    reduce_batch,
    rref,
    vector_from_string,
    vector_to_string,
)
from rzformal.simplicial import mask_vertices


def to_dense(rows, ncols):
    return [[r >> c & 1 for c in range(ncols)] for r in rows]


def from_dense(rows):
    return [sum(bit << c for c, bit in enumerate(r)) for r in rows]


def from_strings(*rows):
    return [vector_from_string(s) for s in rows]


def test_vector_string_round_trip():
    v = vector_from_string("110")
    assert v == 0b011
    assert vector_to_string(v, 3) == "110"
    assert mask_vertices(v) == (1, 2)
    assert vector_from_string("000") == 0
    assert vector_to_string(0, 4) == "0000"


def test_rank_examples():
    assert rank(from_strings("110", "011", "101"), 3) == 2
    assert rank(from_strings("100", "010", "001"), 3) == 3
    assert rank([], 3) == 0
    assert rank([0, 0], 5) == 0


def test_kernel_of_all_ones_row():
    # the kernel of (1 1 1) is the even-weight subspace
    basis = kernel_basis(from_strings("111"), 3)
    assert len(basis) == 2
    for v in basis:
        assert bin(v & 0b111).count("1") % 2 == 0
    # basis vectors are themselves in echelon position and distinct
    assert len(set(basis)) == 2


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(from_strings("10", "01"), 2) == []


def test_rref_is_canonical():
    ra, pa = rref(from_strings("110", "011"), 3)
    rb, pb = rref(from_strings("011", "101"), 3)  # same row space
    assert ra == rb
    assert pa == pb


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=0, max_value=(1 << n) - 1),
                max_size=12,
            ),
        )
    )
)
def test_rank_matches_dense_oracle(case):
    ncols, rows = case
    assert rank(rows, ncols) == (dense_rank(to_dense(rows, ncols)) if rows else 0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=0, max_value=(1 << n) - 1),
                min_size=1,
                max_size=12,
            ),
        )
    )
)
def test_rref_and_kernel_match_dense_oracle(case):
    ncols, rows = case
    ech, pivots = rref(rows, ncols)
    dense_ech, dense_pivots = dense_rref(to_dense(rows, ncols), ncols)
    assert pivots == dense_pivots
    assert ech == from_dense(dense_ech)

    kernel = kernel_basis(rows, ncols)
    dense_k = dense_kernel(to_dense(rows, ncols), ncols)
    assert len(kernel) == len(dense_k) == ncols - rank(rows, ncols)
    # every kernel vector annihilates every row
    for v in kernel:
        for r in rows:
            assert bin(v & r).count("1") % 2 == 0
    # and spans the same space as the dense kernel
    for v in kernel:
        assert in_row_space(to_dense([v], ncols)[0], dense_k)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=8),
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6),
        )
    )
)
def test_reduce_batch_detects_row_space_membership(case):
    ncols, rows, queries = case
    ech, pivots = rref(rows, ncols)
    residues = reduce_batch(queries, ech, pivots)
    dense_rows = to_dense(rows, ncols)
    for q, res in zip(queries, residues):
        member = in_row_space(to_dense([q], ncols)[0], dense_rows)
        assert (res == 0) == member


def test_subgroup_canonical_form():
    a = Subgroup(3, ["110", "011"])
    b = Subgroup(3, ["011", "101", "110"])  # redundant spanning set
    assert a == b
    assert a.rank == 2
    assert a.corank == 1


def span(basis):
    """All 2^len(basis) sums of subsets of ``basis``."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return out


def test_subgroup_kernel_example():
    # the kernel of the parity form on three coordinates
    members = span(Subgroup(3, ["110", "011"]).basis)
    assert sorted(members) == sorted([0, 0b011, 0b110, 0b101])
    assert vector_from_string("101") in members
    assert vector_from_string("100") not in members


def test_subgroup_hull():
    assert Subgroup(3, ["110", "011"]).hull() == (1, 2, 3)
    assert Subgroup(3, []).hull() == ()
    assert Subgroup(3, ["101"]).hull() == (1, 3)
    assert Subgroup(4, ["1000", "0100", "0010", "0001"]).hull() == (1, 2, 3, 4)
    assert Subgroup(2, []).rank == 0


def test_subgroup_corank_example():
    # the diagonal inside two coordinates
    a = Subgroup(2, ["11"])
    assert a.rank == 1
    assert a.corank == 1


def test_subgroup_rejects_out_of_range_generators():
    with pytest.raises(ValueError):
        Subgroup(2, ["111"])
    with pytest.raises(ValueError):
        Subgroup(2, [4])


def test_subgroup_json_round_trip():
    a = Subgroup(4, ["1100", "0011"])
    blob = json.dumps(a.to_json_obj())
    assert Subgroup.from_json_obj(json.loads(blob)) == a


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), max_size=5),
        )
    )
)
def test_subgroup_element_count_and_hull(case):
    m, gens = case
    a = Subgroup(m, gens)
    elements = span(a.basis)
    assert len(elements) == 1 << a.rank
    assert a.rank + a.corank == m
    union = 0
    for v in elements:
        union |= v
    assert union == a.hull_mask
    # the hull is itself the support of the generating set
    spanned = 0
    for g in gens:
        spanned |= g
    assert union == spanned
