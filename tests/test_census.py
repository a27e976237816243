"""Census enumeration, the JSONL format, parallel determinism, verify."""

import functools
import hashlib
import json
import random

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapes import cycle_graph
from rzformal import (
    SimplicialComplex, census, cohomology, formality, run_census, simplicial, verify_census,
)
from rzformal.census import all_complexes, compute_record, census_tasks, flag_complexes
from rzformal.cohomology import BettiTable
from rzformal.moment_angle import CubicalComplex


def test_flag_complex_counts():
    # one flag complex per graph
    assert len(list(flag_complexes(2))) == 2
    assert len(list(flag_complexes(3))) == 8
    assert len(list(flag_complexes(4))) == 64


def test_all_complex_counts():
    # complexes with every singleton present, up to nothing: the order
    # ideals of the nonempty-subset lattice that contain all vertices
    assert len(list(all_complexes(1))) == 1
    assert len(list(all_complexes(2))) == 2
    assert len(list(all_complexes(3))) == 9
    assert len(list(all_complexes(4))) == 114


def test_all_complexes_regression_membership():
    found = {tuple(sorted(k.facets)) for k in all_complexes(2)}
    assert found == {(0b01, 0b10), (0b11,)}


def test_record_json_key_order_and_content():
    k = cycle_graph(4).clique_complex()
    line = compute_record(k, 0b0001).json_line()
    obj = json.loads(line)
    assert list(obj) == [
        "m",
        "facets",
        "is_flag",
        "I",
        "verdict_flag",
        "verdict_general",
        "verdict_oracle",
        "verdict_torus",
        "betti_total_ambient",
        "betti_total_fixed",
        "agree",
    ]
    assert obj["verdict_flag"] == "formal"
    assert obj["agree"] is True
    assert " " not in line  # compact separators


def _compact(record):
    return json.dumps(record, separators=(",", ":"))


@pytest.mark.parametrize("mode", census.MODES)
def test_every_census_line_to_m4_is_its_compact_json(mode):
    # the head comes from one json.dumps per complex and the rest from a
    # template; together they must be the record's compact JSON
    complexes = flag_complexes if mode == "flag" else all_complexes
    for m in range(1, 5):
        for k in complexes(m):
            for i_mask in range(1 << m):
                record = compute_record(k, i_mask)
                assert record.json_line() == _compact(record)


def test_a_line_of_any_i_is_its_compact_json_past_eight_vertices():
    # the text of I is read from a table for the masks below 256 and joined
    # from the labels of the others
    k = cycle_graph(9).clique_complex()
    for i_mask in (0, 0b1, 0b101, 0xFF, 1 << 8, 0b100000101, (1 << 9) - 1):
        record = compute_record(k, i_mask)
        assert record.json_line() == _compact(record)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(1, m), min_size=1, max_size=3, unique=True), max_size=5),
    st.integers(0, (1 << m) - 1),
)))
@example((3, [[1, 2], [2, 3], [1, 3]], 0))  # not flag, so verdict_flag is null; I = ∅
@example((4, [[1, 2], [2, 3], [3, 4], [1, 4]], 0b0101))
def test_a_drawn_record_line_is_its_compact_json(case):
    m, facets, i_mask = case
    k = SimplicialComplex.from_facets(m, facets + [[v] for v in range(1, m + 1)])
    record = compute_record(k, i_mask)
    assert record.json_line() == _compact(record)
    # a second record of the same complex reads the head kept on it
    again = compute_record(k, i_mask ^ 1)
    assert again.head is record.head
    assert again.json_line() == _compact(again)


def test_record_for_non_flag_complex_has_null_flag_verdict():
    from rzformal.simplicial import SimplicialComplex

    tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    obj = json.loads(compute_record(tri, 0).json_line())
    assert obj["is_flag"] is False
    assert obj["verdict_flag"] is None
    assert obj["agree"] is True


def test_census_tasks_one_per_complex():
    tasks = list(census_tasks(2, "flag"))
    assert len(tasks) == 2
    assert len(list(census_tasks(3, "all-complexes"))) == 9


def test_census_tasks_reject_unknown_mode(tmp_path):
    with pytest.raises(ValueError):
        list(census_tasks(2, "all"))
    # a mode that names no cap is a ValueError, never a KeyError
    with pytest.raises(ValueError, match="unknown census mode"):
        run_census(3, "all", tmp_path / "x.jsonl")


def test_run_census_flag_m2(tmp_path):
    out = tmp_path / "flag2.jsonl"
    summary = run_census(2, "flag", out)
    assert summary["records"] == 8
    assert summary["complexes"] == 2
    assert summary["disagreements"] == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    for line in lines:
        obj = json.loads(line)
        assert obj["agree"] is True


def test_run_census_all_complexes_m3(tmp_path):
    out = tmp_path / "all3.jsonl"
    summary = run_census(3, "all-complexes", out)
    assert summary["records"] == 72
    assert summary["disagreements"] == 0


def test_parallel_census_is_byte_identical(tmp_path):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    run_census(3, "flag", serial, jobs=1)
    run_census(3, "flag", parallel, jobs=2)
    assert serial.read_bytes() == parallel.read_bytes()


def test_verify_census_clean(tmp_path):
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    result = verify_census(out)
    assert result["records"] == 8
    assert result["mismatches"] == []
    assert result["corrupt"] == []


def test_verify_census_reports_tampered_line(tmp_path):
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    lines = out.read_text().splitlines()
    lines[2] = lines[2].replace('"betti_total_ambient":', '"betti_total_ambient":9')
    out.write_text("\n".join(lines) + "\n")
    result = verify_census(out)
    assert result["corrupt"] == []
    assert result["mismatches"] == [3]


M4_SHA256 = [
    ("flag", "3272ea637e4a4266d2c8a6799392ae47e7525625c996e2c900398668cca60311"),
    ("all-complexes", "7f518e558acb9ced171637dbe673f73243e934492e7ceb691131a7f79699ef8a"),
]


@pytest.mark.parametrize("mode, sha256", M4_SHA256)
def test_census_m4_bytes_are_pinned(tmp_path, mode, sha256):
    out = tmp_path / "c.jsonl"
    run_census(4, mode, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class _Watched(dict):
    """A dict that remembers its largest size."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


@pytest.mark.parametrize("mode, sha256", M4_SHA256)
def test_a_census_under_a_tiny_memo_bound_keeps_its_bytes(tmp_path, monkeypatch, mode, sha256):
    # nearly every lookup misses and evicts; the bytes may not change, and
    # the raw keys and the restriction test's face lists are bounded like
    # the memo
    memo, raw_memo, hom_cache = _Watched(), _Watched(), _Watched()
    monkeypatch.setattr(cohomology, "_memo", memo)
    monkeypatch.setattr(cohomology, "_raw_memo", raw_memo)
    monkeypatch.setattr(cohomology, "_hom_cache", hom_cache)
    monkeypatch.setattr(cohomology, "MEMO_BOUND", 4)
    out = tmp_path / "c.jsonl"
    run_census(4, mode, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
    assert memo.peak == 4
    assert raw_memo.peak == 4
    assert hom_cache.peak == 4


def test_the_flag_census_on_five_vertices_ranks_and_walks_once_per_shape(tmp_path, monkeypatch):
    # its 1,024 complexes fall into 34 isomorphism classes; the memo
    # meets 114 shapes of cubical models and 110 of Hochster tables, and
    # under its bound ranks each model shape once and walks each table
    # shape once (a cone's walk hands over to its link's), where keys up
    # to order-preserving relabeling ranked 1,319 and walked 1,315
    from rzformal import moment_angle

    counts = {"rank": 0, "walk": 0}
    rank, walk = CubicalComplex._rank, moment_angle._walk_tables

    def counted(name, compute):
        def spy(arg):
            counts[name] += 1
            return compute(arg)
        return spy

    monkeypatch.setattr(CubicalComplex, "_rank", counted("rank", rank))
    monkeypatch.setattr(moment_angle, "_walk_tables", counted("walk", walk))
    cohomology.clear_caches()
    summary = run_census(5, "flag", tmp_path / "c.jsonl")
    assert summary["records"] == 32768 and summary["disagreements"] == 0
    assert counts == {"rank": 114, "walk": 110}


def test_verify_reuses_the_complex_and_reports_only_the_flipped_line(tmp_path, monkeypatch):
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    lines = out.read_text().splitlines()
    # lines 1-4 are the four I of the first complex
    assert len({tuple(json.loads(line)["facets"][0]) for line in lines[:4]}) == 1
    lines[1] = lines[1].replace('"agree":true', '"agree":false')
    out.write_text("\n".join(lines) + "\n")
    seen = []
    compute = census.compute_record

    def spy(k, i_mask):
        seen.append(k)
        return compute(k, i_mask)

    monkeypatch.setattr(census, "compute_record", spy)
    read = SimplicialComplex.from_json_obj.__func__
    reads = []

    def counted(cls, obj):
        reads.append(obj)
        return read(cls, obj)

    monkeypatch.setattr(SimplicialComplex, "from_json_obj", classmethod(counted))
    result = verify_census(out)
    assert result["mismatches"] == [2]
    assert result["corrupt"] == []
    # one SimplicialComplex per complex, read from its first line and
    # shared by its consecutive lines
    assert len({id(k) for k in seen}) == 2
    assert len(reads) == 2


def _census_line(**fields) -> bytes:
    """Line 1 of the flag m=2 census with ``fields`` set; None deletes one."""
    obj = json.loads(compute_record(SimplicialComplex.from_facets(2, [[1], [2]]), 0).json_line())
    for name, value in fields.items():
        if value is None:
            del obj[name]
        else:
            obj[name] = value
    return json.dumps(obj, separators=(",", ":")).encode()


@pytest.mark.parametrize(
    "bad",
    [
        '{"m": 2, "facets": [[1], [2]], "I": [1, "x"]}',
        '{"m": 2, "facets": [[1, "a"]], "I": [1]}',
        "not json",
        # booleans are JSON values of their own, not vertex 1
        '{"m": 2, "facets": [[1], [2]], "I": [true]}',
        # after two lines with facets [[1], [2]], which Python's == finds
        # equal to these, so the complex is not reused for them
        '{"m": 2, "facets": [[true], [2]], "I": [1]}',
        '{"m": 2, "facets": [[1.0], [2]], "I": [1]}',
        # rejected before any mask is built for it
        '{"m": 2, "facets": [[1], [2]], "I": [1099511627776]}',
        # nested past the recursion limit of the JSON decoder
        pytest.param("[" * 200_000, id="deep-nesting"),
        # each raises InputError as the line is read, not a KeyError or TypeError
        pytest.param(_census_line(I=5), id="I-is-5"),
        pytest.param(_census_line(I=None), id="no-I"),
        pytest.param(_census_line(m="3"), id="m-is-a-string"),
        pytest.param(b'[{"m": 2, "facets": [[1], [2]], "I": []}]', id="a-list"),
        pytest.param(b"\xff" + _census_line(), id="not-utf8"),
        pytest.param(_census_line()[:-9], id="truncated"),
    ],
)
def test_verify_reports_only_a_corrupt_line_inside_one_complex(tmp_path, bad):
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    lines = out.read_bytes().splitlines()
    lines.insert(2, bad if isinstance(bad, bytes) else bad.encode())
    out.write_bytes(b"\n".join(lines) + b"\n")
    result = verify_census(out)
    assert result["records"] == 9
    assert result["corrupt"] == [3]
    assert result["mismatches"] == []


def test_one_complex_serializes_its_facets_once(monkeypatch):
    calls = []
    to_json_obj = SimplicialComplex.to_json_obj

    def counted(k):
        calls.append(k)
        return to_json_obj(k)

    monkeypatch.setattr(SimplicialComplex, "to_json_obj", counted)
    lines, _ = census._task_records((3, ((1, 2), (2, 3), (1, 3))))
    assert len(lines) == 8
    assert len(calls) <= 1


def test_verify_reports_a_line_that_is_not_utf8_as_corrupt_and_goes_on(tmp_path):
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    lines = out.read_bytes().splitlines()
    lines[3] = lines[3].replace(b'"agree"', b'"agr\xff\xfe"')
    out.write_bytes(b"\n".join(lines) + b"\n")
    result = verify_census(out)
    # the good lines on both sides are still checked
    assert result == {"records": 8, "mismatches": [], "corrupt": [4]}


def test_verify_reports_a_fixed_point_model_disagreement_and_goes_on(tmp_path, monkeypatch):
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    betti = CubicalComplex.betti
    calls = []

    def disagree_once(model):
        calls.append(model)
        return BettiTable(0, (99,)) if len(calls) == 1 else betti(model)

    monkeypatch.setattr(CubicalComplex, "betti", disagree_once)
    result = verify_census(out)
    assert result == {"records": 8, "mismatches": [1], "corrupt": []}
    assert len(calls) == 8


def test_verify_census_reports_corrupt_line(tmp_path):
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    lines = out.read_text().splitlines()
    lines[5] = "this is not json"
    out.write_text("\n".join(lines) + "\n")
    result = verify_census(out)
    assert result["corrupt"] == [6]


def test_verify_census_empty_file(tmp_path):
    out = tmp_path / "empty.jsonl"
    out.write_text("")
    result = verify_census(out)
    assert result["records"] == 0
    assert result["mismatches"] == []


def test_verify_reports_a_line_over_the_census_caps_as_corrupt(tmp_path, monkeypatch):
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    line = json.loads(out.read_text().splitlines()[1])
    line["m"] = 6
    out.write_text(json.dumps(line, separators=(",", ":")) + "\n")

    def refuse(*args):
        raise AssertionError("a line over the census caps was recomputed")

    monkeypatch.setattr(census, "compute_record", refuse)
    result = verify_census(out)
    assert result["corrupt"] == [1]
    assert result["mismatches"] == []


def test_census_caps(tmp_path, monkeypatch):
    with pytest.raises(ValueError):
        run_census(6, "flag", tmp_path / "x.jsonl")
    with pytest.raises(ValueError):
        run_census(6, "all-complexes", tmp_path / "y.jsonl")
    monkeypatch.setenv("RZFORMAL_CENSUS_FLAG_CAP", "2")
    with pytest.raises(ValueError):
        run_census(3, "flag", tmp_path / "z.jsonl")
    monkeypatch.delenv("RZFORMAL_CENSUS_FLAG_CAP")
    run_census(3, "flag", tmp_path / "ok.jsonl")


def test_a_library_census_and_verify_read_each_cap_once(tmp_path, monkeypatch):
    # every decider checks its caps per record; a direct call, outside the
    # command line, still reads the environment once per cap
    reads = []
    from_env = simplicial._cap_from_env

    def counted(name):
        reads.append(name)
        return from_env(name)

    monkeypatch.setattr(simplicial, "_cap_from_env", counted)
    out = tmp_path / "c.jsonl"
    for mode in census.MODES:
        run_census(3, mode, out)
        assert len(reads) <= len(simplicial.CAPS), mode
        reads.clear()
        assert verify_census(out)["mismatches"] == []
        assert len(reads) <= len(simplicial.CAPS), mode
        reads.clear()


def test_every_all_complex_has_all_vertices():
    for k in all_complexes(3):
        assert k.ghost_mask == 0
        assert k.vertices_mask == 0b111


def test_a_fault_in_a_decider_is_raised_by_verify_not_called_corrupt(tmp_path, monkeypatch):
    # a KeyError in a decider is a fault of the program, never a corrupt line
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    torus = formality.torus_oracle

    def faulty(k, i_mask):
        if i_mask == 0b11:
            raise KeyError("planted fault")
        return torus(k, i_mask)

    monkeypatch.setattr(formality, "torus_oracle", faulty)
    with pytest.raises(KeyError, match="planted fault"):
        verify_census(out)


def test_a_census_through_a_symlink_replaces_the_file_it_names(tmp_path):
    target, link = tmp_path / "c.jsonl", tmp_path / "link.jsonl"
    target.write_text("stale\n")
    link.symlink_to(target)
    run_census(2, "flag", link)
    run_census(2, "flag", tmp_path / "direct.jsonl")
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "direct.jsonl").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "direct.jsonl", "link.jsonl"]


# mutations of one line that int() or a lax reader of I would let through
_NAMED_MUTATIONS = [
    lambda line: line[:-1] + b',"I":[2]}',  # a duplicate "I" key, read last by json
    lambda line: line.replace(b'"I":[1]', b'"I":[1_0]'),
    lambda line: line.replace(b'"I":[1]', b'"I":[ 1]'),
    lambda line: line.replace(b'"I":[1]', b'"I":[+1]'),
    lambda line: line + b"\r",  # a CRLF line end
]


def _mutants(lines: list[bytes], rng: random.Random, count: int):
    """``count`` seeded copies of a census, each with one or two mutations."""
    tokens = [b"1", b"0", b",", b"[", b"]", b"{", b"}", b" ", b"-", b"+", b"_", b"\r", b"\n",
              b'"', b"null", b"true", b"1.0", b"1e0", b'"I":[1]', b',"I":[', b"\xff"]
    for _ in range(count):
        copy = list(lines)
        for _ in range(rng.choice((1, 1, 2))):
            n = rng.randrange(len(copy))
            line = copy[n]
            kind = rng.randrange(7)
            if kind == 0 and line:  # a byte flip
                at = rng.randrange(len(line))
                line = line[:at] + bytes([line[at] ^ 1 << rng.randrange(8)]) + line[at + 1:]
            elif kind == 1 and line:  # a deletion
                at = rng.randrange(len(line))
                line = line[:at] + line[at + rng.randint(1, 8):]
            elif kind == 2:  # an inserted token
                at = rng.randrange(len(line) + 1)
                line = line[:at] + rng.choice(tokens) + line[at:]
            elif kind == 3:  # "m" rewritten
                m = rng.choice((b"0", b"2", b"4", b"6", b'"3"', b"3.0", b"true", b"03"))
                line = line.replace(b'"m":3', b'"m":' + m, 1)
            elif kind == 4:
                line = rng.choice(_NAMED_MUTATIONS)(line)
            elif kind == 5:  # a repeated line, here or of another complex
                line = rng.choice((line, rng.choice(lines)))
                copy.insert(n, line)
            else:  # the line of the same complex with another I
                line = lines[n % len(lines) ^ rng.choice((1, 2, 4))]
            copy[n] = line
        yield copy


def test_verify_equals_reading_every_line_on_mutated_censuses(tmp_path, monkeypatch):
    out = tmp_path / "c.jsonl"
    run_census(3, "all-complexes", out)
    lines = out.read_bytes().splitlines()
    assert len(lines) == 9 * 8
    # a record is a function of (K, I), and equal complexes hash equal: each
    # is computed once for both verifiers and every copy
    monkeypatch.setattr(census, "compute_record", functools.cache(compute_record))
    # each named case on line 18, the I = {1} line of the third complex, is
    # caught there alone
    for mutate in _NAMED_MUTATIONS:
        out.write_bytes(b"\n".join(lines[:17] + [mutate(lines[17])] + lines[18:]) + b"\n")
        result = verify_census(out)
        assert result == oracles.verify_by_parsing(out)
        assert result["mismatches"] + result["corrupt"] == [18], mutate(lines[17])
    # a repeated line passes, as each line is checked alone
    copies = [lines[:18] + lines[17:], *_mutants(lines, random.Random("verify-mutants"), 1000)]
    caught = 0
    for copy in copies:
        out.write_bytes(b"\n".join(copy) + b"\n")
        expected = oracles.verify_by_parsing(out)
        assert verify_census(out) == expected, copy
        caught += expected != {"records": len(copy), "mismatches": [], "corrupt": []}
    assert caught > len(copies) // 2


def test_a_clean_line_is_never_parsed(tmp_path, monkeypatch):
    out = tmp_path / "c.jsonl"
    run_census(3, "flag", out)
    loads = json.loads
    calls = []

    def counted(text, *args, **kwargs):
        calls.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(census.json, "loads", counted)
    assert verify_census(out) == {"records": 64, "mismatches": [], "corrupt": []}
    # the first line of each of the 8 complexes
    assert len(calls) == 8
    lines = out.read_text().splitlines()
    lines[10] = lines[10].replace('"agree":true', '"agree":false')
    out.write_text("\n".join(lines) + "\n")
    calls.clear()
    assert verify_census(out) == {"records": 64, "mismatches": [11], "corrupt": []}
    assert len(calls) == 9


def test_a_fixed_point_disagreement_on_a_compared_line_is_a_mismatch(tmp_path, monkeypatch):
    # lines 2 and 6 of the flag m = 2 census are I = {1}, each just after
    # the first line of its complex; only their fixed models are on {2}
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    betti = CubicalComplex.betti

    def disagree_on_2(model):
        return BettiTable(0, (99,)) if model.ambient == 0b10 else betti(model)

    monkeypatch.setattr(CubicalComplex, "betti", disagree_on_2)
    assert oracles.verify_by_parsing(out) == {"records": 8, "mismatches": [2, 6], "corrupt": []}
    assert verify_census(out) == {"records": 8, "mismatches": [2, 6], "corrupt": []}


def test_a_fault_raised_once_on_a_compared_line_propagates(tmp_path, monkeypatch):
    # line 4 of the flag m = 2 census, I = {1, 2}, is compared as bytes; a
    # fault there propagates even when a second recomputation would not raise
    out = tmp_path / "c.jsonl"
    run_census(2, "flag", out)
    torus = formality.torus_oracle
    raised = []

    def faulty_once(k, i_mask):
        if i_mask == 0b11 and not raised:
            raised.append(i_mask)
            raise KeyError("planted fault")
        return torus(k, i_mask)

    monkeypatch.setattr(formality, "torus_oracle", faulty_once)
    with pytest.raises(KeyError, match="planted fault"):
        verify_census(out)
