"""Census enumeration, the JSONL format, parallel determinism, verify."""

import hashlib
import json

import pytest

from shapes import cycle_graph
from rzformal import SimplicialComplex, census, cohomology, formality, run_census, verify_census
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
    # the restriction test's face lists are bounded like the memo
    memo, hom_cache = _Watched(), _Watched()
    monkeypatch.setattr(cohomology, "_memo", memo)
    monkeypatch.setattr(cohomology, "_hom_cache", hom_cache)
    monkeypatch.setattr(cohomology, "MEMO_BOUND", 4)
    out = tmp_path / "c.jsonl"
    run_census(4, mode, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
    assert memo.peak == 4
    assert hom_cache.peak == 4


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
    result = verify_census(out)
    assert result["mismatches"] == [2]
    assert result["corrupt"] == []
    # one SimplicialComplex per complex, shared by its consecutive lines
    assert len({id(k) for k in seen}) == 2


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
        '{"m": 2, "facets": [[true], [2]], "I": [1]}',
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
