"""End-to-end command line behavior, run in process via run(argv)."""

import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import rzformal
from rzformal import (
    FormalityReport, Graph, InputError, SimplicialComplex, Subgroup, census, cli,
    coabelian_report, formality, poincare_series, simplicial,
)
from rzformal.cli import build_parser, run
from rzformal.cohomology import BettiTable
from rzformal.f2 import vector_from_string, vector_to_string
from rzformal.moment_angle import CubicalComplex
from rzformal.simplicial import CAPS, MAX_M


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        # a str is written as it is, for text that json.dumps cannot make
        p = tmp_path / name
        p.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(p)

    return tmp_path, write


def test_check_formal_exits_zero(files, capsys):
    _, write = files
    c4 = write("c4.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    code = run(["check", c4, "--I", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "formal"
    assert out["method"] == "general_criterion"


def test_check_not_formal_exits_one(files, capsys):
    _, write = files
    pts = write("pts.json", {"m": 3, "facets": [[1], [2], [3]]})
    code = run(["check", pts, "--I", "1"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["witness"] == {"kind": "nontrivial_restriction", "J": [1, 2, 3]}


def test_check_method_selection(files, capsys):
    _, write = files
    c4 = write("c4.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    for method, name in [
        ("flag", "flag_criterion"),
        ("general", "general_criterion"),
        ("oracle", "betti_sum_oracle"),
        ("torus", "torus_oracle"),
    ]:
        assert run(["check", c4, "--I", "1", "--method", method]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == name


def test_check_all_methods_emits_list(files, capsys):
    _, write = files
    c4 = write("c4.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    assert run(["check", c4, "--I", "1", "--method", "all"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["method"] for r in out] == [
        "flag_criterion",
        "general_criterion",
        "betti_sum_oracle",
        "torus_oracle",
    ]


def test_check_empty_i_defaults_to_formal(files, capsys):
    _, write = files
    pts = write("pts.json", {"m": 3, "facets": [[1], [2], [3]]})
    assert run(["check", pts]) == 0
    capsys.readouterr()


def test_check_flag_method_on_non_flag_is_input_error(files, capsys):
    _, write = files
    tri = write("tri.json", {"m": 3, "facets": [[1, 2], [2, 3], [1, 3]]})
    assert run(["check", tri, "--I", "1", "--method", "flag"]) == 3
    assert "flag criterion" in capsys.readouterr().err


def test_check_bad_vertex_list_is_input_error(files, capsys):
    _, write = files
    c3 = write("c3.json", {"m": 3, "facets": [[1, 2], [2, 3], [1, 3]]})
    # int() would read the Arabic-Indic 3 as 3, 1_0 as 10 and +1 as 1
    for bad in ("1,zebra", "0", "-1", "4", "٣", "1_0", "+1"):
        assert run(["check", c3, "--I", bad]) == 3, bad
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (bad, err)


def test_check_missing_file_is_input_error(capsys):
    assert run(["check", "/nonexistent/path.json"]) == 3
    capsys.readouterr()


def test_check_malformed_json_is_input_error(files, capsys):
    tmp_path, _ = files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check", str(bad)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, payloads",
    [
        ("hull", [{"m": 3}]),  # missing field
        ("check", [{"m": 3, "facets": [[1, "a"]]}]),  # non-int vertex
        ("check", [{"m": True, "facets": [[1]]}]),  # boolean vertex count
        ("check", [{"m": 3, "facets": [[1, 2], 3]}]),  # non-list facet
        (
            "report",  # non-pair edge
            [{"m": 3, "edges": [[1, 2], 3]}, {"m": 3, "generators": ["100"]}],
        ),
        ("check", ["[" * 200_000]),  # nested past the recursion limit
        ("hull", [{"m": MAX_M + 1, "generators": []}]),  # m over the input bound
        ("check", [{"m": 0, "facets": []}]),  # the void complex, no vertex a ghost
        (
            "report",  # an edge of three vertices
            [{"m": 3, "edges": [[1, 2, 3]]}, {"m": 3, "generators": ["100"]}],
        ),
        ("hull", [{"m": 3, "generators": ["012"]}]),  # a generator digit not 0 or 1
        ("report", [{"m": 3, "edges": [[1, 2]]}, {"m": 3, "generators": ["012"]}]),
    ],
    ids=[
        "missing-field", "non-int-vertex", "bool-m", "non-list-facet", "non-pair-edge",
        "deep-nesting", "m-over-max", "void", "edge-of-three", "hull-generator",
        "report-generator",
    ],
)
def test_malformed_input_fields_are_input_errors(files, capsys, command, payloads):
    _, write = files
    paths = [write(f"in{n}.json", obj) for n, obj in enumerate(payloads)]
    assert run([command, *paths]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_check_unknown_option_is_input_error(files, capsys):
    _, write = files
    c4 = write("c4.json", {"m": 4, "facets": [[1, 2]]})
    with pytest.raises(SystemExit) as exc:
        run(["check", c4, "--frobnicate"])
    assert exc.value.code == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "betti"])
def test_max_vertices_is_a_census_option_only(files, capsys, command):
    _, write = files
    c4 = write("c4.json", {"m": 4, "facets": [[1, 2]]})
    with pytest.raises(SystemExit) as exc:
        run([command, c4, "--max-vertices", "4"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --max-vertices 4" in err


C4_BETTI = """\
{
  "real": {
    "min_degree": 0,
    "dims": [
      1,
      2,
      1
    ],
    "total": 4
  },
  "complex": {
    "min_degree": 0,
    "dims": [
      1,
      0,
      0,
      2,
      0,
      0,
      1
    ],
    "total": 4
  }
}
"""


def test_betti_output_of_the_four_cycle_is_pinned(files, capsys):
    _, write = files
    c4 = write("c4.json", C4)
    assert run(["betti", c4]) == 0
    assert capsys.readouterr().out == C4_BETTI


def test_betti_both_spaces(files, capsys):
    _, write = files
    c4 = write("c4.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    assert run(["betti", c4]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["real"]["dims"] == [1, 2, 1]
    assert out["complex"]["total"] == out["real"]["total"]
    assert run(["betti", c4, "--which", "real"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["real"]


def test_hull_example(files, capsys):
    _, write = files
    sub = write("a.json", {"m": 3, "generators": ["110", "011"]})
    assert run(["hull", sub]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"I": [1, 2, 3], "rank": 2, "corank": 1}


def test_report_round_trip(files, capsys):
    _, write = files
    graph = write("g.json", {"m": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    sub = write("a.json", {"m": 4, "generators": ["1000"]})
    assert run(["report", graph, sub]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "formal"
    assert out["cm_dimension"] == 1
    assert out["poincare"] == {"numerator": [1, 2, 1], "r": 1}


def test_report_not_formal(files, capsys):
    _, write = files
    graph = write("g.json", {"m": 2, "edges": []})
    sub = write("a.json", {"m": 2, "generators": ["11"]})
    assert run(["report", graph, sub]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "not_formal"
    assert out["cm_dimension"] is None


def test_census_and_verify_flow(files, capsys):
    tmp_path, _ = files
    out = tmp_path / "census.jsonl"
    assert run(["census", "--max-vertices", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "records=8" in stdout
    assert "disagreements=0" in stdout
    assert run(["verify", str(out)]) == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_census_to_stdout_and_verify_from_stdin(files, capsys, monkeypatch):
    # "-" is stdout for census, which then tells its summary on stderr, and
    # stdin for verify; no file named "-" is made
    tmp_path, _ = files
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "census.jsonl"
    assert run(["census", "--max-vertices", "3", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert run(["census", "--max-vertices", "3", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    assert captured.err == summary.replace(f"out={out}", "out=-")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["census.jsonl"]
    flipped = out.read_bytes().replace(b'"agree":true', b'"agree":false', 1)
    for data, code in [(out.read_bytes(), 0), (flipped, 1)]:
        out.write_bytes(data)
        run(["verify", str(out)])
        from_file = capsys.readouterr()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(["verify", "-"]) == code
        assert capsys.readouterr() == from_file


def test_census_all_complexes_mode(files, capsys):
    tmp_path, _ = files
    out = tmp_path / "census.jsonl"
    assert run(["census", "--max-vertices", "2", "--mode", "all-complexes", "--out", str(out), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 8


def test_verify_tampered_census_exits_one(files, capsys):
    tmp_path, _ = files
    out = tmp_path / "census.jsonl"
    run(["census", "--max-vertices", "2", "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().splitlines()
    lines[0] = lines[0].replace('"agree":true', '"agree":false')
    out.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert "line 1: mismatch" in captured.err


def test_verify_corrupt_census_exits_two(files, capsys):
    tmp_path, _ = files
    out = tmp_path / "census.jsonl"
    run(["census", "--max-vertices", "2", "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().splitlines()
    lines[1] = "garbage"
    out.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(out)]) == 2
    assert "line 2: corrupt" in capsys.readouterr().err


def test_verify_names_a_blank_line_as_corrupt(files, capsys):
    tmp_path, _ = files
    out = tmp_path / "census.jsonl"
    run(["census", "--max-vertices", "2", "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().splitlines()
    lines.insert(2, "")
    out.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["line 3: corrupt record"]
    # a blank line is a record like any other line, as a line not UTF-8 is
    assert "records=9 mismatches=0 corrupt=1" in captured.out


def test_verify_names_a_line_that_is_not_utf8(files, capsys):
    tmp_path, _ = files
    out = tmp_path / "census.jsonl"
    run(["census", "--max-vertices", "2", "--out", str(out)])
    capsys.readouterr()
    lines = out.read_bytes().splitlines()
    lines[1] = b"\xff" + lines[1]
    out.write_bytes(b"\n".join(lines) + b"\n")
    assert run(["verify", str(out)]) == 2
    captured = capsys.readouterr()
    assert "line 2: corrupt" in captured.err
    assert "records=8 mismatches=0 corrupt=1" in captured.out


def test_verify_empty_file_warns_but_passes(files, capsys):
    tmp_path, _ = files
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run(["verify", str(empty)]) == 0
    captured = capsys.readouterr()
    assert "warning: 0 records" in captured.err


@pytest.mark.parametrize("case", ["census-no-vertex", "clique-cap"])
def test_an_empty_census_and_a_clique_listing_over_the_cap_exit_3_in_one_line(
    files, capsys, monkeypatch, case
):
    tmp_path, write = files
    if case == "census-no-vertex":
        argv = ["census", "--max-vertices", "0", "--out", str(tmp_path / "x.jsonl")]
        message = "census needs at least one vertex"
    else:
        # K4 has 16 cliques, over the 2^2 that the cap lets the report list
        edges = [[u, v] for u in range(1, 5) for v in range(u + 1, 5)]
        graph = write("g.json", {"m": 4, "edges": edges})
        argv = ["report", graph, write("a.json", {"m": 4, "generators": ["1000"]})]
        message = "listing more than 2^2 cliques exceeds the cap 2 (RZFORMAL_HOCHSTER_CAP)"
        monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "2")
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_all_exits_2_with_every_report_when_the_deciders_disagree(
    files, capsys, monkeypatch
):
    _, write = files
    c4 = write("c4.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    planted = FormalityReport("not_formal", "torus_oracle", 0b1, {"kind": "planted"})
    monkeypatch.setattr(formality, "torus_oracle", lambda k, i_mask: planted)
    assert run(["check", c4, "--I", "1", "--method", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = json.loads(captured.out)
    assert [r["method"] for r in reports] == [
        "flag_criterion", "general_criterion", "betti_sum_oracle", "torus_oracle"
    ]
    assert [r["verdict"] for r in reports] == ["formal"] * 3 + ["not_formal"]
    assert reports[-1] == planted.to_json_obj()


def test_census_over_cap_is_input_error(files, capsys):
    tmp_path, _ = files
    assert run(["census", "--max-vertices", "9", "--out", str(tmp_path / "x.jsonl")]) == 3
    capsys.readouterr()


def test_check_oracle_respects_max_vertices(files, capsys):
    _, write = files
    # a 9-vertex complex is over the default cubical cross-check cap;
    # the oracle still runs because the cap only gates the cell model
    facets = [[v] for v in range(1, 10)]
    big = write("big.json", {"m": 9, "facets": facets})
    assert run(["check", big, "--I", "1", "--method", "oracle"]) == 1
    capsys.readouterr()


C4 = {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]}


@pytest.mark.parametrize("method", ["general", "oracle", "torus", "all"])
def test_check_max_vertices_lifts_the_hochster_cap(files, capsys, monkeypatch, method):
    _, write = files
    c4 = write("c4.json", C4)
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "3")
    assert run(["check", c4, "--I", "1", "--method", method]) == 3
    assert "exceeds the cap 3" in capsys.readouterr().err
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "4")
    assert run(["check", c4, "--I", "1", "--method", method]) in (0, 1)
    capsys.readouterr()


def test_the_flag_criterion_answers_over_the_hochster_cap(files, capsys, monkeypatch):
    # the flag criterion reads no Hochster table, so nothing summed over the
    # 2^m subsets may be computed for it: C6 answers under the cap 4, which
    # the oracle, summing them, is refused by
    _, write = files
    c6 = write("c6.json", {"m": 6, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]})
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "4")
    assert run(["check", c6, "--I", "1", "--method", "flag"]) == 1
    assert json.loads(capsys.readouterr().out)["witness"]["kind"] == "missing_edge"
    assert run(["check", c6, "--I", "1", "--method", "oracle"]) == 3
    assert "exceeds the cap 4" in capsys.readouterr().err


def test_check_over_the_cap_refuses_before_the_general_loop(files, capsys, monkeypatch):
    _, write = files
    c4 = write("c4.json", C4)
    calls = []

    def count(*args):
        calls.append(args)
        return True

    monkeypatch.setattr("rzformal.formality._restriction_map_trivial", count)
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "3")
    assert run(["check", c4, "--I", "1", "--method", "all"]) == 3
    assert "exceeds the cap 3" in capsys.readouterr().err
    assert calls == []


CONE = {"m": 6, "facets": [[1, 2, 6], [2, 3, 6], [3, 4, 6], [4, 5, 6], [1, 5, 6]]}


@pytest.mark.parametrize("argv", [
    ["check", "--I", "6", "--method", "general"],
    ["check", "--I", "6", "--method", "all"],
    ["betti"],
])
def test_the_cone_reduction_does_not_lift_the_hochster_cap(files, capsys, monkeypatch, argv):
    # a cone is reduced to the link of its apex, on m - 1 vertices; the cap
    # applies to the m vertices of the input all the same
    _, write = files
    cone = write("cone.json", CONE)
    refused = (
        "",
        "error: loop over vertex subsets on 6 vertices exceeds the cap 5"
        " (RZFORMAL_HOCHSTER_CAP)\n",
    )
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "5")
    assert run([argv[0], cone, *argv[1:]]) == 3
    assert tuple(capsys.readouterr()) == refused
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "6")
    assert run([argv[0], cone, *argv[1:]]) == 0
    # the memo now holds the tables of the cone and its link; the cap is
    # checked before any of them is read
    assert run(["check", cone, "--I", "6", "--method", "all"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "5")
    assert run([argv[0], cone, *argv[1:]]) == 3
    assert tuple(capsys.readouterr()) == refused


def test_the_cubical_cap_is_read_before_a_memoized_cross_check(files, capsys, monkeypatch):
    # the cubical cap gates the cross-check, not the check: under it the
    # oracle skips the model even when the memo holds its Betti numbers,
    # and a malformed value is refused all the same
    _, write = files
    cone = write("cone.json", CONE)
    argv = ["check", cone, "--I", "6", "--method", "all"]
    assert run(argv) == 0
    warm = capsys.readouterr().out

    def refuse(k):
        raise AssertionError("cubical model built over the cap")

    monkeypatch.setattr("rzformal.moment_angle.build_cubical", refuse)
    monkeypatch.setenv("RZFORMAL_CUBICAL_CAP", "5")
    assert run(argv) == 0
    assert capsys.readouterr().out == warm
    monkeypatch.setenv("RZFORMAL_CUBICAL_CAP", "five")
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "RZFORMAL_CUBICAL_CAP must be a non-negative integer" in captured.err


def test_one_command_reads_each_cap_variable_once(files, capsys, monkeypatch):
    # a census asks for its caps once per record and more; the command
    # reads the environment once, and a library call after it reads it anew
    tmp, _ = files
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    monkeypatch.setattr(simplicial, "os", SimpleNamespace(environ=Environ(os.environ)))
    argv = ["census", "--max-vertices", "3", "--out", str(tmp / "c.jsonl")]
    assert run(argv) == 0
    capsys.readouterr()
    assert sorted(reads) == sorted(env for env, _, _ in CAPS.values())
    reads.clear()
    simplicial.check_cap("hochster", 3)
    assert reads == ["RZFORMAL_HOCHSTER_CAP"]


def test_the_package_runs_as_a_module(files, capsys):
    _, write = files
    cone = write("cone.json", CONE)
    env = dict(os.environ, PYTHONPATH=str(Path(rzformal.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "rzformal", "betti", cone],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run(["betti", cone]) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out


def test_a_reader_that_closes_early_is_no_error(files):
    # `census --out - | head -c 100`: the census outgrows the pipe, meets its
    # closed end, and exits 141 (128 + SIGPIPE), as a shell reports for
    # `yes | head -1`, with nothing on stderr
    tmp_path, _ = files
    env = dict(os.environ, PYTHONPATH=str(Path(rzformal.__file__).parents[1]))
    argv = [sys.executable, "-m", "rzformal", "census", "--mode", "flag", "--max-vertices", "4"]
    proc = subprocess.Popen(
        [*argv, "--out", "-"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (cli.EXIT_BROKEN_PIPE, b"")
    assert cli.EXIT_BROKEN_PIPE == 141
    # stdout then points at os.devnull: what is written after it, and the
    # interpreter's last flush, cannot raise again
    script = ("import sys; from rzformal.cli import run; code = run(sys.argv[1:]); "
              "print('after'); sys.exit(code)")
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv[3:], "--out", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")
    # an output it cannot open is still bad input
    missing = str(tmp_path / "no" / "such" / "dir.jsonl")
    bad = subprocess.run([*argv, "--out", missing], capture_output=True, text=True,
                         env=env, timeout=60)
    assert bad.returncode == 3 and bad.stderr.startswith("error: [Errno 2]")


def test_commands_in_one_process_share_one_parser(files, capsys, monkeypatch):
    # a usage error, a missing file, then a valid check, each as it runs alone
    _, write = files
    pts = write("pts.json", {"m": 3, "facets": [[1], [2], [3]]})
    commands = [["check"], ["check", "/nonexistent/path.json"], ["check", pts, "--I", "1"]]
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap to the terminal
    env = dict(os.environ, PYTHONPATH=str(Path(rzformal.__file__).parents[1]))
    build_parser.cache_clear()
    codes = []
    for argv in commands:
        alone = subprocess.run(
            [sys.executable, "-m", "rzformal", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        try:
            codes.append(run(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        out = capsys.readouterr()
        assert (codes[-1], out.out, out.err) == (alone.returncode, alone.stdout, alone.stderr)
    assert codes == [3, 3, 1]
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_census_jobs_below_one_is_input_error(files, capsys, jobs):
    tmp_path, _ = files
    out = tmp_path / "x.jsonl"
    assert run(["census", "--max-vertices", "2", "--out", str(out), "--jobs", jobs]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("option", ["--max-vertices", "--jobs"])
@pytest.mark.parametrize("bad", ["٢", "1_0", "+1", " 2", ""])
def test_census_counts_are_ascii_digits_alone(files, capsys, option, bad):
    # int() would read the Arabic-Indic 2 as 2, 1_0 as 10, +1 as 1 and " 2" as 2
    tmp_path, _ = files
    out = tmp_path / "x.jsonl"
    argv = {"--max-vertices": "2", "--jobs": "1", "--out": str(out), option: bad}
    assert run(["census", *(x for pair in argv.items() for x in pair)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} must be a non-negative integer, got {bad!r}\n"
    assert not out.exists()


def test_census_jobs_are_clamped_to_the_cpu_count(files, capsys, monkeypatch):
    tmp_path, _ = files
    serial = tmp_path / "serial.jsonl"
    clamped = tmp_path / "clamped.jsonl"
    assert run(["census", "--max-vertices", "3", "--out", str(serial)]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(census, "Pool", no_pool)
    assert run(["census", "--max-vertices", "3", "--out", str(clamped), "--jobs", "64"]) == 0
    capsys.readouterr()
    assert clamped.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("method", ["oracle", "all"])
def test_check_reports_a_fixed_point_model_disagreement_in_one_line(
    files, capsys, monkeypatch, method
):
    _, write = files
    c4 = write("c4.json", {"m": 4, "facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})
    monkeypatch.setattr(CubicalComplex, "betti", lambda model: BettiTable(0, (99,)))
    assert run(["check", c4, "--I", "1", "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: fixed-point model disagreement")


HUGE = 1 << 40


def run_with_capped_memory(argv):
    """Run the CLI in a child process whose address space is capped at 400 MB."""

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

    env = dict(os.environ, PYTHONPATH=str(Path(rzformal.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "rzformal.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=60,
    )


@pytest.mark.parametrize("case", ["facet", "I", "verify"])
def test_a_huge_vertex_label_is_refused_before_any_mask_is_built(files, case):
    # a 2^40 label would ask for a 2^40-bit mask; the child's address
    # space is capped, so building one would end in a MemoryError
    tmp, write = files
    c3 = write("c3.json", {"m": 3, "facets": [[1, 2], [3]]})
    if case == "facet":
        argv, expected = ["check", write("bad.json", {"m": 3, "facets": [[1, 2], [HUGE]]})], 3
    elif case == "I":
        argv, expected = ["check", c3, "--I", str(HUGE)], 3
    else:
        k = SimplicialComplex.from_facets(3, [[1, 2], [3]])
        obj = json.loads(census.compute_record(k, 1).json_line())
        obj["facets"] = [[1, 2], [HUGE]]
        path = tmp / "huge.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        argv, expected = ["verify", str(path)], 2
    proc = run_with_capped_memory(argv)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    if case == "verify":
        assert "line 1: corrupt record" in proc.stderr
    else:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["check-flag", "check", "betti", "report"])
def test_a_huge_vertex_count_is_refused_before_anything_of_its_size(files, command):
    # m = 10^12 would ask for a 10^12-bit mask or a list of 10^12 ints;
    # never run this input without the child's address-space cap
    _, write = files
    complex_path = write("k.json", {"m": 10**12, "facets": [[1]]})
    if command == "check-flag":
        argv = ["check", complex_path, "--method", "flag"]
    elif command == "report":
        graph = write("g.json", {"m": 10**12, "edges": []})
        argv = ["report", graph, write("a.json", {"m": 1, "generators": ["1"]})]
    else:
        argv = [command, complex_path]
    proc = run_with_capped_memory(argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"0..{MAX_M}" in proc.stderr


@pytest.mark.parametrize("case", ["simplex-flag", "simplex-all", "report", "big-facet"])
def test_a_facet_over_the_hochster_cap_is_refused_before_its_faces_are_listed(files, case):
    # a facet on s vertices has 2^s faces: 2^26 ints for the simplex, which
    # the child's address-space cap turns into a MemoryError if listed
    _, write = files
    simplex = write("simplex.json", {"m": 26, "facets": [list(range(1, 27))]})
    if case == "simplex-flag":
        argv = ["check", simplex, "--method", "flag"]
    elif case == "simplex-all":
        argv = ["check", simplex, "--method", "all"]
    elif case == "report":
        edges = [[u, v] for u in range(1, 27) for v in range(u + 1, 27)]
        graph = write("k26.json", {"m": 26, "edges": edges})
        a = write("a.json", {"m": 26, "generators": ["1" + "0" * 25]})
        argv = ["report", graph, a]
    else:
        facets = [list(range(1, 23))] + [[v] for v in range(23, 31)]
        big = write("big.json", {"m": 30, "facets": facets})
        argv = ["check", big, "--method", "flag"]
    proc = run_with_capped_memory(argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "RZFORMAL_HOCHSTER_CAP" in proc.stderr


def cocktail_party_edges(m):
    """Every pair of {1..m} except {2i-1, 2i}: 2^(m/2) maximal cliques."""
    pairs = [[u, v] for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    return [[u, v] for u, v in pairs if not (u % 2 and v == u + 1)]


@pytest.mark.parametrize("case", ["many-faces", "cocktail-flag", "cocktail-report"])
def test_a_listing_over_the_hochster_cap_is_refused_in_one_line(files, case):
    # each input lists far more than 2^20 faces or cliques if nothing stops
    # it, which the child's address-space cap turns into a MemoryError
    _, write = files
    if case == "many-faces":
        rng = random.Random(60)
        facets = [rng.sample(range(1, 61), 20) for _ in range(40)]
        k = write("k.json", {"m": 60, "facets": facets})
        argv = ["check", k, "--method", "flag", "--I", "1"]
    elif case == "cocktail-flag":
        k = write("k.json", {"m": 60, "facets": cocktail_party_edges(60)})
        argv = ["check", k, "--method", "flag", "--I", "1"]
    else:
        graph = write("g.json", {"m": 40, "edges": cocktail_party_edges(40)})
        a = write("a.json", {"m": 40, "generators": ["1" + "0" * 39]})
        argv = ["report", graph, a]
    proc = run_with_capped_memory(argv)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    if case == "cocktail-flag":
        assert "requires flag complex" in proc.stderr
    else:
        assert "RZFORMAL_HOCHSTER_CAP" in proc.stderr


def malformed_cap_cases():
    """(command, variable) for every command and cap variable, by test id."""
    cases = {}
    for command in ("check", "betti", "hull", "report", "census", "verify"):
        for name, (variable, _, _) in CAPS.items():
            cases[f"{command}-{name.split()[-1]}"] = (command, variable)
    # the ids these two had when each was tested with one variable
    cases["check"] = cases.pop("check-hochster")
    cases["verify"] = cases.pop("verify-flag")
    return cases


MALFORMED_CAPS = malformed_cap_cases()


@pytest.mark.parametrize("value", ["abc", "-1", "2.5", ""])
@pytest.mark.parametrize("case", MALFORMED_CAPS)
def test_a_malformed_cap_variable_is_named_in_one_line(
    files, capsys, monkeypatch, case, value
):
    tmp, write = files
    command, variable = MALFORMED_CAPS[case]
    census_file = tmp / "c.jsonl"
    c4 = write("c4.json", C4)
    graph = write("g.json", {"m": 4, "edges": C4["facets"]})
    subgroup = write("a.json", {"m": 4, "generators": ["1000"]})
    argv = {
        "check": ["check", c4, "--I", "1"],
        "betti": ["betti", c4],
        "hull": ["hull", subgroup],
        "report": ["report", graph, subgroup],
        "census": ["census", "--max-vertices", "2", "--out", str(census_file)],
        "verify": ["verify", str(census_file)],
    }[command]
    if command == "verify":
        assert run(["census", "--max-vertices", "2", "--out", str(census_file)]) == 0
        capsys.readouterr()
    monkeypatch.setenv(variable, value)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{variable} must be a non-negative integer" in captured.err
    assert census_file.exists() == (command == "verify")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("existing", [True, False], ids=["over-a-census", "no-file"])
def test_a_census_refused_in_its_workers_exits_3_and_leaves_out_alone(
    files, capsys, monkeypatch, jobs, existing
):
    # all-complexes m=3 lists no face before its workers run, so the lowered
    # cap refuses the first record inside a worker; the InputError crosses
    # the pool as itself
    tmp, _ = files
    out = tmp / "c.jsonl"
    argv = ["census", "--mode", "all-complexes", "--max-vertices", "3",
            "--jobs", jobs, "--out", str(out)]
    if existing:
        assert run(argv) == 0
        capsys.readouterr()
    before = out.read_bytes() if existing else None
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool for --jobs 2 on one CPU too
    monkeypatch.setenv("RZFORMAL_HOCHSTER_CAP", "2")
    assert run(argv) == 3
    assert tuple(capsys.readouterr()) == (
        "",
        "error: loop over vertex subsets on 3 vertices exceeds the cap 2"
        " (RZFORMAL_HOCHSTER_CAP)\n",
    )
    assert os.listdir(tmp) == (["c.jsonl"] if existing else [])
    if existing:
        assert out.read_bytes() == before


def test_a_value_error_from_a_decider_escapes_run(files, monkeypatch):
    # only InputError is bad input: a plain ValueError is a fault, not exit 3
    _, write = files
    c4 = write("c4.json", C4)

    def fault(k, i_mask):
        raise ValueError("planted fault")

    monkeypatch.setitem(cli.METHODS, "general", fault)
    with pytest.raises(ValueError, match="planted fault"):
        run(["check", c4, "--I", "1"])


FAULTY_MAIN = """\
import runpy
from rzformal import cli

def fault(k, i_mask):
    raise ValueError("planted fault")

cli.METHODS["general"] = fault
runpy.run_module("rzformal", run_name="__main__")
"""


def test_a_fault_exits_4_with_its_traceback(files):
    _, write = files
    c4 = write("c4.json", C4)
    env = dict(os.environ, PYTHONPATH=str(Path(rzformal.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", FAULTY_MAIN, "check", c4, "--I", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.splitlines()[-1] == "ValueError: planted fault"


def _k4_cliques_under_cap_2():
    edges = [[u, v] for u in range(1, 5) for v in range(u + 1, 5)]
    return Graph(4, edges).clique_complex()


def _read(tmp, data):
    path = tmp / "in.json"
    path.write_bytes(data)
    return cli._load_json(str(path))


TRIANGLE = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])

# id: (environment, call(tmp)) for each refusal of outside input that a
# command reaches
REFUSALS = {
    "label_mask": ({}, lambda tmp: simplicial.label_mask([True], 3, "I")),
    "json_m": ({}, lambda tmp: simplicial.json_m({"m": -1, "facets": []}, "facets", "K")),
    "int_lists": ({}, lambda tmp: simplicial._int_lists({"f": [1]}, "f", "K")),
    "cap-not-digits": (
        {"RZFORMAL_HOCHSTER_CAP": "abc"}, lambda tmp: simplicial._cap_from_env("hochster")
    ),
    "cap-past-int-digits": (
        {"RZFORMAL_HOCHSTER_CAP": "9" * 5000},
        lambda tmp: simplicial._cap_from_env("hochster"),
    ),
    "check_cap": ({}, lambda tmp: simplicial.check_cap("cubical", 9)),
    "over-listing-cap": ({"RZFORMAL_HOCHSTER_CAP": "2"}, lambda tmp: _k4_cliques_under_cap_2()),
    "graph-edge-of-three": (
        {}, lambda tmp: Graph.from_json_obj({"m": 3, "edges": [[1, 2, 3]]})
    ),
    "graph-loop": ({}, lambda tmp: Graph.from_json_obj({"m": 3, "edges": [[2, 2]]})),
    "complex-reader": (
        {}, lambda tmp: SimplicialComplex.from_json_obj({"m": 3, "facets": [[1, 4]]})
    ),
    "subgroup-reader": (
        {}, lambda tmp: Subgroup.from_json_obj({"m": 3, "generators": ["10"]})
    ),
    "vector_from_string": ({}, lambda tmp: vector_from_string("012")),
    "check_input": (
        {}, lambda tmp: formality.general_criterion(SimplicialComplex.from_facets(3, [[1, 2]]), 0)
    ),
    "flag-of-non-flag": ({}, lambda tmp: formality.flag_criterion(TRIANGLE, 1)),
    "decide-m": ({}, lambda tmp: formality.decide(TRIANGLE, Subgroup(4, []))),
    "report-m": ({}, lambda tmp: coabelian_report(Graph(3, []), Subgroup(4, []))),
    "census-mode": ({}, lambda tmp: census.census_tasks(2, "all")),
    "census-jobs": ({}, lambda tmp: census.run_census(2, "flag", tmp / "x.jsonl", jobs=0)),
    "census-m": ({}, lambda tmp: census.run_census(0, "flag", tmp / "x.jsonl")),
    "census-cap": ({}, lambda tmp: census.census_tasks(9, "flag")),
    "parse_vertex_list": ({}, lambda tmp: cli._parse_vertex_list("1,zebra")),
    "load-not-json": ({}, lambda tmp: _read(tmp, b"{not json")),
    "load-not-utf8": ({}, lambda tmp: _read(tmp, b'{"m": 1, "facets": [[1]]}\xff')),
    "load-nested": ({}, lambda tmp: _read(tmp, b"[" * 200_000)),
    "census-line": ({}, lambda tmp: census.read_line(b'{"m": 2, "facets": [[1]]}', 5)),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_every_refusal_of_outside_input_is_an_input_error(tmp_path, monkeypatch, case):
    env, call = REFUSALS[case]
    for variable, value in env.items():
        monkeypatch.setenv(variable, value)
    with pytest.raises(InputError):
        call(tmp_path)


# refusals that no command reaches: library misuse, so plain ValueErrors
MISUSES = {
    "link-of-a-non-face": lambda: SimplicialComplex.from_facets(2, [[1], [2]]).link(0b11),
    "json-of-gapped-labels": lambda: SimplicialComplex(0b101, [0b101]).json_facets(),
    "vector_to_string": lambda: vector_to_string(8, 3),
    "poincare-series-r": lambda: poincare_series(TRIANGLE, -1),
    "cubical-closure": lambda: CubicalComplex(0b11, (0b11,)).betti(),
}


@pytest.mark.parametrize("case", MISUSES)
def test_a_refusal_no_command_reaches_stays_a_plain_value_error(case):
    with pytest.raises(ValueError) as exc:
        MISUSES[case]()
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("kind", ["nonflag", "cone"])
def test_a_single_check_computes_no_shape(files, capsys, monkeypatch, kind):
    # the memo shapes a raw key only when a second key of its m and kind
    # comes, and K and its links differ in m: a cold m = 12 check of a
    # random non-flag complex, or of a cone with I = {apex}, computes no
    # shape at all. Each complex is every vertex, then triangles covering
    # them, then random triangles
    from rzformal import cohomology

    m = 12
    rng = random.Random(f"one check:{kind}")

    def triangles(n_vertices, n):
        perm = rng.sample(range(1, n_vertices + 1), n_vertices)
        perm += perm[: -n_vertices % 3]
        cover = [perm[i:i + 3] for i in range(0, len(perm), 3)]
        extra = [rng.sample(range(1, n_vertices + 1), 3) for _ in range(n - len(cover))]
        return [[v] for v in range(1, n_vertices + 1)] + [sorted(t) for t in cover + extra]

    if kind == "cone":
        facets, i_vertex = [f + [m] for f in triangles(m - 1, 10)], m
    else:
        facets = triangles(m, 14)
        while SimplicialComplex.from_facets(m, facets).is_flag():
            facets = triangles(m, 14)
        i_vertex = rng.randint(1, m)
    _, write = files
    path = write("k.json", {"m": m, "facets": facets})
    shaped = []
    shape = cohomology.shape
    monkeypatch.setattr(cohomology, "shape", lambda masks, keep: shaped.append(masks) or shape(masks, keep))
    cohomology.clear_caches()
    rc = run(["check", path, "--I", str(i_vertex), "--method", "all"])
    reports = json.loads(capsys.readouterr().out)
    assert rc == 0 if kind == "cone" else rc in (0, 1)
    assert len({r["verdict"] for r in reports}) == 1
    assert shaped == []
