"""Random and mutated JSON inputs to every file-reading command, through run(argv).

Each example writes well-formed, mutated (one field replaced) or random
JSON files and runs one command on them in process. No exception may
escape, the exit code is 0-3 (``check`` never exits 2, which would mean
a bug), exit 3 comes with one ``error:`` line and a verdict or table on
exit 0 or 1 is JSON. The Hochster cap is lowered so that a mutated
``"m"`` with ghost vertices cannot start a long loop.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rzformal import SimplicialComplex
from rzformal.census import compute_record
from rzformal.cli import run

METHODS = ["flag", "general", "oracle", "torus", "all"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def complexes(draw, closed=None):
    m = draw(st.integers(0 if closed is None else 1, 5))
    if m == 0:  # the void complex or {}
        return {"m": 0, "facets": draw(st.sampled_from([[], [[]]]))}
    face = st.lists(st.integers(1, m), min_size=1, max_size=3, unique=True)
    facets = draw(st.lists(face, min_size=1, max_size=5))
    if draw(st.booleans()) if closed is None else closed:
        # every vertex a face, as the deciders and a census need
        facets += [[v] for v in range(1, m + 1)]
    return {"m": m, "facets": facets}


@st.composite
def graphs(draw):
    m = draw(st.integers(1, 5))
    pairs = [[u, v] for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    return {"m": m, "edges": edges}


@st.composite
def subgroups(draw, m=None):
    m = draw(st.integers(1, 5)) if m is None else m
    bits = st.text(alphabet="01", min_size=m, max_size=m)
    return {"m": m, "generators": draw(st.lists(bits, max_size=3))}


@st.composite
def census_lines(draw):
    k = SimplicialComplex.from_json_obj(draw(complexes(closed=True)))
    i_mask = draw(st.integers(0, (1 << k.m) - 1))
    return json.loads(compute_record(k, i_mask).json_line())


@st.composite
def inputs(draw, well_formed):
    """A well-formed value, the same with one field replaced, or any JSON."""
    kind = draw(st.sampled_from(["well-formed", "mutated", "random"]))
    if kind == "random":
        return draw(json_values)
    obj = draw(well_formed)
    if kind == "mutated":
        obj[draw(st.sampled_from(sorted(obj) + ["extra"]))] = draw(json_values)
    return obj


@st.composite
def commands(draw):
    """(command name, argv with file placeholders, file texts)."""
    command = draw(st.sampled_from(["check", "betti", "hull", "report", "verify"]))
    if command == "check":
        i_set = draw(st.sampled_from(["", "1", "1,2", "2,3"]))
        method = draw(st.sampled_from(METHODS))
        argv = ["check", "{0}", "--I", i_set, "--method", method]
        values = [draw(inputs(complexes()))]
    elif command == "betti":
        which = draw(st.sampled_from(["real", "complex", "both"]))
        argv, values = ["betti", "{0}", "--which", which], [draw(inputs(complexes()))]
    elif command == "hull":
        argv, values = ["hull", "{0}"], [draw(inputs(subgroups()))]
    elif command == "report":
        graph = draw(inputs(graphs()))
        m = graph.get("m") if isinstance(graph, dict) else None
        m = m if type(m) is int and 1 <= m <= 5 else None
        subgroup = draw(inputs(subgroups(m)))
        argv, values = ["report", "{0}", "{1}"], [graph, subgroup]
    else:
        lines = draw(st.lists(inputs(census_lines()), min_size=1, max_size=2))
        text = "\n".join(json.dumps(line, separators=(",", ":")) for line in lines)
        return command, ["verify", "{0}"], [text]
    return command, argv, [json.dumps(value) for value in values]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(commands())
@example(("check", ["check", "{0}", "--I", "", "--method", "all"], ['{"m": 0, "facets": []}']))
def test_no_json_input_escapes_the_exit_codes(workdir, case):
    command, argv, texts = case
    paths = []
    for n, text in enumerate(texts):
        path = workdir / f"input{n}.json"
        path.write_text(text)
        paths.append(str(path))
    argv = [arg.format(*paths) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict("os.environ", {"RZFORMAL_HOCHSTER_CAP": "8"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in ((0, 1, 3) if command == "check" else (0, 1, 2, 3)), (argv, texts)
    if code == 3:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (texts, lines)
    if command != "verify" and code in (0, 1):
        json.loads(out.getvalue())
