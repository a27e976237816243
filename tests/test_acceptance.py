"""Acceptance suite.

Each test covers one acceptance criterion and prints one
"ACCEPTANCE n (label): PASS|FAIL" line (visible under pytest -s, and
in the captured output on failure). The census criteria treat any
disagreement between independent methods as a hard failure; nothing
here resolves a disagreement automatically.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import rzformal
from oracles import cells_at_zero, cube_betti, cube_cells, decode_cells
from shapes import complete_graph, cycle_graph, empty_graph
from test_group_report import h1_against_the_verdicts
from rzformal import (
    Graph,
    SimplicialComplex,
    Subgroup,
    betti_sum_oracle,
    build_cubical,
    coabelian_report,
    fixed_betti_via_link,
    hochster_complex_betti,
    hochster_real_betti,
    run_census,
)
from rzformal.census import all_complexes, compute_record, flag_complexes, verify_census
from rzformal.cli import run as cli_run
from rzformal.simplicial import submasks


def _report(n, label, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {n} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {n} ({label}): PASS")


def _random_complexes(count, sizes, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.choice(sizes)
        facets = [[v] for v in range(1, m + 1)]
        for _ in range(rng.randint(1, 2 * m)):
            size = rng.randint(2, min(m, 4))
            facets.append(rng.sample(range(1, m + 1), size))
        out.append(SimplicialComplex.from_facets(m, facets))
    return out


def test_criterion_1_flag_census_agrees():
    def body():
        records = 0
        for m in (1, 2, 3, 4):
            for k in flag_complexes(m):
                for i_mask in submasks(k.vertices_mask):
                    rec = compute_record(k, i_mask)
                    obj = json.loads(rec.json_line())
                    assert obj["verdict_flag"] is not None
                    assert (
                        obj["verdict_flag"]
                        == obj["verdict_general"]
                        == obj["verdict_oracle"]
                        == obj["verdict_torus"]
                    ), obj
                    assert obj["agree"] is True
                    records += 1
        assert records == 2 + 8 + 64 + 1024

    _report(1, "flag census m<=4, four methods", body)


@pytest.mark.skipif(
    os.environ.get("RZFORMAL_EXTENDED") != "1",
    reason="extended flag census; set RZFORMAL_EXTENDED=1 to run",
)
def test_criterion_1_extended_flag_census_m5(tmp_path):
    def body():
        out = tmp_path / "flag5.jsonl"
        summary = run_census(5, "flag", out, jobs=4)
        assert summary["records"] == 32768
        assert summary["disagreements"] == 0
        # written by four workers, so this pins the parallel bytes too
        assert _sha256(out) == "1238aa7f6632cae7fc350165c480d473ed6db88b50d66bbaa709d98821fec25c"

    _report(1, "extended flag census m=5, pinned", body)


def test_criterion_2_all_complexes_census_agrees():
    def body():
        records = 0
        for m in (1, 2, 3, 4):
            for k in all_complexes(m):
                for i_mask in submasks(k.vertices_mask):
                    obj = json.loads(compute_record(k, i_mask).json_line())
                    assert (
                        obj["verdict_general"]
                        == obj["verdict_oracle"]
                        == obj["verdict_torus"]
                    ), obj
                    assert obj["agree"] is True
                    records += 1
        assert records == 2 + 8 + 72 + 1824

    _report(2, "all-complexes census m<=4, three methods", body)


def _sha256(path):
    """Digest of a file read in chunks, so that a 55 MB census is never
    held whole."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@pytest.mark.skipif(
    os.environ.get("RZFORMAL_EXTENDED") != "1",
    reason="extended all-complexes census; set RZFORMAL_EXTENDED=1 to run",
)
def test_criterion_2_extended_all_complexes_census_m5(tmp_path):
    def body():
        serial = tmp_path / "all5.jsonl"
        summary = run_census(5, "all-complexes", serial)
        assert summary["complexes"] == 6894
        assert summary["records"] == 220608
        assert summary["disagreements"] == 0
        digest = _sha256(serial)
        assert digest == "653e09a856346a529648ddaf9fb1b57d6a2a8f793098c1939891f457cd082b03"
        parallel = tmp_path / "all5_jobs2.jsonl"
        run_census(5, "all-complexes", parallel, jobs=2)
        assert _sha256(parallel) == digest
        result = verify_census(serial)
        assert result["records"] == 220608
        assert result["mismatches"] == [] and result["corrupt"] == []

    _report(2, "extended all-complexes census m=5, pinned and verified", body)


def test_criterion_3_hochster_equals_cubical():
    def body():
        for m in (1, 2, 3, 4):
            for k in all_complexes(m):
                want = list(hochster_real_betti(k).dims)
                assert list(build_cubical(k).betti().dims) == want
                assert cube_betti(cube_cells(k, k.ambient)) == want
        for k in _random_complexes(100, (5, 6), seed=52281):
            want = list(hochster_real_betti(k).dims)
            assert list(build_cubical(k).betti().dims) == want, k

    _report(3, "combinatorial = cellular Betti numbers", body)


def test_criterion_4_real_total_equals_complex_total():
    def body():
        for m in (1, 2, 3, 4):
            for k in all_complexes(m):
                assert hochster_real_betti(k).total == hochster_complex_betti(k).total
        for k in _random_complexes(100, (5, 6), seed=52281):
            assert hochster_real_betti(k).total == hochster_complex_betti(k).total, k

    _report(4, "real and complex total Betti numbers", body)


def test_criterion_5_fixed_point_lemmas():
    def body():
        # cellular fixed sets match the link description on every face
        for m in (1, 2, 3, 4):
            for k in all_complexes(m):
                for i_mask in k.faces():
                    cube = build_cubical(k).fixed_subcomplex(i_mask).betti()
                    link = fixed_betti_via_link(k, i_mask)
                    assert list(cube.dims) == list(link.dims), (k, i_mask)
        # a subgroup fixes exactly what its coordinate hull fixes
        rng = random.Random(90125)
        pool = _random_complexes(60, (2, 3, 4, 5), seed=1055)
        models = {}
        checked = 0
        while checked < 500:
            k = rng.choice(pool)
            if k not in models:
                models[k] = cube_cells(k, k.ambient)
            fine = models[k]
            gens = [rng.getrandbits(k.m) for _ in range(rng.randint(0, 3))]
            a = Subgroup(k.m, gens)
            fixed = fine
            view = build_cubical(k)
            for g in gens:
                fixed = fixed & cells_at_zero(fine, g)
                view = view.fixed_subcomplex(g)
            assert fixed == cells_at_zero(fine, a.hull_mask), (k, gens)
            hull_cells = cells_at_zero(cube_cells(k, a.hull_mask), a.hull_mask)
            assert decode_cells(view) == hull_cells, (k, gens)
            checked += 1

    _report(5, "fixed sets: cellular = link, subgroup = hull", body)


def test_criterion_6_smith_thom_inequality():
    def body():
        for m in (1, 2, 3, 4):
            for k in all_complexes(m):
                ambient = hochster_real_betti(k).total
                for i_mask in submasks(k.vertices_mask):
                    fixed, amb = betti_sum_oracle(k, i_mask).totals
                    assert amb == ambient
                    assert fixed <= ambient, (k, i_mask)

    _report(6, "fixed total never exceeds ambient total", body)


def test_criterion_7_spot_values():
    def body():
        c4 = cycle_graph(4).clique_complex()
        assert list(hochster_real_betti(c4).dims) == [1, 2, 1]
        assert list(build_cubical(c4).betti().dims) == [1, 2, 1]
        tri = SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
        assert list(hochster_real_betti(tri).dims) == [1, 0, 1]
        pts = SimplicialComplex.from_facets(3, [[1], [2], [3]])
        assert hochster_real_betti(pts).total == 6
        two = SimplicialComplex.from_facets(2, [[1], [2]])
        zt = hochster_complex_betti(two)
        assert [d for d, b in enumerate(zt.dims) if b] == [0, 3]

    _report(7, "spot values", body)


def test_criterion_8_group_reports():
    def body():
        r = coabelian_report(complete_graph(3), Subgroup(3, ["100", "010", "001"]))
        assert r.verdict == "formal"
        assert r.poincare.numerator == (1,)
        assert r.poincare.r == 3
        assert r.cm_dimension == 3

        r = coabelian_report(cycle_graph(4), Subgroup(4, ["1000"]))
        assert r.verdict == "formal"
        assert r.poincare.numerator == (1, 2, 1)
        assert r.poincare.r == 1
        assert r.cm_dimension == 1

        r = coabelian_report(empty_graph(2), Subgroup(2, ["11"]))
        assert r.verdict == "not_formal"
        assert r.cm_dimension is None
        assert r.poincare is None

    _report(8, "group reports", body)


def test_criterion_9_census_determinism_and_verify(tmp_path):
    def body():
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        s1 = run_census(4, "flag", serial, jobs=1)
        s2 = run_census(4, "flag", parallel, jobs=8)
        assert s1["disagreements"] == s2["disagreements"] == 0
        assert serial.read_bytes() == parallel.read_bytes()
        assert len(serial.read_bytes().splitlines()) == 1024
        assert cli_run(["verify", str(serial)]) == 0

    _report(9, "parallel determinism and verify", body)


# Run one CLI command and report the peak RSS of its process on stderr, in
# KiB. On Linux a child started by subprocess inherits its parent's
# ru_maxrss, which would then read pytest's own peak when that is higher;
# VmHWM in /proc/self/status is the child's own. Without that file,
# ru_maxrss is the fallback.
_PEAK_RSS = (
    "import os, resource, sys\n"
    "from rzformal.cli import run\n"
    "rc = run(sys.argv[1:])\n"
    "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "if os.path.exists('/proc/self/status'):\n"
    "    with open('/proc/self/status') as status:\n"
    "        hwm = [line for line in status if line.startswith('VmHWM:')]\n"
    "    peak = int(hwm[0].split()[1])\n"
    "print(peak, file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


def _big_input(m, kind):
    """(facets, command) of a large formal check, or ``betti``, on m vertices.

    A "cone" has apex m over random triangles that cover 1..m-1, as the
    benchmark's check inputs are built, and I = {apex}: the general
    criterion walks no J, and the Hochster sums of K and of lk(apex) share
    one elimination over the subsets of 1..m-1. A "c4join" is C4 * L, the
    4-cycle on 1..4 joined with every vertex of 5..m plus m random
    triangles, and I = {1}: it has no apex, so the criterion walks every J,
    and ranks the deletion of each J that holds 1 and has β̃(K_J) ≠ 0. A
    "band" is the triangles {v, v + 1, v + 2} mod m and two more, for
    ``betti``: no vertex is free, so the Hochster sums span 2^(m - 12)
    lane blocks.
    """
    if kind == "cone":
        rng = random.Random(f"big:{m}:cone")
        perm = rng.sample(range(1, m), m - 1)
        perm += perm[:1]
        triangles = [sorted(perm[i : i + 3]) for i in range(0, m, 3)]
        facets = [[v, m] for v in range(1, m)] + [t + [m] for t in triangles]
        return facets, ["check", "--I", str(m), "--method", "all"]
    if kind == "band":
        band = [sorted([v, v % m + 1, (v + 1) % m + 1]) for v in range(1, m + 1)]
        return band + [[1, 7, 13], [4, 10, 16]], ["betti"]
    rng = random.Random(f"big:{m}:c4join")
    link = [[v] for v in range(5, m + 1)]
    link += [sorted(rng.sample(range(5, m + 1), 3)) for _ in range(m)]
    c4 = [[1, 2], [2, 3], [3, 4], [1, 4]]
    return [e + f for e in c4 for f in link], ["check", "--I", "1", "--method", "general"]


@pytest.mark.skipif(
    os.environ.get("RZFORMAL_EXTENDED") != "1",
    reason="checks and betti at m=16 to 20; set RZFORMAL_EXTENDED=1 to run",
)
@pytest.mark.parametrize(
    "m, kind", [(18, "cone"), (20, "cone"), (16, "c4join"), (18, "c4join"), (20, "band")]
)
def test_criterion_10_formal_check_peaks_under_100_mb(tmp_path, m, kind):
    facets, (command, *options) = _big_input(m, kind)

    def body():
        path = tmp_path / f"{kind}{m}.json"
        path.write_text(json.dumps({"m": m, "facets": facets}))
        env = dict(os.environ, PYTHONPATH=str(Path(rzformal.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, command, str(path), *options],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stderr.split()[-1]) / 1024
        assert peak_mb <= 100, f"peak RSS {peak_mb:.1f} MB"

    _report(10, f"{command} on a {kind} at m={m} under 100 MB", body)


def _sampled_graph_subgroup_pairs(m, count, rng):
    """(graph, A) pairs: random graphs, and A spanned by up to m vectors,
    half of them coordinate vectors, given as the set of its elements."""
    vertex_pairs = list(combinations(range(1, m + 1), 2))
    pairs = []
    for _ in range(count):
        g = Graph(m, [p for p in vertex_pairs if rng.random() < 0.5])
        a = {(0,) * m}
        for _ in range(rng.randint(0, m)):
            if rng.random() < 0.5:
                j = rng.randrange(m)
                v = tuple(int(u == j) for u in range(m))
            else:
                v = tuple(rng.randint(0, 1) for _ in range(m))
            a |= {tuple(x ^ y for x, y in zip(v, w)) for w in a}
        pairs.append((g, a))
    return pairs


@pytest.mark.skipif(
    os.environ.get("RZFORMAL_EXTENDED") != "1",
    reason="group H^1 sample at m=5-6; set RZFORMAL_EXTENDED=1 to run",
)
def test_criterion_11_group_h1_on_a_sample_at_m5_and_m6():
    def body():
        rng = random.Random("group-h1")
        pairs = _sampled_graph_subgroup_pairs(5, 1500, rng)
        pairs += _sampled_graph_subgroup_pairs(6, 500, rng)
        formal, short = h1_against_the_verdicts(pairs)
        print(f"group H^1: {len(pairs)} pairs, {formal} formal, {short} strictly short")

    _report(11, "group H^1 = rank A + beta_1 when formal, m=5-6 sample", body)
