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
from pathlib import Path

import pytest

import rzformal
from oracles import subdivided_model
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
        summary = run_census(5, "flag", tmp_path / "flag5.jsonl", jobs=4)
        assert summary["records"] == 32768
        assert summary["disagreements"] == 0

    _report(1, "extended flag census m=5", body)


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
    """Digest of a file read in chunks: a 55 MB census held whole would
    raise this process's peak RSS, which the memory tests' children
    inherit through ru_maxrss."""
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
                assert list(subdivided_model(k).betti().dims) == want
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
                c = subdivided_model(k)
                for i_mask in k.faces():
                    cube = c.fixed_subcomplex(i_mask).betti()
                    link = fixed_betti_via_link(k, i_mask)
                    assert list(cube.dims) == list(link.dims), (k, i_mask)
        # a subgroup fixes exactly what its coordinate hull fixes
        rng = random.Random(90125)
        pool = _random_complexes(60, (2, 3, 4, 5), seed=1055)
        checked = 0
        while checked < 500:
            k = rng.choice(pool)
            c = subdivided_model(k)
            gens = [rng.getrandbits(k.m) for _ in range(rng.randint(0, 3))]
            a = Subgroup(k.m, gens)
            fixed = c.cell_set()
            for g in gens:
                fixed &= c.fixed_subcomplex(g).cell_set()
            assert fixed == c.fixed_subcomplex(a.hull_mask).cell_set(), (k, gens)
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
        c4 = Graph.cycle(4).clique_complex()
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
        r = coabelian_report(Graph.complete(3), Subgroup.full(3))
        assert r.verdict == "formal"
        assert r.poincare.numerator == (1,)
        assert r.poincare.r == 3
        assert r.cm_dimension == 3

        r = coabelian_report(Graph.cycle(4), Subgroup(4, ["1000"]))
        assert r.verdict == "formal"
        assert r.poincare.numerator == (1, 2, 1)
        assert r.poincare.r == 1
        assert r.cm_dimension == 1

        r = coabelian_report(Graph.empty(2), Subgroup(2, ["11"]))
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


# Run one CLI command and report the peak RSS of its process on stderr
# (ru_maxrss is in KiB on Linux).
_PEAK_RSS = (
    "import resource, sys\n"
    "from rzformal.cli import run\n"
    "rc = run(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


@pytest.mark.skipif(
    os.environ.get("RZFORMAL_EXTENDED") != "1",
    reason="formal checks at m=18 and 20; set RZFORMAL_EXTENDED=1 to run",
)
@pytest.mark.parametrize("m", [18, 20])
def test_criterion_10_formal_cone_check_peaks_under_100_mb(tmp_path, m):
    def body():
        # a cone with apex m over random triangles that cover 1..m-1, as
        # the benchmark's check inputs are built; I = {apex} is formal, so
        # no witness stops the loops over all 2^m subsets J
        rng = random.Random(f"big:{m}:cone")
        perm = rng.sample(range(1, m), m - 1)
        perm += perm[:1]
        triangles = [sorted(perm[i : i + 3]) for i in range(0, m, 3)]
        facets = [[v, m] for v in range(1, m)] + [t + [m] for t in triangles]
        path = tmp_path / f"cone{m}.json"
        path.write_text(json.dumps({"m": m, "facets": facets}))
        env = dict(os.environ, PYTHONPATH=str(Path(rzformal.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "check", str(path), "--I", str(m),
             "--method", "all"],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stderr.split()[-1]) / 1024
        assert peak_mb <= 100, f"peak RSS {peak_mb:.1f} MB"

    _report(10, f"formal check at m={m} under 100 MB", body)
