"""Self-test of the benchmark at small size; takes well under a minute.

    python3 bench/selftest.py

Runs every workload with ``--size small`` (census flag m=3, verify on m=3
files, check at m=6), untraced and traced, and checks the result line
against BENCHMARK.json. Then feeds each correctness gate a wrong output and
checks that it fails, checks that a tracing hook whose target is gone is
reported rather than fatal, and checks that the benchmark exits non-zero,
printing no result, when the package source is absent.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(args: list[str], cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result_line(workload: str, trace: int) -> None:
    proc = bench(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--size", "small"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        saved = json.loads(
            (run.OUT_DIR / f"BENCH_{workload}_small_seed3_trace1.json").read_text()
        )
        t = saved["trace_sum"]
        assert abs(t["self_s"] + t["untraced_s"] - t["wall_s"]) < 1e-6, t
        assert (run.OUT_DIR / f"trace_{workload}_small.spans").stat().st_size > 0
    else:
        assert result["metrics"]["setup_s"]["value"] > 0
    print(f"ok  {workload} trace={trace}: {result['attempted']} operations")


def check_gates() -> None:
    """Every gate must fail a wrong output."""
    rz = run.load_program()
    work = run.OUT_DIR / "work" / "selftest"

    census = workloads.setup("census-flag-m5", rz, work, 3, "small").commands[0]
    (work / "census.jsonl").write_text("{}\n")
    failed, problems = census.judge(0, "census disagreements=0 out=x", "")
    assert failed == census.ops and problems

    verify = workloads.setup("verify-mixed", rz, work, 3, "small").commands[0]
    failed, problems = verify.judge(2, f"verify records={verify.ops} ", "")
    assert failed == 2 and problems  # both planted lines unreported
    failed, problems = verify.judge(0, "", "")
    assert failed == verify.ops and problems

    check = workloads.setup("check-large", rz, work, 3, "small").commands
    cone = next(c for c in check if "cone" in c.argv[1])
    assert cone.judge(1, "[]", "")[0] == 1  # a cone must be formal
    assert check[0].judge(2, "[]", "")[0] == 1  # disagreement
    reports = '[{"verdict": "formal"}, {"verdict": "not_formal"}]'
    assert check[0].judge(0, reports, "")[0] == 1
    print("ok  correctness gates reject wrong outputs")


def check_missing_hook() -> None:
    """A hook whose target is gone is reported, and the others still install."""
    run.load_program()
    tracing.SPAN_HOOKS.append(("rzformal.cohomology", "no_such_function", "gone"))
    try:
        tracer = tracing.Tracer()
        tracer.install()
    finally:
        tracing.SPAN_HOOKS.pop()
    assert tracer.missing == ["rzformal.cohomology.no_such_function"], tracer.missing
    print("ok  a missing hook target is reported, not fatal")


def check_without_source() -> None:
    bare = run.OUT_DIR / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = bench(["--workload", "check-large", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok  exits non-zero without the package source")


def main() -> int:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_result_line(workload, trace)
    check_gates()
    check_missing_hook()
    check_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
