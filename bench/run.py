"""rzformal benchmark: end-to-end metrics per workload, per-layer with --trace 1.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs building):

    python3 bench/run.py --workload census-flag-m5 --seed 1 --seconds 20 --trace 0

Each run is one interpreter and one thread. The timed phase runs the
workload's command list through ``rzformal.cli.run``, with the cohomology
cache cleared before each command, and repeats the whole list at least the
workload's ``min_passes`` times and until ``--seconds`` of passes have
passed. Every command's output is checked; see ``workloads.py``. Set-up (a
fresh import of the package plus writing the workload's inputs) runs in
``SETUP_BATCHES`` batches: one before the timed phase and one after each of
its first passes.

Every time in the untraced run is taken by ``clock.measure``: the wall time
scaled to the host's reference speed, measured by a fixed probe run next to
the program (see ``clock.py``). The host's speed drifts by up to 2x over
minutes; the scaled times do not. Raw wall times go to the result file.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json:

* ``ops_per_s``: operations per second over the list, from each command's
  median scaled time over the passes (an operation is a census record, or
  one check command);
* ``cmd_p50_ms``: median over the list of each command's median scaled time;
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``setup_s``: the median scaled time of all set-ups in the run.

``--trace 1`` runs the traced prefix of the command list once without hooks
and once with them (see ``tracing.py``), times the F2 kernel on the active
backend, and reports the ``per_layer`` metrics as totals over the traced
commands. End-to-end numbers never come from a traced run.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people. A result
file with the run's metadata goes to ``bench/out/``. ``--size small`` runs
m = 3 censuses and m = 6 checks, for a quick self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import clock
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# a set-up batch: at least 2 repeats, more while under 0.5 s, at most 20
SETUP_BATCH = (2, 0.5, 20)
SETUP_BATCHES = 3  # one before the timed phase, one after each of the first passes
KERNEL_SIZES = [(60, 64), (200, 256), (400, 512), (800, 1024)]
KERNEL_REPEATS = 5


class ProgramMissing(Exception):
    pass


def load_program():
    """Import the package from ``src/`` afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "rzformal" or n.startswith("rzformal.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        modules = {"pkg": importlib.import_module("rzformal")}
        for name in ("cli", "census", "cohomology", "simplicial", "f2"):
            modules[name] = importlib.import_module(f"rzformal.{name}")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import rzformal from {src}: {exc}") from exc
    if Path(modules["pkg"].__file__).resolve().parent != src / "rzformal":
        raise ProgramMissing(f"rzformal was imported from {modules['pkg'].__file__}, not {src}")
    return types.SimpleNamespace(**modules)


def run_command(rz, cmd, scaled: bool = False) -> dict:
    """Run one CLI command cold and judge its output.

    With ``scaled``, the command is timed by ``clock.measure`` and ``scaled``
    in the result holds its time at the reference host speed.
    """
    clear = getattr(rz.cohomology, "clear_caches", None)
    if clear is not None:
        clear()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    problems: list[str] = []

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return rz.cli.run(cmd.argv)
            except SystemExit as exc:
                return exc.code
            except Exception as exc:  # the command's failure is a measured outcome
                problems.append(f"{cmd.argv[0]} raised {type(exc).__name__}: {exc}")
                return None

    if scaled:
        rc, timing = clock.measure(call)
        wall, scaled_s = timing.wall, timing.scaled
    else:
        t0 = time.perf_counter()
        rc = call()
        wall, scaled_s = time.perf_counter() - t0, None
    if rc is None:
        failed = cmd.ops
    else:
        try:
            failed, more = cmd.judge(rc, out.getvalue(), err.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            failed, more = cmd.ops, [f"unreadable output of {cmd.argv[0]}: {exc}"]
        problems += more
    return {"wall": wall, "scaled": scaled_s, "ops": cmd.ops, "failed": failed,
            "problems": problems}


def run_list(rz, commands, scaled: bool = False) -> list[dict]:
    return [run_command(rz, cmd, scaled) for cmd in commands]


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"n={n}: no percentile has ten samples beyond it"
    k = n - 10  # the k-th smallest sample has n - k = 10 beyond it
    value = sorted(samples)[k - 1]
    return f"n={n}: p{100 * k // n} = {value * 1e3:.1f} ms"


def setup_batch(args):
    """Repeat the set-up (``SETUP_BATCH``); return the last program and workload
    and each set-up's time at the reference host speed (``clock.measure``)."""
    min_repeats, min_seconds, max_repeats = SETUP_BATCH

    def set_up():
        rz = load_program()
        work = workloads.setup(
            args.workload, rz, OUT_DIR / "work" / args.workload, args.seed, args.size
        )
        return rz, work

    times: list[float] = []
    while len(times) < min_repeats or (
        sum(times) < min_seconds and len(times) < max_repeats
    ):
        (rz, work), timing = clock.measure(set_up)
        times.append(timing.scaled)
    return rz, work, times


def untraced(rz, work, args, batches) -> tuple[dict, list[dict], list[str], dict]:
    # Times are at the reference host speed (see clock.py); each command's
    # time is its median over the passes. Set-up batches are spread over the
    # run, and setup_s is the median over all of them.
    passes = []
    timed = 0.0
    while len(passes) < work.min_passes or timed < args.seconds:
        t0 = time.perf_counter()
        passes.append(run_list(rz, work.commands, scaled=True))
        timed += time.perf_counter() - t0
        if len(passes) <= SETUP_BATCHES - 1:
            rz, work, times = setup_batch(args)
            batches.append(times)
    per_cmd = [
        statistics.median(p[i]["scaled"] for p in passes)
        for i in range(len(work.commands))
    ]
    setups = [t for b in batches for t in b]
    metrics = {
        "ops_per_s": sum(c.ops for c in work.commands) / sum(per_cmd),
        "cmd_p50_ms": statistics.median(per_cmd) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    walls = [r["wall"] for p in passes for r in p]
    scaled = [r["scaled"] for p in passes for r in p]
    notes = [
        f"median of {len(passes)} passes per command, {len(per_cmd)} commands; "
        f"host speed over the run {sum(scaled) / sum(walls):.3f} of reference",
        f"cmd_p50_ms: median of {len(per_cmd)} commands; {tail_percentile(per_cmd)}",
        f"setup_s: median of {len(setups)} set-ups in {len(batches)} batches",
    ]
    return metrics, [r for p in passes for r in p], notes, {}


def f2_kernel_timings(rz, seed: int) -> dict:
    """Best-of-N wall time of each kernel routine on seeded random matrices."""
    rng = random.Random(f"f2-kernel:{seed}")
    out = {}
    for nrows, ncols in KERNEL_SIZES:
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        vecs = [rng.getrandbits(ncols) for _ in range(nrows)]
        ech, pivots = rz.f2.rref(rows, ncols)
        cases = {
            "rank": (rows, ncols),
            "rref": (rows, ncols),
            "kernel_basis": (rows, ncols),
            "reduce_batch": (vecs, ech, pivots),
        }
        for op, call_args in cases.items():
            fn = getattr(rz.f2, op)
            best = float("inf")
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                fn(*call_args)
                best = min(best, time.perf_counter() - t0)
            out[f"f2.kernel.{op}.{nrows}x{ncols}_ms"] = best * 1e3
    return out


def traced(rz, work, seed, name) -> tuple[dict, list[dict], list[str], dict]:
    commands = work.commands[: work.traced_commands]
    plain = run_list(rz, commands)
    kernel = f2_kernel_timings(rz, seed)
    tracer = tracing.Tracer()
    tracer.install()
    traced_results = []
    for n, cmd in enumerate(commands):
        tracer.op = n
        traced_results.append(run_command(rz, cmd))
    hom_cache = getattr(rz.cohomology, "_hom_cache", None)
    cache_entries = len(hom_cache) if hom_cache is not None else 0
    if hom_cache is None:
        tracer.missing.append("rzformal.cohomology._hom_cache")
    tracer.write(OUT_DIR / f"trace_{name}")  # the latest traced run of each workload

    wall = sum(r["wall"] for r in traced_results)
    plain_wall = sum(r["wall"] for r in plain)
    ops = sum(r["ops"] for r in traced_results)
    untraced_s = wall - tracer.root_ns / 1e9
    t = tracer
    hom_calls = t.calls_of("cohomology.hom_data")
    builds = t.calls_of("cohomology.build")
    is_flag_calls = t.calls_of("simplicial.is_flag")
    metrics = {
        "moment_angle.cubical_build.self_s": t.self_s("moment_angle.cubical_build"),
        "moment_angle.cubical_build.cells": t.cubical_cells,
        "moment_angle.fixed_subcomplex.self_s": t.self_s("moment_angle.fixed_subcomplex"),
        "moment_angle.fixed_subcomplex.cells": t.fixed_cells,
        "moment_angle.cubical_betti.self_s": t.self_s("moment_angle.cubical_betti"),
        "moment_angle.cubical_boundary.calls": t.counters.get("moment_angle.cubical_boundary", 0),
        "cohomology.hom_data.calls": hom_calls,
        "cohomology.hom_data.builds": builds,
        "cohomology.hom_data.hit_ratio": 1 - builds / hom_calls if hom_calls else 0.0,
        "cohomology.hom_data.self_s": t.self_s("cohomology.hom_data"),
        "cohomology.build.self_s": t.self_s("cohomology.build"),
        # entries after the last traced command (the cache is cleared before each)
        "cohomology.cache_entries": cache_entries,
        "simplicial.is_flag.calls": is_flag_calls,
        "simplicial.is_flag.per_complex": (
            is_flag_calls / len(t.flag_complexes) if t.flag_complexes else 0.0
        ),
        "simplicial.is_flag.self_s": t.self_s("simplicial.is_flag"),
        "simplicial.subfaces.calls": t.calls_of("simplicial.subfaces"),
        "simplicial.subfaces.self_s": t.self_s("simplicial.subfaces"),
        "simplicial.has_face.calls": t.counters.get("simplicial.has_face", 0),
        "f2.calls": t.f2_outer_calls,
        "f2.self_s": t.self_s("f2"),
        "f2.rows_in": t.f2_rows_in,
        "f2.bits_in": t.f2_bits_in,
        "f2.bits_per_op": t.f2_bits_in / ops,
        "moment_angle.hochster.calls": t.calls_of("moment_angle.hochster"),
        "moment_angle.hochster.self_s": t.self_s("moment_angle.hochster"),
        "formality.general.j_checked": t.j_checked,
        "formality.restriction.self_s": t.self_s("formality.restriction"),
        "formality.flag_criterion.self_s": t.self_s("formality.flag_criterion"),
        "formality.general_criterion.self_s": t.self_s("formality.general_criterion"),
        "formality.betti_sum_oracle.self_s": t.self_s("formality.betti_sum_oracle"),
        "formality.torus_oracle.self_s": t.self_s("formality.torus_oracle"),
        "census.enumerate_s": t.self_s("census.enumerate"),
        "census.record.self_s": t.self_s("census.record"),
        "census.json_s": t.self_s("census.json"),
        "census.verify.self_s": t.self_s("census.verify"),
        "cli.self_s": t.self_s("cli"),
        "trace.overhead_ratio": wall / plain_wall,
        "trace.wall_s": wall,
        "trace.untraced_s": untraced_s,
        **kernel,
    }
    notes = [
        f"traced commands: {len(commands)} ({ops} operations), "
        f"{len(t.span_start)} spans, plain wall {plain_wall:.3f} s",
        f"self times {t.total_self_s:.6f} s + untraced {untraced_s:.6f} s "
        f"= {t.total_self_s + untraced_s:.6f} s; traced wall {wall:.6f} s",
        f"missing hooks: {t.missing or 'none'}; hook errors: {sorted(t.hook_errors) or 'none'}",
    ]
    trace_sum = {"self_s": t.total_self_s, "untraced_s": untraced_s, "wall_s": wall}
    return metrics, plain + traced_results, notes, {"trace_sum": trace_sum}


def metadata(rz, args, batches) -> dict:
    sources = sorted((ROOT / "src" / "rzformal").glob("*.py*"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "backend": getattr(rz.pkg, "BACKEND", "unknown"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "setup_repeats": sum(len(b) for b in batches),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    try:
        rz, work, times = setup_batch(args)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    batches = [times]

    tag = f"{args.workload}_{args.size}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        metrics, results, notes, extra = traced(
            rz, work, args.seed, f"{args.workload}_{args.size}"
        )
    else:
        metrics, results, notes, extra = untraced(rz, work, args, batches)

    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"]]
    reported = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section
    }
    meta = metadata(rz, args, batches)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"BENCH_{tag}.json").write_text(json.dumps({
        "meta": meta,
        "metrics": reported,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": notes,
        "command_walls_s": [r["wall"] for r in results],
        "command_scaled_s": [r["scaled"] for r in results],
        "setup_s_samples": batches,
        **extra,
    }, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for line in notes + problems:
        print(line)
    for name, m in reported.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
