"""The benchmark's workloads: seeded inputs, CLI commands, correctness gates.

``setup`` writes a workload's input files and returns its command list. The
timed phase runs the list through ``rzformal.cli.run``; ``Command.judge``
turns one command's exit code and output into failed operations and
problems. An operation is one census record (``census-flag-m5``,
``verify-mixed``) or one ``check`` command (``check-large``).

The workloads split along Hochster's formula: Betti numbers of RZ_K are sums
over the 2^m full subcomplexes K_J. At small m the per-(K, I) overhead is the
cost, at large m the 2^m loop over J is.

* ``census-flag-m5``: many tiny inputs, each complex shared across its 2^m
  choices of I. The input is the census itself, so the seed does not change
  it; the output must equal the reference file byte for byte.
* ``verify-mixed``: the same deciders, but every record rebuilds its complex
  and nothing is shared across I. A seeded, edge-count-stratified sample of
  flag complexes is mixed with the full all-complexes census and two
  planted bad lines that verify must report, and nothing else.
* ``check-large``: few large inputs, each a cold ``check --method all``. Cones
  with I = {apex} are formal, so the general criterion visits every J;
  random non-flag complexes stop at an early witness, and the Hochster sums
  of the oracles dominate. Inputs are interleaved by class so that the first
  ``len(classes)`` commands, which the traced run uses, hold one of each.
  The largest inputs set the run's peak memory, and it changes with their
  shape and even their vertex labels. So the m=14 classes are the same in
  every run, and peak_rss_mb measures the program, not the luck of the draw.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Per size: census m and the sha256 of its file at the reference commit;
# verify's all-complexes m, flag m and sampled complexes per edge count;
# check's input classes (m, kind, count, triangles per random complex, and
# whether the inputs are drawn from the seed or are the same in every run).
SIZES = {
    "full": {
        "census_m": 5,
        "census_sha256": "1238aa7f6632cae7fc350165c480d473ed6db88b50d66bbaa709d98821fec25c",
        "verify_all_m": 4,
        "verify_flag_m": 5,
        "verify_per_edge_count": 6,
        # A pass of the list takes about 14 s on one core of a 2-vCPU Xeon
        # VM (pure backend), so two passes fit in a run. The median
        # command falls in the middle of the largest class, the m=12
        # cones, so that cmd_p50_ms does not hinge on where two classes
        # meet; a dozen of them keep its spread over seeds under 8%.
        "check_classes": [
            (12, "nonflag", 8, 14, False), (12, "cone", 12, 10, False),
            (13, "nonflag", 3, 14, False), (13, "cone", 2, 12, False),
            (14, "nonflag", 1, 8, True), (14, "cone", 1, 6, True),
        ],
    },
    "small": {
        "census_m": 3,
        "census_sha256": "079d1ace7501fc8cf79fb87ae29eaea29d20cdd9656bba8bd1ecaaffc5211a64",
        "verify_all_m": 3,
        "verify_flag_m": 3,
        "verify_per_edge_count": 1,
        "check_classes": [(6, "nonflag", 2, 6, False), (6, "cone", 2, 6, True)],
    },
}


@dataclass
class Command:
    argv: list[str]
    ops: int
    # (exit code, stdout, stderr) -> (failed operations, problems)
    judge: Callable[[int, str, str], tuple[int, list[str]]]


@dataclass
class Workload:
    commands: list[Command]
    traced_commands: int  # the traced run uses this prefix of ``commands``
    min_passes: int = 2  # fewest passes of ``commands`` in an untraced run


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _census(rz, work: Path, seed: int, size: dict) -> Workload:
    m = size["census_m"]
    out = work / "census.jsonl"
    records = (1 << (m * (m - 1) // 2)) * (1 << m)

    def judge(rc, stdout, stderr):
        problems = []
        if rc != 0:
            problems.append(f"census exit code {rc}: {stdout.strip()} {stderr.strip()}")
        if "disagreements=0 " not in stdout:
            problems.append(f"census summary reports disagreements: {stdout.strip()}")
        digest = sha256_file(out) if out.exists() else "missing"
        if digest != size["census_sha256"]:
            problems.append(f"census file sha256 {digest} differs from the reference")
        # a wrong digest fails the whole command
        return (records if problems else 0), problems

    argv = ["census", "--mode", "flag", "--max-vertices", str(m),
            "--jobs", "1", "--out", str(out)]
    # one long command per pass: three passes give a median that is not an end
    return Workload([Command(argv, records, judge)], traced_commands=1, min_passes=3)


_VERDICT = re.compile(r'"verdict_general":"(formal|not_formal)"')


def _flip_verdict(line: str) -> str:
    word = _VERDICT.search(line).group(1)
    other = "not_formal" if word == "formal" else "formal"
    return _VERDICT.sub(f'"verdict_general":"{other}"', line, count=1)


def _verify(rz, work: Path, seed: int, size: dict) -> Workload:
    rng = random.Random(f"verify-mixed:{seed}")
    all_path = work / "all.jsonl"
    summary = rz.census.run_census(size["verify_all_m"], "all-complexes", str(all_path))
    if summary["disagreements"]:
        raise RuntimeError(f"all-complexes census disagrees: {summary}")
    lines = all_path.read_text().splitlines()

    # flag complexes stratified by edge count, every I for each
    m = size["verify_flag_m"]
    pairs = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1)]
    by_count: dict[int, list[int]] = {}
    for bits in range(1 << len(pairs)):
        by_count.setdefault(bits.bit_count(), []).append(bits)
    chosen = sorted(
        b for group in by_count.values()
        for b in rng.sample(group, min(size["verify_per_edge_count"], len(group)))
    )
    for bits in chosen:
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        k = rz.simplicial.Graph(m, edges).clique_complex()
        for i_mask in range(1 << m):
            lines.append(rz.census.compute_record(k, i_mask).json_line())

    # plant one flipped verdict and one truncated line (1-based line numbers)
    flipped = _flip_verdict(rng.choice(lines))
    flip_at = rng.randrange(len(lines) + 1)
    lines.insert(flip_at, flipped)
    truncated = rng.choice(lines)
    truncated = truncated[: rng.randrange(1, len(truncated) - 1)]
    trunc_at = rng.randrange(len(lines) + 1)
    lines.insert(trunc_at, truncated)
    if trunc_at <= flip_at:
        flip_at += 1
    expect_mismatch, expect_corrupt = {flip_at + 1}, {trunc_at + 1}
    path = work / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    records = len(lines)

    def judge(rc, stdout, stderr):
        problems = []
        got_mismatch = {int(n) for n in re.findall(r"^line (\d+): mismatch", stderr, re.M)}
        got_corrupt = {int(n) for n in re.findall(r"^line (\d+): corrupt", stderr, re.M)}
        wrong = len(got_mismatch ^ expect_mismatch) + len(got_corrupt ^ expect_corrupt)
        if wrong:
            problems.append(
                f"verify reported mismatches {sorted(got_mismatch)} and corrupt "
                f"{sorted(got_corrupt)}; planted {sorted(expect_mismatch)} and "
                f"{sorted(expect_corrupt)}"
            )
        if rc != 2 or f"verify records={records} " not in stdout:
            problems.append(f"verify exit code {rc}, summary {stdout.strip()!r}")
            wrong = records
        return wrong, problems

    return Workload([Command(["verify", str(path)], records, judge)], traced_commands=1)


def _triangles(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Every vertex, then n random triangles, the first ones covering all vertices."""
    perm = rng.sample(range(1, m + 1), m)
    perm += perm[: -m % 3]
    cover = [perm[i:i + 3] for i in range(0, len(perm), 3)]
    extra = [rng.sample(range(1, m + 1), 3) for _ in range(n - len(cover))]
    return [[v] for v in range(1, m + 1)] + [sorted(t) for t in cover + extra]


def _check_input(rz, rng, m: int, kind: str, triangles: int):
    """(facets, I) of one seeded input of the given class."""
    if kind == "cone":
        base = _triangles(rng, m - 1, triangles)
        return [f + [m] for f in base], (m,)
    while True:
        facets = _triangles(rng, m, triangles)
        if not rz.simplicial.SimplicialComplex.from_facets(m, facets).is_flag():
            return facets, (rng.randint(1, m),)


def _check(rz, work: Path, seed: int, size: dict) -> Workload:
    per_class = []
    for m, kind, count, triangles, fixed in size["check_classes"]:
        rng = random.Random(f"check-large:{'fixed' if fixed else seed}:{m}:{kind}")
        per_class.append([(m, kind, _check_input(rz, rng, m, kind, triangles))
                          for _ in range(count)])
    ordered = []
    for r in range(max(len(c) for c in per_class)):
        ordered += [c[r] for c in per_class if r < len(c)]

    commands = []
    for n, (m, kind, (facets, i_set)) in enumerate(ordered):
        path = work / f"check_{n:02d}_m{m}_{kind}.json"
        path.write_text(json.dumps({"m": m, "facets": facets}) + "\n")

        def judge(rc, stdout, stderr, kind=kind, path=path):
            allowed = {0} if kind == "cone" else {0, 1}
            problems = []
            if rc not in allowed:
                problems.append(f"{path.name}: exit code {rc} ({stderr.strip()})")
            else:
                reports = json.loads(stdout)
                if len({r["verdict"] for r in reports}) != 1:
                    problems.append(f"{path.name}: deciders disagree")
            return (1 if problems else 0), problems

        argv = ["check", str(path), "--I", ",".join(map(str, i_set)), "--method", "all"]
        commands.append(Command(argv, 1, judge))
    return Workload(commands, traced_commands=len(per_class))


WORKLOADS = {"census-flag-m5": _census, "verify-mixed": _verify, "check-large": _check}


def setup(name: str, rz, work: Path, seed: int, size_name: str) -> Workload:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return WORKLOADS[name](rz, work, seed, SIZES[size_name])
