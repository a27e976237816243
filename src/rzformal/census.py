"""Exhaustive (K, I) censuses with persistent, verifiable JSONL records.

Enumeration is labeled and deterministic: flag mode walks all graphs
on exactly m vertices by edge-set bitmask and takes clique complexes;
all-complexes mode walks every downward-closed face family containing
all singletons. Each complex contributes one record per coordinate
subset I, in bitmask order. Records carry the verdict of every
applicable decider plus the oracle's Betti totals, so a census file is
a self-contained equivalence check of the criteria.

A line's head, the fields of K, is encoded once per complex; the fields
of I go into a fixed template, and each line equals the record's
compact ``json.dumps``. ``verify_census`` reads each complex once.

Workers are pure functions of their task, which makes parallel runs
byte-identical to serial ones.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, nullcontext, suppress
from itertools import combinations
from multiprocessing import Pool
from typing import Iterator, TextIO

from .formality import FixedPointModelError, evaluate_all, reports_agree
from .simplicial import (
    Graph, InputError, SimplicialComplex, _int_lists, cap, check_cap, json_m,
    label_mask, mask_vertices, read_caps_once,
)

MODES = ("flag", "all-complexes")


# the JSON of each value other than an int that a field after the head takes
_JSON = {None: "null", True: "true", False: "false",
         "formal": '"formal"', "not_formal": '"not_formal"'}
_LINE = ('%s,"I":[%s],"verdict_flag":%s,"verdict_general":%s,"verdict_oracle":%s,'
         '"verdict_torus":%s,"betti_total_ambient":%d,"betti_total_fixed":%d,"agree":%s}')


class CensusRecord(dict):
    """The fields of one census line, in file order.

    ``head``: the compact JSON of "m", "facets" and "is_flag", unclosed.
    """

    __slots__ = ("head",)

    def json_line(self) -> str:
        """``json.dumps(self, separators=(",", ":"))``."""
        return _LINE % (
            self.head,
            ",".join(map(str, self["I"])),
            _JSON[self["verdict_flag"]],
            _JSON[self["verdict_general"]],
            _JSON[self["verdict_oracle"]],
            _JSON[self["verdict_torus"]],
            self["betti_total_ambient"],
            self["betti_total_fixed"],
            _JSON[self["agree"]],
        )


def compute_record(k: SimplicialComplex, i_mask: int) -> CensusRecord:
    """Run every applicable decider on one (K, I) pair; the head is kept on ``k``."""
    reports = evaluate_all(k, i_mask)
    flag = reports.get("flag_criterion")
    oracle = reports["betti_sum_oracle"]
    assert oracle.totals is not None
    record = CensusRecord(
        m=k.m,
        facets=k.json_facets(),
        is_flag=flag is not None,
        I=mask_vertices(i_mask),
        verdict_flag=flag.verdict if flag is not None else None,
        verdict_general=reports["general_criterion"].verdict,
        verdict_oracle=oracle.verdict,
        verdict_torus=reports["torus_oracle"].verdict,
        betti_total_ambient=oracle.totals[1],
        betti_total_fixed=oracle.totals[0],
        agree=reports_agree(reports),
    )
    head = k._cache.get("census_head")
    if head is None:
        fields = {name: record[name] for name in ("m", "facets", "is_flag")}
        head = k._cache["census_head"] = json.dumps(fields, separators=(",", ":"))[:-1]
    record.head = head
    return record


def flag_complexes(m: int) -> Iterator[SimplicialComplex]:
    """Clique complexes of all labeled graphs on m vertices.

    Graphs are ordered by edge-set bitmask over the lexicographic list
    of vertex pairs.
    """
    pairs = list(combinations(range(1, m + 1), 2))
    for edge_bits in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if (edge_bits >> b) & 1]
        yield Graph(m, edges).clique_complex()


def all_complexes(m: int) -> Iterator[SimplicialComplex]:
    """All complexes on m labeled vertices with every singleton a face.

    Depth-first over candidate faces of size two and up, sorted by
    (size, mask); a face may be added only once all its boundary faces
    are present, so each downward-closed family appears exactly once.
    """
    singletons = [1 << i for i in range(m)]
    candidates = [f for f in range(1 << m) if f.bit_count() >= 2]
    candidates.sort(key=lambda f: (f.bit_count(), f))

    def extend(start: int, chosen: set[int]) -> Iterator[frozenset[int]]:
        yield frozenset(chosen)
        for idx in range(start, len(candidates)):
            face = candidates[idx]
            # an edge's boundary is two singletons, and those are always faces
            closed = face.bit_count() == 2 or all(
                face ^ 1 << (v - 1) in chosen for v in mask_vertices(face)
            )
            if not closed:
                continue
            chosen.add(face)
            yield from extend(idx + 1, chosen)
            chosen.remove(face)

    for family in extend(0, set()):
        yield SimplicialComplex((1 << m) - 1, list(family) + singletons)


def _task_records(task: tuple[int, tuple[tuple[int, ...], ...]]) -> tuple[list[str], int]:
    """Worker: all records of one complex, in I-bitmask order."""
    m, facets = task
    k = SimplicialComplex.from_facets(m, facets)
    lines = []
    disagreements = 0
    for i_mask in range(1 << m):
        record = compute_record(k, i_mask)
        if not record["agree"]:
            disagreements += 1
        lines.append(record.json_line())
    return lines, disagreements


def census_tasks(m: int, mode: str) -> list[tuple[int, tuple[tuple[int, ...], ...]]]:
    """One task per complex of the mode, refused over the mode's cap."""
    if mode not in MODES:
        raise InputError(f"unknown census mode {mode!r}")
    check_cap(f"census {mode}", m)
    complexes = flag_complexes(m) if mode == "flag" else all_complexes(m)
    tasks = [(m, k.json_facets()) for k in complexes]
    if mode == "all-complexes":
        tasks.sort()
    return tasks


@contextmanager
def _written_whole(out_path: str) -> Iterator[TextIO]:
    """``out_path`` open for writing, replaced only if the block ends without error.

    The lines go to a file beside it, renamed over it at the end and removed
    on an error. A device or pipe such as /dev/stdout, or a path whose
    directory takes no new file, is written in place; opening it there
    raises as it always did.
    """
    real = os.path.realpath(out_path)  # through a symlink, to the file it names
    tmp = f"{real}.{os.getpid()}.tmp"
    try:
        out = open(tmp, "w") if os.path.isfile(real) or not os.path.exists(real) else None
    except OSError:
        out = None
    if out is None:
        with open(out_path, "w") as out:
            yield out
        return
    try:
        with out:
            yield out
        os.replace(tmp, real)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


@read_caps_once()
def run_census(m: int, mode: str, out_path: str, jobs: int = 1) -> dict:
    """Write one record per (K, I) to ``out_path``; return the summary.

    ``jobs`` must be at least 1 and is clamped to the CPU count. A census
    that fails leaves ``out_path`` as it was (see ``_written_whole``).
    Each cap is read once per call.
    """
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    if m < 1:
        raise InputError("census needs at least one vertex")
    tasks = census_tasks(m, mode)
    records = 0
    disagreements = 0
    with _written_whole(out_path) as out, Pool(jobs) if jobs > 1 else nullcontext() as pool:
        for lines, bad in (pool.imap if pool else map)(_task_records, tasks):
            disagreements += bad
            records += len(lines)
            out.write("\n".join(lines) + "\n")
    return {"mode": mode, "m": m, "complexes": len(tasks), "records": records,
            "disagreements": disagreements, "out": out_path}


def read_line(
    raw: bytes, max_m: int, last: tuple[list | None, SimplicialComplex | None] = (None, None)
) -> tuple[str, tuple[list, SimplicialComplex], int]:
    """The text, (facets, complex) and I mask of one census line, read as ``check`` reads.

    ``last`` is the (facets, complex) of the line before, whose complex a
    line with the same m and facets reuses.

    Raises InputError if the line is not UTF-8, not JSON, nested past the
    recursion limit, or holds fields ``check`` would refuse, or if its m is
    over ``max_m``.
    """
    try:
        line = raw.rstrip(b"\n").decode()
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise InputError(f"not a JSON line: {exc}") from None
    m = json_m(obj, "I", "census line")
    if m > max_m:
        raise InputError(f"m = {m} is over the census caps")
    facets, k = last
    if k is not None and k.m == m and obj.get("facets") == facets:
        _int_lists(obj, "facets", "complex")  # to ==, true and 1.0 are 1
    else:
        k = SimplicialComplex.from_json_obj(obj)
        facets = obj["facets"]
    if not isinstance(obj["I"], list):
        raise InputError("census line field 'I' must be a list")
    return line, (facets, k), label_mask(obj["I"], m, "I")


@read_caps_once()
def verify_census(path: str) -> dict:
    """Recompute every record and compare byte-for-byte.

    Returns a summary with mismatching and corrupt line numbers; the
    file passes only if both lists are empty. A line is corrupt only
    when reading or recomputing it raises InputError: it is not UTF-8,
    not JSON, or has fields ``check`` would refuse, or its m is over
    both census caps, since no census under the current caps writes it
    (such a line is not recomputed). A line whose fixed-point models
    disagree is a mismatch. Any other exception is a fault of the program
    and propagates. Consecutive lines with the same m and facets share
    one SimplicialComplex and everything cached on it. Each cap is read
    once per call, and a malformed one fails before any line is read.
    """
    mismatches: list[int] = []
    corrupt: list[int] = []
    records = 0
    max_m = max(cap(f"census {mode}") for mode in MODES)
    last: tuple = (None, None)
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            records += 1
            try:
                line, last, i_mask = read_line(raw, max_m, last)
                recomputed = compute_record(last[1], i_mask).json_line()
            except InputError:
                corrupt.append(lineno)
                continue
            except FixedPointModelError:
                mismatches.append(lineno)
                continue
            if recomputed != line:
                mismatches.append(lineno)
    return {
        "records": records,
        "mismatches": mismatches,
        "corrupt": corrupt,
    }
