"""Exhaustive (K, I) censuses with persistent, verifiable JSONL records.

Enumeration is labeled and deterministic: flag mode walks all graphs
on exactly m vertices by edge-set bitmask and takes clique complexes;
all-complexes mode walks every downward-closed face family containing
all singletons. Each complex contributes one record per coordinate
subset I, in bitmask order. Records carry the verdict of every
applicable decider plus the oracle's Betti totals, so a census file is
a self-contained equivalence check of the criteria.

Workers are pure functions of their task, which makes parallel runs
byte-identical to serial ones.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from itertools import combinations
from multiprocessing import Pool
from typing import Iterator

from .formality import FixedPointModelError, evaluate_all, reports_agree
from .simplicial import (
    CAPS, Graph, SimplicialComplex, cap, check_cap, label_mask, mask_vertices
)

MODES = ("flag", "all-complexes")


class CensusRecord(dict):
    """The fields of one census line, in file order."""

    def json_line(self) -> str:
        return json.dumps(self, separators=(",", ":"))


def compute_record(k: SimplicialComplex, i_mask: int) -> CensusRecord:
    """Run every applicable decider on one (K, I) pair."""
    reports = evaluate_all(k, i_mask)
    flag = reports.get("flag_criterion")
    oracle = reports["betti_sum_oracle"]
    assert oracle.totals is not None
    return CensusRecord(
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
        raise ValueError(f"unknown census mode {mode!r}")
    check_cap(f"census {mode}", m)
    complexes = flag_complexes(m) if mode == "flag" else all_complexes(m)
    tasks = [(m, k.json_facets()) for k in complexes]
    if mode == "all-complexes":
        tasks.sort()
    return tasks


def run_census(m: int, mode: str, out_path: str, jobs: int = 1) -> dict:
    """Write one record per (K, I) to ``out_path``; return the summary.

    ``jobs`` must be at least 1 and is clamped to the CPU count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    if m < 1:
        raise ValueError("census needs at least one vertex")
    tasks = census_tasks(m, mode)
    records = 0
    disagreements = 0
    with open(out_path, "w") as out, Pool(jobs) if jobs > 1 else nullcontext() as pool:
        for lines, bad in (pool.imap if pool else map)(_task_records, tasks):
            disagreements += bad
            records += len(lines)
            out.write("\n".join(lines) + "\n")
    return {"mode": mode, "m": m, "complexes": len(tasks), "records": records,
            "disagreements": disagreements, "out": out_path}


def verify_census(path: str) -> dict:
    """Recompute every record and compare byte-for-byte.

    Returns a summary with mismatching and corrupt line numbers; the
    file passes only if both lists are empty. A line that is not UTF-8,
    not JSON, or has fields ``check`` would refuse is corrupt, and so
    is a line whose m is over both census caps: it is not recomputed,
    since no census under the current caps writes it. A line whose
    fixed-point models disagree is a mismatch. Consecutive lines of
    one complex share its SimplicialComplex and everything cached on it.
    """
    mismatches: list[int] = []
    corrupt: list[int] = []
    records = 0
    caps = {name: cap(name) for name in CAPS}  # a malformed one fails here, once
    max_m = max(caps[f"census {mode}"] for mode in MODES)
    k = None
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            records += 1
            try:
                line = raw.rstrip(b"\n").decode()
                obj = json.loads(line)
                m = obj["m"]
                if m > max_m:
                    raise ValueError(f"m = {m} is over the census caps")
                line_k = SimplicialComplex.from_json_obj(obj)
                i_mask = label_mask(obj["I"], m, "I")
                if line_k != k:
                    k = line_k
                recomputed = compute_record(k, i_mask).json_line()
            except (KeyError, TypeError, ValueError, RecursionError):
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
