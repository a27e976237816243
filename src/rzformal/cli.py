"""Command line interface.

Commands: check, betti, hull, report, census, verify. Inputs are JSON
files; a complex is {"m": int, "facets": [[vertex, ...], ...]}, a
graph is {"m": int, "edges": [[u, v], ...]}, and a subgroup is
{"m": int, "generators": ["0110", ...]} with character k of each
generator giving coordinate k. ``census --out -`` writes the records to
stdout and its summary to stderr; ``verify -`` reads stdin.

Exit codes for check: 0 formal, 1 not formal, 2 method disagreement
(mode all) or a fixed-point model disagreement. Census exits 1 when any
record disagrees; verify exits 1 on mismatching records and 2 on
corrupt ones. Every command, these three too, exits 3 on bad input, an
InputError or an OSError told in one ``error:`` line, 4: the program
failed; the traceback is on stderr, and 141 (128 + SIGPIPE), with nothing
printed, when the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from functools import cache
from typing import Iterable

from . import census as census_mod
from . import formality, moment_angle
from .f2 import Subgroup
from .group_report import coabelian_report
from .simplicial import Graph, InputError, SimplicialComplex, label_mask, natural, read_caps_once

EXIT_INPUT_ERROR = 3
EXIT_FAULT = 4
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE

# the single deciders of ``check --method``; "all" runs every applicable one
METHODS = {
    "flag": formality.flag_criterion,
    "general": formality.general_criterion,
    "oracle": formality.betti_sum_oracle,
    "torus": formality.torus_oracle,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 3.

    Exit code 2 is reserved for method disagreement in ``check``.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _load_json(path: str) -> dict:
    with open(path) as f:
        try:
            return json.load(f)
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # not JSON, not UTF-8, or past int()'s digits
            raise InputError(str(exc)) from None


def _load_complex(path: str) -> SimplicialComplex:
    return SimplicialComplex.from_json_obj(_load_json(path))


def _parse_vertex_list(text: str) -> tuple[int, ...]:
    """The comma-separated vertices of ``--I``, each in ASCII digits, spaces around it allowed."""
    if not text.strip():
        return ()
    return tuple(natural(part.strip(), "each vertex of --I") for part in text.split(","))


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_check(args) -> int:
    k = _load_complex(args.complex)
    i_mask = label_mask(_parse_vertex_list(args.I), k.m, "--I")
    if args.method == "all":
        reports = formality.evaluate_all(k, i_mask)
        _emit([r.to_json_obj() for r in reports.values()])
        if not formality.reports_agree(reports):
            return 2
        return 0 if next(iter(reports.values())).formal else 1
    report = METHODS[args.method](k, i_mask)
    _emit(report.to_json_obj())
    return 0 if report.formal else 1


def cmd_betti(args) -> int:
    k = _load_complex(args.complex)
    out = {}
    if args.which in ("real", "both"):
        out["real"] = moment_angle.hochster_real_betti(k).to_json_obj()
    if args.which in ("complex", "both"):
        out["complex"] = moment_angle.hochster_complex_betti(k).to_json_obj()
    _emit(out)
    return 0


def cmd_hull(args) -> int:
    a = Subgroup.from_json_obj(_load_json(args.subgroup))
    _emit({"I": list(a.hull()), "rank": a.rank, "corank": a.corank})
    return 0


def cmd_report(args) -> int:
    g = Graph.from_json_obj(_load_json(args.graph))
    a = Subgroup.from_json_obj(_load_json(args.subgroup))
    _emit(coabelian_report(g, a).to_json_obj())
    return 0


def cmd_census(args) -> int:
    m, jobs = natural(args.max_vertices, "--max-vertices"), natural(args.jobs, "--jobs")
    summary = census_mod.run_census(m, args.mode, args.out, jobs)
    print(
        "census mode={mode} m={m} complexes={complexes} records={records} "
        "disagreements={disagreements} out={out}".format(**summary),
        file=sys.stderr if args.out == "-" else sys.stdout,  # the records hold stdout
    )
    return 1 if summary["disagreements"] else 0


def cmd_verify(args) -> int:
    result = census_mod.verify_census(args.census)
    if result["records"] == 0:
        print("warning: 0 records", file=sys.stderr)
    for lineno in result["corrupt"]:
        print(f"line {lineno}: corrupt record", file=sys.stderr)
    for lineno in result["mismatches"]:
        print(f"line {lineno}: mismatch against recomputation", file=sys.stderr)
    print(
        "verify records={} mismatches={} corrupt={}".format(
            result["records"], len(result["mismatches"]), len(result["corrupt"])
        )
    )
    if result["corrupt"]:
        return 2
    if result["mismatches"]:
        return 1
    return 0


@cache  # once per process, on the first command
def build_parser() -> _Parser:
    parser = _Parser(prog="rzformal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("check", help="decide equivariant formality for (K, I)")
    p.add_argument("complex", help="complex JSON file")
    p.add_argument("--I", default="", help="comma-separated vertices, empty for I=∅")
    p.add_argument("--method", choices=[*METHODS, "all"], default="general")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("betti", help="Betti numbers of the moment-angle complexes")
    p.add_argument("complex", help="complex JSON file")
    p.add_argument("--which", choices=["real", "complex", "both"], default="both")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("hull", help="coordinate hull of a subgroup")
    p.add_argument("subgroup", help="subgroup JSON file")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("report", help="group-level report for a graph and subgroup")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("subgroup", help="subgroup JSON file")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("census", help="exhaustive (K, I) census to JSONL")
    p.add_argument("--max-vertices", required=True, help="vertex count m")
    p.add_argument("--mode", choices=["flag", "all-complexes"], default="flag")
    p.add_argument("--out", required=True, help="output JSONL path, - for stdout")
    p.add_argument(
        "--jobs", default="1", help="worker processes, at most the CPU count"
    )
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="recompute and compare a census file")
    p.add_argument("census", help="census JSONL path, - for stdin")
    p.set_defaults(func=cmd_verify)

    return parser


def run(argv: Iterable[str] | None = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        with read_caps_once():  # a malformed cap is bad input for every command
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe shows here, not at exit
            return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except formality.FixedPointModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _stdout_to_devnull() -> None:
    """Point the file of stdout at os.devnull, so that its last flush cannot raise.

    Nothing to do when stdout has no file, as when it is captured in memory.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main() -> None:
    try:
        code = run()
    except Exception:  # a fault of the program, never of its input
        traceback.print_exc()
        code = EXIT_FAULT
    sys.exit(code)


if __name__ == "__main__":
    main()
