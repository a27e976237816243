"""Per-layer tracing of rzformal from outside the program.

``install`` replaces each hooked function object wherever an ``rzformal``
module or class binds it. Rebinding every alias matters because several
modules import by name (``moment_angle.hom_data``,
``formality._restriction_map_trivial``, the deciders inside ``census``).

A span hook records (name, start, end, parent, operation id) in compact
arrays kept in memory; ``write`` saves them when the run ends. Self time is
accumulated online: a span's duration minus the time its child spans cover.
Very hot small methods get a call counter instead of a span, because a span
costs more than the method itself.

A hook whose target no longer exists is reported in ``missing`` and skipped,
so a refactor of the program cannot break a run.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from pathlib import Path
from time import perf_counter_ns

# (module, attribute path, span name). Several targets may share a name.
SPAN_HOOKS = [
    ("rzformal.cli", "run", "cli"),
    ("rzformal.census", "run_census", "census.run"),
    ("rzformal.census", "census_tasks", "census.enumerate"),
    ("rzformal.census", "compute_record", "census.record"),
    ("rzformal.census", "CensusRecord.json_line", "census.json"),
    ("rzformal.census", "verify_census", "census.verify"),
    ("rzformal.formality", "flag_criterion", "formality.flag_criterion"),
    ("rzformal.formality", "general_criterion", "formality.general_criterion"),
    ("rzformal.formality", "betti_sum_oracle", "formality.betti_sum_oracle"),
    ("rzformal.formality", "torus_oracle", "formality.torus_oracle"),
    ("rzformal.cohomology", "_restriction_map_trivial", "formality.restriction"),
    ("rzformal.moment_angle", "hochster_real_betti", "moment_angle.hochster"),
    ("rzformal.moment_angle", "hochster_complex_betti", "moment_angle.hochster"),
    ("rzformal.moment_angle", "build_cubical", "moment_angle.cubical_build"),
    ("rzformal.moment_angle", "CubicalComplex.fixed_subcomplex", "moment_angle.fixed_subcomplex"),
    ("rzformal.moment_angle", "CubicalComplex.betti", "moment_angle.cubical_betti"),
    ("rzformal.cohomology", "hom_data", "cohomology.hom_data"),
    ("rzformal.cohomology", "_build_hom_data", "cohomology.build"),
    ("rzformal.simplicial", "SimplicialComplex.is_flag", "simplicial.is_flag"),
    ("rzformal.simplicial", "SimplicialComplex.subfaces", "simplicial.subfaces"),
    ("rzformal.f2", "rank", "f2.rank"),
    ("rzformal.f2", "rref", "f2.rref"),
    ("rzformal.f2", "kernel_basis", "f2.kernel_basis"),
    ("rzformal.f2", "reduce_batch", "f2.reduce_batch"),
]

# (module, attribute path, counter name): call counts only.
COUNTER_HOOKS = [
    ("rzformal.simplicial", "SimplicialComplex.has_face", "simplicial.has_face"),
    ("rzformal.moment_angle", "CubicalComplex.boundary", "moment_angle.cubical_boundary"),
]


def _resolve(module_name: str, path: str):
    module = sys.modules.get(module_name)
    if module is None:
        return None
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _rebind(original, replacement) -> int:
    """Replace ``original`` in every rzformal module and class dict."""
    count = 0
    for name, module in list(sys.modules.items()):
        if not (name == "rzformal" or name.startswith("rzformal.")):
            continue
        namespaces = [module]
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                namespaces.append(value)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, replacement)
                    count += 1
    return count


class Tracer:
    """Span and counter store for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.root_ns = 0
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self.op = -1
        # [span index, name id, start, child time] per open span
        self._stack: list[list[int]] = []
        # layer-specific tallies filled by the after-call hooks below
        self.f2_outer_calls = 0
        self.f2_rows_in = 0
        self.f2_bits_in = 0
        self.cubical_cells = 0
        self.fixed_cells = 0
        self.j_checked = 0
        self.flag_complexes: set[tuple[int, int]] = set()
        self._models: weakref.WeakSet = weakref.WeakSet()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1][1]] if self._stack else None

    def span_wrapper(self, fn, name: str, after=None):
        nid = self.name_id(name)
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        self_ns, calls = self.self_ns, self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(tracer.op)
            ends.append(0)
            t0 = perf_counter_ns()
            starts.append(t0)
            frame = [idx, nid, t0, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self_ns[nid] += dur - frame[3]
                calls[nid] += 1
                if stack:
                    stack[-1][3] += dur
                else:
                    tracer.root_ns += dur
            if after is not None:
                try:
                    after(args, result)
                except Exception:  # a hook must never fail the program's run
                    tracer.hook_errors.add(name)
            return result

        return wrapper

    def counter_wrapper(self, fn, name: str):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # after-call hooks: they run outside the span, inside its parent

    def _after_f2(self, args, result):
        if (self.parent_name() or "").startswith("f2."):
            return
        rows = args[0]
        if len(args) > 2:  # reduce_batch(vecs, ech, pivots): width from the data
            width = max((v.bit_length() for v in (*rows, *args[1])), default=0)
        else:
            width = args[1]
        self.f2_outer_calls += 1
        self.f2_rows_in += len(rows)
        self.f2_bits_in += len(rows) * width

    def _after_cubical_build(self, args, result):
        if result not in self._models:
            self._models.add(result)
            self.cubical_cells += sum(result.counts())

    def _after_fixed(self, args, result):
        self.fixed_cells += sum(result.counts())

    def _after_restriction(self, args, result):
        if self.parent_name() == "formality.general_criterion":
            self.j_checked += 1

    def _after_is_flag(self, args, result):
        self.flag_complexes.add((self.op, hash(args[0])))

    def install(self) -> None:
        afters = {
            "f2": self._after_f2,
            "moment_angle.cubical_build": self._after_cubical_build,
            "moment_angle.fixed_subcomplex": self._after_fixed,
            "formality.restriction": self._after_restriction,
            "simplicial.is_flag": self._after_is_flag,
        }
        for module, path, name in SPAN_HOOKS:
            original = _resolve(module, path)
            after = afters.get("f2" if name.startswith("f2.") else name)
            if original is None or not _rebind(
                original, self.span_wrapper(original, name, after)
            ):
                self.missing.append(f"{module}.{path}")
        for module, path, name in COUNTER_HOOKS:
            original = _resolve(module, path)
            if original is None or not _rebind(
                original, self.counter_wrapper(original, name)
            ):
                self.missing.append(f"{module}.{path}")

    def self_s(self, prefix: str) -> float:
        """Summed self time of spans named ``prefix`` or ``prefix.*``."""
        return sum(
            ns for name, ns in zip(self.names, self.self_ns)
            if name == prefix or name.startswith(prefix + ".")
        ) / 1e9

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    @property
    def total_self_s(self) -> float:
        return sum(self.self_ns) / 1e9

    def write(self, path: Path) -> None:
        """Spans as raw arrays plus a JSON header that names the fields."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "fields": [
                ["name", self.span_name.typecode],
                ["start_ns", self.span_start.typecode],
                ["end_ns", self.span_end.typecode],
                ["parent", self.span_parent.typecode],
                ["op", self.span_op.typecode],
            ],
            "byteorder": sys.byteorder,
            "counters": self.counters,
            "missing": self.missing,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(path.with_suffix(".spans"), "wb") as f:
            for arr in (
                self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_op,
            ):
                arr.tofile(f)
