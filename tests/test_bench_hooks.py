"""Every name the benchmark reads from the package must exist.

``bench/tracing.py`` reports a hook whose target is gone as missing and
skips it, so a deleted name would silently drop a per-layer metric. This
test loads the tracer by path, without changing it, and resolves every
hook against the imported package.
"""

import importlib.util
from pathlib import Path

from shapes import cycle_graph
import rzformal.cli  # noqa: F401  the tracer hooks cli.run
from rzformal import cohomology, f2, hochster_real_betti
from rzformal.cohomology import hom_data

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_uses_resolves():
    tracing = load_tracing()
    hooks = tracing.SPAN_HOOKS + tracing.COUNTER_HOOKS
    missing = [f"{m}.{p}" for m, p, _ in hooks if tracing._resolve(m, p) is None]
    assert missing == []
    # read by bench/run.py directly, outside the hook tables; without
    # clear_caches every command would run warm, with no warning
    assert isinstance(cohomology._hom_cache, dict)
    assert callable(getattr(cohomology, "clear_caches", None))
    for name in ("rank", "rref", "kernel_basis", "reduce_batch"):
        assert callable(getattr(f2, name)), name


def test_clear_caches_empties_the_memo():
    # bench/run.py clears before every command, so that each runs cold
    hochster_real_betti(cycle_graph(4).clique_complex())
    hom_data((0, 1))
    assert cohomology._memo and cohomology._hom_cache
    cohomology.clear_caches()
    assert cohomology._memo == {} and cohomology._hom_cache == {}
