"""Program time at a fixed host speed, measured with a probe next to the program.

The benchmark's host is a VM on a shared machine. Its speed for
pure-Python work drifts by up to 2x, in spells of seconds to minutes, and
the drift shows in CPU time as much as in wall time. Best-of-N and medians
inside one run do not remove a spell that outlasts the run.

So the benchmark measures the host's current speed alongside the program.
``probe`` is a fixed one-millisecond pure-Python loop (big-integer XOR
elimination, set and dict updates: the program's kind of work). ``measure``
runs the probe a few times before and after a call, and from a
``SIGALRM`` timer every ``INTERVAL_S`` during it, so a long call is sampled
throughout. Work done is speed times time, and a probe's speed is the
inverse of its time, so the call's time, less the time spent in the probes,
is scaled by ``PROBE_REF_S`` / (harmonic mean of the probe times): the time
the call would take on the host at its reference speed. Slower program
code gives a larger scaled time; a slower host does not. Sampling every
25 ms follows the host's faster swings; the probes cost about 5% of a
call's wall time, which ``measure`` takes out again.

The probe code and ``PROBE_REF_S`` belong to the benchmark, not the program,
and must not change between the runs that are compared.
"""

from __future__ import annotations

import random
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

# the probe's time at the reference speed: mid-range of the 0.65-1.25 ms it
# takes on a 2-vCPU Intel Xeon 2.1 GHz VM under Python 3.11. It sets the
# unit of the scaled times, not their steadiness.
PROBE_REF_S = 0.0010
INTERVAL_S = 0.025  # probe period during a call
EDGE_PROBES = 5  # probes just before and just after a call

_rng = random.Random(7)
_ROWS = tuple(_rng.getrandbits(200) for _ in range(120))
del _rng


def probe() -> float:
    """Run the fixed probe once; return its wall time in seconds."""
    t0 = perf_counter()
    pivots: dict[int, int] = {}
    for row in _ROWS:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    seen = set()
    counts: dict[int, int] = {}
    for i in range(3000):
        seen.add((i * 7919) % 1009)
        counts[i & 255] = counts.get(i & 255, 0) + i
    return perf_counter() - t0


@dataclass
class Timing:
    wall: float  # seconds, probes during the call included
    net: float  # seconds, probes during the call taken out
    scaled: float  # net at the reference host speed
    probe_mean: float  # harmonic mean of the probe times
    probes: int


class _Sampler:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def __call__(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - t0


def measure(fn, *args):
    """Call ``fn(*args)``; return its result and its ``Timing``."""
    before = [probe() for _ in range(EDGE_PROBES)]
    sampler = _Sampler()
    previous = signal.signal(signal.SIGALRM, sampler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = perf_counter()
    try:
        result = fn(*args)
    finally:
        wall = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    after = [probe() for _ in range(EDGE_PROBES)]
    samples = before + sampler.samples + after
    mean = statistics.harmonic_mean(samples)
    net = wall - sampler.spent
    return result, Timing(wall, net, net * PROBE_REF_S / mean, mean, len(samples))
