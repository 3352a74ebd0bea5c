"""Machine-speed calibration, so times can be compared across a noisy host.

On a shared host the speed of one core drifts by tens of percent for tens
of seconds at a time (other tenants, frequency changes), which is longer
than a pass.  A fixed unit of pure-Python work that shares no code with
sumsetlab is timed before the ops and then every SAMPLE_INTERVAL_S during
them, from a SIGALRM handler whose own time is taken out of the op times.
There are two units, one like the pipelines (exact fractions, tuple-keyed
dicts, sorting) and one like the searches (pair sums of small integer
sets), because the two kinds of code slow down by different amounts.  A time t
measured while the unit took c seconds on average is reported as
t * REFERENCE_UNIT_S / c: seconds at the speed where the unit takes
REFERENCE_UNIT_S.  That constant only fixes the scale; it is near the
units' fastest times on a 2.1 GHz x86-64 vCPU.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction
from itertools import combinations

REFERENCE_UNIT_S = 0.007
SAMPLE_INTERVAL_S = 0.2
PRE_SAMPLES = 10


def _pipelines_unit() -> None:
    """Exact fractions in a tuple-keyed dict, then sorted."""
    table: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for i in range(1, 540):
        for j in (2, 3, 4, 6):
            value = Fraction(i, j)
            table[(i, j)] = value
            total += value
    keys = sorted(table, key=lambda key: (key[1], -key[0]))
    if total <= 0 or len(keys) != len(table):
        raise AssertionError("calibration arithmetic went wrong")


def _search_unit() -> None:
    """Pair sums of small integer sets looked up in a coloring."""
    colors = [(i * i + 3 * i) % 3 for i in range(80)]
    mono = 0
    for triple in combinations(range(1, 34), 3):
        sums = {a + b for a, b in combinations(triple, 2)} | {2 * a for a in triple}
        mono += len({colors[s] for s in sums}) == 1
    if mono < 0:
        raise AssertionError("calibration arithmetic went wrong")


# Each workload is scaled by the unit whose mix is closest to its hot loops.
UNITS = {"pipelines": _pipelines_unit, "search": _search_unit}


def calibration_unit(kind: str) -> float:
    """Seconds taken by one fixed unit of work, with the collector paused so
    that the size of the program's heap does not leak into the reading."""
    unit = UNITS[kind]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        unit()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedSampler:
    """Calibration samples taken before and, by SIGALRM, during the ops."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples = [calibration_unit(kind) for _ in range(PRE_SAMPLES)]
        self.handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_unit(self.kind))
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Factor turning measured seconds into reference seconds."""
        return REFERENCE_UNIT_S * len(self.samples) / sum(self.samples)
