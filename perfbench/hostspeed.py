"""Timings scaled to a reference host speed measured by a fixed probe.

The benchmark runs on small shared virtual machines whose speed drifts by
up to 2x within a minute: on one such 2-vCPU host the same 18 s build
measured anywhere from 13 s to 20 s, and a request rate that used half the
server's capacity in one minute saturated it in the next.  The probe is a
fixed piece of pure-Python work shaped like the program's hot loops
(string-keyed dicts, sparse dot products, sorting) and independent of the
program.  Readings are taken on the CPU that does the work, while that
work is idle; a CPU's *factor* is its reading over
:data:`REFERENCE_PROBE_S`.  :meth:`ScaledClock.step` scales a step's wall
time by the mean factor of readings right before and right after it: the
time the step would take on a host whose factor is 1.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

#: Probe time, in seconds, of the reference host (the quiet 2-vCPU host the
#: benchmark was written on).
REFERENCE_PROBE_S = 0.012
#: Probes per probing point; their median is the point's reading.
PROBES_PER_POINT = 3
#: A probe reading this recent (seconds) is reused as the next step's "before".
FRESH_S = 0.2

_VOCABULARY = [f"t{i:05d}" for i in range(20000)]


def probe() -> float:
    """Seconds taken by the fixed probe workload on the calling thread."""
    rng = random.Random(7)
    started = time.perf_counter()
    docs = []
    for _ in range(150):
        doc: dict = {}
        for _ in range(60):
            word = _VOCABULARY[rng.randrange(20000)]
            doc[word] = doc.get(word, 0.0) + 1.0
        docs.append(doc)
    total = 0.0
    for i in range(0, 150, 3):
        left = docs[i]
        for right in docs[i:i + 60]:
            total += sum(weight * right.get(word, 0.0) for word, weight in left.items())
    sorted((weight, word) for doc in docs[:25] for word, weight in doc.items())
    return time.perf_counter() - started


class ScaledClock:
    """Accumulates (wall, reference-scaled) seconds per named step."""

    def __init__(self) -> None:
        self.laps: Dict[str, Tuple[float, float]] = {}
        self._last: Optional[Tuple[int, float, float]] = None  # cpu, reading, when

    def factor(self, cpu: int) -> float:
        """How much slower than the reference host ``cpu`` runs right now."""
        return self._read(cpu) / REFERENCE_PROBE_S

    def _read(self, cpu: int) -> float:
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            reading = statistics.median(probe() for _ in range(PROBES_PER_POINT))
        finally:
            os.sched_setaffinity(0, home)
        self._last = (cpu, reading, time.perf_counter())
        return reading

    @contextmanager
    def step(self, name: str, cpu: int) -> Iterator[None]:
        """Time the body, which runs its work on ``cpu``, and scale it."""
        last = self._last
        if last is not None and last[0] == cpu and time.perf_counter() - last[2] < FRESH_S:
            before = last[1]
        else:
            before = self._read(cpu)
        started = time.perf_counter()
        yield
        seconds = time.perf_counter() - started
        after = self._read(cpu)
        wall, scaled = self.laps.get(name, (0.0, 0.0))
        self.laps[name] = (
            wall + seconds,
            scaled + seconds * REFERENCE_PROBE_S * 2 / (before + after),
        )

    def total(self, names) -> Tuple[float, float]:
        """(wall, scaled) seconds summed over the named steps."""
        laps = [self.laps.get(name, (0.0, 0.0)) for name in names]
        return sum(wall for wall, _ in laps), sum(scaled for _, scaled in laps)

    def scaled(self, name: str) -> float:
        return self.laps.get(name, (0.0, 0.0))[1]
