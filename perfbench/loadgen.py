"""Open-loop HTTP load generation, percentiles and the capacity search.

The generator is open loop: request ``i`` of a phase is *due* at
``start + i / rate`` whatever happened to earlier requests, and its latency
is timed from that due time, so a stall is charged to every request it
delays.  At most ``connections`` requests are in flight at once (one
sender thread per connection); a request whose due time passes while
every sender is busy waits in the generator, and that wait shows up both
as its lateness and inside its latency.
"""

from __future__ import annotations

import bisect
import http.client
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The latency limit ``capacity_qps`` is judged against (on p99).
LATENCY_LIMIT_MS = 50.0
#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% of samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank ``pct``."""
    return count - math.ceil(pct / 100.0 * count)


def samples_needed(pct: float) -> int:
    """The smallest sample count with :data:`MIN_TAIL_SAMPLES` beyond ``pct``."""
    count = 1
    while samples_beyond(count, pct) < MIN_TAIL_SAMPLES:
        count += 1
    return count


class ZipfSampler:
    """Draws ranks ``0..n-1`` with probability proportional to ``1 / (rank+1)**exponent``.

    The stream is a pure function of ``(n, exponent, seed)``.
    """

    def __init__(self, n: int, exponent: float, seed: int) -> None:
        if n < 1:
            raise ValueError(f"need at least one rank, got {n}")
        total = 0.0
        self._cumulative: List[float] = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** exponent
            self._cumulative.append(total)
        self._rng = random.Random(seed)

    def sample(self) -> int:
        point = self._rng.random() * self._cumulative[-1]
        return min(bisect.bisect_right(self._cumulative, point), len(self._cumulative) - 1)

    def draws(self, count: int) -> List[int]:
        return [self.sample() for _ in range(count)]


@dataclass
class Outcome:
    """One request of a phase: times are ``perf_counter`` seconds."""

    index: int
    path: str
    due: float
    start: float = 0.0
    end: float = 0.0
    status: int = 0
    body: Optional[bytes] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        return (self.start - self.due) * 1000.0


@dataclass
class Phase:
    """The outcomes of one open-loop phase at one offered rate."""

    name: str
    rate: float
    outcomes: List[Outcome] = field(default_factory=list)
    #: Answers a check judged wrong (set by the caller after the phase).
    wrong: int = 0

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def shed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == 429)

    @property
    def failed(self) -> int:
        """Transport errors, non-2xx answers (429s included) and wrong answers."""
        bad = sum(1 for o in self.outcomes if o.error is not None or not 200 <= o.status < 300)
        return bad + self.wrong

    @property
    def succeeded(self) -> int:
        return self.sent - self.failed

    def latencies_ms(self) -> List[float]:
        """Latency from due time; a failed request counts as missing every limit."""
        return [
            o.latency_ms if o.error is None and 200 <= o.status < 300 else math.inf
            for o in self.outcomes
        ]

    def achieved_qps(self) -> float:
        """Completions over the real window, first due time to last completion."""
        if not self.outcomes:
            return 0.0
        window = max(o.end for o in self.outcomes) - min(o.due for o in self.outcomes)
        return len(self.outcomes) / window if window > 0 else 0.0

    def backlog_growing(self) -> bool:
        """True when the generator fell further behind over the phase.

        Compares the median lateness of the last quarter of requests with
        the first quarter; growth beyond two inter-arrival gaps (and at
        least 10 ms) means requests arrive faster than they complete.
        """
        if len(self.outcomes) < 8:
            return False
        ordered = sorted(self.outcomes, key=lambda o: o.index)
        quarter = len(ordered) // 4
        first = sorted(o.lateness_ms for o in ordered[:quarter])
        last = sorted(o.lateness_ms for o in ordered[-quarter:])
        growth = last[len(last) // 2] - first[len(first) // 2]
        return growth > max(10.0, 2000.0 / self.rate)

    def meets_limit(self, limit_ms: float = LATENCY_LIMIT_MS) -> bool:
        """p99 within the limit, nothing failed or shed, backlog steady."""
        if not self.outcomes or self.failed:
            return False
        return percentile(self.latencies_ms(), 99) <= limit_ms and not self.backlog_growing()

    def summary(self) -> str:
        lateness = [o.lateness_ms for o in self.outcomes]
        return (
            f"phase {self.name}: offered {self.rate:.1f} req/s, sent {self.sent}, "
            f"succeeded {self.succeeded}, shed {self.shed}, failed {self.failed}, "
            f"achieved {self.achieved_qps():.1f} req/s, "
            f"lateness p50 {percentile(lateness, 50):.2f} ms"
            + (", backlog growing" if self.backlog_growing() else "")
        ) if self.outcomes else f"phase {self.name}: nothing sent"


def http_get(host: str, port: int, path: str, timeout: float = 30.0) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def http_post(
    host: str, port: int, path: str, body: bytes, timeout: float = 300.0
) -> Tuple[int, bytes]:
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def run_open_loop(
    host: str,
    port: int,
    paths: Sequence[str],
    rate: float,
    name: str,
    connections: int = 2,
    keep_bodies: Callable[[int], bool] = lambda index: False,
) -> Phase:
    """Send ``paths`` open loop at ``rate`` req/s over ``connections`` senders.

    ``keep_bodies(i)`` selects the requests whose response bodies are kept
    for answer checks.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    phase = Phase(name=name, rate=rate)
    outcomes = [Outcome(index=i, path=path, due=0.0) for i, path in enumerate(paths)]
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(outcomes):
                    return
                cursor[0] += 1
            outcome = outcomes[index]
            outcome.due = start + index / rate
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome.start = time.perf_counter()
            try:
                outcome.status, body = http_get(host, port, outcome.path)
                if keep_bodies(index):
                    outcome.body = body
            except (OSError, http.client.HTTPException) as error:
                outcome.error = f"{type(error).__name__}: {error}"
            outcome.end = time.perf_counter()

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.outcomes = outcomes
    return phase


def search_capacity(
    probe: Callable[[float], Phase], low: float, high: float, steps: int
) -> Tuple[float, List[Phase]]:
    """Highest offered rate whose phase meets the limit, by log-space bisection.

    ``probe(rate)`` runs one phase at ``rate``; a rate passes when one of
    two phases at it meets the limit.  ``high`` is taken to fail (the
    caller measured it as the saturation throughput) and is never probed;
    ``steps`` bisections narrow ``[low, high]``.  ``low`` is probed only if
    no bisection passed, and halved while it fails.  Returns the highest
    passing rate (0.0 if none passed) and every phase run.
    """
    if not 0 < low < high:
        raise ValueError(f"need 0 < low < high, got {low}, {high}")
    phases: List[Phase] = []

    def passes(rate: float) -> bool:
        # A failing step is run once more: a stall of the host (not of the
        # program) lasting about a step must not halve the capacity.
        for _ in range(2):
            phase = probe(rate)
            phases.append(phase)
            if phase.meets_limit():
                return True
        return False

    best = 0.0
    for _ in range(steps):
        middle = math.sqrt(low * high)
        if passes(middle):
            low = best = middle
        else:
            high = middle
    for _ in range(steps):
        if best or passes(low):
            return max(best, low), phases
        low /= 2
    return 0.0, phases


def parse_prometheus(text: str) -> Dict[str, float]:
    """Dotted registry names -> values from the service's ``/metrics`` text.

    The exposition names every series in its ``# HELP <flat> <kind>
    <dotted>`` line; counters carry a ``_total`` suffix.  Summaries are
    skipped: the benchmark reads counters and gauges.
    """
    names: Dict[str, str] = {}
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            parts = line.split()
            if len(parts) >= 5 and parts[3] in ("counter", "gauge"):
                names[parts[2]] = parts[4]
            continue
        if not line or line.startswith("#"):
            continue
        flat, _, value = line.partition(" ")
        if flat in names:
            values[names[flat]] = float(value)
    return values
