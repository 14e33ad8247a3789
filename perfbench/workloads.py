"""The benchmark's workloads and the run that measures one of them.

Both workloads go through the same life cycle, so every run reports every
end-to-end metric:

1. **set-up** -- generate the ``small`` preset corpus, ontology and
   training map plus the query-key pool, and write them as a data
   directory (three times; ``setup_s`` is the median);
2. **build to answer** -- from the data directory on disk: build the
   workload's arms in this process through the public ``SubstrateStore``
   calls, write the workspace with ``Pipeline.build_workspace``, start
   ``repro serve`` (a separate process, which reopens the workspace) and
   take its first answer (``build_to_answer_s``);
3. **fixed-rate window** -- open-loop ``GET /search`` traffic at the
   workload's rate (``latency_p50_ms``, ``latency_p90_ms``);
4. **capacity search**, in traced runs -- the highest offered rate at
   which p99 stays within 50 ms with no failure and no growing backlog
   (the per-layer ``capacity_qps``: on a shared host it varied too much
   between runs to gate on);
5. **ingest** -- one corpus delta (papers added, removed and replaced)
   through ``POST /admin/ingest``, then searches on every arm until the
   change is visible (``ingest_to_searchable_s``).

``build_ingest`` builds, persists and serves every arm, so its delta
invalidates the pattern paper set and the first pattern search rebuilds
it; its traffic is uniform over distinct keys with the result cache off,
so every request runs the search layers.  ``serve_zipf`` serves the text
paper set's two arms with the cache on and Zipf-skewed keys from a pool
four times the cache, so most requests are hits.  Times and rates are
reported at the reference host speed of :mod:`hostspeed`.

Answers are checked throughout: the server's JSON must equal
``hit_to_dict`` of the in-process pipeline that built the workspace, for
the first answers and for a seeded sample of every load phase; after the
delta the added papers must be found and the removed ones absent on
every arm.  Every mismatch counts as a failed operation.
"""

from __future__ import annotations

import gc
import json
import os
import math
import random
import resource
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hostspeed import ScaledClock
from loadgen import (
    Phase,
    ZipfSampler,
    percentile,
    run_open_loop,
    samples_needed,
    search_capacity,
)
from server import ServerError, ServerProcess
from tracing import Tracer, self_times

Arm = Tuple[str, str]  # (score function, paper set)

#: Scale of the generated corpus (800 papers, 150 ontology terms).
PRESET = "small"
TEXT_ARMS: Tuple[Arm, ...] = (("text", "text"), ("citation", "text"))
#: Every persisted arm, in the order each is built, served and polled.
ALL_ARMS: Tuple[Arm, ...] = TEXT_ARMS + (("pattern", "pattern"), ("citation", "pattern"))
#: The corpus delta ingested after the load: papers added, removed, and
#: replaced (same id, another paper's text).
DELTA = (3, 2, 1)
#: Per-layer metric stem of each arm's prestige build.
SCORE_LAYER = {
    ("text", "text"): "scores.text",
    ("citation", "text"): "scores.citation_text",
    ("citation", "pattern"): "scores.citation_pattern",
    ("pattern", "pattern"): "scores.pattern",
}
#: Build-layer steps, then every timed step from the corpus on disk to the
#: server's first answer (``build_to_answer_s`` sums the latter).
BUILD_LAYERS = (
    "index.build", "citations.graph", "assignment.text", "assignment.pattern",
    *SCORE_LAYER.values(), "workspace.write",
)
BUILD_STEPS = ("pipeline.from_directory", *BUILD_LAYERS, "service.start", "service.first_answer")
#: Timed steps from submitting the delta to every arm showing it.
INGEST_STEPS = (
    "substrate.delta_apply", "substrate.delta_rescore_text",
    "substrate.delta_rescore_citation", "substrate.delta_rescore_pattern",
    "substrate.delta_poll",
)
#: Results requested by post-delta visibility searches.
PROBE_TOP_K = 1000
#: Sequential requests in the unloaded pass (HTTP and queue-wait attribution).
UNLOADED_REQUESTS = 100
#: Capacity search: saturation phases offered SATURATION_OFFER times the
#: fixed rate (doubled while the server keeps up) measure the throughput
#: ceiling; CAPACITY_BISECTIONS steps of CAPACITY_STEP_S seconds each then
#: bisect [CAPACITY_FLOOR * ceiling, ceiling].
SATURATION_OFFER = 4.0
CAPACITY_STEP_S = 1.5
CAPACITY_BISECTIONS = 3
CAPACITY_FLOOR = 0.7
#: The fixed-rate window is sent in this many bursts between capacity
#: steps; each burst has at least ten samples beyond its LATENCY_TAIL
#: percentile.
WINDOW_BURSTS = 6
LATENCY_TAIL = 90
BURST_GAP_S = 0.5
#: Share of each load phase whose answers are checked against the pipeline.
CHECK_SHARE = 0.05
#: Generator seed of the corpus, ontology, training map and key pool.  They
#: are the same in every run, so build and ingest do the same work and the
#: capacity does not depend on which queries the pool happens to hold (it
#: did, by a quarter); ``--seed`` draws the traffic from the pool, the
#: checked sample and the delta.
DATASET_SEED = 1
#: Sender threads (and so connections) of the load generator.
CONNECTIONS = 2
POLL_TIMEOUT_S = 180.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Arms built, served and polled after the delta, in that order.
    arms: Tuple[Arm, ...]
    #: Workspace artifacts written (their dependencies come along); None = all.
    artifacts: Optional[Tuple[str, ...]]
    result_cache: bool
    #: Zipf exponent over the key pool; None draws keys uniformly.
    zipf_exponent: Optional[float]
    #: Distinct (query, arm) keys the traffic is drawn from.
    pool_size: int
    #: Offered rate of the fixed-rate window, in req/s of the reference host
    #: (see hostspeed.py), well under the capacity measured at seed 1 so that
    #: a host stall does not push the server into saturation.
    rate: float


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="build_ingest", arms=ALL_ARMS, artifacts=None, result_cache=False,
            zipf_exponent=None, pool_size=2000, rate=140.0,
        ),
        # The pool is four times the server's 256-entry result cache.  Hits
        # and misses make latency bimodal; at 20% of capacity few hits queue
        # behind a miss, so the median stays among the hits (at 40% it
        # flipped between the modes from run to run).
        Workload(
            name="serve_zipf", arms=TEXT_ARMS,
            artifacts=("scores_text_text", "scores_citation_text"), result_cache=True,
            zipf_exponent=1.0, pool_size=1024, rate=200.0,
        ),
    )
}


def _seed_for(seed: int, label: str) -> int:
    return zlib.crc32(f"{seed}:{label}".encode("utf-8"))


class BenchmarkRun:
    """One run of one workload; :meth:`run` returns the result object."""

    def __init__(
        self, workload: Workload, seed: int, seconds: int, trace: bool, root: Path
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.work = root / ".perfbench" / f"{workload.name}-{seed}-{id(self):x}"
        self.data_dir = self.work / "data"
        self.tracer = Tracer(enabled=trace)
        self.clock = ScaledClock()
        # The benchmark process (build, load generator) and the server each
        # get a CPU of their own: neither steals the other's CPU and neither
        # migrates between them mid-run.
        available = sorted(os.sched_getaffinity(0))
        self.cpus = {"bench": available[0], "server": available[-1]}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.layers: Dict[str, Tuple[float, str]] = {}
        self.measured: Dict[str, float] = {}
        self.log: List[str] = []
        self.server: Optional[ServerProcess] = None
        self.pipeline = None
        self.keys: List[Tuple[str, Arm]] = []

    # -- bookkeeping ------------------------------------------------------------------

    def _op(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def _metric(self, name: str, value: float, unit: str, measured: float) -> None:
        """Record an end-to-end value at reference speed and its raw reading."""
        self.metrics[name] = (value, unit)
        self.measured[name] = measured

    def _layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (value, unit)

    # -- the run ------------------------------------------------------------------------

    def run(self) -> dict:
        os.sched_setaffinity(0, {self.cpus["bench"]})
        try:
            self._setup()
            self._build_to_answer()
            self._warm_up()
            unloaded = self._unloaded_pass()
            if self.trace:
                self._trace_reopen()
                self._trace_replay(unloaded)
            window = self._load()
            if self.trace:
                self._trace_wait(window)
            self._ingest()
            rss = max(self.server.peak_rss_mb(), _own_peak_rss_mb())
            self._metric("rss_peak_mb", rss, "MB", rss)
        finally:
            if self.server is not None:
                self.server.stop()
            if self.trace:
                self.tracer.write(
                    self.root / ".perfbench" / "traces"
                    / f"{self.workload.name}-seed{self.seed}.jsonl"
                )
            shutil.rmtree(self.work, ignore_errors=True)
        chosen = self.layers if self.trace else self.metrics
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()
            },
        }

    # -- 1. set-up ----------------------------------------------------------------------

    def _setup(self) -> None:
        from repro.corpus.io import write_corpus_jsonl
        from repro.datagen.presets import PRESETS
        from repro.datagen.queries import generate_queries
        from repro.ontology.obo import write_obo

        for attempt in range(3):
            with self.clock.step(f"setup{attempt}", self.cpus["bench"]):
                dataset = PRESETS[PRESET].generate(seed=DATASET_SEED)
                self.data_dir.mkdir(parents=True, exist_ok=True)
                write_corpus_jsonl(dataset.corpus, self.data_dir / "corpus.jsonl")
                write_obo(dataset.ontology, self.data_dir / "ontology.obo")
                with open(self.data_dir / "training.json", "w", encoding="utf-8") as handle:
                    json.dump(dataset.training_papers, handle)
                rng = random.Random(_seed_for(DATASET_SEED, "keys"))
                queries = list(dict.fromkeys(
                    q.query for q in generate_queries(
                        dataset, n_queries=2 * self.workload.pool_size, seed=DATASET_SEED
                    )
                ))[: self.workload.pool_size]
                keys = [(query, rng.choice(self.workload.arms)) for query in queries]
        self.keys = keys
        self.training_ids = {pid for ids in dataset.training_papers.values() for pid in ids}
        laps = [self.clock.laps[f"setup{attempt}"] for attempt in range(3)]
        self._metric("setup_s", statistics.median(scaled for _, scaled in laps), "s",
                     statistics.median(wall for wall, _ in laps))

    def _stream(self, phase: str, count: int) -> List[Tuple[str, Arm]]:
        """``count`` (query, arm) keys for one phase, a pure function of seed and phase."""
        if self.workload.zipf_exponent is None:
            rng = random.Random(_seed_for(self.seed, phase))
            return [rng.choice(self.keys) for _ in range(count)]
        sampler = ZipfSampler(
            len(self.keys), self.workload.zipf_exponent, _seed_for(self.seed, phase)
        )
        return [self.keys[rank] for rank in sampler.draws(count)]

    # -- 2. build to first answer ----------------------------------------------------

    def _build_to_answer(self) -> None:
        from repro.obs.metrics import get_registry
        from repro.pipeline import Pipeline

        workload = self.workload
        bench, server = self.cpus["bench"], self.cpus["server"]
        clock = self.clock
        before = get_registry().snapshot()["counters"]
        with self.tracer.span("build_to_answer", request="build"):
            with clock.step("pipeline.from_directory", bench), \
                    self.tracer.span("pipeline.from_directory"):
                pipeline = Pipeline.from_directory(
                    self.data_dir, result_cache_size=256 if workload.result_cache else 0
                )
            store = pipeline.substrates
            for name, call in _build_steps(store, workload.arms):
                with clock.step(name, bench), self.tracer.span(name):
                    call()
            with clock.step("workspace.write", bench), self.tracer.span("workspace.write"):
                pipeline.build_workspace(
                    self.data_dir / "workspace",
                    only=list(workload.artifacts) if workload.artifacts else None,
                )
            # The server process starts (and reopens the workspace) on its CPU.
            with clock.step("service.start", server), self.tracer.span("service.start"):
                self.server = ServerProcess(
                    self.root / "src", self.data_dir, self.work / "logs",
                    result_cache=workload.result_cache, cpu=server,
                ).start()
            query, (function, paper_set) = self.keys[0]
            with clock.step("service.first_answer", server), \
                    self.tracer.span("service.first_answer"):
                answer = self.server.search(query, function, paper_set)
        self.pipeline = pipeline
        after = get_registry().snapshot()["counters"]
        self.build_counts = {
            name: after.get(name, 0) - before.get(name, 0) for name in after
        }
        self._op(answer == self._reference(query, function, paper_set),
                 f"first answer for {query!r} differs from the building pipeline")
        wall, scaled = clock.total(BUILD_STEPS)
        self._metric("build_to_answer_s", scaled, "s", wall)

    def _reference(self, query: str, function: str, paper_set: str, top_k: int = 10) -> list:
        from repro.serving.service import hit_to_dict

        hits = self.pipeline.search(
            query, function=function, paper_set_name=paper_set, limit=top_k, use_cache=False
        )
        return [hit_to_dict(hit) for hit in hits]

    def _warm_up(self) -> None:
        """First answer on every other served arm, checked like the first."""
        query = self.keys[0][0]
        for function, paper_set in self.workload.arms[1:]:
            try:
                answer = self.server.search(query, function, paper_set)
            except ServerError as error:
                self._op(False, str(error))
                continue
            self._op(answer == self._reference(query, function, paper_set),
                     f"first {function}/{paper_set} answer differs from the building pipeline")
        # The load generator shares this process with the built pipeline;
        # freezing it keeps full collections of that heap out of the
        # generator's timing.
        gc.collect()
        gc.freeze()

    # -- 3. load ------------------------------------------------------------------------

    def _paths(self, keys: Sequence[Tuple[str, Arm]]) -> List[str]:
        return [
            ServerProcess.search_path(query, function, paper_set)
            for query, (function, paper_set) in keys
        ]

    def _check_phase(self, phase: Phase, keys: Sequence[Tuple[str, Arm]]) -> None:
        """Compare the kept bodies of a phase with the pipeline's answers."""
        for outcome in phase.outcomes:
            if outcome.body is None:
                continue
            query, (function, paper_set) = keys[outcome.index]
            if json.loads(outcome.body)["hits"] != self._reference(query, function, paper_set):
                phase.wrong += 1
                self.problems.append(f"{phase.name}: answer for {query!r} differs")
        self.attempted += phase.sent
        self.failed += phase.failed
        if phase.failed > phase.wrong:
            self.problems.append(f"{phase.name}: {phase.failed - phase.wrong} requests failed")
        self.log.append(phase.summary())

    def _load_phase(self, name: str, rate: float, count: int) -> Phase:
        keys = self._stream(name, count)
        rng = random.Random(_seed_for(self.seed, name + ":check"))
        checked = set(rng.sample(range(count), max(1, int(count * CHECK_SHARE))))
        phase = run_open_loop(
            self.server.host, self.server.port, self._paths(keys), rate, name,
            connections=CONNECTIONS, keep_bodies=checked.__contains__,
        )
        self._check_phase(phase, keys)
        return phase

    def _unloaded_pass(self) -> List[Tuple[Tuple[str, Arm], float]]:
        """One client, one request at a time: (key, latency seconds) per request."""
        keys = self._stream("unloaded", UNLOADED_REQUESTS)
        timings = []
        for query, (function, paper_set) in keys:
            started = time.perf_counter()
            status, _ = self.server.get(ServerProcess.search_path(query, function, paper_set))
            timings.append(((query, (function, paper_set)), time.perf_counter() - started))
            self._op(status == 200, f"unloaded request answered {status}")
        return timings

    def _load(self) -> Phase:
        """The fixed-rate window and, in a traced run, the capacity search.

        The window is sent as WINDOW_BURSTS bursts, BURST_GAP_S apart (or
        between the capacity steps), so it samples the host at several
        moments of the run.  Each burst offers the workload's rate divided
        by the host factor read just before it -- the same load relative to
        what the host can do right now -- and its percentiles are divided by
        the mean factor around it (both CPUs: the client's share of a
        request runs on the benchmark's).  The reported percentiles are
        medians over the bursts, so a host stall during one or two bursts
        does not set them.
        """
        rate = self.workload.rate
        total = max(math.ceil(rate * self.seconds), WINDOW_BURSTS * samples_needed(LATENCY_TAIL))
        sizes = [total // WINDOW_BURSTS + (i < total % WINDOW_BURSTS) for i in range(WINDOW_BURSTS)]
        bursts: List[Phase] = []
        percentiles: Dict[int, List[float]] = {50: [], LATENCY_TAIL: []}
        cache = {"search.cache.hit": 0.0, "search.cache.miss": 0.0}

        def host_factor() -> float:
            return statistics.mean(self.clock.factor(cpu) for cpu in set(self.cpus.values()))

        def burst() -> None:
            if len(bursts) == len(sizes):
                return
            before = self.server.metrics()
            factor = host_factor()
            phase = self._load_phase(f"window{len(bursts) + 1}", rate / factor, sizes[len(bursts)])
            factor = (factor + host_factor()) / 2
            bursts.append(phase)
            latencies = phase.latencies_ms()
            for pct, values in percentiles.items():
                values.append(percentile(latencies, pct) / factor)
            after = self.server.metrics()
            for name in cache:
                cache[name] += after.get(name, 0.0) - before.get(name, 0.0)

        if self.trace:
            self._capacity(burst)
        while len(bursts) < len(sizes):
            time.sleep(BURST_GAP_S)
            burst()
        window = Phase(name="window", rate=rate, outcomes=[o for b in bursts for o in b.outcomes])
        self._record_cache(cache["search.cache.hit"], cache["search.cache.miss"])
        measured = window.latencies_ms()
        for pct, values in percentiles.items():
            self._metric(f"latency_p{pct}_ms", statistics.median(values), "ms",
                         percentile(measured, pct))
        self.log.append(
            f"window over {len(measured)} requests in {len(bursts)} bursts: pooled p99 "
            f"{percentile(measured, 99):.3f} ms as measured; per-burst p{LATENCY_TAIL} "
            + ", ".join(f"{v:.3f}" for v in percentiles[LATENCY_TAIL]) + " ms at reference speed"
        )
        return window

    def _capacity(self, between: Callable[[], None]) -> None:
        """Saturate the server to bracket its capacity, then bisect the bracket.

        ``between()`` runs before every step (a burst of the window).  The
        rates are offered as they are; the result is multiplied by the
        median factor of the server CPU read before each step.
        """
        server = self.cpus["server"]
        rate = self.workload.rate
        factors: List[float] = []
        throughput = 0.0
        offer = SATURATION_OFFER * rate
        saturated_tries = 0
        for attempt in range(1, 5):
            between()
            factors.append(self.clock.factor(server))
            phase = self._load_phase(
                f"saturation{attempt}", offer / factors[-1],
                math.ceil(offer / SATURATION_OFFER * 2 * CAPACITY_STEP_S),
            )
            # The higher of two saturated tries: a host stall during one
            # must not lower the ceiling the bisection starts from.
            throughput = max(throughput, phase.achieved_qps())
            if not phase.backlog_growing():
                offer *= 2  # the server kept up: offer more
                continue
            saturated_tries += 1
            if saturated_tries == 2:
                break
        step = [0]

        def probe(rate: float) -> Phase:
            step[0] += 1
            between()
            factors.append(self.clock.factor(server))
            return self._load_phase(
                f"capacity{step[0]}", rate, math.ceil(rate * CAPACITY_STEP_S)
            )

        capacity, _ = search_capacity(
            probe, CAPACITY_FLOOR * throughput, throughput, CAPACITY_BISECTIONS
        )
        self.log.append(f"saturation throughput {throughput:.1f} req/s")
        self.log.append(f"capacity {capacity:.1f} req/s as measured")
        self._layer("capacity_qps", capacity * statistics.median(factors), "req/s")

    # -- 5. ingest ----------------------------------------------------------------------

    def _pick_papers(self, count: int) -> List[str]:
        """Non-training papers that their own title finds on every arm."""
        rng = random.Random(_seed_for(self.seed, "delta-papers"))
        corpus = self.pipeline.corpus
        candidates = [pid for pid in corpus.paper_ids() if pid not in self.training_ids]
        rng.shuffle(candidates)
        chosen = []
        for pid in candidates:
            title = corpus.paper(pid).title
            if all(
                any(hit["paper_id"] == pid for hit in self._reference(title, *arm, PROBE_TOP_K))
                for arm in self.workload.arms
            ):
                chosen.append(pid)
                if len(chosen) == count:
                    return chosen
        raise RuntimeError(f"only {len(chosen)} of {count} probe-able papers found")

    def _plan_delta(self) -> dict:
        """The delta's body plus the (probe, paper) pairs that must be found or absent."""
        corpus = self.pipeline.corpus
        added, removed, replaced = DELTA
        pool = [corpus.paper(pid) for pid in self._pick_papers(added + removed + 2 * replaced)]
        plan: dict = {"add": [], "remove": [], "present": [], "absent": []}
        for serial in range(added):
            source = pool.pop()
            plan["add"].append(dict(source.to_dict(), paper_id=f"BENCH{serial:04d}"))
            plan["present"].append((source.title, f"BENCH{serial:04d}"))
        for _ in range(removed):
            target = pool.pop()
            plan["remove"].append(target.paper_id)
            plan["absent"].append((target.title, target.paper_id))
        for _ in range(replaced):
            target, source = pool.pop(), pool.pop()
            plan["remove"].append(target.paper_id)
            plan["add"].append(dict(source.to_dict(), paper_id=target.paper_id))
            plan["present"].append((source.title, target.paper_id))
        return plan

    def _arm_shows(self, plan: dict, arm: Arm) -> bool:
        def found(probe: str, paper_id: str) -> bool:
            hits = self.server.search(probe, *arm, PROBE_TOP_K)
            return any(hit["paper_id"] == paper_id for hit in hits)

        return all(found(probe, pid) for probe, pid in plan["present"]) and not any(
            found(probe, pid) for probe, pid in plan["absent"]
        )

    def _ingest(self) -> None:
        """One delta through ``POST /admin/ingest``, then every arm until it shows it."""
        plan = self._plan_delta()
        before = self.server.metrics()
        server = self.cpus["server"]
        clock = self.clock
        with self.tracer.span("ingest", request="delta"):
            with clock.step("substrate.delta_apply", server), \
                    self.tracer.span("substrate.delta_apply"):
                self.server.ingest(plan["add"], plan["remove"])
            self._op(True)
            for arm in self.workload.arms:
                # The first search of an arm after the delta pays its lazy
                # re-score (or, for the pattern set, rebuild).
                with clock.step(f"substrate.delta_rescore_{arm[0]}", server), \
                        self.tracer.span(f"substrate.delta_rescore.{arm[0]}_{arm[1]}"):
                    shown = self._arm_shows(plan, arm)
                deadline = time.monotonic() + POLL_TIMEOUT_S
                while not shown and time.monotonic() < deadline:
                    with clock.step("substrate.delta_poll", server):
                        time.sleep(0.05)
                        shown = self._arm_shows(plan, arm)
                self._op(shown, f"the delta is not visible on {arm[0]}/{arm[1]}")
        after = self.server.metrics()
        wall, scaled = clock.total(INGEST_STEPS)
        self._metric("ingest_to_searchable_s", scaled, "s", wall)
        for name in INGEST_STEPS[:-1]:
            self._layer(f"{name}_s", clock.scaled(name), "s")
        for kind in ("patched", "dropped"):
            name = f"substrate.delta.scores_{kind}"
            self._layer(f"substrate.delta_scores_{kind}",
                        after.get(name, 0.0) - before.get(name, 0.0), "count")

    # -- traced-run extras ---------------------------------------------------------------

    def _trace_reopen(self) -> None:
        """Reopen the written workspace in this process; it must answer as its builder."""
        from repro.pipeline import Pipeline

        with self.clock.step("workspace.open", self.cpus["bench"]), \
                self.tracer.span("workspace.open", request="reopen"):
            reopened = Pipeline.open_workspace(
                self.data_dir, strict=self.workload.artifacts is None, result_cache_size=0
            )
        from repro.serving.service import hit_to_dict

        for query, (function, paper_set) in self.keys[:20]:
            hits = reopened.search(query, function=function, paper_set_name=paper_set, limit=10)
            self._op([hit_to_dict(h) for h in hits] == self._reference(query, function, paper_set),
                     f"reopened workspace answers {query!r} differently")
        self._layer("workspace.open_s", self.clock.scaled("workspace.open"), "s")
        del reopened

    def _trace_replay(self, unloaded) -> None:
        """The unloaded requests again, in process: untraced, then traced by layer."""
        from repro.core.search import ContextSearchEngine
        from repro.index.search import KeywordSearchEngine
        from repro.obs.metrics import get_registry
        from repro.pipeline import Pipeline
        from repro.serving.service import hit_to_dict

        pipeline = self.pipeline
        keys = [key for key, _ in unloaded]

        def answer(query, function, paper_set):
            hits = pipeline.search(query, function=function, paper_set_name=paper_set, limit=10)
            return hits

        def serialize(hits):
            return json.dumps({"hits": [hit_to_dict(hit) for hit in hits]}, sort_keys=True)

        def untraced_pass() -> List[float]:
            pipeline.serving_view.result_cache.clear()
            timings = []
            for query, (function, paper_set) in keys:
                started = time.perf_counter()
                serialize(answer(query, function, paper_set))
                timings.append(time.perf_counter() - started)
            return timings

        before = get_registry().snapshot()["counters"]
        first = untraced_pass()
        after = get_registry().snapshot()["counters"]
        counts = {name: after.get(name, 0) - before.get(name, 0) for name in after}

        pipeline.serving_view.result_cache.clear()
        targets = [
            (Pipeline, "search", "pipeline.search"),
            (ContextSearchEngine, "search", "search.search"),
            (ContextSearchEngine, "select_contexts", "search.select_contexts"),
            (KeywordSearchEngine, "evaluate", "index.evaluate"),
        ]
        requests = []
        with self.tracer.patched(targets):
            for number, (query, (function, paper_set)) in enumerate(keys):
                mark = len(self.tracer.spans)
                with self.tracer.span("request", request=f"q{number}") as request:
                    hits = answer(query, function, paper_set)
                    with self.tracer.span("service.serialize"):
                        serialize(hits)
                requests.append(request)
                if any(s.name == "search.search" for s in self.tracer.spans[mark:]):
                    # Selection runs inside search through a private step; the
                    # public call times the same work on the same query.
                    with self.tracer.span("request.select", request=f"q{number}"):
                        pipeline.search_engine(function, paper_set).select_contexts(query)
        # Untraced passes before and after the traced one, so warm-up
        # order does not show up as tracing overhead.
        plain = [(a + b) / 2 for a, b in zip(first, untraced_pass())]

        spans = [s for s in self.tracer.spans if s.request.startswith("q")]
        selfs = self_times(spans)
        by_id = {s.span_id: s for s in spans}

        def under(record, root_name):
            while record.parent is not None:
                record = by_id[record.parent]
                if record.name == root_name:
                    return True
            return False

        def total(name, root_name="request"):
            return sum(selfs[s.span_id] for s in spans if s.name == name and under(s, root_name))

        n = len(keys)
        evaluate = total("index.evaluate")
        select = total("search.select_contexts", "request.select")
        search = total("search.search")
        layers = {
            "index.evaluate_ms": evaluate,
            "search.select_ms": select,
            "search.score_merge_ms": search - select,
            "pipeline.search_ms": total("pipeline.search"),
            "service.serialize_ms": total("service.serialize"),
        }
        for name, seconds in layers.items():
            self._layer(name, seconds / n * 1000.0, "ms")
        untraced_ms = statistics.median(plain) * 1000.0
        # Paired per request, so each request's own cost cancels out.
        overhead_ms = statistics.median(
            (r.duration - t) * 1000.0 for r, t in zip(requests, plain)
        )
        unloaded = [latency * 1000.0 for _, latency in unloaded]
        self._layer("service.http_ms", statistics.median(unloaded) - untraced_ms, "ms")
        self._layer("trace.overhead_ms", overhead_ms, "ms")
        self.unloaded_ms = statistics.mean(unloaded)
        self._layer("trace.request_attributed_frac",
                    sum(layers.values()) / n * 1000.0 / (self.unloaded_ms + overhead_ms), "ratio")

        queries = counts.get("index.keyword.queries", 0)
        scored_queries = counts.get("search.context.queries", 0)
        papers_scored = counts.get("search.context.papers_scored", 0)
        self._layer("index.queries_evaluated", float(queries), "count")
        self._layer("index.postings_per_query",
                    counts.get("index.keyword.postings_scanned", 0) / queries if queries else 0.0,
                    "count")
        self._layer("search.queries_scored", float(scored_queries), "count")
        self._layer("search.papers_scored_per_query",
                    papers_scored / scored_queries if scored_queries else 0.0, "count")
        self._layer("search.dedup_ratio",
                    counts.get("search.context.merge_deduped", 0) / papers_scored
                    if papers_scored else 0.0, "ratio")
        self._trace_build()

    def _trace_build(self) -> None:
        """Per-layer build times (scaled like ``build_to_answer_s``) and counts."""
        for name in BUILD_LAYERS:
            self._layer(f"{name}_s", self.clock.scaled(name), "s")
        self._layer("trace.build_attributed_frac",
                    self.clock.total(BUILD_LAYERS)[0] / self.clock.total(BUILD_STEPS)[0], "ratio")
        counts = self.build_counts
        mined = counts.get("patterns.builder.mined", 0)
        self._layer("patterns.mined", float(mined), "count")
        self._layer("patterns.kept_ratio",
                    counts.get("patterns.builder.kept", 0) / mined if mined else 0.0, "ratio")
        self._layer("assignment.text_memberships",
                    float(counts.get("assignment.text.papers_assigned", 0)), "count")
        self._layer("assignment.pattern_memberships",
                    float(counts.get("assignment.pattern.papers_assigned", 0)), "count")

    def _trace_wait(self, window: Phase) -> None:
        """Queue wait and generator lateness in the fixed-rate window, cache hits."""
        ok = [o for o in window.outcomes if o.error is None and o.status == 200]
        loaded_ms = statistics.mean(o.latency_ms for o in ok)
        self._layer("service.wait_ms", loaded_ms - self.unloaded_ms, "ms")
        self._layer("loadgen.lateness_ms", statistics.mean(o.lateness_ms for o in window.outcomes), "ms")

    def _record_cache(self, hits: float, misses: float) -> None:
        lookups = hits + misses
        self._layer("view.cache_lookups", lookups, "count")
        self._layer("view.cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio")
        self.log.append(
            f"result cache over the window: {hits:.0f} hits of {lookups:.0f} lookups"
            + (f" (hit ratio {hits / lookups:.3f})" if lookups else " (cache off)")
        )


def _build_steps(store, arms: Sequence[Arm]) -> List[Tuple[str, Callable]]:
    """(span name, public call) for each build-layer step, in dependency order."""
    steps: List[Tuple[str, Callable]] = [
        ("index.build", lambda: store.index),
        ("citations.graph", lambda: store.citation_graph),
        ("assignment.text", lambda: store.text_paper_set),
    ]
    if any(paper_set == "pattern" for _, paper_set in arms):
        steps.append(("assignment.pattern", lambda: store.pattern_paper_set))
    for function, paper_set in arms:
        steps.append((SCORE_LAYER[(function, paper_set)],
                      lambda f=function, p=paper_set: store.prestige(f, p)))
    return steps


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
