"""Query analytics, shadow scoring, and reload drift (`repro.serving.analytics`).

Three layers:

- ``QueryAnalytics`` reads the telemetry event window (the one the SLOs
  read) and reports volumes / zero-result rate / term and score
  distributions, both as a JSON snapshot and as scrape-time gauges;
- ``ShadowScorer`` samples live requests onto a worker thread and
  records rank agreement between the primary ranking and every other
  registered score function, without touching the hot path's caches;
- ``Pipeline.configure_drift`` pins probe-query rankings and gates
  ``refresh()`` on the churn of the candidate view against them.
"""

import queue

import pytest

from repro.core.scores import PrestigeScores
from repro.obs import configure_telemetry, get_registry, get_telemetry
from repro.obs import request as request_module
from repro.obs.quality import DriftExceeded
from repro.pipeline import build_demo_pipeline
from repro.serving.analytics import QueryAnalytics, ShadowScorer

QUERY = "gene expression regulation"


def _finish(kind="search", query="", **attrs):
    """Run one request through the live telemetry, reporting ``attrs``."""
    with get_telemetry().request(kind, query=query) as request:
        request.set(**attrs)


@pytest.fixture
def telemetry():
    """Enabled telemetry: its event window is the analytics window."""
    return configure_telemetry(enabled=True, sample_rate=0.0, seed=3)


@pytest.fixture(scope="module")
def pipeline():
    return build_demo_pipeline(seed=7, n_papers=120, n_terms=30)


@pytest.fixture
def fresh_pipeline():
    """Function-scoped: drift tests mutate the substrate store."""
    return build_demo_pipeline(seed=7, n_papers=120, n_terms=30)


def _invert_text_scores(pipeline, query, top_n=5):
    """Install perturbed text scores that demote the current top hits."""
    store = pipeline.substrates
    engine = pipeline.serving_view.engine("text", "text", "probe")
    top_ids = {hit.paper_id for hit in engine.search(query, limit=top_n)}
    old = store.scores["text/text"]
    perturbed = {
        ctx: {
            pid: (0.001 if pid in top_ids else value + 10.0)
            for pid, value in old.of(ctx).items()
        }
        for ctx in old.context_ids()
    }
    store.install_scores("text/text", PrestigeScores("text", perturbed))


class TestQueryAnalytics:
    def test_snapshot_aggregates_the_window(self, telemetry):
        analytics = QueryAnalytics(window_s=60.0)
        _finish("search", "gene expression", hits=7, top_score=0.9,
                function="text")
        _finish("search", "gene therapy", hits=0, function="citation")
        _finish("explain", "dna", function="text")
        snap = analytics.snapshot()
        assert snap["queries"] == 3
        assert snap["by_kind"] == {"search": 2, "explain": 1}
        assert snap["by_function"] == {"text": 2, "citation": 1}
        assert snap["counted_results"] == 2
        assert snap["zero_results"] == 1
        assert snap["zero_result_rate"] == 0.5
        assert snap["result_counts"]["0"] == 1
        assert snap["result_counts"]["6-10"] == 1
        assert {"term": "gene", "count": 2} in snap["top_terms"]
        assert snap["top_score"]["samples"] == 1
        assert snap["top_score"]["max"] == 0.9

    def test_zero_result_rate_none_without_counted_results(self, telemetry):
        analytics = QueryAnalytics()
        _finish("explain", "dna")
        assert analytics.snapshot()["zero_result_rate"] is None

    def test_window_prunes_old_entries(self, telemetry):
        analytics = QueryAnalytics(window_s=10.0)
        _finish("search", "old", hits=1)
        stale_at = telemetry.events()[0].ts + 11.0
        assert analytics.snapshot(now=stale_at)["queries"] == 0

    def test_bounded_event_buffer(self, monkeypatch):
        monkeypatch.setattr(request_module, "_MAX_WINDOW_EVENTS", 4)
        configure_telemetry(enabled=True, sample_rate=0.0, seed=3)
        analytics = QueryAnalytics()
        for index in range(10):
            _finish("search", f"q{index}", hits=1)
        assert analytics.snapshot()["queries"] == 4

    def test_counters_and_histograms_recorded(self, telemetry):
        analytics = QueryAnalytics()
        telemetry.add_listener(analytics.observe)
        _finish("search", "a", hits=0)
        _finish("search", "b", hits=3, top_score=0.5)
        counters = get_registry().snapshot()["counters"]
        assert counters["search.analytics.queries"] == 2
        assert counters["search.analytics.zero_results"] == 1

    def test_export_gauges(self, telemetry):
        analytics = QueryAnalytics()
        _finish("search", "a", hits=0, function="text")
        _finish("search", "b", hits=2, function="Weird Fn!")
        analytics.export_gauges()
        gauges = get_registry().snapshot()["gauges"]
        assert gauges["search.analytics.window_queries"] == 2
        assert gauges["search.analytics.zero_result_rate"] == 0.5
        assert gauges["search.analytics.text.queries"] == 1
        # Function names are sanitised into metric segments.
        assert gauges["search.analytics.weird_fn.queries"] == 1

    def test_zero_result_gauge_absent_without_counted(self, telemetry):
        analytics = QueryAnalytics()
        _finish("explain", "dna")
        analytics.export_gauges()
        gauges = get_registry().snapshot()["gauges"]
        assert "search.analytics.zero_result_rate" not in gauges

    def test_constructor_validation(self, monkeypatch):
        with pytest.raises(ValueError, match="window_s"):
            QueryAnalytics(window_s=0.0)
        # The window's cap is the telemetry window's, not an analytics
        # option: at a cap of one only the newest request is reported.
        monkeypatch.setattr(request_module, "_MAX_WINDOW_EVENTS", 1)
        configure_telemetry(enabled=True, sample_rate=0.0, seed=3)
        _finish("search", "first", hits=1)
        _finish("search", "second", hits=1)
        snap = QueryAnalytics().snapshot()
        assert snap["queries"] == 1
        assert snap["top_terms"] == [{"term": "second", "count": 1}]

    def test_analytics_and_slo_count_the_same_window(self, telemetry):
        """Past the old 8,192-event analytics cap the two still agree."""
        analytics = QueryAnalytics()
        telemetry.add_listener(analytics.observe)
        for _ in range(9000):
            with telemetry.request("search", query="gene"):
                pass
        events = telemetry.events()
        assert len(events) == 9000
        assert analytics.snapshot()["queries"] == len(events)
        (errors,) = [
            status for status in telemetry.slo_statuses()
            if status.slo.kind == "error_rate"
        ]
        assert errors.total == len(events)

    def test_batch_requests_contribute_no_terms(self, telemetry, pipeline):
        analytics = QueryAnalytics()
        telemetry.add_listener(analytics.observe)
        queries = [QUERY, "dna repair", "cell cycle"]
        pipeline.search_many(queries, limit=5)
        pipeline.search_many(queries, limit=5)
        snap = analytics.snapshot()
        assert snap["by_kind"] == {"search_many": 2}
        assert snap["top_terms"] == []


class TestTelemetryListener:
    def test_listener_sees_finished_searches_including_cache_hits(
        self, pipeline
    ):
        configure_telemetry(enabled=True, sample_rate=0.0, seed=3)
        analytics = QueryAnalytics()
        get_telemetry().add_listener(analytics.observe)
        pipeline.search(QUERY, limit=5)
        pipeline.search(QUERY, limit=5)  # result-cache hit
        snap = analytics.snapshot()
        assert snap["queries"] == 2
        assert snap["counted_results"] == 2
        assert snap["zero_result_rate"] == 0.0

    def test_listener_exception_is_swallowed_and_counted(self, pipeline):
        configure_telemetry(enabled=True, sample_rate=0.0, seed=3)

        def bad_listener(record):
            raise RuntimeError("boom")

        get_telemetry().add_listener(bad_listener)
        pipeline.search(QUERY, limit=5)  # must not raise
        counters = get_registry().snapshot()["counters"]
        assert counters["telemetry.listener.errors"] >= 1

    def test_disabled_telemetry_never_calls_listeners(self, pipeline):
        calls = []
        get_telemetry().add_listener(lambda record: calls.append(record))
        pipeline.search(QUERY, limit=5)
        assert calls == []


class TestShadowScorer:
    def test_unknown_function_rejected(self, pipeline):
        with pytest.raises(ValueError, match="no-such-fn"):
            ShadowScorer(pipeline, ["no-such-fn"])

    def test_sample_rate_validated(self, pipeline):
        with pytest.raises(ValueError, match="sample_rate"):
            ShadowScorer(pipeline, ["citation"], sample_rate=1.5)

    def test_sampled_request_records_agreement(self, pipeline):
        scorer = ShadowScorer(
            pipeline, ["citation"], sample_rate=1.0, k=10, seed=5
        ).start()
        try:
            view = pipeline.serving_view
            hits = pipeline.search(QUERY, limit=10, use_cache=False)
            accepted = scorer.offer(
                query=QUERY, function="text", paper_set="text",
                strategy="probe", threshold=0.0,
                primary_ids=[hit.paper_id for hit in hits], view=view,
            )
            assert accepted
            assert scorer.drain(timeout_s=30.0)
        finally:
            scorer.stop()
        snap = scorer.snapshot()
        agreement = snap["agreement"]["citation"]
        assert agreement["samples"] == 1
        assert 0.0 <= agreement["mean_jaccard"] <= 1.0
        counters = get_registry().snapshot()["counters"]
        assert counters["search.shadow.sampled"] == 1
        assert counters["search.shadow.scored"] == 1
        histograms = get_registry().snapshot()["histograms"]
        assert "search.shadow.citation.jaccard" in histograms

    def test_primary_function_not_rescored_against_itself(self, pipeline):
        scorer = ShadowScorer(
            pipeline, ["text"], sample_rate=1.0, seed=5
        ).start()
        try:
            view = pipeline.serving_view
            hits = pipeline.search(QUERY, limit=10, use_cache=False)
            scorer.offer(
                query=QUERY, function="text", paper_set="text",
                strategy="probe", threshold=0.0,
                primary_ids=[hit.paper_id for hit in hits], view=view,
            )
            assert scorer.drain(timeout_s=30.0)
        finally:
            scorer.stop()
        counters = get_registry().snapshot()["counters"]
        assert counters.get("search.shadow.scored", 0) == 0

    def test_zero_sample_rate_never_enqueues(self, pipeline):
        scorer = ShadowScorer(pipeline, ["citation"], sample_rate=0.0, seed=5)
        view = pipeline.serving_view
        for _ in range(20):
            assert not scorer.offer(
                query=QUERY, function="text", paper_set="text",
                strategy="probe", threshold=0.0, primary_ids=[], view=view,
            )
        assert scorer.snapshot()["queued"] == 0

    def test_full_queue_drops_instead_of_blocking(self, pipeline):
        # Never started: the queue only fills.
        scorer = ShadowScorer(
            pipeline, ["citation"], sample_rate=1.0, queue_depth=2, seed=5
        )
        view = pipeline.serving_view
        offers = [
            scorer.offer(
                query=QUERY, function="text", paper_set="text",
                strategy="probe", threshold=0.0, primary_ids=["P1"],
                view=view,
            )
            for _ in range(4)
        ]
        assert offers == [True, True, False, False]
        counters = get_registry().snapshot()["counters"]
        assert counters["search.shadow.dropped"] == 2
        # Drain the unstarted queue so stop() has nothing to wait on.
        while True:
            try:
                scorer._queue.get_nowait()
            except queue.Empty:
                break


class TestReloadDrift:
    PROBES = [QUERY, "dna repair mechanism"]

    def test_configure_drift_validation(self, fresh_pipeline):
        with pytest.raises(ValueError, match="probe"):
            fresh_pipeline.configure_drift([])
        with pytest.raises(ValueError, match="unknown"):
            fresh_pipeline.configure_drift(self.PROBES, functions=["nope"])
        with pytest.raises(ValueError, match="k"):
            fresh_pipeline.configure_drift(self.PROBES, k=0)
        with pytest.raises(ValueError, match="max_drift"):
            fresh_pipeline.configure_drift(self.PROBES, max_drift=2.0)

    def test_configure_returns_zero_drift_self_report(self, fresh_pipeline):
        report = fresh_pipeline.configure_drift(self.PROBES)
        assert report.max_churn == 0.0
        assert fresh_pipeline.last_drift_report is report

    def test_identical_refresh_reports_zero_drift(self, fresh_pipeline):
        fresh_pipeline.configure_drift(self.PROBES, max_drift=0.2)
        fresh_pipeline.refresh(enforce_drift=True)
        assert fresh_pipeline.last_drift_report.max_churn == 0.0
        snapshot = get_registry().snapshot()
        assert snapshot["counters"]["serving.reload.drift.checks"] >= 1
        assert snapshot["gauges"]["serving.reload.drift.max_churn"] == 0.0

    def test_regression_is_refused_and_old_view_pinned(self, fresh_pipeline):
        fresh_pipeline.configure_drift(
            self.PROBES, functions=["text"], max_drift=0.2
        )
        view_before = fresh_pipeline.serving_view
        _invert_text_scores(fresh_pipeline, QUERY)
        with pytest.raises(DriftExceeded) as exc_info:
            fresh_pipeline.refresh(enforce_drift=True)
        assert exc_info.value.report.max_churn > 0.2
        # The hold pins the old view across automatic staleness refreshes.
        assert fresh_pipeline.serving_view is view_before
        counters = get_registry().snapshot()["counters"]
        assert counters["serving.reload.drift.refused"] >= 1

    def test_auto_refresh_honors_the_armed_gate(self, fresh_pipeline):
        fresh_pipeline.configure_drift(
            self.PROBES, functions=["text"], max_drift=0.2
        )
        view_before = fresh_pipeline.serving_view
        _invert_text_scores(fresh_pipeline, QUERY)
        # Property access (the auto-refresh path), not an explicit reload.
        assert fresh_pipeline.serving_view is view_before
        assert fresh_pipeline.last_drift_report.max_churn > 0.2

    def test_forced_refresh_swaps_and_rebaselines(self, fresh_pipeline):
        fresh_pipeline.configure_drift(
            self.PROBES, functions=["text"], max_drift=0.2
        )
        view_before = fresh_pipeline.serving_view
        _invert_text_scores(fresh_pipeline, QUERY)
        with pytest.raises(DriftExceeded):
            fresh_pipeline.refresh(enforce_drift=True)
        forced = fresh_pipeline.refresh(enforce_drift=False)
        assert forced is not view_before
        assert fresh_pipeline.serving_view is forced
        # The forced candidate became the new baseline: re-checking the
        # unchanged substrate is zero drift again.
        fresh_pipeline.refresh(enforce_drift=True)
        assert fresh_pipeline.last_drift_report.max_churn == 0.0

    def test_report_only_mode_swaps_but_records_drift(self, fresh_pipeline):
        fresh_pipeline.configure_drift(self.PROBES, functions=["text"])
        view_before = fresh_pipeline.serving_view
        _invert_text_scores(fresh_pipeline, QUERY)
        view = fresh_pipeline.refresh(enforce_drift=True)  # max_drift unset
        assert view is not view_before
        assert fresh_pipeline.last_drift_report.max_churn > 0.0

    def test_substrate_change_clears_the_hold(self, fresh_pipeline):
        fresh_pipeline.configure_drift(
            self.PROBES, functions=["text"], max_drift=0.2
        )
        _invert_text_scores(fresh_pipeline, QUERY)
        with pytest.raises(DriftExceeded):
            fresh_pipeline.refresh(enforce_drift=True)
        held = fresh_pipeline.serving_view
        # Another substrate mutation moves the revision past the hold;
        # this candidate drifts just as far, so the gate refuses again
        # (fresh evaluation, not a stale pin).
        _invert_text_scores(fresh_pipeline, "dna repair mechanism")
        assert fresh_pipeline.serving_view is held
        assert (
            get_registry().snapshot()["counters"][
                "serving.reload.drift.refused"
            ]
            >= 2
        )
