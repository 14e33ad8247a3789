"""Percentile rule, Zipf determinism and the capacity search."""

import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from loadgen import (
    Outcome,
    Phase,
    ZipfSampler,
    parse_prometheus,
    percentile,
    run_open_loop,
    samples_beyond,
    samples_needed,
    search_capacity,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0

    def test_order_of_input_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 40) == 2

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_ten_samples_beyond_p99_need_a_thousand(self):
        assert samples_beyond(1000, 99) == 10
        assert samples_beyond(999, 99) == 9
        assert samples_needed(99) == 1000
        assert samples_needed(50) == 20


class TestZipf:
    def test_same_seed_same_stream(self):
        assert ZipfSampler(1024, 1.0, 7).draws(500) == ZipfSampler(1024, 1.0, 7).draws(500)

    def test_other_seed_other_stream(self):
        assert ZipfSampler(1024, 1.0, 7).draws(500) != ZipfSampler(1024, 1.0, 8).draws(500)

    def test_skew_follows_rank(self):
        counts = Counter(ZipfSampler(100, 1.0, 3).draws(20000))
        assert set(counts) <= set(range(100))
        # P(rank 0) / P(rank 1) = 2 for exponent 1.
        assert 1.7 < counts[0] / counts[1] < 2.3
        assert counts[0] > counts[9] > counts[99]


def _phase(rate, passed):
    """A synthetic phase that meets (or misses) the 50 ms limit."""
    latency = 0.005 if passed else 0.2
    phase = Phase(name=f"at{rate:g}", rate=rate)
    phase.outcomes = [
        Outcome(index=i, path="/", due=i / rate, start=i / rate,
                end=i / rate + latency, status=200)
        for i in range(100)
    ]
    return phase


class TestCapacitySearch:
    @pytest.mark.parametrize("capacity", [75.0, 90.0, 100.0, 119.0])
    def test_converges_on_the_threshold(self, capacity):
        found, phases = search_capacity(lambda rate: _phase(rate, rate <= capacity), 70.0, 120.0, 5)
        assert capacity / 1.02 < found <= capacity
        assert 5 <= len(phases) <= 10

    def test_one_failed_try_is_retried(self):
        tries = []

        def probe(rate):
            tries.append(rate)
            # Every rate fails its first try; only the retry shows the truth.
            return _phase(rate, rate <= 100.0 and tries.count(rate) > 1)

        found, _ = search_capacity(probe, 70.0, 120.0, 4)
        assert 100.0 / 1.05 < found <= 100.0

    def test_walks_below_the_bracket(self):
        found, _ = search_capacity(lambda rate: _phase(rate, rate <= 20.0), 70.0, 120.0, 3)
        assert found == pytest.approx(17.5)

    def test_nothing_passes(self):
        found, _ = search_capacity(lambda rate: _phase(rate, False), 50.0, 130.0, 3)
        assert found == 0.0

    def test_against_a_stub_server(self):
        """A server that answers one request at a time in 10 ms tops out near 100 req/s."""
        lock = threading.Lock()

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802
                with lock:
                    time.sleep(0.010)
                self.send_response(200)
                self.send_header("Content-Length", "2")
                self.end_headers()
                self.wfile.write(b"{}")

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            saturated = run_open_loop(host, port, ["/"] * 60, 400.0, "saturation")
            ceiling = saturated.achieved_qps()

            def probe(rate):
                return run_open_loop(host, port, ["/"] * 60, rate, f"at{rate:g}")

            found, phases = search_capacity(probe, 0.5 * ceiling, ceiling, 3)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert 70.0 < ceiling <= 101.0
        assert all(phase.failed == 0 for phase in phases)
        assert 0.5 * ceiling <= found < ceiling


class TestPhase:
    def test_counts_and_backlog(self):
        phase = Phase(name="p", rate=100.0)
        phase.outcomes = [
            Outcome(index=i, path="/", due=i / 100, start=i / 100 + i * 0.002,
                    end=i / 100 + i * 0.002 + 0.004, status=200 if i % 10 else 429)
            for i in range(100)
        ]
        assert phase.sent == 100
        assert phase.shed == 10
        assert phase.failed == 10
        assert phase.succeeded == 90
        assert phase.backlog_growing()
        assert not phase.meets_limit()

    def test_open_loop_against_nothing_fails_every_request(self):
        phase = run_open_loop("127.0.0.1", 9, ["/"] * 5, 100.0, "closed")
        assert phase.failed == 5


def test_parse_prometheus_reads_counters_and_gauges():
    text = (
        "# HELP search_cache_hit_total counter search.cache.hit\n"
        "# TYPE search_cache_hit_total counter\n"
        "search_cache_hit_total 12\n"
        "# HELP serving_view_revision gauge serving.view.revision\n"
        "# TYPE serving_view_revision gauge\n"
        "serving_view_revision 3.0\n"
        "# HELP x_latency summary x.y.latency\n"
        'x_latency{quantile="0.5"} 0.1\n'
    )
    assert parse_prometheus(text) == {"search.cache.hit": 12.0, "serving.view.revision": 3.0}
