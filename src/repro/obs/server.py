"""Stdlib HTTP exposition endpoint: ``/metrics``, ``/health``, ``/slo``.

The observability substrate the search service mounts:
:class:`repro.serving.service.SearchService` (``repro serve``)
subclasses it to add the query endpoints on the same listener.  Routes:

- ``GET /metrics``  -- Prometheus text exposition of the process-wide
  registry (:mod:`repro.obs.prom`);
- ``GET /health``   -- JSON liveness: status, uptime, serving-view
  revision/age when a pipeline is attached;
- ``GET /slo``      -- JSON list of declared objectives evaluated over
  the rolling window (:mod:`repro.obs.slo`), with error budgets;
- ``GET /slowlog``  -- JSON dump of the slow-query log (slowest first).

Built on :class:`http.server.ThreadingHTTPServer` so a slow scraper
cannot block a health probe.  *Collectors* -- zero-arg callables such as
``ServingView.export_gauges`` -- run at the top of every scrape, which is
how point-in-time gauges (view age, cache hit rate) stay current without
a background refresher thread.

Routing lives in :meth:`ExpositionServer.dispatch`, which maps
``(method, path, params)`` to a :class:`Response`; subclasses add
endpoints by overriding it and falling back to ``super().dispatch``
for everything they don't handle.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.obs.prom import render_prometheus
from repro.obs.request import get_telemetry

__all__ = ["ExpositionServer", "Response", "json_response"]

_log = get_logger("obs.server")


@dataclass(frozen=True)
class Response:
    """One HTTP response as the dispatch layer produces it."""

    status: int
    content_type: str
    body: str
    headers: Dict[str, str] = field(default_factory=dict)


def json_response(
    payload: Dict[str, Any], status: int = 200, **headers: str
) -> Response:
    """A sorted-key JSON response (the service's canonical encoding)."""
    return Response(
        status=status,
        content_type="application/json",
        body=json.dumps(payload, sort_keys=True) + "\n",
        headers={key.replace("_", "-"): value for key, value in headers.items()},
    )


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"
    #: Set by ExpositionServer on the server instance; read via self.server.
    exposition: "ExpositionServer"

    def _handle(self, method: str) -> None:
        exposition = self.server.exposition  # type: ignore[attr-defined]
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path.rstrip("/") or "/"
        params = urllib.parse.parse_qs(parsed.query)
        try:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length).decode("utf-8") if length > 0 else None
            response = exposition.dispatch(method, path, params, body)
            if response is None:
                response = json_response(
                    {"error": f"no route {method} {path!r}"}, status=404
                )
        except Exception as error:  # surface handler bugs to the scraper
            response = json_response(
                {"error": f"{type(error).__name__}: {error}"}, status=500
            )
        self._respond(response)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle("POST")

    def _respond(self, response: Response) -> None:
        payload = response.body.encode("utf-8")
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:
        _log.debug("http.request", detail=format % args)


class ExpositionServer:
    """Owns the HTTP server plus the scrape-time gauge collectors.

    ``port=0`` binds an ephemeral port (tests); the socket is bound in
    the constructor, so :attr:`port` reflects the *actual* bound port
    from construction on -- never the ``0`` that was asked for.
    ``allow_reuse_address`` is set before the bind, so a stop/start
    cycle on the same port cannot intermittently fail with
    ``EADDRINUSE`` while the old socket lingers in ``TIME_WAIT``.
    ``collectors`` run (exceptions swallowed per collector) before every
    ``/metrics`` scrape and ``/health`` probe so exported gauges reflect
    scrape time.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9188,
        collectors: Sequence[Callable[[], Any]] = (),
        health_info: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.collectors = list(collectors)
        self.health_info = health_info
        self.started_at = time.monotonic()
        # Bind in two steps so socket options are set *before* bind():
        # with bind_and_activate=True the option would land too late to
        # matter for the rebind race.
        self._httpd = ThreadingHTTPServer(
            (host, port), _Handler, bind_and_activate=False
        )
        self._httpd.allow_reuse_address = True
        self._httpd.daemon_threads = True
        self._httpd.exposition = self  # type: ignore[attr-defined]
        try:
            self._httpd.server_bind()
            self._httpd.server_activate()
        except OSError:
            self._httpd.server_close()
            raise
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The actually-bound port (resolved even when asked for 0)."""
        return self._httpd.server_address[1]

    # -- routing ---------------------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        params: Dict[str, List[str]],
        body: Optional[str] = None,
    ) -> Optional[Response]:
        """Map one request to a :class:`Response`; None means 404.

        Subclasses add routes by overriding this and delegating unknown
        paths to ``super().dispatch`` -- that is how the search service
        serves ``/search`` and ``/metrics`` from one listener.  ``body``
        carries the decoded request body of a POST (None when absent);
        the observability routes themselves never read it.
        """
        if method != "GET":
            return None
        if path == "/metrics":
            return Response(
                status=200,
                content_type="text/plain; version=0.0.4; charset=utf-8",
                body=self.render_metrics(),
            )
        if path == "/health":
            return Response(
                status=200,
                content_type="application/json",
                body=self.render_health(),
            )
        if path == "/slo":
            return Response(
                status=200,
                content_type="application/json",
                body=self.render_slo(),
            )
        if path == "/slowlog":
            return Response(
                status=200,
                content_type="application/json",
                body=self.render_slowlog(),
            )
        return None

    # -- rendering (also used directly by tests) -------------------------------------

    def _collect(self) -> None:
        for collector in self.collectors:
            try:
                collector()
            except Exception as error:
                _log.warning(
                    "collector.failed", collector=repr(collector), error=str(error)
                )

    def render_metrics(self) -> str:
        self._collect()
        return render_prometheus(get_registry().snapshot())

    def render_health(self) -> str:
        self._collect()
        info: Dict[str, Any] = {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
        }
        if self.health_info is not None:
            try:
                info.update(self.health_info())
            except Exception as error:
                info["status"] = "degraded"
                info["error"] = f"{type(error).__name__}: {error}"
        return json.dumps(info, sort_keys=True) + "\n"

    def render_slo(self) -> str:
        statuses = [
            status.to_dict() for status in get_telemetry().slo_statuses()
        ]
        return json.dumps({"slo": statuses}, sort_keys=True) + "\n"

    def render_slowlog(self) -> str:
        return (
            json.dumps(
                {"slowlog": get_telemetry().slowlog.to_dicts()},
                sort_keys=True,
            )
            + "\n"
        )

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "ExpositionServer":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("exposition server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-http",
            daemon=True,
        )
        self._thread.start()
        _log.info("serving", host=self.host, port=self.port)
        return self

    def stop(self) -> None:
        """Stop serving and release the port (safe before ``start`` too).

        ``shutdown()`` blocks until ``serve_forever`` acknowledges, so it
        must only run when the serve thread exists -- the socket is bound
        at construction, and a constructed-but-never-started server still
        needs ``stop()`` to release it.
        """
        if self._thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ExpositionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
