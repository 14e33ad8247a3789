"""The search service under test, run as ``repro serve`` in its own process."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import urlencode

from loadgen import http_get, http_post, parse_prometheus

_BANNER = re.compile(r"on http://([\d.]+):(\d+) ")


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """Starts ``repro serve`` on a data directory and talks to it over HTTP."""

    def __init__(
        self, src_dir: Path, data_dir: Path, log_dir: Path, result_cache: bool, cpu: int
    ) -> None:
        self.src_dir = src_dir
        self.cpu = cpu
        self.data_dir = data_dir
        self.log_dir = log_dir
        self.result_cache = result_cache
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout: float = 300.0) -> "ServerProcess":
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--data", str(self.data_dir), "--host", self.host, "--port", "0",
        ]
        if not self.result_cache:
            command.append("--no-result-cache")
        env = dict(os.environ, PYTHONPATH=str(self.src_dir))
        self.log_dir.mkdir(parents=True, exist_ok=True)
        stdout_path = self.log_dir / "server.out"
        with open(stdout_path, "wb") as stdout, open(self.log_dir / "server.err", "wb") as stderr:
            self.process = subprocess.Popen(command, stdout=stdout, stderr=stderr, env=env)
        # Set before the interpreter starts any thread, so all inherit it.
        os.sched_setaffinity(self.process.pid, {self.cpu})
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _BANNER.search(stdout_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self
            if self.process.poll() is not None:
                raise ServerError(
                    f"repro serve exited with {self.process.returncode}: "
                    + (self.log_dir / "server.err").read_text(errors="replace")[-2000:]
                )
            time.sleep(0.01)
        raise ServerError(f"repro serve printed no banner within {timeout:.0f} s")

    @staticmethod
    def search_path(query: str, function: str, paper_set: str, top_k: int = 10) -> str:
        return "/search?" + urlencode(
            {"q": query, "score_function": function, "paper_set": paper_set, "top_k": top_k}
        )

    def get(self, path: str) -> Tuple[int, bytes]:
        return http_get(self.host, self.port, path)

    def search(self, query: str, function: str, paper_set: str, top_k: int = 10) -> list:
        status, body = self.get(self.search_path(query, function, paper_set, top_k))
        if status != 200:
            raise ServerError(f"GET /search answered {status}: {body[:200]!r}")
        return json.loads(body)["hits"]

    def ingest(self, add: list, remove: list) -> dict:
        body = json.dumps({"add": add, "remove": remove}).encode("utf-8")
        status, answer = http_post(self.host, self.port, "/admin/ingest", body)
        if status != 200:
            raise ServerError(f"POST /admin/ingest answered {status}: {answer[:300]!r}")
        return json.loads(answer)

    def metrics(self) -> Dict[str, float]:
        """Counters and gauges from the registry the service exports on ``/metrics``."""
        status, body = self.get("/metrics")
        if status != 200:
            raise ServerError(f"GET /metrics answered {status}")
        return parse_prometheus(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line in /proc status")

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
