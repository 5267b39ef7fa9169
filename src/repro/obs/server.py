"""Opt-in, stdlib-only HTTP telemetry server for live scrapes.

``STGraphTrainer(telemetry_port=...)`` / ``repro train --telemetry-port``
start one of these on a daemon thread for the duration of the run:

* ``GET /metrics``  — live Prometheus scrape, rendered through the *same*
  code path as the post-hoc dump (:func:`repro.obs.exporters.prometheus_text`),
  so names/labels cannot drift between the two.
* ``GET /healthz``  — liveness JSON (``{"status": "ok", ...}``).
* ``GET /progress`` — training progress JSON (epoch / timestamp / loss),
  fed by the trainer through a :class:`TrainingProgress` holder.

Port 0 binds an ephemeral port; :meth:`TelemetryServer.start` returns the
bound port so tests and the CLI can print the real URL.  The server is
loopback-only by default and dies with the process (daemon thread), but
the trainer still stops it explicitly so a finished run leaves the port
closed rather than leaking until interpreter exit.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from repro.analysis.sanitizer import new_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.device.device import Device

__all__ = ["TelemetryServer", "TrainingProgress"]


class TrainingProgress:
    """Thread-safe key/value snapshot of training progress.

    The trainer updates it from the training thread; the telemetry server
    reads it from HTTP handler threads.  Values must be JSON-serializable.
    """

    def __init__(self) -> None:
        self._lock = new_lock("TrainingProgress._lock")
        self._data: dict[str, Any] = {}

    def update(self, **fields: Any) -> None:
        with self._lock:
            self._data.update(fields)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._data)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-telemetry/1"

    def log_message(self, fmt: str, *args: Any) -> None:  # pragma: no cover
        pass  # scrapes must not spam the training run's stdout

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        telemetry: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                from repro.obs.exporters import prometheus_text

                body = prometheus_text(telemetry.device).encode()
                self._send(200, "text/plain; version=0.0.4; charset=utf-8", body)
            elif path == "/healthz":
                payload = {
                    "status": "ok",
                    "device": telemetry.device.name,
                    "uptime_seconds": round(time.monotonic() - telemetry.started_at, 3),
                }
                self._send(200, "application/json", json.dumps(payload).encode())
            elif path == "/progress":
                body = json.dumps(telemetry.progress.snapshot()).encode()
                self._send(200, "application/json", body)
            else:
                self._send(404, "application/json", b'{"error": "not found"}')
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # scraper went away mid-response; nothing to clean up


class TelemetryServer:
    """The in-process scrape endpoint (``/metrics``, ``/healthz``, ``/progress``).

    Parameters
    ----------
    device:
        The device whose metric registry backs ``/metrics``.  Passed
        explicitly (not via ``current_device()``) because HTTP handler
        threads never have the training thread's context installed.
    port:
        TCP port; 0 picks an ephemeral one (see :meth:`start`).
    progress:
        Optional shared :class:`TrainingProgress`; a fresh one otherwise.
    """

    def __init__(self, device: "Device", port: int = 0, host: str = "127.0.0.1",
                 progress: TrainingProgress | None = None) -> None:
        self.device = device
        self.host = host
        self.port = port
        self.progress = progress if progress is not None else TrainingProgress()
        self.started_at = time.monotonic()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        if self._httpd is not None:
            return self.port
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        httpd.telemetry = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self.started_at = time.monotonic()
        self._thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-telemetry", daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut down the listener and join the serving thread."""
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
