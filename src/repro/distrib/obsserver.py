"""The HTTP observability server: ``/metrics`` and ``/status``.

A tiny stdlib ``http.server`` running in a daemon thread, loopback by
default.  Whoever was given the port owns the server: a campaign session
(``CampaignConfig.obs_port``) or a tuning service (``ServiceConfig.obs_port``)
constructs it, registers the sources below, and closes it *first* on the way
down.  A coordinator only offers ``fleet_status`` / ``fleet_metrics`` as
sources, and nothing imports this module (or ``http.server``) until a port
is given.  Two endpoints:

* ``GET /metrics`` — the process-global sink's counters, gauges and
  histograms (plus any registered extra metrics sources, e.g. the
  coordinator's fleet-health gauges and the fleet-merged worker batch
  histogram) in the Prometheus text exposition format.
* ``GET /status`` — one JSON document assembled from named status sources
  (``campaign`` progress, ``fleet`` health rows, this ``process``'s peak
  resident set and thread count) plus server-side stage
  latency quantiles, polled by ``python -m repro.telemetry tail`` and the
  campaign CLI's ``--live`` view.

The contract mirrors the telemetry plane's: the server *observes*, it can
never fail a batch.  Handlers read shared state only through the source
callables (which take their owners' locks), a handler exception returns
500 and bumps a counter, and a request racing campaign teardown gets a
clean 503 — never a traceback in the accept thread.
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional

from repro.telemetry import get_sink
from repro.telemetry.live import (
    Histogram,
    merge_metric_snapshots,
    render_prometheus,
)

logger = logging.getLogger("repro.distrib.obsserver")

__all__ = ["ObservabilityServer", "process_metrics", "process_status"]

#: Histogram names surfaced as ``stages`` quantile rows in ``/status``
#: (dotted prefix match): the hot seams a tail view cares about.
_STATUS_LATENCY_PREFIXES = ("stage.", "coordinator.rpc", "worker.batch", "engine.generation")


def process_status() -> Dict[str, int]:
    """The ``process`` status source: the owning process's peak resident set
    and live thread count, read per scrape (nothing on the evaluation path)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        # ``ru_maxrss`` is KiB on Linux and bytes on macOS.
        "peak_rss_bytes": peak if sys.platform == "darwin" else peak * 1024,
        "threads": threading.active_count(),
    }


def process_metrics() -> Dict[str, object]:
    """:func:`process_status` as ``process.*`` gauges for ``/metrics``."""
    return {"gauges": {f"process.{name}": value for name, value in process_status().items()}}


class _Handler(BaseHTTPRequestHandler):
    """Routes ``GET`` to the owning :class:`ObservabilityServer`."""

    server_version = "repro-obs/1"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        obs: "ObservabilityServer" = self.server.obs  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if obs.closing:
                self._reply(503, "text/plain; charset=utf-8",
                            b"observability server shutting down\n")
                return
            if path == "/metrics":
                body = obs.metrics_text().encode("utf-8")
                self._reply(200, "text/plain; version=0.0.4; charset=utf-8", body)
            elif path in ("/", "/status"):
                body = json.dumps(obs.status(), default=str).encode("utf-8")
                self._reply(200, "application/json; charset=utf-8", body)
            else:
                self._reply(404, "text/plain; charset=utf-8", b"not found\n")
        except Exception as exc:
            # A broken source must cost the scraper one 500, never the run
            # anything.  If the race was with teardown, call it a 503.
            obs.record_error()
            logger.debug("observability handler failed for %s: %s", self.path, exc)
            try:
                if obs.closing:
                    self._reply(503, "text/plain; charset=utf-8",
                                b"observability server shutting down\n")
                else:
                    self._reply(500, "text/plain; charset=utf-8",
                                f"internal error: {exc}\n".encode("utf-8", "replace"))
            except OSError:
                pass  # client already gone

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (OSError, ValueError):
            pass  # client disconnected mid-reply

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s %s", self.address_string(), format % args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # Teardown must never hang on a slow scraper holding the accept thread.
    request_queue_size = 16

    def handle_error(self, request, client_address) -> None:
        # The stock implementation prints a traceback to stderr; a dropped
        # connection during shutdown is routine, not an incident.
        logger.debug("request from %s failed", client_address, exc_info=True)


class ObservabilityServer:
    """Serves ``/metrics`` + ``/status`` from a daemon thread.

    Status *sources* are named callables returning JSON-safe values;
    metrics *sources* return registry snapshots (``counters`` / ``gauges``
    / ``histograms`` dicts) merged into the sink's own before rendering.
    Sources are polled per-request — the server holds no state of its own
    beyond the error counter.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._status_sources: Dict[str, Callable[[], object]] = {}
        self._metrics_sources: List[Callable[[], Dict[str, object]]] = []
        self._lock = threading.Lock()
        self._closing = False
        self._closed = False
        self.errors = 0
        self._httpd = _Server((host, port), _Handler)
        self._httpd.obs = self  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name=f"obs-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        logger.info("observability server listening on http://%s:%d", self.host, self.port)

    # -- wiring -----------------------------------------------------------------------

    def url(self) -> str:
        host = self.host if self.host not in ("0.0.0.0", "::") else "127.0.0.1"
        return f"http://{host}:{self.port}"

    def add_source(self, name: str, source: Callable[[], object]) -> None:
        """Register a named ``/status`` section (e.g. ``campaign``, ``fleet``)."""
        with self._lock:
            self._status_sources[name] = source

    def add_metrics_source(self, source: Callable[[], Dict[str, object]]) -> None:
        """Register an extra registry snapshot merged into ``/metrics``."""
        with self._lock:
            self._metrics_sources.append(source)

    @property
    def closing(self) -> bool:
        return self._closing

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1
        get_sink().incr("obs.errors")

    # -- document assembly ------------------------------------------------------------

    def _snapshots(self) -> List[Dict[str, object]]:
        with self._lock:
            sources = list(self._metrics_sources)
        snapshots: List[Dict[str, object]] = [get_sink().metrics_snapshot()]
        for source in sources:
            try:
                snapshots.append(source())
            except Exception:
                self.record_error()
        return snapshots

    def metrics_text(self) -> str:
        merged = merge_metric_snapshots(self._snapshots())
        with self._lock:
            errors = self.errors
        # The error counter is always exported, even before the sink saw
        # any obs.errors increments (e.g. with the null sink installed).
        counters = merged.setdefault("counters", {})
        counters["obs.errors"] = max(float(counters.get("obs.errors", 0)), float(errors))
        return render_prometheus(merged)

    def status(self) -> Dict[str, object]:
        with self._lock:
            sources = dict(self._status_sources)
        document: Dict[str, object] = {
            "service": "repro-obs",
            "time": time.time(),
            "errors": self.errors,
        }
        for name, source in sources.items():
            try:
                document[name] = source()
            except Exception as exc:
                self.record_error()
                document[name] = {"error": f"{type(exc).__name__}: {exc}"}
        document["stages"] = self._stage_latencies()
        return document

    def _stage_latencies(self) -> Dict[str, Dict[str, object]]:
        """p50/p95/p99 for the hot latency seams, computed server-side so
        the tail client never needs bucket math."""
        merged = merge_metric_snapshots(self._snapshots())
        stages: Dict[str, Dict[str, object]] = {}
        for name, snapshot in (merged.get("histograms") or {}).items():
            if not name.endswith(".seconds"):
                continue
            base = name[: -len(".seconds")]
            if not any(base.startswith(prefix) or base == prefix.rstrip(".")
                       for prefix in _STATUS_LATENCY_PREFIXES):
                continue
            histogram = Histogram.from_snapshot(snapshot)
            if not histogram.count:
                continue
            row = histogram.percentiles()
            row["count"] = histogram.count
            stages[base] = row
        return stages

    # -- lifecycle --------------------------------------------------------------------

    def begin_shutdown(self) -> None:
        """Flip to draining: every request from now on gets a clean 503.

        Called first by :meth:`close`, and callable early by an owner whose
        backing state (campaign, coordinator registry) is being torn down
        before the server itself goes away.
        """
        self._closing = True

    def close(self, timeout: float = 2.0) -> None:
        """Stop serving and join the server thread with a bounded timeout."""
        self.begin_shutdown()
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._httpd.shutdown()
        except Exception:
            pass
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            logger.warning(
                "observability server thread did not exit within %.1fs", timeout
            )
        try:
            self._httpd.server_close()
        except OSError:
            pass

    def __enter__(self) -> "ObservabilityServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
