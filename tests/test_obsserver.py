"""Tests for the live observability plane.

The load-bearing guarantees:

* histograms use one fixed bucket layout, so snapshots from any process
  merge bucket-for-bucket, and quantile estimates stay within a bucket
  width of the truth;
* ``/metrics`` is conformant Prometheus text exposition: the line grammar
  holds, histogram buckets are cumulative and monotone, ``_count`` equals
  the ``+Inf`` bucket and ``_sum`` is consistent;
* ``/status`` is one JSON document carrying campaign progress and
  per-worker health rows; a worker that dies flips to ``lost`` within its
  staleness window;
* the read-only contract: fingerprints are bit-for-bit identical with the
  observability plane on or off, for every fleet;
* one owner: ``CampaignConfig(obs_port=...)`` means the same thing from the
  library as from the CLI — the campaign's session serves ``campaign`` (and
  ``fleet`` when the pool has one) and puts the previous sink back;
* teardown is clean: a scrape racing shutdown gets a 503 or a refused
  connection, never a 500 or a traceback, and closing the server joins its
  thread with a bound.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from _helpers import loopback_available

from repro.telemetry import NULL_SINK, JsonlSink, get_sink, set_sink
from repro.telemetry.live import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    merge_metric_snapshots,
    render_prometheus,
    render_status,
    sanitize_metric_name,
    tail,
)


@pytest.fixture(autouse=True)
def _null_sink_between_tests():
    set_sink(None)
    yield
    set_sink(None)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_bounds_are_shared_sorted_and_log_spaced(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        assert BUCKET_BOUNDS[-1] == pytest.approx(1e9)
        # Four buckets per decade: consecutive ratios ~ 10^(1/4).
        for lower, upper in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert upper / lower == pytest.approx(10.0 ** 0.25, rel=1e-3)

    def test_observe_counts_sum_and_overflow(self):
        histogram = Histogram()
        for value in (0.001, 0.001, 0.5, 2.0, 1e12):  # last one: +Inf bucket
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(0.001 + 0.001 + 0.5 + 2.0 + 1e12)
        assert histogram.counts[len(BUCKET_BOUNDS)] == 1  # the overflow slot
        assert sum(histogram.counts) == histogram.count

    def test_snapshot_round_trip_and_merge(self):
        left, right = Histogram(), Histogram()
        for value in (0.01, 0.02, 3.0):
            left.observe(value)
        for value in (0.02, 40.0):
            right.observe(value)
        merged = Histogram.from_snapshot(left.snapshot())
        merged.merge(right.snapshot())
        assert merged.count == 5
        assert merged.sum == pytest.approx(left.sum + right.sum)
        # Bucket-for-bucket: the merge is exact, not a resample.
        for index in range(len(merged.counts)):
            assert merged.counts[index] == left.counts[index] + right.counts[index]

    def test_merge_tolerates_garbage_snapshots(self):
        histogram = Histogram()
        histogram.observe(1.0)
        histogram.merge("not a dict")
        histogram.merge({"buckets": {"abc": "nan", "999999": 3, "-1": 2}, "sum": "x"})
        assert histogram.count == 1

    def test_quantiles_are_bucket_accurate(self):
        histogram = Histogram()
        for _ in range(100):
            histogram.observe(0.010)
        for _ in range(5):
            histogram.observe(10.0)
        p50, p99 = histogram.quantile(0.50), histogram.quantile(0.99)
        # The true p50 is 0.010; a bucket spans ~1.78x, so the estimate
        # must land inside the bucket containing 0.010.
        assert 0.0056 <= p50 <= 0.0178
        assert 5.6 <= p99 <= 17.8
        assert Histogram().quantile(0.5) == 0.0

    def test_registry_merges_and_copies(self):
        registry = MetricsRegistry()
        registry.incr("hits", 2)
        registry.gauge("depth", 7.0)
        registry.observe("lat", 0.5)
        other = Histogram()
        other.observe(0.5)
        merged = merge_metric_snapshots([registry.snapshot(),
                                         {"histograms": {"lat": other.snapshot()}}])
        assert merged["histograms"]["lat"]["count"] == 2
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 2}
        assert snapshot["gauges"] == {"depth": 7.0}
        assert snapshot["histograms"]["lat"]["count"] == 1
        # snapshot() returns a copy: mutating it must not leak back
        snapshot["histograms"]["lat"]["count"] = 99
        snapshot["counters"]["hits"] = 99
        assert registry.snapshot()["histograms"]["lat"]["count"] == 1
        assert registry.snapshot()["counters"] == {"hits": 2}

    def test_jsonl_sink_records_histograms_in_close_snapshot(self, tmp_path):
        with JsonlSink(tmp_path, flush_every=1) as sink:
            with sink.span("stage.compile"):
                pass
            with sink.span("stage.compile"):
                pass
        records = [
            json.loads(line)
            for path in tmp_path.glob("*.jsonl")
            for line in path.read_text().splitlines()
        ]
        (metrics,) = [r for r in records if r.get("type") == "metrics"]
        assert metrics["histograms"]["stage.compile.seconds"]["count"] == 2


# ---------------------------------------------------------------------------
# Prometheus text exposition conformance
# ---------------------------------------------------------------------------

_METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le=\"[^\"]+\"\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|NaN|[+-]Inf)$"
)
_COMMENT_LINE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")


def _assert_prometheus_conformant(text: str) -> None:
    """A strict line-level parse of the text exposition format."""
    assert text.endswith("\n")
    series = {}
    for line in text.splitlines():
        if line.startswith("#"):
            assert _COMMENT_LINE.match(line), f"bad comment line: {line!r}"
            continue
        assert _METRIC_LINE.match(line), f"bad metric line: {line!r}"
        name_and_labels, value = line.rsplit(" ", 1)
        series[name_and_labels] = float(value)
    # Histogram families: cumulative monotone buckets, consistent _count.
    families = {
        match.group(1)
        for key in series
        for match in [re.match(r"^(.*)_bucket\{", key)]
        if match
    }
    for family in families:
        buckets = []
        for key, value in series.items():
            match = re.match(rf'^{re.escape(family)}_bucket\{{le="([^"]+)"\}}$', key)
            if match:
                bound = float("inf") if match.group(1) == "+Inf" else float(match.group(1))
                buckets.append((bound, value))
        buckets.sort()
        assert buckets[-1][0] == float("inf"), f"{family}: no +Inf bucket"
        counts = [count for _bound, count in buckets]
        assert counts == sorted(counts), f"{family}: buckets not cumulative"
        assert series[f"{family}_count"] == counts[-1]
        assert f"{family}_sum" in series


class TestPrometheusExposition:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("stage.compile.seconds") == "stage_compile_seconds"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("a-b c") == "a_b_c"

    def test_render_is_conformant_and_complete(self):
        registry = MetricsRegistry()
        registry.incr("artifact.memory_hits", 12)
        registry.gauge("fleet.workers.healthy", 2)
        for value in (0.001, 0.02, 0.02, 3.0, 1e12):
            registry.observe("stage.compile.seconds", value)
        text = render_prometheus(registry.snapshot())
        _assert_prometheus_conformant(text)
        assert "artifact_memory_hits_total 12" in text
        assert "fleet_workers_healthy 2" in text
        assert 'stage_compile_seconds_bucket{le="+Inf"} 5' in text
        assert "stage_compile_seconds_count 5" in text
        # every non-empty bucket is cumulative: the le="1" bucket holds the
        # three sub-second observations
        assert 'stage_compile_seconds_bucket{le="1"} 3' in text

    def test_counter_total_suffix_not_doubled(self):
        registry = MetricsRegistry()
        registry.incr("requests_total", 1)
        text = render_prometheus(registry.snapshot())
        assert "requests_total 1" in text
        assert "requests_total_total" not in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_merge_snapshots_adds_counters_merges_histograms(self):
        a = MetricsRegistry()
        a.incr("hits", 2)
        a.observe("lat.seconds", 0.1)
        b = MetricsRegistry()
        b.incr("hits", 3)
        b.observe("lat.seconds", 0.2)
        b.gauge("depth", 9)
        malformed = {"counters": [1], "gauges": 3, "histograms": ["lat.seconds"]}
        merged = merge_metric_snapshots([a.snapshot(), b.snapshot(), "junk", malformed])
        assert merged["counters"]["hits"] == 5
        assert merged["gauges"]["depth"] == 9
        assert merged["histograms"]["lat.seconds"]["count"] == 2


# ---------------------------------------------------------------------------
# the HTTP server (loopback-gated from here down)
# ---------------------------------------------------------------------------

needs_loopback = pytest.mark.skipif(
    not loopback_available(), reason="no AF_INET loopback in this sandbox"
)


def _get(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8")


@needs_loopback
class TestObservabilityServer:
    def test_metrics_and_status_round_trip(self):
        from repro.distrib.obsserver import ObservabilityServer

        sink = JsonlSink()  # no directory: registry only
        set_sink(sink)
        with sink.span("stage.compile"):
            pass
        sink.incr("engine.evaluated", 4)
        with ObservabilityServer() as server:
            server.add_source("campaign", lambda: {"name": "t", "state": "running"})
            code, text = _get(server.url() + "/metrics")
            assert code == 200
            _assert_prometheus_conformant(text)
            assert "stage_compile_seconds_bucket" in text
            assert "engine_evaluated_total 4" in text
            code, body = _get(server.url() + "/status")
            status = json.loads(body)
            assert status["campaign"] == {"name": "t", "state": "running"}
            assert status["stages"]["stage.compile"]["count"] == 1
            assert status["errors"] == 0

    def test_process_source_reports_peak_rss_and_threads(self):
        """The two gauges an owner registers beside its own sources: read
        per scrape, in bytes (``ru_maxrss`` is KiB on Linux)."""
        import resource

        from repro.distrib.obsserver import (
            ObservabilityServer,
            process_metrics,
            process_status,
        )

        with ObservabilityServer() as server:
            server.add_source("process", process_status)
            server.add_metrics_source(process_metrics)
            status = json.loads(_get(server.url() + "/status")[1])["process"]
            text = _get(server.url() + "/metrics")[1]
        _assert_prometheus_conformant(text)
        gauges = dict(re.findall(r"^(process_\w+) (\S+)$", text, re.MULTILINE))
        assert set(gauges) == {"process_peak_rss_bytes", "process_threads"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform != "darwin":
            peak *= 1024
        for seen in (status["peak_rss_bytes"], float(gauges["process_peak_rss_bytes"])):
            assert 8 * 2**20 < seen <= peak  # an interpreter is > 8 MiB
        # at least this thread, the server's accept thread and one handler
        assert status["threads"] >= 2 and float(gauges["process_threads"]) >= 2

    def test_broken_source_returns_500_and_counts(self):
        from repro.distrib.obsserver import ObservabilityServer

        with ObservabilityServer() as server:
            server.add_metrics_source(lambda: 1 / 0)
            code, text = _get(server.url() + "/metrics")
            # a broken *metrics source* is skipped, the scrape still succeeds
            assert code == 200
            assert "obs_errors_total 1" in text
            # a broken *status source* degrades to an error section
            server.add_source("bad", lambda: 1 / 0)
            code, body = _get(server.url() + "/status")
            assert code == 200
            assert "ZeroDivisionError" in json.loads(body)["bad"]["error"]

    def test_unknown_path_404(self):
        from repro.distrib.obsserver import ObservabilityServer

        with ObservabilityServer() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url() + "/nope")
            assert excinfo.value.code == 404

    def test_begin_shutdown_serves_clean_503(self):
        from repro.distrib.obsserver import ObservabilityServer

        server = ObservabilityServer()
        try:
            url = server.url()
            # the teardown race: backing state is going away, server not yet
            server.begin_shutdown()
            for path in ("/status", "/metrics"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(url + path)
                assert excinfo.value.code == 503
        finally:
            server.close()

    def test_close_joins_thread_bounded_and_is_idempotent(self):
        from repro.distrib.obsserver import ObservabilityServer

        server = ObservabilityServer()
        url = server.url()
        started = time.monotonic()
        server.close(timeout=2.0)
        assert time.monotonic() - started < 5.0
        assert not server._thread.is_alive()
        server.close()  # second close: no-op, no error
        # after close the port no longer answers
        with pytest.raises((urllib.error.URLError, OSError)):
            _get(url + "/status", timeout=0.5)


# ---------------------------------------------------------------------------
# the tail rendering
# ---------------------------------------------------------------------------

class TestTail:
    STATUS = {
        "campaign": {
            "name": "demo", "state": "running", "jobs_total": 2,
            "jobs_completed": 1, "generations_total": 10,
            "current": {"family": "llvm", "program": "mcf",
                        "generation": 3, "best_fitness": 0.91},
        },
        "stages": {"stage.compile": {"count": 5, "p50": 0.01, "p95": 0.02, "p99": 0.03}},
        "fleet": [
            {"worker_id": 1, "peer": "a:1", "health": "healthy",
             "batches": 4, "busy_ratio": 0.5, "straggler": False},
            {"worker_id": 2, "peer": "b:2", "health": "lost",
             "batches": 1, "busy_ratio": 0.1, "straggler": True},
        ],
    }

    def test_render_status_lines(self):
        text = render_status(self.STATUS)
        assert "campaign demo: job 1/2 llvm/mcf gen 3 best 0.9100" in text
        assert "stage.compile p95 20.0ms" in text
        assert "[+] worker 1 a:1 healthy batches 4 busy 50%" in text
        assert "[x] worker 2 b:2 lost STRAGGLER" in text

    def test_render_status_rate_from_previous_poll(self):
        previous = json.loads(json.dumps(self.STATUS))
        previous["campaign"]["generations_total"] = 4
        text = render_status(self.STATUS, previous, elapsed=2.0)
        assert "(3.00 gen/s)" in text

    def test_render_empty_status(self):
        assert render_status({}) == "(no status yet)"

    def test_tail_stops_when_campaign_finishes(self):
        """Every terminal state stops the tail (a further poll would raise
        ``StopIteration``) and is marked on the campaign line."""
        import io

        for state in ("finished", "interrupted", "failed"):
            polls = iter([
                dict(self.STATUS),
                {"campaign": {"name": "demo", "state": state}},
            ])
            stream = io.StringIO()
            rc = tail("127.0.0.1:1", interval=0.0, stream=stream,
                      fetch=lambda url: next(polls))
            assert rc == 0
            assert f"[{state}]" in stream.getvalue()

    def test_tail_reports_server_gone_after_connect(self):
        import io

        calls = {"n": 0}

        def fetch(url):
            calls["n"] += 1
            if calls["n"] == 1:
                return dict(self.STATUS)
            raise OSError("refused")

        stream = io.StringIO()
        assert tail("127.0.0.1:1", interval=0.0, stream=stream, fetch=fetch) == 0
        assert "run over?" in stream.getvalue()

    def test_tail_fails_when_never_connected(self):
        import io

        def fetch(url):
            raise OSError("refused")

        stream = io.StringIO()
        rc = tail("127.0.0.1:1", interval=0.0, stream=stream, fetch=fetch,
                  max_polls=3)
        assert rc == 1
        assert "waiting for" in stream.getvalue()


# ---------------------------------------------------------------------------
# worker health tracking (coordinator-side)
# ---------------------------------------------------------------------------

def _health(coordinator) -> dict:
    """``worker_id -> healthy / stale / lost`` from the fleet rows."""
    return {row["worker_id"]: row["health"] for row in coordinator.fleet_status()}


def _wait_until(predicate, timeout: float = 5.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@needs_loopback
class TestWorkerHealth:
    def _handshake(self, coordinator):
        """A hand-rolled worker: registers, then goes silent on command."""
        from repro.distrib import protocol

        sock = socket.create_connection(coordinator.address, timeout=5.0)
        protocol.send_message(sock, protocol.Hello())
        welcome = protocol.recv_message(sock)
        assert welcome.worker_id >= 1
        # Welcome is written just *before* the handle is published.
        coordinator.wait_for_workers(1, timeout=5.0)
        return sock, welcome.worker_id

    def test_silent_worker_ages_healthy_to_stale_to_lost(self, monkeypatch):
        from repro.distrib import Coordinator, coordinator as coordinator_module

        monkeypatch.setattr(coordinator_module, "STALE_AFTER", 0.25)
        monkeypatch.setattr(coordinator_module, "LOST_AFTER", 0.6)
        with Coordinator() as coordinator:
            sock, worker_id = self._handshake(coordinator)
            try:
                assert _health(coordinator) == {worker_id: "healthy"}
                assert _wait_until(
                    lambda: _health(coordinator)[worker_id] == "stale",
                    timeout=2.0,
                )
                assert _wait_until(
                    lambda: _health(coordinator)[worker_id] == "lost",
                    timeout=2.0,
                )
                (row,) = coordinator.fleet_status()
                assert row["health"] == "lost"
                assert row["last_seen_age_seconds"] >= 0.6
            finally:
                sock.close()

    def test_heartbeats_keep_an_idle_worker_healthy(self, monkeypatch):
        import test_distrib
        from repro.distrib import Coordinator, coordinator as coordinator_module
        from repro.distrib import worker

        # A 0.1 s cadence: stale after 0.5 s of silence, lost after 1.0 s.
        monkeypatch.setattr(worker, "HEARTBEAT_INTERVAL", 0.1)
        monkeypatch.setattr(coordinator_module, "STALE_AFTER", 0.5)
        monkeypatch.setattr(coordinator_module, "LOST_AFTER", 1.0)
        with Coordinator() as coordinator:
            with test_distrib.thread_workers(coordinator, 1):
                # Long past the stale window, but heartbeats flow: the idle
                # probe must see them and refresh last_seen.
                time.sleep(1.0)
                (row,) = coordinator.fleet_status()
                assert row["health"] == "healthy"

    def test_killed_worker_flips_to_lost_and_metrics_follow(self):
        from repro.distrib import Coordinator

        with Coordinator() as coordinator:
            sock, worker_id = self._handshake(coordinator)
            assert _health(coordinator) == {worker_id: "healthy"}
            sock.close()  # the kill: EOF on an idle socket
            assert _wait_until(
                lambda: _health(coordinator).get(worker_id) == "lost",
                timeout=5.0,
            )
            # the row survives the discard, marked lost for the postmortem
            (row,) = coordinator.fleet_status()
            assert row["health"] == "lost"
            assert coordinator.worker_count() == 0
            gauges = coordinator.fleet_metrics()["gauges"]
            assert gauges["fleet.workers.lost"] == 1
            assert gauges["fleet.workers.healthy"] == 0

    def test_straggler_detection_flags_slow_ewma(self):
        from repro.distrib.coordinator import Coordinator, WorkerHandle

        coordinator = Coordinator.__new__(Coordinator)  # no sockets needed
        fast = WorkerHandle(1, None, "a:1")
        slow = WorkerHandle(2, None, "b:2")
        other = WorkerHandle(3, None, "c:3")
        fast.ewma_task_seconds = 0.1
        other.ewma_task_seconds = 0.12
        slow.ewma_task_seconds = 0.9  # > 2x the fleet median
        assert coordinator._stragglers([fast, slow, other]) == {2}
        # a single reporting worker is never a straggler (no fleet to lag)
        assert coordinator._stragglers([slow]) == set()

    def test_fleet_rows_and_batch_histogram_after_real_batches(self, monkeypatch):
        import test_distrib
        from repro.distrib import Coordinator, DistributedMapper, worker

        from repro.distrib.obsserver import ObservabilityServer

        with Coordinator() as coordinator, ObservabilityServer() as server:
            # The coordinator owns no server: it offers its fleet view as
            # sources to whoever does.
            server.add_source("fleet", coordinator.fleet_status)
            server.add_metrics_source(coordinator.fleet_metrics)
            monkeypatch.setattr(worker, "HEARTBEAT_INTERVAL", 0.1)
            with test_distrib.thread_workers(coordinator, 2):
                mapper = DistributedMapper(
                    coordinator, test_distrib.FakeEvaluator()
                )
                results = mapper.map([("a",), ("b", "c"), ("d",), ("e", "f")])
                assert [r.fitness for r in results] == [1.0, 2.0, 1.0, 2.0]
                rows = coordinator.fleet_status()
                assert len(rows) == 2
                assert all(row["health"] == "healthy" for row in rows)
                assert sum(row["batches"] for row in rows) >= 2
                for row in rows:
                    assert 0.0 <= row["busy_ratio"] <= 1.0
                    assert row["straggler"] in (False, True)
                # the fleet-merged worker.batch histogram reached /metrics
                code, text = _get(server.url() + "/metrics")
                assert code == 200
                _assert_prometheus_conformant(text)
                assert "worker_batch_seconds_bucket" in text
                assert "fleet_workers_healthy 2" in text
                # and /status carries the same rows
                code, body = _get(server.url() + "/status")
                fleet = json.loads(body)["fleet"]
                assert [row["worker_id"] for row in fleet] == [1, 2]


# ---------------------------------------------------------------------------
# the read-only contract: observability on == off, bit for bit
# ---------------------------------------------------------------------------

from repro.campaign import Campaign  # noqa: E402


def _observed_campaign(**config_kwargs) -> Campaign:
    import test_distrib

    return Campaign(
        test_distrib.JOBS,
        test_distrib.tiny_campaign_config(obs_port=0, **config_kwargs),
        spec_provider=test_distrib.tiny_spec,
    )


@needs_loopback
class TestObservabilityParity:
    @pytest.fixture(scope="class")
    def plain(self):
        import test_distrib

        return Campaign(
            test_distrib.JOBS, test_distrib.tiny_campaign_config(),
            spec_provider=test_distrib.tiny_spec,
        ).run()

    @pytest.mark.parametrize("fleet, workers", [
        ("serial", 1), ("process", 2),
    ])
    def test_library_obs_port_serves_every_local_dispatch(self, plain, fleet, workers):
        """``CampaignConfig(obs_port=0)`` from the library alone — no CLI,
        no hand-built sink or server — observes the run and changes nothing."""
        outer = JsonlSink()
        set_sink(outer)
        campaign = _observed_campaign(workers=workers)
        with campaign:
            assert get_sink() is not outer
            assert len(campaign.pool.pids) == (0 if fleet == "serial" else workers)
            observed = campaign.run()
            url = campaign.obs_server.url()
            code, text = _get(url + "/metrics")
            status = json.loads(_get(url + "/status")[1])
        assert get_sink() is outer  # the previous sink is back
        assert campaign.pool is None and campaign.obs_server is None
        assert observed.fingerprint() == plain.fingerprint()
        assert (observed.database.record_signatures()
                == plain.database.record_signatures())
        # the scrape really observed the run it rode along with
        assert code == 200
        _assert_prometheus_conformant(text)
        assert "engine_generation_seconds_count" in text
        assert "process_peak_rss_bytes" in text and "process_threads" in text
        assert status["process"]["peak_rss_bytes"] > 0
        assert status["campaign"]["state"] == "finished"
        assert status["campaign"]["jobs_completed"] == len(campaign.jobs)
        # A local fleet is a fleet: /status lists its sessions.
        if fleet == "serial":
            assert "fleet" not in status and observed.fleet is None
        else:
            assert len(status["fleet"]) == len(observed.fleet) == workers
        assert outer.metrics_snapshot()["histograms"] == {}  # nothing leaked out

    def test_run_alone_opens_and_closes_its_own_session(self, plain):
        seen = {}

        def scraping_spec(job):
            import test_distrib

            # Mid-run, from inside the run: the session run() opened is up.
            server = campaign.obs_server
            seen.setdefault("status", json.loads(_get(server.url() + "/status")[1]))
            seen["url"] = server.url()
            return test_distrib.tiny_spec(job)

        campaign = _observed_campaign()
        campaign.spec_provider = scraping_spec
        observed = campaign.run()
        assert observed.fingerprint() == plain.fingerprint()
        assert seen["status"]["campaign"]["state"] == "running"
        assert get_sink() is NULL_SINK and campaign.obs_server is None
        with pytest.raises((urllib.error.URLError, OSError)):
            _get(seen["url"] + "/status", timeout=0.5)

    def test_distributed_session_serves_campaign_and_fleet(self, plain):
        import test_distrib

        campaign = _observed_campaign(serve_workers="127.0.0.1:0")
        with campaign:
            with test_distrib.thread_workers(campaign.pool.coordinator, 2):
                distributed = campaign.run()
                url = campaign.obs_server.url()
                status = json.loads(_get(url + "/status")[1])
                code, text = _get(url + "/metrics")
        assert distributed.fingerprint() == plain.fingerprint()
        assert (distributed.database.record_signatures()
                == plain.database.record_signatures())
        assert code == 200 and "fleet_workers_healthy 2" in text
        assert "engine_generation_seconds_count" in text
        assert status["campaign"]["state"] == "finished"
        assert len(status["fleet"]) == 2
        # the result carries the fleet rows it took before teardown
        assert [row["worker_id"] for row in distributed.fleet] == [1, 2]
        assert all(row["health"] in ("healthy", "stale") for row in distributed.fleet)
        assert distributed.mesh_stats is None  # no mesh was served

    def test_scrape_racing_session_close_never_sees_a_500(self):
        """Scrapers hammer both endpoints while the session (server, then
        coordinator, then sink) goes away underneath them."""
        campaign = _observed_campaign(serve_workers="127.0.0.1:0")
        outcomes: list = []
        stop = threading.Event()

        def scrape(url):
            while not stop.is_set():
                for path in ("/status", "/metrics"):
                    try:
                        outcomes.append(_get(url + path, timeout=2.0)[0])
                    except urllib.error.HTTPError as exc:
                        outcomes.append(exc.code)
                    except (urllib.error.URLError, OSError):
                        outcomes.append("gone")

        with campaign:
            scrapers = [
                threading.Thread(target=scrape, args=(campaign.obs_server.url(),),
                                 daemon=True)
                for _ in range(4)
            ]
            for scraper in scrapers:
                scraper.start()
            assert _wait_until(lambda: outcomes.count(200) >= 8)
        assert _wait_until(lambda: "gone" in outcomes)
        stop.set()
        for scraper in scrapers:
            scraper.join(timeout=10.0)
            assert not scraper.is_alive()
        assert set(outcomes) <= {200, 503, "gone"}, set(outcomes)

    def test_campaign_progress_reaches_status_endpoint(self):
        campaign = _observed_campaign()
        seen: list = []
        with campaign:
            url = campaign.obs_server.url()
            poller_stop = threading.Event()

            def poll():
                while not poller_stop.is_set():
                    _code, body = _get(url + "/status")
                    seen.append(json.loads(body)["campaign"])
                    time.sleep(0.01)

            poller = threading.Thread(target=poll, daemon=True)
            poller.start()
            result = campaign.run()
            poller_stop.set()
            poller.join(timeout=5.0)
        states = {snapshot["state"] for snapshot in seen}
        assert "running" in states
        final = campaign.progress.snapshot()
        assert final["state"] == "finished"
        assert final["jobs_completed"] == len(campaign.jobs)
        assert final["generations_total"] > 0
        assert result.fingerprint()  # the run itself completed normally

    def test_cli_obs_port_and_live_smoke(self, tmp_path, capsys):
        from repro.campaign.cli import main

        rc = main([
            "--benchmarks", "462.libquantum",
            "--families", "llvm",
            "--max-iterations", "8",
            "--population", "6",
            "--obs-port", "0",
            "--json", str(tmp_path / "summary.json"),
            "--quiet",
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["fingerprint"]
        # the sink installed for the live plane was restored afterwards
        from repro.telemetry import NULL_SINK, get_sink

        assert get_sink() is NULL_SINK
