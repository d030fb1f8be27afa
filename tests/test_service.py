"""Acceptance battery for the multi-tenant tuning service.

The contract under test, end to end over real sockets:

* **fingerprint parity** — a job run through the service (concurrently with
  other tenants, over shared caches) produces a tuning database fingerprint
  bit-for-bit identical to a solo :class:`BinTuner` constructed from the
  same :class:`JobBudget` mapping;
* **dedupe economics** — the second tenant submitting an identical
  (source, family) pays ~nothing: zero artifact misses, ~zero compile
  seconds, visible in per-tenant accounting;
* **typed admission** — absurd budgets and oversized sources are refused
  with stable error codes before any work is queued;
* **fault tolerance** — a client vanishing mid-stream, a service restart
  mid-job, and a worker process crashing mid-generation all leave the queue
  consistent and the surviving/restored jobs at full parity.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.campaign import default_compiler_provider
from repro.distrib.client import ServiceClient
from repro.distrib.errors import ServiceError
from repro.distrib.jobs import (
    AdmissionError,
    AdmissionLimits,
    Job,
    JobBudget,
    JobSpec,
    validate_submission,
)
from repro.distrib.service import ServiceConfig, TuningService
from repro.tuner import BinTuner, BinTunerConfig, BuildSpec

from _helpers import loopback_available

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="sandbox forbids AF_INET loopback"
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

SOURCE = """
int table[16];
int fill(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++) { table[i] = i * 3 - 1; acc += table[i]; }
  return acc;
}
int main(void) { return fill(16) & 0xff; }
"""

OTHER_SOURCE = """
int mix(int a, int b) { return (a ^ b) + (a & b) * 2; }
int main(void) {
  int acc = 0;
  for (int i = 0; i < 24; i++) acc = mix(acc, i);
  return acc & 0xff;
}
"""

BUDGET = JobBudget(generations=3, population=4)


def solo_fingerprint(source: str, program: str,
                     budget: JobBudget = BUDGET, family: str = "gcc") -> str:
    """The reference run: a BinTuner constructed from the *same* budget
    mapping the service uses (JobBudget.tuner_config_kwargs is the shared
    source of truth — parity is constructive, not coincidental)."""
    tuner = BinTuner(
        default_compiler_provider(family),
        BuildSpec(name=program, source=source),
        BinTunerConfig(**budget.tuner_config_kwargs()),
    )
    return tuner.run().database.fingerprint()


def submit_budget(client: ServiceClient, tenant: str, program: str,
                  source: str, budget: JobBudget = BUDGET) -> str:
    return client.submit(tenant, program, source, "gcc",
                         generations=budget.generations,
                         population=budget.population,
                         stall_window=budget.stall_window)


# ---------------------------------------------------------------------------
# Admission control (the typed-rejection satellite)
# ---------------------------------------------------------------------------

class TestAdmission:
    LIMITS = AdmissionLimits(max_source_bytes=1024)

    def _submit(self, **overrides):
        payload = {"tenant": "alice", "program": "p", "source": "int main(){}",
                   "family": "gcc", "budget": {"generations": 2}}
        payload.update(overrides)
        return validate_submission(payload, self.LIMITS)

    @pytest.mark.parametrize("budget,code", [
        ({"generations": 0}, "bad-budget"),
        ({"generations": -3}, "bad-budget"),
        ({"generations": True}, "bad-budget"),      # JSON true is not 1
        ({"generations": 2.5}, "bad-budget"),
        ({"generations": 10_000}, "bad-budget"),    # past the cap
        ({"generations": 2, "population": 1}, "bad-budget"),
        ({"generations": 2, "population": 100_000}, "bad-budget"),
        ({"generations": 2, "stall_window": 0}, "bad-budget"),
        ({"generations": 2, "warp_factor": 9}, "bad-budget"),  # unknown knob
        ({}, "bad-budget"),                         # no generations at all
    ])
    def test_absurd_budgets_rejected_typed(self, budget, code):
        with pytest.raises(AdmissionError) as excinfo:
            self._submit(budget=budget)
        assert excinfo.value.code == code

    def test_oversized_source_rejected_at_the_configured_cap(self):
        big = "int main(){}" + ("/* pad */" * 200)
        assert len(big.encode()) > self.LIMITS.max_source_bytes
        with pytest.raises(AdmissionError) as excinfo:
            self._submit(source=big)
        assert excinfo.value.code == "source-too-large"
        # One byte under the cap is admitted.
        ok = "int main(){}".ljust(self.LIMITS.max_source_bytes - 1, " ")
        assert self._submit(source=ok).program == "p"

    @pytest.mark.parametrize("field,value,code", [
        ("source", "", "empty-source"),
        ("source", "   \n  ", "empty-source"),
        ("family", "icc", "unknown-family"),
        ("tenant", "", "bad-name"),
        ("tenant", "evil tenant!", "bad-name"),
        ("tenant", "x" * 65, "bad-name"),
        ("program", "../escape", "bad-name"),
        ("priority", 99, "bad-budget"),
        ("priority", -1, "bad-budget"),
    ])
    def test_malformed_fields_rejected_typed(self, field, value, code):
        with pytest.raises(AdmissionError) as excinfo:
            self._submit(**{field: value})
        assert excinfo.value.code == code

    def test_rejections_reach_the_client_typed_and_accounted(self):
        """Over the wire: a doomed submission raises a ServiceError with the
        admission code, nothing is enqueued, and the tenant's rejection
        counter ticks."""
        with TuningService(ServiceConfig()) as svc:
            with ServiceClient(svc.address_string()) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit("alice", "p", SOURCE, "gcc", generations=0)
                assert excinfo.value.code == "bad-budget"
                assert client.jobs() == []
                assert client.accounting()["alice"]["jobs_rejected"] == 1

    def test_queue_full_is_a_typed_rejection(self):
        config = ServiceConfig(
            max_active_jobs=1,
            limits=AdmissionLimits(max_queued_per_tenant=1),
        )
        with TuningService(config) as svc:
            with ServiceClient(svc.address_string()) as client:
                submit_budget(client, "alice", "one", SOURCE)   # -> active
                submit_budget(client, "alice", "two", SOURCE)   # -> queued
                with pytest.raises(ServiceError) as excinfo:
                    submit_budget(client, "alice", "three", SOURCE)
                assert excinfo.value.code == "queue-full"


# ---------------------------------------------------------------------------
# Multi-tenant parity and dedupe (THE acceptance criterion)
# ---------------------------------------------------------------------------

class TestMultiTenantParity:
    def test_two_tenants_same_source_parity_and_dedupe(self):
        """Two tenants submit the identical (source, family) concurrently.
        Both finish with the solo fingerprint, and the lighter tenant's
        generations are pure cache hits: zero artifact misses."""
        solo = solo_fingerprint(SOURCE, "work")
        with TuningService(ServiceConfig(max_active_jobs=2)) as svc:
            with ServiceClient(svc.address_string()) as alice, \
                 ServiceClient(svc.address_string()) as bob:
                job_a = submit_budget(alice, "alice", "work", SOURCE)
                job_b = submit_budget(bob, "bob", "work", SOURCE)
                row_a = alice.wait(job_a)
                row_b = bob.wait(job_b)
                assert row_a["state"] == "done" and row_b["state"] == "done"
                assert row_a["result"]["fingerprint"] == solo
                assert row_b["result"]["fingerprint"] == solo
                accounts = alice.accounting()
        # The fair-share turnstile guarantees the dedupe shape: whichever
        # tenant ran a generation second found every stage already cached.
        light = min(accounts, key=lambda t: accounts[t]["compile_seconds"])
        heavy = max(accounts, key=lambda t: accounts[t]["compile_seconds"])
        assert light != heavy
        assert accounts[light]["artifact_misses"] == 0
        assert accounts[light]["compile_seconds"] < 0.01
        assert accounts[heavy]["artifact_misses"] > 0
        assert accounts[light]["candidates_evaluated"] > 0

    def test_distinct_sources_do_not_interfere(self):
        """Concurrent tenants tuning different programs each match their own
        solo fingerprint — shared caches change timing, never results."""
        solo_one = solo_fingerprint(SOURCE, "one")
        solo_two = solo_fingerprint(OTHER_SOURCE, "two")
        assert solo_one != solo_two
        with TuningService(ServiceConfig(max_active_jobs=2)) as svc:
            with ServiceClient(svc.address_string()) as client:
                job_one = submit_budget(client, "alice", "one", SOURCE)
                job_two = submit_budget(client, "bob", "two", OTHER_SOURCE)
                assert client.wait(job_one)["result"]["fingerprint"] == solo_one
                assert client.wait(job_two)["result"]["fingerprint"] == solo_two

    def test_stream_carries_generation_summaries_in_order(self):
        with TuningService(ServiceConfig()) as svc:
            with ServiceClient(svc.address_string()) as client:
                job_id = submit_budget(client, "alice", "work", SOURCE)
                events = list(client.stream(job_id))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "queued" and kinds[1] == "started"
        assert kinds[-1] == "done"
        generations = [e for e in events if e["kind"] == "generation"]
        assert len(generations) >= 1
        assert [e["seq"] for e in events] == list(
            range(events[0]["seq"], events[0]["seq"] + len(events)))
        done = events[-1]["data"]
        assert set(done) >= {"best_flags", "best_fitness", "fingerprint"}

    def test_stream_resumes_from_any_offset(self):
        """Seq-numbered replay: a second stream from a mid-run offset sees
        exactly the suffix, terminal event included."""
        with TuningService(ServiceConfig()) as svc:
            with ServiceClient(svc.address_string()) as client:
                job_id = submit_budget(client, "alice", "work", SOURCE)
                full = list(client.stream(job_id))
                middle = full[len(full) // 2]["seq"]
                suffix = list(client.stream(job_id, from_seq=middle))
        assert [e["seq"] for e in suffix] == [
            e["seq"] for e in full if e["seq"] > middle]

    def test_cancel_queued_job_is_immediate_and_accounted(self):
        config = ServiceConfig(max_active_jobs=1)
        with TuningService(config) as svc:
            with ServiceClient(svc.address_string()) as client:
                running = submit_budget(client, "alice", "run", SOURCE)
                queued = submit_budget(client, "alice", "waiting", SOURCE)
                assert client.cancel(queued) == "cancelled"
                assert client.status(queued)["state"] == "cancelled"
                assert client.wait(running)["state"] == "done"
                assert client.accounting()["alice"]["jobs_cancelled"] == 1

    def test_token_auth_rejects_and_admits(self):
        with TuningService(ServiceConfig(token="sesame")) as svc:
            with ServiceClient(svc.address_string()) as anon:
                anon.ping()  # health stays open
                with pytest.raises(ServiceError) as excinfo:
                    anon.jobs()
                assert excinfo.value.code == "unauthorized"
            with ServiceClient(svc.address_string(), token="sesame") as client:
                assert client.jobs() == []


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_client_disconnect_mid_stream_leaves_job_and_queue_intact(self):
        """A streaming client hard-closing its socket must not disturb the
        job, the other tenant, or the service."""
        solo = solo_fingerprint(SOURCE, "work")
        with TuningService(ServiceConfig(max_active_jobs=2)) as svc:
            with ServiceClient(svc.address_string()) as client:
                job_id = submit_budget(client, "alice", "work", SOURCE)
                other = submit_budget(client, "bob", "work", SOURCE)
                # A raw streaming connection, dropped after the first frame.
                sock = socket.create_connection((svc.host, svc.port), timeout=10)
                from repro.distrib.wire import make_message, recv_wire, send_wire
                assert recv_wire(sock)["type"] == "welcome"
                send_wire(sock, make_message("stream", job_id=job_id))
                recv_wire(sock)  # one event, then vanish without a goodbye
                sock.close()
                # Both jobs still run to completion at full parity.
                assert client.wait(job_id)["result"]["fingerprint"] == solo
                assert client.wait(other)["result"]["fingerprint"] == solo
                assert client.ping() > 0

    def test_service_restart_resumes_job_to_identical_fingerprint(self, tmp_path):
        """Kill the service mid-job; a new service over the same state_dir
        re-queues the job and resumes from the per-generation checkpoint,
        finishing with the uninterrupted run's fingerprint."""
        budget = JobBudget(generations=6, population=4)
        solo = solo_fingerprint(SOURCE, "work", budget)
        state_dir = tmp_path / "state"

        first = TuningService(ServiceConfig(state_dir=state_dir))
        try:
            client = ServiceClient(first.address_string())
            job_id = submit_budget(client, "alice", "work", SOURCE, budget)
            # Let at least one generation checkpoint, then pull the plug.
            for event in client.stream(job_id):
                if event["kind"] == "generation":
                    break
            client.close()
        finally:
            first.close()
        interrupted = first.job(job_id)
        assert not interrupted.terminal, "service drained too late to test resume"

        second = TuningService(ServiceConfig(state_dir=state_dir))
        try:
            with ServiceClient(second.address_string()) as client:
                row = client.wait(job_id, timeout=120)
                assert row["state"] == "done"
                assert row["result"]["fingerprint"] == solo
        finally:
            second.close()

    @pytest.mark.slow
    def test_worker_crash_mid_job_recovers_with_parity(self, tmp_path):
        """Distributed dispatch with a worker that hard-crashes
        (``--max-batches``, an ``os._exit`` mid-session): the mapper
        re-dispatches the lost batch and both tenants' jobs finish with solo
        fingerprints."""
        solo = solo_fingerprint(SOURCE, "work")
        config = ServiceConfig(dispatch="distributed", max_active_jobs=2,
                               state_dir=tmp_path / "state")
        with TuningService(config) as svc:
            env = dict(os.environ)
            env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
            workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro.distrib.worker",
                     "--connect", svc.worker_address(), "--quiet", *extra],
                    env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                for extra in ((), ("--max-batches", "2"))
            ]
            try:
                svc.wait_for_workers(2, timeout=60)
                with ServiceClient(svc.address_string()) as client:
                    job_a = submit_budget(client, "alice", "work", SOURCE)
                    job_b = submit_budget(client, "bob", "work", SOURCE)
                    row_a = client.wait(job_a, timeout=300)
                    row_b = client.wait(job_b, timeout=300)
                assert row_a["state"] == "done" and row_b["state"] == "done"
                assert row_a["result"]["fingerprint"] == solo
                assert row_b["result"]["fingerprint"] == solo
            finally:
                # The surviving worker only exits once the coordinator does;
                # final reaping happens after the service closes, below.
                pass
        from repro.distrib.worker import CRASH_EXIT_STATUS

        codes = []
        for process in workers:
            try:
                codes.append(process.wait(timeout=10))
            except subprocess.TimeoutExpired:
                process.kill()
                codes.append(process.wait(timeout=10))
        # The injected crash really happened.
        assert CRASH_EXIT_STATUS in codes


# ---------------------------------------------------------------------------
# Observability plane
# ---------------------------------------------------------------------------

class TestObservability:
    def test_status_and_metrics_show_per_tenant_accounting(self):
        import json as json_module
        import urllib.request

        with TuningService(ServiceConfig(obs_port=0)) as svc:
            with ServiceClient(svc.address_string()) as client:
                job_id = submit_budget(client, "alice", "work", SOURCE)
                client.wait(job_id)
            url = svc.obs_server.url()
            status = json_module.loads(
                urllib.request.urlopen(f"{url}/status", timeout=10).read())
            assert "service" in status
            assert status["process"]["threads"] >= 2
            section = status["service"]
            assert section["jobs"][0]["state"] == "done"
            assert section["tenants"]["alice"]["candidates_evaluated"] > 0
            metrics = urllib.request.urlopen(
                f"{url}/metrics", timeout=10).read().decode()
            assert "service_tenant_alice_candidates" in metrics.replace(".", "_") \
                or "service.tenant.alice.candidates" in metrics
            assert "process_peak_rss_bytes" in metrics and "process_threads" in metrics

    def test_tenant_tagged_spans_reach_telemetry(self, tmp_path):
        """With a telemetry_dir, every job generation lands as a
        tenant-tagged ``service.generation`` span, and the report's
        per-tenant table aggregates them."""
        from repro.telemetry.report import load_events, tenant_breakdown

        run_dir = tmp_path / "telemetry"
        with TuningService(ServiceConfig(telemetry_dir=run_dir)) as svc:
            with ServiceClient(svc.address_string()) as client:
                client.wait(submit_budget(client, "alice", "work", SOURCE))
                client.wait(submit_budget(client, "bob", "work", SOURCE))
        events, skipped = load_events(run_dir)
        assert skipped == 0
        rows = tenant_breakdown(events)
        assert {row["tenant"] for row in rows} == {"alice", "bob"}
        for row in rows:
            assert row["jobs"] == 1
            assert row["generations"] == BUDGET.generations


class TestPersistRace:
    def test_concurrent_tenants_never_tear_the_job_table(self, tmp_path):
        """Two tenants in closed loops against a service with a state_dir:
        every ``_persist`` (one per submit, one per finished job, from three
        threads) must land, in order, without two writers sharing a temp
        file — at the seed roughly one job in 80 ended in
        ``internal: FileNotFoundError`` and could take its runner down."""
        import json

        jobs_file = tmp_path / "state" / "jobs.json"
        failures = []

        def tenant(name: str, address: str) -> None:
            try:
                with ServiceClient(address) as client:
                    for index in range(40):
                        job_id = client.submit(name, f"{name}{index}", "int main() { return 3; }",
                                               "gcc", generations=1, population=2)
                        row = client.wait(job_id, timeout=60)
                        if row["state"] != "done":
                            failures.append(f"{job_id}: {row['state']} {row.get('error')}")
                        json.loads(jobs_file.read_text())
            except (ServiceError, ValueError, OSError) as exc:
                failures.append(f"{name}: {type(exc).__name__}: {exc}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TuningService(ServiceConfig(state_dir=tmp_path / "state",
                                             max_active_jobs=2)) as svc:
                threads = [threading.Thread(target=tenant, args=(name, svc.address_string()))
                           for name in ("alice", "bob")]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=180)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(json.loads(jobs_file.read_text())["jobs"]) == 80
        assert not list(jobs_file.parent.glob("jobs.json.*"))

    def test_terminal_event_and_state_are_one_step(self):
        """``ServiceClient.wait`` asks for the status row the moment the
        terminal event arrives, so the event and the state must change under
        one lock hold.  (They used to be two steps; only the ~40 ms Nagle
        stall on the stream lane kept a client from seeing ``done`` and then
        ``state: running`` — one wait in two under load once it was gone.)"""
        job = Job("job-00001", JobSpec("alice", "p", "int main(){}", "gcc", BUDGET), 1)
        job.set_state("running")
        seen = []

        def read() -> None:
            kinds = [event["kind"] for event in job.events_since(0, timeout=5)]
            seen.append((kinds, job.status_row()["state"]))

        reader = threading.Thread(target=read)
        enter_state = job.set_state

        def set_state_after_the_reader_had_its_chance(state: str) -> None:
            reader.start()
            reader.join(timeout=0.2)  # still blocked on the job's lock, or too early
            enter_state(state)

        job.set_state = set_state_after_the_reader_had_its_chance
        job.finish("done", {"best_fitness": 1.0})
        reader.join(timeout=5)
        assert seen == [(["done"], "done")]


# ---------------------------------------------------------------------------
# Resident set of the long-lived process
# ---------------------------------------------------------------------------

def _peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of a live process: its resident-set high-water mark."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise AssertionError(f"no VmHWM line for pid {pid}")


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/<pid>/status")
class TestResidentSet:
    def test_serve_stays_flat_when_the_fleet_does_the_work(self, tmp_path):
        """``serve --dispatch distributed`` scores no candidate and is asked
        for no image, so it builds no fitness and compiles nothing but the
        baselines: its high-water mark after eight more jobs stays within
        1.5x of what one warm-up job left.  (When every job thread built an
        LZMA fitness for a best image nobody read, each new thread's malloc
        arena kept one 16 MiB match-finder table: 56 -> 195 MiB, 3.5x.)"""
        address = f"127.0.0.1:{_free_port()}"
        worker_plane = f"127.0.0.1:{_free_port()}"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_DISTRIB_AUTHKEY"] = "resident-set-test"
        quiet = dict(env=env, stdin=subprocess.DEVNULL,
                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        processes = [subprocess.Popen(
            [sys.executable, "-m", "repro.campaign", "serve", "--bind", address,
             "--dispatch", "distributed", "--serve-workers", worker_plane,
             "--min-workers", "1"], **quiet)]
        failures = []

        def tenant(name: str) -> None:
            try:
                with ServiceClient(address, timeout=60) as client:
                    for index in range(4):
                        source = f"/* {name} {index} */\n{SOURCE}"
                        row = client.wait(
                            submit_budget(client, name, f"{name}{index}", source),
                            timeout=120)
                        if row["state"] != "done":
                            failures.append(f"{name}{index}: {row['state']}")
            except (ServiceError, OSError) as exc:
                failures.append(f"{name}: {type(exc).__name__}: {exc}")

        try:
            deadline = time.monotonic() + 60
            while True:
                assert processes[0].poll() is None, "serve exited early"
                try:
                    with ServiceClient(address, timeout=5) as client:
                        client.ping()
                    break
                except (ServiceError, OSError):
                    assert time.monotonic() < deadline, "serve never answered"
                    time.sleep(0.05)
            # Before the worker registers a job would be evaluated in serve.
            worker_log = tmp_path / "worker.log"
            with open(worker_log, "w") as log:
                processes.append(subprocess.Popen(
                    [sys.executable, "-m", "repro.distrib.worker", "--connect",
                     worker_plane, "--slots", "1", "--no-store"],
                    **{**quiet, "stdout": log, "stderr": subprocess.STDOUT}))
            while "connected to" not in worker_log.read_text():
                assert processes[1].poll() is None, "worker exited early"
                assert time.monotonic() < deadline, "worker never registered"
                time.sleep(0.05)
            with ServiceClient(address, timeout=60) as client:
                warm = client.wait(
                    submit_budget(client, "warmup", "warm", SOURCE), timeout=120)
            assert warm["state"] == "done"
            warmed_kib = _peak_rss_kib(processes[0].pid)
            threads = [threading.Thread(target=tenant, args=(name,), daemon=True)
                       for name in ("alice", "bob")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            final_kib = _peak_rss_kib(processes[0].pid)
        finally:
            for process in reversed(processes):
                process.terminate()
            for process in reversed(processes):
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=10)
        assert final_kib < 1.5 * warmed_kib, (warmed_kib, final_kib)


def _children(pid: int) -> list:
    """Pids of the live (not zombie) processes whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            state, parent = stat[stat.rindex(")") + 2:].split()[:2]
            if int(parent) == pid and state != "Z":
                found.append(int(entry.name))
    return found


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="walks /proc for the pool's children")
def test_sigterm_drains_serve_and_reaps_its_pool():
    """A supervisor stops ``serve`` with SIGTERM; it must drain as on Ctrl-C —
    exit 0 and take its process-pool children with it.  (It used to die of the
    signal in a millisecond, leaving both children blocked on their queue.)"""
    address = f"127.0.0.1:{_free_port()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.campaign", "serve", "--bind", address,
         "--dispatch", "process", "--workers", "2", "--quiet"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    children = []
    try:
        deadline = time.monotonic() + 60
        while True:
            assert serve.poll() is None, "serve exited early"
            try:
                with ServiceClient(address, timeout=5) as client:
                    client.ping()
                break
            except (ServiceError, OSError):
                assert time.monotonic() < deadline, "serve never answered"
                time.sleep(0.05)
        with ServiceClient(address, timeout=60) as client:
            row = client.wait(client.submit("alice", "tiny", "int main() { return 3; }",
                                            "gcc", generations=1, population=2), timeout=120)
        assert row["state"] == "done"
        children = _children(serve.pid)
        assert len(children) >= 2, children
        serve.send_signal(signal.SIGTERM)
        assert serve.wait(timeout=5) == 0
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in children if _alive(pid)]
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.wait(timeout=10)
        for pid in children:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
