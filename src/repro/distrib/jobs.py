"""Job model of the tuning service: admission, fair share, accounting.

A *job* is one tenant's request to tune one program under one compiler
family with a bounded search budget.  This module owns everything about
jobs that is independent of sockets and threads:

* :class:`JobBudget` — the client-visible budget (generations × population)
  and its exact mapping onto a :class:`~repro.tuner.tuner.BinTunerConfig`,
  shared with tests so a solo run is *constructed* identical to a service
  job, never approximately so;
* :func:`validate_submission` — admission control: absurd budgets
  (zero/negative generations, oversized sources past the configurable cap,
  unknown families, unprintable names) are refused with a typed
  :class:`AdmissionError` before any work is queued;
* :class:`Job` — lifecycle state, the seq-numbered event log streaming
  clients replay from any offset, and per-job accounting;
* :class:`FairShareQueue` — picks the next tenant by least accumulated
  work (then priority, then arrival), which is both the fairness policy
  *and* the dedupe economics: the tenant that has consumed least runs its
  generation right after an identical generation of a heavier tenant, so
  its compiles are warm artifact-cache hits;
* :class:`TenantAccounting` — candidates evaluated, compile seconds,
  tier-2/mesh hits per tenant, for ``/status`` and the billing story.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.distrib.errors import ServiceError
from repro.tuner.evaluation import EvaluationStats

#: Job lifecycle: admission enqueues, the scheduler runs, exactly one
#: terminal state ("interrupted" is queued-again after a service restart).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Event kinds a stream can carry; "done"/"failed"/"cancelled" are terminal.
TERMINAL_EVENTS = ("done", "failed", "cancelled")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class AdmissionError(ServiceError):
    """A submission the service refuses to enqueue (typed, never a traceback)."""


@dataclass(frozen=True)
class AdmissionLimits:
    """Operator-configurable admission caps."""

    max_source_bytes: int = 256 * 1024
    max_generations: int = 512
    max_population: int = 256
    families: Tuple[str, ...] = ("gcc", "llvm")
    #: Per-tenant cap on jobs waiting in the queue (running ones excluded).
    max_queued_per_tenant: int = 16


@dataclass(frozen=True)
class JobBudget:
    """The search budget a client buys: generations of a GA population.

    ``tuner_config_kwargs`` is the single source of truth for how a budget
    becomes tuner knobs — the acceptance tests build their solo baselines
    from it, which is what makes "bit-for-bit identical to a solo run" a
    constructive property instead of a hope.
    """

    generations: int
    population: int = 8
    stall_window: int = 60

    @property
    def max_iterations(self) -> int:
        return self.generations * self.population

    def tuner_config_kwargs(self) -> Dict[str, object]:
        from repro.tuner import GAParameters

        return {
            "max_iterations": self.max_iterations,
            "ga": GAParameters(population_size=self.population),
            "stall_window": self.stall_window,
        }

    def as_dict(self) -> Dict[str, int]:
        return {
            "generations": self.generations,
            "population": self.population,
            "stall_window": self.stall_window,
        }


@dataclass(frozen=True)
class JobSpec:
    """Everything admission accepted about one job (immutable thereafter)."""

    tenant: str
    program: str
    source: str
    family: str
    budget: JobBudget
    priority: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "program": self.program,
            "source": self.source,
            "family": self.family,
            "budget": self.budget.as_dict(),
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobSpec":
        budget = payload["budget"]
        return cls(
            tenant=payload["tenant"],
            program=payload["program"],
            source=payload["source"],
            family=payload["family"],
            budget=JobBudget(
                generations=budget["generations"],
                population=budget.get("population", 8),
                stall_window=budget.get("stall_window", 60),
            ),
            priority=payload.get("priority", 0),
        )


def _require_int(value: object, what: str, minimum: int, maximum: int) -> int:
    """An honest integer in range — JSON ``true`` must not pass as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise AdmissionError(
            "bad-budget", f"{what} must be an integer, got {type(value).__name__}"
        )
    if value < minimum or value > maximum:
        raise AdmissionError(
            "bad-budget", f"{what} must be in [{minimum}, {maximum}], got {value}"
        )
    return value


def _require_name(value: object, what: str, max_length: int) -> str:
    if not isinstance(value, str) or not value:
        raise AdmissionError("bad-name", f"{what} must be a non-empty string")
    if len(value) > max_length:
        raise AdmissionError(
            "bad-name", f"{what} longer than {max_length} characters"
        )
    if not _NAME_RE.match(value):
        raise AdmissionError(
            "bad-name",
            f"{what} may use letters, digits, '.', '_', '-' only (got {value!r})",
        )
    return value


def validate_submission(payload: Dict[str, object],
                        limits: AdmissionLimits) -> JobSpec:
    """Admission control: a schema-valid ``submit`` payload -> :class:`JobSpec`.

    The wire layer already guaranteed *shapes* (strings are strings, the
    budget is an object); this layer owns *semantics*, and every refusal is
    an :class:`AdmissionError` whose ``code`` the client can dispatch on:
    ``bad-name``, ``bad-budget``, ``source-too-large``, ``empty-source``,
    ``unknown-family``.
    """
    tenant = _require_name(payload.get("tenant"), "tenant", 64)
    program = _require_name(payload.get("program"), "program", 128)
    family = payload.get("family")
    if family not in limits.families:
        raise AdmissionError(
            "unknown-family",
            f"family must be one of {', '.join(limits.families)}, got {family!r}",
        )
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise AdmissionError("empty-source", "source must be non-empty program text")
    source_bytes = len(source.encode("utf-8"))
    if source_bytes > limits.max_source_bytes:
        raise AdmissionError(
            "source-too-large",
            f"source is {source_bytes} bytes "
            f"(cap {limits.max_source_bytes}; raise it service-side if intended)",
        )
    budget = payload.get("budget")
    if not isinstance(budget, dict):
        raise AdmissionError("bad-budget", "budget must be an object")
    unknown = set(budget) - {"generations", "population", "stall_window"}
    if unknown:
        raise AdmissionError(
            "bad-budget", f"unknown budget field(s): {', '.join(sorted(unknown))}"
        )
    generations = _require_int(
        budget.get("generations"), "budget.generations", 1, limits.max_generations
    )
    population = _require_int(
        budget.get("population", 8), "budget.population", 2, limits.max_population
    )
    stall_window = _require_int(
        budget.get("stall_window", 60), "budget.stall_window", 1, 1_000_000
    )
    priority = _require_int(payload.get("priority", 0), "priority", 0, 9)
    return JobSpec(
        tenant=tenant,
        program=program,
        source=source,
        family=family,
        budget=JobBudget(
            generations=generations, population=population, stall_window=stall_window
        ),
        priority=priority,
    )


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

#: Bound on a job's retained event log (a budget-capped job emits far fewer).
MAX_JOB_EVENTS = 4096


class Job:
    """One admitted job: lifecycle, event log, per-job accounting.

    The event log is the streaming contract: seq-numbered, append-only,
    replayable from any offset — a client that disconnects mid-stream
    reconnects and asks for ``from_seq`` without the service keeping any
    per-connection state.  All mutation goes through the condition lock;
    waiters are woken on every append.
    """

    def __init__(self, job_id: str, spec: JobSpec, submitted_seq: int) -> None:
        self.job_id = job_id
        self.spec = spec
        self.submitted_seq = submitted_seq
        self.state = "queued"
        self.error: Optional[Dict[str, str]] = None
        self.result: Optional[Dict[str, object]] = None
        self.generations_done = 0
        self.stats = EvaluationStats()
        self.created = time.time()
        self.cancel_requested = False
        self._events: List[Dict[str, object]] = []
        self._cond = threading.Condition()

    # -- events -----------------------------------------------------------------------

    def append_event(self, kind: str, data: Dict[str, object]) -> None:
        with self._cond:
            if len(self._events) >= MAX_JOB_EVENTS:
                # Keep the log bounded but never drop the terminal event's
                # slot: trim from the middle of the generation stream.
                del self._events[1 : len(self._events) // 2]
            self._events.append(
                {"seq": len(self._events) and self._events[-1]["seq"] + 1 or 1,
                 "kind": kind, "data": data}
            )
            self._cond.notify_all()

    def events_since(self, from_seq: int, timeout: Optional[float] = None
                     ) -> List[Dict[str, object]]:
        """Events with ``seq > from_seq``; blocks up to ``timeout`` for one."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                fresh = [event for event in self._events if event["seq"] > from_seq]
                if fresh or self.state in TERMINAL_EVENTS:
                    return fresh
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return []
                self._cond.wait(timeout=remaining)

    # -- state ------------------------------------------------------------------------

    def set_state(self, state: str) -> None:
        assert state in JOB_STATES, state
        with self._cond:
            self.state = state
            self._cond.notify_all()

    def finish(self, state: str, data: Dict[str, object]) -> None:
        """Append the terminal event and enter its state as *one* step: a
        reader must never see the event before the state, or the reverse."""
        with self._cond:
            self.append_event(state, data)
            self.set_state(state)

    def request_cancel(self) -> None:
        with self._cond:
            self.cancel_requested = True
            self._cond.notify_all()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_EVENTS

    def status_row(self) -> Dict[str, object]:
        with self._cond:
            row: Dict[str, object] = {
                "job_id": self.job_id,
                "tenant": self.spec.tenant,
                "program": self.spec.program,
                "family": self.spec.family,
                "state": self.state,
                "priority": self.spec.priority,
                "generations_done": self.generations_done,
                "budget": self.spec.budget.as_dict(),
                "evaluated": self.stats.evaluated,
                "compile_seconds": round(self.stats.compile_seconds, 6),
                "events": len(self._events),
            }
            if self.error is not None:
                row["error"] = dict(self.error)
            if self.result is not None:
                row["result"] = dict(self.result)
            return row


# ---------------------------------------------------------------------------
# Fair share
# ---------------------------------------------------------------------------

class TenantAccounting:
    """Per-tenant counters: the ``/status`` billing view.

    ``candidates`` is the fair-share cost signal (one unit per candidate
    actually evaluated for that tenant); the artifact-tier counters are the
    dedupe economics made visible — a tenant whose submissions repeat
    another's shows compile seconds near zero and hits near 100%.
    """

    _COUNTERS = ("jobs_submitted", "jobs_rejected", "jobs_done", "jobs_failed",
                 "jobs_cancelled")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tenants: Dict[str, Dict[str, object]] = {}

    def _row(self, tenant: str) -> Dict[str, object]:
        row = self._tenants.get(tenant)
        if row is None:
            row = {name: 0 for name in self._COUNTERS}
            row["stats"] = EvaluationStats()
            self._tenants[tenant] = row
        return row

    def bump(self, tenant: str, counter: str, amount: int = 1) -> None:
        assert counter in self._COUNTERS, counter
        with self._lock:
            row = self._row(tenant)
            row[counter] += amount

    def absorb(self, tenant: str, delta: EvaluationStats) -> None:
        """Fold one generation's engine-stat delta into the tenant's totals."""
        with self._lock:
            row = self._row(tenant)
            row["stats"] = row["stats"].add(delta)

    def cost(self, tenant: str) -> int:
        """The fair-share cost: candidates evaluated so far for this tenant."""
        with self._lock:
            row = self._tenants.get(tenant)
            return row["stats"].evaluated if row is not None else 0

    def fair_share_key(self, job: Job) -> Tuple[int, int, int]:
        """The fair-share order, smallest first: the tenant that consumed
        least, then higher priority, then arrival.  The admission queue and
        the service's generation turnstile both sort by this one key."""
        return (self.cost(job.spec.tenant), -job.spec.priority, job.submitted_seq)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for tenant, row in sorted(self._tenants.items()):
                stats: EvaluationStats = row["stats"]
                entry = {name: row[name] for name in self._COUNTERS}
                entry.update(
                    candidates_evaluated=stats.evaluated,
                    compile_seconds=round(stats.compile_seconds, 6),
                    worker_seconds=round(stats.worker_seconds, 6),
                    artifact_hits=stats.artifact_hits,
                    artifact_misses=stats.artifact_misses,
                    tier2_hits=stats.artifact_store_hits,
                    mesh_hits=stats.artifact_mesh_hits,
                    database_hits=stats.database_hits,
                )
                out[tenant] = entry
            return out


class FairShareQueue:
    """The admission queue with least-consumed-tenant-first ordering.

    ``pop`` scans the queued jobs and picks the one whose tenant has the
    least accumulated :meth:`TenantAccounting.cost`, breaking ties by
    higher priority then arrival order.  The same ordering drives the
    generation turnstile in the service, so fairness holds *within* long
    jobs, not just between them.
    """

    def __init__(self, accounting: TenantAccounting) -> None:
        self._accounting = accounting
        self._lock = threading.Lock()
        self._queued: List[Job] = []

    def push(self, job: Job) -> int:
        """Enqueue; returns the number of jobs ahead of it right now."""
        with self._lock:
            self._queued.append(job)
            return len(self._queued) - 1

    def queued_for(self, tenant: str) -> int:
        with self._lock:
            return sum(1 for job in self._queued if job.spec.tenant == tenant)

    def __len__(self) -> int:
        with self._lock:
            return len(self._queued)

    def remove(self, job: Job) -> bool:
        with self._lock:
            try:
                self._queued.remove(job)
                return True
            except ValueError:
                return False

    def pop(self) -> Optional[Job]:
        with self._lock:
            if not self._queued:
                return None
            chosen = min(self._queued, key=self._accounting.fair_share_key)
            self._queued.remove(chosen)
            return chosen


def stable_job_id(seq: int) -> str:
    return f"job-{seq:05d}"


__all__ = [
    "JOB_STATES",
    "TERMINAL_EVENTS",
    "AdmissionError",
    "AdmissionLimits",
    "JobBudget",
    "JobSpec",
    "validate_submission",
    "Job",
    "TenantAccounting",
    "FairShareQueue",
    "stable_job_id",
]
