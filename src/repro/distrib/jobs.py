"""What a client may submit to the tuning service: the submission vocabulary.

A *job* is one tenant's request to tune one program under one compiler
family with a bounded search budget.  This module owns the words both ends
of the client plane share, independent of sockets, threads and the service
that runs the jobs (``TuningService``, in the ``campaign`` package):

* :data:`JOB_STATES` / :data:`TERMINAL_EVENTS` — a job's lifecycle and the
  events that end its stream;
* :class:`JobBudget` — the client-visible budget (generations × population)
  and its exact mapping onto a :class:`~repro.tuner.tuner.BinTunerConfig`,
  shared with tests so a solo run is *constructed* identical to a service
  job, never approximately so;
* :class:`JobSpec` — everything admission accepted about one job;
* :func:`validate_submission` — admission control: absurd budgets
  (zero/negative generations, oversized sources past the configurable cap,
  unknown families, unprintable names) are refused with a typed
  :class:`AdmissionError` (caps in :class:`AdmissionLimits`) before any
  work is queued.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.distrib.errors import ServiceError

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


__all__ = [
    "JOB_STATES",
    "TERMINAL_EVENTS",
    "AdmissionError",
    "AdmissionLimits",
    "JobBudget",
    "JobSpec",
    "validate_submission",
]
