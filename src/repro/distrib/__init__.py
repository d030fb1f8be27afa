"""Distributed candidate evaluation and the tuning service's client plane.

This subsystem serves candidate evaluation to worker sessions — forked on
this machine for a pool's ``workers``, anywhere on the network that reaches
its ``serve_workers`` — while keeping the component contract — a
``CandidateEvaluator`` behind an ordered ``map(keys) -> results`` —
completely fixed:

* :mod:`repro.distrib.transport` — the one socket seam under both planes:
  connect / listen / close, Nagle off, one-``sendall`` frames;
* :mod:`repro.distrib.protocol` — length-prefixed pickle framing and the
  message vocabulary (register, batch, result, failure, shutdown);
* :mod:`repro.distrib.coordinator` — the campaign-side listener workers
  register with, plus the synchronous per-worker batch RPC;
* :mod:`repro.distrib.worker` — the worker loop and its CLI
  (``python -m repro.distrib.worker --connect HOST:PORT [--slots N]``,
  where N is the number of one-slot sessions, each its own process), with
  a bounded pickle-once evaluator cache;
* :mod:`repro.distrib.mapper` — :class:`DistributedMapper`, the
  ``map(keys) -> results`` implementation with submission-order results,
  bounded re-dispatch on worker loss, and in-process fallback;
* :mod:`repro.distrib.artifacts` — the artifact mesh: workers push fresh
  tier-2 entries to the coordinator's store and fetch their misses from
  any other machine's past work, digest-verified on every hop;
* :mod:`repro.distrib.errors` — the failure taxonomy (transport losses are
  recovered; programming errors propagate);
* :mod:`repro.distrib.wire`, :mod:`repro.distrib.jobs`,
  :mod:`repro.distrib.client` — the tuning service's *client* plane: a
  pickle-free, schema-validated wire format, the submission vocabulary
  (budgets, specs, admission control) and the tenant-side client (workers
  keep the trusted pickle protocol above; clients never reach it).  The
  service itself, which runs jobs as a campaign does, lives in the
  ``campaign`` package, which sits above this one: nothing here imports
  it (``tests/test_src_hygiene.py`` pins the package order).

Because results are slotted by submission index — never completion order —
a distributed run is bit-for-bit identical to a serial one for any worker
or machine count, including runs where workers die mid-generation.
"""

from repro.distrib.artifacts import CoordinatorArtifactPlane, WorkerMeshClient
from repro.distrib.coordinator import Coordinator, WorkerHandle
from repro.distrib.errors import (
    ConnectionClosed,
    DistribError,
    ProtocolError,
    RemoteEvaluationError,
    ServiceError,
    WorkerLost,
)
from repro.distrib.mapper import DistributedMapper
from repro.distrib.protocol import format_address, parse_address


def __getattr__(name: str):
    # ``serve`` is imported lazily: loading ``repro.distrib.worker`` during
    # package import would make ``python -m repro.distrib.worker`` execute
    # the module twice (runpy's found-in-sys.modules warning).
    if name == "serve":
        from repro.distrib.worker import serve

        return serve
    if name == "run_worker":
        from repro.distrib.worker import run_worker

        return run_worker
    if name == "ServiceClient":
        from repro.distrib.client import ServiceClient

        return ServiceClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ConnectionClosed",
    "Coordinator",
    "CoordinatorArtifactPlane",
    "WorkerMeshClient",
    "DistribError",
    "DistributedMapper",
    "ProtocolError",
    "RemoteEvaluationError",
    "ServiceClient",
    "ServiceError",
    "WorkerHandle",
    "WorkerLost",
    "format_address",
    "parse_address",
    "run_worker",
    "serve",
]
