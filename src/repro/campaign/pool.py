"""The one owner of every evaluation substrate, and of every run's session.

A :class:`SharedWorkerPool` is the only thing that builds an executor or a
coordinator; every mapper it hands out *borrows* that substrate, and closing
the pool is what tears it down.  A campaign and the tuning service each hold
one pool across all their programs — spawning (and tearing down) a fresh
substrate per program would dominate the wall clock on short searches — and
a standalone tuner that wants parallelism borrows one the same way::

    with SharedWorkerPool("process", 4) as pool:
        result = BinTuner(compiler, spec, config, mapper_factory=pool.mapper).run()

:func:`open_session` is the one way a run's owner — a campaign or the tuning
service — opens everything with a lifetime: the telemetry sink, the pool and
the ``/metrics`` + ``/status`` server, in that order, on the owner's
``ExitStack``.

Without a pool, :class:`~repro.tuner.evaluation.EvaluationEngine` evaluates
inline.  ``dispatch`` picks the substrate:

* ``"serial"`` — the deterministic inline path;
* ``"process"`` — one ``ProcessPoolExecutor``; each task carries the
  *identity* of its evaluator plus a pickle blob that workers deserialize
  once and cache (bounded, see
  :data:`~repro.tuner.evaluation.EVALUATOR_CACHE_LIMIT`);
* ``"distributed"`` — one :class:`~repro.distrib.coordinator.Coordinator`
  listening on ``serve`` (``HOST:PORT``); workers started with
  ``python -m repro.distrib.worker --connect HOST:PORT`` — on this machine
  or any other — evaluate the candidates.

``dispatch`` is the substrate's only name: no mode (or ``"serial"``) with
``workers > 1`` means the process pool (:func:`resolve_dispatch`).  The
two local modes hand out a :class:`~repro.tuner.evaluation.LocalMapper`
and the distributed mode a :class:`~repro.distrib.mapper.DistributedMapper`;
neither has a ``close``, so a tuner's run leaves the pool running and a
follow-up ``evaluate()`` lands on the same executor.

The pool owns what it builds and nothing else: a distributed pool offers its
fleet view as *sources*; the ``/metrics`` server that renders them belongs
to the owner's session, and whether a mesh fits the dispatch mode is the
campaign's validation.

Determinism: every mapper returns results in submission order regardless of
completion order (chunk order for the local pools, index-slotted replies for
the distributed one), so the evaluation engine's bit-for-bit reproducibility
guarantee carries over unchanged to every mode.

Persistence: the pool carries no store configuration.  An evaluator's blob
carries its owner's cache terms (bound, store directory, byte budget), and
its ``__setstate__`` adopts the worker process's shared cache over that
disk-backed artifact store (:mod:`repro.tuner.store`) — so every process
worker opens the owner's store, and a freshly spawned worker consults the
persisted compiles before paying for its own.  ``mesh_store`` is the
owner's :class:`~repro.tuner.store.ArtifactStore` itself.
"""

from __future__ import annotations

import logging
import socket
from contextlib import ExitStack
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.tuner.evaluation import CandidateEvaluator, LocalMapper

if TYPE_CHECKING:
    from repro.distrib.obsserver import ObservabilityServer

logger = logging.getLogger("repro.campaign.pool")

#: The execution substrates ``dispatch`` names.
EXECUTORS = ("serial", "process", "distributed")


def resolve_dispatch(dispatch: Optional[str], workers: int) -> str:
    """The substrate a ``(dispatch, workers)`` pair means, validated.

    The one place the default is decided: no mode (or ``"serial"``) with
    several workers means the process pool.
    """
    mode = dispatch if dispatch is not None else "serial"
    if mode not in EXECUTORS:
        raise ValueError(f"unknown dispatch {mode!r} (use one of {', '.join(EXECUTORS)})")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if mode == "serial" and workers > 1:
        return "process"
    return mode


class SharedWorkerPool:
    """One execution substrate (or the serial path), shared by every mapper
    it hands out."""

    def __init__(
        self,
        dispatch: Optional[str] = None,
        workers: int = 1,
        serve: Optional[str] = None,
        authkey=None,
        mesh_store=None,
        mesh_budget_bytes: Optional[int] = None,
    ) -> None:
        self.dispatch = resolve_dispatch(dispatch, workers)
        self.workers = 1 if self.dispatch == "serial" else workers
        self._pool = None
        self._coordinator = None
        if self.dispatch == "distributed":
            from repro.distrib.coordinator import Coordinator
            from repro.distrib.protocol import parse_address

            host, port = parse_address(serve) if serve else ("127.0.0.1", 0)
            # ``mesh_store`` (the owner's ArtifactStore) turns on the
            # coordinator's artifact plane: workers push fresh tier-2
            # entries here and fetch their misses from each other's work.
            self._coordinator = Coordinator(
                host=host, port=port, authkey=authkey,
                artifact_store=mesh_store, mesh_budget_bytes=mesh_budget_bytes,
            )

    # -- distributed front ------------------------------------------------------------

    @property
    def coordinator(self):
        """The distributed coordinator (``None`` for local dispatch modes)."""
        return self._coordinator

    def address_string(self) -> str:
        if self._coordinator is None:
            raise ValueError(f"pool dispatch {self.dispatch!r} has no network address")
        return self._coordinator.address_string()

    def wait_for_workers(self, count: int, timeout: Optional[float] = None) -> int:
        """Block until ``count`` remote workers registered (distributed only)."""
        if self._coordinator is None:
            raise ValueError(f"pool dispatch {self.dispatch!r} has no remote workers")
        return self._coordinator.wait_for_workers(count, timeout)

    def mesh_stats(self) -> Optional[Dict[str, object]]:
        """The coordinator's artifact-plane counters, or ``None`` when this
        pool serves no mesh.  Capture before :meth:`close` — closing drops
        the coordinator."""
        return self._coordinator.mesh_stats() if self._coordinator is not None else None

    def fleet_status(self) -> Optional[List[Dict[str, object]]]:
        """Per-worker fleet rows with live health states, or ``None`` when
        this pool has no coordinator.  Capture before :meth:`close`."""
        return self._coordinator.fleet_status() if self._coordinator is not None else None

    # -- mapper construction ----------------------------------------------------------

    def _ensure_executor(self):
        """The pool's ``"process"`` executor, built on first use."""
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def mapper(self, evaluator: CandidateEvaluator):
        """A per-program mapper that borrows this pool's substrate (serial:
        inline)."""
        if self.dispatch == "distributed":
            from repro.distrib.mapper import DistributedMapper

            return DistributedMapper(self._coordinator, evaluator)
        return LocalMapper(
            evaluator, self.dispatch, self.workers,
            executor_source=self._ensure_executor,
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_session(
    stack: ExitStack,
    section: str,
    status: Callable[[], Dict[str, object]],
    metrics: Optional[Callable[[], Dict[str, object]]] = None,
    *,
    telemetry_dir=None,
    obs_port: Optional[int] = None,
    obs_host: str = "127.0.0.1",
    pool: Optional[SharedWorkerPool] = None,
    **pool_args,
) -> Tuple[SharedWorkerPool, Optional["ObservabilityServer"]]:
    """Open a run owner's session on ``stack``: sink, pool, observability
    server — in that order, so closing the stack (the reverse) takes the
    server down first and a scrape racing teardown gets its 503 while the
    state it reads is still there.

    * The sink is installed when a ``telemetry_dir`` *or* an ``obs_port``
      is given: one sink feeds the JSONL file and ``/metrics``, and with
      only a port it is registry only, so nothing touches disk.
    * The pool is ``SharedWorkerPool(**pool_args)``, built before the sink
      (so arguments it refuses leave no telemetry file) and closed with the
      stack, or an injected ``pool``, used as-is and left open.  A pool
      built here that listens for workers logs where to point them.
    * The ``/metrics`` + ``/status`` server (only with an ``obs_port``)
      serves the owner's ``status`` under ``section`` (``"campaign"`` /
      ``"service"``) and its optional ``metrics``, plus the ``process``
      source and, with a coordinator, the ``fleet`` one.

    Returns ``(pool, server)``; ``server`` is ``None`` without a port.
    """
    own_pool = pool is None
    with ExitStack() as built:
        # Built before the sink is installed, closed before it is removed.
        if own_pool:
            pool = built.enter_context(SharedWorkerPool(**pool_args))
        if telemetry_dir is not None or obs_port is not None:
            stack.enter_context(telemetry.recording(telemetry_dir, label=section))
        stack.push(built.pop_all())
    if own_pool:
        if pool.coordinator is not None:
            bound = pool.address_string()
            host, _sep, port = bound.rpartition(":")
            if host in ("0.0.0.0", "::", ""):
                # The wildcard bind is not a reachable address; point the
                # copy-paste line at something remote machines can use.
                connect = f"{socket.gethostname()}:{port}"
                note = f" (listening on all interfaces; {bound})"
            else:
                connect, note = bound, ""
            logger.info(
                "coordinator listening on %s%s — start workers with\n"
                "  python -m repro.distrib.worker --connect %s%s",
                connect, note, connect,
                " --authkey ..." if pool_args.get("authkey") else "",
            )
    server = None
    if obs_port is not None:
        from repro.distrib import obsserver

        server = stack.enter_context(
            obsserver.ObservabilityServer(host=obs_host, port=obs_port)
        )
        server.add_source(section, status)
        if metrics is not None:
            server.add_metrics_source(metrics)
        server.add_source("process", obsserver.process_status)
        server.add_metrics_source(obsserver.process_metrics)
        if pool.coordinator is not None:
            server.add_source("fleet", pool.coordinator.fleet_status)
            server.add_metrics_source(pool.coordinator.fleet_metrics)
        logger.info("observability: GET %s/metrics (Prometheus) and "
                    "%s/status (JSON)", server.url(), server.url())
    return pool, server
