"""The one owner of every evaluation substrate, and of every run's session.

A :class:`SharedWorkerPool` is the only thing that builds a substrate;
every mapper it hands out *borrows* it, and closing the pool is what tears
it down.  A campaign and the tuning service each hold one pool across all
their programs — starting (and tearing down) a fresh substrate per program
would dominate the wall clock on short searches — and a standalone tuner
that wants parallelism borrows one the same way::

    with SharedWorkerPool(4) as pool:
        result = BinTuner(compiler, spec, config, mapper_factory=pool.mapper).run()

:func:`open_session` is the one way a run's owner — a campaign or the tuning
service — opens everything with a lifetime: the telemetry sink, the pool and
the ``/metrics`` + ``/status`` server, in that order, on the owner's
``ExitStack``.

Without a pool, :class:`~repro.tuner.evaluation.EvaluationEngine` evaluates
inline.  Two facts decide what a pool is:

* ``workers`` — how many local one-slot worker sessions to fork.  ``1``
  forks none;
* ``serve_workers`` — a ``HOST:PORT`` where remote sessions may join
  (``python -m repro.distrib.worker --connect HOST:PORT``, on this machine
  or any other).

``workers=1`` with no ``serve_workers`` is the deterministic inline path
(:class:`~repro.tuner.evaluation.LocalMapper`).  Anything else is a fleet:
one :class:`~repro.distrib.coordinator.Coordinator` that hands out
:class:`~repro.distrib.mapper.DistributedMapper` s.  Without
``serve_workers`` it binds loopback under a random per-pool authkey that
only its forked sessions inherit, so no other local process can register
and get pickles exchanged with the owner; with it, it binds that address
under the operator's ``authkey``, and its local sessions (if any) use the
same key and dial loopback for a wildcard bind — a hybrid fleet of this
host's cores plus whoever joins.  Local sessions are forked by
:func:`~repro.distrib.worker.fork_sessions` before the coordinator exists,
then handed its port; they join no mesh (they share the owner's disk
store), each records ``worker-<pid>.jsonl`` under the owner's
``telemetry_dir``, and :attr:`SharedWorkerPool.pids` names them.  Moving
work from a local core to another machine changes no call site, and a
session that dies is a lost worker whose chunk goes to the survivors.
No mapper has a ``close``: a tuner's run leaves the pool running.

The pool owns what it builds and nothing else: a fleet offers its view as
*sources*; the ``/metrics`` server that renders them belongs to the owner's
session, and whether a mesh fits the fleet is the owner's validation.

Determinism: every mapper returns results in submission order regardless of
completion order (index-slotted replies), so the evaluation engine's
bit-for-bit reproducibility guarantee carries over unchanged to every fleet.

Persistence: the pool carries no store configuration.  An evaluator's blob
carries its owner's cache terms (bound, store directory, byte budget), and
its ``__setstate__`` adopts the worker process's shared cache over that
disk-backed artifact store (:mod:`repro.tuner.store`) — so every local
session opens the owner's store, and a fresh worker consults the persisted
compiles before paying for its own.  ``mesh_store`` is the owner's
:class:`~repro.tuner.store.ArtifactStore` itself.
"""

from __future__ import annotations

import logging
import secrets
import socket
from contextlib import ExitStack
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.tuner.evaluation import CandidateEvaluator, LocalMapper

if TYPE_CHECKING:
    from repro.distrib.obsserver import ObservabilityServer

logger = logging.getLogger("repro.campaign.pool")

#: Seconds local sessions get to register, and to exit after ``Shutdown``.
LOCAL_FLEET_TIMEOUT = 30.0

#: Wildcard binds, and the loopback address a local session dials for each.
_LOOPBACK = {"0.0.0.0": "127.0.0.1", "::": "::1"}


class SharedWorkerPool:
    """The inline path, or one fleet shared by every mapper it hands out;
    closing it reaps the local sessions."""

    def __init__(
        self,
        workers: int = 1,
        serve_workers: Optional[str] = None,
        authkey=None,
        mesh_store=None,
        mesh_budget_bytes: Optional[int] = None,
        telemetry_dir=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._coordinator = None
        #: Pids of the forked local sessions.
        self.pids: List[int] = []
        if workers == 1 and serve_workers is None:
            return
        from repro.distrib.coordinator import Coordinator
        from repro.distrib.protocol import format_address, parse_address

        if serve_workers is None:
            host, port = "127.0.0.1", 0
            authkey = secrets.token_bytes(32)
        else:
            host, port = parse_address(serve_workers)

        def listen() -> int:
            # ``mesh_store`` (the owner's ArtifactStore) turns on the
            # coordinator's artifact plane: workers push fresh tier-2 entries
            # here and fetch their misses from each other's work.
            self._coordinator = Coordinator(
                host=host, port=port, authkey=authkey,
                artifact_store=mesh_store, mesh_budget_bytes=mesh_budget_bytes,
            )
            return self._coordinator.port

        if workers == 1:
            listen()
            return
        from repro.distrib.worker import fork_sessions, run_session

        def session(port: int) -> int:  # in a forked child
            return run_session(telemetry_dir, format_address(_LOOPBACK.get(host, host), port),
                               authkey=authkey, mesh=False, log=logger.debug)

        # Fork, not spawn (~0.5 s to import the worker afresh), and before
        # the coordinator exists: no session inherits its listener or thread.
        try:
            self.pids = fork_sessions(workers, session, listen)
            self._coordinator.wait_for_workers(workers, timeout=LOCAL_FLEET_TIMEOUT)
        except BaseException:
            self.close()
            raise

    # -- the fleet --------------------------------------------------------------------

    @property
    def coordinator(self):
        """The fleet's coordinator (``None`` on the inline path)."""
        return self._coordinator

    def address_string(self) -> str:
        if self._coordinator is None:
            raise ValueError("an inline pool has no network address")
        return self._coordinator.address_string()

    def wait_for_workers(self, count: int, timeout: Optional[float] = None) -> int:
        """Block until ``count`` workers registered."""
        if self._coordinator is None:
            raise ValueError("an inline pool has no workers")
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

    def mapper(self, evaluator: CandidateEvaluator):
        """A per-program mapper that borrows this pool's fleet (or runs
        inline)."""
        if self._coordinator is None:
            return LocalMapper(evaluator)
        from repro.distrib.mapper import DistributedMapper

        return DistributedMapper(self._coordinator, evaluator)

    def close(self) -> None:
        if self._coordinator is not None:
            self._coordinator.close()  # a Shutdown to every session
            self._coordinator = None
        if self.pids:
            from repro.distrib.worker import end_sessions

            end_sessions(self.pids, grace=LOCAL_FLEET_TIMEOUT)
            self.pids = []

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
      (so arguments it refuses leave no telemetry file; a local fleet's
      sessions record under the same ``telemetry_dir``) and closed with the
      stack, or an injected ``pool``, used as-is and left open.  A pool
      built here with ``serve_workers`` logs where to point its workers.
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
            pool = built.enter_context(
                SharedWorkerPool(telemetry_dir=telemetry_dir, **pool_args))
        if telemetry_dir is not None or obs_port is not None:
            stack.enter_context(telemetry.recording(telemetry_dir, label=section))
        stack.push(built.pop_all())
    if own_pool and pool_args.get("serve_workers") is not None:
        bound = pool.address_string()
        host, _sep, port = bound.rpartition(":")
        if host in _LOOPBACK:
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
