"""A worker pool shared by every program of a campaign.

A mapper that owns its executor ties the substrate to a single program.  A
campaign tunes many programs, and spawning (and tearing down) a fresh
execution substrate per program would dominate the wall clock on short
searches — exactly the cost the shared pool amortizes.  One substrate
outlives all programs; ``dispatch`` picks which:

* ``"serial"`` — the deterministic inline path;
* ``"process"`` — one ``ProcessPoolExecutor`` for the whole campaign; each
  task carries the *identity* of its evaluator plus a pickle blob that
  workers deserialize once and cache (bounded, see
  :data:`~repro.tuner.evaluation.EVALUATOR_CACHE_LIMIT`);
* ``"thread"`` — one ``ThreadPoolExecutor``; threads share the process, so
  evaluators are called directly (free-threaded-build lane);
* ``"distributed"`` — one :class:`~repro.distrib.coordinator.Coordinator`
  listening on ``serve`` (``HOST:PORT``); workers started with
  ``python -m repro.distrib.worker --connect HOST:PORT`` — on this machine
  or any other — evaluate the campaign's candidates.

The three local modes hand out the same
:class:`~repro.tuner.evaluation.LocalMapper` a standalone tuner uses; the
only difference is ownership — the mapper *borrows* this pool's executor, so
the per-run ``engine.close()`` in :meth:`BinTuner.run` leaves it running.

Determinism: every mapper returns results in submission order regardless of
completion order (chunk order for the local pools, index-slotted replies for
the distributed one), so the evaluation engine's bit-for-bit reproducibility
guarantee carries over unchanged to every mode.

Persistence: an evaluator's ``store_dir`` travels inside the pickle blob,
and its ``__setstate__`` re-attaches the disk-backed artifact store
(:mod:`repro.tuner.store`) on the worker side — so every process worker of
a campaign opens the same store, and a freshly spawned worker consults the
campaign's persisted compiles before paying for its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.tuner.evaluation import CandidateEvaluator, LocalMapper, new_pool_executor


class SharedWorkerPool:
    """One execution substrate (or the serial path) spanning a whole campaign."""

    DISPATCH_MODES = ("serial", "process", "thread", "distributed")

    def __init__(
        self,
        executor: str = "serial",
        workers: int = 1,
        dispatch: Optional[str] = None,
        serve: Optional[str] = None,
        coordinator=None,
        authkey=None,
        mesh_store=None,
        mesh_budget_bytes: Optional[int] = None,
        obs_port: Optional[int] = None,
        obs_host: str = "127.0.0.1",
    ) -> None:
        mode = dispatch if dispatch is not None else executor
        if mode not in self.DISPATCH_MODES:
            raise ValueError(
                f"unknown dispatch {mode!r} (use one of {', '.join(self.DISPATCH_MODES)})"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if mode == "serial" and workers > 1:
            mode = "process"
        self.dispatch = mode
        #: Backward-compatible alias of :attr:`dispatch` (pre-distributed
        #: callers read ``pool.executor``).
        self.executor = mode
        self.workers = 1 if mode == "serial" else workers
        self._pool = None
        self._coordinator = coordinator
        self._own_coordinator = False
        if mode != "distributed" and mesh_store is not None:
            raise ValueError(
                f"the artifact mesh requires distributed dispatch, not {mode!r}"
            )
        if mode == "distributed" and self._coordinator is None:
            from repro.distrib.coordinator import Coordinator
            from repro.distrib.protocol import parse_address

            host, port = parse_address(serve) if serve else ("127.0.0.1", 0)
            # ``mesh_store`` (an ArtifactStore or a directory path) turns on
            # the coordinator's artifact plane: workers push fresh tier-2
            # entries here and fetch their misses from each other's work.
            # ``obs_port`` mounts the live /metrics + /status server on the
            # coordinator: its fleet-health view is pre-registered there.
            self._coordinator = Coordinator(
                host=host, port=port, authkey=authkey,
                artifact_store=mesh_store, mesh_budget_bytes=mesh_budget_bytes,
                obs_port=obs_port, obs_host=obs_host,
            )
            self._own_coordinator = True

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
        pool serves no mesh.  Capture before :meth:`close` — closing an
        owned coordinator drops it."""
        if self._coordinator is None:
            return None
        stats = getattr(self._coordinator, "mesh_stats", None)
        return stats() if stats is not None else None

    def fleet_telemetry(self) -> Optional[List[Dict[str, object]]]:
        """Latest per-worker telemetry rows, or ``None`` when this pool has
        no coordinator.  Capture before :meth:`close`, like
        :meth:`mesh_stats`."""
        if self._coordinator is None:
            return None
        fleet = getattr(self._coordinator, "fleet_telemetry", None)
        return fleet() if fleet is not None else None

    def fleet_status(self) -> Optional[List[Dict[str, object]]]:
        """Per-worker fleet rows with live health states, or ``None`` when
        this pool has no coordinator.  Capture before :meth:`close`."""
        if self._coordinator is None:
            return None
        status = getattr(self._coordinator, "fleet_status", None)
        return status() if status is not None else None

    @property
    def obs_server(self):
        """The coordinator's observability server (``None`` without one)."""
        if self._coordinator is None:
            return None
        return getattr(self._coordinator, "obs_server", None)

    # -- mapper construction ----------------------------------------------------------

    def _ensure_executor(self):
        if self._pool is None:
            self._pool = new_pool_executor(self.dispatch, self.workers)
        return self._pool

    def mapper(self, evaluator: CandidateEvaluator):
        """A per-program mapper backed by this pool (serial: inline)."""
        if self.dispatch == "distributed":
            from repro.distrib.mapper import DistributedMapper

            # The pool owns the coordinator; the mapper's close is a no-op.
            return DistributedMapper(self._coordinator, evaluator)
        # The pool owns the executor; the mapper only borrows it.
        return LocalMapper(
            evaluator, self.dispatch, self.workers,
            executor_source=self._ensure_executor,
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._own_coordinator and self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
