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

``dispatch`` is the substrate's only name: no mode (or ``"serial"``) with
``workers > 1`` means the process pool, decided by
:func:`~repro.tuner.evaluation.resolve_dispatch` for this pool and a
standalone tuner alike.  The three local modes hand out the same
:class:`~repro.tuner.evaluation.LocalMapper` a standalone tuner uses; the
only difference is ownership — the mapper *borrows* this pool's executor, so
the per-run ``engine.close()`` in :meth:`BinTuner.run` leaves it running.

The pool owns what it builds and nothing else: a distributed pool creates
and closes its coordinator and offers its fleet view as *sources*; the
``/metrics`` server that renders them belongs to whoever was given the port
(the campaign session or the tuning service), and whether a mesh fits the
dispatch mode is the campaign's validation.

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

from repro.tuner.evaluation import (
    CandidateEvaluator,
    LocalMapper,
    new_pool_executor,
    resolve_dispatch,
)


class SharedWorkerPool:
    """One execution substrate (or the serial path) spanning a whole campaign."""

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
            # ``mesh_store`` (an ArtifactStore or a directory path) turns on
            # the coordinator's artifact plane: workers push fresh tier-2
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
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
