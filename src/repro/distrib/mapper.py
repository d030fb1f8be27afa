"""The distributed mapper: ``map(keys) -> results`` over remote workers.

:class:`DistributedMapper` implements the exact contract the
:class:`~repro.tuner.evaluation.EvaluationEngine` already depends on — one
result per key, in *submission* order — so the engine's bit-for-bit
reproducibility carries over to any number of workers on any number of
machines.  The mechanics:

* keys are numbered at submission; workers return ``(index, result)`` pairs
  and the mapper slots them back by index, so completion order (and
  therefore worker speed, count, or placement) never reorders anything;
* each dispatch round snapshots the live workers and deals the pending
  tasks over them round-robin (every worker session is one slot);
* a worker that dies or times out mid-batch is discarded and its tasks
  return to the pending set — *bounded* re-dispatch
  (:data:`MAX_DISPATCH_ROUNDS`) so a poisonous batch that kills every worker
  it touches cannot loop forever;
* when no workers remain (or the re-dispatch budget is spent) the mapper
  falls back to evaluating the leftovers in-process with the same evaluator
  object it would have shipped — slower, never wrong, and deterministic
  because ordering is fixed by submission index, not by who evaluated what.

Remote evaluator exceptions (a worker's :class:`~repro.distrib.protocol.
BatchFailure`) propagate to the caller like every other mapper's programming
errors; they are deliberately *not* re-dispatched.
"""

from __future__ import annotations

import itertools
import pickle
import threading
from typing import List, Optional, Sequence, Tuple

from repro.distrib.coordinator import Coordinator, WorkerHandle
from repro.distrib.errors import WorkerLost
from repro.tuner.evaluation import (
    CandidateEvaluator,
    CandidateResult,
    FlagKey,
)

#: An indexed task: (submission index into the current ``map`` call, key).
IndexedTask = Tuple[int, FlagKey]

#: Dispatch rounds per ``map`` call before the leftovers run in-process.
MAX_DISPATCH_ROUNDS = 3

#: Evaluator ids: one process-wide count, so ids never alias across pools.
#: (``next`` on an ``itertools.count`` is atomic under the GIL.)
_EVALUATOR_IDS = itertools.count(1)


class DistributedMapper:
    """Maps candidate batches over a :class:`Coordinator`'s workers.

    One mapper serves one evaluator (one program of a campaign); the
    evaluator is pickled exactly once, under a process-unique id.  The
    coordinator is borrowed: the shared worker pool (the campaign package's
    ``SharedWorkerPool``, for a local fleet as for remote workers) that
    built it outlives every per-program mapper and closes it.
    """

    def __init__(self, coordinator: Coordinator, evaluator: CandidateEvaluator) -> None:
        self._coordinator = coordinator
        self._evaluator = evaluator
        self.evaluator_id = next(_EVALUATOR_IDS)
        self._blob = pickle.dumps(evaluator)
        #: Keys evaluated in-process because no worker (or no budget) was
        #: left — observability for tests and the demo.
        self.fallback_evaluations = 0

    # -- dispatch ---------------------------------------------------------------------

    @staticmethod
    def _assign(
        pending: Sequence[IndexedTask], handles: Sequence[WorkerHandle]
    ) -> List[Tuple[WorkerHandle, List[IndexedTask]]]:
        """Deal pending tasks over workers round-robin."""
        dealt = [(h, list(pending[i::len(handles)])) for i, h in enumerate(handles)]
        return [(h, chunk) for h, chunk in dealt if chunk]

    def map(self, keys: Sequence[FlagKey]) -> List[CandidateResult]:
        if not keys:
            return []
        results: List[Optional[CandidateResult]] = [None] * len(keys)
        pending: List[IndexedTask] = list(enumerate(keys))
        rounds = 0
        while pending:
            handles = self._coordinator.workers()
            if not handles or rounds >= MAX_DISPATCH_ROUNDS:
                self.fallback_evaluations += len(pending)
                for index, key in pending:
                    results[index] = self._evaluator(key)
                break
            rounds += 1
            lost: List[IndexedTask] = []
            errors: List[BaseException] = []
            collect = threading.Lock()

            def dispatch(handle: WorkerHandle, chunk: List[IndexedTask]) -> None:
                try:
                    delivered = self._coordinator.run_batch(
                        handle, self.evaluator_id, self._blob, chunk
                    )
                except WorkerLost:
                    self._coordinator.discard(handle)
                    with collect:
                        lost.extend(chunk)
                except BaseException as exc:  # remote evaluator error: propagate
                    with collect:
                        errors.append(exc)
                else:
                    for index, result in delivered:
                        results[index] = result

            threads = [
                threading.Thread(target=dispatch, args=(handle, chunk), daemon=True)
                for handle, chunk in self._assign(pending, handles)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
            # Re-dispatch in submission order: irrelevant to the results
            # (ordering is fixed by index) but it keeps logs readable.
            pending = sorted(lost)
        return results  # type: ignore[return-value]  # every slot is filled above
