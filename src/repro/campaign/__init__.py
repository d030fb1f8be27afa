"""Campaign orchestration: suite-scale tuning with shared state.

This subsystem turns the per-program :class:`~repro.tuner.tuner.BinTuner`
into a suite-scale system (the setting behind the paper's Table 1 and
Figs. 5-8):

* :mod:`repro.campaign.campaign` — the :class:`Campaign` orchestrator over a
  programs × compiler-families job matrix, with JSON checkpoint/resume and
  cross-program warm starts;
* :mod:`repro.campaign.database` — the :class:`CampaignDatabase` sharding one
  :class:`~repro.tuner.database.TuningDatabase` per program under a single
  store, with cross-program aggregations (per-flag potency, best-config
  overlap);
* :mod:`repro.campaign.pool` — the :class:`SharedWorkerPool` every program
  of a campaign evaluates on (one substrate per campaign, not per program:
  a process pool, a thread pool, or a :mod:`repro.distrib` coordinator
  serving workers on other machines);
* :mod:`repro.campaign.cli` — the ``python -m repro.campaign`` entry point,
  including the ``report`` (checkpoint-only tables) and ``worker``
  (distributed evaluation) subcommands.
"""

from repro.campaign.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    ProgramJob,
    ProgramResult,
    default_compiler_provider,
    workload_spec_provider,
)
from repro.campaign.database import CampaignDatabase, ShardKey, SIGNATURE_FIELDS
from repro.campaign.pool import SharedWorkerPool

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignDatabase",
    "CampaignResult",
    "ProgramJob",
    "ProgramResult",
    "SIGNATURE_FIELDS",
    "ShardKey",
    "SharedWorkerPool",
    "default_compiler_provider",
    "workload_spec_provider",
]
