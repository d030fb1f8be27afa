"""Campaign orchestration and the tuning service: the owners of a run.

This subsystem turns the per-program :class:`~repro.tuner.tuner.BinTuner`
into a suite-scale system (the setting behind the paper's Table 1 and
Figs. 5-8), and into a long-lived service.  Its two owners of a run — a
campaign and the service — share one job runner
(:func:`~repro.campaign.campaign.run_job`), one job table and one session:

* :mod:`repro.campaign.campaign` — the :class:`Campaign` orchestrator over a
  programs × compiler-families job matrix, with JSON checkpoint/resume and
  cross-program warm starts;
* :mod:`repro.campaign.service` — the multi-tenant
  :class:`~repro.campaign.service.TuningService`: jobs submitted over
  :mod:`repro.distrib`'s client plane, scheduled fair-share by tenant,
  each job fingerprint-identical to a solo run;
* :mod:`repro.campaign.database` — the :class:`CampaignDatabase` sharding one
  :class:`~repro.tuner.database.TuningDatabase` per program under a single
  store, with cross-program aggregations (per-flag potency, best-config
  overlap);
* :mod:`repro.campaign.pool` — the :class:`SharedWorkerPool` every program
  of a campaign evaluates on (one substrate per campaign, not per program:
  a :mod:`repro.distrib` coordinator serving forked local sessions or
  workers on other machines);
* :mod:`repro.campaign.cli` — the ``python -m repro.campaign`` entry point,
  including the ``report`` (checkpoint-only tables), ``worker`` (a
  session joining a ``--serve-workers`` fleet), ``serve`` (the tuning
  service) and ``submit``
  (its client) subcommands.
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
