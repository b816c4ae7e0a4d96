"""Multi-tenant fleet layer: streams of Sync-Switch jobs on one pool.

The fleet subsystem turns the single-job reproduction into a
serving-scale simulator of the paper's intended setting — recurring
training jobs on a shared cluster (Section VI-C): job arrival streams
(:mod:`repro.fleet.workload`), pluggable schedulers including
deadline/SLO-aware admission (:mod:`repro.fleet.scheduler`), the
discrete-event loop (:mod:`repro.fleet.fleet_sim`), which runs the
amortized Algorithm 1 timing search as fleet jobs, its per-class
policy cache and break-even ledger (:mod:`repro.fleet.policy_store`),
and fleet telemetry (:mod:`repro.fleet.metrics`).
"""

from repro.fleet.fleet_sim import (
    RESIM_MODES,
    FleetConfig,
    FleetSimulator,
    WorkerPool,
    simulate_fleet,
)
from repro.fleet.metrics import (
    FleetSummary,
    JobRecord,
    merge_fleet_summaries,
    percentile,
    summarize_fleet,
)
from repro.fleet.policy_store import (
    STORE_FORMAT_VERSION,
    ClassPolicy,
    JobClass,
    PolicyStore,
    policy_from_schedule_search,
)
from repro.fleet.scheduler import (
    SCHEDULERS,
    BestFitScheduler,
    FifoScheduler,
    SchedulerContext,
    SchedulerPolicy,
    SloAwareScheduler,
    SmallestJobFirstScheduler,
    make_scheduler,
)
from repro.fleet.workload import (
    DEFAULT_TENANT_TIERS,
    FLEET_SCENARIOS,
    JOB_KINDS,
    SYNC_POLICIES,
    TRACE_SCENARIOS,
    FleetScenario,
    JobRequest,
    TenantTier,
    TraceScenario,
    assign_shards,
    bounded_pareto,
    estimate_service_time,
    load_trace,
    poisson_stream,
    resolve_percent,
    save_trace,
    trace_stream,
)

__all__ = [
    "DEFAULT_TENANT_TIERS",
    "FLEET_SCENARIOS",
    "JOB_KINDS",
    "RESIM_MODES",
    "SCHEDULERS",
    "STORE_FORMAT_VERSION",
    "SYNC_POLICIES",
    "TRACE_SCENARIOS",
    "BestFitScheduler",
    "ClassPolicy",
    "FifoScheduler",
    "FleetConfig",
    "FleetScenario",
    "FleetSimulator",
    "FleetSummary",
    "JobClass",
    "JobRecord",
    "JobRequest",
    "PolicyStore",
    "SchedulerContext",
    "SchedulerPolicy",
    "SloAwareScheduler",
    "SmallestJobFirstScheduler",
    "TenantTier",
    "TraceScenario",
    "WorkerPool",
    "assign_shards",
    "bounded_pareto",
    "estimate_service_time",
    "load_trace",
    "make_scheduler",
    "merge_fleet_summaries",
    "percentile",
    "poisson_stream",
    "policy_from_schedule_search",
    "resolve_percent",
    "save_trace",
    "simulate_fleet",
    "summarize_fleet",
    "trace_stream",
]
