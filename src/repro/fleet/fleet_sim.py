"""Discrete-event multi-tenant fleet simulator.

The fleet layer sits on top of the single-job reproduction: a stream
of training jobs (Poisson arrivals or a trace file) is admitted onto a
shared pool of simulated workers by a pluggable scheduler, every
admitted job is trained through the existing
:class:`~repro.core.runtime.controller.SyncSwitchController` with its
own synchronization policy, and fleet-level telemetry (JCT, queueing
delay, makespan, utilization) is aggregated into a
:class:`~repro.fleet.metrics.FleetSummary`.

Timeline model
--------------

Each admitted job's telemetry yields two phase spans:

* the **BSP span** — everything up to the end of the last BSP segment
  (plus switch overheads).  BSP is barrier-synchronized, so this span
  is never stretched or shrunk by the fleet;
* the **ASP tail** — the asynchronous remainder, the only span the
  scheduler may elastically preempt.

How an allocation change affects the tail depends on
``FleetConfig(resim=...)``:

* ``"exact"`` (default) — **event-driven elastic re-simulation**.  The
  job is held as a paused
  :class:`~repro.core.runtime.elastic.ElasticTrainingRun` at the tail
  boundary (the segment-level cache of the unchanged BSP span); its
  completion is *projected* by forking the paused run and training the
  tail to the end.  When the scheduler preempts or restores workers,
  the live run resumes to the allocation-change instant, checkpoints,
  resizes the cluster (charging the calibrated reconfiguration
  overhead), re-slices the shared contention schedule from the resume
  instant, and a fresh fork projects the new completion.  JCT,
  accuracy, staleness telemetry and divergence therefore reflect what
  the cluster would really do — per Section V, ASP dynamics change
  with the worker set.
* ``"stretch"`` (legacy) — the job is simulated once at admission and
  the tail is linearly stretched by ``n / (n - k)`` on preemption
  (contracting again on restore).  Kept for A/B comparisons and
  benchmarks; its reported accuracy and telemetry are those of the
  *unpreempted* run.

Runs with zero allocation changes are bit-identical across the two
modes (golden-hash gated).

Co-located jobs share contention: one fleet-wide straggler schedule is
generated over the *physical* pool, and each admitted job sees the
slice of that schedule covering its assigned workers from its start
time onward — two jobs overlapping on a worker observe the same burst.
(The contention horizon is sized from the workload stream; a tuning
search that stretches the makespan beyond it simply sees a calm tail.)

Amortized tuning (``tune=True``) implements the paper's Section VI-C
economics at fleet scale: admitting the *first* Sync-Switch job of a
recurring class (setup x cluster shape) launches the Algorithm 1
binary search *as fleet jobs* — each search trial queues, occupies
workers and counts toward JCT/utilization like any other job — and
the finished policy lands in a :class:`~repro.fleet.policy_store.
PolicyStore`, whose cached switch timing every later recurrence of
the class reuses while the store accrues realized savings against the
search cost.

Determinism: every stochastic choice derives from the fleet seed via
:func:`repro.rng.child_rng`, so the same configuration always produces
an identical :class:`FleetSummary`.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field, replace

from repro.core.policies import (
    ConfigurationPolicy,
    PolicyManager,
    ProtocolSchedule,
    TimingPolicy,
)
from repro.core.runtime import ElasticTrainingRun, SyncSwitchController
from repro.core.search.binary_search import (
    TWO_PHASE,
    ScheduleSearchSession,
    SearchConfig,
    validate_sequences,
)
from repro.distsim.cluster import ClusterSpec, WorkerTier, default_worker_tiers
from repro.distsim.engines import synchronous_protocols
from repro.distsim.stragglers import (
    StragglerEvent,
    StragglerSchedule,
    ambient_contention,
    tier_slowdown,
)
from repro.distsim.telemetry import TrainingResult
from repro.errors import ConfigurationError, FleetError, SearchError
from repro.experiments.setups import SETUPS, scaled_job
from repro.fleet.metrics import FleetSummary, JobRecord, summarize_fleet
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import DETAIL_LEVELS, NULL_TRACER, Tracer
from repro.fleet.policy_store import (
    JobClass,
    PolicyStore,
    policy_from_schedule_search,
)
from repro.fleet.scheduler import (
    SchedulerContext,
    SchedulerPolicy,
    make_scheduler,
)
from repro.fleet.workload import (
    FLEET_SCENARIOS,
    TRACE_SCENARIOS,
    JobRequest,
    estimate_service_time,
    poisson_stream,
    trace_stream,
)
from repro.rng import child_rng, child_seed

__all__ = [
    "RESIM_MODES",
    "FleetConfig",
    "WorkerPool",
    "FleetSimulator",
    "simulate_fleet",
]

#: Event priorities at equal timestamps: completions free workers
#: before phase flips and new arrivals are considered.
_FINISH, _PHASE, _ARRIVAL = 0, 1, 2

#: Timeline models for preempted ASP tails: ``exact`` re-simulates the
#: tail on the changed worker set, ``stretch`` is the legacy linear
#: ``n / (n - k)`` model (see the module docstring).
RESIM_MODES = ("exact", "stretch")


@dataclass(frozen=True)
class FleetConfig:
    """One fleet simulation: scenario, scheduler, policy, seed, scale.

    ``tune`` enables the amortized timing search: the first admitted
    Sync-Switch job of each recurring class launches Algorithm 1 as
    fleet jobs (``tune_runs`` static-BSP target runs, then
    ``tune_runs`` sessions per explored setting with acceptance band
    ``tune_beta``, mirroring the paper's ``(recurring, bn, r)`` search
    settings of Tables II/IV-VI).  The default band is wider than the
    offline search's 0.01: fleet trials are single sessions trained
    under shared-cluster contention, whose accuracy noise at the small
    fleet scale exceeds the paper's multi-run band.

    ``protocols`` generalizes both knobs from the two-phase switch to
    an N-segment schedule: with ``tune=True`` the search explores that
    protocol sequence's per-boundary switch fractions (coordinate
    descent, Algorithm 1 per boundary) instead of the single BSP->ASP
    switch point; with ``fractions`` also given, every un-tuned
    Sync-Switch stream job trains the fixed schedule directly.  Both
    default to None — the plain two-phase fleet.
    """

    scenario: str = "rush"
    scheduler: str = "fifo"
    sync_policy: str = "sync-switch"
    seed: int = 0
    scale: float = 0.008
    n_jobs: int | None = None
    pool_size: int | None = None
    preemption_floor: int = 2
    ambient: bool = True
    contention: bool = True
    trace: tuple[JobRequest, ...] | None = None
    tune: bool = False
    tune_runs: int = 1
    tune_beta: float = 0.02
    resim: str = "exact"
    protocols: tuple[str, ...] | None = None
    fractions: tuple[float, ...] | None = None
    #: Observability: ``trace_detail`` turns on the virtual-time tracer
    #: at the given granularity; ``metrics_interval`` sets the registry
    #: snapshot cadence in virtual seconds (tracing alone enables the
    #: registry at its default cadence).  Purely observational — traced
    #: runs are bit-identical to untraced ones.
    trace_detail: str | None = None
    metrics_interval: float | None = None
    #: Heterogeneous worker tiers: None resolves the scenario default
    #: (trace scenarios split fast/slow via
    #: :func:`~repro.distsim.cluster.default_worker_tiers`; classic
    #: scenarios stay uniform), an empty tuple forces a uniform pool,
    #: and an explicit tuple must sum to the pool size.
    tiers: tuple[WorkerTier, ...] | None = None
    #: Debug-mode invariant checking: assert pool/queue/clock
    #: conservation invariants at every event (see
    #: :meth:`FleetSimulator._check_invariants`).  Also enabled
    #: suite-wide by the ``REPRO_FLEET_VALIDATE`` environment knob.
    validate: bool = False

    def __post_init__(self):
        if self.resim not in RESIM_MODES:
            raise ConfigurationError(
                f"unknown resim mode {self.resim!r}; known: {RESIM_MODES}"
            )
        if (
            self.trace is None
            and self.scenario not in FLEET_SCENARIOS
            and self.scenario not in TRACE_SCENARIOS
        ):
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}; known: "
                f"{sorted(FLEET_SCENARIOS) + sorted(TRACE_SCENARIOS)}"
            )
        if self.tiers is not None:
            object.__setattr__(self, "tiers", tuple(self.tiers))
        if self.trace is not None and self.n_jobs is not None:
            # A trace fixes the stream; a silently ignored n_jobs would
            # still split the cache key per value.
            raise ConfigurationError("n_jobs cannot be combined with a trace")
        if self.preemption_floor < 1:
            raise ConfigurationError("preemption_floor must be >= 1")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigurationError("scale must be in (0, 1]")
        if self.tune_runs < 1:
            raise ConfigurationError("tune_runs must be >= 1")
        if self.tune_beta < 0:
            raise ConfigurationError("tune_beta must be non-negative")
        if self.trace_detail is not None and self.trace_detail not in DETAIL_LEVELS:
            raise ConfigurationError(
                f"unknown trace detail {self.trace_detail!r}; "
                f"known: {DETAIL_LEVELS}"
            )
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ConfigurationError("metrics_interval must be positive")
        if self.fractions is not None and self.protocols is None:
            raise ConfigurationError("fractions requires protocols")
        if self.protocols is not None:
            object.__setattr__(
                self, "protocols", tuple(str(name) for name in self.protocols)
            )
            try:
                validate_sequences((self.protocols,))
            except SearchError as exc:
                raise ConfigurationError(str(exc)) from exc
            if self.fractions is None:
                if not self.tune:
                    raise ConfigurationError(
                        "protocols without fractions needs tune=True "
                        "(there is no schedule to train otherwise)"
                    )
            else:
                fractions = tuple(float(value) for value in self.fractions)
                object.__setattr__(self, "fractions", fractions)
                if len(fractions) != len(self.protocols):
                    raise ConfigurationError(
                        "fractions must have one entry per protocol"
                    )
                if any(not 0.0 <= value <= 1.0 for value in fractions):
                    raise ConfigurationError(
                        "schedule fractions must be in [0, 1]"
                    )
                if abs(sum(fractions) - 1.0) > 1e-9:
                    raise ConfigurationError(
                        f"schedule fractions must sum to 1, "
                        f"got {sum(fractions)}"
                    )


class WorkerPool:
    """Allocatable pool of physical worker ids (lowest-id-first).

    The shared cluster of the paper's recurring-job setting
    (Section VI-C): every admitted job's workers come from here, and
    co-location on a worker id is what makes two jobs share the same
    contention bursts.

    ``tiers`` makes the pool heterogeneous: worker ids are assigned to
    tiers in declaration order (tier counts must sum to the pool
    size), so with the fast tier declared first the lowest-id-first
    allocation policy doubles as fastest-first placement.
    """

    def __init__(self, size: int, tiers: tuple[WorkerTier, ...] | None = None):
        if size <= 0:
            raise ConfigurationError("pool size must be positive")
        self.size = size
        self._free = list(range(size))
        self.tiers = tuple(tiers) if tiers else ()
        #: Tier of each worker id (empty when the pool is uniform).
        self._tier_of: tuple[WorkerTier, ...] = ()
        if self.tiers:
            total = sum(tier.count for tier in self.tiers)
            if total != size:
                raise ConfigurationError(
                    f"tier counts sum to {total}, pool has {size} workers"
                )
            names = [tier.name for tier in self.tiers]
            if len(set(names)) != len(names):
                raise ConfigurationError("tier names must be unique")
            assignment: list[WorkerTier] = []
            for tier in self.tiers:
                assignment.extend([tier] * tier.count)
            self._tier_of = tuple(assignment)

    @property
    def free_count(self) -> int:
        """Number of unallocated workers."""
        return len(self._free)

    @property
    def busy_count(self) -> int:
        """Number of allocated workers."""
        return self.size - len(self._free)

    @property
    def free_workers(self) -> tuple[int, ...]:
        """Sorted ids of the unallocated workers (invariant checking)."""
        return tuple(sorted(self._free))

    def tier_of(self, worker: int) -> WorkerTier | None:
        """Hardware tier of one worker id (None on a uniform pool)."""
        if not self._tier_of:
            return None
        if not 0 <= worker < self.size:
            raise FleetError(f"worker {worker} does not exist")
        return self._tier_of[worker]

    def speed_factor(self, worker: int) -> float:
        """Step-time multiplier of one worker (1.0 on a uniform pool)."""
        tier = self.tier_of(worker)
        return tier.speed_factor if tier is not None else 1.0

    def bandwidth_factor(self, worker: int) -> float:
        """Provisioning-cost multiplier of one worker id."""
        tier = self.tier_of(worker)
        return tier.bandwidth_factor if tier is not None else 1.0

    def placement_slowdown(self, count: int) -> float:
        """Step-time slowdown a ``count``-worker allocation would see.

        The workers a job would get are the ``count`` lowest free ids
        (the allocation policy); synchronous training is bounded by the
        slowest of them, so this is their *worst* speed factor.  Falls
        back to the pool's overall best-case placement when fewer than
        ``count`` workers are free (the job cannot be admitted yet, but
        SLO triage still wants a feasibility estimate), and is exactly
        1.0 on a uniform pool.
        """
        if not self._tier_of:
            return 1.0
        candidates = sorted(self._free)[:count]
        if len(candidates) < count:
            candidates = list(range(min(count, self.size)))
        return max(self.speed_factor(worker) for worker in candidates)

    def allocate(self, count: int) -> tuple[int, ...]:
        """Take the ``count`` lowest free worker ids."""
        if count > len(self._free):
            raise FleetError(
                f"cannot allocate {count} workers; only {len(self._free)} free"
            )
        self._free.sort()
        taken = tuple(self._free[:count])
        del self._free[:count]
        return taken

    def release(self, workers: tuple[int, ...]) -> None:
        """Return workers to the pool."""
        for worker in workers:
            if worker in self._free or not 0 <= worker < self.size:
                raise FleetError(f"cannot release worker {worker}")
        self._free.extend(workers)


class _RunningJob:
    """Bookkeeping for one admitted job's fleet timeline.

    ``sim`` is the paused :class:`ElasticTrainingRun` of ``resim=exact``
    jobs (None under the legacy stretch model): it sits at the last
    allocation-change boundary (initially the ASP-tail start) and
    ``result`` always holds the *projection* of the completion from
    that state on the current worker set.
    """

    def __init__(
        self,
        request: JobRequest,
        workers: tuple[int, ...],
        start: float,
        result: TrainingResult,
        percent: float | None = None,
        tuned: bool = False,
        degraded: bool = False,
        sim: ElasticTrainingRun | None = None,
    ):
        self.request = request
        self.workers = workers
        self.start = start
        self.result = result
        self.sim = sim
        self.percent = percent if percent is not None else request.percent
        self.tuned = tuned
        self.degraded = degraded
        self.demand = request.n_workers
        self.phase = "bsp"
        self.version = 0
        self.preemptions = 0
        self.restores = 0
        #: Job-scoped tracer view (pid/offset pinned) and the sandbox
        #: buffer of the latest completion projection (exact mode) —
        #: absorbed into the live trace only when the projection turns
        #: out to be the realized tail.
        self.tracer = NULL_TRACER
        self.trace_buffer = NULL_TRACER
        #: Allocation history: one row per allocation-changing event.
        self.allocations: list[dict] = [
            {"time": start, "workers": len(workers), "cause": "admit"}
        ]
        # Phase spans from the training telemetry: everything after the
        # last barrier-synchronized segment is the elastic async tail
        # (for a bsp -> ssp -> asp schedule that is the ssp+asp span).
        tail = 0.0
        synchronous = synchronous_protocols()
        for record in reversed(result.segment_summary):
            if record["protocol"] in synchronous:
                break
            tail += record["duration"]
        self.asp_tail = min(tail, result.total_time)
        self.bsp_span = result.total_time - self.asp_tail
        self.asp_remaining = self.asp_tail
        self._mark = start + self.bsp_span

    @property
    def ratio(self) -> float:
        """Current allocation as a fraction of the full demand."""
        return len(self.workers) / self.demand

    def note_allocation(self, now: float, cause: str) -> None:
        """Record one allocation change for the per-segment telemetry."""
        self.allocations.append(
            {"time": now, "workers": len(self.workers), "cause": cause}
        )

    def enter_asp(self, now: float) -> None:
        """Flip to the (preemptible, elastic) ASP phase."""
        self.phase = "asp"
        self._mark = now

    def settle(self, now: float) -> None:
        """Account ASP progress since the last allocation change
        (stretch-model bookkeeping; exact jobs track time in the sim)."""
        if self.phase != "asp" or self.sim is not None:
            return
        self.asp_remaining = max(
            self.asp_remaining - (now - self._mark) * self.ratio, 0.0
        )
        self._mark = now

    def finish_time(self, now: float) -> float:
        """Projected completion time at the current allocation.

        Until the first allocation change the exact and stretch models
        must agree to the bit, so both evaluate the same float
        expression; after a resize the exact model's finish comes from
        the re-simulated projection.
        """
        if self.sim is not None and len(self.allocations) > 1:
            return self.start + self.result.total_time
        if self.phase == "bsp":
            return self.start + self.bsp_span + self.asp_tail
        return now + self.asp_remaining / self.ratio


@dataclass
class FleetSimulator:
    """Discrete-event loop serving one stream of training jobs.

    The fleet-scale realization of the paper's intended deployment
    (Section VI-C: recurring jobs on a shared cluster): every admitted
    job trains through the
    :class:`~repro.core.runtime.controller.SyncSwitchController`, and
    with ``tune=True`` the switch timing itself is searched in-stream
    (Algorithm 1 trials as fleet jobs) and amortized via the
    :class:`~repro.fleet.policy_store.PolicyStore`.
    """

    config: FleetConfig
    #: Optional pre-populated policy store (warm start): persisted
    #: stores let recurring classes reuse searched policies across
    #: fleet runs — the paper's ``(Yes, 0, r)`` setting.
    store: PolicyStore | None = None
    #: Observability sinks; default-resolved from the config in
    #: ``__post_init__`` (null objects when off).  Injectable for tests.
    tracer: object | None = None
    metrics: object | None = None
    _seq: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        config = self.config
        if self.tracer is None:
            self.tracer = (
                Tracer(config.trace_detail) if config.trace_detail else NULL_TRACER
            )
        if self.metrics is None:
            if config.metrics_interval is not None:
                self.metrics = MetricsRegistry(config.metrics_interval)
            elif self.tracer.enabled:
                self.metrics = MetricsRegistry()
            else:
                self.metrics = NULL_METRICS
        #: Final metrics dump (set by ``run`` when the registry is on).
        self.metrics_payload: dict | None = None
        if config.trace is not None:
            if not config.trace:
                raise ConfigurationError("trace must contain at least one job")
            self.stream = tuple(
                sorted(
                    config.trace,
                    key=lambda request: (request.arrival, request.job_id),
                )
            )
            self.scenario_name = config.scenario or "trace"
            default_pool = (
                max(request.n_workers for request in self.stream) * 2
            )
        elif config.scenario in TRACE_SCENARIOS:
            base = TRACE_SCENARIOS[config.scenario]
            self.scenario_name = base.name
            self.stream = trace_stream(
                base,
                config.scale,
                config.seed,
                n_jobs=config.n_jobs,
                sync_policy=config.sync_policy,
            )
            default_pool = base.pool_size
        else:
            base = FLEET_SCENARIOS[config.scenario]
            self.scenario_name = base.name
            self.stream = poisson_stream(
                base,
                config.scale,
                config.seed,
                n_jobs=config.n_jobs,
                sync_policy=config.sync_policy,
            )
            default_pool = base.pool_size
        self.pool_size = config.pool_size or default_pool
        ids = [request.job_id for request in self.stream]
        if len(set(ids)) != len(ids):
            # Running jobs are keyed by id: a duplicate would silently
            # orphan its predecessor's workers.
            raise ConfigurationError("stream has duplicate job ids")
        for request in self.stream:
            if request.n_workers > self.pool_size:
                raise ConfigurationError(
                    f"job {request.job_id} demands {request.n_workers} "
                    f"workers but the pool only has {self.pool_size}"
                )
        if config.tiers is not None:
            tiers = config.tiers or None  # empty tuple forces uniform
        elif config.trace is None and config.scenario in TRACE_SCENARIOS:
            tiers = default_worker_tiers(self.pool_size)
        else:
            tiers = None
        self.pool = WorkerPool(self.pool_size, tiers)
        self.scheduler: SchedulerPolicy = make_scheduler(config.scheduler)
        self.contention = self._fleet_contention()
        self._validate = config.validate or os.environ.get(
            "REPRO_FLEET_VALIDATE", "0"
        ) not in ("", "0")
        if self.store is None:
            self.store = PolicyStore()
        self._heap: list[tuple[float, int, int, object]] = []
        self._queue: list[JobRequest] = []
        self._running: dict[int, _RunningJob] = {}
        self._records: list[JobRecord] = []
        self._busy_seconds = 0.0
        self._last_time = 0.0
        # Tuning state: in-flight search sessions and the class of
        # every injected search-trial job.
        self._sessions: dict[JobClass, ScheduleSearchSession] = {}
        self._trial_class: dict[int, JobClass] = {}
        self._next_trial_id = max(ids, default=-1) + 1
        # SLO state: pending degrade decisions from scheduler triage.
        self._degraded: dict[int, float] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> FleetSummary:
        """Simulate the whole stream and return the fleet summary."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.process_name(
                0, f"fleet {self.scenario_name}/{self.scheduler.name}"
            )
            tracer.thread_name(0, 0, "scheduler")
        for request in self.stream:
            self._push(request.arrival, _ARRIVAL, request)
        while self._heap:
            now, _, _, payload = heapq.heappop(self._heap)
            self._advance(now)
            if isinstance(payload, JobRequest):
                self._queue.append(payload)
                if tracer.enabled:
                    tracer.instant(
                        f"arrival job-{payload.job_id}",
                        "arrival",
                        now,
                        args={"kind": payload.kind, "demand": payload.n_workers},
                    )
            else:
                kind, job_id, version = payload
                job = self._running.get(job_id)
                if job is None or job.version != version:
                    continue  # superseded by a reallocation
                if kind == "phase":
                    job.enter_asp(now)
                else:
                    self._complete(job, now)
            self._schedule(now)
            if self._validate:
                self._check_invariants(now)
        if self._queue or self._running or self._sessions:
            raise FleetError(
                f"stream ended with {len(self._queue)} queued, "
                f"{len(self._running)} running job(s) and "
                f"{len(self._sessions)} unfinished search(es)"
            )
        if self.metrics.enabled:
            self.metrics_payload = self.metrics.payload(self._last_time)
        return summarize_fleet(
            scenario=self.scenario_name,
            scheduler=self.scheduler.name,
            sync_policy=self.config.sync_policy,
            seed=self.config.seed,
            scale=self.config.scale,
            pool_size=self.pool_size,
            records=self._records,
            busy_worker_seconds=self._busy_seconds,
            tuning=self.store.report() if self.config.tune else None,
        )

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, priority: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, payload))

    def _advance(self, now: float) -> None:
        if self._validate:
            self._check_invariants(now)
        self._busy_seconds += self.pool.busy_count * (now - self._last_time)
        self._last_time = now
        metrics = self.metrics
        if metrics.enabled:
            metrics.set_gauge("queue_depth", len(self._queue))
            metrics.set_gauge("running_jobs", len(self._running))
            metrics.set_gauge("pool_busy", self.pool.busy_count)
            metrics.set_gauge("pool_free", self.pool.free_count)
            metrics.set_gauge(
                "pool_utilization", self.pool.busy_count / self.pool.size
            )
            metrics.maybe_snapshot(now, self.tracer)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _schedule(self, now: float) -> None:
        """Triage, admit, preempt and rebalance until nothing changes."""
        if self.tracer.enabled:
            self.tracer.instant(
                "pass",
                "scheduler",
                now,
                args={
                    "queued": len(self._queue),
                    "free": self.pool.free_count,
                    "running": len(self._running),
                },
            )
        context = SchedulerContext(
            now=now,
            scale=self.config.scale,
            store=self.store,
            preemptible=self._preemptible_surplus(),
            pool=self.pool,
            tracer=self.tracer,
        )
        rejected, degraded = self.scheduler.triage(
            self._queue, self.pool.free_count, self.config.scale, context
        )
        for request in rejected:
            self._queue.remove(request)
            self._reject(request, now)
        # Recomputed wholesale every pass: a queued job degraded while
        # its class was un-tuned is rescued if tuning finishes first.
        self._degraded.clear()
        self._degraded.update(degraded)
        # Jobs already shrunk in this pass: repeated reclaims within one
        # pass must not double-count a victim's preemptions.
        shrunk_this_pass: set[int] = set()
        # Exact-mode jobs resized in this pass: their completion is
        # re-projected once, after the pass settles — nothing reads an
        # intermediate projection, so a victim shrunk twice within one
        # pass re-trains its tail once, not once per shrink.
        reproject: dict[int, _RunningJob] = {}
        while True:
            admitted = self.scheduler.admit(
                self._queue, self.pool.free_count, self.config.scale, context
            )
            for request in admitted:
                self._queue.remove(request)
                self._admit(request, now)
            if admitted:
                continue
            if self.scheduler.preemptive and self._queue:
                # Refresh the reclaimable surplus: admissions earlier in
                # this pass may have started new (instantly-ASP) jobs
                # and prior reclaims changed allocations.
                context = replace(
                    context, preemptible=self._preemptible_surplus()
                )
                wanted = self.scheduler.preemption_request(
                    self._queue, self.pool.free_count, self.config.scale,
                    context,
                )
                if wanted > 0 and self._preempt(
                    wanted, now, shrunk_this_pass, reproject
                ) > 0:
                    continue
            break
        self._rebalance(now, reproject)
        for job in reproject.values():
            projection = job.sim.fork()
            buffer = job.tracer.sandbox()
            projection.set_tracer(buffer)
            projection.run_to_completion()
            job.result = projection.result()
            job.trace_buffer = buffer
            self._push(
                job.finish_time(now),
                _FINISH,
                ("finish", job.request.job_id, job.version),
            )

    def _preemptible_surplus(self) -> int:
        """Workers reclaimable from ASP-phase jobs above the floor."""
        floor = self.config.preemption_floor
        return sum(
            len(job.workers) - floor
            for job in self._running.values()
            if job.phase == "asp" and len(job.workers) > floor
        )

    def _admit(self, request: JobRequest, now: float) -> None:
        percent, tuned, degraded, schedule = self._resolve_percent(request)
        workers = self.pool.allocate(request.n_workers)
        tracer = self.tracer
        job_tracer = NULL_TRACER
        if tracer.enabled:
            pid = request.job_id + 1
            tracer.process_name(
                pid, f"job-{request.job_id} ({request.sync_policy})"
            )
            tracer.thread_name(pid, 0, "lifecycle")
            tracer.thread_name(pid, 1, "training")
            tracer.thread_name(pid, 2, "alloc")
            tracer.instant(
                f"admit job-{request.job_id}",
                "admission",
                now,
                args={
                    "workers": len(workers),
                    "percent": percent,
                    "tuned": tuned,
                    "degraded": degraded,
                },
            )
            job_tracer = tracer.scoped(pid, now)
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("jobs_admitted")
            if degraded:
                metrics.inc("jobs_degraded")
            metrics.observe("queue_delay_s", now - request.arrival)
        if self.config.resim == "exact":
            sim, result, buffer = self._begin_exact(
                request, workers, now, percent, schedule, job_tracer
            )
        else:
            sim, buffer = None, NULL_TRACER
            result = self._train(
                request, workers, now, percent, schedule, job_tracer
            )
        job = _RunningJob(
            request, workers, now, result,
            percent=percent, tuned=tuned, degraded=degraded, sim=sim,
        )
        job.tracer = job_tracer
        job.trace_buffer = buffer
        self._running[request.job_id] = job
        if job.asp_tail > 0.0 and job.bsp_span > 0.0:
            self._push(
                now + job.bsp_span, _PHASE, ("phase", request.job_id, 0)
            )
        elif job.asp_tail > 0.0:
            job.enter_asp(now)
        self._push(job.finish_time(now), _FINISH, ("finish", request.job_id, 0))
        if self.config.tune:
            self._maybe_begin_search(request, now)

    def _resolve_percent(
        self, request: JobRequest
    ) -> tuple[float, bool, bool, tuple | None]:
        """Effective policy for an admission: ``(percent, tuned,
        degraded, schedule)``.

        Sync-Switch stream jobs of a tuned class reuse the policy
        store's searched switch point (the amortized recurrence of
        Section VI-C) — the full ``(protocols, fractions)`` schedule
        when the class was schedule-tuned; un-tuned jobs fall back to
        the config's fixed schedule when one is set.  A job carrying
        its own schedule (injected schedule-search trials, explicit
        trace jobs) trains it as-is.  A pending SLO degrade decision
        overrides everything with its conservative all-BSP percentage.
        """
        percent = request.percent
        tuned = False
        schedule = None
        if request.protocols is not None:
            schedule = (request.protocols, request.fractions)
        elif (
            request.kind == "train"
            and request.sync_policy == "sync-switch"
            and request.percent_override is None
        ):
            policy = self.store.lookup(JobClass.of(request))
            if policy is not None:
                self.metrics.inc("policy_store_hits")
                percent, tuned = policy.percent, True
                if policy.fractions is not None:
                    schedule = (policy.protocols, policy.fractions)
            else:
                self.metrics.inc("policy_store_misses")
                if self.config.fractions is not None:
                    schedule = (self.config.protocols, self.config.fractions)
                    percent = self.config.fractions[0] * 100.0
        degraded = request.job_id in self._degraded
        if degraded:
            percent, tuned = self._degraded.pop(request.job_id), False
            schedule = None
        return percent, tuned, degraded, schedule

    def _reject(self, request: JobRequest, now: float) -> None:
        """Record an SLO rejection (the job never trains)."""
        if self.tracer.enabled:
            self.tracer.instant(
                f"reject job-{request.job_id}",
                "admission",
                now,
                args={"deadline": request.deadline},
            )
        self.metrics.inc("jobs_rejected")
        self._records.append(
            JobRecord(
                job_id=request.job_id,
                setup_index=request.setup_index,
                sync_policy=request.sync_policy,
                percent=request.percent,
                demand=request.n_workers,
                arrival=request.arrival,
                start=now,
                finish=now,
                preemptions=0,
                restores=0,
                accuracy=None,
                diverged=False,
                completed_steps=0,
                images=0,
                kind=request.kind,
                deadline=request.deadline,
                tuned=False,
                degraded=False,
                outcome="rejected",
                tier=request.tier,
            )
        )
        self._degraded.pop(request.job_id, None)

    def _preempt(
        self,
        wanted: int,
        now: float,
        shrunk_this_pass: set[int],
        reproject: dict[int, _RunningJob] | None = None,
    ) -> int:
        """Reclaim up to ``wanted`` workers from ASP-phase jobs.

        A no-op when the reclaimable surplus could not make any queued
        job fit — shrinking victims only to restore them in the same
        scheduling pass would be pure churn.  A victim shrunk more than
        once within one scheduling pass counts a single preemption
        (``shrunk_this_pass`` spans the pass, not this call).
        """
        floor = self.config.preemption_floor
        victims = sorted(
            (
                job
                for job in self._running.values()
                if job.phase == "asp" and len(job.workers) > floor
            ),
            key=lambda job: (-len(job.workers), job.request.job_id),
        )
        surplus = sum(len(job.workers) - floor for job in victims)
        smallest = min(request.n_workers for request in self._queue)
        if self.pool.free_count + surplus < smallest:
            return 0
        freed = 0
        for job in victims:
            if freed >= wanted:
                break
            take = min(len(job.workers) - floor, wanted - freed)
            applied = self._resize(
                job, len(job.workers) - take, now, "preempt", reproject
            )
            if applied and job.request.job_id not in shrunk_this_pass:
                shrunk_this_pass.add(job.request.job_id)
                job.preemptions += 1
            freed += take
        return freed

    def _rebalance(
        self,
        now: float,
        reproject: dict[int, _RunningJob] | None = None,
    ) -> None:
        """Give leftover free workers back to shrunk ASP jobs."""
        while self.pool.free_count > 0:
            starved = sorted(
                (
                    job
                    for job in self._running.values()
                    if job.phase == "asp" and len(job.workers) < job.demand
                ),
                key=lambda job: (job.ratio, job.request.job_id),
            )
            if not starved:
                break
            job = starved[0]
            grant = min(
                self.pool.free_count, job.demand - len(job.workers)
            )
            if self._resize(
                job, len(job.workers) + grant, now, "restore", reproject
            ):
                job.restores += 1

    def _resize(
        self,
        job: _RunningJob,
        new_count: int,
        now: float,
        cause: str,
        reproject: dict[int, _RunningJob] | None = None,
    ) -> bool:
        """Change a running ASP job's allocation and replan its finish.

        Under ``resim=exact`` the job's paused run is first resumed to
        this instant (replaying exactly what the previous projection
        predicted), then resized and re-projected; under the stretch
        model only the linear tail bookkeeping changes.  Each resize
        charges its own reconfiguration overhead — two same-pass
        shrinks are two real checkpoint→reconfigure→restart cycles —
        but when the caller passes a pass-scoped ``reproject`` dict the
        completion *projection* (and its finish event) is deferred to
        the end of the scheduling pass, so a victim resized twice in
        one pass re-trains its tail once; without the dict the
        projection runs inline.

        Returns whether the resize affected the job's timeline.  The
        pool always changes hands, but when the exact replay discovers
        the run completing inside the final update interval (a float
        edge: pauses land on update boundaries) the job's training is
        over and nothing is re-simulated — the caller must then not
        count a preemption/restore nor record an allocation segment.
        """
        job.settle(now)
        resumed = None
        if job.sim is not None and not job.sim.finished:
            # Resume before the pool changes hands: the re-slice below
            # must see the *new* physical mapping, the replay the old.
            resumed = job.sim.advance_to(now - job.start)
        current = len(job.workers)
        if new_count < current:
            released = job.workers[new_count:]
            job.workers = job.workers[:new_count]
            self.pool.release(released)
        elif new_count > current:
            job.workers = job.workers + self.pool.allocate(new_count - current)
        if job.sim is not None and resumed != "paused":
            # Replay found the run already complete: the workers change
            # hands but the job's timeline — and its pending finish
            # event — stay exactly as projected.
            return False
        job.note_allocation(now, cause)
        job.version += 1
        if self.tracer.enabled:
            self.tracer.instant(
                cause,
                "preemption",
                now,
                pid=job.request.job_id + 1,
                args={"workers": len(job.workers), "was": current},
            )
        self.metrics.inc(f"resize_{cause}")
        if resumed == "paused":
            contention = self._job_stragglers(
                job.workers, job.start, active_after=now
            )
            if contention is None and self.contention is not None:
                # An *empty* re-slice (no events survive the resume
                # instant) must still replace the stale slice of the
                # previous physical mapping; None means "keep" to the
                # sim, which is only right when contention is off.
                contention = StragglerSchedule([])
            job.sim.resize(len(job.workers), contention)
            if reproject is not None:
                # Finish event deferred with the projection (end of pass).
                reproject[job.request.job_id] = job
                return True
            projection = job.sim.fork()
            buffer = job.tracer.sandbox()
            projection.set_tracer(buffer)
            projection.run_to_completion()
            job.result = projection.result()
            job.trace_buffer = buffer
        self._push(
            job.finish_time(now),
            _FINISH,
            ("finish", job.request.job_id, job.version),
        )
        return True

    def _complete(self, job: _RunningJob, now: float) -> None:
        self.pool.release(job.workers)
        del self._running[job.request.job_id]
        result = job.result
        tracer = self.tracer
        if tracer.enabled:
            # The last projection became the realized tail: its sandbox
            # events are the job's events from the final pause onward.
            tracer.absorb(job.trace_buffer)
            self._emit_job_spans(job, now)
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("jobs_completed")
            metrics.observe("jct_s", now - job.request.arrival)
            metrics.observe(
                "staleness_p95", float(result.staleness.get("p95", 0.0))
            )
            metrics.inc("overhead_paid_s", result.total_overhead)
            metrics.inc("protocol_switches", result.switch_count)
        self._records.append(
            JobRecord(
                job_id=job.request.job_id,
                setup_index=job.request.setup_index,
                sync_policy=job.request.sync_policy,
                percent=job.percent,
                demand=job.demand,
                arrival=job.request.arrival,
                start=job.start,
                finish=now,
                preemptions=job.preemptions,
                restores=job.restores,
                accuracy=result.reported_accuracy,
                diverged=result.diverged,
                completed_steps=result.completed_steps,
                images=result.images_processed,
                kind=job.request.kind,
                deadline=job.request.deadline,
                tuned=job.tuned,
                degraded=job.degraded,
                outcome="completed",
                allocations=tuple(job.allocations),
                staleness=dict(result.staleness),
                tier=job.request.tier,
            )
        )
        if job.request.kind == "search-trial":
            self._finish_trial(job, now)
        elif job.tuned:
            self.store.note_recurrence(JobClass.of(job.request), now - job.start)

    def _emit_job_spans(self, job: _RunningJob, now: float) -> None:
        """Lifecycle spans of one completed job, emitted at completion
        (queue wait, the job itself, its BSP/ASP phases, and — at job
        detail — one span per allocation segment)."""
        tracer = self.tracer
        request = job.request
        pid = request.job_id + 1
        arrival = request.arrival
        cat = "search" if request.kind == "search-trial" else "job"
        result = job.result
        tracer.span(
            f"job-{request.job_id}",
            cat,
            job.start,
            now - job.start,
            pid=pid,
            tid=0,
            args={
                "sync_policy": request.sync_policy,
                "accuracy": result.reported_accuracy,
                "diverged": result.diverged,
                "preemptions": job.preemptions,
                "restores": job.restores,
                "tuned": job.tuned,
                "degraded": job.degraded,
            },
        )
        if job.start > arrival:
            tracer.span(
                "queued", "queue", arrival, job.start - arrival, pid=pid, tid=0
            )
        bsp_span = min(job.bsp_span, now - job.start)
        if bsp_span > 0.0:
            tracer.span("bsp-phase", "phase", job.start, bsp_span, pid=pid, tid=0)
        tail_start = job.start + bsp_span
        if now > tail_start:
            tracer.span(
                "async-tail", "phase", tail_start, now - tail_start, pid=pid, tid=0
            )
        if tracer.wants("job"):
            for index, row in enumerate(job.allocations):
                end = (
                    job.allocations[index + 1]["time"]
                    if index + 1 < len(job.allocations)
                    else now
                )
                tracer.span(
                    f"{row['workers']}w",
                    "alloc",
                    row["time"],
                    end - row["time"],
                    pid=pid,
                    tid=2,
                    args={"cause": row["cause"]},
                )

    # ------------------------------------------------------------------
    # amortized tuning (Section VI-C at fleet scale)
    # ------------------------------------------------------------------
    def _maybe_begin_search(self, request: JobRequest, now: float) -> None:
        """Launch Algorithm 1 for a class on its first admission.

        Only Sync-Switch stream jobs are tunable (static BSP/ASP jobs
        have no switch point, and a job pinning its own schedule has
        nothing left to search) and each class searches exactly once.
        With ``FleetConfig.protocols`` set the search is the N-segment
        schedule search over that sequence's boundaries; otherwise the
        paper's two-phase BSP -> ASP Algorithm 1.
        """
        if request.kind != "train" or request.sync_policy != "sync-switch":
            return
        if request.percent_override is not None or request.protocols is not None:
            return
        job_class = JobClass.of(request)
        if (
            self.store.lookup(job_class) is not None
            or self.store.is_searching(job_class)
        ):
            return
        setup = SETUPS[request.setup_index]
        search_config = SearchConfig(
            beta=self.config.tune_beta,
            max_settings=setup.search_max_settings,
            runs_per_setting=self.config.tune_runs,
            bsp_runs=self.config.tune_runs,
        )
        session = ScheduleSearchSession(
            search_config, (self.config.protocols or TWO_PHASE,)
        )
        session.tracer = self.tracer
        self.store.begin_search(job_class)
        if self.tracer.enabled:
            self.tracer.instant(
                "search-begin",
                "search",
                now,
                args={
                    "setup": job_class.setup_index,
                    "n_workers": job_class.n_workers,
                },
            )
        self.metrics.inc("searches_started")
        self._sessions[job_class] = session
        self._inject_trials(job_class, session, now)

    def _inject_trials(
        self, job_class: JobClass, session, now: float
    ) -> None:
        """Enqueue the session's next batch of trials as fleet jobs.

        Each trial's per-segment fraction vector rides on the request's
        ``protocols``/``fractions`` fields; the override still pins the
        segment-0 share so service estimates and reports see the
        familiar BSP percentage.
        """
        for fractions in session.next_batch():
            job_id = self._next_trial_id
            self._next_trial_id += 1
            trial = JobRequest(
                job_id=job_id,
                arrival=now,
                setup_index=job_class.setup_index,
                n_workers=job_class.n_workers,
                sync_policy="sync-switch",
                kind="search-trial",
                percent_override=fractions[0] * 100.0,
                protocols=session.protocols,
                fractions=fractions,
            )
            self._trial_class[job_id] = job_class
            self._push(now, _ARRIVAL, trial)

    def _finish_trial(self, job: _RunningJob, now: float) -> None:
        """Feed one finished search trial back into its session.

        The trial's *service time* (preemption stretches included) is
        charged to the search cost, like the paper charges whole
        sessions.  When the batch completes the session either emits
        the next batch or, once done, publishes the found policy to
        the store for every later recurrence to reuse.
        """
        job_class = self._trial_class.pop(job.request.job_id)
        session = self._sessions[job_class]
        result = job.result
        accuracy = (
            0.0 if result.diverged else (result.reported_accuracy or 0.0)
        )
        session.record(accuracy, now - job.start, now=now)
        self.metrics.inc("search_trials_completed")
        if session.awaiting:
            return
        if session.done:
            del self._sessions[job_class]
            policy = policy_from_schedule_search(
                job_class, session.result(), tuned_at=now
            )
            self.store.install(policy)
            if self.tracer.enabled:
                self.tracer.instant(
                    "search-complete",
                    "search",
                    now,
                    args={"percent": policy.percent},
                )
            self.metrics.inc("policies_installed")
        else:
            self._inject_trials(job_class, session, now)

    # ------------------------------------------------------------------
    # training and shared contention
    # ------------------------------------------------------------------
    def _train(
        self,
        request: JobRequest,
        workers: tuple[int, ...],
        now: float,
        percent: float | None = None,
        schedule: tuple | None = None,
        tracer=NULL_TRACER,
    ) -> TrainingResult:
        """One full single-job simulation on the assigned workers.

        ``percent`` is the effective BSP percentage the admission
        resolved (tuned / degraded); defaults to the request's own.
        ``schedule`` replaces the two-phase switch with a full
        ``(protocols, fractions)`` plan when set.
        """
        if percent is None:
            percent = request.percent
        job, policies = self._training_inputs(request, percent, schedule)
        controller = SyncSwitchController(
            job=job,
            cluster_spec=ClusterSpec(n_workers=len(workers)),
            policies=policies,
            stragglers=self._job_stragglers(workers, now),
            ambient_noise=self.config.ambient,
            overhead_time_scale=self.config.scale,
            overhead_bandwidth=self._job_bandwidth(workers),
            tracer=tracer,
        )
        return controller.run_job().result

    def _begin_exact(
        self,
        request: JobRequest,
        workers: tuple[int, ...],
        now: float,
        percent: float,
        schedule: tuple | None = None,
        tracer=NULL_TRACER,
    ) -> tuple[ElasticTrainingRun, TrainingResult, object]:
        """Start a resumable run and project its unpreempted completion.

        The live run is paused at the ASP-tail boundary — the cached
        BSP span no allocation change ever replays — and a fork trains
        the tail to the end for the initial finish-time projection.
        Jobs without an elastic tail (all-BSP, or divergence inside the
        BSP phase) complete inside the live run directly.

        Returns ``(sim, projected_result, trace_buffer)``: the live run
        traces through ``tracer`` directly, while the projection writes
        into a sandbox buffer that becomes the job's events past the
        pause instant if no allocation change supersedes it.
        """
        job, policies = self._training_inputs(request, percent, schedule)
        sim = ElasticTrainingRun(
            job=job,
            cluster_spec=ClusterSpec(n_workers=len(workers)),
            policies=policies,
            stragglers=self._job_stragglers(workers, now),
            ambient_noise=self.config.ambient,
            overhead_time_scale=self.config.scale,
            overhead_bandwidth=self._job_bandwidth(workers),
            tracer=tracer,
        )
        if sim.run_to_tail() == "finished":
            return sim, sim.result(), NULL_TRACER
        projection = sim.fork()
        buffer = tracer.sandbox()
        projection.set_tracer(buffer)
        projection.run_to_completion()
        return sim, projection.result(), buffer

    def _training_inputs(
        self,
        request: JobRequest,
        percent: float,
        schedule: tuple | None = None,
    ) -> tuple[object, PolicyManager]:
        """Scaled job config + offline policy set for one admission.

        ``schedule`` is an optional ``(protocols, fractions)`` pair: an
        N-segment plan built with the registry-validated
        :class:`ProtocolSchedule`; without one the admission trains the
        paper's two-phase BSP->ASP switch at ``percent``.
        """
        setup = SETUPS[request.setup_index]
        seed = child_seed(
            self.config.seed, f"fleet/job/{request.job_id}"
        ) % (2**31)
        job = scaled_job(setup, self.config.scale, seed, request.steps_scale)
        if schedule is not None:
            protocols, fractions = schedule
            policies = PolicyManager(
                timing=TimingPolicy.for_schedule(fractions, source="fleet"),
                protocol=ProtocolSchedule(tuple(protocols)),
                config=ConfigurationPolicy(),
            )
        else:
            policies = PolicyManager(
                timing=TimingPolicy(percent / 100.0, source="fleet"),
                config=ConfigurationPolicy(),
            )
        return job, policies

    def _job_bandwidth(self, workers: tuple[int, ...]) -> float:
        """Provisioning bandwidth multiplier for one allocation.

        Checkpoint/reconfigure/restart traffic crosses every assigned
        worker's link, so the allocation pays the *worst* (max)
        bandwidth factor among them; exactly 1.0 on a uniform pool, so
        homogeneous runs keep their bit-identical overhead arithmetic.
        """
        if not self.pool.tiers:
            return 1.0
        return max(self.pool.bandwidth_factor(worker) for worker in workers)

    def _check_invariants(self, now: float) -> None:
        """Conservation invariants checked at every event when enabled.

        The fleet-wide safety net behind ``FleetConfig(validate=True)``
        (and the ``REPRO_FLEET_VALIDATE`` environment knob): the
        simulated clock never runs backwards, the physical pool is
        exactly partitioned between free workers and running jobs (no
        double allocation, per-tier capacity respected), no job is
        simultaneously queued and running, and every running job's
        allocation sits between the preemption floor and its demand.
        """
        if now < self._last_time - 1e-9:
            raise FleetError(
                f"fleet clock moved backwards: {now} < {self._last_time}"
            )
        allocated: list[int] = []
        for job in self._running.values():
            allocated.extend(job.workers)
        if len(allocated) != len(set(allocated)):
            raise FleetError("worker allocated to two running jobs at once")
        if sorted(allocated + list(self.pool.free_workers)) != list(
            range(self.pool.size)
        ):
            raise FleetError(
                "pool partition violated: free + allocated != pool"
            )
        if self.pool.tiers:
            used: dict[str, int] = {}
            for worker in allocated:
                name = self.pool.tier_of(worker).name
                used[name] = used.get(name, 0) + 1
            for tier in self.pool.tiers:
                if used.get(tier.name, 0) > tier.count:
                    raise FleetError(
                        f"tier {tier.name!r} over-allocated: "
                        f"{used[tier.name]} > {tier.count}"
                    )
        overlap = {
            request.job_id for request in self._queue
        } & set(self._running)
        if overlap:
            raise FleetError(
                f"job(s) {sorted(overlap)} both queued and running"
            )
        floor = self.config.preemption_floor
        for job in self._running.values():
            count = len(job.workers)
            if count > job.demand:
                raise FleetError(
                    f"job {job.request.job_id} holds {count} workers "
                    f"above its demand {job.demand}"
                )
            if count < min(floor, job.demand):
                raise FleetError(
                    f"job {job.request.job_id} shrunk to {count} workers, "
                    f"below the preemption floor {floor}"
                )

    def _fleet_contention(self) -> StragglerSchedule | None:
        """Pool-wide contention events shared by co-located jobs.

        Two event populations compose by schedule merge: transient
        ambient bursts (``config.contention``) and permanent hardware
        slowdowns of heterogeneous tiers — a slow-tier worker is a
        straggler that never recovers, so per-job slicing and resume
        re-slicing treat both uniformly.
        """
        hardware = [
            tier_slowdown(worker, tier.speed_factor, tier.extra_latency)
            for worker in range(self.pool.size)
            for tier in (self.pool.tier_of(worker),)
            if tier is not None
            and (tier.speed_factor > 1.0 or tier.extra_latency > 0.0)
        ]
        ambient = None
        if self.config.contention:
            last_arrival = max(
                (request.arrival for request in self.stream), default=0.0
            )
            longest = max(
                estimate_service_time(
                    request.setup_index,
                    100.0,
                    self.config.scale,
                    request.steps_scale,
                )
                for request in self.stream
            )
            horizon = last_arrival + 3.0 * longest
            ambient = ambient_contention(
                self.pool_size,
                horizon,
                child_rng(
                    self.config.seed,
                    f"fleet/{self.scenario_name}/contention",
                ),
                mean_interval=horizon / 6.0,
                mean_duration=max(horizon / 50.0, 0.5),
                slow_factor=3.0,
            )
        if ambient is None and not hardware:
            return None
        if not hardware:
            return ambient
        if ambient is None:
            return StragglerSchedule(hardware)
        return ambient.merged_with(StragglerSchedule(hardware))

    def _job_stragglers(
        self,
        workers: tuple[int, ...],
        now: float,
        active_after: float | None = None,
    ) -> StragglerSchedule | None:
        """Slice of the fleet contention seen by a job starting at ``now``.

        Physical-worker events still active (or future) at the cut
        instant are remapped to the job's local worker indices with
        starts shifted into job-relative time, so two jobs co-located
        on a worker see the same burst during their overlap.

        ``active_after`` re-slices at a resume instant: events are
        still expressed relative to the job's start ``now``, but only
        the portion active after the (later) fleet instant
        ``active_after`` is kept — the elastic re-simulation swaps this
        slice in when an allocation change remaps local workers onto
        different physical ones mid-run.
        """
        if self.contention is None:
            return None
        cut = now if active_after is None else active_after
        events = []
        for local, physical in enumerate(workers):
            for event in self.contention.events_for(physical):
                if event.end <= cut:
                    continue
                begin = max(event.start, cut)
                events.append(
                    StragglerEvent(
                        worker=local,
                        start=begin - now,
                        duration=event.end - begin,
                        slow_factor=event.slow_factor,
                        extra_latency=event.extra_latency,
                    )
                )
        return StragglerSchedule(events) if events else None


def simulate_fleet(
    config: FleetConfig,
    store: PolicyStore | None = None,
    tracer=None,
    metrics=None,
) -> FleetSummary:
    """Run one fleet configuration end to end (one fleet cell).

    The unit of the ``fleet``/``fleet-search`` artifacts: a whole
    multi-job stream served on one shared pool (Section VI-C's
    recurring-job setting), summarized into fleet telemetry.  ``store``
    warm-starts the run from a persisted
    :class:`~repro.fleet.policy_store.PolicyStore` (and is mutated
    in-place, so the caller can persist it afterwards).  ``tracer`` /
    ``metrics`` override the config-resolved observability sinks (use
    :func:`repro.experiments.fleet.run_traced_fleet` to get the events
    and metrics payload back alongside the summary).
    """
    return FleetSimulator(
        config, store=store, tracer=tracer, metrics=metrics
    ).run()
