"""Per-job-class timing-policy store with amortization accounting.

The paper's economic argument for the offline search (Section VI-C,
Tables II/IV-VI) is that DNN training jobs *recur*: the search is paid
once per job class and its cost is amortized across every later
recurrence, each of which saves ``T_BSP - T_policy`` over the
conservative all-BSP baseline.  This module gives the fleet layer that
bookkeeping:

* :class:`JobClass` — the recurrence key: workload setup + cluster
  shape (Table I rows are exactly such classes);
* :class:`ClassPolicy` — one searched timing policy with its measured
  baseline/tuned service times and total search cost, exposing the
  same derived quantities as
  :class:`~repro.core.search.cost_model.SearchCostReport` (search cost
  in BSP-session multiples, recurrences to break even);
* :class:`PolicyStore` — the fleet-wide cache: lookups for admission
  control, per-class realized-savings accounting as tuned recurrences
  complete, and the per-class rows of the
  ``results/fleet_tuning_summary.json`` artifact.

Break-even accounting matches the cost model exactly:
``amortized_recurrences = search_cost_x / (1 - T_policy / T_BSP)``
which is the same number as ``search_cost / (T_BSP - T_policy)``
recurrences — the tests pin this equivalence against a
:class:`~repro.core.search.cost_model.SearchCostSimulator` replay.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.core.search.binary_search import TWO_PHASE, SearchOutcome
from repro.errors import ConfigurationError, FleetError
from repro.fleet.workload import JobRequest, estimate_service_time

__all__ = [
    "STORE_FORMAT_VERSION",
    "JobClass",
    "ClassPolicy",
    "PolicyStore",
    "policy_from_schedule_search",
]

#: On-disk payload version for persisted stores; bump on any breaking
#: change to the schema so stale files fail loudly at load time.
#: Version 2 added the N-segment schedule fields (``protocols`` /
#: ``fractions``); version-1 payloads are still readable — their
#: percent-only policies load as two-phase BSP->ASP schedules.
STORE_FORMAT_VERSION = 2

#: Oldest persisted payload version :meth:`PolicyStore.from_payload`
#: can still interpret.
_OLDEST_READABLE_VERSION = 1


@dataclass(frozen=True)
class JobClass:
    """The recurrence key: one workload setup on one cluster shape.

    Two jobs belong to the same class when they train the same Table-I
    setup with the same worker demand — exactly the condition under
    which the paper reuses a searched switch timing for a recurring
    job (Section VI-C).
    """

    setup_index: int
    n_workers: int

    @classmethod
    def of(cls, request: JobRequest) -> "JobClass":
        """The class a job request belongs to."""
        return cls(setup_index=request.setup_index, n_workers=request.n_workers)

    def label(self) -> str:
        """Short display key, e.g. ``exp1x8``."""
        return f"exp{self.setup_index}x{self.n_workers}"


@dataclass(frozen=True)
class ClassPolicy:
    """One searched timing policy and its measured economics.

    ``bsp_time`` and ``policy_time`` are *fleet-measured* service
    times (the search's static-BSP target runs and the sessions at the
    found switch point), so preemption stretches and shared-cluster
    contention are priced in, unlike the noise-free cost model.
    """

    job_class: JobClass
    percent: float
    target_accuracy: float
    bsp_time: float
    policy_time: float
    search_cost: float
    n_trials: int
    tuned_at: float
    #: The searched protocol sequence.  Two-phase BSP -> ASP searches
    #: (and version-1 payloads) leave ``fractions`` at None: the policy is
    #: the paper's percent-only switch point and recurrences train
    #: exactly as before the schedule generalization.  Schedule
    #: searches fill both fields and recurrences replay the full
    #: N-segment plan.
    protocols: tuple[str, ...] = TWO_PHASE
    fractions: tuple[float, ...] | None = None

    def schedule_label(self) -> str:
        """Display form of the protocol sequence, e.g. ``BSP -> ASP``."""
        return " -> ".join(name.upper() for name in self.protocols)

    @property
    def saving_per_recurrence(self) -> float:
        """Seconds one tuned recurrence saves over the all-BSP baseline."""
        return self.bsp_time - self.policy_time

    @property
    def search_cost_x(self) -> float:
        """Search cost in multiples of one static-BSP session (Table II)."""
        if self.bsp_time <= 0.0:
            return math.inf
        return self.search_cost / self.bsp_time

    @property
    def amortized_recurrences(self) -> float:
        """Recurrences to break even (Table II's *Amortized* column).

        ``search_cost_x / (1 - T_policy / T_BSP)`` — infinite when the
        found policy does not actually beat static BSP.
        """
        if self.bsp_time <= 0.0 or self.saving_per_recurrence <= 0.0:
            return math.inf
        return self.search_cost_x / (1.0 - self.policy_time / self.bsp_time)


def policy_from_schedule_search(
    job_class: JobClass, result: SearchOutcome, tuned_at: float
) -> ClassPolicy:
    """Fold a finished N-segment schedule search into a :class:`ClassPolicy`.

    The baseline is the mean of the sessions that kept the full budget
    on the opener protocol (the schedule-search analogue of the
    static-BSP target runs); the tuned time is the mean of the sessions
    trained at the winning schedule, falling back to the baseline when
    the winner is a degenerate all-opener schedule that only the target
    runs visited.  A two-phase BSP -> ASP result is stored percent-only
    (``fractions=None``), so recurrences train the paper's switch.
    """
    bsp_times = [
        trial.time for trial in result.trials if trial.fractions[0] == 1.0
    ]
    if not bsp_times:
        raise FleetError(
            f"search for {job_class.label()} trained no full-budget opener "
            "session; cannot price the baseline"
        )
    tuned_times = [
        trial.time
        for trial in result.trials
        if trial.protocols == result.protocols
        and trial.fractions == result.fractions
    ] or bsp_times
    return ClassPolicy(
        job_class=job_class,
        percent=result.fractions[0] * 100.0,
        target_accuracy=result.target_accuracy,
        bsp_time=sum(bsp_times) / len(bsp_times),
        policy_time=sum(tuned_times) / len(tuned_times),
        search_cost=result.search_time,
        n_trials=result.n_sessions,
        tuned_at=tuned_at,
        protocols=result.protocols,
        fractions=None if result.protocols == TWO_PHASE else result.fractions,
    )


class PolicyStore:
    """Fleet-wide cache of searched timing policies, keyed by job class.

    The store is the amortization ledger of the paper's recurring-job
    argument (Section VI-C) lifted to fleet scale: the first admission
    of a class pays for the search, every later recurrence that reuses
    the cached policy accrues realized savings against that cost, and
    :meth:`report` exposes the per-class break-even state.
    """

    def __init__(self):
        self._policies: dict[JobClass, ClassPolicy] = {}
        self._searching: set[JobClass] = set()
        self._recurrences: dict[JobClass, int] = {}
        self._savings: dict[JobClass, float] = {}
        self._breakeven_at: dict[JobClass, int | None] = {}
        # Realized tuned service times (sum, count) per class: the
        # predicted-JCT feedback loop — fleet reality (queue-side
        # contention, elastic preemption stretches, re-simulated tails)
        # folds back into SLO admission predictions.
        self._realized_service: dict[JobClass, tuple[float, int]] = {}

    # ------------------------------------------------------------------
    # search lifecycle
    # ------------------------------------------------------------------
    def lookup(self, job_class: JobClass) -> ClassPolicy | None:
        """The cached policy for a class, or None while un-tuned."""
        return self._policies.get(job_class)

    def is_searching(self, job_class: JobClass) -> bool:
        """Whether a search for this class is currently in flight."""
        return job_class in self._searching

    def begin_search(self, job_class: JobClass) -> None:
        """Mark a class's search as launched (one search per class)."""
        if job_class in self._policies or job_class in self._searching:
            raise FleetError(
                f"class {job_class.label()} already tuned or searching"
            )
        self._searching.add(job_class)

    def install(self, policy: ClassPolicy) -> None:
        """Publish a finished search's policy for reuse."""
        if policy.job_class in self._policies:
            raise FleetError(
                f"class {policy.job_class.label()} already has a policy"
            )
        self._searching.discard(policy.job_class)
        self._policies[policy.job_class] = policy
        self._recurrences[policy.job_class] = 0
        self._savings[policy.job_class] = 0.0
        self._breakeven_at[policy.job_class] = None

    # ------------------------------------------------------------------
    # amortization ledger
    # ------------------------------------------------------------------
    def note_recurrence(self, job_class: JobClass, service_time: float) -> None:
        """Account one completed recurrence that reused the cached policy.

        Accrues ``T_BSP - service_time`` of realized savings (the
        recurrence would otherwise have trained conservatively at
        static BSP) and records the break-even recurrence the first
        time cumulative savings cover the search cost.
        """
        policy = self._policies.get(job_class)
        if policy is None:
            raise FleetError(
                f"class {job_class.label()} has no policy to recur on"
            )
        self._recurrences[job_class] += 1
        self._savings[job_class] += policy.bsp_time - service_time
        total, count = self._realized_service.get(job_class, (0.0, 0))
        self._realized_service[job_class] = (total + service_time, count + 1)
        if (
            self._breakeven_at[job_class] is None
            and self._savings[job_class] >= policy.search_cost
        ):
            self._breakeven_at[job_class] = self._recurrences[job_class]

    def recurrences(self, job_class: JobClass) -> int:
        """Completed recurrences that reused the class's policy."""
        return self._recurrences.get(job_class, 0)

    def realized_savings(self, job_class: JobClass) -> float:
        """Cumulative seconds saved versus the all-BSP baseline."""
        return self._savings.get(job_class, 0.0)

    def breakeven_recurrence(self, job_class: JobClass) -> int | None:
        """Recurrence at which savings first covered the search cost."""
        return self._breakeven_at.get(job_class)

    # ------------------------------------------------------------------
    # admission support
    # ------------------------------------------------------------------
    def predict_service(self, request: JobRequest, scale: float) -> float:
        """Predicted service time for SLO admission control.

        Tuned classes predict the mean *realized* tuned service time
        once recurrences have completed — the feedback loop that folds
        elastic preemption stretches and re-simulated tails back into
        admission — and the search's measured tuned service time before
        any recurrence exists.  Everything else — un-tuned classes,
        explicit static policies, search trials — falls back to the
        conservative all-BSP estimate.  Never raises for an unknown
        class: the SLO scheduler must stay usable before (or without)
        tuning.
        """
        if (
            request.kind == "train"
            and request.sync_policy == "sync-switch"
            and request.percent_override is None
            and request.protocols is None
        ):
            job_class = JobClass.of(request)
            policy = self._policies.get(job_class)
            if policy is not None:
                total, count = self._realized_service.get(
                    job_class, (0.0, 0)
                )
                if count > 0:
                    return total / count
                return policy.policy_time
        return estimate_service_time(
            request.setup_index, 100.0, scale, request.steps_scale
        )

    def realized_service_mean(self, job_class: JobClass) -> float | None:
        """Mean realized tuned service time (None before any recurrence)."""
        total, count = self._realized_service.get(job_class, (0.0, 0))
        return total / count if count > 0 else None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> tuple[dict, ...]:
        """Per-class amortization rows for the fleet summary artifact.

        Infinite break-even counts (a policy that never beats BSP) are
        reported as ``None`` so the rows stay JSON-serializable.
        """
        rows = []
        for job_class in sorted(
            self._policies, key=lambda cls: (cls.setup_index, cls.n_workers)
        ):
            policy = self._policies[job_class]
            amortized = policy.amortized_recurrences
            rows.append(
                {
                    "job_class": job_class.label(),
                    "setup_index": job_class.setup_index,
                    "n_workers": job_class.n_workers,
                    "schedule": policy.schedule_label(),
                    "fractions": (
                        None
                        if policy.fractions is None
                        else list(policy.fractions)
                    ),
                    "percent": policy.percent,
                    "target_accuracy": policy.target_accuracy,
                    "bsp_time_s": policy.bsp_time,
                    "policy_time_s": policy.policy_time,
                    "search_cost_s": policy.search_cost,
                    "search_cost_x": (
                        None
                        if math.isinf(policy.search_cost_x)
                        else policy.search_cost_x
                    ),
                    "amortized_recurrences": (
                        None if math.isinf(amortized) else amortized
                    ),
                    "n_trials": policy.n_trials,
                    "tuned_at_s": policy.tuned_at,
                    "recurrences": self._recurrences[job_class],
                    "realized_savings_s": self._savings[job_class],
                    "breakeven_recurrence": self._breakeven_at[job_class],
                    "realized_service_mean_s": self.realized_service_mean(
                        job_class
                    ),
                }
            )
        return tuple(rows)

    # ------------------------------------------------------------------
    # persistence (warm-starting recurring classes across fleet runs)
    # ------------------------------------------------------------------
    def to_payload(self, scale: float | None = None) -> dict:
        """JSON-serializable snapshot of policies and ledger state.

        In-flight searches are deliberately *not* persisted: a search
        only exists inside one fleet run's event loop, so a reloaded
        store treats the class as un-tuned and searches again.

        ``scale`` stamps the step-budget scale the times were measured
        at: absolute service times are only comparable within one
        scale, so loading checks it (see :meth:`from_payload`).
        """
        classes = []
        for job_class in sorted(
            self._policies, key=lambda cls: (cls.setup_index, cls.n_workers)
        ):
            policy = self._policies[job_class]
            total, count = self._realized_service.get(job_class, (0.0, 0))
            classes.append(
                {
                    "setup_index": job_class.setup_index,
                    "n_workers": job_class.n_workers,
                    "protocols": list(policy.protocols),
                    "fractions": (
                        None
                        if policy.fractions is None
                        else list(policy.fractions)
                    ),
                    "percent": policy.percent,
                    "target_accuracy": policy.target_accuracy,
                    "bsp_time": policy.bsp_time,
                    "policy_time": policy.policy_time,
                    "search_cost": policy.search_cost,
                    "n_trials": policy.n_trials,
                    "tuned_at": policy.tuned_at,
                    "recurrences": self._recurrences[job_class],
                    "realized_savings": self._savings[job_class],
                    "breakeven_recurrence": self._breakeven_at[job_class],
                    "realized_service_sum": total,
                    "realized_service_count": count,
                }
            )
        return {
            "version": STORE_FORMAT_VERSION,
            "scale": scale,
            "classes": classes,
        }

    @classmethod
    def from_payload(
        cls, payload: dict, scale: float | None = None
    ) -> "PolicyStore":
        """Rebuild a store from :meth:`to_payload`.

        Checks the payload version and — when both sides declare one —
        the step-budget scale: a store measured at one ``--scale``
        must not warm-start predictions at another (the absolute
        service times would be in different units).
        """
        if not isinstance(payload, dict):
            raise ConfigurationError("policy-store payload must be an object")
        version = payload.get("version")
        if (
            not isinstance(version, int)
            or not _OLDEST_READABLE_VERSION <= version <= STORE_FORMAT_VERSION
        ):
            raise ConfigurationError(
                f"policy-store payload version {version!r} is not supported "
                f"(this build reads versions {_OLDEST_READABLE_VERSION}"
                f"-{STORE_FORMAT_VERSION}); "
                "re-create the store with the current code"
            )
        stored_scale = payload.get("scale")
        if (
            scale is not None
            and stored_scale is not None
            and stored_scale != scale
        ):
            raise ConfigurationError(
                f"policy store was measured at scale {stored_scale:g} but "
                f"this run uses scale {scale:g}; service times are not "
                "comparable across scales — use a separate store per scale"
            )
        store = cls()
        for entry in payload.get("classes", []):
            try:
                job_class = JobClass(
                    setup_index=int(entry["setup_index"]),
                    n_workers=int(entry["n_workers"]),
                )
                # Version-1 entries predate schedules: they carry only
                # the switch percent and load as two-phase policies.
                protocols = entry.get("protocols")
                fractions = entry.get("fractions")
                policy = ClassPolicy(
                    job_class=job_class,
                    percent=float(entry["percent"]),
                    target_accuracy=float(entry["target_accuracy"]),
                    bsp_time=float(entry["bsp_time"]),
                    policy_time=float(entry["policy_time"]),
                    search_cost=float(entry["search_cost"]),
                    n_trials=int(entry["n_trials"]),
                    tuned_at=float(entry["tuned_at"]),
                    protocols=(
                        TWO_PHASE
                        if protocols is None
                        else tuple(str(name) for name in protocols)
                    ),
                    fractions=(
                        None
                        if fractions is None
                        else tuple(float(value) for value in fractions)
                    ),
                )
                recurrences = int(entry["recurrences"])
                savings = float(entry["realized_savings"])
                breakeven = entry["breakeven_recurrence"]
                breakeven = None if breakeven is None else int(breakeven)
                service_sum = float(entry["realized_service_sum"])
                service_count = int(entry["realized_service_count"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed policy-store class entry: {exc}"
                ) from exc
            try:
                store.install(policy)
            except FleetError as exc:
                # e.g. duplicate class entries in a hand-edited file —
                # surface as the load contract's configuration error.
                raise ConfigurationError(
                    f"invalid policy-store payload: {exc}"
                ) from exc
            store._recurrences[job_class] = recurrences
            store._savings[job_class] = savings
            store._breakeven_at[job_class] = breakeven
            if service_count > 0:
                store._realized_service[job_class] = (
                    service_sum, service_count
                )
        return store

    def save(self, path: str | Path, scale: float | None = None) -> Path:
        """Persist the store as JSON (for ``fleet --policy-store``)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_payload(scale=scale), indent=2) + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def load(cls, path: str | Path, scale: float | None = None) -> "PolicyStore":
        """Load a persisted store (raises ``ConfigurationError`` on a
        missing/corrupt file, an unsupported payload version, or a
        step-budget scale mismatch)."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read policy store {path}: {exc}"
            ) from exc
        return cls.from_payload(payload, scale=scale)
