"""The benchmark workloads: inputs from a seed, one timed call, checks.

Each workload is a closed loop with one client: a single process runs
one library call with ``jobs=1`` and no host-time arrivals.  The call
receives only inputs generated here from the workload seed.

Each entry of :data:`WORKLOADS` maps ``(seed, scratch)`` to an
:class:`Operation`, doing everything that precedes the timed call:
input generation and runner and cache construction, with caches made
under the ``scratch`` directory.  ``Operation.call()`` is the timed call
and ``Operation.check(output)`` verifies the simulated output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from dataclasses import dataclass, field
from typing import Callable

#: Fig. 10 step-budget scale: 1/64 of the paper's budgets.
FIG10_SCALE = 1 / 64
FIG10_SEEDS = 2
TRACE_JOBS = 200
RUSH_JOBS = 16


@dataclass
class Outcome:
    """What the output check found for one timed call."""

    attempted: int
    failed: int = 0
    steps: int = 0
    trials: int = 0
    preemptions: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


@dataclass
class Operation:
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    #: Operations the call attempts (jobs or cells), for a call that raises.
    size: int


def digest(payload) -> str:
    """sha256 of a JSON rendering of the simulated output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trained_budget(completed: int, budget: int, n_workers: int) -> bool:
    """Whether a finished, non-diverged run trained its whole budget.

    A BSP round advances every active worker by one step, so a run ends
    on the first round boundary at or past its budget: up to
    ``n_workers - 1`` steps beyond it.
    """
    return budget <= completed < budget + n_workers


def _check_records(outcome: Outcome, stream, records, scale: float) -> None:
    """Every generated job once; completed jobs trained their budget."""
    from repro.experiments.setups import SETUPS, scaled_steps

    seen: dict[int, int] = {}
    for record in records:
        seen[record.job_id] = seen.get(record.job_id, 0) + 1
    for job_id, count in seen.items():
        if count > 1:
            outcome.fail(f"job {job_id} reported {count} times")
    for request in stream:
        if request.job_id not in seen:
            outcome.fail(f"job {request.job_id} missing from the output")
    budgets = {
        request.job_id: scaled_steps(
            SETUPS[request.setup_index], scale, request.steps_scale
        )
        for request in stream
    }
    for record in records:
        outcome.steps += record.completed_steps
        if record.outcome not in ("completed", "rejected"):
            outcome.fail(f"job {record.job_id} outcome {record.outcome!r}")
        elif (
            record.job_id in budgets
            and record.outcome == "completed"
            and not record.diverged
            and not trained_budget(
                record.completed_steps, budgets[record.job_id], record.demand
            )
        ):
            outcome.fail(
                f"job {record.job_id} trained {record.completed_steps} of "
                f"{budgets[record.job_id]} steps"
            )


def trace_200(seed: int, scratch: str) -> Operation:
    """200-job diurnal, heavy-tailed, tenant-tiered trace, cache off."""
    from repro.experiments.fleet import DEFAULT_FLEET_SCALE, run_trace_scale
    from repro.fleet.workload import TRACE_SCENARIOS, trace_stream

    scale = DEFAULT_FLEET_SCALE
    stream = trace_stream(
        TRACE_SCENARIOS["trace"], scale, seed, n_jobs=TRACE_JOBS
    )

    def call():
        return run_trace_scale(
            n_jobs=TRACE_JOBS, seed=seed, jobs=1, cache_dir="off"
        )

    def check(output) -> Outcome:
        summary, shard_rows = output
        outcome = Outcome(attempted=len(stream))
        _check_records(outcome, stream, summary.jobs, scale)
        outcome.trials = summary.n_search_jobs
        outcome.preemptions = summary.preemptions
        outcome.digest = digest(
            {"summary": summary.to_dict(), "shards": shard_rows}
        )
        return outcome

    return Operation(call, check, len(stream))


def rush_tune(seed: int, scratch: str) -> Operation:
    """All-BSP vs tuned Sync-Switch on a 16-job rush stream, cold cache."""
    from repro.experiments.fleet import DEFAULT_FLEET_SCALE, tuning_grid
    from repro.fleet.workload import FLEET_SCENARIOS, poisson_stream

    scale = DEFAULT_FLEET_SCALE
    # The scenario's own stream for this seed; handing it over as a
    # trace keeps the pool (two 8-worker slots) and every other cell
    # setting of ``tuning_grid(scenarios=("rush",), n_jobs=16)``.
    stream = poisson_stream(
        FLEET_SCENARIOS["rush"],
        scale,
        seed,
        n_jobs=RUSH_JOBS,
        sync_policy="sync-switch",
    )
    cache_dir = tempfile.mkdtemp(prefix="rush-", dir=scratch)

    def call():
        return tuning_grid(
            scenarios=("rush",),
            seeds=1,
            scheduler="best-fit",
            trace=stream,
            jobs=1,
            cache_dir=cache_dir,
        )

    def check(output) -> Outcome:
        outcome = Outcome(attempted=0)
        payload = {}
        for key in sorted(output):
            summary = output[key]
            outcome.attempted += max(len(summary.jobs), len(stream))
            _check_records(outcome, stream, summary.jobs, scale)
            outcome.trials += summary.n_search_jobs
            outcome.preemptions += summary.preemptions
            payload["/".join(map(str, key))] = summary.to_dict()
        if len(output) != 2:
            outcome.fail(f"{len(output)} grid cells, expected 2")
        outcome.digest = digest(payload)
        return outcome

    return Operation(call, check, 2 * len(stream))


def fig10_cold(seed: int, scratch: str) -> Operation:
    """Fig. 10 at scale 1/64 with two seeds on a fresh cache."""
    from repro.experiments.endtoend import figure_10
    from repro.experiments.runner import CollectionComplete, ExperimentRunner

    offset = FIG10_SEEDS * seed

    class SeededRunner(ExperimentRunner):
        """Runs repeat ``i`` of every cell at seed ``offset + i``."""

        def run_batch(self, requests):
            return super().run_batch(
                [
                    dataclasses.replace(request, seed=request.seed + offset)
                    for request in requests
                ]
            )

    runner = SeededRunner(
        scale=FIG10_SCALE,
        seeds=FIG10_SEEDS,
        cache_dir=tempfile.mkdtemp(prefix="fig10-", dir=scratch),
        jobs=1,
    )
    with runner.collect_only() as cells:
        try:
            figure_10(runner)
        except CollectionComplete:
            pass

    def call():
        return figure_10(runner)

    def check(report) -> Outcome:
        # Replayed from the runner's memory: no simulation happens here.
        results = runner.run_batch(cells)
        outcome = Outcome(attempted=len(cells))
        for request, result in zip(cells, results):
            budget = runner.job(request.setup, request.seed + offset)
            outcome.steps += result.completed_steps
            if result.total_steps != budget.total_steps or (
                not result.diverged
                and not trained_budget(
                    result.completed_steps,
                    result.total_steps,
                    result.n_workers,
                )
            ):
                outcome.fail(
                    f"setup {request.setup.index} {request.spec} seed "
                    f"{request.seed + offset}: {result.completed_steps} of "
                    f"{budget.total_steps} steps"
                )
        if len(report.rows) != 9:
            outcome.fail(f"{len(report.rows)} measured rows, expected 9")
        outcome.digest = digest(
            {
                "rows": report.rows,
                "cells": [result.to_dict() for result in results],
            }
        )
        return outcome

    return Operation(call, check, len(cells))


WORKLOADS: dict[str, Callable[[int, str], Operation]] = {
    "trace-200": trace_200,
    "fig10-cold": fig10_cold,
    "rush-tune": rush_tune,
}
