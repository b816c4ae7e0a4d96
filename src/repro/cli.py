"""Command-line interface: ``sync-switch`` (also ``python -m repro``).

The paper's users "manage their distributed training jobs via the
command line" (Section V); this CLI exposes the same workflows on the
simulator:

* ``sync-switch run`` — train one job under a policy.
* ``sync-switch search`` — offline binary search for the switch timing.
* ``sync-switch report`` — regenerate paper tables/figures; several at
  once (or ``all``) prefetch the union grid as one batch.
* ``sync-switch fleet`` — serve a multi-job stream on a shared worker
  pool and write the fleet summary artifact; ``--tune`` runs the
  amortized in-fleet timing search comparison, ``--slo`` serves the
  stream through the deadline-aware scheduler.
* ``sync-switch bench`` — hot-path steps/sec benchmark with an optional
  regression check against the committed baseline.
* ``sync-switch lint`` — AST-based determinism & invariant analyzer
  (rules D001–D005) with a ratcheted baseline gate.
* ``sync-switch list`` — show setups, artifacts and fleet scenarios.

The full flag reference lives in ``docs/cli.md`` (CI checks it stays
in sync with this parser).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from repro.core.search import TWO_PHASE, SearchConfig, run_search
from repro.errors import ConfigurationError, SearchError
from repro.experiments import (
    ARTIFACTS,
    SETUPS,
    ExperimentRunner,
    prefetch_union,
    render_report,
)
from repro.distsim.cluster import WorkerTier
from repro.experiments.fleet import (
    DEFAULT_FLEET_SCALE,
    DEFAULT_TUNING_SEEDS,
    fleet_grid,
    fleet_report,
    fleet_trace_scale_report,
    fleet_tuning_report,
    run_trace_scale,
    run_traced_fleet,
    trace_scale_payload,
    tuning_grid,
    tuning_summary_payload,
    write_fleet_summary,
    write_fleet_trace_scale,
    write_tuning_summary,
)
from repro.experiments.hotpath import (
    DEFAULT_TOLERANCE,
    check_regression,
    load_payload,
    render_hotpath_report,
    run_hotpath_bench,
    speedup_payload,
    write_payload,
)
from repro.experiments.setups import scaled_job
from repro.fleet import (
    FLEET_SCENARIOS,
    RESIM_MODES,
    SCHEDULERS,
    SYNC_POLICIES,
    TRACE_SCENARIOS,
    FleetConfig,
    FleetSimulator,
    PolicyStore,
    load_trace,
)
from repro.obs import (
    DETAIL_LEVELS,
    trace_categories,
    write_chrome_trace,
    write_metrics_dump,
)

__all__ = ["main", "build_parser"]

#: Progress/diagnostic channel: INFO and below go to stdout, WARNING
#: and above to stderr (see :func:`_configure_logging`).  Result
#: output — report tables, run summaries, artifact paths' payloads —
#: stays on plain ``print``.
_LOG = logging.getLogger("repro.cli")

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _configure_logging(level_name: str, quiet: bool) -> None:
    """Route ``repro`` logging: INFO->stdout, WARNING+->stderr.

    Reconfigures idempotently on every :func:`main` call so repeated
    in-process invocations (tests, notebooks) rebind to the *current*
    ``sys.stdout``/``sys.stderr`` and never stack duplicate handlers.
    """
    level = logging.WARNING if quiet else getattr(logging, level_name.upper())
    logger = logging.getLogger("repro")
    logger.handlers.clear()
    logger.setLevel(level)
    logger.propagate = False
    stdout_handler = logging.StreamHandler(sys.stdout)
    stdout_handler.addFilter(lambda record: record.levelno < logging.WARNING)
    stderr_handler = logging.StreamHandler(sys.stderr)
    stderr_handler.setLevel(logging.WARNING)
    logger.addHandler(stdout_handler)
    logger.addHandler(stderr_handler)


def build_parser() -> argparse.ArgumentParser:
    """The ``sync-switch`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="sync-switch",
        description="Sync-Switch hybrid-synchronization reproduction",
    )
    parser.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        default="info",
        help="progress/diagnostic verbosity (before the subcommand; "
        "default info)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress output (shorthand for --log-level warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one job under a policy")
    run.add_argument("--setup", type=int, default=1, choices=sorted(SETUPS))
    run.add_argument(
        "--percent",
        type=float,
        default=None,
        help="BSP percentage before switching (default: the setup's policy)",
    )
    run.add_argument("--scale", type=float, default=0.02)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--online", choices=("greedy", "elastic"), default=None
    )

    search = sub.add_parser(
        "search", help="offline binary search for the switch timing"
    )
    search.add_argument("--setup", type=int, default=1, choices=sorted(SETUPS))
    search.add_argument("--scale", type=float, default=0.02)
    search.add_argument("--runs", type=int, default=2)
    search.add_argument("--beta", type=float, default=0.01)
    search.add_argument(
        "--protocols",
        action="append",
        default=None,
        metavar="SEQ",
        help="comma-separated protocol schedule to search (e.g. "
        "bsp,ssp,asp); repeat the flag to enumerate candidate "
        "sequences (default: the two-phase bsp,asp switch search)",
    )
    _add_jobs_argument(search)

    report = sub.add_parser(
        "report",
        help="regenerate paper artifacts (several at once batch their "
        "union grid; 'all' renders everything)",
    )
    report.add_argument(
        "artifact", nargs="+", choices=sorted(ARTIFACTS) + ["all"]
    )
    report.add_argument("--scale", type=float, default=None)
    report.add_argument("--seeds", type=int, default=None)
    _add_jobs_argument(report)

    fleet = sub.add_parser(
        "fleet", help="serve a multi-job stream on a shared worker pool"
    )
    fleet.add_argument(
        "--scenario",
        default="rush",
        choices=sorted(FLEET_SCENARIOS) + sorted(TRACE_SCENARIOS),
        help="workload: a Poisson fleet scenario, or a datacenter trace "
        "scenario (diurnal arrivals, tenant tiers, sharded pool)",
    )
    fleet.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="number of training jobs in the stream (default: scenario)",
    )
    fleet.add_argument(
        "--scheduler",
        default="all",
        choices=sorted(SCHEDULERS) + ["all"],
    )
    fleet.add_argument(
        "--policy",
        default="all",
        choices=sorted(SYNC_POLICIES) + ["all"],
        help="synchronization policy of every job in the stream",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--scale", type=float, default=DEFAULT_FLEET_SCALE)
    fleet.add_argument(
        "--workload-trace",
        default=None,
        metavar="PATH",
        help="JSON trace of job arrivals (replaces the scenario stream)",
    )
    fleet.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON of the run here (load it "
        "in Perfetto); runs one scheduler x policy stream, narrowing "
        "'all' defaults to fifo / sync-switch",
    )
    fleet.add_argument(
        "--trace-detail",
        default="job",
        choices=DETAIL_LEVELS,
        help="span granularity for --trace: fleet-level only, + per-job "
        "lifecycle/segments (default), + per-update barriers/pushes",
    )
    fleet.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        help="virtual-time seconds between metrics snapshots in the "
        "--trace metrics dump (default 60)",
    )
    fleet.add_argument(
        "--procs",
        type=int,
        default=None,
        help="worker processes for the scenario grid (default: REPRO_JOBS)",
    )
    fleet.add_argument(
        "--out",
        default=None,
        help="fleet summary artifact path (default: results/fleet_summary.json"
        ", or results/fleet_tuning_summary.json with --tune)",
    )
    fleet.add_argument(
        "--tune",
        action="store_true",
        help="amortized in-fleet timing search: compare an all-BSP stream "
        "against a tuned sync-switch stream (multi-seed, writes the "
        "tuning summary artifact)",
    )
    fleet.add_argument(
        "--slo",
        action="store_true",
        help="serve the stream through the deadline/SLO-aware scheduler "
        "(shorthand for --scheduler slo)",
    )
    fleet.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="seeds per cell for the --tune confidence intervals "
        f"(default {DEFAULT_TUNING_SEEDS}; requires --tune)",
    )
    fleet.add_argument(
        "--resim",
        default="exact",
        choices=sorted(RESIM_MODES),
        help="preempted ASP-tail timeline model: 'exact' re-simulates "
        "the tail on the changed worker set, 'stretch' is the legacy "
        "linear n/(n-k) model",
    )
    fleet.add_argument(
        "--protocols",
        default=None,
        metavar="SEQ",
        help="comma-separated protocol schedule for sync-switch stream "
        "jobs (e.g. bsp,ssp,asp); with --tune the in-fleet search "
        "tunes its per-segment fractions, otherwise give --fractions",
    )
    fleet.add_argument(
        "--fractions",
        default=None,
        metavar="FRACS",
        help="comma-separated per-segment step fractions aligned with "
        "--protocols (e.g. 0.4,0.3,0.3; must sum to 1)",
    )
    fleet.add_argument(
        "--policy-store",
        default=None,
        metavar="PATH",
        help="persist the per-class policy store as JSON: load it (if "
        "present) to warm-start recurring classes, save it back after "
        "the run; runs a single stream, so requires one --scheduler "
        "and either --tune (tune that stream in place) or one --policy",
    )
    fleet.add_argument(
        "--shards",
        type=int,
        default=None,
        help="independent pool shards for a trace scenario (default: "
        "the scenario's shard count); requires a trace --scenario",
    )
    fleet.add_argument(
        "--tiers",
        default=None,
        metavar="SPEC",
        help="heterogeneous worker classes as comma-separated "
        "name:count:speed:bandwidth[:latency] entries (e.g. "
        "fast:32:1.0:1.0,slow:32:1.35:1.6), or 'none' for a uniform "
        "pool; default: trace scenarios get the built-in fast/slow "
        "split, Poisson scenarios stay uniform",
    )
    fleet.add_argument(
        "--validate",
        action="store_true",
        help="run the fleet invariant checker at every event (pool "
        "conservation, clock monotonicity, queue/running disjointness, "
        "preemption floor); simulation-neutral but slower",
    )

    bench = sub.add_parser(
        "bench", help="hot-path steps/sec benchmark (per engine + fig5b cell)"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="~4x smaller step budgets (the CI perf-smoke mode)",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="write the benchmark payload JSON here "
        "(with --record-speedup: the speedup artifact, default "
        "results/hotpath_speedup.json)",
    )
    bench.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare machine-relative steps/sec against BASELINE "
        "(a payload or speedup artifact); exit 1 on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop for --check "
        f"(default {DEFAULT_TOLERANCE})",
    )
    bench.add_argument(
        "--record-speedup",
        default=None,
        metavar="BASELINE",
        help="combine a previously saved BASELINE payload with this run "
        "into the committed speedup artifact",
    )

    lint = sub.add_parser(
        "lint",
        help="AST-based determinism & invariant analyzer "
        "(rules D001-D005, ratcheted baseline)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files or directories to analyze (default: the src/ tree)",
    )
    lint.add_argument(
        "--check",
        action="store_true",
        help="ratchet mode: exit 1 on any finding not in the baseline "
        "and on stale baseline entries (the CI gate)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="ratchet baseline JSON "
        "(default tests/data/lint_baseline.json)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to tolerate exactly the current "
        "findings (each entry still needs a why-note before commit)",
    )
    lint.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the machine-readable JSON report here "
        "(the CI artifact)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule subset to run (e.g. D001,D004; "
        "default: all registered rules)",
    )

    sub.add_parser("list", help="show setups, artifacts and fleet scenarios")
    return parser


def _add_jobs_argument(subparser) -> None:
    # Only on subcommands that execute multi-cell batches; ``run`` is a
    # single cell, where a worker pool could never help.
    subparser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for batched experiments "
        "(default: REPRO_JOBS, else 1)",
    )


def _parse_protocols(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _parse_fractions(value: str) -> tuple[float, ...]:
    return tuple(float(part) for part in value.split(",") if part.strip())


def _parse_tiers(value: str) -> tuple[WorkerTier, ...]:
    """``--tiers`` spec: ``name:count:speed:bandwidth[:latency],...``.

    ``'none'`` forces a uniform pool (overriding a trace scenario's
    built-in fast/slow default).
    """
    if value.strip().lower() == "none":
        return ()
    tiers = []
    for part in value.split(","):
        fields = [field.strip() for field in part.strip().split(":")]
        if len(fields) not in (4, 5):
            raise ValueError(
                f"tier {part.strip()!r} must be "
                "name:count:speed:bandwidth[:latency]"
            )
        tiers.append(
            WorkerTier(
                name=fields[0],
                count=int(fields[1]),
                speed_factor=float(fields[2]),
                bandwidth_factor=float(fields[3]),
                extra_latency=float(fields[4]) if len(fields) == 5 else 0.0,
            )
        )
    return tuple(tiers)


def _cmd_run(args) -> int:
    setup = SETUPS[args.setup]
    percent = args.percent if args.percent is not None else setup.policy_percent
    runner = ExperimentRunner(scale=args.scale, seeds=1)
    spec: dict = {"kind": "switch", "percent": percent}
    if args.online:
        spec["online"] = args.online
        spec["stragglers"] = {"n": 1, "occurrences": 1, "latency": 0.030}
        spec["ambient"] = False
    result = runner.run(setup, spec, args.seed)
    print(f"setup     : {setup.describe()}")
    print(f"plan      : {result.plan}")
    print(f"accuracy  : {result.reported_accuracy}")
    print(f"time      : {result.total_time:.1f} simulated seconds")
    print(f"throughput: {result.throughput:.0f} images/s")
    print(f"diverged  : {result.diverged}")
    return 0


def _cmd_search(args) -> int:
    setup = SETUPS[args.setup]
    runner = ExperimentRunner(scale=args.scale, seeds=args.runs, jobs=args.jobs)
    config = SearchConfig(
        beta=args.beta,
        max_settings=setup.search_max_settings,
        runs_per_setting=args.runs,
        bsp_runs=args.runs,
    )
    sequences = (
        tuple(_parse_protocols(value) for value in args.protocols)
        if args.protocols
        else (TWO_PHASE,)
    )

    def trial(
        protocols: tuple[str, ...], fractions: tuple[float, ...],
        run_index: int,
    ):
        # The two-phase switch trains the same cells `report` caches.
        if protocols == TWO_PHASE:
            spec = {"kind": "switch", "percent": fractions[0] * 100.0}
        else:
            spec = {
                "kind": "schedule",
                "protocols": list(protocols),
                "fractions": [float(value) for value in fractions],
            }
        # Batch all of this setting's repetitions up front so --jobs
        # parallelises them; later run_index calls replay from cache.
        runner.prefetch([(setup, spec)], seeds=args.runs)
        result = runner.run(setup, spec, run_index)
        accuracy = 0.0 if result.diverged else (result.reported_accuracy or 0.0)
        return accuracy, result.total_time

    try:
        outcome = run_search(trial, config, sequences)
    except SearchError as exc:
        _LOG.error("error: %s", exc)
        return 2
    fractions = ", ".join(f"{value:g}" for value in outcome.fractions)
    print(f"setup            : {setup.describe()}")
    print(f"found schedule   : {outcome.describe()}")
    print(f"fractions        : {fractions}")
    print(f"found switch     : {outcome.switch_percent:g}%")
    print(f"target accuracy  : {outcome.target_accuracy:.4f}")
    print(f"sessions trained : {outcome.n_sessions}")
    print(f"search time      : {outcome.search_time:.0f} simulated seconds")
    if len(outcome.candidates) > 1:
        print("candidates:")
        for candidate in outcome.candidates:
            label = " -> ".join(name.upper() for name in candidate.protocols)
            parts = ", ".join(f"{v:g}" for v in candidate.fractions)
            print(
                f"  {label}: fractions {parts}, "
                f"expected {candidate.expected_time:.0f}s"
            )
    return 0


def _cmd_report(args) -> int:
    names = list(dict.fromkeys(args.artifact))
    if "all" in names:
        names = sorted(ARTIFACTS)
    runner = ExperimentRunner(scale=args.scale, seeds=args.seeds, jobs=args.jobs)
    if len(names) > 1:
        # Cross-artifact scheduling: one deduplicated union batch warms
        # the cache before any artifact renders.
        cells = prefetch_union(runner, [ARTIFACTS[name] for name in names])
        _LOG.info(
            "prefetched %d unique cells across %d artifacts",
            cells,
            len(names),
        )
    for index, name in enumerate(names):
        if index:
            print()
        print(render_report(ARTIFACTS[name](runner)))
    return 0


def _cmd_fleet(args) -> int:
    if args.workload_trace and args.jobs is not None:
        _LOG.error(
            "error: --jobs sets the generated stream length and cannot be "
            "combined with --workload-trace (the trace fixes the stream)"
        )
        return 2
    if args.seeds is not None and not args.tune:
        _LOG.error(
            "error: --seeds controls the --tune confidence intervals; "
            "without --tune the fleet grid runs the single --seed stream"
        )
        return 2
    if args.slo and args.scheduler not in ("all", "slo"):
        _LOG.error(
            "error: --slo selects the slo scheduler and cannot be "
            "combined with --scheduler %s",
            args.scheduler,
        )
        return 2
    if args.metrics_interval is not None and not args.trace:
        _LOG.error(
            "error: --metrics-interval tunes the --trace metrics dump; "
            "give --trace PATH to enable tracing"
        )
        return 2
    if args.trace and args.tune:
        _LOG.error(
            "error: --trace records one stream and cannot be combined "
            "with --tune (a multi-cell comparison grid)"
        )
        return 2
    protocols = _parse_protocols(args.protocols) if args.protocols else None
    try:
        fractions = (
            _parse_fractions(args.fractions) if args.fractions else None
        )
    except ValueError:
        _LOG.error(
            "error: --fractions must be comma-separated numbers "
            "(e.g. 0.4,0.3,0.3)"
        )
        return 2
    if fractions is not None and protocols is None:
        _LOG.error(
            "error: --fractions needs --protocols to name the schedule "
            "segments"
        )
        return 2
    if protocols is not None and fractions is None and not args.tune:
        _LOG.error(
            "error: --protocols without --tune needs --fractions (with "
            "--tune the in-fleet search finds the fractions)"
        )
        return 2
    if fractions is not None and args.tune:
        _LOG.error(
            "error: --fractions fixes the schedule and cannot be "
            "combined with --tune (which searches for it)"
        )
        return 2
    tiers = None
    if args.tiers is not None:
        try:
            tiers = _parse_tiers(args.tiers)
        except (ValueError, ConfigurationError) as exc:
            _LOG.error("error: bad --tiers: %s", exc)
            return 2
    if (args.tiers is not None or args.validate) and (
        args.tune or args.trace or args.policy_store
    ):
        _LOG.error(
            "error: --tiers/--validate apply to the fleet grid and the "
            "trace scenarios; they do not combine with --tune, --trace "
            "or --policy-store"
        )
        return 2
    trace_scale = (
        args.workload_trace is None and args.scenario in TRACE_SCENARIOS
    )
    if args.shards is not None and not trace_scale:
        _LOG.error(
            "error: --shards partitions a trace scenario's pool; pick a "
            "trace --scenario (%s)",
            ", ".join(sorted(TRACE_SCENARIOS)),
        )
        return 2
    if trace_scale:
        for flag, given in (
            ("--tune", args.tune),
            ("--trace", args.trace is not None),
            ("--policy-store", args.policy_store is not None),
            ("--protocols", protocols is not None),
        ):
            if given:
                _LOG.error(
                    "error: %s runs a single in-process stream and "
                    "cannot be combined with the sharded trace "
                    "scenario %r",
                    flag,
                    args.scenario,
                )
                return 2
        return _cmd_fleet_trace_scale(args, tiers)
    trace = load_trace(args.workload_trace) if args.workload_trace else None
    # A trace replaces the scenario stream entirely; label the run (and
    # its cache keys) accordingly instead of with the unused scenario.
    scenario = "trace" if trace is not None else args.scenario
    if args.policy_store:
        return _cmd_fleet_store(args, scenario, trace, protocols, fractions)
    if args.tune:
        return _cmd_fleet_tune(args, scenario, trace, protocols)
    if args.trace:
        return _cmd_fleet_traced(args, scenario, trace, protocols, fractions)
    schedulers = (
        tuple(sorted(SCHEDULERS))
        if args.scheduler == "all"
        else (args.scheduler,)
    )
    if args.slo:
        schedulers = ("slo",)
    policies = (
        SYNC_POLICIES if args.policy == "all" else (args.policy,)
    )
    grid = fleet_grid(
        scenario=scenario,
        schedulers=schedulers,
        policies=policies,
        seed=args.seed,
        scale=args.scale,
        n_jobs=args.jobs,
        trace=trace,
        jobs=args.procs,
        resim=args.resim,
        protocols=protocols,
        fractions=fractions,
        tiers=tiers,
        validate=args.validate,
    )
    print(render_report(fleet_report(grid, scenario)))
    target = write_fleet_summary(
        grid, scenario, args.scale, args.seed, path=args.out
    )
    _LOG.info("\nfleet summary written to %s", target)
    return 0


def _cmd_fleet_trace_scale(args, tiers) -> int:
    """The trace-scenario path: sharded heterogeneous pool, merged summary.

    Generates the datacenter trace once, serves each pool shard as its
    own cached fleet cell (``--procs`` worker processes) and merges the
    shard summaries — bit-identical at any ``--procs`` count.
    """
    if args.slo:
        scheduler = "slo"
    elif args.scheduler == "all":
        scheduler = "slo"
        _LOG.info("trace scenario narrows --scheduler all to slo")
    else:
        scheduler = args.scheduler
    if args.policy == "all":
        policy = "sync-switch"
        _LOG.info("trace scenario narrows --policy all to sync-switch")
    else:
        policy = args.policy
    try:
        summary, shard_rows = run_trace_scale(
            scenario=args.scenario,
            scheduler=scheduler,
            sync_policy=policy,
            seed=args.seed,
            scale=args.scale,
            n_jobs=args.jobs,
            shards=args.shards,
            tiers=tiers,
            jobs=args.procs,
            resim=args.resim,
            validate=args.validate,
        )
    except ConfigurationError as exc:
        _LOG.error("error: %s", exc)
        return 2
    payload = trace_scale_payload(
        summary,
        shard_rows,
        args.scenario,
        scheduler,
        policy,
        args.scale,
        args.seed,
    )
    print(render_report(fleet_trace_scale_report(payload)))
    target = write_fleet_trace_scale(payload, path=args.out)
    _LOG.info("\nfleet trace-scale summary written to %s", target)
    return 0


def _trace_cell_selection(args) -> tuple[str, str]:
    """The single (scheduler, policy) a ``--trace`` run records.

    Tracing the full grid would interleave unrelated runs in one
    timeline, so the 'all' defaults narrow to the canonical traced
    cell (fifo / sync-switch) with an INFO note.
    """
    if args.slo:
        scheduler = "slo"
    elif args.scheduler == "all":
        scheduler = "fifo"
        _LOG.info("--trace narrows --scheduler all to fifo")
    else:
        scheduler = args.scheduler
    if args.policy == "all":
        policy = "sync-switch"
        _LOG.info("--trace narrows --policy all to sync-switch")
    else:
        policy = args.policy
    return scheduler, policy


def _write_trace_outputs(args, events: list, metrics: dict | None) -> None:
    """Write the Chrome trace (and its sibling metrics dump)."""
    trace_path = Path(args.trace)
    write_chrome_trace(events, trace_path)
    categories = trace_categories(events)
    _LOG.info(
        "trace written to %s (%d events, %d categories: %s)",
        trace_path,
        len(events),
        len(categories),
        ", ".join(sorted(categories)),
    )
    if metrics is not None:
        metrics_path = trace_path.with_name(trace_path.stem + ".metrics.json")
        write_metrics_dump(metrics, metrics_path)
        _LOG.info("metrics dump written to %s", metrics_path)


def _cmd_fleet_traced(args, scenario: str, trace, protocols, fractions) -> int:
    """The ``fleet --trace`` path: one observed stream, span export.

    Runs a single traced cell through the cached executor path — the
    summary is bit-identical to the untraced cell's (tracing never
    touches the simulation) — then exports the Perfetto-loadable
    Chrome trace plus the interval-snapshot metrics dump.
    """
    scheduler, policy = _trace_cell_selection(args)
    run = run_traced_fleet(
        scenario=scenario,
        scheduler=scheduler,
        sync_policy=policy,
        seed=args.seed,
        scale=args.scale,
        n_jobs=args.jobs,
        trace=trace,
        trace_detail=args.trace_detail,
        metrics_interval=args.metrics_interval,
        jobs=args.procs,
        resim=args.resim,
        protocols=protocols,
        fractions=fractions,
    )
    print(render_report(fleet_report({(scheduler, policy): run.summary},
                                     scenario)))
    _write_trace_outputs(args, run.events, run.metrics)
    target = write_fleet_summary(
        {(scheduler, policy): run.summary}, scenario, args.scale, args.seed,
        path=args.out,
    )
    _LOG.info("fleet summary written to %s", target)
    return 0


def _cmd_fleet_store(args, scenario: str, trace, protocols, fractions) -> int:
    """The ``fleet --policy-store`` path: one warm-startable stream.

    Loads the persisted :class:`~repro.fleet.PolicyStore` (when the
    file exists), serves a *single* stream against it — with ``--tune``
    the stream searches un-tuned classes in place, without it the
    stream simply reuses whatever the store already knows (the paper's
    ``(Yes, 0, r)`` recurrence setting) — and saves the updated store
    back.  Warm-started runs depend on the store's state, so this path
    bypasses the experiment cache and always simulates.
    """
    if args.slo:
        scheduler = "slo"
    elif args.scheduler != "all":
        scheduler = args.scheduler
    else:
        _LOG.error(
            "error: --policy-store runs a single stream; pick one "
            "--scheduler (or --slo)"
        )
        return 2
    if args.tune:
        if args.policy not in ("all", "sync-switch"):
            _LOG.error(
                "error: --policy-store --tune searches sync-switch "
                "streams; --policy %s does not combine",
                args.policy,
            )
            return 2
        policy = "sync-switch"
    elif args.policy != "all":
        policy = args.policy
    else:
        _LOG.error(
            "error: --policy-store without --tune needs one --policy "
            "for the stream"
        )
        return 2
    if args.seeds is not None:
        _LOG.error(
            "error: --seeds controls the --tune comparison grid and "
            "does not combine with --policy-store (use --seed)"
        )
        return 2
    store_path = Path(args.policy_store)
    if store_path.exists():
        try:
            store = PolicyStore.load(store_path, scale=args.scale)
        except ConfigurationError as exc:
            _LOG.error("error: %s", exc)
            return 2
    else:
        store = PolicyStore()
    warm_classes = len(store.report())
    simulator = FleetSimulator(
        FleetConfig(
            scenario=scenario,
            scheduler=scheduler,
            sync_policy=policy,
            seed=args.seed,
            scale=args.scale,
            n_jobs=args.jobs,
            trace=trace,
            tune=args.tune,
            resim=args.resim,
            protocols=protocols,
            fractions=fractions,
            trace_detail=args.trace_detail if args.trace else None,
            metrics_interval=args.metrics_interval,
        ),
        store=store,
    )
    summary = simulator.run()
    print(render_report(fleet_report({(scheduler, policy): summary}, scenario)))
    print(
        f"\npolicy store: {warm_classes} warm class(es) loaded, "
        f"{len(store.report())} persisted"
    )
    for row in store.report():
        realized = row["realized_service_mean_s"]
        print(
            f"  {row['job_class']}: {row['percent']:g}% BSP, "
            f"{row['recurrences']} recurrence(s), "
            f"realized savings {row['realized_savings_s']:.1f}s"
            + (
                f", realized service {realized:.1f}s"
                if realized is not None
                else ""
            )
        )
    target = store.save(store_path, scale=args.scale)
    _LOG.info("policy store written to %s", target)
    if args.trace:
        _write_trace_outputs(
            args, list(simulator.tracer.events), simulator.metrics_payload
        )
    out = write_fleet_summary(
        {(scheduler, policy): summary}, scenario, args.scale, args.seed,
        path=args.out,
    )
    _LOG.info("fleet summary written to %s", out)
    return 0


def _cmd_fleet_tune(args, scenario: str, trace, protocols) -> int:
    """The ``fleet --tune`` path: amortized search comparison grid.

    Always compares the all-BSP baseline stream against the tuned
    Sync-Switch stream (that pair *is* the amortization argument), so
    ``--policy`` does not combine with it.
    """
    if args.policy != "all":
        _LOG.error(
            "error: --policy cannot be combined with --tune (the tuning "
            "grid always compares bsp vs tuned sync-switch)"
        )
        return 2
    if args.seed != 0:
        _LOG.error(
            "error: --seed cannot be combined with --tune; the tuning "
            "grid always runs seeds 0..N-1 (choose N with --seeds)"
        )
        return 2
    if args.slo:
        scheduler = "slo"
    elif args.scheduler == "all":
        scheduler = "fifo"
    else:
        scheduler = args.scheduler
    seeds = args.seeds if args.seeds is not None else DEFAULT_TUNING_SEEDS
    if seeds < 1:
        _LOG.error("error: --seeds must be >= 1")
        return 2
    grid = tuning_grid(
        scenarios=(scenario,),
        seeds=seeds,
        scale=args.scale,
        scheduler=scheduler,
        n_jobs=args.jobs,
        trace=trace,
        jobs=args.procs,
        resim=args.resim,
        protocols=protocols,
    )
    payload = tuning_summary_payload(
        grid, (scenario,), seeds, args.scale, scheduler
    )
    print(render_report(fleet_tuning_report(payload)))
    target = write_tuning_summary(payload, path=args.out)
    _LOG.info("\nfleet tuning summary written to %s", target)
    return 0


def _cmd_bench(args) -> int:
    payload = run_hotpath_bench(quick=args.quick)
    print(render_hotpath_report(payload))
    if args.record_speedup:
        baseline = load_payload(args.record_speedup)
        artifact = speedup_payload(baseline, payload)
        target = write_payload(
            artifact, args.out or "results/hotpath_speedup.json"
        )
        _LOG.info("\nspeedup artifact written to %s", target)
    elif args.out:
        target = write_payload(payload, args.out)
        _LOG.info("\nbenchmark payload written to %s", target)
    if args.check:
        regressions = check_regression(
            payload, load_payload(args.check), args.tolerance
        )
        if regressions:
            _LOG.error("\nPERF REGRESSION vs %s", args.check)
            for line in regressions:
                _LOG.error("  %s", line)
            return 1
        _LOG.info("\nperf check ok vs %s", args.check)
    return 0


def _cmd_lint(args) -> int:
    """The ``lint`` command: analyze, ratchet against the baseline.

    Without ``--check`` every finding prints (exit 0, informational);
    with it the committed baseline is applied and any new finding,
    stale baseline entry or parse error exits 1.  The heavy imports
    live in :mod:`repro.analysis`, loaded here on demand.
    """
    from repro.analysis import (
        Baseline,
        analyze_paths,
        default_rules,
        json_payload,
        ratchet,
        render_text,
        repo_root,
        write_json_report,
    )
    from repro.analysis.framework import resolve_lint_root

    try:
        rules = default_rules(
            [part.strip() for part in args.rules.split(",") if part.strip()]
            if args.rules
            else None
        )
    except ValueError as exc:
        _LOG.error("error: %s", exc)
        return 2
    paths = (
        [Path(entry) for entry in args.paths]
        if args.paths
        else [repo_root() / "src"]
    )
    missing = [path for path in paths if not path.exists()]
    if missing:
        _LOG.error(
            "error: no such path(s): %s",
            ", ".join(str(path) for path in missing),
        )
        return 2
    root = resolve_lint_root(paths, repo_root())
    report = analyze_paths(paths, root, rules)
    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else repo_root() / "tests" / "data" / "lint_baseline.json"
    )
    if args.write_baseline:
        baseline = Baseline.from_findings(
            report.all_findings, note="TODO: justify this entry"
        )
        try:
            target = baseline.save(baseline_path)
        except ValueError as exc:
            _LOG.error("error: %s", exc)
            return 2
        _LOG.info("lint baseline written to %s", target)
        return 0
    result = None
    if args.check:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            _LOG.error("error: bad lint baseline %s: %s", baseline_path, exc)
            return 2
        result = ratchet(report.findings, baseline)
    print(render_text(report, result))
    if args.json:
        target = write_json_report(
            json_payload(report, rules, result, baseline_path),
            Path(args.json),
        )
        _LOG.info("lint JSON report written to %s", target)
    if args.check:
        assert result is not None
        return 0 if result.clean and not report.parse_errors else 1
    return 0


def _cmd_list(_args) -> int:
    print("experiment setups:")
    for index in sorted(SETUPS):
        setup = SETUPS[index]
        job = scaled_job(setup, 1.0, 0)
        print(
            f"  {index}: {setup.describe()} "
            f"({job.total_steps} steps at scale 1, policy "
            f"{setup.policy_percent:g}%)"
        )
    print("artifacts:", ", ".join(sorted(ARTIFACTS)))
    print("fleet scenarios:")
    for name in sorted(FLEET_SCENARIOS):
        scenario = FLEET_SCENARIOS[name]
        print(
            f"  {name}: {scenario.description} "
            f"(pool {scenario.pool_size}, {scenario.n_jobs} jobs)"
        )
    print("trace scenarios:")
    for name in sorted(TRACE_SCENARIOS):
        scenario = TRACE_SCENARIOS[name]
        print(
            f"  {name}: {scenario.description} "
            f"(pool {scenario.pool_size} in {scenario.shards} shards, "
            f"{scenario.n_jobs} jobs)"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.log_level, args.quiet)
    handlers = {
        "run": _cmd_run,
        "search": _cmd_search,
        "report": _cmd_report,
        "fleet": _cmd_fleet,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
