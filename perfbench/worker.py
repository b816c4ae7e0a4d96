"""One benchmark process: set up a workload, run it, print one JSON line.

Started by ``run.py`` in a fresh interpreter with a fixed BLAS thread
count.  ``--spawned-at`` is the parent's ``time.monotonic()`` just
before the spawn, so the reported set-up time covers interpreter
start, ``import repro``, input generation and runner construction.

Modes:

* ``setup``   — stop right before the timed call; report set-up time.
* ``measure`` — one untraced timed call; report its wall time, the
  output check, peak RSS and the recorded environment.
* ``trace``   — one timed call with every layer boundary wrapped;
  report per-layer metrics and the wrapper self-check, and write the
  spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402  (benchmark-local modules live beside this file)
import workloads  # noqa: E402


def _timed(operation):
    """Run the timed call; a raised exception fails every operation."""
    start = time.perf_counter()
    try:
        output = operation.call()
    except Exception:
        wall = time.perf_counter() - start
        traceback.print_exc()
        return wall, workloads.Outcome(
            attempted=operation.size,
            failed=operation.size,
            problems=["timed call raised"],
        )
    wall = time.perf_counter() - start
    try:
        outcome = operation.check(output)
    except Exception:
        traceback.print_exc()
        outcome = workloads.Outcome(
            attempted=operation.size,
            failed=operation.size,
            problems=["output check raised"],
        )
    return wall, outcome


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _environment() -> dict:
    import numpy as np

    from repro.experiments.hotpath import calibration_score

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "calibration_score": calibration_score(),
    }


def _outcome_fields(outcome) -> dict:
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "steps": outcome.steps,
        "digest": outcome.digest,
        "problems": outcome.problems[:20],
    }


def measure(operation, setup_s: float) -> dict:
    wall, outcome = _timed(operation)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "outcome": _outcome_fields(outcome),
        "peak_rss_mb": _peak_rss_mb(),
        "environment": _environment(),
    }


def trace(operation, args) -> dict:
    recorder = layers.SpanRecorder()
    traced_call = recorder.span(recorder.intern(layers.ROOT), operation.call)
    instrumentation = layers.install(recorder)
    try:
        wall, outcome = _timed(
            workloads.Operation(traced_call, operation.check, operation.size)
        )
    finally:
        instrumentation.restore()
    metrics = layers.layer_metrics(
        recorder,
        {
            "steps": outcome.steps,
            "trials": outcome.trials,
            "preemptions": outcome.preemptions,
        },
    )
    problems = layers.self_check(
        recorder, args.workload, metrics, operation.size
    )
    recorder.save(Path(args.spans))
    return {
        "wall_s": wall,
        "layers": metrics,
        "self_check": problems,
        "outcome": _outcome_fields(outcome),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=("setup", "measure", "trace"), required=True
    )
    parser.add_argument(
        "--workload", choices=sorted(workloads.WORKLOADS), required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans", help="span file of the trace mode")
    args = parser.parse_args()

    operation = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        report = {"setup_s": setup_s}
    elif args.mode == "measure":
        report = measure(operation, setup_s)
    else:
        report = trace(operation, args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
