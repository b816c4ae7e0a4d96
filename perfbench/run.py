"""Host-time benchmark of the Sync-Switch simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rush-tune --seed 0 --seconds 40 --trace 0

Every process that runs the simulator is a fresh interpreter started
with one BLAS thread and no ``REPRO_*`` settings.  ``--trace 0`` starts
set-up probes, then one measuring process per timed call, and reports
the end-to-end metrics; ``--trace 1`` runs the run's first input once
untraced and once traced and reports the per-layer metrics.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment and the raw samples.

The output check runs on every timed call: structural checks for any
input, and a sha256 digest of the simulated output compared against
``digests.json`` for the input seeds recorded there.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
#: Set-up-only processes per run; every measuring process adds a sample.
SETUP_PROBES = 3
#: Distinct inputs per run: run seed ``s`` times workload ``w`` on input
#: seeds ``s*k ... s*k + k - 1`` (``k = INPUTS[w]``), one fresh process
#: each, cycling through them again until ``--seconds`` are measured.
#: A Fig. 10 call already spans two training seeds; rush-tune averages
#: two arrival streams, whose preemption patterns differ.
INPUTS = {"trace-200": 1, "fig10-cold": 1, "rush-tune": 2}
BLAS_THREADS = "1"
#: Every process of one run must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def _child_env() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        PYTHONHASHSEED="0",
    )
    return env


def _spawn(
    mode: str,
    workload: str,
    input_seed: int,
    scratch: str,
    deadline: float,
    **extra,
) -> dict:
    """Run one worker process and return its JSON report."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", workload,
        "--seed", str(input_seed),
        "--scratch", scratch,
    ]
    for key, value in extra.items():
        command += [f"--{key}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError(f"time budget spent before the {mode} process")
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} process exceeded the budget") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} process exited with {done.returncode}")
    return json.loads(lines[-1])


def input_seeds(workload: str, seed: int):
    """Input seeds of run ``seed``, cycled without end."""
    count = INPUTS[workload]
    while True:
        yield from range(seed * count, (seed + 1) * count)


def _check_outcome(workload: str, input_seed: int, outcome: dict) -> int:
    """Failed operations of one timed call; a digest mismatch fails all."""
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = recorded.get(workload, {}).get(str(input_seed))
    for problem in outcome["problems"]:
        print(f"output check, input {input_seed}: {problem}", file=sys.stderr)
    if expected is not None and outcome["digest"] != expected:
        print(
            f"output check, input {input_seed}: digest "
            f"{outcome['digest']} != recorded {expected}",
            file=sys.stderr,
        )
        return outcome["attempted"]
    return outcome["failed"]


def end_to_end(args, scratch: str, deadline: float) -> tuple[dict, list, dict]:
    inputs = input_seeds(args.workload, args.seed)
    first = next(inputs)
    setups = [
        _spawn("setup", args.workload, first, scratch, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    runs = []
    for input_seed in itertools.chain([first], inputs):
        if (
            len(runs) >= INPUTS[args.workload]
            and sum(run["wall_s"] for run in runs) >= args.seconds
        ):
            break
        run = _spawn("measure", args.workload, input_seed, scratch, deadline)
        run["input_seed"] = input_seed
        runs.append(run)
    setups += [run["setup_s"] for run in runs]
    walls = [run["wall_s"] for run in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "sim_steps_per_s": sum(run["outcome"]["steps"] for run in runs)
        / sum(walls),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    record = {
        "environment": runs[0]["environment"],
        "inputs": [run["input_seed"] for run in runs],
        "walls": walls,
        "setups": setups,
        "digests": [run["outcome"]["digest"] for run in runs],
    }
    checked = [(run["input_seed"], run["outcome"]) for run in runs]
    return metrics, checked, record


def per_layer(args, scratch: str, deadline: float) -> tuple[dict, list, dict]:
    input_seed = next(input_seeds(args.workload, args.seed))
    untraced = _spawn("measure", args.workload, input_seed, scratch, deadline)
    spans = WORK / "spans" / f"{args.workload}-input{input_seed}.npz"
    traced = _spawn(
        "trace", args.workload, input_seed, scratch, deadline, spans=spans
    )
    for problem in traced["self_check"]:
        print(f"wrapper self-check: {problem}", file=sys.stderr)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    record = {
        "environment": untraced["environment"],
        "inputs": [input_seed],
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "self_check": traced["self_check"],
        "spans": str(spans.relative_to(ROOT)),
    }
    checked = [(input_seed, untraced["outcome"]), (input_seed, traced["outcome"])]
    return metrics, checked, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(INPUTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, outcomes, record = measure(args, scratch, deadline)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(outcome["attempted"] for _, outcome in outcomes)
    failed = sum(
        _check_outcome(args.workload, input_seed, outcome)
        for input_seed, outcome in outcomes
    )
    correct = failed == 0 and not record.get("self_check")
    if args.trace:
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        units = END_TO_END_UNITS
    print(json.dumps({"workload": args.workload, "seed": args.seed} | record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
