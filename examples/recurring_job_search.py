"""Offline timing search for a recurring job, then policy reuse.

Reproduces the paper's intended workflow (Sections IV-B1 and VI-C1):

1. a *new* training job arrives: run the binary search (Algorithm 1)
   with real pilot training sessions to find the switch timing;
2. the job recurs (hyper-parameter tuning, online learning, ...):
   reuse the found timing policy directly and enjoy the speedup;
3. report the search cost and how many recurrences amortize it.

Usage::

    python examples/recurring_job_search.py [scale] [runs_per_setting]
"""

import sys

from repro.core.search import SearchConfig, run_search
from repro.experiments import ExperimentRunner
from repro.experiments.setups import SETUPS


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.02
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    setup = SETUPS[1]
    runner = ExperimentRunner(scale=scale, seeds=runs)

    print(f"new job: {setup.describe()} at scale {scale}")
    print(f"searching with {setup.search_max_settings} settings x {runs} runs...\n")

    def trial(protocols, fractions, run_index: int):
        fraction = fractions[0]  # BSP share of the two-phase switch
        result = runner.run(
            setup, {"kind": "switch", "percent": fraction * 100.0}, run_index
        )
        accuracy = 0.0 if result.diverged else (result.reported_accuracy or 0.0)
        print(
            f"  pilot: switch={fraction * 100:>7.3f}%  "
            f"accuracy={accuracy:.4f}  time={result.total_time:>7.0f}s"
        )
        return accuracy, result.total_time

    config = SearchConfig(
        beta=0.01,
        max_settings=setup.search_max_settings,
        runs_per_setting=runs,
        bsp_runs=runs,
    )
    outcome = run_search(trial, config)

    bsp_times = [
        trial.time for trial in outcome.trials if trial.fractions[0] == 1.0
    ]
    bsp_time = sum(bsp_times) / max(len(bsp_times), 1)
    policy_runs = runner.run_many(
        setup, {"kind": "switch", "percent": outcome.switch_percent}, runs
    )
    policy_time = sum(run.total_time for run in policy_runs) / len(policy_runs)
    saving = max(1.0 - policy_time / bsp_time, 1e-9)
    cost_x = outcome.search_time / bsp_time

    print(f"\nfound timing policy : switch at {outcome.switch_percent:g}% BSP")
    print(f"target accuracy     : {outcome.target_accuracy:.4f}")
    print(f"search cost         : {cost_x:.2f}x one BSP session")
    print(f"amortized after     : {cost_x / saving:.1f} recurrences")
    print(
        f"recurring job reuse : {policy_time:.0f}s vs {bsp_time:.0f}s BSP "
        f"({bsp_time / policy_time:.2f}X speedup)"
    )


if __name__ == "__main__":
    main()
