"""Integration: Algorithm 1 driving real simulated training sessions."""

import pytest

from repro.core.search import SearchConfig, run_search
from repro.experiments.setups import SETUPS


@pytest.fixture(scope="module")
def search_outcome(tiny_runner_module):
    runner = tiny_runner_module
    setup = SETUPS[1]

    def trial(protocols, fractions, run_index):
        percent = fractions[0] * 100.0
        result = runner.run(
            setup, {"kind": "switch", "percent": percent}, run_index
        )
        accuracy = 0.0 if result.diverged else (result.reported_accuracy or 0.0)
        return accuracy, result.total_time

    config = SearchConfig(
        beta=0.02, max_settings=3, runs_per_setting=2, bsp_runs=2
    )
    return run_search(trial, config)


@pytest.fixture(scope="module")
def tiny_runner_module(tmp_path_factory):
    from repro.experiments.runner import ExperimentRunner

    cache = tmp_path_factory.mktemp("search_cache")
    return ExperimentRunner(scale=0.012, seeds=2, cache_dir=cache)


def test_search_returns_valid_fraction(search_outcome):
    assert 0.0 < search_outcome.switch_fraction <= 1.0


def test_search_trains_expected_session_count(search_outcome):
    # 2 BSP target runs + 3 settings x 2 runs
    assert search_outcome.n_sessions == 2 + 3 * 2


def test_search_target_is_plausible_accuracy(search_outcome):
    assert 0.5 < search_outcome.target_accuracy < 1.0


def test_found_policy_is_faster_than_bsp(search_outcome, tiny_runner_module):
    runner = tiny_runner_module
    setup = SETUPS[1]
    bsp = runner.run(setup, {"kind": "switch", "percent": 100.0}, 0)
    found = runner.run(
        setup,
        {"kind": "switch", "percent": search_outcome.switch_percent},
        0,
    )
    assert found.total_time < bsp.total_time


def test_search_time_is_positive_and_additive(search_outcome):
    assert search_outcome.search_time > 0
    assert search_outcome.search_time == pytest.approx(
        sum(trial.time for trial in search_outcome.trials)
    )
