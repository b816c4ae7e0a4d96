"""Tests for Algorithm 1 (offline timing search).

The two-phase search is :func:`~repro.core.search.run_search` over the
default ``("bsp", "asp")`` sequence; the synthetic runners here take the
BSP share through :func:`search_oracle.two_phase`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import SearchConfig, run_search
from repro.errors import SearchError
from search_oracle import algorithm1, two_phase


def search(trial, config):
    """The offline two-phase search over a ``(fraction, run)`` sampler."""
    return run_search(two_phase(trial), config)


def knee_runner(knee=0.0625, good=0.92, bad_slope=0.5, bsp_time=100.0):
    """Synthetic trial runner: accuracy plateaus at/above the knee."""

    def trial(fraction, run_index):
        if fraction >= knee:
            accuracy = good
        else:
            accuracy = good - bad_slope * (knee - fraction)
        time = bsp_time * (0.15 + 0.85 * fraction)
        return accuracy, time

    return trial


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(SearchError):
            SearchConfig(beta=-0.1)
        with pytest.raises(SearchError):
            SearchConfig(max_settings=0)
        with pytest.raises(SearchError):
            SearchConfig(runs_per_setting=0)
        with pytest.raises(SearchError):
            SearchConfig(target_accuracy=None, bsp_runs=0)


class TestOfflineTimingSearch:
    @given(
        st.floats(min_value=0.02, max_value=0.6),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
    )
    @settings(max_examples=30)
    def test_trial_stream_matches_paper_pseudocode(self, knee, runs, recurring):
        """Same sessions, target and switch point as Algorithm 1 itself."""
        trial = knee_runner(knee=knee)
        target = 0.92 if recurring else None
        result = search(
            trial,
            SearchConfig(beta=0.01, max_settings=5, runs_per_setting=runs,
                         target_accuracy=target, bsp_runs=2),
        )
        switch, expected_target, sessions = algorithm1(
            trial, beta=0.01, max_settings=5, runs=runs, target=target,
            bsp_runs=2,
        )
        assert result.switch_fraction == switch
        assert result.target_accuracy == expected_target
        assert [
            (t.fractions[0], t.run_index, t.accuracy, t.time)
            for t in result.trials
        ] == sessions

    def test_finds_knee_with_five_settings(self):
        """Binary search path 50->25->12.5->6.25->3.125 lands on 6.25%."""
        result = search(
            knee_runner(knee=0.0625),
            SearchConfig(beta=0.01, max_settings=5, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        assert result.switch_fraction == pytest.approx(0.0625)

    def test_finds_coarser_knee_with_fewer_settings(self):
        result = search(
            knee_runner(knee=0.125),
            SearchConfig(beta=0.01, max_settings=4, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        assert result.switch_fraction == pytest.approx(0.125)

    def test_single_setting_checks_only_50_percent(self):
        calls = []

        def trial(fraction, run_index):
            calls.append(fraction)
            return 0.92, 50.0

        result = search(
            trial,
            SearchConfig(max_settings=1, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        assert calls == [0.5]
        assert result.switch_fraction == pytest.approx(0.5)

    def test_estimates_target_from_bsp_runs(self):
        result = search(
            knee_runner(),
            SearchConfig(beta=0.01, max_settings=3, runs_per_setting=1,
                         bsp_runs=3),
        )
        assert result.target_accuracy == pytest.approx(0.92)
        bsp_trials = [t for t in result.trials if t.fractions[0] == 1.0]
        assert len(bsp_trials) == 3

    def test_diverged_trials_push_lower_bound_up(self):
        """Accuracy 0 (divergence) must never be accepted."""

        def trial(fraction, run_index):
            if fraction < 0.5:
                return 0.0, 5.0  # diverged: fast failure
            return 0.92, 100.0

        result = search(
            trial,
            SearchConfig(beta=0.01, max_settings=5, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        assert result.switch_fraction == pytest.approx(0.5)

    def test_search_time_accumulates_all_sessions(self):
        result = search(
            knee_runner(),
            SearchConfig(beta=0.01, max_settings=2, runs_per_setting=2,
                         bsp_runs=2),
        )
        assert result.n_sessions == 2 + 2 * 2
        assert result.search_time == pytest.approx(
            sum(trial.time for trial in result.trials)
        )

    def test_runs_per_setting_averages_noise(self):
        flips = iter([0.92, 0.80, 0.92, 0.92] * 10)

        def noisy_trial(fraction, run_index):
            return next(flips), 10.0

        result = search(
            noisy_trial,
            SearchConfig(beta=0.02, max_settings=1, runs_per_setting=4,
                         target_accuracy=0.92),
        )
        # mean = 0.89 -> outside beta -> candidate rejected -> upper stays 1.0
        assert result.switch_fraction == pytest.approx(1.0)

    def test_valid_sessions_counted(self):
        result = search(
            knee_runner(knee=0.0625),
            SearchConfig(beta=0.01, max_settings=5, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        # path: 50, 25, 12.5, 6.25 valid; 3.125 invalid
        assert result.valid_sessions == 4

    @given(
        st.floats(min_value=0.02, max_value=0.6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40)
    def test_result_always_in_unit_interval_and_visited(self, knee, settings_count):
        visited = []

        def trial(fraction, run_index):
            visited.append(fraction)
            accuracy, time = knee_runner(knee=knee)(fraction, run_index)
            return accuracy, time

        result = search(
            trial,
            SearchConfig(beta=0.005, max_settings=settings_count,
                         runs_per_setting=1, target_accuracy=0.92),
        )
        assert 0.0 <= result.switch_fraction <= 1.0
        assert result.switch_fraction in set(visited) | {1.0}

    @given(st.floats(min_value=0.02, max_value=0.45))
    @settings(max_examples=30)
    def test_found_fraction_satisfies_accuracy_constraint(self, knee):
        """The returned timing's accuracy must be within beta of target.

        Points slightly below the knee whose accuracy dip is smaller
        than beta are legitimately acceptable, so the invariant is on
        accuracy, not on the knee location itself.
        """
        beta, slope = 0.005, 2.0
        result = search(
            knee_runner(knee=knee, bad_slope=slope),
            SearchConfig(beta=beta, max_settings=6, runs_per_setting=1,
                         target_accuracy=0.92),
        )
        found = result.switch_fraction
        accuracy, _ = knee_runner(knee=knee, bad_slope=slope)(found, 0)
        assert abs(accuracy - 0.92) <= beta + 1e-12
