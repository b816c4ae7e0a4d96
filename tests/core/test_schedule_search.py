"""Tests for the N-segment schedule search (coordinate-descent)."""

import math

import pytest

from repro.core.search import SearchConfig, boundary_fractions, run_search
from repro.core.search.binary_search import (
    pick_best_schedule,
    validate_sequences,
)
from repro.errors import SearchError
from search_oracle import algorithm1


def two_phase_trial(fraction, run):
    """Knee at 0.25: accurate at/above, degraded below."""
    accuracy = 0.92 if fraction >= 0.25 else 0.80
    return accuracy, 50.0 + 100.0 * fraction


def schedule_trial(protocols, fractions, run):
    """Schedule-aware knee: first segment carries the accuracy."""
    return two_phase_trial(fractions[0], run)


CONFIG = SearchConfig(beta=0.01, max_settings=4, runs_per_setting=1, bsp_runs=2)


class TestBoundaryFractions:
    def test_telescopes_with_implicit_outer_bounds(self):
        assert boundary_fractions([0.25, 0.75]) == (0.25, 0.5, 0.25)

    def test_empty_boundaries_is_single_segment(self):
        assert boundary_fractions([]) == (1.0,)

    def test_all_ones_is_opener_only(self):
        assert boundary_fractions([1.0, 1.0]) == (1.0, 0.0, 0.0)

    def test_dyadic_boundaries_are_bit_exact(self):
        fractions = boundary_fractions([0.0625, 0.5])
        assert sum(fractions) == 1.0
        assert fractions == (0.0625, 0.4375, 0.5)


class TestValidateSequences:
    def test_known_monotone_sequences_pass(self):
        assert validate_sequences((("bsp", "ssp", "asp"),)) == (
            ("bsp", "ssp", "asp"),
        )

    def test_reversed_precision_rejected(self):
        with pytest.raises(SearchError):
            validate_sequences((("asp", "bsp"),))

    def test_repeated_protocol_rejected(self):
        with pytest.raises(SearchError):
            validate_sequences((("bsp", "bsp"),))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SearchError):
            validate_sequences((("bsp", "allreduce"),))

    def test_empty_rejected(self):
        with pytest.raises(SearchError):
            validate_sequences(())
        with pytest.raises(SearchError):
            validate_sequences(((),))

    def test_mixed_openers_rejected(self):
        """All candidates must share the opener that sets the target."""
        with pytest.raises(SearchError):
            validate_sequences((("bsp", "asp"), ("osp", "asp")))

    def test_new_engines_are_schedulable(self):
        validate_sequences((("osp", "casp"),))
        validate_sequences((("bsp", "ssp", "casp"),))


class TestTwoPhaseSpecialCase:
    """N=2 bsp,asp must reproduce the paper's Algorithm 1 verbatim."""

    def test_same_trial_stream_and_result(self):
        schedule = run_search(schedule_trial, CONFIG)
        switch, target, sessions = algorithm1(
            two_phase_trial, beta=0.01, max_settings=4, runs=1, bsp_runs=2
        )
        assert schedule.protocols == ("bsp", "asp")
        assert schedule.switch_fraction == switch
        assert schedule.fractions == (switch, 1.0 - switch)
        assert schedule.target_accuracy == target
        assert schedule.search_time == pytest.approx(
            sum(time for *_, time in sessions)
        )
        assert [
            (t.fractions[0], t.run_index, t.accuracy, t.time, t.valid)
            for t in schedule.trials
        ] == [
            (
                fraction, run, accuracy, time,
                fraction == 1.0 or abs(accuracy - target) <= 0.01,
            )
            for fraction, run, accuracy, time in sessions
        ]

    def test_supplied_target_skips_opener_runs(self):
        config = SearchConfig(
            beta=0.01, max_settings=3, runs_per_setting=1,
            target_accuracy=0.92,
        )
        schedule = run_search(schedule_trial, config)
        switch, _, sessions = algorithm1(
            two_phase_trial, beta=0.01, max_settings=3, runs=1, target=0.92
        )
        assert schedule.fractions[0] == switch
        assert schedule.n_sessions == len(sessions) == 3


class TestCoordinateDescent:
    def test_three_segment_schedule_found(self):
        """Each boundary gets its own halving run in [prev, 1.0]."""

        def trial(protocols, fractions, run):
            # Accurate iff >=25% precise opener AND the tail (last
            # segment) covers at least half the budget.
            bsp = fractions[0]
            tail = fractions[-1]
            good = bsp >= 0.25 and (len(fractions) == 1 or tail <= 0.75)
            accuracy = 0.92 if good else 0.80
            time = 50.0 + 100.0 * (1.0 - tail)
            return accuracy, time

        result = run_search(trial, CONFIG, sequences=(("bsp", "ssp", "asp"),))
        assert result.protocols == ("bsp", "ssp", "asp")
        assert len(result.fractions) == 3
        assert sum(result.fractions) == pytest.approx(1.0)
        assert result.fractions[0] >= 0.25
        # Boundaries are monotone: every segment is non-negative.
        assert all(value >= 0.0 for value in result.fractions)

    def test_best_sequence_wins_on_time(self):
        """Candidate enumeration prices each sequence's final vector."""

        def trial(protocols, fractions, run):
            accuracy = 0.92 if fractions[0] >= 0.25 else 0.80
            # The 3-segment sequence is strictly faster when accurate.
            time = 100.0 if len(protocols) == 3 else 200.0
            return accuracy, time

        result = run_search(
            trial, CONFIG, sequences=(("bsp", "asp"), ("bsp", "ssp", "asp"))
        )
        assert result.protocols == ("bsp", "ssp", "asp")
        assert len(result.candidates) == 2
        labels = {candidate.protocols for candidate in result.candidates}
        assert labels == {("bsp", "asp"), ("bsp", "ssp", "asp")}

    def test_never_good_schedule_prices_with_opener_fallback(self):
        def trial(protocols, fractions, run):
            return (0.92 if fractions == (1.0, 0.0) else 0.5), 100.0

        result = run_search(trial, CONFIG)
        # No candidate setting was ever accepted: boundary stays at 1.0
        # (all-opener) and the price falls back to the opener-run mean.
        assert result.fractions == (1.0, 0.0)
        assert result.expected_time == pytest.approx(100.0)


class TestPickBestSchedule:
    def test_fallback_is_infinite_without_opener_runs(self):
        best, prices = pick_best_schedule(
            (("bsp", "asp"),), ((1.0, 0.0),), [], None
        )
        assert best == 0
        assert prices[0] == math.inf

    def test_ties_break_toward_earlier_sequence(self):
        sequences = (("bsp", "asp"), ("bsp", "ssp"))
        finals = ((0.5, 0.5), (0.5, 0.5))
        best, prices = pick_best_schedule(sequences, finals, [], 10.0)
        assert best == 0
        assert prices == (10.0, 10.0)
