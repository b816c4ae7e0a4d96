"""Tests for the incremental Algorithm 1 session driving fleet tuning.

The fleet opens a :class:`ScheduleSearchSession` over the default
two-phase ``("bsp", "asp")`` sequence, whose batches are the fraction
vectors ``(f, 1 - f)``; these cases pin that default session against
the paper's pseudo-code (``search_oracle.algorithm1``).
"""

import pytest

from repro.core.search import ScheduleSearchSession, SearchConfig
from repro.errors import SearchError
from search_oracle import algorithm1


def deterministic_trial(fraction, run):
    """Noise-free trial: accurate above 0.2, fast below 1.0."""
    accuracy = 0.90 if fraction >= 0.2 else 0.80
    return accuracy, 50.0 + 100.0 * fraction


CONFIG = SearchConfig(beta=0.05, max_settings=4, runs_per_setting=2, bsp_runs=2)


def drive(session):
    while not session.done:
        batch = session.next_batch()
        for run, fractions in enumerate(batch):
            session.record(*deterministic_trial(fractions[0], run))
    return session.result()


class TestEquivalenceWithOfflineSearch:
    """The session must replay Algorithm 1 exactly (same trial stream)."""

    def test_same_policy_target_and_trials(self):
        switch, target, sessions = algorithm1(
            deterministic_trial, beta=0.05, max_settings=4, runs=2,
            bsp_runs=2,
        )
        result = drive(ScheduleSearchSession(CONFIG))
        assert result.switch_fraction == switch
        assert result.target_accuracy == target
        assert result.search_time == pytest.approx(
            sum(time for *_, time in sessions)
        )
        assert [
            (t.fractions[0], t.run_index, t.accuracy, t.time)
            for t in result.trials
        ] == sessions
        assert all(
            t.protocols == ("bsp", "asp")
            and t.fractions == (t.fractions[0], 1.0 - t.fractions[0])
            for t in result.trials
        )

    def test_supplied_target_skips_bsp_runs(self):
        config = SearchConfig(
            beta=0.05, max_settings=3, runs_per_setting=1,
            target_accuracy=0.90,
        )
        switch, _, sessions = algorithm1(
            deterministic_trial, beta=0.05, max_settings=3, runs=1,
            target=0.90,
        )
        session = ScheduleSearchSession(config)
        first = session.next_batch()
        assert first == ((0.5, 0.5),)  # no BSP batch: straight to candidates
        session.record(*deterministic_trial(0.5, 0))
        result = drive(session)
        assert result.switch_fraction == switch
        assert result.n_sessions == len(sessions) == 3


class TestSessionProtocol:
    def test_bsp_batch_first_then_candidates(self):
        session = ScheduleSearchSession(CONFIG)
        assert session.target_accuracy is None
        batch = session.next_batch()
        assert batch == ((1.0, 0.0), (1.0, 0.0))
        assert session.protocols == ("bsp", "asp")
        assert session.awaiting == 2
        session.record(0.9, 100.0)
        session.record(0.9, 100.0)
        assert session.target_accuracy == pytest.approx(0.9)
        assert session.next_batch() == ((0.5, 0.5), (0.5, 0.5))

    def test_next_batch_with_outstanding_trials_rejected(self):
        session = ScheduleSearchSession(CONFIG)
        session.next_batch()
        with pytest.raises(SearchError):
            session.next_batch()

    def test_record_without_batch_rejected(self):
        session = ScheduleSearchSession(CONFIG)
        with pytest.raises(SearchError):
            session.record(0.9, 100.0)

    def test_result_before_done_rejected(self):
        session = ScheduleSearchSession(CONFIG)
        with pytest.raises(SearchError):
            session.result()

    def test_done_session_yields_empty_batch(self):
        session = ScheduleSearchSession(CONFIG)
        drive(session)
        assert session.done
        assert session.next_batch() == ()

    def test_record_order_within_batch_is_irrelevant(self):
        def noisy(fraction, run):
            accuracy = (0.92 if run == 0 else 0.88) if fraction >= 0.2 else 0.8
            return accuracy, 50.0 + run
        config = SearchConfig(
            beta=0.05, max_settings=2, runs_per_setting=2, bsp_runs=1
        )
        forward = ScheduleSearchSession(config)
        backward = ScheduleSearchSession(config)
        while not forward.done:
            batch_f = forward.next_batch()
            batch_b = backward.next_batch()
            assert batch_f == batch_b
            outcomes = [
                noisy(fractions[0], run)
                for run, fractions in enumerate(batch_f)
            ]
            for outcome in outcomes:
                forward.record(*outcome)
            for outcome in reversed(outcomes):
                backward.record(*outcome)
        # Same policy and total cost either way (the mean test is
        # order-free; only per-trial run indices may swap).
        assert (
            forward.result().switch_fraction
            == backward.result().switch_fraction
        )
        assert forward.result().search_time == pytest.approx(
            backward.result().search_time
        )
