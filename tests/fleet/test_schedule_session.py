"""Tests for the incremental N-segment schedule search session."""

import pytest

from repro.core.search import ScheduleSearchSession, SearchConfig, run_search
from repro.errors import SearchError
from repro.obs.tracer import Tracer
from search_oracle import algorithm1


def schedule_trial(protocols, fractions, run):
    """Noise-free: accurate when the opener covers >=20% of the budget."""
    accuracy = 0.90 if fractions[0] >= 0.2 else 0.80
    return accuracy, 50.0 + 100.0 * fractions[0]


CONFIG = SearchConfig(beta=0.05, max_settings=4, runs_per_setting=2, bsp_runs=2)


def drive(session):
    while not session.done:
        batch = session.next_batch()
        protocols = session.protocols
        for run, fractions in enumerate(batch):
            session.record(*schedule_trial(protocols, fractions, run))
    return session.result()


def drive_like_the_fleet(session):
    """Inverted control: completions arrive late, in reverse, traced."""
    session.tracer = Tracer()
    now = 0.0
    while not session.done:
        batch = session.next_batch()
        protocols = session.protocols
        outcomes = [
            schedule_trial(protocols, fractions, run)
            for run, fractions in enumerate(batch)
        ]
        for accuracy, time in reversed(outcomes):
            now += time
            session.record(accuracy, time, now=now)
    return session.result()


class TestEquivalenceWithOfflineScheduleSearch:
    """Fleet-style driving must replay the offline closed loop exactly."""

    @pytest.mark.parametrize(
        "sequences",
        [
            (("bsp", "asp"),),
            (("bsp", "ssp", "asp"),),
            (("bsp", "asp"), ("bsp", "ssp", "asp"), ("bsp", "dssp")),
        ],
    )
    def test_same_schedule_target_and_trials(self, sequences):
        offline = run_search(schedule_trial, CONFIG, sequences)
        result = drive_like_the_fleet(ScheduleSearchSession(CONFIG, sequences))
        assert result.protocols == offline.protocols
        assert result.fractions == offline.fractions
        assert result.target_accuracy == offline.target_accuracy
        assert result.search_time == pytest.approx(offline.search_time)
        assert [
            (t.protocols, t.fractions, t.run_index, t.accuracy, t.time,
             t.valid)
            for t in result.trials
        ] == [
            (t.protocols, t.fractions, t.run_index, t.accuracy, t.time,
             t.valid)
            for t in offline.trials
        ]

    def test_candidate_prices_match(self):
        sequences = (("bsp", "asp"), ("bsp", "ssp", "asp"))
        offline = run_search(schedule_trial, CONFIG, sequences)
        result = drive_like_the_fleet(ScheduleSearchSession(CONFIG, sequences))
        assert [
            (c.protocols, c.fractions, c.expected_time)
            for c in result.candidates
        ] == [
            (c.protocols, c.fractions, c.expected_time)
            for c in offline.candidates
        ]


class TestHandDerivedSchedules:
    def test_two_phase_is_the_papers_algorithm1(self):
        result = drive(ScheduleSearchSession(CONFIG))
        switch, target, sessions = algorithm1(
            lambda fraction, run: schedule_trial(None, (fraction,), run),
            beta=0.05, max_settings=4, runs=2, bsp_runs=2,
        )
        assert result.fractions == (switch, 1.0 - switch)
        assert result.target_accuracy == target
        assert [
            (t.fractions[0], t.run_index, t.accuracy, t.time)
            for t in result.trials
        ] == sessions

    def test_three_segment_boundaries_search_one_at_a_time(self):
        """b1: 0.5 ok, 0.25 ok, 0.125 bad, 0.1875 bad -> 0.25; then b2
        halves [0.25, 1] and every probe keeps the 25% opener: 0.625,
        0.4375, 0.34375, 0.296875 all accepted."""
        result = drive(ScheduleSearchSession(CONFIG, (("bsp", "ssp", "asp"),)))
        probes = [t.fractions for t in result.trials[2::2]]
        assert probes == [
            (0.5, 0.5, 0.0), (0.25, 0.75, 0.0), (0.125, 0.875, 0.0),
            (0.1875, 0.8125, 0.0), (0.25, 0.375, 0.375),
            (0.25, 0.1875, 0.5625), (0.25, 0.09375, 0.65625),
            (0.25, 0.046875, 0.703125),
        ]
        assert result.fractions == (0.25, 0.046875, 0.703125)


class TestSessionProtocol:
    def test_opener_batch_first_then_candidates(self):
        session = ScheduleSearchSession(
            CONFIG, (("bsp", "ssp", "asp"),)
        )
        assert session.target_accuracy is None
        batch = session.next_batch()
        assert batch == ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        assert session.protocols == ("bsp", "ssp", "asp")
        assert session.awaiting == 2
        session.record(0.9, 100.0)
        session.record(0.9, 100.0)
        assert session.target_accuracy == pytest.approx(0.9)
        # First candidate: boundary 1 at 0.5, boundary 2 pinned at 1.0.
        assert session.next_batch() == ((0.5, 0.5, 0.0), (0.5, 0.5, 0.0))

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

    def test_invalid_sequences_rejected_up_front(self):
        with pytest.raises(SearchError):
            ScheduleSearchSession(CONFIG, (("asp", "bsp"),))
