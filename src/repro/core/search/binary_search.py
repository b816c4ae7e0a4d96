"""Algorithm 1: binary search for the switch timing (and schedules).

Paper Appendix B.  Given a trial runner that trains with a candidate
switch point and reports converged accuracy, the search halves the
interval ``[lower, upper]`` (initially ``[0, 100]`` percent): a
candidate whose mean accuracy lies within ``[A - beta, A + beta]`` of
the target ``A`` becomes the new upper bound (it is "good enough", so
try switching even earlier); otherwise it becomes the lower bound.
After ``M`` explored settings the current upper bound is the policy.

Two fidelity notes:

* If no target accuracy is supplied, the model is first trained with
  static BSP ``R`` times and ``A`` is the mean converged accuracy
  (Algorithm 1 lines 2-5); those sessions count toward search cost.
* The paper's pseudo-code never resets the accumulator ``alpha'``
  between settings (lines 6-15); that is a transcription slip — the
  mean test on line 16 only makes sense per setting — so this
  implementation resets it for every candidate.

:class:`ScheduleSearchSession` generalizes the halving rule from one
switch fraction to an N-segment protocol schedule: for each candidate
protocol sequence it runs coordinate descent over the cumulative
segment boundaries ``b_1 <= ... <= b_{N-1}``, searching one boundary
at a time with Algorithm 1's interval halving (later boundaries pinned
at 1.0, i.e. the still-unsearched segments get zero budget), then
picks the sequence whose found schedule trains fastest.  The paper's
two-phase search is the single ``("bsp", "asp")`` sequence, whose
trials train the fraction vectors ``(f, 1 - f)``.

The session is inverted-control — it hands out batches and is told
their outcomes — so the fleet can train trials as ordinary jobs;
:func:`run_search` is the closed loop offline callers use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.distsim.engines import known_protocols, precision_rank
from repro.errors import SearchError
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "TWO_PHASE",
    "SearchConfig",
    "ScheduleCandidate",
    "ScheduleSearchSession",
    "SearchOutcome",
    "SearchTrial",
    "boundary_fractions",
    "pick_best_schedule",
    "run_search",
    "validate_sequences",
]

#: The paper's two-phase BSP -> ASP switch, the default search sequence.
TWO_PHASE = ("bsp", "asp")

#: A trial runner trains one session under the named ``protocols``
#: sequence with per-segment budget ``fractions`` (aligned with the
#: sequence) and the given repetition index, returning
#: ``(converged_accuracy, total_time)``; diverged runs report accuracy
#: 0.0 and the time until divergence.
TrialRunner = Callable[
    [tuple[str, ...], tuple[float, ...], int], tuple[float, float]
]


@dataclass(frozen=True)
class SearchConfig:
    """Inputs of Algorithm 1 (Appendix B).

    ``(bsp_runs, runs_per_setting)`` corresponds to the paper's
    ``(bn, r)`` search-setting notation; a supplied
    ``target_accuracy`` models the *recurring* job case that skips
    the BSP target runs entirely (Table II's ``Yes`` rows).
    """

    beta: float = 0.01
    max_settings: int = 5
    runs_per_setting: int = 5
    target_accuracy: float | None = None
    bsp_runs: int = 5

    def __post_init__(self):
        if self.beta < 0:
            raise SearchError("beta must be non-negative")
        if self.max_settings < 1:
            raise SearchError("max_settings must be >= 1")
        if self.runs_per_setting < 1:
            raise SearchError("runs_per_setting must be >= 1")
        if self.target_accuracy is None and self.bsp_runs < 1:
            raise SearchError(
                "need either a target accuracy or at least one BSP run"
            )


@dataclass(frozen=True)
class SearchTrial:
    """One training session executed during the search.

    Every session — opener target runs and candidate runs alike —
    counts toward the search cost of the paper's Tables II/IV-VI;
    ``valid`` marks it as *effective training* (a model within the
    accuracy band, Section VI-C).  ``protocols`` names the sequence
    trained: two sequences of equal length can explore the same
    ``fractions`` vector.
    """

    protocols: tuple[str, ...]
    fractions: tuple[float, ...]
    run_index: int
    accuracy: float
    time: float
    valid: bool


@dataclass(frozen=True)
class ScheduleCandidate:
    """The best schedule found for one candidate protocol sequence."""

    protocols: tuple[str, ...]
    fractions: tuple[float, ...]
    expected_time: float


@dataclass
class SearchOutcome:
    """Outcome of one full Algorithm 1 run (Appendix B).

    ``search_time`` is the quantity the paper normalizes into the
    *search cost* column of Tables II/IV-VI.
    """

    protocols: tuple[str, ...]
    fractions: tuple[float, ...]
    target_accuracy: float
    expected_time: float
    trials: list[SearchTrial] = field(default_factory=list)
    candidates: tuple[ScheduleCandidate, ...] = ()

    @property
    def search_time(self) -> float:
        """Total simulated time of every session trained while searching."""
        return sum(trial.time for trial in self.trials)

    @property
    def n_sessions(self) -> int:
        """Number of sessions trained while searching."""
        return len(self.trials)

    @property
    def valid_sessions(self) -> int:
        """Sessions that produced a model at the target accuracy."""
        return sum(1 for trial in self.trials if trial.valid)

    @property
    def switch_fraction(self) -> float:
        """First segment's budget share (two-phase ``switch_fraction``)."""
        return self.fractions[0]

    @property
    def switch_percent(self) -> float:
        """First switch point in percent (paper notation)."""
        return self.fractions[0] * 100.0

    def describe(self) -> str:
        """Human-readable ``BSP -> SSP -> ASP`` style schedule label."""
        return " -> ".join(name.upper() for name in self.protocols)


def boundary_fractions(boundaries: Sequence[float]) -> tuple[float, ...]:
    """Per-segment budget shares from cumulative switch boundaries.

    ``boundaries`` holds the N-1 cumulative switch points of an
    N-segment schedule (the implicit outer boundaries are 0 and 1), so
    segment ``i`` receives ``b_{i+1} - b_i``.  Binary-search midpoints
    are dyadic rationals, hence the differences are exact: the first
    share of a two-phase vector is bit-equal to its switch fraction.
    """
    fractions = []
    previous = 0.0
    for boundary in boundaries:
        fractions.append(boundary - previous)
        previous = boundary
    fractions.append(1.0 - previous)
    return tuple(fractions)


def validate_sequences(sequences) -> tuple[tuple[str, ...], ...]:
    """Check and normalize candidate protocol sequences.

    Every sequence must consist of known protocols in strictly
    decreasing registry precision (the schedule the search installs
    must be constructible as a paper-order ``ProtocolSchedule``), and
    all sequences must open with the same protocol: the target-accuracy
    runs train that opener at the full budget and are shared across
    sequences.
    """
    normalized = tuple(tuple(sequence) for sequence in sequences)
    if not normalized:
        raise SearchError("need at least one candidate protocol sequence")
    known = known_protocols()
    for sequence in normalized:
        if not sequence:
            raise SearchError("candidate protocol sequence is empty")
        for protocol in sequence:
            if protocol not in known:
                raise SearchError(
                    f"unknown protocol {protocol!r}; known: {known}"
                )
        ranks = [precision_rank(protocol) for protocol in sequence]
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise SearchError(
                f"schedule {' -> '.join(sequence)} must move from more to "
                "less precise protocols"
            )
    openers = {sequence[0] for sequence in normalized}
    if len(openers) > 1:
        raise SearchError(
            "all candidate sequences must start with the same protocol "
            f"to share target runs; got {sorted(openers)}"
        )
    return normalized


def pick_best_schedule(
    sequences: Sequence[tuple[str, ...]],
    finals: Sequence[tuple[float, ...]],
    trials: Sequence[SearchTrial],
    fallback_time: float | None,
) -> tuple[int, tuple[float, ...]]:
    """Price each sequence's found schedule and pick the fastest.

    The price is the mean session time of the trials that trained the
    final schedule; a schedule that was never trialed (the search kept
    the full budget on the opener) falls back to the opener-run mean
    time.  Returns ``(best_index, prices)`` with ties broken toward the
    earlier sequence.
    """
    if fallback_time is None:
        fallback_time = math.inf
    best_index = 0
    best_price = math.inf
    prices = []
    for index, sequence in enumerate(sequences):
        times = [
            trial.time
            for trial in trials
            if trial.protocols == sequence and trial.fractions == finals[index]
        ]
        price = sum(times) / len(times) if times else fallback_time
        prices.append(price)
        if price < best_price:
            best_index, best_price = index, price
    return best_index, tuple(prices)


class ScheduleSearchSession:
    """One in-flight Algorithm 1 search, advanced by trial completions.

    Coordinate descent over per-boundary switch fractions, one
    Algorithm 1 halving run per schedule boundary: searching boundary
    ``i`` keeps the already-found boundaries ``b_1..b_{i-1}`` fixed
    (they bound the interval from below) and pins the later boundaries
    at 1.0, so every trial is a valid monotone schedule.  Batches are
    handed out through :meth:`next_batch` and folded back in through
    :meth:`record` — in the fleet, as trial jobs complete.

    The session is deterministic given the recorded outcomes: trials
    within a batch all train the same schedule, so the order their
    completions are reported in does not matter.
    """

    def __init__(self, config: SearchConfig, sequences=(TWO_PHASE,)):
        self.config = config
        self.sequences = validate_sequences(sequences)
        self._target = config.target_accuracy
        self._opener_time: float | None = None
        self._trials: list[SearchTrial] = []
        self._finals: list[tuple[float, ...]] = []
        self._phase = "bsp" if self._target is None else "candidates"
        self._seq_index = 0
        self._boundaries: list[float] = []
        self._boundary_index = 0
        self._lower = 0.0
        self._upper = 1.0
        self._settings_done = 0
        self._batch_protocols = self.sequences[0]
        self._batch_vector: tuple[float, ...] | None = None
        self._batch_candidate: float | None = None
        self._outstanding = 0
        self._batch_results: list[tuple[float, float]] = []
        # Observability sink; the fleet installs its tracer so trial
        # completions land on the timeline (never affects the search).
        self.tracer = NULL_TRACER
        if self._phase == "candidates":
            self._begin_sequence(0)

    @property
    def done(self) -> bool:
        """Whether every candidate sequence has been searched."""
        return self._phase == "done"

    @property
    def awaiting(self) -> int:
        """Trials of the current batch not yet reported."""
        return self._outstanding

    @property
    def target_accuracy(self) -> float | None:
        """The search target ``A`` (None until the opener runs finish)."""
        return self._target

    @property
    def protocols(self) -> tuple[str, ...]:
        """Protocol sequence trained by the current batch's trials."""
        return self._batch_protocols

    def next_batch(self) -> tuple[tuple[float, ...], ...]:
        """Per-segment fraction vectors of the sessions to train next.

        The opener-protocol target batch (the full budget on segment 0)
        comes first when no target accuracy was supplied, then one
        batch per halving setting of the boundary under search; an
        empty tuple once the search is done.
        """
        if self._phase == "done":
            return ()
        if self._outstanding:
            raise SearchError("previous batch still has outstanding trials")
        if self._phase == "bsp":
            count = self.config.bsp_runs
            opener = self.sequences[0]
            self._batch_protocols = opener
            self._batch_vector = boundary_fractions([1.0] * (len(opener) - 1))
        else:
            count = self.config.runs_per_setting
            self._batch_candidate = (self._upper + self._lower) / 2.0
            probe = list(self._boundaries)
            probe[self._boundary_index] = self._batch_candidate
            self._batch_protocols = self.sequences[self._seq_index]
            self._batch_vector = boundary_fractions(probe)
        self._outstanding = count
        self._batch_results = []
        return (self._batch_vector,) * count

    def record(self, accuracy: float, time: float, now: float | None = None) -> None:
        """Report one finished trial of the current batch.

        ``accuracy`` is the converged accuracy (0.0 for diverged runs)
        and ``time`` the session's training time — in the fleet, its
        service time, so preemption stretches are charged to the
        search cost like the paper charges full sessions.  When the
        whole batch has reported, the bounds advance exactly like
        Algorithm 1 lines 6-16.  ``now`` is an optional fleet timestamp
        used only for tracing.
        """
        if self._outstanding <= 0:
            raise SearchError("no outstanding trial to record")
        self._outstanding -= 1
        self._batch_results.append((float(accuracy), float(time)))
        if now is not None and self.tracer.enabled:
            self.tracer.instant(
                "search-trial-done",
                "search",
                now,
                args={
                    "protocols": "+".join(self._batch_protocols),
                    "accuracy": float(accuracy),
                    "awaiting": self._outstanding,
                },
            )
        if self._outstanding == 0:
            self._advance()

    def result(self) -> SearchOutcome:
        """The finished search (fastest found schedule across sequences)."""
        if not self.done:
            raise SearchError("search has not finished")
        best, prices = pick_best_schedule(
            self.sequences, self._finals, self._trials, self._opener_time
        )
        result = SearchOutcome(
            protocols=self.sequences[best],
            fractions=self._finals[best],
            target_accuracy=self._target,
            expected_time=prices[best],
            candidates=tuple(
                ScheduleCandidate(sequence, self._finals[index], prices[index])
                for index, sequence in enumerate(self.sequences)
            ),
        )
        result.trials = list(self._trials)
        return result

    # ------------------------------------------------------------------
    def _begin_sequence(self, index: int) -> None:
        """Open the boundary search of sequence ``index``.

        Single-protocol sequences have no boundary to search: their
        schedule is the full budget on the one segment, finalized
        immediately.
        """
        while index < len(self.sequences):
            sequence = self.sequences[index]
            if len(sequence) > 1:
                self._seq_index = index
                self._boundaries = [1.0] * (len(sequence) - 1)
                self._boundary_index = 0
                self._lower = 0.0
                self._upper = 1.0
                self._settings_done = 0
                return
            self._finals.append(boundary_fractions([]))
            index += 1
        self._phase = "done"

    def _advance(self) -> None:
        """Fold the completed batch into the coordinate-descent state."""
        vector = self._batch_vector
        results = self._batch_results
        mean_accuracy = sum(accuracy for accuracy, _ in results) / len(results)
        if self._phase == "bsp":
            # Algorithm 1 lines 2-5: the target is the mean opener
            # accuracy; the target runs count toward search cost.
            self._target = mean_accuracy
            self._opener_time = sum(time for _, time in results) / len(results)
            for run, (accuracy, time) in enumerate(results):
                self._trials.append(
                    SearchTrial(
                        self.sequences[0], vector, run, accuracy, time,
                        valid=True,
                    )
                )
            self._phase = "candidates"
            self._begin_sequence(0)
            return
        sequence = self.sequences[self._seq_index]
        for run, (accuracy, time) in enumerate(results):
            self._trials.append(
                SearchTrial(
                    sequence,
                    vector,
                    run,
                    accuracy,
                    time,
                    valid=abs(accuracy - self._target) <= self.config.beta,
                )
            )
        # Lines 11-15: a good-enough candidate becomes the new upper
        # bound (try switching even earlier), otherwise the lower.
        if abs(mean_accuracy - self._target) <= self.config.beta:
            self._upper = self._batch_candidate
        else:
            self._lower = self._batch_candidate
        self._settings_done += 1
        if self._settings_done < self.config.max_settings:
            return
        self._boundaries[self._boundary_index] = self._upper
        self._boundary_index += 1
        if self._boundary_index < len(self._boundaries):
            self._lower = self._boundaries[self._boundary_index - 1]
            self._upper = 1.0
            self._settings_done = 0
        else:
            self._finals.append(boundary_fractions(self._boundaries))
            self._begin_sequence(self._seq_index + 1)


def run_search(
    trial_runner: TrialRunner,
    config: SearchConfig,
    sequences: Sequence[Sequence[str]] = (TWO_PHASE,),
) -> SearchOutcome:
    """Run Algorithm 1 to completion in a closed loop.

    The offline search of the paper: every trial of a batch is trained
    by calling ``trial_runner(protocols, fractions, run_index)`` and
    recorded in order, so repetitions see run indices ``0..R-1``.
    """
    session = ScheduleSearchSession(config, sequences)
    while not session.done:
        batch = session.next_batch()
        protocols = session.protocols
        for run, fractions in enumerate(batch):
            session.record(*trial_runner(protocols, fractions, run))
    return session.result()
