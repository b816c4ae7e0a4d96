"""Monte-Carlo cost analysis of the binary search (Tables II/IV-VI, Fig. 16).

The paper replays its training logs through 1000 simulated searches per
*search setting* — ``(recurring, #BSP runs, #candidate runs)`` — and
reports four quantities per setting:

* **Search cost** — total time of every session trained during the
  search, in multiples of one static-BSP session.
* **Amortization** — recurrences needed before the per-recurrence time
  saving of the found policy pays for the search:
  ``cost / (1 - T_policy / T_BSP)``.
* **Effective training** — sessions that produced a valid model (within
  the accuracy threshold) per unit of search cost: search runs are not
  wasted work, they *are* training runs.
* **Success probability** — fraction of simulated searches returning
  the ground-truth switch point (the result of the search under
  noise-free mean accuracies).

The per-switch-point accuracy/time distributions come from a
:class:`ProfileModel` built from recorded experiment logs, with linear
interpolation between measured switch points (binary-search midpoints
under noisy paths can land between grid points).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.core.search.binary_search import SearchConfig, run_search
from repro.errors import SearchError
from repro.rng import make_rng

__all__ = ["ProfileModel", "SearchSetting", "SearchCostReport", "SearchCostSimulator"]


@dataclass(frozen=True)
class SearchSetting:
    """One row of Tables II/IV-VI: (recurring, BSP runs, candidate runs)."""

    recurring: bool
    bsp_runs: int
    candidate_runs: int

    def __post_init__(self):
        if self.recurring and self.bsp_runs != 0:
            raise SearchError("recurring jobs reuse the known target; bsp_runs=0")
        if not self.recurring and self.bsp_runs < 1:
            raise SearchError("new jobs need at least one BSP run")
        if self.candidate_runs < 1:
            raise SearchError("candidate_runs must be >= 1")

    def label(self) -> str:
        """Paper notation, e.g. ``(No, 5, 5)``."""
        recurring = "Yes" if self.recurring else "No"
        return f"({recurring}, {self.bsp_runs}, {self.candidate_runs})"


class ProfileModel:
    """Accuracy/time distributions per switch fraction, from run logs.

    This is the reproduction's stand-in for the paper's recorded
    training logs, which Section VI-C replays through 1000 simulated
    searches per setting (Tables II/IV-VI, Fig. 16).

    ``samples`` maps a switch fraction in [0, 1] to a list of
    ``(accuracy, total_time)`` pairs (diverged runs: accuracy 0.0 and
    the time spent before divergence).  Queries at unmeasured fractions
    interpolate linearly between the nearest measured neighbours.
    """

    def __init__(self, samples: dict[float, list[tuple[float, float]]]):
        if not samples:
            raise SearchError("profile model needs at least one fraction")
        for fraction, runs in samples.items():
            if not 0.0 <= fraction <= 1.0:
                raise SearchError(f"fraction {fraction} out of [0, 1]")
            if not runs:
                raise SearchError(f"fraction {fraction} has no runs")
        self._fractions = sorted(samples)
        self._samples = {
            fraction: [(float(a), float(t)) for a, t in samples[fraction]]
            for fraction in self._fractions
        }

    @property
    def fractions(self) -> tuple[float, ...]:
        """Measured switch fractions."""
        return tuple(self._fractions)

    def mean_accuracy(self, fraction: float) -> float:
        """Interpolated mean converged accuracy at ``fraction``."""
        return self._interpolate(fraction, self._mean_acc)

    def mean_time(self, fraction: float) -> float:
        """Interpolated mean total training time at ``fraction``."""
        return self._interpolate(fraction, self._mean_time)

    def sample(
        self, fraction: float, rng: np.random.Generator
    ) -> tuple[float, float]:
        """Draw one (accuracy, time) observation at ``fraction``.

        Draws from the empirical runs of the two neighbouring measured
        fractions, choosing the neighbour proportionally to proximity.
        """
        lo, hi, weight = self._neighbours(fraction)
        source = hi if rng.random() < weight else lo
        runs = self._samples[source]
        accuracy, time = runs[int(rng.integers(0, len(runs)))]
        return accuracy, time

    def bsp_mean_time(self) -> float:
        """Mean static-BSP time (the cost unit of the tables)."""
        return self._mean_time(max(self._fractions))

    def bsp_mean_accuracy(self) -> float:
        """Mean static-BSP converged accuracy (the search target)."""
        return self._mean_acc(max(self._fractions))

    # ------------------------------------------------------------------
    def _mean_acc(self, fraction: float) -> float:
        runs = self._samples[fraction]
        return sum(a for a, _ in runs) / len(runs)

    def _mean_time(self, fraction: float) -> float:
        runs = self._samples[fraction]
        return sum(t for _, t in runs) / len(runs)

    def _neighbours(self, fraction: float) -> tuple[float, float, float]:
        """Measured neighbours of ``fraction`` and the upper weight."""
        if not 0.0 <= fraction <= 1.0:
            raise SearchError(f"fraction {fraction} out of [0, 1]")
        fractions = self._fractions
        if fraction <= fractions[0]:
            return fractions[0], fractions[0], 0.0
        if fraction >= fractions[-1]:
            return fractions[-1], fractions[-1], 0.0
        index = bisect_left(fractions, fraction)
        lo, hi = fractions[index - 1], fractions[index]
        if hi == lo:
            return lo, hi, 0.0
        return lo, hi, (fraction - lo) / (hi - lo)

    def _interpolate(self, fraction: float, statistic) -> float:
        lo, hi, weight = self._neighbours(fraction)
        return (1.0 - weight) * statistic(lo) + weight * statistic(hi)


@dataclass(frozen=True)
class SearchCostReport:
    """Aggregate outcome of the Monte-Carlo replays for one setting.

    One row of Tables II/IV-VI: search cost (in static-BSP session
    multiples), amortization (recurrences to break even), effective
    training and success probability — plus the ground-truth switch
    point the setting is judged against.
    """

    setting: SearchSetting
    search_cost_x: float
    amortization_recurrences: float
    effective_training_x: float
    success_probability: float
    ground_truth_percent: float

    def row(self) -> dict:
        """Table row in the paper's column layout."""
        return {
            "setting": self.setting.label(),
            "search_cost": f"{self.search_cost_x:.2f}X",
            "amortized": f"{self.amortization_recurrences:.2f}",
            "effective_training": f"{self.effective_training_x:.2f}X",
            "success_probability": f"{self.success_probability * 100:.1f}%",
        }


class SearchCostSimulator:
    """Replays Algorithm 1 against a :class:`ProfileModel`.

    The Monte-Carlo engine behind Tables II/IV-VI and Fig. 16
    (Section VI-C): per search setting it simulates many noisy
    searches and aggregates their cost/outcome statistics into a
    :class:`SearchCostReport`.
    """

    def __init__(
        self,
        profile: ProfileModel,
        max_settings: int = 5,
        beta: float = 0.01,
        seed: int = 0,
    ):
        self.profile = profile
        self.max_settings = max_settings
        self.beta = beta
        self.seed = seed
        self._ground_truth = self._noise_free_search()

    @property
    def ground_truth_fraction(self) -> float:
        """Search outcome under noise-free mean accuracies."""
        return self._ground_truth

    def simulate(
        self, setting: SearchSetting, n_simulations: int = 1000
    ) -> SearchCostReport:
        """Monte-Carlo replay of one search setting."""
        if n_simulations < 1:
            raise SearchError("n_simulations must be >= 1")
        rng = make_rng(self.seed)
        bsp_time = self.profile.bsp_mean_time()
        bsp_accuracy = self.profile.bsp_mean_accuracy()

        costs = np.empty(n_simulations)
        valids = np.empty(n_simulations)
        successes = 0
        for sim in range(n_simulations):
            def trial(protocols, fractions, run) -> tuple[float, float]:
                return self.profile.sample(fractions[0], rng)

            config = SearchConfig(
                beta=self.beta,
                max_settings=self.max_settings,
                runs_per_setting=setting.candidate_runs,
                target_accuracy=bsp_accuracy if setting.recurring else None,
                bsp_runs=max(setting.bsp_runs, 1),
            )
            result = run_search(trial, config)
            costs[sim] = result.search_time
            valids[sim] = result.valid_sessions
            if abs(result.switch_fraction - self._ground_truth) < 1e-9:
                successes += 1

        mean_cost_x = float(costs.mean()) / bsp_time
        policy_time = self.profile.mean_time(self._ground_truth)
        saving = max(1.0 - policy_time / bsp_time, 1e-9)
        return SearchCostReport(
            setting=setting,
            search_cost_x=mean_cost_x,
            amortization_recurrences=mean_cost_x / saving,
            effective_training_x=float(valids.mean()) / max(mean_cost_x, 1e-9),
            success_probability=successes / n_simulations,
            ground_truth_percent=self._ground_truth * 100.0,
        )

    def _noise_free_search(self) -> float:
        """Algorithm 1 on the mean curves (defines the ground truth)."""
        target = self.profile.bsp_mean_accuracy()

        def trial(protocols, fractions, run) -> tuple[float, float]:
            return (
                self.profile.mean_accuracy(fractions[0]),
                self.profile.mean_time(fractions[0]),
            )

        config = SearchConfig(
            beta=self.beta,
            max_settings=self.max_settings,
            runs_per_setting=1,
            target_accuracy=target,
        )
        return run_search(trial, config).switch_fraction
