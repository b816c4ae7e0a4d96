"""Timing and schedule search (Algorithm 1) and its cost analysis."""

from repro.core.search.binary_search import (
    TWO_PHASE,
    ScheduleCandidate,
    ScheduleSearchSession,
    SearchConfig,
    SearchOutcome,
    SearchTrial,
    boundary_fractions,
    run_search,
)
from repro.core.search.cost_model import (
    ProfileModel,
    SearchCostReport,
    SearchCostSimulator,
    SearchSetting,
)

__all__ = [
    "TWO_PHASE",
    "ProfileModel",
    "ScheduleCandidate",
    "ScheduleSearchSession",
    "SearchConfig",
    "SearchCostReport",
    "SearchCostSimulator",
    "SearchOutcome",
    "SearchSetting",
    "SearchTrial",
    "boundary_fractions",
    "run_search",
]
