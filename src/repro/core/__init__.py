"""Sync-Switch: the paper's contribution.

``repro.core.policies``
    Protocol order (BSP then ASP), switch-timing, hyper-parameter
    configuration, and online straggler policies.

``repro.core.runtime``
    The system half of Fig. 9: profiler, straggler detector,
    checkpoint store, configuration actuators, per-node hook manager
    and the :class:`~repro.core.runtime.controller.SyncSwitchController`
    that ties policies to the execution substrate.

``repro.core.search``
    The offline binary-search timing algorithm (Algorithm 1) and the
    Monte-Carlo search-cost simulator behind Tables II/IV-VI and
    Fig. 16.
"""

from repro.core.policies import (
    ConfigurationPolicy,
    ElasticPolicy,
    GreedyPolicy,
    PolicyManager,
    ProtocolPolicy,
    TimingPolicy,
)
from repro.core.runtime import (
    CheckpointStore,
    HookManager,
    ParallelActuator,
    SequentialActuator,
    StragglerDetector,
    SyncSwitchController,
    ThroughputProfiler,
)
from repro.core.search import (
    ScheduleSearchSession,
    SearchCostSimulator,
    SearchSetting,
    run_search,
)

__all__ = [
    "CheckpointStore",
    "ConfigurationPolicy",
    "ElasticPolicy",
    "GreedyPolicy",
    "HookManager",
    "ParallelActuator",
    "PolicyManager",
    "ProtocolPolicy",
    "ScheduleSearchSession",
    "SearchCostSimulator",
    "SearchSetting",
    "SequentialActuator",
    "StragglerDetector",
    "SyncSwitchController",
    "ThroughputProfiler",
    "TimingPolicy",
    "run_search",
]
