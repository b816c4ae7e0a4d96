"""Per-layer tracing of the simulator from outside the program.

The traced run wraps public functions and methods of ``repro`` at run
time, records one span (name, start, end, parent) per call in memory,
restores every original on exit and derives the per-layer metrics from
the spans: a layer's self time is its spans' durations minus the part
covered by child spans.  Nothing in ``src/repro`` is changed.

Module-level functions are patched in every loaded ``repro`` module
that holds them, so a caller that imported one by name is traced too;
methods are patched on the defining class and every subclass that
overrides them.  The self-check in :func:`self_check` catches a
wrapper that a call path still bypasses.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

ROOT = "workload"

#: Per-layer metric -> (unit, better).  The order is the report order.
METRICS = {
    "mlcore.grad_batch.calls": ("count", "lower"),
    "mlcore.grad_batch.self_s": ("s", "lower"),
    "mlcore.grad_batch.width_mean": ("count", "higher"),
    "mlcore.grad.calls": ("count", "lower"),
    "mlcore.grad.self_s": ("s", "lower"),
    "mlcore.eval.calls": ("count", "lower"),
    "mlcore.eval.self_s": ("s", "lower"),
    "mlcore.optim.advance.calls": ("count", "lower"),
    "mlcore.optim.advance.self_s": ("s", "lower"),
    "distsim.ps.push.calls": ("count", "lower"),
    "distsim.ps.push.self_s": ("s", "lower"),
    "distsim.ps.pull.calls": ("count", "lower"),
    "distsim.ps.pull.self_s": ("s", "lower"),
    "distsim.batcher.useful_ratio": ("ratio", "higher"),
    "distsim.engine.self_s": ("s", "lower"),
    "distsim.session.new.calls": ("count", "lower"),
    "distsim.session.new.self_s": ("s", "lower"),
    "distsim.session.fork.calls": ("count", "lower"),
    "distsim.session.fork.self_s": ("s", "lower"),
    "distsim.stragglers.add.calls": ("count", "lower"),
    "distsim.stragglers.add.self_s": ("s", "lower"),
    "distsim.stragglers.lookup.calls": ("count", "lower"),
    "distsim.stragglers.lookup.self_s": ("s", "lower"),
    "core.controller.calls": ("count", "lower"),
    "core.controller.self_s": ("s", "lower"),
    "core.elastic.init.calls": ("count", "lower"),
    "core.elastic.init.self_s": ("s", "lower"),
    "core.elastic.fork.calls": ("count", "lower"),
    "core.elastic.fork.self_s": ("s", "lower"),
    "core.elastic.resize.calls": ("count", "lower"),
    "core.elastic.resize.self_s": ("s", "lower"),
    "core.runtime.useful_step_ratio": ("ratio", "higher"),
    "core.search.trials": ("count", "lower"),
    "fleet.scheduler.calls": ("count", "lower"),
    "fleet.scheduler.self_s": ("s", "lower"),
    "fleet.sim.self_s": ("s", "lower"),
    "fleet.preemptions": ("count", "lower"),
    "experiments.cache.store.calls": ("count", "lower"),
    "experiments.cache.store.self_s": ("s", "lower"),
    "experiments.cache.load.calls": ("count", "lower"),
    "experiments.cache.hit_ratio": ("ratio", "higher"),
    "experiments.executor.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

ALL = frozenset({"trace-200", "fig10-cold", "rush-tune"})
FLEET = frozenset({"trace-200", "rush-tune"})

#: Span -> workloads on which it must see calls; it must see none on
#: the others.  A wrapper bypassed by some call path reads zero where
#: calls are predicted, which fails the traced run.
#: ``TrainingSession.fork`` is unreached everywhere:
#: ``ElasticTrainingRun.fork`` deep-copies its session itself.
USED_ON = {
    "mlcore.grad_batch": ALL,
    "mlcore.grad": ALL,
    "mlcore.eval": ALL,
    "mlcore.optim.advance": ALL,
    "distsim.ps.push": ALL,
    "distsim.ps.pull": ALL,
    "distsim.batcher.gradient_for": ALL,
    "distsim.engine": ALL,
    "distsim.session.new": ALL,
    "distsim.session.fork": frozenset(),
    "distsim.stragglers.add": ALL,
    "distsim.stragglers.lookup": ALL,
    "core.controller": frozenset({"fig10-cold"}),
    "core.elastic.init": FLEET,
    "core.elastic.fork": FLEET,
    "core.elastic.resize": frozenset({"rush-tune"}),
    "fleet.scheduler": FLEET,
    "fleet.sim": FLEET,
    "experiments.cache.store": frozenset({"fig10-cold", "rush-tune"}),
    "experiments.cache.load": frozenset({"fig10-cold", "rush-tune"}),
    "experiments.executor": ALL,
}


class SpanRecorder:
    """Spans kept in flat typed arrays: name id, start, end, parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        #: Stacked slices per ``loss_and_grad_batch`` span (by span index).
        self.widths: dict[int, int] = {}
        #: Session steps advanced per engine ``run`` span (by span index).
        self.engine_steps: dict[int, int] = {}
        self.cache_hits = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name_id: int, fn, on_enter=None, on_exit=None):
        """``fn`` wrapped to record one span per call.

        ``on_enter(index, args)`` runs before the call and
        ``on_exit(index, args, result)`` after it, with ``result`` None
        when the call raised; ``index`` is the span's index.
        """
        clock = time.perf_counter
        stack = self.stack
        names, starts, ends, parents = (
            self.name_id, self.start, self.end, self.parent
        )

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            if on_enter is not None:
                on_enter(index, args)
            stack.append(index)
            starts.append(clock())
            ends.append(0.0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[index] = clock()
                stack.pop()
                if on_exit is not None:
                    on_exit(index, args, result)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def save(self, path) -> None:
        """Write the spans as ``.npz``: names, name_id, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
        }


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


class Instrumentation:
    """Installs the span wrappers; :meth:`restore` undoes every patch."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        # A class reached twice (e.g. as an engine and as a subclass of
        # another engine) keeps its first wrapper.
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, name: str, cls: type, attr: str, **hooks) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass overriding it."""
        name_id = self.recorder.intern(name)
        for owner in _subclasses(cls):
            if attr in owner.__dict__:
                original = owner.__dict__[attr]
                self._set(
                    owner, attr, self.recorder.span(name_id, original, **hooks)
                )

    def function(self, name: str, fn, when=None, **hooks) -> None:
        """Wrap a module function wherever a ``repro`` module holds it.

        ``when(args)`` false calls straight through without a span.
        """
        traced = self.recorder.span(self.recorder.intern(name), fn, **hooks)
        if when is not None:
            span = traced

            def traced(*args, **kwargs):
                if when(args):
                    return span(*args, **kwargs)
                return fn(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every traced layer boundary; returns the undo handle."""
    from repro.core.runtime import ElasticTrainingRun, SyncSwitchController
    from repro.distsim.engines import engine_spec, known_protocols
    from repro.distsim.engines.base import GradientBatcher, TrainingSession
    from repro.distsim.parameter_server import ShardedParameterServer
    from repro.distsim.stragglers import StragglerSchedule
    from repro.distsim.trainer import DistributedTrainer
    from repro.experiments import executor
    from repro.fleet.fleet_sim import FleetSimulator
    from repro.fleet.scheduler import SchedulerPolicy
    from repro.mlcore.models import ResidualMLPClassifier
    from repro.mlcore.optim import MomentumSGD

    def note_width(index, args):
        recorder.widths[index] = int(args[1].shape[0])

    def note_hit(index, args, result):
        if result is not None:
            recorder.cache_hits += 1

    def step_before(index, args):
        recorder.engine_steps[index] = args[1].step

    def step_after(index, args, result):
        recorder.engine_steps[index] = args[1].step - recorder.engine_steps[index]

    def with_cache_dir(args):
        return args[0] is not None

    patch = Instrumentation(recorder)
    patch.method(
        "mlcore.grad_batch",
        ResidualMLPClassifier,
        "loss_and_grad_batch",
        on_enter=note_width,
    )
    patch.method("mlcore.grad", ResidualMLPClassifier, "loss_and_grad")
    patch.method("mlcore.eval", ResidualMLPClassifier, "evaluate")
    patch.method("mlcore.optim.advance", MomentumSGD, "advance")
    patch.method("distsim.ps.push", ShardedParameterServer, "push")
    patch.method("distsim.ps.pull", ShardedParameterServer, "pull")
    patch.method(
        "distsim.batcher.gradient_for", GradientBatcher, "gradient_for"
    )
    for engine in {engine_spec(p).factory for p in known_protocols()}:
        patch.method(
            "distsim.engine",
            engine,
            "run",
            on_enter=step_before,
            on_exit=step_after,
        )
    patch.method("distsim.session.new", DistributedTrainer, "new_session")
    patch.method("distsim.session.fork", TrainingSession, "fork")
    patch.method("distsim.stragglers.add", StragglerSchedule, "add")
    patch.method("distsim.stragglers.lookup", StragglerSchedule, "state_at")
    patch.method("distsim.stragglers.lookup", StragglerSchedule, "states_at")
    patch.method("core.controller", SyncSwitchController, "run_job")
    patch.method("core.elastic.init", ElasticTrainingRun, "__init__")
    patch.method("core.elastic.fork", ElasticTrainingRun, "fork")
    patch.method("core.elastic.resize", ElasticTrainingRun, "resize")
    for attr in ("admit", "triage", "preemption_request"):
        patch.method("fleet.scheduler", SchedulerPolicy, attr)
    patch.method("fleet.sim", FleetSimulator, "run")
    patch.function(
        "experiments.cache.store", executor.disk_store, when=with_cache_dir
    )
    patch.function(
        "experiments.cache.load",
        executor.disk_load,
        when=with_cache_dir,
        on_exit=note_hit,
    )
    patch.method("experiments.executor", executor.ParallelExecutor, "execute")
    return patch


def span_totals(recorder: SpanRecorder) -> dict[str, dict[str, float]]:
    """Calls and self seconds per span name."""
    data = recorder.arrays()
    duration = data["end"] - data["start"]
    parent = data["parent"]
    nested = parent >= 0
    covered = np.zeros_like(duration)
    np.add.at(covered, parent[nested], duration[nested])
    own = duration - covered
    calls = np.bincount(data["name_id"], minlength=len(recorder.names))
    self_s = np.bincount(
        data["name_id"], weights=own, minlength=len(recorder.names)
    )
    return {
        name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(recorder.names)
    }


def _parent_names(recorder: SpanRecorder, indices) -> dict[int, str | None]:
    """Name of each given span's parent span (None at the top)."""
    name_id, parent = recorder.name_id, recorder.parent
    return {
        index: recorder.names[name_id[parent[index]]]
        if parent[index] >= 0
        else None
        for index in indices
    }


def batcher_slices(recorder: SpanRecorder) -> int:
    """Slices computed by stacked passes that the batcher issued."""
    parents = _parent_names(recorder, recorder.widths)
    return sum(
        width
        for index, width in recorder.widths.items()
        if parents[index] == "distsim.batcher.gradient_for"
    )


def simulated_steps(recorder: SpanRecorder) -> int:
    """Session steps advanced by outermost engine runs (a run may
    delegate to another engine's ``run``; that step is counted once)."""
    parents = _parent_names(recorder, recorder.engine_steps)
    return sum(
        steps
        for index, steps in recorder.engine_steps.items()
        if parents[index] != "distsim.engine"
    )


def layer_metrics(recorder: SpanRecorder, outcome: dict) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``.

    ``outcome`` carries the output-derived counts of the traced
    operation: ``steps`` (sum of completed steps), ``trials`` and
    ``preemptions``.  ``core.runtime.useful_step_ratio`` divides the
    completed steps by every step the engines simulated, discarded
    completion projections and re-simulated tails included.
    """
    totals = span_totals(recorder)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    metrics: dict[str, float] = {}
    for name in METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls(layer)
        elif kind == "self_s":
            metrics[name] = self_s(layer)
    computed = sum(recorder.widths.values())
    batch_calls = calls("mlcore.grad_batch")
    consumed = calls("distsim.batcher.gradient_for")
    simulated = simulated_steps(recorder)
    loads = calls("experiments.cache.load")
    metrics.update(
        {
            "mlcore.grad_batch.width_mean": (
                computed / batch_calls if batch_calls else 0.0
            ),
            "distsim.batcher.useful_ratio": (
                consumed / computed if computed else 0.0
            ),
            "core.runtime.useful_step_ratio": (
                outcome["steps"] / simulated if simulated else 0.0
            ),
            "core.search.trials": outcome["trials"],
            "fleet.preemptions": outcome["preemptions"],
            "experiments.cache.hit_ratio": (
                recorder.cache_hits / loads if loads else 0.0
            ),
            "trace.unattributed_s": self_s(ROOT),
        }
    )
    return metrics


def self_check(
    recorder: SpanRecorder, workload: str, metrics: dict, n_ops: int
) -> list[str]:
    """Problems with the instrumentation itself (empty list = sound)."""
    totals = span_totals(recorder)
    problems = []
    for span, used_on in USED_ON.items():
        seen = totals.get(span, {}).get("calls", 0)
        if workload in used_on and seen == 0:
            problems.append(f"{span}: no calls, but {workload} uses it")
        elif workload not in used_on and seen:
            problems.append(f"{span}: {seen} calls, predicted none")
    width_total = (
        metrics["mlcore.grad_batch.width_mean"]
        * metrics["mlcore.grad_batch.calls"]
    )
    if abs(width_total - batcher_slices(recorder)) > 1e-6 * max(width_total, 1):
        problems.append(
            "mlcore.grad_batch.width_mean x calls != batcher computed slices"
        )
    if workload == "fig10-cold":
        for name in ("core.controller.calls", "experiments.cache.store.calls"):
            if metrics[name] != n_ops:
                problems.append(f"{name} = {metrics[name]}, expected {n_ops}")
    searched = workload == "rush-tune"
    for name in ("core.search.trials", "fleet.preemptions"):
        if (metrics[name] > 0) != searched:
            problems.append(f"{name} = {metrics[name]} on {workload}")
    return problems
