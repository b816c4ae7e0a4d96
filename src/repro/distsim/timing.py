"""Compute, synchronization and parameter-server timing models.

All wall-clock behaviour of the simulated cluster comes from here.  The
constants are calibrated per ``(model, gpu)`` pair so that the
simulator's steady-state numbers land near the paper's measurements
(Figs. 4 and 10-13):

* ``resnet32-sim`` on K80: BSP round ~1.4 s (≈715 images/s at n=8) vs
  an ASP push every ~34 ms (≈3800 images/s) — a ~6.5x per-step gap;
* ``resnet50-sim`` on K80: a heavier per-batch compute with a lighter
  relative barrier, giving the paper's much smaller ~1.8x gap;
* 16-worker clusters pay a larger barrier (sub-linear BSP scaling).

The per-batch model is ``overhead + per_sample * batch``, which also
reproduces Fig. 8(a): halving throughput when ASP runs tiny per-worker
batches, and diminishing returns for very large ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "TimingModel",
    "ChunkedLognormalNoise",
    "timing_for",
    "TIMING_REGISTRY",
]

#: Jitter values pre-drawn per refill of a :class:`ChunkedLognormalNoise`.
DEFAULT_NOISE_CHUNK = 64


class ChunkedLognormalNoise:
    """Pre-drawn lognormal jitter stream for one worker.

    Scalar ``Generator.lognormal`` calls dominate the timing model's
    cost in the asynchronous engines (one draw per simulated batch).
    This wrapper draws ``chunk`` values at a time — numpy fills
    vectorized draws from the same underlying stream in the same order,
    so the served sequence is bit-identical to scalar draws — and hands
    them out one by one.

    The wrapper must be the generator's *only* consumer: any direct
    draw from ``rng`` after a refill would observe a stream that has
    already advanced past the buffered values.  Other randomness
    (gradient compression) draws from its own per-worker child stream;
    see ``docs/performance.md``.
    """

    __slots__ = ("_rng", "_sigma", "_chunk", "_buffer", "_index")

    def __init__(
        self,
        rng: np.random.Generator,
        sigma: float,
        chunk: int = DEFAULT_NOISE_CHUNK,
    ):
        if chunk <= 0:
            raise ConfigurationError("noise chunk must be positive")
        self._rng = rng
        self._sigma = sigma
        self._chunk = chunk
        self._buffer = np.empty(0)
        self._index = 0

    def next_jitter(self) -> float:
        """The next lognormal jitter value in the worker's stream."""
        if self._index >= self._buffer.shape[0]:
            self._buffer = self._rng.lognormal(
                0.0, self._sigma, size=self._chunk
            )
            self._index = 0
        value = self._buffer[self._index]
        self._index += 1
        return float(value)


@dataclass(frozen=True)
class TimingModel:
    """Wall-clock cost model for one workload on one GPU type.

    Parameters
    ----------
    batch_overhead:
        Fixed seconds per mini-batch (kernel launch, framework
        overhead, gradient push/pull at steady state).
    per_sample:
        Seconds of GPU compute per training sample.
    sync_base / sync_per_worker:
        Barrier cost of a BSP round: ``sync_base + sync_per_worker*n``.
        This is what makes BSP scale sub-linearly with cluster size.
    ps_apply:
        Parameter-server serialization: minimum spacing between two
        asynchronous update applications.
    jitter_sigma:
        Lognormal sigma of per-batch compute time (cloud noise).
    straggler_rtt_factor:
        Round-trips per batch; multiplies injected per-packet network
        latency (a 10 ms straggler costs ``10ms * rtt_factor`` per
        batch), matching the paper's netem-style latency injection.
    """

    batch_overhead: float
    per_sample: float
    sync_base: float
    sync_per_worker: float
    ps_apply: float
    jitter_sigma: float = 0.08
    straggler_rtt_factor: float = 20.0

    def __post_init__(self):
        if min(self.batch_overhead, self.per_sample, self.ps_apply) <= 0:
            raise ConfigurationError("timing constants must be positive")
        if self.sync_base < 0 or self.sync_per_worker < 0:
            raise ConfigurationError("sync constants must be non-negative")

    def compute_time(
        self,
        batch_size: int,
        rng: np.random.Generator | ChunkedLognormalNoise,
        slow_factor: float = 1.0,
        extra_latency: float = 0.0,
    ) -> float:
        """One worker's wall-clock seconds for one mini-batch.

        ``rng`` is either the worker's raw generator (one scalar
        lognormal draw) or its :class:`ChunkedLognormalNoise` stream
        (same values, amortized draw cost — the engines' hot path).
        ``slow_factor`` scales the whole batch (resource contention);
        ``extra_latency`` is per-packet network latency in seconds,
        multiplied by the per-batch round-trip count.
        """
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if slow_factor < 1.0:
            raise ConfigurationError("slow_factor must be >= 1")
        base = self.batch_overhead + self.per_sample * batch_size
        if isinstance(rng, ChunkedLognormalNoise):
            jitter = rng.next_jitter()
        else:
            jitter = float(rng.lognormal(0.0, self.jitter_sigma))
        return base * jitter * slow_factor + extra_latency * self.straggler_rtt_factor

    def mean_compute_time(self, batch_size: int) -> float:
        """Expected per-batch seconds without noise or stragglers."""
        mean_jitter = float(np.exp(0.5 * self.jitter_sigma**2))
        return (self.batch_overhead + self.per_sample * batch_size) * mean_jitter

    def sync_overhead(self, n_workers: int) -> float:
        """Per-round barrier cost (gradient aggregation + broadcast)."""
        if n_workers <= 0:
            raise ConfigurationError("n_workers must be positive")
        return self.sync_base + self.sync_per_worker * n_workers

    def bsp_round_time(
        self,
        per_worker_times: list[float],
        n_workers: int,
    ) -> float:
        """Barrier semantics: slowest worker plus synchronization cost."""
        if not per_worker_times:
            raise ConfigurationError("need at least one worker time")
        return max(per_worker_times) + self.sync_overhead(n_workers)


# Calibration notes (see DESIGN.md section 5 and EXPERIMENTS.md):
# constants are fit to the paper's reported throughput and per-step
# times, not derived from first principles; the two workloads are
# calibrated independently because the paper's own measurements imply
# different barrier/compute ratios for ResNet32 and ResNet50.
TIMING_REGISTRY: dict[tuple[str, str], TimingModel] = {
    ("resnet32-sim", "k80"): TimingModel(
        batch_overhead=0.153,
        per_sample=0.0009,
        sync_base=0.32,
        sync_per_worker=0.102,
        ps_apply=0.004,
    ),
    ("resnet50-sim", "k80"): TimingModel(
        batch_overhead=0.22,
        per_sample=0.00126,
        sync_base=0.02,
        sync_per_worker=0.010,
        ps_apply=0.012,
    ),
}


def timing_for(model_name: str, gpu: str = "k80") -> TimingModel:
    """Look up the calibrated timing model for ``(model, gpu)``."""
    key = (model_name, gpu)
    if key not in TIMING_REGISTRY:
        raise ConfigurationError(
            f"no timing calibration for {key}; known: {sorted(TIMING_REGISTRY)}"
        )
    return TIMING_REGISTRY[key]
