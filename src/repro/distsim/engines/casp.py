"""Compressed Asynchronous Parallel engine.

QSync-style quantized push (PAPERS.md: arXiv 2407.02327) on top of the
ASP event loop: every gradient a worker pushes to the
:class:`~repro.distsim.parameter_server.ShardedParameterServer` first
passes through an unbiased compressor from
:mod:`repro.mlcore.compression` (default: QSGD quantization), and the
per-batch communication share of the fixed overhead shrinks by the
compression ratio.

Compression noise comes from the session's dedicated lazily-created
``compress/{worker}`` child streams, never from the timing-jitter
stream: uncompressed runs stay bit-identical to the committed golden
hashes, and a casp run's timing and data streams are bit-identical to
the equivalent plain-ASP run's.
"""

from __future__ import annotations

import numpy as np

from repro.distsim.engines.asp import ASPEngine
from repro.distsim.engines.base import StopCondition, TrainingSession
from repro.mlcore.compression import GradientCompressor, make_compressor

__all__ = ["CASPEngine", "COMM_FRACTION", "DEFAULT_COMPRESSION"]

#: Compressor used when the plan does not pick one explicitly.
DEFAULT_COMPRESSION = "qsgd"

#: Share of the per-batch fixed overhead that is gradient/parameter
#: communication (the part gradient compression can shrink).
COMM_FRACTION = 0.5


class CASPEngine(ASPEngine):
    """ASP with compressed pushes on a dedicated RNG stream."""

    name = "casp"
    precision = 50
    synchronous = False
    config_schema = {
        **ASPEngine.config_schema,
        "compression": f"gradient compressor name or instance (default: "
        f"{DEFAULT_COMPRESSION!r})",
    }
    _compressor: GradientCompressor

    def run(
        self,
        session: TrainingSession,
        steps: int,
        options: dict | None = None,
        stop: StopCondition | None = None,
    ) -> str:
        spec = (options or {}).get("compression", DEFAULT_COMPRESSION)
        self._compressor = (
            make_compressor(spec) if isinstance(spec, str) else spec
        )
        return super().run(session, steps, options, stop)

    def _push(
        self, session: TrainingSession, worker: int, grad: np.ndarray,
        lr: float,
    ) -> None:
        grad = self._compressor.compress(grad, session.compression_rng(worker))
        super()._push(session, worker, grad, lr)

    def _comm_saving(self, session: TrainingSession) -> float:
        """Per-batch seconds saved by compressing gradient traffic."""
        ratio = self._compressor.compression_ratio()
        if ratio <= 1.0:
            return 0.0
        return (
            session.timing.batch_overhead * COMM_FRACTION * (1.0 - 1.0 / ratio)
        )
