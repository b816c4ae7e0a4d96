"""Job configuration and training plans.

A :class:`JobConfig` is the "training script" the paper assumes deep
learning practitioners provide (Section III): workload, cluster,
initial hyper-parameters.  A :class:`TrainingPlan` is an ordered list
of :class:`Segment` — protocol plus the fraction of the step budget it
covers — which is the object Sync-Switch's policies produce and the
trainer executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["JobConfig", "Segment", "TrainingPlan"]


@dataclass(frozen=True)
class JobConfig:
    """User-supplied training-job description.

    ``base_lr``/``batch_size``/``momentum`` are the *per-worker* values
    (the paper's ``eta``/``B``/``m``); the configuration policy derives
    protocol-specific values from them (``n*B``/``n*eta`` for BSP).
    """

    model: str
    dataset: str
    total_steps: int
    batch_size: int = 128
    base_lr: float = 0.004
    momentum: float = 0.9
    eval_every: int = 200
    loss_log_every: int = 100
    divergence_threshold: float = 50.0
    seed: int = 0

    def __post_init__(self):
        if self.total_steps <= 0:
            raise ConfigurationError("total_steps must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.base_lr <= 0:
            raise ConfigurationError("base_lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        if self.eval_every <= 0 or self.loss_log_every <= 0:
            raise ConfigurationError("logging cadences must be positive")

    def with_seed(self, seed: int) -> "JobConfig":
        """Copy of this job with a different seed (repeated runs)."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class Segment:
    """One protocol phase of a plan.

    ``fraction`` is the share of the job's step budget this segment
    covers.  ``options`` carries protocol-specific knobs (e.g. the SSP
    staleness bound); every key must be declared in the engine's
    ``config_schema``, so a misspelled knob fails instead of being
    silently ignored.
    """

    protocol: str
    fraction: float
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        # Local import: the engine registry is the single source of
        # protocol names, and the engines package imports this module.
        from repro.distsim.engines import engine_spec, known_protocols

        if self.protocol not in known_protocols():
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; "
                f"known: {known_protocols()}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError("fraction must be in [0, 1]")
        schema = engine_spec(self.protocol).config_schema
        unknown = sorted(set(self.options) - set(schema))
        if unknown:
            raise ConfigurationError(
                f"{self.protocol} does not understand option(s) {unknown}; "
                f"declared: {sorted(schema)}"
            )


@dataclass(frozen=True)
class TrainingPlan:
    """Ordered protocol segments covering the whole step budget."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ConfigurationError("a plan needs at least one segment")
        total = sum(segment.fraction for segment in self.segments)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"segment fractions must sum to 1, got {total}"
            )

    @classmethod
    def static(cls, protocol: str, **options) -> "TrainingPlan":
        """A single-protocol plan (the paper's static BSP/ASP baselines)."""
        return cls((Segment(protocol, 1.0, options),))

    @classmethod
    def switch_at(
        cls,
        switch_fraction: float,
        first: str = "bsp",
        second: str = "asp",
        first_options: dict | None = None,
        second_options: dict | None = None,
    ) -> "TrainingPlan":
        """A two-phase plan: ``first`` until ``switch_fraction``, then ``second``.

        ``switch_at(0.0625)`` is the paper's P1 policy (6.25% BSP then
        ASP); 0.0 degenerates to static ``second`` and 1.0 to static
        ``first``.
        """
        if not 0.0 <= switch_fraction <= 1.0:
            raise ConfigurationError("switch_fraction must be in [0, 1]")
        if switch_fraction == 0.0:
            return cls.static(second, **(second_options or {}))
        if switch_fraction == 1.0:
            return cls.static(first, **(first_options or {}))
        return cls(
            (
                Segment(first, switch_fraction, first_options or {}),
                Segment(second, 1.0 - switch_fraction, second_options or {}),
            )
        )

    @classmethod
    def schedule(
        cls,
        protocols: "Sequence[str]",
        fractions: "Sequence[float]",
        options: "Sequence[dict | None] | None" = None,
    ) -> "TrainingPlan":
        """An N-segment plan from aligned protocol/fraction sequences.

        Zero-fraction segments are dropped — those are the degenerate
        boundaries a schedule search pins at an interval endpoint, not
        an error.
        """
        if len(protocols) != len(fractions):
            raise ConfigurationError(
                "protocols and fractions must have the same length, got "
                f"{len(protocols)} and {len(fractions)}"
            )
        if options is not None and len(options) != len(protocols):
            raise ConfigurationError(
                "options must align with protocols when given"
            )
        segments = tuple(
            Segment(
                protocol,
                fraction,
                dict(options[index] or {}) if options is not None else {},
            )
            for index, (protocol, fraction) in enumerate(
                zip(protocols, fractions)
            )
            if fraction > 0.0
        )
        return cls(segments)

    @property
    def n_switches(self) -> int:
        """Number of protocol transitions in the plan."""
        return len(self.segments) - 1

    def describe(self) -> str:
        """Human-readable plan summary, e.g. ``bsp:6.2% -> asp:93.8%``."""
        return " -> ".join(
            f"{segment.protocol}:{segment.fraction * 100:g}%"
            for segment in self.segments
        )
