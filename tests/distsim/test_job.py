"""Tests for job configs and training plans."""

import pytest

from repro.distsim.job import JobConfig, Segment, TrainingPlan
from repro.errors import ConfigurationError


def job(**overrides) -> JobConfig:
    base = dict(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=1000,
    )
    base.update(overrides)
    return JobConfig(**base)


class TestJobConfig:
    def test_defaults_match_paper_shape(self):
        config = job()
        assert config.batch_size == 128
        assert config.momentum == 0.9

    def test_with_seed(self):
        assert job().with_seed(7).seed == 7
        assert job().with_seed(7).model == "resnet32-sim"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            job(total_steps=0)
        with pytest.raises(ConfigurationError):
            job(batch_size=-1)
        with pytest.raises(ConfigurationError):
            job(base_lr=0.0)
        with pytest.raises(ConfigurationError):
            job(momentum=1.0)
        with pytest.raises(ConfigurationError):
            job(eval_every=0)


class TestSegment:
    def test_known_protocols(self):
        for protocol in ("bsp", "asp", "ssp", "dssp"):
            assert Segment(protocol, 0.5).protocol == protocol

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            Segment("gossip", 0.5)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            Segment("bsp", 1.5)

    def test_undeclared_option_rejected(self):
        """A misspelled knob must fail, not train with the default."""
        with pytest.raises(ConfigurationError, match="lr_multipler"):
            Segment("asp", 0.5, {"lr_multipler": 2.0})
        with pytest.raises(ConfigurationError):
            Segment("asp", 0.5, {"compression": "ternary"})
        assert Segment("asp", 0.5, {"lr_multiplier": 2.0}).options == {
            "lr_multiplier": 2.0
        }


class TestTrainingPlan:
    def test_static_plan(self):
        plan = TrainingPlan.static("asp")
        assert len(plan.segments) == 1
        assert plan.segments[0].protocol == "asp"
        assert plan.n_switches == 0

    def test_static_plan_options(self):
        plan = TrainingPlan.static("ssp", staleness_bound=4)
        assert plan.segments[0].options == {"staleness_bound": 4}

    def test_switch_at_fractions(self):
        plan = TrainingPlan.switch_at(0.0625)
        assert plan.segments[0].fraction == pytest.approx(0.0625)
        assert plan.segments[1].fraction == pytest.approx(0.9375)
        assert plan.n_switches == 1

    def test_switch_at_zero_degenerates_to_second(self):
        plan = TrainingPlan.switch_at(0.0)
        assert len(plan.segments) == 1
        assert plan.segments[0].protocol == "asp"

    def test_switch_at_one_degenerates_to_first(self):
        plan = TrainingPlan.switch_at(1.0)
        assert len(plan.segments) == 1
        assert plan.segments[0].protocol == "bsp"

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            TrainingPlan((Segment("bsp", 0.4), Segment("asp", 0.4)))

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainingPlan(())

    def test_describe(self):
        plan = TrainingPlan.switch_at(0.25)
        assert plan.describe() == "bsp:25% -> asp:75%"

    def test_custom_protocol_pair(self):
        plan = TrainingPlan.switch_at(
            0.1, first="ssp", second="asp", first_options={"staleness_bound": 2}
        )
        assert plan.segments[0].protocol == "ssp"
        assert plan.segments[0].options == {"staleness_bound": 2}
