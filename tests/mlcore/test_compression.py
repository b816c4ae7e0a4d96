"""Tests for gradient compression (TernGrad/QSGD extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.mlcore.compression import (
    IdentityCompressor,
    QSGDCompressor,
    TernaryCompressor,
    make_compressor,
)

gradients = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=64),
    elements=st.floats(min_value=-5, max_value=5),
)


def test_identity_is_noop():
    grad = np.linspace(-1, 1, 7)
    out = IdentityCompressor().compress(grad, np.random.default_rng(0))
    assert np.array_equal(out, grad)
    assert IdentityCompressor().compression_ratio() == 1.0


class TestTernary:
    def test_values_are_ternary(self):
        rng = np.random.default_rng(0)
        grad = np.random.default_rng(1).normal(size=256)
        out = TernaryCompressor().compress(grad, rng)
        scale = np.abs(grad).max()
        unique = set(np.round(np.unique(np.abs(out)) / scale, 12))
        assert unique <= {0.0, 1.0}

    def test_unbiasedness(self):
        rng = np.random.default_rng(0)
        grad = np.array([0.5, -1.0, 0.25, 2.0])
        mean = np.zeros_like(grad)
        n = 4000
        for _ in range(n):
            mean += TernaryCompressor().compress(grad, rng)
        mean /= n
        assert np.allclose(mean, grad, atol=0.08)

    def test_zero_gradient(self):
        out = TernaryCompressor().compress(
            np.zeros(5), np.random.default_rng(0)
        )
        assert np.array_equal(out, np.zeros(5))

    def test_compression_ratio_large(self):
        assert TernaryCompressor().compression_ratio() == pytest.approx(20.0)

    @given(gradients)
    @settings(max_examples=30)
    def test_signs_preserved(self, grad):
        out = TernaryCompressor().compress(grad, np.random.default_rng(0))
        nonzero = out != 0
        assert np.all(np.sign(out[nonzero]) == np.sign(grad[nonzero]))


class TestQSGD:
    def test_unbiasedness(self):
        rng = np.random.default_rng(0)
        grad = np.array([0.5, -1.0, 0.25, 2.0])
        compressor = QSGDCompressor(levels=4)
        mean = np.zeros_like(grad)
        n = 4000
        for _ in range(n):
            mean += compressor.compress(grad, rng)
        mean /= n
        assert np.allclose(mean, grad, atol=0.08)

    def test_more_levels_less_error(self):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        grad = np.random.default_rng(1).normal(size=512)
        coarse = QSGDCompressor(levels=1).compress(grad, rng_a)
        fine = QSGDCompressor(levels=64).compress(grad, rng_b)
        assert np.linalg.norm(fine - grad) < np.linalg.norm(coarse - grad)

    def test_zero_gradient(self):
        out = QSGDCompressor().compress(np.zeros(4), np.random.default_rng(0))
        assert np.array_equal(out, np.zeros(4))

    def test_bits_grow_with_levels(self):
        assert (
            QSGDCompressor(levels=64).bits_per_coordinate()
            > QSGDCompressor(levels=2).bits_per_coordinate()
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QSGDCompressor(levels=0)

    @given(gradients)
    @settings(max_examples=30)
    def test_preserves_dtype_and_shape(self, grad):
        out = QSGDCompressor(levels=4).compress(grad, np.random.default_rng(0))
        assert out.shape == grad.shape
        assert out.dtype == grad.dtype


class TestFactory:
    def test_known_names(self):
        assert make_compressor("identity").name == "identity"
        assert make_compressor("ternary").name == "ternary"
        assert make_compressor("qsgd", levels=8).levels == 8

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_compressor("topk")


class TestEngineIntegration:
    def test_compressed_asp_is_faster_and_still_learns(self):
        from repro.distsim import ClusterSpec, DistributedTrainer, JobConfig
        from repro.distsim.job import Segment, TrainingPlan

        job = JobConfig(
            model="resnet32-sim",
            dataset="cifar10-sim",
            total_steps=640,
            base_lr=0.004,
            eval_every=160,
            seed=0,
        )
        dense = DistributedTrainer(
            job, ClusterSpec(n_workers=8), ambient_noise=False
        ).run(TrainingPlan.static("asp"))
        ternary = DistributedTrainer(
            job, ClusterSpec(n_workers=8), ambient_noise=False
        ).run(
            TrainingPlan(
                (Segment("casp", 1.0, {"compression": "ternary"}),)
            )
        )
        assert ternary.total_time < dense.total_time
        assert not ternary.diverged
        assert ternary.reported_accuracy > 0.4
