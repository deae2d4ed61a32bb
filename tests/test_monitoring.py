"""Unit tests for prediction drift monitoring."""

import numpy as np
import pytest

from repro.exceptions import PipelineError
from repro.tasq.monitoring import PredictionMonitor


class TestPredictionMonitor:
    def test_rolling_error(self):
        monitor = PredictionMonitor(window=10, min_observations=2)
        monitor.observe(110, 100)  # 10%
        monitor.observe(130, 100)  # 30%
        assert monitor.rolling_median_ape == pytest.approx(20.0)

    def test_empty_monitor(self):
        monitor = PredictionMonitor()
        assert monitor.rolling_median_ape is None
        assert not monitor.needs_retraining

    def test_window_evicts_old_errors(self):
        monitor = PredictionMonitor(window=3, min_observations=2)
        for _ in range(3):
            monitor.observe(200, 100)  # 100% errors
        for _ in range(3):
            monitor.observe(100, 100)  # perfect, pushes the bad ones out
        assert monitor.rolling_median_ape == pytest.approx(0.0)

    def test_signal_requires_patience(self):
        monitor = PredictionMonitor(
            window=10, error_threshold=20.0, patience=5, min_observations=2
        )
        # The first observation cannot breach (below min_observations),
        # so five observations give four consecutive breaches.
        for _ in range(5):
            monitor.observe(200, 100)
        assert not monitor.needs_retraining
        monitor.observe(200, 100)
        assert monitor.needs_retraining

    def test_recovery_resets_breach_count(self):
        monitor = PredictionMonitor(
            window=4, error_threshold=20.0, patience=3, min_observations=2
        )
        monitor.observe(200, 100)
        monitor.observe(200, 100)
        # Two good observations drag the window median back down.
        monitor.observe(100, 100)
        monitor.observe(101, 100)
        monitor.observe(100, 100)
        assert not monitor.needs_retraining
        assert monitor.snapshot().consecutive_breaches == 0

    def test_no_signal_before_min_observations(self):
        monitor = PredictionMonitor(
            window=100, error_threshold=1.0, patience=1, min_observations=50
        )
        for _ in range(49):
            monitor.observe(500, 100)
        assert not monitor.needs_retraining

    def test_reset(self):
        monitor = PredictionMonitor(
            window=5, error_threshold=10.0, patience=1, min_observations=2
        )
        for _ in range(5):
            monitor.observe(200, 100)
        assert monitor.needs_retraining
        monitor.reset()
        assert not monitor.needs_retraining
        assert monitor.rolling_median_ape is None

    def test_validation(self):
        with pytest.raises(PipelineError):
            PredictionMonitor(window=1)
        with pytest.raises(PipelineError):
            PredictionMonitor(error_threshold=0)
        with pytest.raises(PipelineError):
            PredictionMonitor(patience=0)
        for predicted, actual in (
            (0, 10), (10, np.nan), (10, np.inf), (np.nan, 10)
        ):
            with pytest.raises(PipelineError):
                PredictionMonitor().observe(predicted, actual)

    def test_end_to_end_with_model(self, dataset):
        """Monitor a real model: in-distribution OK, drifted world breaches."""
        from repro.models import NNPCCModel, TrainConfig

        model = NNPCCModel(train_config=TrainConfig(epochs=20), seed=0)
        model.fit(dataset)
        predicted = model.predict_runtime_at(
            dataset, dataset.observed_tokens()
        )
        actual = dataset.observed_runtimes()

        monitor = PredictionMonitor(
            window=50, error_threshold=60.0, patience=10, min_observations=10
        )
        for p, a in zip(predicted, actual):
            monitor.observe(float(p), float(a))
        assert not monitor.needs_retraining  # in-distribution

        # A drifted world: inputs grew 4x, run times with them.
        for p, a in zip(predicted, actual * 4.0):
            monitor.observe(float(p), float(a))
        assert monitor.needs_retraining
