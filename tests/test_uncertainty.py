"""The uncertainty layer: pinball loss, intervals, risk, and drift.

Every numeric threshold asserted here (quantiles 0.1/0.5/0.9, coverage
alarm below 0.65, held-out coverage band [0.7, 0.95]) is the one
specified in ``docs/uncertainty.md`` — keep the two in sync.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    FittingError,
    ModelError,
    PipelineError,
)
from repro.ml.gbm import (
    BoosterParams,
    GradientBoostingRegressor,
    PinballLoss,
)
from repro.models import NNPCCModel, TrainConfig, XGBoostPL
from repro.pcc import PowerLawPCC
from repro.pcc.intervals import (
    INTERVAL_QUANTILES,
    PCCInterval,
    pcc_at_risk,
    tokens_within_slowdown_at_risk,
)
from repro.pcc.optimal import tokens_for_slowdown
from repro.tasq.monitoring import PredictionMonitor
from repro.tasq.pipeline import ScoringPipeline
from repro.tasq.price_performance import cheapest_within_deadline

TOKEN_GRID = np.geomspace(1.0, 2048.0, 60)


def _pinball(quantile: float, y: np.ndarray, raw: np.ndarray) -> np.ndarray:
    u = np.log(y) - raw
    return np.maximum(quantile * u, (quantile - 1.0) * u)


class TestPinballLoss:
    @pytest.mark.parametrize("quantile", INTERVAL_QUANTILES)
    def test_gradient_matches_finite_differences(self, quantile):
        rng = np.random.default_rng(42)
        y = rng.lognormal(mean=2.0, sigma=1.0, size=256)
        raw = rng.normal(loc=2.0, scale=1.5, size=256)
        # The loss is non-differentiable on the kink raw == log(y);
        # compare only where the central difference straddles one side.
        eps = 1e-6
        smooth = np.abs(np.log(y) - raw) > 1e-3
        assert smooth.sum() > 200
        grad, hess = PinballLoss(quantile).gradients(y, raw)
        numeric = (
            _pinball(quantile, y, raw + eps) - _pinball(quantile, y, raw - eps)
        ) / (2.0 * eps)
        assert np.allclose(grad[smooth], numeric[smooth], atol=1e-5)
        assert np.all(hess == 1.0)

    def test_base_score_is_log_quantile(self):
        rng = np.random.default_rng(3)
        y = rng.lognormal(size=500)
        for quantile in INTERVAL_QUANTILES:
            assert PinballLoss(quantile).base_score(y) == pytest.approx(
                float(np.quantile(np.log(y), quantile))
            )

    def test_rejects_bad_quantile_and_targets(self):
        for quantile in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(ModelError):
                PinballLoss(quantile)
        with pytest.raises(ModelError):
            PinballLoss(0.5).validate_targets(np.array([1.0, 0.0]))

    def test_booster_accepts_pinball_objective(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(120, 2))
        y = np.exp(x[:, 0]) * rng.lognormal(sigma=0.2, size=120)
        params = BoosterParams(n_estimators=15, max_depth=3)
        for objective in (PinballLoss(0.5), PinballLoss(0.9)):
            model = GradientBoostingRegressor(params, objective=objective)
            preds = model.fit(x, y).predict(x)
            assert np.all(preds > 0)


class TestCoverageCalibration:
    """Held-out q10–q90 coverage of pinball heads lands in [0.7, 0.95]."""

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_heldout_coverage_in_band(self, seed):
        rng = np.random.default_rng(seed)
        n_train, n_test = 400, 200
        x = rng.uniform(0.0, 4.0, size=(n_train + n_test, 3))
        # Heteroscedastic positive response: multiplicative lognormal
        # noise whose spread grows with the third feature.
        signal = 5.0 * np.exp(0.6 * x[:, 0] - 0.2 * x[:, 1])
        sigma = 0.3 * (0.5 + x[:, 2] / 4.0)
        y = signal * rng.lognormal(mean=0.0, sigma=sigma)

        params = BoosterParams(n_estimators=60, max_depth=3)
        heads = {
            quantile: GradientBoostingRegressor(
                params, objective=PinballLoss(quantile), seed=0
            ).fit(x[:n_train], y[:n_train])
            for quantile in (INTERVAL_QUANTILES[0], INTERVAL_QUANTILES[2])
        }
        lo = heads[INTERVAL_QUANTILES[0]].predict(x[n_train:])
        hi = heads[INTERVAL_QUANTILES[2]].predict(x[n_train:])
        coverage = float(np.mean((lo <= y[n_train:]) & (y[n_train:] <= hi)))
        assert 0.7 <= coverage <= 0.95


class TestPCCInterval:
    def test_constructor_rejects_crossing_curves(self):
        mid = PowerLawPCC(a=-0.5, b=100.0)
        with pytest.raises(FittingError):
            PCCInterval(
                lo=PowerLawPCC(a=-0.2, b=100.0),
                mid=mid,
                hi=PowerLawPCC(a=-0.9, b=100.0),
            )
        with pytest.raises(FittingError):
            PCCInterval(
                lo=PowerLawPCC(a=-0.5, b=150.0),
                mid=mid,
                hi=PowerLawPCC(a=-0.5, b=120.0),
            )

    def test_degenerate(self):
        mid = PowerLawPCC(a=-0.5, b=100.0)
        interval = PCCInterval.degenerate(mid)
        assert interval.is_degenerate
        lo, mid_rt, hi = interval.runtime_interval(16)
        assert lo == mid_rt == hi == pytest.approx(mid.runtime(16))


@pytest.fixture()
def interval():
    return PCCInterval(
        lo=PowerLawPCC(a=-0.6, b=80.0),
        mid=PowerLawPCC(a=-0.5, b=100.0),
        hi=PowerLawPCC(a=-0.4, b=140.0),
    )


class TestRiskKnob:
    def test_endpoints(self, interval):
        for risk, curve in (
            (0.5, interval.mid),
            (INTERVAL_QUANTILES[2], interval.hi),
            (INTERVAL_QUANTILES[0], interval.lo),
        ):
            at_risk = pcc_at_risk(interval, risk)
            assert at_risk.a == pytest.approx(curve.a)
            assert at_risk.b == pytest.approx(curve.b, rel=1e-9)

    def test_monotone_in_risk(self, interval):
        runtimes = [
            pcc_at_risk(interval, risk).runtime(64.0)
            for risk in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)
        ]
        assert runtimes == sorted(runtimes)

    def test_extrapolation_clamps_exponent(self):
        interval = PCCInterval(
            lo=PowerLawPCC(a=-0.9, b=80.0),
            mid=PowerLawPCC(a=-0.5, b=100.0),
            hi=PowerLawPCC(a=-0.1, b=140.0),
        )
        extreme = pcc_at_risk(interval, 0.999)
        assert extreme.a <= 0.0
        assert extreme.is_non_increasing

    def test_rejects_out_of_range_risk(self, interval):
        for risk in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(FittingError):
                pcc_at_risk(interval, risk)

    def test_risk_floor_strengthens_point_floor(self, interval):
        point = tokens_for_slowdown(interval.mid, 200.0, 0.1)
        at_median = tokens_within_slowdown_at_risk(interval, 0.5, 200.0, 0.1)
        at_q90 = tokens_within_slowdown_at_risk(interval, 0.9, 200.0, 0.1)
        assert at_median is not None and at_q90 is not None
        assert min(at_median, 200) == point
        assert at_q90 >= at_median
        # At the returned allocation the q90 run time meets the budget.
        bound = 1.1 * interval.mid.runtime(200.0)
        assert interval.hi.runtime(at_q90) <= bound * (1 + 1e-9)

    def test_infeasible_returns_none(self):
        flat_hi = PCCInterval(
            lo=PowerLawPCC(a=-0.5, b=50.0),
            mid=PowerLawPCC(a=0.0, b=100.0),
            hi=PowerLawPCC(a=0.0, b=10_000.0),
        )
        assert (
            tokens_within_slowdown_at_risk(flat_hi, 0.9, 100.0, 0.1) is None
        )

    def test_deadline_search_at_risk(self, interval):
        deadline = interval.mid.runtime(64.0)
        point = cheapest_within_deadline(interval.mid, deadline)
        risky = cheapest_within_deadline(
            interval.mid, deadline, interval=interval, risk=0.9
        )
        assert point is not None and risky is not None
        assert risky >= point
        assert interval.hi.runtime(risky) <= deadline * (1 + 1e-9)

    def test_deadline_search_requires_interval_with_risk(self, interval):
        with pytest.raises(PipelineError):
            cheapest_within_deadline(interval.mid, 10.0, risk=0.9)


class TestModelIntervals:
    @pytest.fixture(scope="class")
    def heads_model(self, dataset):
        return XGBoostPL(seed=0, quantile_heads=True).fit(dataset)

    def test_point_path_unchanged_by_heads(self, dataset, heads_model):
        plain = XGBoostPL(seed=0).fit(dataset)
        tokens = np.full(len(dataset), 100.0)
        np.testing.assert_array_equal(
            plain.predict_runtime_at(dataset, tokens),
            heads_model.predict_runtime_at(dataset, tokens),
        )

    def test_predict_interval_ordered(self, dataset, heads_model):
        intervals = heads_model.predict_pcc_intervals(dataset)
        assert not all(iv.is_degenerate for iv in intervals)
        lo, mid, hi = np.array(
            [iv.runtime_interval(40.0) for iv in intervals]
        ).T
        assert np.all(lo <= mid) and np.all(mid <= hi)
        assert np.any(lo < hi)  # genuinely non-degenerate somewhere

    def test_predict_pcc_intervals_ordered(self, dataset, heads_model):
        intervals = heads_model.predict_pcc_intervals(dataset)
        assert intervals is not None and len(intervals) == len(dataset)
        for iv in intervals:
            assert isinstance(iv, PCCInterval)
            lo = iv.lo.runtime(TOKEN_GRID)
            hi = iv.hi.runtime(TOKEN_GRID)
            mid = iv.mid.runtime(TOKEN_GRID)
            assert np.all(lo <= mid * (1 + 1e-9))
            assert np.all(mid <= hi * (1 + 1e-9))
        assert any(not iv.is_degenerate for iv in intervals)

    def test_plain_model_yields_degenerate_intervals(self, dataset):
        plain = XGBoostPL(seed=0).fit(dataset)
        intervals = plain.predict_pcc_intervals(dataset)
        assert intervals is not None
        assert all(iv.is_degenerate for iv in intervals)

    def test_nn_ensemble_intervals(self, dataset):
        config = TrainConfig(epochs=5)
        solo = NNPCCModel(train_config=config, seed=0).fit(dataset)
        ensemble = NNPCCModel(
            train_config=config, seed=0, ensemble_size=3
        ).fit(dataset)
        # The primary member is byte-identical with or without the
        # extra members (their seeds are independent streams).
        np.testing.assert_array_equal(
            solo.predict_parameters(dataset),
            ensemble.predict_parameters(dataset),
        )
        solo_intervals = solo.predict_pcc_intervals(dataset)
        assert all(iv.is_degenerate for iv in solo_intervals)
        intervals = ensemble.predict_pcc_intervals(dataset)
        assert not all(iv.is_degenerate for iv in intervals)
        lo, mid, hi = np.array(
            [iv.runtime_interval(40.0) for iv in intervals]
        ).T
        assert np.all(lo <= mid) and np.all(mid <= hi)
        for iv in intervals:
            lo_rt = iv.lo.runtime(TOKEN_GRID)
            hi_rt = iv.hi.runtime(TOKEN_GRID)
            assert np.all(lo_rt <= hi_rt * (1 + 1e-9))
            assert iv.hi.a <= 0.0

    def test_nn_rejects_bad_ensemble_size(self):
        with pytest.raises(ModelError):
            NNPCCModel(ensemble_size=0)


class TestRiskyPipeline:
    @pytest.fixture(scope="class")
    def heads_model(self, dataset):
        return XGBoostPL(seed=0, quantile_heads=True).fit(dataset)

    def test_recommendations_carry_intervals(
        self, heads_model, workload_jobs
    ):
        scorer = ScoringPipeline(heads_model, risk=0.9)
        job = workload_jobs[0]
        rec = scorer.score(job.plan, job.requested_tokens)
        assert rec.risk == 0.9
        assert rec.pcc_interval is not None
        lo, mid, hi = rec.runtime_interval_at(rec.optimal_tokens)
        assert lo <= mid <= hi

    def test_risk_strengthens_slo_floor(self, heads_model, workload_jobs):
        jobs = workload_jobs[:10]
        plans = [j.plan for j in jobs]
        requested = [j.requested_tokens for j in jobs]
        point = ScoringPipeline(heads_model, max_slowdown=0.05)
        risky = ScoringPipeline(heads_model, max_slowdown=0.05, risk=0.9)
        for p_rec, r_rec in zip(
            point.score_batch(plans, requested),
            risky.score_batch(plans, requested),
        ):
            assert r_rec.optimal_tokens >= p_rec.optimal_tokens

    def test_rejects_out_of_range_risk(self, heads_model):
        for risk in (0.0, 1.0, -1.0):
            with pytest.raises(PipelineError):
                ScoringPipeline(heads_model, risk=risk)


class TestCoverageDrift:
    def _monitor(self, **overrides):
        defaults = dict(window=40, patience=5, min_observations=10)
        defaults.update(overrides)
        return PredictionMonitor(**defaults)

    def test_fires_on_coverage_collapse_with_accurate_point(self):
        monitor = self._monitor()
        # Calibrated regime: actuals inside the band, APE zero.
        for _ in range(20):
            monitor.observe(10.0, 10.0, interval=(8.0, 12.0))
        assert not monitor.needs_retraining
        # Shift: point predictions stay perfect (APE 0) but the actual
        # run time falls outside the predicted band every time — only
        # the coverage rule can see this.
        for _ in range(30):
            monitor.observe(14.0, 14.0, interval=(8.0, 12.0))
        assert monitor.needs_retraining
        snapshot = monitor.snapshot()
        assert snapshot.breach_reason == "coverage"
        assert snapshot.rolling_coverage is not None
        assert snapshot.rolling_coverage < 0.65  # 0.8 - 0.15, the alarm

    def test_quiet_on_null(self):
        monitor = self._monitor()
        rng = np.random.default_rng(11)
        for _ in range(200):
            actual = float(rng.uniform(9.0, 11.0))
            monitor.observe(10.0, actual, interval=(8.5, 11.5))
        assert not monitor.needs_retraining
        assert monitor.snapshot().breach_reason is None
        assert monitor.rolling_coverage == 1.0

    def test_needs_min_interval_observations(self):
        monitor = self._monitor(min_observations=25)
        for _ in range(20):  # below min_observations: no alarm possible
            monitor.observe(10.0, 10.0, interval=(11.0, 12.0))
        assert not monitor.needs_retraining

    def test_point_only_callers_unaffected(self):
        monitor = self._monitor()
        for _ in range(100):
            monitor.observe(10.0, 10.1)
        assert monitor.rolling_coverage is None
        assert not monitor.needs_retraining

    def test_rejects_bad_intervals_and_params(self):
        monitor = self._monitor()
        with pytest.raises(PipelineError):
            monitor.observe(10.0, 10.0, interval=(0.0, 5.0))
        with pytest.raises(PipelineError):
            monitor.observe(10.0, 10.0, interval=(6.0, 5.0))
        with pytest.raises(PipelineError):
            PredictionMonitor(coverage_target=1.5)
        with pytest.raises(PipelineError):
            PredictionMonitor(coverage_target=0.8, coverage_tolerance=0.9)

    def test_reset_clears_coverage_state(self):
        monitor = self._monitor()
        for _ in range(30):
            monitor.observe(10.0, 20.0, interval=(8.0, 12.0))
        monitor.reset()
        assert monitor.rolling_coverage is None
        assert not monitor.needs_retraining

