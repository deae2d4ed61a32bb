"""Property-based tests: PCC fitting, autograd, and model invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.autograd import Tensor
from repro.ml.gbm import BinMapper
from repro.pcc import PowerLawPCC, fit_power_law, optimal_tokens

finite_floats = st.floats(min_value=-50, max_value=50,
                          allow_nan=False, allow_infinity=False)


class TestPowerLawProperties:
    @given(st.floats(min_value=-2.0, max_value=-0.01),
           st.floats(min_value=0.1, max_value=1e5))
    def test_fit_recovers_exact_parameters(self, a, b):
        pcc = PowerLawPCC(a=a, b=b)
        tokens = np.array([2.0, 5.0, 17.0, 60.0, 200.0])
        fitted = fit_power_law(tokens, np.asarray(pcc.runtime(tokens)))
        assert np.isclose(fitted.a, a, rtol=1e-6, atol=1e-9)
        assert np.isclose(fitted.b, b, rtol=1e-6)

    @given(st.floats(min_value=-2.0, max_value=0.0),
           st.floats(min_value=0.1, max_value=1e5),
           st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=1.0, max_value=1e4))
    def test_non_increasing_curves_are_non_increasing(self, a, b, t1, t2):
        pcc = PowerLawPCC(a=a, b=b)
        low, high = sorted([t1, t2])
        assert pcc.runtime(low) >= pcc.runtime(high) - 1e-9

    @given(st.floats(min_value=-2.0, max_value=-0.01),
           st.floats(min_value=0.001, max_value=0.2))
    def test_optimal_tokens_matches_threshold(self, a, threshold):
        pcc = PowerLawPCC(a=a, b=100.0)
        tokens = optimal_tokens(pcc, improvement_threshold=threshold)
        # At the chosen allocation the marginal gain is still >= threshold
        # (up to the integer floor).
        assert pcc.relative_improvement(tokens) >= threshold or tokens == 1

    @given(st.floats(min_value=-2.0, max_value=-0.01),
           st.floats(min_value=0.1, max_value=1e4))
    def test_log_parameter_roundtrip(self, a, b):
        pcc = PowerLawPCC(a=a, b=b)
        restored = PowerLawPCC.from_log_parameters(*pcc.log_parameters())
        assert np.isclose(restored.a, pcc.a)
        assert np.isclose(restored.b, pcc.b, rtol=1e-12)


class TestAutogradProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=20))
    def test_sum_gradient_is_ones(self, values):
        t = Tensor(np.array(values), requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, 1.0)

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    def test_linear_gradient_is_coefficient(self, values):
        t = Tensor(np.array(values), requires_grad=True)
        (t * 3.5).sum().backward()
        assert np.allclose(t.grad, 3.5)

    @given(st.lists(finite_floats, min_size=2, max_size=12))
    def test_softplus_always_positive_and_above_relu(self, values):
        t = Tensor(np.array(values))
        softplus = t.softplus().data
        relu = t.relu().data
        assert np.all(softplus > 0)
        assert np.all(softplus >= relu - 1e-12)


class TestBinMapperProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=3, max_size=200))
    @settings(max_examples=50)
    def test_binning_preserves_order(self, values):
        column = np.array(values).reshape(-1, 1)
        binned = BinMapper().fit_transform(column)
        order = np.argsort(column[:, 0], kind="stable")
        sorted_bins = binned[order, 0].astype(int)
        assert np.all(np.diff(sorted_bins) >= 0)
