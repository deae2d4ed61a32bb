"""Feed-forward NN model: aggregated job features -> PCC parameters.

Table 2's "NN" row: a multi-layer fully connected network over the
aggregated job-level features, predicting the two power-law parameters
with a sign-constrained head so the predicted PCC is monotonically
non-increasing by construction (Section 4.4/4.5).

With hidden layers of 32 and 16 units (:data:`HIDDEN_SIZES`) and the
51-wide job feature vector, the network has ~2.2K parameters — matching
the paper's Table 7 NN figure of 2,216.

**Ensemble intervals** (opt-in, ``ensemble_size > 1``): the model trains
``ensemble_size - 1`` additional members identical in architecture,
loss, and data but seeded differently, and reads prediction uncertainty
off the member spread — the standard deep-ensemble recipe. The primary
member's training is byte-identical with or without the ensemble (each
member draws from its own seeded streams), so point predictions and
PCC parameters never change when intervals are enabled; see
``docs/uncertainty.md``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.features.encoders import StandardScaler, TargetScaler
from repro.ml import compiled as compiled_kernels
from repro.ml.autograd import Tensor
from repro.ml.compiled import FusedMLP, compile_network
from repro.ml.losses import CompositeLoss, LF2
from repro.ml.nn import Dense, PCCParameterHead, ReLU, Sequential
from repro.models.base import PCCPredictor
from repro.models.dataset import PCCDataset
from repro.models.training import (
    TrainConfig,
    loss_inputs,
    train_parameter_model,
)
from repro.pcc.curve import PowerLawPCC
from repro.pcc.intervals import _Z_HI, PCCInterval

__all__ = ["NNPCCModel"]

#: Seed stride between ensemble members (prime, to keep the per-member
#: network-init and minibatch streams disjoint from the primary's).
_MEMBER_SEED_STRIDE = 7919
#: Widths of the hidden layers (Table 7's 2,216-parameter network).
HIDDEN_SIZES = (32, 16)


class NNPCCModel(PCCPredictor):
    """MLP trend model with guaranteed non-increasing PCCs."""

    name = "NN"
    guarantees_monotonic = True
    #: Cleared for good when the fuser rejects the network; inference
    #: then stays on the autograd stack.
    _fusable = True

    def __init__(
        self,
        loss: CompositeLoss | None = None,
        train_config: TrainConfig | None = None,
        xgb_model: PCCPredictor | None = None,
        seed: int = 0,
        ensemble_size: int = 1,
    ) -> None:
        super().__init__()
        if ensemble_size < 1:
            raise ModelError("ensemble_size must be at least 1")
        self.loss = loss or LF2()
        self.train_config = train_config or TrainConfig()
        self.xgb_model = xgb_model
        self._seed = seed
        self._scaler = StandardScaler()
        self._target_scaler = TargetScaler()
        self._network: Sequential | None = None
        #: Fused float32 forward pass that inference routes through
        #: (:class:`~repro.ml.compiled.FusedMLP`); results agree with the
        #: autograd reference to float32 round-off.
        self._compiled: FusedMLP | None = None
        self.ensemble_size = ensemble_size
        self._members: list[Sequential] = []
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------------
    def _build_network(self, in_features: int, seed: int) -> Sequential:
        rng = np.random.default_rng(seed)
        modules = []
        previous = in_features
        for size in HIDDEN_SIZES:
            modules.append(Dense(previous, size, rng))
            modules.append(ReLU())
            previous = size
        modules.append(PCCParameterHead(previous, rng))
        return Sequential(*modules)

    def fit(self, dataset: PCCDataset) -> "NNPCCModel":
        features = self._scaler.fit_transform(dataset.job_feature_matrix())
        inputs = loss_inputs(
            dataset, self.loss, self._target_scaler, self.xgb_model
        )

        self._network = self._build_network(features.shape[1], self._seed)
        self._compiled = None  # refit invalidates the fused forward pass

        def forward(batch: np.ndarray) -> Tensor:
            return self._network(Tensor(features[batch]))

        self.loss_history_ = train_parameter_model(
            forward,
            self._network.parameters(),
            self.loss,
            inputs,
            num_examples=len(dataset),
            config=self.train_config,
            rng=np.random.default_rng(self._seed + 1),
        )

        # Extra ensemble members train after (and independently of) the
        # primary, so its fit is byte-identical with or without them.
        self._members = []
        for k in range(1, self.ensemble_size):
            member_seed = self._seed + _MEMBER_SEED_STRIDE * k
            member = self._build_network(features.shape[1], member_seed)

            def member_forward(batch: np.ndarray, net=member) -> Tensor:
                return net(Tensor(features[batch]))

            train_parameter_model(
                member_forward,
                member.parameters(),
                self.loss,
                inputs,
                num_examples=len(dataset),
                config=self.train_config,
                rng=np.random.default_rng(member_seed + 1),
            )
            self._members.append(member)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def predict_parameters(self, dataset: PCCDataset) -> np.ndarray:
        """Predicted ``(a, log b)`` per example.

        Served by the fused float32 forward pass (compiled lazily on
        first predict, dropped on refit) unless compiled inference is
        disabled; the sign guarantee ``a <= 0`` holds on both paths.
        """
        self._check_fitted()
        assert self._network is not None
        features = self._scaler.transform(dataset.job_feature_matrix())
        if self._fusable and compiled_kernels.is_enabled():
            try:
                return self.fused_network().predict(features)
            except ModelError:
                # Network contains modules the fuser does not understand
                # (e.g. a subclass override): stay on autograd for good.
                self._fusable = False
        return self._network(Tensor(features)).numpy()

    def fused_network(self) -> FusedMLP:
        """The lazily compiled forward pass (compiles on first use)."""
        self._check_fitted()
        assert self._network is not None
        if self._compiled is None:
            self._compiled = compile_network(self._network)
        return self._compiled

    # ------------------------------------------------------------------
    def _member_parameters(self, dataset: PCCDataset) -> np.ndarray:
        """``(ensemble_size, M, 2)`` per-member ``(a, log b)``.

        Members are evaluated on the autograd path (they are few and
        small); the primary member keeps its usual compiled route.
        """
        self._check_fitted()
        assert self._network is not None
        features = self._scaler.transform(dataset.job_feature_matrix())
        stacks = [self.predict_parameters(dataset)]
        stacks += [net(Tensor(features)).numpy() for net in self._members]
        return np.stack(stacks)

    def predict_pcc_intervals(
        self, dataset: PCCDataset
    ) -> list[PCCInterval] | None:
        """Per-example parameter intervals from the ensemble spread.

        Each log parameter is offset by ``ndtri(0.9)`` times its
        cross-member standard deviation around the primary member's
        value; the resulting curves are elementwise ordered in
        ``(a, log b)`` by construction, so they form a valid
        :class:`PCCInterval` directly. Without extra members, falls
        back to the base degenerate intervals.
        """
        if not self._members:
            return super().predict_pcc_intervals(dataset)
        stacked = self._member_parameters(dataset)
        mid_params = stacked[0]
        spread = _Z_HI * stacked.std(axis=0)
        intervals = []
        for (a_mid, lb_mid), (a_sd, lb_sd) in zip(mid_params, spread):
            # Larger a and larger log b both mean slower: hi adds both.
            hi_a = min(a_mid + a_sd, 0.0)  # keep the monotone guarantee
            lo_a = a_mid - a_sd
            intervals.append(
                PCCInterval(
                    lo=PowerLawPCC.from_log_parameters(lo_a, lb_mid - lb_sd),
                    mid=PowerLawPCC.from_log_parameters(a_mid, lb_mid),
                    hi=PowerLawPCC.from_log_parameters(hi_a, lb_mid + lb_sd),
                )
            )
        return intervals

    def num_parameters(self) -> int:
        if self._network is None:
            return 0
        return self._network.num_parameters()
