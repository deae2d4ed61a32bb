"""GNN model: operator-level graphs -> PCC parameters (Figure 10).

The SimGNN-style architecture of Section 4.4: graph convolution layers
over operator-level features produce node embeddings, an attention layer
pools them into a graph embedding, and a fully connected head predicts
the two power-law parameters through the same sign-constrained head as
the NN — so the predicted PCC is monotonically non-increasing by
construction.

With two 80-wide GCN layers (:data:`GCN_SIZES`), attention and a
24-wide head (:data:`HEAD_SIZES`) the model has ~19K parameters —
matching the paper's Table 7 GNN figure of 19,210 — and is roughly an
order of magnitude slower to train than the NN, also as reported.
"""

from __future__ import annotations

import numpy as np

from repro.features.encoders import StandardScaler, TargetScaler
from repro.features.graph_features import GraphSample
from repro.ml.autograd import Tensor
from repro.ml.blas import single_thread
from repro.ml.gnn import GNNEncoder, PackedBatch, PackedGraphs
from repro.ml.losses import CompositeLoss, LF2
from repro.ml.nn import Dense, PCCParameterHead, ReLU, Sequential
from repro.models.base import PCCPredictor
from repro.models.dataset import PCCDataset
from repro.models.training import (
    TrainConfig,
    loss_inputs,
    train_parameter_model,
)

__all__ = ["GNNPCCModel"]

#: Graphs encoded per prediction batch.
_PREDICT_CHUNK = 512
#: Widths of the graph convolution layers and of the head's hidden
#: layers (Table 7's 19,210-parameter network).
GCN_SIZES = (80, 80)
HEAD_SIZES = (24,)


class GNNPCCModel(PCCPredictor):
    """Graph neural network trend model."""

    name = "GNN"
    guarantees_monotonic = True
    reads_graph = True

    def __init__(
        self,
        loss: CompositeLoss | None = None,
        train_config: TrainConfig | None = None,
        xgb_model: PCCPredictor | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.loss = loss or LF2()
        self.train_config = train_config or TrainConfig(
            epochs=40, batch_size=32, learning_rate=2e-3
        )
        self.xgb_model = xgb_model
        self._seed = seed
        self._node_scaler = StandardScaler()
        self._target_scaler = TargetScaler()
        self._encoder: GNNEncoder | None = None
        self._head: Sequential | None = None
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------------
    def _build(self, in_features: int) -> None:
        rng = np.random.default_rng(self._seed)
        self._encoder = GNNEncoder(in_features, GCN_SIZES, rng)
        modules = []
        previous = self._encoder.output_dim
        for size in HEAD_SIZES:
            modules.append(Dense(previous, size, rng))
            modules.append(ReLU())
            previous = size
        modules.append(PCCParameterHead(previous, rng))
        self._head = Sequential(*modules)

    def _scaled_graphs(
        self, dataset: PCCDataset, fit_scaler: bool
    ) -> list[GraphSample]:
        """Standardise node features with a scaler shared across graphs."""
        samples = dataset.graph_samples()
        stacked = np.vstack([s.node_features for s in samples])
        if fit_scaler:
            self._node_scaler.fit(stacked)
        return [
            GraphSample(
                node_features=self._node_scaler.transform(s.node_features),
                adjacency=s.adjacency,
            )
            for s in samples
        ]

    def _forward(self, batch: PackedBatch) -> Tensor:
        assert self._encoder is not None and self._head is not None
        return self._head(self._encoder.encode(batch))

    # ------------------------------------------------------------------
    def fit(self, dataset: PCCDataset) -> "GNNPCCModel":
        # One BLAS thread: the packed products are large enough for
        # OpenBLAS to split, which contends with a busy process pool and
        # makes the fitted weights depend on the host's thread count.
        with single_thread():
            return self._fit(dataset)

    def _fit(self, dataset: PCCDataset) -> "GNNPCCModel":
        graphs = self._scaled_graphs(dataset, fit_scaler=True)
        inputs = loss_inputs(
            dataset, self.loss, self._target_scaler, self.xgb_model
        )

        in_features = graphs[0].node_features.shape[1]
        self._build(in_features)
        packed = PackedGraphs(graphs)

        def forward(batch: np.ndarray) -> Tensor:
            return self._forward(packed.batch(batch))

        parameters = self._encoder.parameters() + self._head.parameters()
        self.loss_history_ = train_parameter_model(
            forward,
            parameters,
            self.loss,
            inputs,
            num_examples=len(dataset),
            config=self.train_config,
            rng=np.random.default_rng(self._seed + 1),
        )
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def predict_parameters(self, dataset: PCCDataset) -> np.ndarray:
        self._check_fitted()
        with single_thread():
            graphs = self._scaled_graphs(dataset, fit_scaler=False)
            packed = PackedGraphs(graphs)
            # Chunks, in input order, bound the memory of the node states.
            order = np.arange(len(packed))
            chunks = np.split(order, range(_PREDICT_CHUNK, len(order),
                                           _PREDICT_CHUNK))
            return np.vstack([
                self._forward(packed.batch(chunk)).numpy() for chunk in chunks
            ])

    def num_parameters(self) -> int:
        if self._encoder is None or self._head is None:
            return 0
        return (
            sum(p.data.size for p in self._encoder.parameters())
            + self._head.num_parameters()
        )
