"""Unit tests for the GNN building blocks (Figure 10)."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ModelError
from repro.features import GraphSample, normalized_adjacency
from repro.ml import (
    AttentionPooling,
    GNNEncoder,
    GraphConvolution,
    PackedBatch,
    PackedGraphs,
    Tensor,
)
from repro.ml.blas import single_thread, thread_count


def _sample(num_nodes, feature_dim=6, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(num_nodes, feature_dim))
    adjacency = np.zeros((num_nodes, num_nodes))
    for i in range(num_nodes - 1):
        adjacency[i, i + 1] = 1.0
    return GraphSample(
        node_features=features, adjacency=normalized_adjacency(adjacency)
    )


def _batch(samples):
    return PackedGraphs(samples).batch(np.arange(len(samples)))


def _padded_encode(encoder, samples):
    """The padded formulation, in ``Tensor`` ops: the fused path's reference.

    Graphs are padded to the largest node count and a node mask keeps the
    padding out of the pooling.
    """
    batch, max_nodes = len(samples), max(s.num_nodes for s in samples)
    features = np.zeros((batch, max_nodes, samples[0].node_features.shape[1]))
    adjacency = np.zeros((batch, max_nodes, max_nodes))
    mask = np.zeros((batch, max_nodes))
    for i, sample in enumerate(samples):
        n = sample.num_nodes
        features[i, :n] = sample.node_features
        adjacency[i, :n, :n] = sample.adjacency
        mask[i, :n] = 1.0

    states, a_hat = Tensor(features), Tensor(adjacency)
    for layer in encoder.layers:
        states = layer.linear(a_hat @ states).relu()
    width = states.shape[2]
    counts = mask.sum(axis=1, keepdims=True)
    mean = (states * Tensor(mask[:, :, None])).sum(axis=1)
    mean = mean * Tensor(1.0 / counts)
    context = (mean @ encoder.pooling.context_weight).tanh()
    scores = (states * context.reshape(batch, 1, width)).sum(axis=2)
    attention = scores.sigmoid() * Tensor(mask)
    return (states * attention.reshape(batch, max_nodes, 1)).sum(axis=1)


def _assert_close(got, want, rtol=1e-12):
    """Equal to ``rtol`` relative to the reference's largest magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestPacking:
    def test_concatenates_graph_rows(self):
        small, large = _sample(3, seed=1), _sample(5, seed=2)
        batch = _batch([small, large])
        assert batch.inputs.shape == (8, 6)
        dense = batch.adjacency.toarray()
        assert np.array_equal(dense[:3, :3], small.adjacency)
        assert np.array_equal(dense[3:, 3:], large.adjacency)
        assert not dense[:3, 3:].any() and not dense[3:, :3].any()
        # The first layer's aggregation is applied at packing time.
        _assert_close(batch.inputs[:3], small.adjacency @ small.node_features)
        _assert_close(batch.inputs[3:], large.adjacency @ large.node_features)

    def test_membership_marks_each_graphs_nodes(self):
        batch = _batch([_sample(2), _sample(4)])
        assert batch.membership.toarray().tolist() == [
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 1, 1],
        ]
        assert batch.node_graph.tolist() == [0, 0, 1, 1, 1, 1]

    def test_batch_follows_index_order(self):
        samples = [_sample(2, seed=1), _sample(3, seed=2), _sample(4, seed=3)]
        packed = PackedGraphs(samples)
        reordered = packed.batch(np.array([2, 0]))
        expected = _batch([samples[2], samples[0]])
        assert np.array_equal(reordered.inputs, expected.inputs)
        assert np.array_equal(
            reordered.adjacency.toarray(), expected.adjacency.toarray()
        )
        assert reordered.node_graph.tolist() == [0, 0, 0, 0, 1, 1]

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            PackedGraphs([])
        with pytest.raises(ModelError):
            PackedGraphs([_sample(3)]).batch(np.array([], dtype=int))

    def test_rejects_mixed_widths(self):
        with pytest.raises(ModelError):
            PackedGraphs(
                [_sample(3, feature_dim=4), _sample(3, feature_dim=6)]
            )

    def test_rejects_empty_graph(self):
        empty = GraphSample(node_features=np.zeros((0, 6)),
                            adjacency=np.zeros((0, 0)))
        with pytest.raises(ModelError):
            PackedGraphs([_sample(3), empty])

    def test_rejects_asymmetric_adjacency(self):
        directed = GraphSample(node_features=np.ones((2, 6)),
                               adjacency=np.array([[0.5, 0.5], [0.0, 1.0]]))
        with pytest.raises(ModelError):
            PackedGraphs([directed])


class TestGraphConvolution:
    def test_output_shape(self, rng):
        first = GraphConvolution(6, 10, rng)
        second = GraphConvolution(10, 7, rng)
        batch = _batch([_sample(4), _sample(4)])
        states, _ = first.propagate(batch.inputs, None)
        assert states.shape == (8, 10)
        states, _ = second.propagate(states, batch.adjacency)
        assert states.shape == (8, 7)

    def test_aggregates_neighbours(self, rng):
        """A node's output depends on its neighbours, not only itself."""
        layer = GraphConvolution(6, 10, rng)
        sample = _sample(3)
        modified = sample.node_features.copy()
        modified[0] += 10.0  # perturb node 0 of the chain 0 - 1 - 2
        perturbed = GraphSample(node_features=modified,
                                adjacency=sample.adjacency)
        base, _ = layer.propagate(_batch([sample]).inputs, None)
        moved, _ = layer.propagate(_batch([perturbed]).inputs, None)
        # Node 1 (neighbour of node 0) changes even though its own features
        # did not; node 2 is two hops away, beyond one layer's reach.
        assert not np.allclose(base[1], moved[1])
        assert np.array_equal(base[2], moved[2])


class TestAttentionPooling:
    def test_output_shape(self, rng):
        pooling = AttentionPooling(8, rng)
        batch = _batch([_sample(3), _sample(5), _sample(2)])
        pooled, _ = pooling.pool(rng.normal(size=(10, 8)), batch)
        assert pooled.shape == (3, 8)

    def test_padding_excluded(self, rng):
        """Nodes outside a graph, here a batch-mate's, must not influence
        its embedding."""
        pooling = AttentionPooling(4, rng)
        real = rng.normal(size=(3, 4))
        alone, _ = pooling.pool(real, _batch([_sample(3, feature_dim=4)]))
        mixed = np.concatenate([real, 1000 * np.ones((2, 4))])
        batch = _batch([_sample(3, feature_dim=4), _sample(2, feature_dim=4)])
        together, _ = pooling.pool(mixed, batch)
        assert np.allclose(alone[0], together[0])

    def test_rejects_empty_graph(self, rng):
        pooling = AttentionPooling(4, rng)
        batch = PackedBatch(
            inputs=np.ones((2, 4)),
            adjacency=sp.identity(2, format="csr"),
            membership=sp.csr_matrix(
                (np.ones(2), np.arange(2), np.array([0, 2, 2])), shape=(2, 2)
            ),
            node_graph=np.zeros(2, dtype=int),
        )
        with pytest.raises(ModelError):
            pooling.pool(np.ones((2, 4)), batch)


class TestGNNEncoder:
    def test_encode_shape(self, rng):
        encoder = GNNEncoder(6, (12, 8), rng)
        out = encoder.encode(_batch([_sample(3), _sample(7)]))
        assert out.shape == (2, 8)
        assert encoder.output_dim == 8

    def test_parameters_collected(self, rng):
        encoder = GNNEncoder(6, (12, 8), rng)
        count = sum(p.data.size for p in encoder.parameters())
        expected = (6 * 12 + 12) + (12 * 8 + 8) + 8 * 8
        assert count == expected

    def test_gradients_reach_all_parameters(self, rng):
        encoder = GNNEncoder(6, (5, 4), rng)
        loss = encoder.encode(_batch([_sample(4), _sample(2)])).abs().sum()
        loss.backward()
        for p in encoder.parameters():
            assert p.grad is not None
            assert np.any(p.grad != 0)

    def test_needs_layers(self, rng):
        with pytest.raises(ModelError):
            GNNEncoder(6, (), rng)

    def test_permutation_consistency(self, rng):
        """A graph's embedding depends neither on its batch-mates nor on
        their order."""
        encoder = GNNEncoder(6, (10, 10), rng)
        packed = PackedGraphs(
            [_sample(4, seed=1), _sample(6, seed=2), _sample(2, seed=3)]
        )
        alone = encoder.encode(packed.batch(np.array([0]))).numpy()[0]
        for order, position in (([0, 1], 0), ([1, 0], 1), ([2, 1, 0], 2)):
            out = encoder.encode(packed.batch(np.array(order))).numpy()
            np.testing.assert_allclose(
                out[position], alone, rtol=0, atol=1e-12
            )


class TestFusedMatchesPadded:
    """The fused backward against the padded autograd formulation."""

    @pytest.mark.parametrize("hidden", [(7,), (8, 6), (9, 7, 5)])
    def test_output_and_every_gradient(self, hidden):
        # Ragged graphs, a one-node and a 37-node one among them, cut into
        # a batch in shuffled order.
        samples = [_sample(n, seed=n) for n in (5, 1, 37, 12, 2, 9)]
        order = np.array([2, 0, 5, 1, 4, 3])
        ordered = [samples[i] for i in order]
        encoder = GNNEncoder(6, hidden, np.random.default_rng(3))
        upstream = np.random.default_rng(9).normal(
            size=(len(order), hidden[-1])
        )

        want = _padded_encode(encoder, ordered)
        (want * Tensor(upstream)).sum().backward()
        want_grads = [p.grad for p in encoder.parameters()]
        for p in encoder.parameters():
            p.zero_grad()

        got = encoder.encode(PackedGraphs(samples).batch(order))
        (got * Tensor(upstream)).sum().backward()

        _assert_close(got.numpy(), want.numpy())
        assert len(want_grads) == 2 * len(hidden) + 1
        for p, expected in zip(encoder.parameters(), want_grads):
            _assert_close(p.grad, expected)


class TestSingleThread:
    # Each test starts from two threads where OpenBLAS allows it, so that
    # restoring the previous count differs from staying at one.
    def test_one_thread_inside_previous_count_after(self, blas_threads):
        previous = blas_threads(2)
        with single_thread():
            assert thread_count() == 1
        assert thread_count() == previous

    def test_previous_count_after_exception(self, blas_threads):
        previous = blas_threads(2)
        with pytest.raises(RuntimeError):
            with single_thread():
                assert thread_count() == 1
                raise RuntimeError("inside the scope")
        assert thread_count() == previous

    def test_overlapping_scopes(self, blas_threads):
        """Nested scopes, and scopes open on many threads at once, keep
        one thread until the last closes."""
        previous = blas_threads(2)
        with single_thread():
            with single_thread():
                pass
            assert thread_count() == 1
        assert thread_count() == previous

        seen: list[int] = []

        def enter_and_check():
            for _ in range(200):
                with single_thread():
                    seen.append(thread_count())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=enter_and_check)
                       for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 8 * 200 and set(seen) == {1}
        assert thread_count() == previous
