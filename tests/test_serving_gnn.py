"""Serving a model that reads graphs, end to end.

Scoring builds a plan's graph sample only for a model that reads it
(``PCCPredictor.reads_graph``, true only for the GNN). These tests keep
the GNN's serving path honest: the pipeline and the server answer as the
model's own predictions say, the feature cache holds graphs exactly when
the served model reads them, and a hot swap from a model that reads
none never hands the GNN a graph-less entry.
"""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.features import featurize
from repro.ml.gbm import BoosterParams
from repro.models import GNNPCCModel, PCCDataset, TrainConfig, XGBoostPL
from repro.pcc.optimal import optimal_tokens
from repro.scope.signatures import plan_signature
from repro.serving import AllocationServer, ResponseStatus, ServerConfig
from repro.tasq import ScoringPipeline


@pytest.fixture(scope="module")
def gnn(dataset):
    config = TrainConfig(epochs=4, batch_size=32, learning_rate=2e-3)
    return GNNPCCModel(train_config=config, seed=0).fit(dataset)


@pytest.fixture(scope="module")
def pl_model(dataset):
    return XGBoostPL(BoosterParams(n_estimators=30, max_depth=4)).fit(
        dataset
    )


@pytest.fixture(scope="module")
def examples(dataset, repository):
    """Twelve training examples whose plans have distinct signatures, so
    no answer comes from the recommendation cache."""
    plans = {record.job_id: record.plan for record in repository.records()}
    by_signature = {}
    for example in dataset.examples:
        signature = plan_signature(plans[example.job_id])
        by_signature.setdefault(signature, (example, plans[example.job_id]))
    chosen = list(by_signature.values())[:12]
    assert len(chosen) == 12
    return chosen


@pytest.fixture(scope="module")
def requests(examples):
    """``(plan, requested tokens)`` for each example, in order."""
    return [(plan, int(e.observed_tokens)) for e, plan in examples]


def _decisions(recommendations):
    return [
        (r.optimal_tokens, r.pcc.a, r.pcc.b, r.predicted_runtime_at_optimal)
        for r in recommendations
    ]


class TestScoringPipeline:
    def test_matches_the_models_own_curves(self, gnn, examples, requests):
        plans, tokens = map(list, zip(*requests))
        answers = ScoringPipeline(gnn).score_batch(plans, tokens)
        # build_dataset featurized the same plans, graphs included.
        pccs = gnn.predict_pccs(PCCDataset([e for e, _ in examples]))
        for answer, pcc, requested in zip(answers, pccs, tokens):
            assert (answer.pcc.a, answer.pcc.b) == (pcc.a, pcc.b)
            assert answer.optimal_tokens == optimal_tokens(
                pcc, 0.01, max_tokens=requested
            )

    def test_graph_less_features_are_featurized_again(self, gnn, requests):
        plans, tokens = map(list, zip(*requests))
        pipeline = ScoringPipeline(gnn)
        vectors = [featurize(plan, graph=False) for plan in plans]
        assert _decisions(pipeline.score_batch(plans, tokens, vectors)) == (
            _decisions(pipeline.score_batch(plans, tokens))
        )

    def test_score_features_needs_every_graph(self, gnn, requests):
        plans, tokens = map(list, zip(*requests))
        vectors = [featurize(plan, graph=False) for plan in plans]
        with pytest.raises(ModelError, match="without its graph"):
            ScoringPipeline(gnn).score_features(
                [plan.job_id for plan in plans], tokens, vectors
            )


def _cached_features(server, plan, graph):
    """The feature cache's entry for ``plan`` (a lookup that must hit)."""
    hits = server.feature_cache.stats()["hits"]
    entry = server.feature_cache.features_for(
        plan, plan_signature(plan), graph
    )
    assert server.feature_cache.stats()["hits"] == hits + 1
    return entry


class TestServer:
    def test_answers_ok_with_the_pipelines_tokens(self, gnn, requests):
        pipeline = ScoringPipeline(gnn)
        expected = [pipeline.score(plan, tokens) for plan, tokens in requests]
        with AllocationServer(
            ScoringPipeline(gnn), ServerConfig(workers=1)
        ) as server:
            responses = [server.request(p, t) for p, t in requests]
            entries = [_cached_features(server, p, True) for p, _ in requests]
        assert [r.status for r in responses] == [ResponseStatus.OK] * len(
            requests
        )
        assert _decisions(r.recommendation for r in responses) == (
            _decisions(expected)
        )
        assert all(entry.graph is not None for entry in entries)

    def test_job_vector_model_caches_no_graphs(self, pl_model, requests):
        with AllocationServer(
            ScoringPipeline(pl_model), ServerConfig(workers=1)
        ) as server:
            for plan, tokens in requests:
                server.request(plan, tokens)
            entries = [
                _cached_features(server, p, False) for p, _ in requests
            ]
        assert all(entry.graph is None for entry in entries)
        for (plan, _), entry in zip(requests, entries):
            assert (
                entry.job_vector.tobytes()
                == featurize(plan).job_vector.tobytes()
            )

    def test_swap_to_the_gnn_serves_it_graphs(self, pl_model, gnn, requests):
        (plan, tokens), *_ = requests
        expected = ScoringPipeline(gnn).score(plan, tokens)
        with AllocationServer(
            ScoringPipeline(pl_model), ServerConfig(workers=1)
        ) as server:
            server.request(plan, tokens)
            assert _cached_features(server, plan, False).graph is None
            assert server.deploy(gnn) == 2
            after = server.request(plan, tokens)
            entry = _cached_features(server, plan, True)
        assert after.status is ResponseStatus.OK
        assert _decisions([after.recommendation]) == _decisions([expected])
        assert entry.graph is not None
        np.testing.assert_array_equal(
            entry.graph.adjacency, featurize(plan).graph.adjacency
        )
