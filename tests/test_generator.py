"""Unit tests for the workload generator."""

import dataclasses
import enum
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PlanError
from repro.scope import WorkloadConfig, WorkloadGenerator
from repro.scope.generator import (
    _JOIN_WEIGHTS,
    _WeightedDraw,
    make_family_config,
)
from repro.scope.plan import OperatorNode


class TestConfig:
    def test_defaults_valid(self):
        WorkloadConfig()

    def test_rejects_bad_recurring_fraction(self):
        with pytest.raises(PlanError):
            WorkloadConfig(recurring_fraction=1.5)

    def test_rejects_zero_templates(self):
        with pytest.raises(PlanError):
            WorkloadConfig(num_templates=0)

    def test_rejects_misaligned_token_weights(self):
        with pytest.raises(PlanError):
            WorkloadConfig(
                default_token_choices=(10, 20),
                default_token_weights=(1.0,),
            )

    @pytest.mark.parametrize(
        "overrides",
        [
            # Inside the old 1e-6 tolerance, outside choice's sqrt(eps).
            {"join_kind_weights": (_JOIN_WEIGHTS[0] + 5e-7,) + _JOIN_WEIGHTS[1:]},
            {"source_kind_weights": (0.5, 0.5, 0.1, -0.1)},
            {"chain_kind_weights": (0.35, 0.15, 0.25, 0.15, float("nan"))},
            {"default_token_weights": (0.08, 0.20, 0.30, 0.15, 0.12, 0.08,
                                       0.04, 0.02, 0.02)},
            {"default_token_choices": (10, 20),
             "default_token_weights": (1.5, -0.5)},
        ],
        ids=["join-sum", "negative-source", "nan-chain", "token-sum",
             "negative-token"],
    )
    def test_rejects_weights_choice_would_reject(self, overrides):
        with pytest.raises(PlanError, match="weights must"):
            WorkloadConfig(**overrides)

    def test_accepts_weights_within_choice_tolerance(self):
        config = WorkloadConfig(
            join_kind_weights=(_JOIN_WEIGHTS[0] + 1e-9,) + _JOIN_WEIGHTS[1:],
            default_token_choices=(10, 20),
            default_token_weights=(0.0, 1.0),
        )
        jobs = WorkloadGenerator(config, seed=1).generate(20)
        assert {job.requested_tokens for job in jobs} == {20}


class TestGeneration:
    def test_deterministic_given_seed(self):
        a = WorkloadGenerator(seed=9).generate(10)
        b = WorkloadGenerator(seed=9).generate(10)
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert [j.plan.num_operators for j in a] == [
            j.plan.num_operators for j in b
        ]

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(seed=1).generate(20)
        b = WorkloadGenerator(seed=2).generate(20)
        assert [j.plan.num_operators for j in a] != [
            j.plan.num_operators for j in b
        ]

    def test_unique_job_ids(self, workload_jobs):
        ids = [j.job_id for j in workload_jobs]
        assert len(set(ids)) == len(ids)

    def test_rejects_zero_jobs(self):
        with pytest.raises(PlanError):
            WorkloadGenerator().generate(0)

    def test_recurring_fraction_respected(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(recurring_fraction=0.5), seed=3
        ).generate(400)
        fraction = np.mean([j.recurring for j in jobs])
        assert 0.4 < fraction < 0.6

    def test_all_adhoc_when_fraction_zero(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(recurring_fraction=0.0), seed=3
        ).generate(30)
        assert not any(j.recurring for j in jobs)
        templates = {j.plan.template_id for j in jobs}
        assert len(templates) == 30  # every ad-hoc job has its own template

    def test_recurring_jobs_share_templates(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(recurring_fraction=1.0, num_templates=5), seed=3
        ).generate(50)
        templates = {j.plan.template_id for j in jobs}
        assert len(templates) <= 5

    def test_recurring_instances_share_structure(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(recurring_fraction=1.0, num_templates=1), seed=3
        ).generate(5)
        shapes = {
            tuple(sorted(j.plan.operator_counts().items())) for j in jobs
        }
        assert len(shapes) == 1  # same operators, only input sizes drift

    def test_recurring_instances_vary_input_size(self):
        jobs = WorkloadGenerator(
            WorkloadConfig(recurring_fraction=1.0, num_templates=1), seed=3
        ).generate(6)
        cardinalities = {j.plan.total_input_cardinality for j in jobs}
        assert len(cardinalities) > 1

    def test_requested_tokens_from_choices(self, workload_jobs):
        choices = set(WorkloadConfig().default_token_choices)
        assert all(j.requested_tokens in choices for j in workload_jobs)

    def test_submit_days_spread(self):
        jobs = WorkloadGenerator(seed=5).generate(2000)
        days = {j.submit_day for j in jobs}
        assert len(days) == 2

    def test_right_skewed_sizes(self):
        """Plan total costs span orders of magnitude (heavy tail)."""
        jobs = WorkloadGenerator(seed=5).generate(200)
        costs = np.array([j.plan.total_cost for j in jobs])
        assert costs.max() / np.median(costs) > 10


class TestWeightedDraw:
    """The precomputed-CDF draw is ``Generator.choice(items, p=w)``."""

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
            min_size=1,
            max_size=9,
        ).filter(any),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_item_and_stream_as_numpy_choice(self, weights, seed):
        p = np.asarray(weights) / np.sum(weights)
        items = tuple(f"kind{i}" for i in range(len(p)))
        draw = _WeightedDraw(items, p)
        ours = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for _ in range(20):
            assert draw(ours) == str(reference.choice(items, p=p))
        assert ours.bit_generator.state == reference.bit_generator.state


def _encode(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return value.name
    return repr(value)


_NODE_FIELDS = tuple(field.name for field in dataclasses.fields(OperatorNode))


def _workload_digest(jobs) -> str:
    """sha256 over every job's ids, request, day and recurring flag, and
    every field of every operator node, floats by ``float.hex``."""
    digest = hashlib.sha256()
    for job in jobs:
        plan = job.plan
        digest.update(
            f"{job.job_id}|{plan.template_id}|{job.requested_tokens!r}|"
            f"{job.submit_day!r}|{job.recurring!r}\n".encode()
        )
        for op_id, node in plan.nodes.items():
            fields = [repr(op_id)]
            fields += [_encode(getattr(node, name)) for name in _NODE_FIELDS]
            digest.update(("|".join(fields) + "\n").encode())
    return digest.hexdigest()


#: ``_workload_digest`` of 200 jobs per (configuration, seed), computed
#: with ``Generator.choice`` draws and ``np.clip`` partition counts. Every
#: draw feeds a node field or a later draw, so adding, dropping or
#: reordering one changes the hash. ``adhoc`` and ``recurring`` are the
#: default configuration at recurring fraction 0 and 1, as the e2e
#: harness's serving workloads draw their requests.
GENERATOR_PINS = {
    "etl_skew-0": "e26cd7d0045127323f0253c69443b0346fcfe5a749e2e771bde849f8da0d2486",
    "etl_skew-7": "671ac9846fcd2f408ad82e84954a68b0f80773eba16558769b7418e877c9866a",
    "ml_training-0": "eb8478dcb8c508590d58c9c1ab0dc2550b62ea37a9dbbaa4f903413eb3297d3c",
    "ml_training-7": "8b8053467dfe0e3b96c938b93b6dced52949f88cd81377a5be0f0a3161665710",
    "streaming-0": "8300aaba07f4757ea21b56d7cd1f6bf5664009217cde7aba2a94d840db01a2c7",
    "streaming-7": "24ebe2fa18f6bcb4125311afb0a580a7935235b77ececdb8147b280307176b73",
    "tpch-0": "d745fef3de5d2d50fe4ea87dca41e30a60ab70dc29780e208bd072ceec309e2f",
    "tpch-7": "74075486242477d140c051e32a409501857c9863cd58ce21bab05548504a7ebe",
    "adhoc-0": "a7cb8e21760778fff7028e12d6e95277df6457f8401f88eb1b6dd491e15884c5",
    "adhoc-7": "a218812875fb767a537d7329e30ea114baa4bb3e4ffe0fa739d436bfd27b4468",
    "recurring-0": "e65a0be18a4a13708d1030d289efeba39c577be24ed574c0234ba019f2cc5422",
    "recurring-7": "735d3dd77eacbdefdf94511a3a23b684e356a0808f80e08a022944c0393a357a",
}


def _pinned_config(name: str) -> WorkloadConfig:
    if name == "adhoc":
        return WorkloadConfig(recurring_fraction=0.0)
    if name == "recurring":
        return WorkloadConfig(recurring_fraction=1.0)
    return make_family_config(name)


class TestContentPin:
    @pytest.mark.parametrize("case", sorted(GENERATOR_PINS))
    def test_jobs_match_pinned_hash(self, case):
        name, seed = case.rsplit("-", 1)
        jobs = WorkloadGenerator(_pinned_config(name), seed=int(seed)).generate(
            200
        )
        assert _workload_digest(jobs) == GENERATOR_PINS[case]
