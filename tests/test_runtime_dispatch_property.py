"""Property test: sorted dispatch == the naive per-expert nonzero path.

The vectorized executors route every worker's tokens with one stable
argsort (:class:`repro.models.DispatchPlan`), one gather, and one weighted
scatter-add.  These tests pin that rewrite to a naive reference that
re-implements the pre-vectorization dataflow — a per-expert
``np.nonzero(expert_indices == expert)`` scan with one gather/scatter pair
per (worker, expert) — built as subclasses that override only ``run()``,
so both paths share the gate, the canonical experts, and the data-centric
cache attribution.

Checked per random (tokens, top_k, experts, capacity_factor, cluster
shape) draw: forward outputs, every parameter gradient, the exact CommLog
record list, and the pulled-replica census.  Tolerances are ~1e-12: the
sorted combine adds each token's expert contributions in slot order where
the naive path adds them in expert order, so the results differ only by
float64 summation re-association.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import DispatchPlan, TopKGate
from repro.runtime import (
    CommLog,
    DataCentricMoE,
    ExpertCentricMoE,
    RankLayout,
)
from repro.tensorlib import Tensor
from tests.helpers import pulled_expert_count, scatter_rows

HIDDEN = 8


def naive_slots(decision, expert_id):
    """The pre-vectorization per-expert scan (row-major order)."""
    return np.nonzero(decision.expert_indices == expert_id)


def weighted_scatter(num_tokens, token_ids, slot_ids, expert_out, decision):
    """One (worker, expert) pair's combine: the expert's output rows,
    weighted by their gate weights, scattered back to their tokens."""
    weights = decision.combine_weights[token_ids, slot_ids]
    weighted = expert_out * weights.reshape(-1, 1)
    return scatter_rows(num_tokens, token_ids, weighted)


class NaiveExpertCentric(ExpertCentricMoE):
    """Pre-vectorization All-to-All dataflow; everything else inherited."""

    def run(self, worker_tokens):
        decisions = self._route_all(worker_tokens)
        self._run_start_index = len(self.comm_log.records)
        self._backward_done = False
        world = self.layout.world_size
        outputs = [None] * world
        for expert_id, expert in enumerate(self.experts):
            owner = self.placement.owner(expert_id)
            pieces = []
            meta = []
            for rank, (tokens, decision) in enumerate(
                zip(worker_tokens, decisions)
            ):
                token_ids, slot_ids = naive_slots(decision, expert_id)
                if token_ids.size == 0:
                    continue
                if rank != owner:
                    self.comm_log.record(
                        "dispatch", rank, owner,
                        token_ids.size * self.token_bytes,
                    )
                pieces.append(tokens[token_ids])
                meta.append((rank, token_ids, slot_ids))
            if not pieces:
                continue
            batch = (
                Tensor.concat(pieces, axis=0) if len(pieces) > 1 else pieces[0]
            )
            expert_out = expert(batch)
            offset = 0
            for rank, token_ids, slot_ids in meta:
                count = token_ids.size
                piece = expert_out[offset:offset + count]
                offset += count
                if rank != owner:
                    self.comm_log.record(
                        "combine", owner, rank, count * self.token_bytes
                    )
                contribution = weighted_scatter(
                    worker_tokens[rank].shape[0], token_ids, slot_ids,
                    piece, decisions[rank],
                )
                if outputs[rank] is None:
                    outputs[rank] = contribution
                else:
                    outputs[rank] = outputs[rank] + contribution
        for rank, tokens in enumerate(worker_tokens):
            if outputs[rank] is None:
                outputs[rank] = tokens * 0.0
        return outputs


class NaiveDataCentric(DataCentricMoE):
    """Pre-vectorization pull dataflow; shares the new ``_fetch`` (replica
    pooling and cache-hit attribution), so the comparison isolates the
    dispatch arithmetic."""

    def run(self, worker_tokens):
        decisions = self._route_all(worker_tokens)
        self._backward_done = False
        self._machine_experts = {}
        self._replicas = {}
        self._fill_rank = {}
        self._served_rank = {}
        outputs = []
        for rank, (tokens, decision) in enumerate(
            zip(worker_tokens, decisions)
        ):
            num_tokens = tokens.shape[0]
            output = None
            for expert_id in range(self.num_experts):
                token_ids, slot_ids = naive_slots(decision, expert_id)
                if token_ids.size == 0:
                    continue
                expert = self._fetch(expert_id, rank)
                expert_out = expert(tokens[token_ids])
                contribution = weighted_scatter(
                    num_tokens, token_ids, slot_ids, expert_out, decision
                )
                output = (
                    contribution if output is None else output + contribution
                )
            outputs.append(output if output is not None else tokens * 0.0)
        return outputs


CONFIGS = st.tuples(
    st.integers(min_value=1, max_value=10),        # tokens per worker
    st.sampled_from([1, 2, 4]),                    # top_k
    st.sampled_from([4, 8]),                       # num_experts
    st.sampled_from([None, 0.5, 1.0, 1.5]),        # capacity_factor
    st.sampled_from([(1, 2), (2, 1), (2, 2)]),     # (machines, workers)
    st.integers(min_value=0, max_value=2**31 - 1),  # data seed
)


def build_pair(naive_cls, fast_cls, num_experts, top_k, layout,
               capacity_factor, seed):
    """Two state-identical executors of the same paradigm."""
    pair = []
    for cls in (naive_cls, fast_cls):
        executor = cls(
            HIDDEN, num_experts, top_k, layout,
            comm_log=CommLog(layout), rng=np.random.default_rng(seed),
        )
        executor.gate = TopKGate(
            HIDDEN, num_experts, top_k,
            rng=np.random.default_rng(seed),
            capacity_factor=capacity_factor,
        )
        pair.append(executor)
    pair[1].import_state(pair[0].export_state())
    return pair


def run_and_grads(executor, worker_tokens):
    outputs = executor.run(worker_tokens)
    loss = None
    for out in outputs:
        term = (out * out).sum()
        loss = term if loss is None else loss + term
    loss.backward()
    executor.finish_backward()
    grads = [
        None if param.grad is None else np.array(param.grad)
        for param in executor.parameters()
    ]
    return [out.data for out in outputs], grads


def assert_paths_equivalent(naive_cls, fast_cls, config):
    tokens_per_worker, top_k, num_experts, capacity_factor, shape, seed = (
        config
    )
    layout = RankLayout(*shape)
    if num_experts % layout.world_size:
        num_experts = layout.world_size * max(
            1, num_experts // layout.world_size
        )
    top_k = min(top_k, num_experts)
    naive, fast = build_pair(
        naive_cls, fast_cls, num_experts, top_k, layout, capacity_factor,
        seed,
    )
    rng = np.random.default_rng(seed)
    data = [
        rng.standard_normal((tokens_per_worker, HIDDEN))
        for _ in range(layout.world_size)
    ]
    naive_out, naive_grads = run_and_grads(
        naive, [Tensor(batch) for batch in data]
    )
    fast_out, fast_grads = run_and_grads(
        fast, [Tensor(batch) for batch in data]
    )
    for expected, actual in zip(naive_out, fast_out):
        np.testing.assert_allclose(actual, expected, rtol=1e-11, atol=1e-12)
    for expected, actual in zip(naive_grads, fast_grads):
        if expected is None or actual is None:
            # An expert no token routed to has no gradient on either path.
            assert expected is None and actual is None
            continue
        np.testing.assert_allclose(actual, expected, rtol=1e-11, atol=1e-12)
    # Traffic must be *identical*, record for record: same kinds, same
    # endpoints, same byte counts, in the same order.
    assert fast.comm_log.records == naive.comm_log.records


class TestSortedDispatchEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(config=CONFIGS)
    def test_expert_centric_matches_naive(self, config):
        assert_paths_equivalent(NaiveExpertCentric, ExpertCentricMoE, config)

    @settings(max_examples=25, deadline=None)
    @given(config=CONFIGS)
    def test_data_centric_matches_naive(self, config):
        assert_paths_equivalent(NaiveDataCentric, DataCentricMoE, config)

    @settings(max_examples=15, deadline=None)
    @given(config=CONFIGS)
    def test_data_centric_pull_census_matches(self, config):
        """Same census of pulled replicas on both paths."""
        tokens_per_worker, top_k, num_experts, capacity_factor, shape, seed \
            = config
        layout = RankLayout(*shape)
        if num_experts % layout.world_size:
            num_experts = layout.world_size * max(
                1, num_experts // layout.world_size
            )
        top_k = min(top_k, num_experts)
        naive, fast = build_pair(
            NaiveDataCentric, DataCentricMoE, num_experts, top_k, layout,
            capacity_factor, seed,
        )
        rng = np.random.default_rng(seed)
        data = [
            rng.standard_normal((tokens_per_worker, HIDDEN))
            for _ in range(layout.world_size)
        ]
        run_and_grads(naive, [Tensor(batch) for batch in data])
        run_and_grads(fast, [Tensor(batch) for batch in data])
        assert pulled_expert_count(fast) == pulled_expert_count(naive)


class TestDispatchPlanSegments:
    @settings(max_examples=40, deadline=None)
    @given(
        num_tokens=st.integers(min_value=0, max_value=20),
        top_k=st.integers(min_value=1, max_value=4),
        num_experts=st.integers(min_value=1, max_value=8),
        drop_rate=st.floats(min_value=0.0, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_segments_equal_nonzero_scan(
        self, num_tokens, top_k, num_experts, drop_rate, seed
    ):
        """Every expert segment reproduces the np.nonzero pairs exactly —
        same token ids, same slot ids, same (row-major) order — including
        capacity-dropped (-1) slots."""
        rng = np.random.default_rng(seed)
        expert_indices = rng.integers(
            0, num_experts, size=(num_tokens, top_k)
        )
        dropped = rng.random((num_tokens, top_k)) < drop_rate
        expert_indices[dropped] = -1
        plan = DispatchPlan(expert_indices, num_experts)
        total = 0
        for expert_id in range(num_experts):
            token_ids, slot_ids = np.nonzero(expert_indices == expert_id)
            start, stop = plan.segment_bounds(expert_id)
            plan_tokens = plan.token_ids[start:stop]
            plan_slots = plan.slot_ids[start:stop]
            np.testing.assert_array_equal(plan_tokens, token_ids)
            np.testing.assert_array_equal(plan_slots, slot_ids)
            assert plan.count(expert_id) == token_ids.size
            total += token_ids.size
        assert plan.total_routed == total
        present = {
            expert_id
            for expert_id in range(num_experts)
            if plan.count(expert_id)
        }
        assert set(plan.experts_present().tolist()) == present
