"""Distributed (emulated) MoE transformer.

Runs a full model over an emulated cluster in layer-synchronous fashion:
dense blocks are data-parallel (the replica weights are shared objects, so
gradient accumulation across workers models the all-reduce), and each MoE
block's expert layer executes through a paradigm executor — expert-centric,
data-centric, or per-block unified choice.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..config import ModelConfig
from ..models import MoETransformer, MultiHeadAttention
from ..models.transformer import TransformerBlock
from ..tensorlib import Embedding, LayerNorm, Linear, Tensor
from ..tensorlib import functional as F
from .comm import CommLog
from .data_centric import DataCentricMoE
from .executor import MoEExecutor
from .expert_centric import ExpertCentricMoE
from .layout import RankLayout

__all__ = ["DistributedMoEBlock", "DistributedMoETransformer"]

ExecutorFactory = Callable[[int], MoEExecutor]


class DistributedMoEBlock:
    """Attention (replicated) + expert layer (sharded via an executor)."""

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        executor: MoEExecutor,
        causal: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        self.ln1 = LayerNorm(hidden_dim)
        self.attention = MultiHeadAttention(
            hidden_dim, num_heads, causal=causal, rng=rng
        )
        self.ln2 = LayerNorm(hidden_dim)
        self.executor = executor

    def forward_stacked(self, x: Tensor, worker_batches: List[int]) -> Tensor:
        """Forward with every worker's activations stacked on the batch
        axis (worker-major).

        The replicated attention half runs once on the stack — attention,
        LayerNorm and the FFN matmuls are all per-sequence/per-token, so
        each worker's rows come out identical to a per-worker pass.  Only
        the expert layer splits back into per-worker views (the executor's
        routing and traffic accounting are per rank).
        """
        h = x + self.attention(self.ln1(x))
        total_batch, seq, hidden = h.shape
        flat = self.ln2(h).reshape(total_batch * seq, hidden)
        worker_flat = []
        offset = 0
        for batch in worker_batches:
            rows = batch * seq
            worker_flat.append(flat.row_slice(offset, offset + rows))
            offset += rows
        mixed = self.executor.run(worker_flat)
        combined = Tensor.concat(mixed, axis=0) if len(mixed) > 1 else mixed[0]
        return h + combined.reshape(total_batch, seq, hidden)

    def parameters(self):
        params = []
        params.extend(self.ln1.parameters())
        params.extend(self.attention.parameters())
        params.extend(self.ln2.parameters())
        params.extend(self.executor.parameters())
        return params


class DistributedMoETransformer:
    """Full MoE model executing over an emulated multi-worker cluster."""

    def __init__(
        self,
        config: ModelConfig,
        layout: RankLayout,
        paradigm_for_block: Optional[Dict[int, str]] = None,
        comm_log: Optional[CommLog] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        """``paradigm_for_block`` maps MoE block index to "expert-centric" or
        "data-centric"; unlisted blocks default to expert-centric."""
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config
        self.layout = layout
        self.comm_log = comm_log if comm_log is not None else CommLog(layout)
        paradigm_for_block = paradigm_for_block or {}

        self.token_embedding = Embedding(config.vocab_size, config.hidden_dim, rng=rng)
        self.position_embedding = Embedding(config.seq_len, config.hidden_dim, rng=rng)
        self.blocks: List[object] = []
        for index in range(config.num_blocks):
            if config.is_moe_block(index):
                paradigm = paradigm_for_block.get(index, "expert-centric")
                executor = self._make_executor(paradigm, index, rng)
                block = DistributedMoEBlock(
                    config.hidden_dim,
                    config.num_heads,
                    executor,
                    causal=config.causal,
                    rng=rng,
                )
            else:
                block = TransformerBlock(
                    config.hidden_dim,
                    config.num_heads,
                    causal=config.causal,
                    ffn_mult=config.ffn_mult,
                    rng=rng,
                )
            self.blocks.append(block)
        self.final_norm = LayerNorm(config.hidden_dim)
        self.lm_head = Linear(config.hidden_dim, config.vocab_size, bias=False, rng=rng)

    def _make_executor(self, paradigm: str, block_index: int, rng) -> MoEExecutor:
        kwargs = dict(
            hidden_dim=self.config.hidden_dim,
            num_experts=self.config.num_experts(block_index),
            top_k=self.config.top_k,
            layout=self.layout,
            comm_log=self.comm_log,
            ffn_mult=self.config.ffn_mult,
            dtype_bytes=self.config.dtype_bytes,
            rng=rng,
        )
        if paradigm == "data-centric":
            return DataCentricMoE(**kwargs)
        if paradigm == "expert-centric":
            return ExpertCentricMoE(**kwargs)
        raise ValueError(f"unknown paradigm: {paradigm!r}")

    # -- execution ------------------------------------------------------------

    def forward(self, worker_token_ids: List[np.ndarray]) -> List[Tensor]:
        """One (batch, seq) int array per worker -> one logits tensor each."""
        if len(worker_token_ids) != self.layout.world_size:
            raise ValueError(
                f"expected {self.layout.world_size} worker batches, "
                f"got {len(worker_token_ids)}"
            )
        batches = [np.asarray(token_ids) for token_ids in worker_token_ids]
        # All replicated (data-parallel) modules run once on the worker-
        # major stack — numerically identical per worker, one graph node
        # per op instead of one per worker.  Executors still see their
        # per-worker token slices.
        worker_batches = [token_ids.shape[0] for token_ids in batches]
        stacked_ids = np.concatenate(batches, axis=0)
        total_batch, seq = stacked_ids.shape
        # (seq, H) position rows broadcast over the batch axis; backward is
        # a sum-reduce instead of a per-row scatter-add.
        x = self.token_embedding(stacked_ids) + self.position_embedding(
            np.arange(seq)
        )
        for block in self.blocks:
            if isinstance(block, DistributedMoEBlock):
                x = block.forward_stacked(x, worker_batches)
            else:
                x = block(x)
        logits = self.lm_head(self.final_norm(x))
        worker_logits = []
        offset = 0
        for batch in worker_batches:
            worker_logits.append(logits.row_slice(offset, offset + batch))
            offset += batch
        return worker_logits

    def loss(
        self,
        worker_token_ids: List[np.ndarray],
        worker_targets: List[np.ndarray],
    ) -> Tensor:
        """Mean cross-entropy over workers (data-parallel averaging)."""
        logits = self.forward(worker_token_ids)
        total = None
        for worker_logits, targets in zip(logits, worker_targets):
            batch, seq, vocab = worker_logits.shape
            flat = worker_logits.reshape(batch * seq, vocab)
            ce = F.cross_entropy(flat, np.asarray(targets).reshape(-1))
            total = ce if total is None else total + ce
        return total * (1.0 / self.layout.world_size)

    def finish_backward(self) -> None:
        for block in self.blocks:
            if isinstance(block, DistributedMoEBlock):
                block.executor.finish_backward()

    # -- parameters and state -----------------------------------------------------

    def parameters(self):
        params = []
        params.extend(self.token_embedding.parameters())
        params.extend(self.position_embedding.parameters())
        for block in self.blocks:
            params.extend(block.parameters())
        params.extend(self.final_norm.parameters())
        params.extend(self.lm_head.parameters())
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self):
        """Flat name -> array mapping over every component (the inverse of
        :meth:`load_state_dict`)."""
        state = {}
        for prefix, module in self._named_components():
            for key, value in module.state_dict().items():
                state[f"{prefix}.{key}"] = value
        for index, block in enumerate(self.blocks):
            if isinstance(block, DistributedMoEBlock):
                for key, value in block.executor.export_state().items():
                    state[f"block{index}.moe.{key}"] = value
        return state

    def load_state_dict(self, state) -> None:
        for prefix, module in self._named_components():
            module.load_state_dict(
                {
                    key[len(prefix) + 1:]: value
                    for key, value in state.items()
                    if key.startswith(f"{prefix}.")
                    and ".moe." not in key
                }
            )
        for index, block in enumerate(self.blocks):
            if isinstance(block, DistributedMoEBlock):
                prefix = f"block{index}.moe."
                block.executor.import_state(
                    {
                        key[len(prefix):]: value
                        for key, value in state.items()
                        if key.startswith(prefix)
                    }
                )

    def _named_components(self):
        yield "token_embedding", self.token_embedding
        yield "position_embedding", self.position_embedding
        for index, block in enumerate(self.blocks):
            if isinstance(block, DistributedMoEBlock):
                yield f"block{index}.ln1", block.ln1
                yield f"block{index}.attention", block.attention
                yield f"block{index}.ln2", block.ln2
            else:
                yield f"block{index}", block
        yield "final_norm", self.final_norm
        yield "lm_head", self.lm_head

    def load_from_reference(self, reference: MoETransformer) -> None:
        """Copy weights from a single-process reference model."""
        from ..models import MoEBlock

        if reference.config.num_blocks != self.config.num_blocks:
            raise ValueError("block count mismatch with reference model")
        self.token_embedding.load_state_dict(reference.token_embedding.state_dict())
        self.position_embedding.load_state_dict(
            reference.position_embedding.state_dict()
        )
        for mine, theirs in zip(self.blocks, reference.blocks):
            if isinstance(mine, DistributedMoEBlock):
                if not isinstance(theirs, MoEBlock):
                    raise ValueError("block kind mismatch with reference model")
                mine.ln1.load_state_dict(theirs.ln1.state_dict())
                mine.attention.load_state_dict(theirs.attention.state_dict())
                mine.ln2.load_state_dict(theirs.ln2.state_dict())
                mine.executor.gate.load_state_dict(theirs.moe.gate.state_dict())
                for my_expert, their_expert in zip(
                    mine.executor.experts, theirs.moe.experts
                ):
                    my_expert.load_state_dict(their_expert.state_dict())
            else:
                mine.load_state_dict(theirs.state_dict())
        self.final_norm.load_state_dict(reference.final_norm.state_dict())
        self.lm_head.load_state_dict(reference.lm_head.state_dict())
