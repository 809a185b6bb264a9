"""``repro bench --suite runtime``: wall-clock time of trainer steps.

The host-time counterpart of the simulator suites, pointed at the
*numerical* half of the repo: the tensorlib autograd engine driving the
expert-centric / data-centric executors through full
:class:`~repro.runtime.trainer.DistributedTrainer` steps.  Each config
builds a distributed model once and runs one warm-up step (which also
fills the data-centric replica pool), then times steady-state steps and
reports routed token-slots per second.  The committed snapshot is
``benchmarks/BENCH_runtime.json``.

Steps run at tensorlib's default dtype — float64, the dtype the
equivalence battery pins.  ``repro bench --dtype float32`` scopes that
default to float32 for experiments; its gate refuses to compare captures
of different dtypes.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .harness import BENCH_DIR, Suite, time_runs, timing

RUNTIME_SCHEMA = "janus-repro/bench-runtime/v1"

_DTYPES = ("float64", "float32")

# Steps run before timing: fills the replica pool, allocates optimizer
# state.
_WARMUP = 1


class RuntimeBenchConfig(NamedTuple):
    """One timed trainer-step configuration."""

    model: str
    mode: str  # "expert-centric" | "data-centric"
    machines: int = 2
    workers: int = 2

    @property
    def key(self) -> str:
        return f"{self.model}/{self.mode}"


_RUNTIME_MODES = ("expert-centric", "data-centric")

RUNTIME_FULL_CONFIGS: Tuple[RuntimeBenchConfig, ...] = tuple(
    RuntimeBenchConfig(model, mode)
    for model in ("trainer-small", "trainer-moe-gpt")
    for mode in _RUNTIME_MODES
)

# CI smoke subset: one steady-state trainer config (data-centric exercises
# the replica pool as well as the sorted dispatch path).
RUNTIME_QUICK_CONFIGS: Tuple[RuntimeBenchConfig, ...] = (
    RuntimeBenchConfig("trainer-moe-gpt", "data-centric"),
)


def _runtime_model_config(name: str):
    """Numerics-scale model shapes.

    ``trainer-moe-gpt`` keeps MoE-GPT's block layout (causal decoder, one
    late MoE block, top_k=4) at a width the float64 numpy engine can step
    in tens of milliseconds; ``trainer-small`` is the smoke shape.
    """
    from ..config import ModelConfig

    if name == "trainer-small":
        return ModelConfig(
            name="trainer-small",
            batch_size=4,
            seq_len=8,
            top_k=2,
            hidden_dim=32,
            num_blocks=2,
            experts_per_block={1: 8},
            num_heads=4,
            vocab_size=128,
            causal=True,
        )
    if name == "trainer-moe-gpt":
        return ModelConfig(
            name="trainer-moe-gpt",
            batch_size=4,
            seq_len=32,
            top_k=4,
            hidden_dim=64,
            num_blocks=4,
            experts_per_block={3: 16},
            num_heads=8,
            vocab_size=256,
            causal=True,
        )
    raise ValueError(f"unknown runtime bench model: {name!r}")


def _build_trainer(spec: RuntimeBenchConfig):
    from ..runtime import DistributedMoETransformer, DistributedTrainer, RankLayout
    from ..tensorlib import Adam

    config = _runtime_model_config(spec.model)
    layout = RankLayout(spec.machines, spec.workers)
    moe_blocks = {index: spec.mode for index in config.moe_block_indices}
    model = DistributedMoETransformer(
        config, layout, paradigm_for_block=moe_blocks,
        rng=np.random.default_rng(0),
    )
    trainer = DistributedTrainer(model, Adam(model.parameters(), lr=1e-3))
    rng = np.random.default_rng(1)
    shape = (config.batch_size, config.seq_len)
    batches = [
        rng.integers(0, config.vocab_size, size=shape)
        for _ in range(layout.world_size)
    ]
    targets = [
        rng.integers(0, config.vocab_size, size=shape)
        for _ in range(layout.world_size)
    ]
    return config, layout, trainer, batches, targets


def _default_dtype() -> str:
    from ..tensorlib import get_default_dtype

    return get_default_dtype().name


def time_runtime_config(
    spec: RuntimeBenchConfig,
    runs: int = 3,
    warmup: int = _WARMUP,
    dtype: Optional[str] = None,
) -> Dict:
    """Time ``runs`` steady-state trainer steps; report the median.

    Model/optimizer construction and ``warmup`` steps happen outside the
    timed region, so the number is host-seconds per
    :meth:`DistributedTrainer.step` in steady state.  ``dtype`` defaults
    to tensorlib's current default.
    """
    dtype = dtype or _default_dtype()
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {_DTYPES}, got {dtype!r}")
    from ..tensorlib import default_dtype

    with default_dtype(getattr(np, dtype)):
        config, layout, trainer, batches, targets = _build_trainer(spec)
        for _ in range(max(0, warmup)):
            trainer.step(batches, targets)
        samples, _ = time_runs(
            runs, lambda _: trainer.step(batches, targets)
        )
    entry = timing(samples)
    # Routed token-slots per step across all workers: B*S*k per worker.
    slots = config.tokens_per_worker * layout.world_size
    entry.update(
        token_slots=slots,
        token_slots_per_s=slots / entry["median_s"],
        loss=trainer.last_loss,
    )
    return entry


def check_dtype(current: Dict, snapshot: Dict, scale: float) -> List[str]:
    """float32 runs ~2x faster: comparing across dtypes would either mask
    or fake a regression."""
    snap_dtype = snapshot.get("config", {}).get("dtype")
    cur_dtype = current.get("config", {}).get("dtype")
    if snap_dtype == cur_dtype:
        return []
    return [
        f"dtype mismatch: capture is {cur_dtype}, snapshot is "
        f"{snap_dtype} (timings are not comparable)"
    ]


SUITE = Suite(
    name="runtime",
    summary="numerical trainer steps",
    schema=RUNTIME_SCHEMA,
    snapshot=BENCH_DIR / "BENCH_runtime.json",
    full=RUNTIME_FULL_CONFIGS,
    quick=RUNTIME_QUICK_CONFIGS,
    runs=(3, 2),
    unit="step",
    measure=time_runtime_config,
    describe=lambda configs, runs: {
        "runs": runs, "warmup": _WARMUP, "dtype": _default_dtype(),
    },
    columns=(
        ("best", lambda entry, _: f"{entry['best_s'] * 1e3:.1f}"),
        ("slots", lambda entry, _: f"{entry['token_slots']:d}"),
        ("slots/s", lambda entry, _: f"{entry['token_slots_per_s']:.0f}"),
    ),
    gates=check_dtype,
)
