"""Cost-model-driven chunk autotuning (``repro.control`` tuner + engine).

Covers the analytic per-block optimum (power-of-two lattice, capacity
clamp, brute-force agreement), the :func:`tune_engine_chunks` plan shape,
the engine's re-tuning metrics and the controller arming path, the
``chunk_tuning`` report fold, the calibration of the per-chunk prediction
against simulated chunk times, and the bit-identity battery: tuning
disabled reproduces the legacy runs exactly, and tuning enabled must not
move a single traffic byte (chunk counts change schedule, never routing).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, MachineSpec
from repro.config import ModelConfig
from repro.control import (
    ControlConfig,
    Controller,
    ControlPolicy,
    tune_engine_chunks,
)
from repro.core import CostModel, JanusFeatures, engine_for
from repro.metrics import MetricsRegistry, chunk_tuning_breakdown

from tests.conftest import small_cluster, small_config
from tests.test_control_policy import make_sig


def make_model(**overrides):
    """A hand-built CostModel with round numbers (no engine required)."""
    defaults = dict(
        token_bytes=2048.0,
        expert_bytes=float(1 << 20),
        expert_flops=25e6,
        gpu_flops=100e12,
        nic_bandwidth=100e9,
        kernel_overhead=50e-6,
        micro_batches=1,
        ec_pipeline_chunks=4,
        nic_latency=8e-6,
    )
    defaults.update(overrides)
    return CostModel(**defaults)


def _is_power_of_two(value):
    return value >= 1 and value & (value - 1) == 0


def _lattice(limit):
    k = 1
    while k <= limit:
        yield k
        k *= 2


# -- the analytic optimum --------------------------------------------------


class TestTuneChunks:
    @settings(max_examples=40, deadline=None)
    @given(
        bottleneck=st.integers(min_value=0, max_value=200_000),
        max_rank=st.integers(min_value=1, max_value=5000),
        overhead_us=st.floats(min_value=1.0, max_value=2000.0),
    )
    def test_power_of_two_within_capacity(
        self, bottleneck, max_rank, overhead_us
    ):
        model = make_model(kernel_overhead=overhead_us * 1e-6)
        sig = make_sig(bottleneck=bottleneck, max_rank=max_rank)
        chunks = model.tune_chunks(sig)
        assert _is_power_of_two(chunks)
        assert chunks <= 64
        assert chunks <= max(1, max_rank)

    @settings(max_examples=40, deadline=None)
    @given(
        bottleneck=st.integers(min_value=1, max_value=200_000),
        max_rank=st.integers(min_value=1, max_value=5000),
        overhead_us=st.floats(min_value=1.0, max_value=2000.0),
    )
    def test_matches_brute_force_argmin(
        self, bottleneck, max_rank, overhead_us
    ):
        """Convexity lets the tuner test only K*'s lattice neighbours; the
        choice must still equal the exhaustive argmin over the lattice."""
        model = make_model(kernel_overhead=overhead_us * 1e-6)
        sig = make_sig(bottleneck=bottleneck, max_rank=max_rank)
        best = min(
            _lattice(min(64, max(1, max_rank))),
            key=lambda k: (model.chunk_time(sig, k), k),
        )
        assert model.tune_chunks(sig) == best

    def test_no_comm_means_one_chunk(self):
        sig = make_sig(bottleneck=0)
        assert make_model().tune_chunks(sig) == 1

    def test_free_launches_hit_the_capacity_cap(self):
        model = make_model(kernel_overhead=0.0)
        assert model.tune_chunks(make_sig(max_rank=3000)) == 64
        # One token per chunk on the hottest rank is the hard ceiling.
        assert model.tune_chunks(make_sig(max_rank=5)) == 4

    def test_max_chunks_caps_the_search(self):
        model = make_model(kernel_overhead=0.0)
        assert model.tune_chunks(make_sig(max_rank=3000), max_chunks=8) == 8

    def test_chunk_prediction_scales_with_count(self):
        """Per-chunk wire time halves when the count doubles; the NIC
        latency floor is paid once per transfer regardless of size."""
        model = make_model()
        sig = make_sig(bottleneck=10_000)
        floor = 2.0 * model.nic_latency
        one = model.a2a_chunk_seconds(sig, 1) - floor
        two = model.a2a_chunk_seconds(sig, 2) - floor
        assert one == pytest.approx(2.0 * two)


# -- plan construction over a live engine ----------------------------------


class TestTuneEngineChunks:
    def _engine(self, strategy, config=None, cluster=None, **kwargs):
        return engine_for(
            strategy,
            config if config is not None else small_config(),
            cluster if cluster is not None else small_cluster(),
            rng=np.random.default_rng(0),
            imbalance=0.3,
            check_memory=False,
            **kwargs,
        )

    def test_pipelined_blocks_get_individual_counts(self):
        plan = tune_engine_chunks(self._engine("pipelined-ec"))
        assert [block for block, _ in plan.block_chunks] == [1, 3]
        assert all(_is_power_of_two(c) for _, c in plan.block_chunks)
        assert plan.micro_batches is None
        assert [block for block, _ in plan.predicted_chunk_s] == [1, 3]
        assert all(seconds > 0 for _, seconds in plan.predicted_chunk_s)

    def test_microbatch_blocks_share_one_global_m(self):
        plan = tune_engine_chunks(self._engine("microbatch-ec"))
        assert plan.block_chunks == ()
        assert plan.micro_batches is not None
        assert _is_power_of_two(plan.micro_batches)
        assert [block for block, _ in plan.predicted_chunk_s] == [1, 3]

    def test_dense_strategies_leave_an_empty_plan(self):
        plan = tune_engine_chunks(self._engine("expert-centric"))
        assert plan.empty

    def test_indivisible_block_is_rejected_at_construction(self):
        """A block whose experts do not split evenly across the world has
        no placement (and no per-worker load aggregate to tune from): the
        engine refuses it up front instead of at the first iteration."""
        config = small_config(experts_per_block={1: 4, 3: 6})
        with pytest.raises(ValueError, match="cannot be evenly placed"):
            self._engine("pipelined-ec", config=config)


# -- engine integration: metrics, switches, controller arming --------------


class TestEngineTuning:
    def _run(self, strategy, iterations=2, features=None, controller=None):
        registry = MetricsRegistry()
        engine = engine_for(
            strategy,
            small_config(),
            small_cluster(),
            rng=np.random.default_rng(0),
            imbalance=0.3,
            features=features,
            controller=controller,
            check_memory=False,
            metrics=registry,
        )
        results = engine.run(iterations)
        return engine, registry, results

    def test_autotuned_run_records_the_tuning_metrics(self):
        engine, registry, _ = self._run(
            "pipelined-ec",
            features=JanusFeatures(chunk_autotune=True),
        )
        assert registry.total("control.chunk_tuning.retunes") == 2
        for block in (1, 3):
            chosen = registry.gauge(
                "control.chunk_tuning.chunks", block=block
            )
            assert chosen is not None and _is_power_of_two(int(chosen))
            assert engine.features.chunks_for(block) == int(chosen)
            assert registry.counter(
                "control.chunk_tuning.measured_chunks", block=block
            ) > 0
            assert registry.gauge(
                "control.chunk_tuning.predicted_chunk_s", block=block
            ) > 0

    def test_untuned_run_records_no_tuning_metrics(self):
        _, registry, _ = self._run("pipelined-ec")
        assert registry.total("control.chunk_tuning.retunes") == 0
        assert registry.gauge("control.chunk_tuning.chunks", block=1) is None

    def test_set_block_chunks_counts_switches_not_refreshes(self):
        engine, registry, _ = self._run("pipelined-ec", iterations=1)
        engine.set_block_chunks(((1, 8), (3, 2)))
        engine.set_block_chunks(((1, 8), (3, 2)))  # no change, no switch
        engine.set_block_chunks(((1, 4), (3, 2)))  # block 1 flips
        assert engine.features.chunks_for(1) == 4
        assert engine.features.chunks_for(3) == 2
        switches = registry.series("control.chunk_tuning.switches")
        assert sum(switches.values()) == 3  # 2 initial sets + 1 flip

    def test_controller_chunks_flag_arms_the_autotuner(self):
        """``chunk_autotune`` is the tuner's one switch: the controller
        has no chunk flag, and with one attached the tuner still re-tunes
        before every iteration."""
        with pytest.raises(TypeError):
            ControlConfig(adapt_chunks=True)
        engine, registry, _ = self._run(
            "pipelined-ec",
            features=JanusFeatures(chunk_autotune=True),
            controller=Controller(policy=ControlPolicy()),
        )
        assert engine.features.chunk_autotune is True
        assert registry.total("control.chunk_tuning.retunes") == 2


# -- report fold -----------------------------------------------------------


class TestBreakdown:
    def test_untouched_registry_folds_to_nothing(self):
        assert chunk_tuning_breakdown(MetricsRegistry()) == {}

    def test_folds_choices_predictions_and_measurements(self):
        registry = MetricsRegistry()
        registry.inc("control.chunk_tuning.retunes")
        registry.set("control.chunk_tuning.chunks", 8, block=1)
        registry.set(
            "control.chunk_tuning.predicted_chunk_s", 0.002, block=1
        )
        registry.inc(
            "control.chunk_tuning.measured_chunk_s", 0.006, block=1
        )
        registry.inc(
            "control.chunk_tuning.measured_chunks", 2, block=1
        )
        registry.inc("control.chunk_tuning.switches", block=1)
        breakdown = chunk_tuning_breakdown(registry)
        assert breakdown["retunes"] == 1
        entry = breakdown["blocks"]["1"]
        assert entry["chunks"] == 8
        assert entry["predicted_chunk_s"] == pytest.approx(0.002)
        assert entry["measured_chunk_s"] == pytest.approx(0.003)
        assert entry["switches"] == 1

    def test_live_report_carries_the_section(self):
        from repro.metrics import build_run_report

        registry = MetricsRegistry()
        engine = engine_for(
            "pipelined-ec",
            small_config(),
            small_cluster(),
            rng=np.random.default_rng(0),
            imbalance=0.3,
            features=JanusFeatures(chunk_autotune=True),
            check_memory=False,
            metrics=registry,
        )
        results = engine.run(1)
        report = build_run_report(results, registry)
        assert report["chunk_tuning"]["retunes"] == 1
        assert set(report["chunk_tuning"]["blocks"]) == {"1", "3"}


# -- calibration: prediction vs. simulated chunk times ---------------------


# (machines, gpus, experts-in-block-1, batch, hidden, seq, seed); block 3
# always gets twice the experts of block 1.  Every shape keeps experts a
# multiple of the world size so the tuner engages on both blocks.
CALIBRATION_SHAPES = (
    (2, 2, 4, 16, 64, 32, 0),
    (2, 4, 8, 32, 128, 64, 1),
    (3, 4, 12, 48, 192, 96, 7),
    (4, 2, 8, 24, 128, 48, 9),
)

# Stated accuracy band for the per-chunk prediction, as a pred/measured
# ratio.  The model is a wire-time + NIC-latency lower bound: it is exact
# on evenly chunked transfers and undershoots when the fluid fabric
# stripes a transfer across fewer effective lanes than the aggregate
# bandwidth assumes (large multi-GPU shapes), hence the asymmetric band.
CALIBRATION_BAND = (0.5, 1.05)


class TestCalibration:
    @pytest.mark.parametrize(
        "machines,gpus,experts,batch,hidden,seq,seed", CALIBRATION_SHAPES
    )
    def test_prediction_within_band(
        self, machines, gpus, experts, batch, hidden, seq, seed
    ):
        config = ModelConfig(
            name="probe",
            batch_size=batch,
            seq_len=seq,
            top_k=2,
            hidden_dim=hidden,
            num_blocks=4,
            experts_per_block={1: experts, 3: 2 * experts},
            num_heads=4,
        )
        registry = MetricsRegistry()
        engine = engine_for(
            "pipelined-ec",
            config,
            Cluster(machines, MachineSpec(num_gpus=gpus)),
            rng=np.random.default_rng(seed),
            imbalance=0.3,
            features=JanusFeatures(chunk_autotune=True),
            check_memory=False,
            metrics=registry,
        )
        engine.run_iteration()
        low, high = CALIBRATION_BAND
        for block in (1, 3):
            predicted = registry.gauge(
                "control.chunk_tuning.predicted_chunk_s", block=block
            )
            total = registry.counter(
                "control.chunk_tuning.measured_chunk_s", block=block
            )
            count = registry.counter(
                "control.chunk_tuning.measured_chunks", block=block
            )
            assert count > 0
            ratio = predicted / (total / count)
            assert low <= ratio <= high, (
                f"block {block}: predicted/measured per-chunk ratio "
                f"{ratio:.3f} outside [{low}, {high}]"
            )


# -- bit-identity ----------------------------------------------------------


def _fingerprint(results):
    return [
        (
            round(result.seconds, 15),
            result.sim_events,
            tuple(result.nic_egress_bytes),
        )
        for result in results
    ]


def _run(mode, features=None, seed=0, iterations=2):
    engine = engine_for(
        mode,
        small_config(),
        small_cluster(),
        rng=np.random.default_rng(seed),
        imbalance=0.3,
        features=features,
        check_memory=False,
    )
    return engine.run(iterations)


class TestBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        mode=st.sampled_from(
            ["expert-centric", "data-centric", "pipelined-ec",
             "microbatch-ec"]
        ),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_disabled_tuning_is_the_legacy_run(self, mode, seed):
        """Spelling out the PR's feature defaults must reproduce the
        default-features run bit for bit, for every paradigm."""
        bare = _run(mode, seed=seed)
        explicit = _run(
            mode,
            seed=seed,
            features=JanusFeatures(
                block_chunks=(),
                chunk_autotune=False,
                a2a_stagger="off",
            ),
        )
        assert _fingerprint(bare) == _fingerprint(explicit)

    @settings(max_examples=6, deadline=None)
    @given(
        mode=st.sampled_from(["pipelined-ec", "microbatch-ec"]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_tuned_run_moves_no_traffic_byte(self, mode, seed):
        """Chunk counts reshape the schedule, never the routed bytes.

        Every chunk carries an exact binary split of the integer routing
        matrix, so the per-machine egress totals agree to the byte; the
        fluid fabric accumulates them as floats in schedule order, so
        only sub-byte IEEE summation noise may differ."""
        untuned = _run(mode, seed=seed)
        tuned = _run(
            mode, seed=seed, features=JanusFeatures(chunk_autotune=True)
        )
        assert [
            tuple(round(b) for b in r.nic_egress_bytes) for r in tuned
        ] == [
            tuple(round(b) for b in r.nic_egress_bytes) for r in untuned
        ]
