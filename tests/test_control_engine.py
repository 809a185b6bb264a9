"""Integration tests of the control plane against the timed engines.

The headline property (hypothesis-driven): with drift off and faults off,
attaching a controller is *bit-identical* to not attaching one — same
simulated seconds, same event counts, same NIC byte totals.  The rest
covers the drift trajectory's determinism, replica-sync accounting, the
fault-arm-only controller, the adaptive switch end-to-end, and the CLI
flags.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster import Cluster
from repro.config import moe_gpt
from repro.control import ControlConfig, Controller, ControlPolicy
from repro.core import JanusFeatures, build_workload, engine_for
from repro.faults import DegradationPolicy
from repro.metrics import MetricsRegistry
from repro.workloads import DriftSpec, apply_drift

from tests.conftest import fault_arm_controller


def _run(mode, *, experts=16, iterations=2, controller=None, **kwargs):
    config = moe_gpt(experts)
    cluster = Cluster(2)
    engine = engine_for(
        mode, config, cluster, controller=controller, check_memory=False,
        **kwargs,
    )
    return engine, engine.run(iterations)


def _fingerprint(results):
    return [
        (
            round(result.seconds, 15),
            result.sim_events,
            tuple(result.nic_egress_bytes),
            tuple(sorted(result.strategies.items())),
        )
        for result in results
    ]


class TestBitIdentity:
    @settings(max_examples=4, deadline=None)
    @given(
        mode=st.sampled_from(["unified", "data-centric", "microbatch-ec"]),
        iterations=st.integers(min_value=1, max_value=2),
    )
    def test_idle_controller_is_bit_identical(self, mode, iterations):
        """Drift off + faults off => the controller must not perturb the
        simulation in any observable way."""
        _, bare = _run(mode, iterations=iterations)
        controller = Controller(policy=ControlPolicy())
        _, controlled = _run(
            mode, iterations=iterations, controller=controller
        )
        assert _fingerprint(bare) == _fingerprint(controlled)
        assert controller.switch_count == 0
        assert all(decision.empty for decision in controller.decisions)

    def test_static_drift_without_skew_still_redraws_routing(self):
        """A zero-skew drift spec keeps popularity uniform but re-draws the
        multinomial routing, so it is *not* expected to be bit-identical —
        only deterministic."""
        drift = DriftSpec(kind="static", skew=0.0, seed=3)
        _, first = _run("unified", controller=Controller(drift=drift))
        _, second = _run("unified", controller=Controller(drift=drift))
        assert _fingerprint(first) == _fingerprint(second)


class TestDriftTrajectory:
    def test_apply_drift_is_call_order_independent(self):
        config = moe_gpt(16)
        cluster = Cluster(2)
        spec = DriftSpec(kind="rotate", skew=1.5, period=1, seed=4)

        stepped = build_workload(config, cluster)
        for iteration in range(4):
            apply_drift(stepped, spec, iteration)

        jumped = build_workload(config, cluster)
        apply_drift(jumped, spec, 3)

        for mine, theirs in zip(stepped.moe_blocks(), jumped.moe_blocks()):
            np.testing.assert_array_equal(mine.routing, theirs.routing)

    def test_drift_preserves_token_totals(self):
        config = moe_gpt(16)
        workload = build_workload(config, Cluster(2))
        before = [block.routing.sum(axis=1).copy()
                  for block in workload.moe_blocks()]
        apply_drift(workload, DriftSpec(kind="flip", skew=1.6, period=1), 1)
        for block, totals in zip(workload.moe_blocks(), before):
            # Every worker still routes its full token budget.
            np.testing.assert_array_equal(block.routing.sum(axis=1), totals)

    def test_skew_moves_machine_imbalance(self):
        config = moe_gpt(16)
        workload = build_workload(config, Cluster(2))
        balanced = [block.routing.copy() for block in workload.moe_blocks()]
        apply_drift(workload, DriftSpec(kind="static", skew=1.6, seed=5), 0)
        changed = any(
            not np.array_equal(block.routing, keep)
            for block, keep in zip(workload.moe_blocks(), balanced)
        )
        assert changed


class TestReplicaSync:
    def test_replica_sync_pays_bytes_and_is_metered(self):
        config = moe_gpt(16)
        cluster = Cluster(2)
        registry = MetricsRegistry()
        engine = engine_for(
            "data-centric", config, cluster, metrics=registry,
            check_memory=False,
        )
        # Expert 0 lives on machine 0; replicate it onto machine 1.
        engine.replicas = {10: {0: (1,)}}
        result = engine.run_iteration()
        assert result.seconds > 0
        synced = registry.series("control.replica_syncs")
        assert sum(synced.values()) == 1
        assert dict(next(iter(synced)))["machine"] == 1
        # The background refresh occupies a traced comm lane.
        assert result.trace.busy_union("comm.replica") > 0

    def test_replica_on_home_machine_is_skipped(self):
        engine = engine_for(
            "data-centric", moe_gpt(16), Cluster(2),
            metrics=(registry := MetricsRegistry()), check_memory=False,
        )
        engine.replicas = {10: {0: (0,)}}       # machine 0 already owns it
        engine.run_iteration()
        assert registry.series("control.replica_syncs") == {}


class TestAutoWrap:
    """The fault arm reaches the engine only inside a controller."""

    def test_recover_after_clean_wraps_a_controller(self):
        controller = fault_arm_controller(
            DegradationPolicy(recover_after_clean=2)
        )
        engine = engine_for(
            "unified", moe_gpt(16), Cluster(2), controller=controller,
            check_memory=False,
        )
        assert engine.controller is controller
        policy = engine.controller.policy
        assert policy.degradation.recover_after_clean == 2
        # The wrap is fault-arm only: no load/replica adaptation sneaks in.
        assert policy.config.adapt_load is False
        assert policy.config.adapt_replicas is False

    def test_one_way_degradation_wraps_a_controller(self):
        controller = fault_arm_controller(DegradationPolicy())
        engine = engine_for(
            "unified", moe_gpt(16), Cluster(2), controller=controller,
            check_memory=False,
        )
        assert engine.controller is controller
        policy = engine.controller.policy
        assert policy.degradation.recover_after_clean is None
        assert policy.config.adapt_load is False
        assert policy.config.adapt_replicas is False


class TestAdaptiveEndToEnd:
    def test_load_switch_fires_under_flip_drift(self):
        """On the crossover shape the controller must leave the static
        schedule for data-centric when the skewed phase arrives (the
        BENCH_control structural win, in miniature)."""
        config = moe_gpt(32).scaled(batch_size=64)
        cluster = Cluster(2)
        controller = Controller(
            policy=ControlPolicy(
                config=ControlConfig(recover_after_clean=1)
            ),
            drift=DriftSpec(kind="flip", skew=1.5, period=2, seed=7),
        )
        engine = engine_for(
            "auto", config, cluster, threshold=1.5, controller=controller,
            features=JanusFeatures(micro_batches=4, grad_allreduce="overlap"),
            check_memory=False,
        )
        results = engine.run(4)
        causes = [
            cause
            for decision in controller.decisions
            for cause in decision.causes.values()
        ]
        assert "load" in causes
        # Iterations 2-3 (the skewed phase) ran data-centric.
        assert results[2].strategies[10] == "data-centric"
        assert results[0].strategies[10] == "microbatch-ec"


class TestCli:
    def test_simulate_with_drift_and_control(self, capsys):
        rc = main([
            "simulate", "--machines", "2", "--experts", "16",
            "--paradigm", "unified", "--iterations", "2",
            "--drift", "flip;skew=1.5;period=1;seed=3",
            "--control", "adaptive;replicas=off",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "over 2 iterations" in out
        assert "control:" in out

    def test_simulate_rejects_bad_specs(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--drift", "spiral"])
        with pytest.raises(SystemExit):
            main(["simulate", "--control", "bogus=1"])

    def test_inference_excludes_iterations(self, capsys):
        rc = main([
            "simulate", "--machines", "2", "--experts", "16",
            "--inference", "--iterations", "3",
        ])
        assert rc == 2
