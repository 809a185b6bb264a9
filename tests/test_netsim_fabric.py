"""Tests for the fabric, collectives and goodput harness."""

import pytest

from repro.cluster import Cluster, Device
from repro.netsim import (
    Fabric,
    all_to_all,
    measure_all_to_all_goodput,
    uniform_matrix,
)
from repro.simkit import Environment
from repro.units import gbytes_per_s


def make_fabric(num_machines=2):
    env = Environment()
    cluster = Cluster(num_machines)
    return env, cluster, Fabric(env, cluster)


def a2a_seconds(env, fabric, matrix):
    """Simulated seconds one ``all_to_all`` of ``matrix`` takes from now."""
    start = env.now
    env.run(until=all_to_all(fabric, matrix))
    return env.now - start


class TestFabric:
    def test_intra_machine_transfer_uses_nvlink_speed(self):
        env, cluster, fabric = make_fabric(1)
        size = gbytes_per_s(600)  # one second of NVLink
        flow = fabric.transfer(Device.gpu(0, 0), Device.gpu(0, 1), size)

        def driver():
            yield flow.done

        env.run(until=env.process(driver()))
        latency = fabric.path_latency(flow.path)
        assert env.now == pytest.approx(1.0 + latency)

    def test_cross_machine_transfer_is_nic_bound(self):
        env, cluster, fabric = make_fabric(2)
        nic_bw = cluster.spec.nic.bandwidth
        flow = fabric.transfer(Device.gpu(0, 0), Device.gpu(1, 0), nic_bw)

        def driver():
            yield flow.done

        env.run(until=env.process(driver()))
        assert env.now == pytest.approx(1.0, rel=1e-3)

    def test_compute_stream_serializes_kernels(self):
        env, cluster, fabric = make_fabric(1)
        gpu = Device.gpu(0, 0)
        ends = []

        def kernel(duration):
            yield env.process(fabric.compute(gpu, duration))
            ends.append(env.now)

        env.process(kernel(2.0))
        env.process(kernel(3.0))
        env.run()
        assert ends == [2.0, 5.0]

    def test_compute_on_host_rejected(self):
        env, cluster, fabric = make_fabric(1)
        with pytest.raises(ValueError):
            list(fabric.compute(Device.host(0), 1.0))

    @pytest.mark.parametrize("seconds", [-1.0, float("inf"), float("nan")])
    def test_compute_rejects_a_non_finite_or_negative_time(self, seconds):
        env, cluster, fabric = make_fabric(1)
        process = env.process(fabric.compute(Device.gpu(0, 0), seconds))
        with pytest.raises(ValueError, match="finite and non-negative, got"):
            env.run(until=process)
        assert env.now == 0.0

    def test_nic_byte_accounting(self):
        env, cluster, fabric = make_fabric(2)
        flow = fabric.transfer(Device.gpu(0, 0), Device.gpu(1, 0), 1e9)

        def driver():
            yield flow.done

        env.run(until=env.process(driver()))
        assert fabric.nic_bytes(0, "out") == pytest.approx(1e9)
        assert fabric.nic_bytes(1, "in") == pytest.approx(1e9)
        assert sum(fabric.nic_bytes(m, "out") for m in range(2)) == (
            pytest.approx(1e9)
        )


class TestAllToAll:
    def test_uniform_matrix_shape_and_diagonal(self):
        matrix = uniform_matrix(4, 100.0)
        assert matrix.shape == (4, 4)
        assert matrix.diagonal().sum() == 0
        assert matrix.sum() == pytest.approx(12 * 100.0)

    @pytest.mark.parametrize("world_size", [2.5, 2.0, 0, -1, "4", None])
    def test_uniform_matrix_refuses_a_non_positive_or_fractional_size(
        self, world_size
    ):
        with pytest.raises(
            ValueError, match="world_size must be a positive integer"
        ):
            uniform_matrix(world_size, 1.0)

    def test_wrong_matrix_shape_rejected(self):
        env, cluster, fabric = make_fabric(1)
        with pytest.raises(ValueError):
            all_to_all(fabric, uniform_matrix(4, 1.0))

    def test_negative_entries_rejected(self):
        env, cluster, fabric = make_fabric(1)
        matrix = uniform_matrix(8, 1.0)
        matrix[0, 1] = -1
        with pytest.raises(ValueError):
            all_to_all(fabric, matrix)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("hierarchical", [True, False])
    def test_non_finite_entries_rejected_before_any_flow(self, bad,
                                                         hierarchical):
        env, cluster, fabric = make_fabric(2)
        matrix = uniform_matrix(cluster.world_size, 1e3)
        # The last cross-machine pair: every other flow would start first.
        matrix[-1, cluster.gpus_per_machine - 1] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            all_to_all(fabric, matrix, hierarchical=hierarchical)
        assert env.peek() == float("inf")

    def test_intra_machine_all_to_all_completes(self):
        env, cluster, fabric = make_fabric(1)
        matrix = uniform_matrix(8, 1e6)
        elapsed = a2a_seconds(env, fabric, matrix)
        assert elapsed > 0

    def test_inter_machine_all_to_all_is_nic_bound(self):
        env, cluster, fabric = make_fabric(2)
        per_pair = 1e6
        matrix = uniform_matrix(16, per_pair)
        elapsed = a2a_seconds(env, fabric, matrix)
        # Each machine sends 8*8 pair-payloads to the other machine,
        # split over 4 NICs.
        cross = 64 * per_pair
        expected = cross / 4 / cluster.spec.nic.bandwidth
        assert elapsed == pytest.approx(expected, rel=0.05)

    def test_flat_mode_same_traffic_slower_or_equal_under_skew(self):
        env1 = Environment()
        cluster = Cluster(2)
        fabric1 = Fabric(env1, cluster)
        matrix = uniform_matrix(16, 1e6)
        matrix[0, 8:] = 2e7  # rank 0 sends heavily -> its NIC is a hotspot

        def run(fabric, env, hierarchical):
            done = all_to_all(fabric, matrix, hierarchical=hierarchical)

            def driver():
                yield done

            env.run(until=env.process(driver()))
            return env.now

        t_hier = run(fabric1, env1, True)
        env2 = Environment()
        fabric2 = Fabric(env2, cluster)
        t_flat = run(fabric2, env2, False)
        assert t_flat > t_hier
        machines = range(cluster.num_machines)
        assert sum(fabric1.nic_bytes(m, "out") for m in machines) == (
            pytest.approx(sum(fabric2.nic_bytes(m, "out") for m in machines))
        )

    def test_flat_mode_uniform_matrix_completes(self):
        env = Environment()
        fabric = Fabric(env, Cluster(2))
        done = all_to_all(fabric, uniform_matrix(16, 1e5), hierarchical=False)

        def driver():
            yield done

        env.run(until=env.process(driver()))
        assert env.now > 0

    def test_imbalanced_all_to_all_waits_for_busiest(self):
        env, cluster, fabric = make_fabric(2)
        matrix = uniform_matrix(16, 1e5)
        matrix[0, 8] = 1e8  # one heavy cross-machine pair
        elapsed = a2a_seconds(env, fabric, matrix)
        heavy_bytes = matrix[0:8, 8:16].sum() / cluster.spec.num_nics
        min_expected = heavy_bytes / cluster.spec.nic.bandwidth
        assert elapsed >= min_expected * 0.99


class TestGoodput:
    def test_intra_machine_beats_inter_machine(self):
        intra = measure_all_to_all_goodput(1, payload_bytes_per_pair=8e6)
        inter = measure_all_to_all_goodput(4, payload_bytes_per_pair=8e6)
        assert intra.goodput_gbps > 5 * inter.goodput_gbps

    def test_result_fields(self):
        result = measure_all_to_all_goodput(1, payload_bytes_per_pair=1e6, rounds=2)
        assert result.num_machines == 1
        assert result.total_bytes == pytest.approx(2 * 56 * 1e6)
        assert result.elapsed_seconds > 0

    def test_invalid_rounds_rejected(self):
        for rounds in (0, -1, 2.0, 1.5, "2", None):
            with pytest.raises(
                ValueError, match="rounds must be a positive integer"
            ):
                measure_all_to_all_goodput(1, rounds=rounds)

    @pytest.mark.parametrize("payload", [0.0, -1e6, float("nan"), float("inf")])
    def test_invalid_payload_rejected(self, payload):
        # A zero payload would report 0/0 = nan Gbps.
        with pytest.raises(ValueError, match="payload"):
            measure_all_to_all_goodput(1, payload_bytes_per_pair=payload)
