"""Unit tests for the cluster hardware and topology model."""

import pytest

from repro.cluster import (
    Cluster,
    Device,
    LinkId,
    LinkSpec,
    MachineSpec,
    a100_machine_spec,
)
from repro.cluster.hardware import GpuSpec
from repro.units import gbps, gbytes_per_s

NAN, INF = float("nan"), float("inf")

# (spec class, keyword arguments, the field the refusal names)
_HOSTILE_SPECS = [
    (LinkSpec, dict(bandwidth=NAN, latency=NAN), "bandwidth"),
    (LinkSpec, dict(bandwidth=INF, latency=0.0), "bandwidth"),
    (LinkSpec, dict(bandwidth=1.0, latency=INF), "latency"),
    (LinkSpec, dict(bandwidth=1.0, latency=NAN), "latency"),
    (GpuSpec, dict(flops=NAN), "flops"),
    (GpuSpec, dict(flops=INF), "flops"),
    (GpuSpec, dict(memory_bytes=NAN), "memory_bytes"),
    (GpuSpec, dict(memory_bytes=0.0), "memory_bytes"),
    (GpuSpec, dict(kernel_overhead=INF), "kernel_overhead"),
    (GpuSpec, dict(kernel_overhead=NAN), "kernel_overhead"),
    (MachineSpec, dict(socket_overhead=NAN), "socket_overhead"),
    (MachineSpec, dict(socket_overhead=INF), "socket_overhead"),
    (MachineSpec, dict(num_gpus=4.0), "num_gpus"),
    (MachineSpec, dict(num_gpus=0), "num_gpus"),
    (MachineSpec, dict(gpus_per_nic=-2), "gpus_per_nic"),
    (MachineSpec, dict(gpus_per_nic=0), "gpus_per_nic"),
    (MachineSpec, dict(gpus_per_nic=2.0), "gpus_per_nic"),
    (MachineSpec, dict(gpus_per_pcie_switch=0), "gpus_per_pcie_switch"),
    (MachineSpec, dict(gpus_per_pcie_switch=-2), "gpus_per_pcie_switch"),
]


@pytest.mark.parametrize(
    "spec, kwargs, name", _HOSTILE_SPECS,
    ids=[f"{spec.__name__}-{'-'.join(f'{k}={v}' for k, v in kwargs.items())}"
         for spec, kwargs, _ in _HOSTILE_SPECS],
)
def test_a_hostile_spec_field_is_refused_by_name(spec, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        spec(**kwargs)


class TestMachineSpec:
    def test_default_matches_paper_testbed(self):
        spec = a100_machine_spec()
        assert spec.num_gpus == 8
        assert spec.num_pcie_switches == 4
        assert spec.num_nics == 4
        assert spec.nvlink.bandwidth == gbytes_per_s(600)
        assert spec.pcie.bandwidth == gbytes_per_s(64)
        assert spec.nic.bandwidth == gbps(200)

    def test_pcie_switch_assignment_pairs_gpus(self):
        spec = a100_machine_spec()
        assert [spec.pcie_switch_of(g) for g in range(8)] == [
            0, 0, 1, 1, 2, 2, 3, 3,
        ]

    def test_nic_assignment_pairs_gpus(self):
        spec = a100_machine_spec()
        assert [spec.nic_of(g) for g in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_rank_bounds_checked(self):
        spec = a100_machine_spec()
        with pytest.raises(ValueError):
            spec.nic_of(8)
        with pytest.raises(ValueError):
            spec.pcie_switch_of(-1)

    def test_indivisible_gpu_count_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec(num_gpus=7)

    def test_negative_socket_overhead_rejected(self):
        with pytest.raises(ValueError):
            MachineSpec(socket_overhead=-1e-6)

    def test_link_spec_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=0, latency=0)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth=1, latency=-1)


class TestDevice:
    def test_factories_and_str(self):
        gpu = Device.gpu(1, 3)
        host = Device.host(2)
        assert str(gpu) == "gpu[1.3]"
        assert str(host) == "host[2]"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Device("tpu", 0, 0)


class TestClusterRanks:
    def test_world_size(self):
        cluster = Cluster(4)
        assert cluster.world_size == 32

    def test_rank_round_trip(self):
        cluster = Cluster(4)
        for machine in range(4):
            for local in range(8):
                rank = machine * cluster.gpus_per_machine + local
                assert cluster.machine_of(rank) == machine
                assert cluster.local_rank_of(rank) == local

    def test_gpu_device_lookup(self):
        cluster = Cluster(2)
        assert cluster.gpu_device(9) == Device.gpu(1, 1)

    def test_gpus_enumeration(self):
        cluster = Cluster(2)
        gpus = list(cluster.gpus())
        assert len(gpus) == 16
        assert gpus[0] == Device.gpu(0, 0)
        assert gpus[-1] == Device.gpu(1, 7)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0)
        cluster = Cluster(1)
        with pytest.raises(ValueError):
            cluster.machine_of(8)


class TestRouting:
    def test_local_copy_has_empty_path(self):
        cluster = Cluster(1)
        gpu = Device.gpu(0, 0)
        assert cluster.route(gpu, gpu) == []

    def test_intra_machine_gpu_to_gpu_uses_nvlink_ports(self):
        cluster = Cluster(1)
        path = cluster.route(Device.gpu(0, 2), Device.gpu(0, 5))
        assert path == [
            LinkId("nvlink", 0, 2, "out"),
            LinkId("nvlink", 0, 5, "in"),
        ]

    def test_gpu_to_host_goes_through_its_pcie_switch(self):
        cluster = Cluster(1)
        path = cluster.route(Device.gpu(0, 5), Device.host(0))
        assert path == [
            LinkId("pcie_gpu", 0, 5, "out"),
            LinkId("pcie_up", 0, 2, "out"),
        ]

    def test_host_to_gpu_reverses_pcie_direction(self):
        cluster = Cluster(1)
        path = cluster.route(Device.host(0), Device.gpu(0, 5))
        assert path == [
            LinkId("pcie_up", 0, 2, "in"),
            LinkId("pcie_gpu", 0, 5, "in"),
        ]

    def test_cross_machine_gpu_route_uses_pair_nics(self):
        cluster = Cluster(2)
        path = cluster.route(Device.gpu(0, 6), Device.gpu(1, 1))
        assert path == [
            LinkId("nic", 0, 3, "out"),
            LinkId("nic", 1, 0, "in"),
        ]

    def test_cross_machine_host_route_defaults_to_nic0(self):
        cluster = Cluster(2)
        path = cluster.route(Device.host(0), Device.host(1))
        assert path == [
            LinkId("nic", 0, 0, "out"),
            LinkId("nic", 1, 0, "in"),
        ]

    def test_nic_override(self):
        cluster = Cluster(2)
        path = cluster.route(Device.host(0), Device.host(1), nic_index=2)
        assert path == [
            LinkId("nic", 0, 2, "out"),
            LinkId("nic", 1, 2, "in"),
        ]

    def test_nic_override_out_of_range_rejected(self):
        cluster = Cluster(2)
        with pytest.raises(ValueError):
            cluster.route(Device.host(0), Device.host(1), nic_index=4)

    def test_link_enumeration_counts(self):
        cluster = Cluster(2)
        links = list(cluster.iter_links())
        # Per machine: 8 GPUs x 2 dirs x (nvlink + pcie_gpu) = 32,
        # 4 pcie_up x 2 = 8, 4 nics x 2 = 8 -> 48; two machines -> 96.
        assert len(links) == 96
        ids = [link_id for link_id, _, _ in links]
        assert len(set(ids)) == len(ids)

    def test_link_ids_validate_fields(self):
        with pytest.raises(ValueError):
            LinkId("wifi", 0, 0, "out")
        with pytest.raises(ValueError):
            LinkId("nic", 0, 0, "sideways")
