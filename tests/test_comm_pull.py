"""Tests for the §6 pull-based communication substrate."""

import pytest

from repro.cluster import Cluster, Device
from repro.comm import (
    ControlPlane,
    PullFailedError,
    PullRequest,
    PullTransport,
)
from repro.comm.endpoint import SOCKET_OVERHEAD_S
from repro.netsim import Fabric
from repro.simkit import AllOf, Environment, StalledSimulationError


def make_transport(machines=2):
    env = Environment()
    cluster = Cluster(machines)
    fabric = Fabric(env, cluster)
    return env, cluster, fabric, PullTransport(fabric)


class TestControlPlane:
    def test_message_delivered_to_endpoint(self):
        env, cluster, fabric, transport = make_transport()
        plane = transport.plane
        target = Device.gpu(1, 0)
        request = PullRequest(
            sender=Device.gpu(0, 0), receiver=target, key="x",
            payload_bytes=100,
        )
        received = []

        def listener():
            message = yield plane.endpoint(target).recv()
            received.append((env.now, message))

        env.process(listener())
        plane.send(request)
        env.run()
        assert received
        arrival, message = received[0]
        assert message.key == "x"
        # Arrival pays link latency + socket overhead.
        assert arrival > SOCKET_OVERHEAD_S

    def test_messages_queue_in_order(self):
        env, cluster, fabric, transport = make_transport()
        plane = transport.plane
        target = Device.gpu(0, 1)
        seen = []

        def listener():
            for _ in range(3):
                message = yield plane.endpoint(target).recv()
                seen.append(message.key)

        env.process(listener())
        for key in ("a", "b", "c"):
            plane.send(PullRequest(
                sender=Device.gpu(0, 0), receiver=target, key=key,
            ))
        env.run()
        assert seen == ["a", "b", "c"]

    def test_negative_overhead_rejected(self):
        env, cluster, fabric, _ = make_transport()
        with pytest.raises(ValueError):
            ControlPlane(fabric, socket_overhead=-1)


class TestPullTransport:
    def test_pull_round_trip_time(self):
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        transport.serve(server_device)
        size = 25e9 * 0.01  # 10 ms of NIC time
        done = transport.pull(Device.gpu(0, 0), server_device, size, key="e0")
        env.run(until=done)
        data_time = size / cluster.spec.nic.bandwidth
        # Control leg + socket overhead + data leg (plus link latencies).
        assert env.now > data_time
        assert env.now < data_time + 1e-3

    def test_pull_without_server_never_completes(self):
        env, cluster, fabric, transport = make_transport()
        done = transport.pull(Device.gpu(0, 0), Device.gpu(1, 0), 1e6)
        env.run()  # drains every scheduled event
        assert not done.triggered

    def test_concurrent_pulls_from_one_server_share_bandwidth(self):
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        transport.serve(server_device)
        size = 25e9 * 0.01
        pulls = [
            transport.pull(Device.gpu(0, g), server_device, size, key=g)
            for g in range(2)
        ]

        def driver():
            yield AllOf(env, pulls)

        env.run(until=env.process(driver()))
        # Both payloads leave through the server's NIC: ~2x the solo time.
        solo = size / cluster.spec.nic.bandwidth
        assert env.now > 1.8 * solo

    def test_server_concurrency_limit_serializes(self):
        env, cluster, fabric, transport = make_transport(machines=1)
        server_device = Device.gpu(0, 0)
        server = transport.serve(server_device, concurrency=1)
        size = 600e9 * 0.001  # 1 ms of NVLink
        pulls = [
            transport.pull(Device.gpu(0, g), server_device, size, key=g)
            for g in (1, 2, 3)
        ]

        def driver():
            yield AllOf(env, pulls)

        env.run(until=env.process(driver()))
        solo = size / cluster.spec.nvlink.bandwidth
        # Sequential service: at least 3x the solo data time.
        assert env.now >= 3 * solo
        assert server.served == 3

    def test_push_delivers_payload(self):
        env, cluster, fabric, transport = make_transport()
        done = transport.push(
            Device.gpu(0, 0), Device.gpu(1, 0), 1e6, key="grad"
        )
        env.run(until=done)
        assert fabric.nic_bytes(0, "out") >= 1e6

    def test_serve_is_idempotent(self):
        env, cluster, fabric, transport = make_transport()
        a = transport.serve(Device.gpu(0, 0))
        b = transport.serve(Device.gpu(0, 0))
        assert a is b

    def test_invalid_sizes_rejected(self):
        env, cluster, fabric, transport = make_transport()
        with pytest.raises(ValueError):
            transport.pull(Device.gpu(0, 0), Device.gpu(1, 0), -1)
        with pytest.raises(ValueError):
            transport.push(Device.gpu(0, 0), Device.gpu(1, 0), -1)
        with pytest.raises(ValueError):
            transport.serve(Device.gpu(0, 1), concurrency=0)

    def test_pull_pipeline_like_inter_scheduler(self):
        """A chain of sequential pulls mirrors the Inter-Node Scheduler's
        fine-grained fetch behaviour."""
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        transport.serve(server_device)
        completions = []

        def chain():
            for key in range(4):
                done = transport.pull(
                    Device.gpu(0, 0), server_device, 1e7, key=key
                )
                yield done
                completions.append(env.now)

        env.run(until=env.process(chain()))
        assert len(completions) == 4
        assert completions == sorted(completions)
        gaps = [b - a for a, b in zip(completions, completions[1:])]
        # Steady-state pull cadence is roughly uniform.
        assert max(gaps) < 2.5 * min(gaps)


class TestPullRetry:
    def test_pull_with_timeout_succeeds_after_server_resumes(self):
        """A paused server drops no requests; the requester's retries ride
        out the outage and the pull completes once the server resumes."""
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        server = transport.serve(server_device)
        server.pause()

        def unpause():
            yield env.timeout(0.005)
            server.resume()

        env.process(unpause(), daemon=True)
        done = transport.pull(
            Device.gpu(0, 0), server_device, 1e6, key="e0",
            timeout=0.002, max_retries=4,
        )
        env.run(until=done)
        assert env.now > 0.005
        assert server.served >= 1
        assert transport.retries >= 1
        assert transport.failures == 0

    def test_pull_exhausting_retries_raises_pull_failed(self):
        env, cluster, fabric, transport = make_transport()
        done = transport.pull(
            Device.gpu(0, 0), Device.gpu(1, 0), 1e6, key="e0",
            timeout=0.001, max_retries=2, backoff=2.0,
        )

        def driver():
            with pytest.raises(PullFailedError) as excinfo:
                yield done
            assert excinfo.value.attempts == 3

        env.run(until=env.process(driver()))
        # Exponential backoff: 1 + 2 + 4 ms of waiting.
        assert env.now == pytest.approx(0.007)
        assert transport.retries == 2
        assert transport.failures == 1

    def test_dropping_server_fails_pull(self):
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        server = transport.serve(server_device)
        server.set_dropping(True)
        done = transport.pull(
            Device.gpu(0, 0), server_device, 1e6, key="e0",
            timeout=0.001, max_retries=1,
        )

        def driver():
            with pytest.raises(PullFailedError):
                yield done

        env.run(until=env.process(driver()))
        assert server.dropped == 2  # both attempts discarded
        assert server.served == 0

    def test_invalid_retry_arguments_rejected(self):
        env, cluster, fabric, transport = make_transport()
        requester, target = Device.gpu(0, 0), Device.gpu(1, 0)
        with pytest.raises(ValueError):
            transport.pull(requester, target, 1e6, timeout=0.0)
        with pytest.raises(ValueError):
            transport.pull(requester, target, 1e6, timeout=1.0, max_retries=-1)
        with pytest.raises(ValueError):
            transport.pull(requester, target, 1e6, timeout=1.0, backoff=0.9)


class TestPullServerHardening:
    def test_malformed_and_foreign_messages_counted(self):
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        server = transport.serve(server_device)
        endpoint = transport.plane.endpoint(server_device)
        from repro.comm import GradPush

        endpoint._deliver("not a control message")
        endpoint._deliver(GradPush(
            sender=Device.gpu(0, 0), receiver=server_device, key="g",
        ))
        env.run()
        assert server.malformed == 1
        assert server.ignored == 1
        assert server.served == 0

    def test_interrupted_serve_releases_concurrency_slot(self):
        """An injected outage mid-serve frees the Resource slot: the next
        request is served instead of queueing forever behind a dead slot."""
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        server = transport.serve(server_device, concurrency=1)
        size = 25e9 * 0.01  # 10 ms of NIC time
        first = transport.pull(
            Device.gpu(0, 0), server_device, size, key="a",
            timeout=0.5, max_retries=0,
        )

        def outage():
            yield env.timeout(0.002)  # first serve is mid-transfer
            server.interrupt_inflight()

        env.process(outage(), daemon=True)

        def second_pull():
            yield env.timeout(0.004)
            done = transport.pull(
                Device.gpu(0, 1), server_device, 1e6, key="b",
                timeout=0.5, max_retries=0,
            )
            yield done

        proc = env.process(second_pull())
        env.run(until=proc)
        assert server.dropped == 1      # the interrupted serve
        assert server.served >= 1       # the follow-up got the slot
        assert server._slots.count == 0
        assert not first.processed      # requester 'a' is still waiting

    def test_outage_in_the_spawn_instant_drops_the_serve(self, monkeypatch):
        """An outage landing in the instant a serve is spawned interrupts
        it before its first resume: the serve counts as dropped, nothing
        escapes the run, and the requester's retry gets the payload."""
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        server = transport.serve(server_device)
        endpoint = transport.plane.endpoint(server_device)
        deliver = endpoint._deliver

        def outage():
            # Starts after the listen loop has spawned this instant's serve.
            server.interrupt_inflight()
            yield env.timeout(0)

        def deliver_into_outage(message):
            monkeypatch.setattr(endpoint, "_deliver", deliver)
            deliver(message)
            env.process(outage())

        monkeypatch.setattr(endpoint, "_deliver", deliver_into_outage)
        done = transport.pull(
            Device.gpu(0, 0), server_device, 1e6, key="e0",
            timeout=0.002, max_retries=1,
        )
        env.run(until=done)
        assert server.dropped == 1
        assert server.served == 1
        assert transport.retries == 1
        assert transport.failures == 0
        assert not server._inflight

    def test_pause_queues_requests_until_resume(self):
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        server = transport.serve(server_device)
        server.pause()
        done = transport.pull(Device.gpu(0, 0), server_device, 1e6, key="q")

        def driver():
            yield env.timeout(0.01)
            assert not done.triggered  # parked behind the pause
            server.resume()
            yield done

        env.run(until=env.process(driver()))
        assert server.served == 1
        assert server.dropped == 0


class TestStallDiagnostics:
    def test_unserved_pull_wait_raises_stalled_simulation(self):
        """The ISSUE regression: a process waiting on a pull to a device
        that was never serve()d must be named in a StalledSimulationError
        instead of env.run() silently returning."""
        env, cluster, fabric, transport = make_transport()
        done = transport.pull(Device.gpu(0, 0), Device.gpu(1, 0), 1e6)

        def waiter():
            yield done

        env.process(waiter(), name="stuck-puller")
        with pytest.raises(StalledSimulationError) as excinfo:
            env.run()
        assert "stuck-puller" in str(excinfo.value)
        assert any(
            proc.name == "stuck-puller" for proc in excinfo.value.processes
        )

    def test_run_until_unreachable_event_raises(self):
        env, cluster, fabric, transport = make_transport()
        done = transport.pull(Device.gpu(0, 0), Device.gpu(1, 0), 1e6)
        with pytest.raises(StalledSimulationError):
            env.run(until=done)

    def test_daemon_listeners_do_not_trip_stall_detection(self):
        """A serving transport leaves its listener blocked on recv()
        forever; plain env.run() must still drain cleanly."""
        env, cluster, fabric, transport = make_transport()
        server_device = Device.gpu(1, 0)
        transport.serve(server_device)
        done = transport.pull(Device.gpu(0, 0), server_device, 1e6, key="x")
        env.run()  # no StalledSimulationError despite the listen loop
        assert done.triggered
