"""The pull primitive: control-plane request + data-plane response (§6).

``PullTransport.pull`` implements exactly the sequence the paper describes:
"the requester sends a request to the target worker through the socket, and
calls the recv API to receive data.  The target worker listens to the port
of the socket all the time.  After receiving the request, the target worker
calls the send API to send data to the requester through the RDMA
connection."

A :class:`PullServer` runs per serving device: it drains the device's
endpoint mailbox and issues the data-plane transfer for each request,
optionally bounded by a service concurrency (how many outstanding RDMA
sends the worker drives at once).

Resilience: by default a pull to a non-serving device never completes,
exactly like a real socket with no listener.  Passing ``timeout`` to
:meth:`PullTransport.pull` arms a per-attempt timer with bounded retries
and exponential backoff; exhausting the retry budget raises the terminal
:class:`PullFailedError` in the waiting process instead of hanging the
simulation.  Servers can be paused (stop draining), told to drop requests
(outage), and have in-flight serves interrupted — the fault injector uses
these hooks, and the hardened server keeps ``served``/``dropped``/
``ignored``/``malformed`` counters either way.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from ..cluster import Device
from ..netsim import Fabric
from ..simkit import AnyOf, Event, Interrupt, Process, Resource
from .endpoint import ControlPlane
from .messages import ControlMessage, GradPush, PullRequest

__all__ = ["PullFailedError", "PullServer", "PullTransport"]


class PullFailedError(Exception):
    """A pull exhausted its retry budget without receiving the payload."""

    def __init__(self, requester, target, key, attempts: int):
        self.requester = requester
        self.target = target
        self.key = key
        self.attempts = attempts
        super().__init__(
            f"pull {key!r} from {target} to {requester} failed "
            f"after {attempts} attempt(s)"
        )


class PullServer:
    """Serves pull requests arriving at one device's endpoint."""

    def __init__(
        self,
        transport: "PullTransport",
        device: Device,
        concurrency: Optional[int] = None,
    ):
        if concurrency is not None and concurrency <= 0:
            raise ValueError("concurrency must be positive")
        self.transport = transport
        self.device = device
        self.served = 0
        self.dropped = 0
        self.ignored = 0
        self.malformed = 0
        env = transport.fabric.env
        self._slots = (
            Resource(env, capacity=concurrency) if concurrency else None
        )
        self._dropping = False
        self._resume_event: Optional[Event] = None
        self._inflight: Set[Process] = set()
        # The listen loop blocks on recv() forever by design; daemon=True
        # keeps it out of stalled-simulation diagnostics.
        self._process = env.process(
            self._listen(), name=f"pull-server[{device}]", daemon=True
        )

    # -- outage hooks --------------------------------------------------------

    @property
    def paused(self) -> bool:
        return self._resume_event is not None

    def pause(self) -> None:
        """Stop draining the endpoint; requests queue until :meth:`resume`."""
        if self._resume_event is None:
            self._resume_event = self.transport.fabric.env.event()

    def resume(self) -> None:
        if self._resume_event is not None:
            event, self._resume_event = self._resume_event, None
            event.succeed()

    def set_dropping(self, dropping: bool) -> None:
        """While dropping, incoming requests are discarded (and counted)."""
        self._dropping = bool(dropping)

    def interrupt_inflight(self) -> None:
        """Abort every serve currently in flight (requester sees nothing)."""
        for proc in list(self._inflight):
            if proc.is_alive:
                proc.interrupt("server outage")

    # -- serving -------------------------------------------------------------

    def _listen(self):
        endpoint = self.transport.plane.endpoint(self.device)
        env = self.transport.fabric.env
        while True:
            message = yield endpoint.recv()
            if self._resume_event is not None:
                yield self._resume_event
            if not isinstance(message, ControlMessage):
                self.malformed += 1
                continue
            if not isinstance(message, PullRequest):
                self.ignored += 1
                continue  # pushes etc. are handled by their own waiters
            if self._dropping:
                self.dropped += 1
                continue
            proc = env.process(
                self._serve(message),
                name=f"pull-serve[{message.key}]",
                daemon=True,
            )
            self._inflight.add(proc)
            # The completion event IS the process, so a bound method can
            # serve as the callback directly — no closure per serve.
            proc.callbacks.append(self._retire)

    def _retire(self, proc: Process) -> None:
        self._inflight.discard(proc)
        if isinstance(proc._exception, Interrupt):
            # Interrupted in the instant it was spawned, before its first
            # resume: a generator cannot catch what is thrown in before it
            # starts, so the serve failed with the Interrupt itself.
            proc.defuse()
            self.dropped += 1

    def _serve(self, request: PullRequest):
        try:
            if self._slots is not None:
                with self._slots.request() as slot:
                    yield slot
                    yield from self._send_payload(request)
            else:
                yield from self._send_payload(request)
        except Interrupt:
            # The with-block (or request.cancel) released the slot; the
            # requester's retry timer is its path to recovery.
            self.dropped += 1

    def _send_payload(self, request: PullRequest):
        flow = self.transport.fabric.transfer(
            self.device,
            request.sender,
            request.payload_bytes,
            tag=("pull-data", request.key),
        )
        yield flow.done
        self.served += 1
        self.transport._complete(request.message_id)


class PullTransport:
    """Pull/push primitives over a fabric + control plane."""

    def __init__(
        self,
        fabric: Fabric,
        plane: Optional[ControlPlane] = None,
        metrics=None,
    ):
        """``metrics`` (a :class:`~repro.metrics.MetricsRegistry`) mirrors
        the transport's counters into the observability layer: requests
        issued/completed, retries, failures and end-to-end pull latency."""
        self.fabric = fabric
        self.plane = plane if plane is not None else ControlPlane(fabric)
        self.metrics = metrics
        self._servers: Dict[Device, PullServer] = {}
        # message_id -> (completion event, request time).
        self._pending: Dict[int, tuple] = {}
        self.retries = 0
        self.failures = 0

    def serve(self, device: Device, concurrency: Optional[int] = None) -> PullServer:
        """Start (or return) the pull server for ``device``."""
        if device not in self._servers:
            self._servers[device] = PullServer(self, device, concurrency)
        return self._servers[device]

    def server(self, device: Device) -> Optional[PullServer]:
        return self._servers.get(device)

    @property
    def servers(self) -> Dict[Device, PullServer]:
        return dict(self._servers)

    def pull(
        self,
        requester: Device,
        target: Device,
        payload_bytes: float,
        key: Hashable = None,
        timeout: Optional[float] = None,
        max_retries: int = 0,
        backoff: float = 2.0,
    ) -> Event:
        """Pull ``payload_bytes`` from ``target``; event fires on receipt.

        With ``timeout=None`` (the default) the target must be serving
        (:meth:`serve`) or the pull never completes — exactly like a real
        socket with no listener.  With a ``timeout``, each attempt waits at
        most that long, then re-sends the request up to ``max_retries``
        times with the timeout scaled by ``backoff`` per retry; when the
        budget is exhausted the returned event fails with
        :class:`PullFailedError`.
        """
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if timeout is None:
            request = PullRequest(
                sender=requester,
                receiver=target,
                key=key,
                payload_bytes=payload_bytes,
            )
            done = self.fabric.env.event()
            self._pending[request.message_id] = (done, self.fabric.env.now)
            self._count("pull.client.issued")
            self.plane.send(request)
            return done
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        return self.fabric.env.process(
            self._pull_with_retry(
                requester, target, payload_bytes, key,
                timeout, max_retries, backoff,
            ),
            name=f"pull-retry[{key}]",
        )

    def _pull_with_retry(
        self, requester, target, payload_bytes, key,
        timeout, max_retries, backoff,
    ):
        env = self.fabric.env
        delay = timeout
        attempts = max_retries + 1
        for attempt in range(attempts):
            request = PullRequest(
                sender=requester,
                receiver=target,
                key=key,
                payload_bytes=payload_bytes,
            )
            done = env.event()
            self._pending[request.message_id] = (done, env.now)
            self._count("pull.client.issued")
            self.plane.send(request)
            yield AnyOf(env, [done, env.timeout(delay)])
            if done.triggered:
                return
            # Timed out: forget the attempt so a late response is ignored,
            # then back off before re-sending.
            self._pending.pop(request.message_id, None)
            if attempt < max_retries:
                self.retries += 1
                self._count("pull.client.retries")
                delay *= backoff
        self.failures += 1
        self._count("pull.client.failures")
        raise PullFailedError(requester, target, key, attempts)

    def push(
        self,
        sender: Device,
        target: Device,
        payload_bytes: float,
        key: Hashable = None,
    ) -> Event:
        """Push a payload (gradient return): control header + data plane."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        env = self.fabric.env
        header = GradPush(
            sender=sender, receiver=target, key=key,
            payload_bytes=payload_bytes,
        )

        def run():
            yield self.plane.send(header)
            flow = self.fabric.transfer(
                sender, target, payload_bytes, tag=("push-data", key)
            )
            yield flow.done

        return env.process(run(), name=f"push[{key}]")

    def _count(self, name: str, **labels) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, **labels)

    def _complete(self, message_id: int) -> None:
        entry = self._pending.pop(message_id, None)
        if entry is None:
            return
        done, requested_at = entry
        if not done.triggered:
            self._count("pull.client.completed")
            if self.metrics is not None:
                self.metrics.observe(
                    "pull.client.latency_s",
                    self.fabric.env.now - requested_at,
                )
            done.succeed()
