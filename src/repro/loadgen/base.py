"""Generator taxonomy and the shared generator skeleton."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.loadgen.client_machine import ClientMachine
from repro.loadgen.measurement import PointOfMeasurement, RunSamples
from repro.net.link import NetworkLink
from repro.server.request import Request
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class GeneratorDesign:
    """Classification of a workload generator (paper Section II).

    Attributes:
        loop: ``"open"`` or ``"closed"``.
        time_sensitive: True for block-wait inter-arrival timing (the
            generator sleeps and must be woken), False for busy-wait.
        point_of_measurement: where latency is timestamped.
    """

    loop: str
    time_sensitive: bool
    point_of_measurement: PointOfMeasurement = PointOfMeasurement.GENERATOR

    def __post_init__(self) -> None:
        if self.loop not in ("open", "closed"):
            raise ConfigurationError(
                f"loop must be 'open' or 'closed', got {self.loop!r}"
            )

    def describe(self) -> str:
        """The paper's phrasing, e.g. ``"open-loop time-sensitive"``."""
        sensitivity = (
            "time-sensitive" if self.time_sensitive else "time-insensitive")
        return f"{self.loop}-loop {sensitivity}"

    @property
    def interarrival_impl(self) -> str:
        """``"block-wait"`` or ``"busy-wait"``."""
        return "block-wait" if self.time_sensitive else "busy-wait"


class LoadGenerator:
    """Shared plumbing for open- and closed-loop generators.

    Subclasses implement :meth:`start`; the request round-trip path
    (send -> network -> service -> network -> NIC -> generator
    timestamp) is common and lives here.

    ``request_factory(index)`` is called once per request, in index
    order, during the run: when the request launches (open loop, which
    reads the factory in :meth:`start`) or is scheduled (closed loop).
    It must not read the simulator or share a random stream with
    run-time components, so when a request is built changes nothing.
    Every in-tree factory qualifies: memcached draws only its
    ``"etc"`` stream; hdsearch, socialnetwork and synthetic are
    deterministic.
    """

    def __init__(self, sim: Simulator, machines: Sequence[ClientMachine],
                 service, link_to_server: NetworkLink,
                 link_to_client: NetworkLink,
                 design: GeneratorDesign,
                 num_requests: int,
                 warmup_fraction: float = 0.1,
                 request_factory: Optional[Callable[[int], Request]] = None,
                 ) -> None:
        if not machines:
            raise ConfigurationError("at least one client machine needed")
        if num_requests <= 0:
            raise ConfigurationError(
                f"num_requests must be positive, got {num_requests}"
            )
        for machine in machines:
            if machine.time_sensitive != design.time_sensitive:
                raise ConfigurationError(
                    f"machine {machine.name} is "
                    f"{'block' if machine.time_sensitive else 'busy'}-wait "
                    f"but the design says {design.interarrival_impl}"
                )
        self._sim = sim
        self.machines: List[ClientMachine] = list(machines)
        self.service = service
        self._link_to_server = link_to_server
        self._link_to_client = link_to_client
        self.design = design
        self.num_requests = int(num_requests)
        self.samples = RunSamples(warmup_fraction=warmup_fraction)
        self._request_factory = request_factory or (
            lambda index: Request(request_id=index))
        self.completed = 0
        # Observability (null-object contract): when the run carries
        # an Observability context it may swap in a different sink and
        # hands out the tracer; otherwise _trace stays None and every
        # hook below is a single attribute check.
        obs = getattr(sim, "obs", None)
        self._trace = None
        if obs is not None:
            obs.on_generator(self)
            self._trace = obs.tracer
        # Accelerated-kernel handshake: the default engine fuses
        # this generator's hot-path callbacks when they are the stock
        # implementations (see repro.sim.kernel).
        adopt = getattr(sim, "adopt_generator", None)
        if adopt is not None:
            adopt(self)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the run's requests. Implemented by subclasses."""
        raise NotImplementedError

    @property
    def drained(self) -> bool:
        """True when every request completed and no live work remains.

        The testbed's end-of-run check: ``completed`` catches requests
        lost *or double-counted* in the round-trip wiring (exact
        equality, as the seed implementation enforced),
        ``live_pending_events`` catches stray work still armed after
        the last completion (cancelled events awaiting lazy removal do
        not count).
        """
        return (self.completed == self.num_requests
                and self._sim.live_pending_events == 0)

    # ------------------------------------------------------------------
    def _launch(self, machine: ClientMachine, request: Request) -> None:
        """Begin the send path for *request* on *machine* (at its
        intended send time, which must be the current sim time)."""
        machine.begin_send(
            request.intended_send_us, self._sent, machine, request)

    def _sent(self, machine: ClientMachine, request: Request,
              actual_send_us: float) -> None:
        request.actual_send_us = actual_send_us
        delay = self._link_to_server.sample_latency_us(request.size_kb)
        trace = self._trace
        if trace is not None:
            rid = request.request_id
            trace.span("client.send", request.intended_send_us,
                       actual_send_us, rid, "client")
            trace.span("net.out", actual_send_us,
                       actual_send_us + delay, rid, "net")
        self._sim.post(
            delay, self.service.submit, request, self._served, machine)

    def _served(self, request: Request, machine: ClientMachine) -> None:
        delay = self._link_to_client.sample_latency_us(request.size_kb)
        trace = self._trace
        if trace is not None:
            now = self._sim.now
            trace.span("net.in", now, now + delay,
                       request.request_id, "net")
        self._sim.post(delay, self._at_client_nic, machine, request)

    def _at_client_nic(self, machine: ClientMachine,
                       request: Request) -> None:
        request.client_nic_us = self._sim.now
        machine.deliver_response(self._measured, machine, request)

    def _measured(self, machine: ClientMachine, request: Request,
                  timestamp_us: float) -> None:
        request.measured_complete_us = timestamp_us
        trace = self._trace
        if trace is not None:
            rid = request.request_id
            trace.span("client.recv", request.client_nic_us,
                       timestamp_us, rid, "client")
            # The root span: dur is exactly the measured latency.
            trace.span("request", request.actual_send_us,
                       timestamp_us, rid, "client")
        # Columnar recording: the timestamps land in SampleColumns and
        # the Request object is dropped once in-flight use ends.
        self.samples.record(request)
        self.completed += 1
        self._after_completion(machine, request)

    def _after_completion(self, machine: ClientMachine,
                          request: Request) -> None:
        """Hook for closed-loop continuation; no-op for open loop."""
