"""Flit-level network front end and the reference object-model core.

:class:`FlitNetwork` is the core-independent half of a flit-level
network: the timed-injection schedule, the pending-eject bookkeeping and
:class:`Delivery` records, the run/drain loops with their diagnostic, and
the network-level metrics. Two cores inherit it and supply only the
cycle. :class:`Network` here ties :class:`~repro.noc.router.Router`
objects together over a :class:`~repro.noc.topology.Topology` and moves
flit objects across links with their wire delays;
:class:`repro.noc.arraycore.ArrayNetwork` runs the same cycle over flat
lists. One ``step()`` is one clock cycle on either core.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.config import RouterConfig
from repro.errors import SimulationError
from repro.noc.packet import Packet
from repro.noc.router import EJECT, INJECT, Router
from repro.noc.routing import RouteComputer, routing_for
from repro.noc.topology import NodeId, Topology
from repro.telemetry import trace as _trace
from repro.telemetry.registry import LATENCY_SLO_EDGES, MetricsRegistry, Series

if TYPE_CHECKING:
    from repro.noc.arraycore import ArrayNetwork

@dataclass
class Delivery:
    """One completed (packet, destination) delivery."""

    packet: Packet
    destination: NodeId
    injected_at: int
    delivered_at: int
    hops: int

    @property
    def latency(self) -> int:
        return self.delivered_at - self.injected_at


@dataclass
class NetworkStats:
    """Aggregate statistics of a simulation run."""

    cycles: int = 0
    packets_injected: int = 0
    flits_injected: int = 0
    #: In-fabric flits destroyed by fault injection (drops and purges).
    flits_dropped: int = 0
    #: Loss events: a (packet, destination-set) that will never deliver.
    packets_lost: int = 0
    deliveries: list[Delivery] = field(default_factory=list)

    @property
    def packets_delivered(self) -> int:
        return len(self.deliveries)

    @property
    def average_latency(self) -> float:
        if not self.deliveries:
            return 0.0
        return sum(d.latency for d in self.deliveries) / len(self.deliveries)

    @property
    def max_latency(self) -> int:
        return max((d.latency for d in self.deliveries), default=0)

    @property
    def average_hops(self) -> float:
        if not self.deliveries:
            return 0.0
        return sum(d.hops for d in self.deliveries) / len(self.deliveries)


#: Recognized flit-core selectors (see :func:`make_network`).
CORES = ("object", "array")


def normalize_core(core: str | None) -> str:
    """Validate and default a ``core=`` selector ("object" when None)."""
    if core is None:
        return "object"
    if core not in CORES:
        raise SimulationError(
            f"unknown flit core {core!r}; expected one of {CORES}"
        )
    return core


def make_network(
    topology: Topology,
    routing: RouteComputer | None = None,
    router_config: RouterConfig | None = None,
    core: str | None = None,
    window: int = 0,
) -> "Network | ArrayNetwork":
    """Build a flit-level network on the selected simulation core.

    Both cores share the :class:`FlitNetwork` front end and differ only
    in how a cycle is simulated. ``core="object"`` (the default) returns
    the reference :class:`Network`; ``core="array"`` returns
    :class:`repro.noc.arraycore.ArrayNetwork`, which is bit-identical on
    healthy workloads but supports neither checkers nor fault
    controllers. ``window`` > 0 enables windowed metric series sampled
    every that many sim-cycles.
    """
    if normalize_core(core) == "array":
        from repro.noc.arraycore import ArrayNetwork

        return ArrayNetwork(topology, routing, router_config, window=window)
    return Network(topology, routing, router_config, window=window)


#: A VC listed by the drain diagnostic: (router, input port, VC index,
#: flits buffered, packet buffered or holding the reservation, failed).
HeldVC = tuple[NodeId, object, int, int, int, bool]


class FlitNetwork:
    """The core-independent front end of a flit-level network.

    Owns what a client sees regardless of how a cycle is simulated: the
    timed-injection schedule and wakeup sources, the pending-eject
    bookkeeping and the :class:`Delivery` record (stats, windowed series,
    trace-sink events, callbacks), the run and drain loops with their
    diagnostic, and the network-level metrics. A core supplies
    :meth:`step` and :meth:`inject` plus the hooks :meth:`_injecting`,
    :meth:`_inject_backlog`, :meth:`_held_vcs`, :meth:`_publish_fabric`
    and, optionally, :meth:`_idle_until`.
    """

    #: cycle -> link arrivals, in the core's own entry format
    _arrivals: dict[int, list[Any]]

    def __init__(
        self,
        topology: Topology,
        routing: RouteComputer | None = None,
        router_config: RouterConfig | None = None,
        window: int = 0,
    ) -> None:
        self.topology = topology
        self.routing = routing or routing_for(topology)
        self.router_config = router_config or RouterConfig()
        self.cycle = 0
        self.stats = NetworkStats()
        #: cycle -> [(packet, node)] future injections (protocol timing)
        self._timed_injections: dict[int, list[tuple[Packet, NodeId | None]]] = {}
        #: (packet_id, destination) -> flits still to eject there
        self._pending_ejects: dict[tuple[int, NodeId], int] = {}
        self._eject_meta: dict[tuple[int, NodeId], Packet] = {}
        self._delivered_callbacks: list[Callable[[Delivery], None]] = []
        #: Zero-arg callables returning the next cycle at which an idle
        #: network has scheduled work (retry deadlines, fault activations).
        self._wakeup_sources: list[Callable[[], int | None]] = []
        #: Trace sink captured at construction; the NullSink fast path
        #: reduces every per-flit event site to one attribute check.
        self._sink: _trace.TraceSink = _trace.current_sink()
        #: High-water packet depth of each router's inject queue.
        self._inject_depth_hw: dict[NodeId, int] = {}
        #: Windowed metric series keyed by sim-cycle windows; None when
        #: off, so every recording site costs one identity test.
        self.window = int(window)
        self._series: dict[str, Series] | None = None
        if self.window > 0:
            self._series = {
                "noc.series.flits_injected": Series(self.window),
                "noc.series.flits_forwarded": Series(self.window),
                "noc.series.flits_ejected": Series(self.window),
                "noc.series.packets_delivered": Series(self.window),
                "noc.series.latency": Series(
                    self.window, "hist", LATENCY_SLO_EDGES
                ),
            }

    # -- the cycle and its hooks (supplied by a core) -----------------------

    def step(self) -> None:
        """Advance the network one clock cycle."""
        raise NotImplementedError

    def inject(self, packet: Packet, node: NodeId | None = None) -> None:
        """Queue *packet* for injection at *node* (default: its source)."""
        raise NotImplementedError

    def _injecting(self) -> bool:
        """True while a packet is queued or partly injected at a router."""
        raise NotImplementedError

    def _inject_backlog(
        self,
    ) -> tuple[dict[NodeId, list[int]], list[tuple[str, int]]]:
        """Queued packet ids per router, and (router, packet id) pairs of
        partly injected wormholes."""
        raise NotImplementedError

    def _held_vcs(self) -> list[HeldVC]:
        """Every VC buffering a flit or reserved for a packet, routers in
        ``str`` order and VCs in input-port order."""
        raise NotImplementedError

    def _publish_fabric(self, registry: MetricsRegistry) -> None:
        """Export the router, link and VC metrics."""
        raise NotImplementedError

    def _idle_until(self, horizon: int) -> int:
        """The cycle :meth:`run_until_drained` may jump to without
        stepping (at most *horizon*); the current cycle means step."""
        return self.cycle

    # -- client API ---------------------------------------------------------

    def set_trace_sink(self, sink: _trace.TraceSink | None) -> None:
        """Swap the flit-event trace sink (None = the null sink)."""
        self._sink = sink if sink is not None else _trace.NULL_SINK

    def on_delivery(self, callback: Callable[[Delivery], None]) -> None:
        """Register ``callback(delivery)`` fired on each packet delivery."""
        self._delivered_callbacks.append(callback)

    def register_wakeup_source(self, source: Callable[[], int | None]) -> None:
        """Register a zero-arg callable returning the next cycle at which
        new work appears (or ``None``); see :meth:`next_wakeup`."""
        self._wakeup_sources.append(source)

    def schedule_injection(
        self, packet: Packet, at_cycle: int, node: NodeId | None = None
    ) -> None:
        """Queue *packet* for injection at a future cycle (e.g. after a
        bank's tag-match latency in a protocol simulation)."""
        if at_cycle < self.cycle:
            raise SimulationError(
                f"cannot inject at {at_cycle}; current cycle is {self.cycle}"
            )
        self._timed_injections.setdefault(at_cycle, []).append((packet, node))

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def run_until_drained(self, max_cycles: int = 100_000) -> int:
        """Step until every injected packet has been fully delivered.

        Returns the cycle count consumed. Raises if the network fails to
        drain within *max_cycles* (e.g. a deadlock or livelock). A core
        may jump across cycles it proves idle (:meth:`_idle_until`); the
        timeout still fires at the same cycle.
        """
        start = self.cycle
        horizon = start + max_cycles
        while self.pending_work():
            if self.cycle >= horizon:
                raise SimulationError(
                    f"network did not drain within {max_cycles} cycles; "
                    f"{len(self._pending_ejects)} deliveries outstanding\n"
                    + self.drain_diagnostic()
                )
            target = self._idle_until(horizon)
            if target > self.cycle:
                self.cycle = self.stats.cycles = target
                continue
            self.step()
        return self.cycle - start

    def drain_diagnostic(self) -> str:
        """Human-readable snapshot of why the network has not drained.

        Lists undelivered packets (id, destination, flits remaining), the
        exact VC each buffered flit sits in, queued injections, flits on
        wires, and the routers currently holding traffic.
        """
        lines = [f"drain diagnostic at cycle {self.cycle}:"]
        undelivered = self.outstanding_deliveries()
        lines.append(f"  undelivered deliveries ({len(undelivered)}):")
        for pid, dst, remaining in undelivered[:50]:
            meta = self._eject_meta.get((pid, dst))
            kind = meta.message.value if meta is not None else "?"
            lines.append(
                f"    packet {pid} ({kind}) -> {dst}: "
                f"{remaining} flit(s) outstanding"
            )
        if len(undelivered) > 50:
            lines.append(f"    ... and {len(undelivered) - 50} more")
        held = self._held_vcs()
        routers = len({row[0] for row in held})
        lines.append(f"  routers holding traffic ({routers}):")
        for node, port, vc, flits, pid, failed in held:
            state = (
                f"{flits} flit(s) of packet {pid}"
                if flits
                else f"reserved for packet {pid}"
            )
            lines.append(
                f"    router {node} in_port {port} vc {vc}: {state}"
                + (" [failed]" if failed else "")
            )
        queued, partial = self._inject_backlog()
        if queued:
            lines.append(f"  inject queues: {queued}")
        if partial:
            lines.append(f"  partially injected: {sorted(partial)}")
        in_flight = self.in_flight_flits()
        if in_flight:
            lines.append(f"  flits on wires: {in_flight}")
        if self._timed_injections:
            lines.append(
                f"  next timed injection at cycle {self.next_timed_injection()}"
            )
        return "\n".join(lines)

    def idle(self) -> bool:
        """True when no flit is buffered, in flight, or awaiting injection."""
        return not self._arrivals and not self.pending_work()

    def pending_work(self) -> bool:
        """True while any injected packet still has flits to deliver."""
        return (
            bool(self._pending_ejects)
            or bool(self._timed_injections)
            or self._injecting()
        )

    def next_timed_injection(self) -> int | None:
        """Earliest cycle a scheduled future injection fires (None = none)."""
        return min(self._timed_injections) if self._timed_injections else None

    def next_wakeup(self) -> int | None:
        """Earliest cycle at which new work appears in an idle network:
        timed injections plus any registered wakeup source (fault
        activations, retry deadlines)."""
        times = [self.next_timed_injection()]
        times.extend(source() for source in self._wakeup_sources)
        live = [t for t in times if t is not None]
        return min(live) if live else None

    def outstanding_deliveries(self) -> list[tuple[int, NodeId, int]]:
        """Undelivered ``(packet_id, destination, flits_remaining)`` rows."""
        return sorted(
            ((pid, dst, n) for (pid, dst), n in self._pending_ejects.items()),
            key=str,
        )

    def in_flight_flits(self) -> int:
        """Flits currently crossing links (scheduled future arrivals)."""
        return sum(len(batch) for batch in self._arrivals.values())

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Export network-level counters, the core's router/link/VC
        metrics, inject-queue depths, and the windowed series."""
        stats = self.stats
        registry.counter("noc.network.cycles").inc(stats.cycles)
        registry.counter("noc.network.packets_injected").inc(
            stats.packets_injected
        )
        registry.counter("noc.network.flits_injected").inc(stats.flits_injected)
        registry.counter("noc.network.packets_delivered").inc(
            stats.packets_delivered
        )
        registry.gauge("noc.network.max_latency").update_max(stats.max_latency)
        if stats.flits_dropped:
            registry.counter("noc.network.flits_dropped").inc(
                stats.flits_dropped
            )
        if stats.packets_lost:
            registry.counter("noc.network.packets_lost").inc(stats.packets_lost)
        self._publish_fabric(registry)
        hub = getattr(self.topology, "core_attach", None)
        for node in sorted(self._inject_depth_hw, key=str):
            depth = self._inject_depth_hw[node]
            registry.gauge(f"noc.inject_queue.max_depth.{node}").update_max(
                depth
            )
            if node == hub:
                registry.gauge("noc.hub.issue_queue_depth").update_max(depth)
        series = self._series or {}
        for name in sorted(series):
            local = series[name]
            registry.series(name, local.window, local.agg, local.edges).merge(
                local.snapshot()
            )

    # -- shared bookkeeping for the cores -----------------------------------

    def _inject_timed(self, cycle: int) -> None:
        """Inject every packet scheduled for *cycle*."""
        timed = self._timed_injections.pop(cycle, None)
        if timed is not None:
            for packet, node in timed:
                self.inject(packet, node)

    def _accept(self, packet: Packet, node: NodeId, depth: int) -> None:
        """Record *packet* joining *node*'s inject queue, now *depth* deep."""
        packet.created_at = self.cycle
        if depth > self._inject_depth_hw.get(node, 0):
            self._inject_depth_hw[node] = depth
        self.stats.packets_injected += 1
        if self._sink.enabled:
            self._sink.instant(
                "inject", "noc.flit", self.cycle, tid=node,
                args={"packet": packet.packet_id,
                      "destinations": [str(d) for d in packet.destinations]},
            )
        nflits = packet.num_flits
        for destination in packet.destinations:
            key = (packet.packet_id, destination)
            self._pending_ejects[key] = nflits
            self._eject_meta[key] = packet

    def _eject_flit(
        self,
        node: NodeId,
        packet: Packet,
        destinations: Iterable[NodeId],
        injected_at: int | None,
        hops: int,
        cycle: int,
    ) -> None:
        """Count one flit of *packet* ejected at *node* for each of its
        *destinations*; the last flit owed to one records a delivery."""
        delivered_at = cycle + 1  # crossing the ejection channel
        pid = packet.packet_id
        sink = self._sink
        if sink.enabled:
            sink.instant(
                "eject", "noc.flit", delivered_at, tid=node,
                args={"packet": pid, "hops": hops},
            )
        pending = self._pending_ejects
        for destination in destinations:
            key = (pid, destination)
            remaining = pending.get(key)
            if remaining is None:
                raise SimulationError(
                    f"unexpected ejection of packet {pid} at {destination}"
                )
            if remaining > 1:
                pending[key] = remaining - 1
                continue
            del pending[key]
            meta = self._eject_meta.pop(key)
            delivery = Delivery(
                packet=meta,
                destination=destination,
                injected_at=injected_at or meta.created_at,
                delivered_at=delivered_at,
                hops=hops,
            )
            self.stats.deliveries.append(delivery)
            if self._series is not None:
                self._series["noc.series.packets_delivered"].record(
                    delivered_at
                )
                self._series["noc.series.latency"].record(
                    delivered_at, delivery.latency
                )
            if sink.enabled:
                sink.complete(
                    "packet", "noc.packet", delivery.injected_at,
                    delivery.latency, tid=destination,
                    args={"packet": pid,
                          "source": str(meta.source),
                          "hops": hops},
                )
            for callback in self._delivered_callbacks:
                callback(delivery)


class Network(FlitNetwork):
    """The reference flit-level network core: one object per router,
    VC and flit."""

    def __init__(
        self,
        topology: Topology,
        routing: RouteComputer | None = None,
        router_config: RouterConfig | None = None,
        window: int = 0,
    ) -> None:
        super().__init__(topology, routing, router_config, window)
        self.routers: dict[NodeId, Router] = {
            node: Router(node, topology, self.routing, self.router_config)
            for node in topology.nodes
        }
        for router in self.routers.values():
            router.connect(self.routers)
        #: cycle -> list of (node, in_port, vc_index, flit) arrivals
        self._arrivals = defaultdict(list)
        #: per-router FIFO of packets waiting to enter the inject port
        self._inject_queues: dict[NodeId, deque] = defaultdict(deque)
        #: (node, packet) -> flits remaining to inject
        self._inject_progress: dict[tuple[NodeId, int], deque] = {}
        #: Installed validation checkers (see repro.validation.invariants);
        #: empty in normal runs so the hook sites cost one truthiness test.
        self._checkers: list = []
        #: Installed fault controller (see repro.faults.models); None in
        #: healthy runs so every hook site costs one identity test.
        self._fault = None
        #: Flits placed on each (src, dst) wire -- per-link utilization.
        self._link_flits: dict[tuple[NodeId, NodeId], int] = {}

    def install_checker(self, checker) -> None:
        """Attach a validation checker to this network and its routers.

        The checker's ``on_inject``/``after_cycle``/``on_delivery`` hooks
        fire from the network, ``on_switch``/``on_replicate`` from every
        router, and ``final_check`` when a checked run drains (see
        :func:`repro.validation.run_with_checkers`).
        """
        self._checkers.append(checker)
        for router in self.routers.values():
            router.observers.append(checker)
        self.on_delivery(checker.on_delivery)

    @property
    def checkers(self) -> tuple:
        return tuple(self._checkers)

    def install_fault_controller(self, controller) -> None:
        """Attach a fault controller (see :mod:`repro.faults.models`).

        The controller's ``on_cycle_start`` hook fires at the top of every
        :meth:`step`, ``admit`` filters each :meth:`inject`, and
        ``filter_forward`` may drop any flit crossing a link. Only one
        controller may be installed per network.
        """
        if self._fault is not None:
            raise SimulationError("a fault controller is already installed")
        self._fault = controller
        controller.attach(self)
        if hasattr(controller, "next_event"):
            self.register_wakeup_source(controller.next_event)

    @property
    def fault_controller(self):
        return self._fault

    def inject(self, packet: Packet, node: NodeId | None = None) -> None:
        """Queue *packet* for injection at *node* (default: its source)."""
        node = packet.source if node is None else node
        if node not in self.routers:
            raise SimulationError(f"injection node {node} not in topology")
        if self._fault is not None and not self._fault.admit(self, packet, node):
            return  # never entered the fabric: nothing to unwind
        queue = self._inject_queues[node]
        queue.append(packet)
        self._accept(packet, node, len(queue))
        for checker in self._checkers:
            checker.on_inject(self, packet)

    def step(self) -> None:
        """Advance the network one clock cycle."""
        cycle = self.cycle
        if self._fault is not None:
            self._fault.on_cycle_start(self, cycle)
        self._inject_timed(cycle)
        self._deliver_arrivals(cycle)
        self._inject_phase(cycle)
        self._replication_phase(cycle)
        self._switch_phase(cycle)
        for checker in self._checkers:
            checker.after_cycle(self, cycle)
        self.cycle += 1
        self.stats.cycles = self.cycle

    def _replication_phase(self, cycle: int) -> None:
        """Split multicast heads that need several output ports."""
        for router in self.routers.values():
            router.replication_phase(cycle)

    def _switch_phase(self, cycle: int) -> None:
        """Arbitrate every crossbar; route winners to links or ejection."""
        for node, router in self.routers.items():
            for forward in router.switch_phase(cycle):
                self._handle_forward(node, forward, cycle)

    # -- front-end hooks ----------------------------------------------------

    def _injecting(self) -> bool:
        return any(self._inject_queues.values()) or bool(self._inject_progress)

    def _inject_backlog(self):
        queued = {
            node: [p.packet_id for p in queue]
            for node, queue in self._inject_queues.items()
            if queue
        }
        return queued, [(str(n), pid) for n, pid in self._inject_progress]

    def _held_vcs(self):
        held = []
        for node in sorted(self.routers, key=str):
            for port, unit in self.routers[node].inputs.items():
                for vc in unit:
                    head = vc.head()
                    if head is not None:
                        held.append((node, port, vc.index, len(vc.fifo),
                                     head.packet.packet_id, vc.failed))
                    elif vc.active_packet is not None:
                        held.append((node, port, vc.index, 0,
                                     vc.active_packet, vc.failed))
        return held

    def _publish_fabric(self, registry) -> None:
        for node in sorted(self.routers, key=str):
            self.routers[node].publish_metrics(registry)
        for link in sorted(self._link_flits, key=str):
            src, dst = link
            registry.counter(f"noc.link.flits.{src}->{dst}").inc(
                self._link_flits[link]
            )

    # -- internals ------------------------------------------------------------

    def _deliver_arrivals(self, cycle: int) -> None:
        for node, in_port, vc_index, flit in self._arrivals.pop(cycle, ()):  # noqa: B020
            router = self.routers[node]
            flit.eligible_at = cycle + (self.router_config.hop_latency - 1)
            router.inputs[in_port][vc_index].push(flit)
            if self._sink.enabled:
                self._sink.instant(
                    "traverse", "noc.flit", cycle, tid=node,
                    args={"packet": flit.packet.packet_id, "vc": vc_index,
                          "from": str(in_port), "hops": flit.hops},
                )

    def _inject_phase(self, cycle: int) -> None:
        """Move at most one flit per router from its inject queue to a VC."""
        for node, queue in self._inject_queues.items():
            router = self.routers[node]
            progressed = False
            # Continue partially injected packets first (wormhole order).
            for key, flits in list(self._inject_progress.items()):
                if key[0] != node:
                    continue
                vc = flits[0][1]
                flit = flits[0][0]
                if vc.has_space:
                    flits.popleft()
                    flit.eligible_at = cycle + (self.router_config.hop_latency - 1)
                    vc.push(flit)
                    self.stats.flits_injected += 1
                    if self._series is not None:
                        self._series["noc.series.flits_injected"].record(cycle)
                    progressed = True
                if not flits:
                    del self._inject_progress[key]
                if progressed:
                    break
            if progressed or not queue:
                continue
            packet = queue[0]
            unit = router.inputs[INJECT]
            free = next((vc for vc in unit if vc.is_free), None)
            if free is None:
                continue
            queue.popleft()
            flits = packet.flits()
            head = flits[0]
            head.injected_at = cycle
            for flit in flits:
                flit.injected_at = cycle
            head.eligible_at = cycle + (self.router_config.hop_latency - 1)
            free.push(head)
            self.stats.flits_injected += 1
            if self._series is not None:
                self._series["noc.series.flits_injected"].record(cycle)
            if len(flits) > 1:
                self._inject_progress[(node, packet.packet_id)] = deque(
                    (flit, free) for flit in flits[1:]
                )

    def _handle_forward(self, node: NodeId, forward, cycle: int) -> None:
        flit = forward.flit
        if forward.out_port == EJECT:
            if self._series is not None:
                self._series["noc.series.flits_ejected"].record(cycle)
            self._eject(node, flit, cycle)
            return
        if self._fault is not None:
            reason = self._fault.filter_forward(self, node, forward, cycle)
            if reason is not None:
                self._drop_forward(node, forward, reason)
                return
        link = (node, forward.out_port)
        self._link_flits[link] = self._link_flits.get(link, 0) + 1
        if self._series is not None:
            self._series["noc.series.flits_forwarded"].record(cycle)
        wire_delay = self.topology.channel(node, forward.out_port).wire_delay
        arrival = cycle + wire_delay + 1
        self._arrivals[arrival].append(
            (forward.out_port, node, forward.out_vc, flit)
        )

    def _eject(self, node: NodeId, flit, cycle: int) -> None:
        self._eject_flit(
            node, flit.packet, flit.destinations or (node,),
            flit.injected_at, flit.hops, cycle,
        )

    # -- fault handling -----------------------------------------------------

    def _drop_forward(self, node: NodeId, forward, reason: str) -> None:
        """Destroy an in-hand flit that just won switch traversal.

        The switch already consumed a downstream credit and (for a head)
        reserved the downstream VC; both are undone so the credit identity
        stays exact. A multi-flit wormhole loses its remaining flits too.
        """
        flit = forward.flit
        self.routers[node].return_credit(forward.out_port, forward.out_vc)
        if flit.kind.is_head:
            self._unreserve(
                self.routers[forward.out_port].inputs[node][forward.out_vc],
                flit.packet.packet_id,
            )
        self.stats.flits_dropped += 1
        if self._sink.enabled:
            self._sink.instant(
                "drop", "noc.flit", self.cycle, tid=node,
                args={"packet": flit.packet.packet_id, "reason": reason},
            )
        if flit.packet.num_flits == 1:
            # Single-flit packet (possibly one replica of a multicast):
            # only this flit's destination branch is lost.
            self._cancel_deliveries(flit.packet, flit.destinations, reason)
        else:
            # Multi-flit wormholes are unicast; the packet is unrecoverable.
            self.purge_packet(flit.packet, reason)

    def sever_channel(self, src: NodeId, dst: NodeId, reason: str) -> None:
        """A link fault just activated on ``src -> dst``: destroy the flits
        currently crossing that wire. Future attempts to use the channel
        are dropped at forward time by the fault controller."""
        doomed = [
            entry
            for batch in self._arrivals.values()
            for entry in batch
            if entry[0] == dst and entry[1] == src
        ]
        self._destroy_wire_flits(doomed, reason)

    def fail_vc(self, node: NodeId, in_port, vc_index: int, reason: str) -> None:
        """A VC fault just activated: mark the VC failed and destroy any
        packet resident in, reserved on, or in flight toward it."""
        vc = self.routers[node].inputs[in_port][vc_index]
        vc.failed = True
        head = vc.head()
        if head is not None:
            if head.packet.num_flits > 1:
                self.purge_packet(head.packet, reason)
            else:
                self._flush_vc(self.routers[node], in_port, vc)
                self._cancel_deliveries(head.packet, head.destinations, reason)
        doomed = [
            entry
            for batch in self._arrivals.values()
            for entry in batch
            if entry[0] == node and entry[1] == in_port and entry[2] == vc_index
        ]
        self._destroy_wire_flits(doomed, reason)
        if vc.active_packet is not None:
            # Reservation by a wormhole whose remaining flits are upstream
            # or in hand; purge the whole packet so nothing chases the VC.
            packet = self._packet_by_id(vc.active_packet)
            if packet is not None:
                self.purge_packet(packet, reason)
            vc.release()

    def _destroy_wire_flits(self, doomed: list, reason: str) -> None:
        for entry in doomed:
            dst, sender, vc_index, flit = entry
            if flit.packet.num_flits > 1:
                self.purge_packet(flit.packet, reason)  # removes entry too
                continue
            if not self._remove_arrival(entry):
                continue
            self.routers[sender].return_credit(dst, vc_index)
            self.stats.flits_dropped += 1
            self._unreserve(
                self.routers[dst].inputs[sender][vc_index],
                flit.packet.packet_id,
            )
            self._cancel_deliveries(flit.packet, flit.destinations, reason)

    @staticmethod
    def _unreserve(vc, pid: int) -> None:
        """Release *vc* if a destroyed flit of packet *pid* reserved it
        and nothing of the packet has reached it yet."""
        if vc.active_packet == pid and not vc.fifo:
            vc.release()

    def _flush_vc(self, router: Router, port, vc) -> None:
        """Destroy every flit buffered in *vc*, returning each one's
        credit upstream as the pop that will now never happen would."""
        count = len(vc.fifo)
        vc.fifo.clear()
        self.stats.flits_dropped += count
        if port != INJECT:
            upstream = router.upstream.get(port)
            if upstream is not None:
                for _ in range(count):
                    upstream.return_credit(router.node, vc.index)

    def _remove_arrival(self, entry) -> bool:
        for arrival, batch in list(self._arrivals.items()):
            if entry in batch:
                batch.remove(entry)
                if not batch:
                    del self._arrivals[arrival]
                return True
        return False

    def _packet_by_id(self, pid: int) -> Packet | None:
        for (p, _dst), packet in self._eject_meta.items():
            if p == pid:
                return packet
        return None

    def purge_packet(self, packet: Packet, reason: str) -> None:
        """Atomically remove every trace of *packet* from the fabric.

        Flits are deleted from inject queues, wires, and VC buffers with a
        synthesized credit return per buffered/in-flight flit (mirroring the
        pop that will now never happen), VC reservations held by the packet
        are released, and its remaining delivery expectations are cancelled
        with an ``on_packet_lost`` notification to the installed checkers.
        """
        pid = packet.packet_id
        for queue in self._inject_queues.values():
            if any(p.packet_id == pid for p in queue):
                remaining = [p for p in queue if p.packet_id != pid]
                queue.clear()
                queue.extend(remaining)
        for key in [k for k in self._inject_progress if k[1] == pid]:
            del self._inject_progress[key]
        for at_cycle in list(self._timed_injections):
            batch = self._timed_injections[at_cycle]
            kept = [(p, n) for p, n in batch if p.packet_id != pid]
            if len(kept) != len(batch):
                if kept:
                    self._timed_injections[at_cycle] = kept
                else:
                    del self._timed_injections[at_cycle]
        for arrival in list(self._arrivals):
            batch = self._arrivals[arrival]
            kept = []
            for entry in batch:
                dst, sender, vc_index, flit = entry
                if flit.packet.packet_id == pid:
                    self.routers[sender].return_credit(dst, vc_index)
                    self.stats.flits_dropped += 1
                else:
                    kept.append(entry)
            if kept:
                self._arrivals[arrival] = kept
            else:
                del self._arrivals[arrival]
        for router in self.routers.values():
            for port, unit in router.inputs.items():
                for vc in unit:
                    if vc.fifo and vc.fifo[0].packet.packet_id == pid:
                        self._flush_vc(router, port, vc)
                    if vc.active_packet == pid:
                        vc.release()
        lost = tuple(
            dst for (p, dst) in self._pending_ejects if p == pid
        )
        self._cancel_deliveries(packet, lost, reason)

    def _cancel_deliveries(
        self, packet: Packet, destinations, reason: str
    ) -> None:
        """Cancel pending delivery expectations and notify listeners."""
        lost = []
        for destination in destinations:
            key = (packet.packet_id, destination)
            if key in self._pending_ejects:
                del self._pending_ejects[key]
                self._eject_meta.pop(key, None)
                lost.append(destination)
        if not lost:
            return
        self.stats.packets_lost += 1
        lost = tuple(lost)
        for checker in self._checkers:
            checker.on_packet_lost(self, packet, lost)

    def total_buffered_flits(self) -> int:
        return sum(router.buffered_flits() for router in self.routers.values())

    def total_replications(self) -> int:
        return sum(r.stats.replications for r in self.routers.values())

    def total_replication_blocked(self) -> int:
        return sum(
            r.stats.replication_blocked_cycles for r in self.routers.values()
        )
