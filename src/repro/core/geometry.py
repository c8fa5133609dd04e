"""Resource-aware timing geometry of one cache design.

Bridges the topology (where banks sit, which channels exist) and the
transaction flows (who talks to whom, when). Every channel and every bank
is a FCFS :class:`~repro.sim.resource.Resource`; halo spike queues are
2-entry :class:`~repro.sim.resource.OccupancyTracker` instances (the paper
gives each spike a small issue queue). Traversals reserve each channel on
the path for the packet's flit count, so concurrent transactions contend
exactly where the paper says they do: the row the core sits on, the bank
columns, and the memory channel.

Routes are compiled, not walked: each (src, dst) pair is a :class:`Leg`
whose hops (channel resource, uncontended cost, node) are resolved on its
first traversal, and each (column, core) pair has a :class:`ColumnLegs`
table of the column's bank resources, bank latencies and every leg the
Fig. 2/3 flows take. :meth:`CacheGeometry.traverse_leg` is the single
per-segment entry point; it grants uncontended channels inline (see
:mod:`repro.sim.resource`).
"""

from __future__ import annotations

import itertools

from repro.cache.bank import BankDescriptor
from repro.config import RouterConfig, packet_flits
from repro.errors import ConfigurationError
from repro.noc.routing import RouteComputer, routing_for
from repro.noc.topology import HaloTopology, NodeId, Topology, spike_node
from repro.sim.resource import PRUNE_CAP, FloorClock, OccupancyTracker, Resource


class Leg:
    """One routed segment from *src* to *dst*.

    ``hops`` holds one (channel resource, router+wire cost, hop node)
    triple per hop and ``cost`` their total cost. Both are filled by the
    geometry on the leg's first traversal, so a route is computed only
    for pairs a run actually uses; ``hops`` is empty when src == dst.
    """

    __slots__ = ("src", "dst", "hops", "cost")

    def __init__(self, src: NodeId, dst: NodeId) -> None:
        self.src = src
        self.dst = dst
        self.hops: tuple[tuple[Resource, int, NodeId], ...] | None = None
        self.cost = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Leg({self.src}->{self.dst})"


class ColumnLegs:
    """Everything the flows need about one column, seen from one core.

    Indexed by bank position: ``down[p]`` is bank p -> p+1, ``up[p]`` is
    bank p+1 -> p, and ``chain`` is the multicast replication chain
    (core -> bank 0, then every ``down`` leg).
    """

    __slots__ = (
        "banks", "tag_latency", "replace_latency", "mru_evict_latency",
        "mru_node", "entry", "down", "up", "to_core", "to_memory", "fill",
        "memory_request", "chain", "chain_cost",
    )

    def __init__(
        self, geometry: CacheGeometry, column: int, core: NodeId
    ) -> None:
        count = geometry.banks_per_column(column)
        nodes = [geometry.bank_node(column, p) for p in range(count)]
        timings = [geometry.bank(column, p).timing for p in range(count)]
        self.banks = tuple(geometry.bank_resource(column, p) for p in range(count))
        self.tag_latency = tuple(t.tag_latency for t in timings)
        self.replace_latency = tuple(t.tag_replace_latency for t in timings)
        if min(self.tag_latency + self.replace_latency) < 1:
            raise ConfigurationError(f"column {column} has a zero-latency bank")
        #: Tag latencies with the MRU bank also reading out its victim (the
        #: multicast Fast-LRU tag phase).
        self.mru_evict_latency = self.replace_latency[:1] + self.tag_latency[1:]
        self.mru_node = nodes[0]
        leg = geometry.leg
        memory = geometry.memory_node
        self.entry = leg(core, nodes[0])
        self.down = tuple(leg(a, b) for a, b in itertools.pairwise(nodes))
        self.up = tuple(leg(b, a) for a, b in itertools.pairwise(nodes))
        self.to_core = tuple(leg(n, core) for n in nodes)
        self.to_memory = tuple(leg(n, memory) for n in nodes)
        self.fill = leg(memory, nodes[0])
        self.memory_request = leg(core, memory)
        self.chain = (self.entry,) + self.down
        #: Uncontended cost of the whole chain, set on its first delivery.
        self.chain_cost: int | None = None


class CacheGeometry:
    """Physical layout + contention state of one design."""

    def __init__(
        self,
        topology: Topology,
        columns: list[list[BankDescriptor]],
        routing: RouteComputer | None = None,
        router_config: RouterConfig | None = None,
        spike_queue_entries: int = 2,
    ) -> None:
        self.topology = topology
        self.columns = columns
        self.routing = routing or routing_for(topology)
        self.router_config = router_config or RouterConfig()
        self.is_halo = isinstance(topology, HaloTopology)
        if topology.core_attach is None or topology.memory_attach is None:
            raise ConfigurationError("topology must define core/memory attach points")
        self.core_node: NodeId = topology.core_attach
        self.memory_node: NodeId = topology.memory_attach
        self.memory_pin_delay = topology.memory_pin_delay

        #: Shared lower bound on future request times; lets every resource
        #: prune its past reservations in O(1) amortized.
        self.floor_clock = FloorClock()
        self._channel_resources: dict[tuple[NodeId, NodeId], Resource] = {}
        self._bank_resources: dict[tuple[int, int], Resource] = {}
        #: (src, dst) -> Leg: routes are a pure function of the topology,
        #: so each pair's path, hop costs and channels are resolved once.
        self._legs: dict[tuple[NodeId, NodeId], Leg] = {}
        #: (column, core or None) -> the column's compiled leg table.
        self._column_legs: dict[tuple[int, NodeId | None], ColumnLegs] = {}
        self._spike_queues: dict[int, OccupancyTracker] | None = None
        if self.is_halo:
            self._spike_queues = {
                s: OccupancyTracker(spike_queue_entries, name=f"spike-queue-{s}")
                for s in range(len(columns))
            }
        #: Cycles multicast deliveries lost to channel contention -- the
        #: transaction-level analogue of replica-blocked router cycles.
        self.multicast_blocked_cycles = 0
        #: Latency-breakdown accumulators over every traversal: cycles a
        #: head flit waited for channel grants (queueing), uncontended
        #: router+wire hop cost, and wormhole serialization (flits - 1).
        #: Flows snapshot these before/after each access to attribute
        #: per-transaction legs (DESIGN.md §14).
        self.traversal_queue_cycles = 0
        self.traversal_hop_cycles = 0
        self.serialization_cycles = 0
        self._validate()

    def _validate(self) -> None:
        for col in range(len(self.columns)):
            for descriptor in self.columns[col]:
                node = self.bank_node(col, descriptor.position)
                if node not in self.topology.nodes:
                    raise ConfigurationError(
                        f"bank ({col},{descriptor.position}) maps to missing "
                        f"node {node}"
                    )

    # -- layout -------------------------------------------------------------

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def banks_per_column(self, column: int) -> int:
        return len(self.columns[column])

    def bank(self, column: int, position: int) -> BankDescriptor:
        return self.columns[column][position]

    def bank_node(self, column: int, position: int) -> NodeId:
        """Topology node of the router attached to a bank."""
        if self.is_halo:
            return spike_node(column, position)
        return (column, position)

    # -- resources ----------------------------------------------------------

    def channel_resource(self, src: NodeId, dst: NodeId) -> Resource:
        key = (src, dst)
        resource = self._channel_resources.get(key)
        if resource is None:
            self.topology.channel(src, dst)  # validates existence
            resource = Resource(name=f"ch{src}->{dst}", floor_clock=self.floor_clock)
            self._channel_resources[key] = resource
        return resource

    def bank_resource(self, column: int, position: int) -> Resource:
        key = (column, position)
        resource = self._bank_resources.get(key)
        if resource is None:
            resource = Resource(name=f"bank{key}", floor_clock=self.floor_clock)
            self._bank_resources[key] = resource
        return resource

    def spike_queue(self, column: int) -> OccupancyTracker:
        if self._spike_queues is None:
            raise ConfigurationError("spike queues exist only on halo designs")
        return self._spike_queues[column]

    def reset_contention(self) -> None:
        """Clear all resource occupancy (fresh run, same layout)."""
        self.floor_clock.reset()
        self.multicast_blocked_cycles = 0
        self.traversal_queue_cycles = 0
        self.traversal_hop_cycles = 0
        self.serialization_cycles = 0
        for resource in self._channel_resources.values():
            resource.reset()
        for resource in self._bank_resources.values():
            resource.reset()
        if self._spike_queues is not None:
            for tracker in self._spike_queues.values():
                tracker.reset()

    def publish_metrics(self, registry) -> None:
        """Export contention counters into a telemetry registry.

        The transaction-level model has no explicit VCs; a channel grant
        that could not start at its requested cycle is the analogue of a
        failed same-cycle VC allocation, so channel waits are published
        under the ``noc.router`` names the flit-level router also uses.
        """
        channels = self._channel_resources.values()
        registry.counter("noc.router.vc_alloc_failures").set(
            sum(r.waits for r in channels)
        )
        registry.counter("noc.router.vc_alloc_wait_cycles").set(
            sum(r.queued_cycles for r in channels)
        )
        registry.counter("noc.router.channel_busy_cycles").set(
            sum(r.busy_cycles for r in channels)
        )
        registry.counter("noc.router.multicast_replica_blocked_cycles").set(
            self.multicast_blocked_cycles
        )
        registry.counter("noc.traversal.queue_cycles").set(
            self.traversal_queue_cycles
        )
        registry.counter("noc.traversal.hop_cycles").set(
            self.traversal_hop_cycles
        )
        registry.counter("noc.traversal.serialization_cycles").set(
            self.serialization_cycles
        )
        # Per-link congestion: one row per channel that carried traffic
        # (the resource dict is lazy, so unused channels never appear).
        # These rows are the heatmap substrate for `repro report`.
        for key in sorted(self._channel_resources, key=str):
            resource = self._channel_resources[key]
            if not resource.grants:
                continue
            src, dst = key
            link = f"{src}->{dst}"
            registry.counter(f"noc.link.grants.{link}").set(resource.grants)
            registry.counter(f"noc.link.busy_cycles.{link}").set(
                resource.busy_cycles
            )
            if resource.queued_cycles:
                registry.counter(f"noc.link.wait_cycles.{link}").set(
                    resource.queued_cycles
                )
        banks = self._bank_resources.values()
        registry.counter("cache.bank.grants").set(sum(r.grants for r in banks))
        registry.counter("cache.bank.busy_cycles").set(
            sum(r.busy_cycles for r in banks)
        )
        registry.counter("cache.bank.wait_cycles").set(
            sum(r.queued_cycles for r in banks)
        )
        if self._spike_queues is not None:
            trackers = self._spike_queues.values()
            registry.counter("noc.spike.queue_waits").set(
                sum(t.waits for t in trackers)
            )
            registry.counter("noc.spike.queue_wait_cycles").set(
                sum(t.queued_cycles for t in trackers)
            )

    # -- timing primitives ----------------------------------------------------

    def hop_cost(self, src: NodeId, dst: NodeId) -> int:
        """Uncontended head-flit cost of one hop: router + wire."""
        channel = self.topology.channel(src, dst)
        return self.router_config.hop_latency + channel.wire_delay

    def leg(self, src: NodeId, dst: NodeId) -> Leg:
        """The (shared) leg from *src* to *dst*."""
        leg = self._legs.get((src, dst))
        if leg is None:
            leg = self._legs[(src, dst)] = Leg(src, dst)
        return leg

    def column_legs(self, column: int, core: NodeId | None = None) -> ColumnLegs:
        """The leg table of *column* as seen from *core* (default core)."""
        table = self._column_legs.get((column, core))
        if table is None:
            table = ColumnLegs(
                self, column, core if core is not None else self.core_node
            )
            self._column_legs[(column, core)] = table
        return table

    def _compile(self, leg: Leg) -> tuple[tuple[Resource, int, NodeId], ...]:
        """Resolve *leg*'s route into hops (once per geometry)."""
        if leg.src == leg.dst:
            hops: tuple[tuple[Resource, int, NodeId], ...] = ()
        else:
            hops = tuple(
                (
                    self.channel_resource(hop_src, hop_dst),
                    self.hop_cost(hop_src, hop_dst),
                    hop_dst,
                )
                for hop_src, hop_dst in itertools.pairwise(
                    self.routing.path(self.topology, leg.src, leg.dst)
                )
            )
        leg.hops = hops
        leg.cost = sum(cost for _, cost, _ in hops)
        return hops

    def traverse_leg(
        self,
        leg: Leg,
        time: int,
        flits: int,
        waypoints: dict[NodeId, int] | None = None,
    ) -> int:
        """Move a *flits*-flit packet along *leg* starting at *time*.

        Each channel on the route is reserved FCFS for *flits* cycles
        (wormhole serialization). Returns when the complete packet is
        available at the leg's end; a leg to the same node is free. When
        *waypoints* is given it receives the head-flit arrival time at
        every intermediate node.

        This is the one per-segment entry point: every flow reaches the
        channels through it, so subclasses may wrap it.
        """
        hops = leg.hops
        if hops is None:
            hops = self._compile(leg)
        if not hops:
            return time
        head = time
        queued = 0
        for resource, cost, node in hops:
            if resource.horizon <= head:
                # Uncontended grant, inlined (repro.sim.resource).
                end = head + flits
                resource.starts.append(head)
                ends = resource.ends
                ends.append(end)
                resource.horizon = end
                resource.busy_cycles += flits
                resource.grants += 1
                if len(ends) > PRUNE_CAP:
                    resource.prune()
                head += cost
            else:
                granted = resource.acquire(head, flits)
                queued += granted - head
                head = granted + cost
            if waypoints is not None:
                waypoints[node] = head
        if waypoints is not None:
            del waypoints[leg.dst]
        if queued:
            self.traversal_queue_cycles += queued
        self.traversal_hop_cycles += leg.cost
        self.serialization_cycles += flits - 1
        return head + (flits - 1)

    def traverse(
        self,
        src: NodeId,
        dst: NodeId,
        time: int,
        flits: int,
        record_waypoints: bool = False,
    ) -> tuple[int, dict[NodeId, int]]:
        """Move a packet from *src* to *dst*: :meth:`traverse_leg` by nodes.

        Returns ``(arrival, waypoints)``; *waypoints* maps intermediate
        nodes to head-flit arrival times (only filled when
        *record_waypoints*).
        """
        waypoints: dict[NodeId, int] = {}
        arrival = self.traverse_leg(
            self.leg(src, dst), time, flits,
            waypoints if record_waypoints else None,
        )
        return arrival, waypoints

    def multicast_column(
        self, column: int, time: int, core: NodeId | None = None
    ) -> list[int]:
        """Deliver one multicast request flit to every bank of a column.

        Models the Section-3.1 chain replication: the flit travels from the
        core toward the column, and at every bank router a replica ejects
        while the original continues to the next bank. Returns the request
        arrival time at each bank position.
        """
        flits = packet_flits(carries_block=False)
        table = self.column_legs(column, core)
        traverse_leg = self.traverse_leg
        arrivals: list[int] = []
        head = time
        for leg in table.chain:
            head = traverse_leg(leg, head, flits)
            arrivals.append(head)
        chain_cost = table.chain_cost
        if chain_cost is None:
            chain_cost = table.chain_cost = sum(
                leg.cost + (flits - 1) for leg in table.chain if leg.hops
            )
        # A grant never starts before its request, so each segment's actual
        # arrival >= its uncontended arrival; the chain's total slip is the
        # final arrival minus the zero-contention chain cost.
        self.multicast_blocked_cycles += head - time - chain_cost
        return arrivals

    # -- common endpoints -----------------------------------------------------

    def core_to_bank(
        self,
        column: int,
        position: int,
        time: int,
        flits: int,
        core: NodeId | None = None,
    ) -> int:
        src = core if core is not None else self.core_node
        return self.traverse_leg(
            self.leg(src, self.bank_node(column, position)), time, flits
        )

    def bank_to_core(
        self,
        column: int,
        position: int,
        time: int,
        flits: int,
        record_waypoints: bool = False,
        core: NodeId | None = None,
    ) -> tuple[int, dict[NodeId, int]]:
        dst = core if core is not None else self.core_node
        return self.traverse(
            self.bank_node(column, position),
            dst,
            time,
            flits,
            record_waypoints=record_waypoints,
        )

    def core_to_memory(
        self, time: int, flits: int, core: NodeId | None = None
    ) -> int:
        src = core if core is not None else self.core_node
        leg = self.leg(src, self.memory_node)
        return self.traverse_leg(leg, time, flits) + self.memory_pin_delay

    def memory_to_bank(
        self, column: int, position: int, time: int, flits: int
    ) -> int:
        leg = self.leg(self.memory_node, self.bank_node(column, position))
        return self.traverse_leg(leg, time + self.memory_pin_delay, flits)

    def bank_to_memory(
        self, column: int, position: int, time: int, flits: int
    ) -> int:
        leg = self.leg(self.bank_node(column, position), self.memory_node)
        return self.traverse_leg(leg, time, flits) + self.memory_pin_delay

    def enter_column(self, column: int, time: int) -> int:
        """Admission step before a request leaves the core.

        On halo designs the request first claims one of the spike's queue
        entries; on meshes admission is immediate.
        """
        if self._spike_queues is None:
            return time
        return self.spike_queue(column).acquire(time, 1) + 1
