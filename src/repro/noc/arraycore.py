"""Struct-of-arrays wormhole core: the object model without the objects.

:class:`ArrayNetwork` is the second cycle behind the shared
:class:`repro.noc.network.FlitNetwork` front end: it simulates the same
:class:`repro.noc.router.Router` microarchitecture as the object core's
:class:`~repro.noc.network.Network`, with every piece of hot state --
flits, VC bookkeeping, FIFO slots, credits -- held in flat preallocated
lists indexed by small integers instead of per-flit / per-VC Python
objects:

* routers, ports, and destinations become dense integer ids derived from
  the topology in the *same iteration order* the object core uses, so
  every arbitration tie-break lands identically;
* each (router, input port) pair is an *input unit*; VC ``v`` of unit
  ``u`` is global VC ``u * num_vcs + v`` and owns ``buffer_depth``
  contiguous slots of one flat ring-buffer list;
* flits live in a growable struct-of-arrays pool (parallel list
  columns); a "flit" is an integer row index, recycled when it ejects;
* route lookups go through a lazily filled flat next-hop table, one
  entry per (router, destination) pair.

Plain lists, not ``array.array``: a list read returns the stored int
object, while an ``array`` read boxes a fresh one, and the cycle loop is
almost nothing but such reads. The cycle itself is compiled by hand --
the switch phase is one fused per-router sweep (VC scan, route and VC
allocation, arbitration, commit, pop) over locals hoisted once per
cycle, and link arrivals push straight into the ring buffers -- see
DESIGN.md section 13. The loop only visits routers that actually hold
flits, and :meth:`ArrayNetwork._idle_until` lets the front end's
``run_until_drained`` fast-forward across cycles where the fabric is
provably idle (nothing buffered, nothing to inject) -- both are pure
reorderings of no-ops, so counters and timings match the object core
bit for bit.

The equivalence contract is enforced by ``tests/noc/test_arraycore.py``,
``tests/noc/test_arraycore_saturation.py``,
``tests/noc/test_arraycore_arbitration.py``, the differential oracle,
and the ``arraycore`` fuzzer family.

Checkers and fault controllers hook per-object state and are
intentionally unsupported here; install them on the object core.
"""

from __future__ import annotations

from collections import deque
from typing import Any, NoReturn

from repro.config import RouterConfig
from repro.errors import ProtocolError, SimulationError
from repro.noc.network import FlitNetwork, HeldVC
from repro.noc.packet import Packet
from repro.noc.router import INJECT
from repro.noc.routing import RouteComputer
from repro.noc.topology import NodeId, Topology
from repro.telemetry.registry import MetricsRegistry

#: Sentinel in the next-hop table: route not computed yet.
_UNROUTED = -9
#: Next-hop values at or below this encode "no channel to that node"
#: (the object core raises at VC allocation time; so do we).
_INVALID_BASE = -100

#: A switch-allocation candidate: (in_local, out_local, out_vc, flit, gvc).
_Cand = tuple[int, int, int, int, int]
#: A queued injection: (packet, destination ids, flit count).
_Queued = tuple[Packet, tuple[int, ...], int]

#: Placeholder in the packet column of rows never allocated.
_NO_PACKET: Any = None


class FlitPool:
    """Growable struct-of-arrays flit storage; a flit is a row index.

    Columns mirror :class:`repro.noc.flit.Flit` minus the identity
    fields the simulation never branches on (``flit_id`` is repr-only in
    the object core). ``packet`` holds the flit's :class:`Packet`;
    ``destinations`` holds tuples of *destination node ids* (ints),
    empty for body/tail flits; ``dest0`` / ``is_mc`` denormalize its
    first element and multicast bit so the switch sweep never touches
    the tuple for a unicast head. ``group_node`` caches which router the
    ``groups`` column was computed for (-1 = stale).

    Every row ejects exactly once, so :meth:`free` hands it back and
    :meth:`alloc` reuses freed rows before growing: the pool stays as
    large as the most flits ever live at once, not the run's total.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise SimulationError("flit pool capacity must be positive")
        self.capacity = capacity
        #: Rows ever handed out (the high-water row index + 1).
        self.size = 0
        #: Rows handed back by :meth:`free`, reused last-in first-out.
        self._free: list[int] = []
        self.packet: list[Packet] = [_NO_PACKET] * capacity
        self.is_head: list[int] = [0] * capacity
        self.is_tail: list[int] = [0] * capacity
        self.index: list[int] = [0] * capacity
        self.injected_at: list[int] = [0] * capacity
        self.hops: list[int] = [0] * capacity
        self.eligible_at: list[int] = [0] * capacity
        self.destinations: list[tuple[int, ...]] = [()] * capacity
        #: First destination id (-1 for body/tail flits); kept in sync
        #: with ``destinations`` so unicast route lookups skip the tuple.
        self.dest0: list[int] = [0] * capacity
        #: 1 when the flit is a head with >1 destinations (the multicast
        #: communication-type bit); gates replication and sends the head
        #: down the switch sweep's grouped-route slow path.
        self.is_mc: list[int] = [0] * capacity
        self.group_node: list[int] = [0] * capacity
        self.groups: list[list[tuple[int, tuple[int, ...]]]] = [[]] * capacity

    @property
    def in_use(self) -> int:
        """Rows allocated and not yet freed."""
        return self.size - len(self._free)

    def _grow(self) -> None:
        extra = self.capacity
        for column in (
            self.is_head, self.is_tail, self.index, self.injected_at,
            self.hops, self.eligible_at, self.dest0, self.is_mc,
            self.group_node,
        ):
            column.extend([0] * extra)
        self.packet.extend([_NO_PACKET] * extra)
        self.destinations.extend([()] * extra)
        self.groups.extend([[]] * extra)
        self.capacity += extra

    def alloc(
        self,
        packet: Packet,
        head: bool,
        tail: bool,
        index: int,
        destinations: tuple[int, ...],
        injected_at: int,
        hops: int,
        eligible_at: int,
    ) -> int:
        """Fill a freed row, or append one (doubling the buffers when full)."""
        if self._free:
            f = self._free.pop()
        else:
            if self.size == self.capacity:
                self._grow()
            f = self.size
            self.size = f + 1
        self.packet[f] = packet
        self.is_head[f] = 1 if head else 0
        self.is_tail[f] = 1 if tail else 0
        self.index[f] = index
        self.injected_at[f] = injected_at
        self.hops[f] = hops
        self.eligible_at[f] = eligible_at
        self.destinations[f] = destinations
        self.dest0[f] = destinations[0] if destinations else -1
        self.is_mc[f] = 1 if head and len(destinations) > 1 else 0
        self.group_node[f] = -1
        return f

    def free(self, flit: int) -> None:
        """Hand back an ejected flit's row for reuse."""
        self._free.append(flit)

    def narrow(self, flit: int, destinations: tuple[int, ...]) -> None:
        """Replace a head flit's destination set (multicast splitting)."""
        self.destinations[flit] = destinations
        self.dest0[flit] = destinations[0] if destinations else -1
        self.is_mc[flit] = 1 if len(destinations) > 1 else 0
        self.group_node[flit] = -1


class ArrayNetwork(FlitNetwork):
    """Flit-level network on the struct-of-arrays core.

    Shares the :class:`~repro.noc.network.FlitNetwork` front end with
    the object core and is bit-identical to it on every healthy
    workload.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RouteComputer | None = None,
        router_config: RouterConfig | None = None,
        window: int = 0,
    ) -> None:
        super().__init__(topology, routing, router_config, window)
        cfg = self.router_config
        self._vcs = cfg.num_vcs
        self._depth = cfg.buffer_depth
        self._hop_wait = cfg.hop_latency - 1
        self._single_cycle = cfg.single_cycle

        # Node ids follow the exact iteration order the object core uses
        # to build its router dict, so arbitration tie-breaks agree.
        self._nodes: list[NodeId] = list(topology.nodes)
        self._node_index: dict[NodeId, int] = {
            node: i for i, node in enumerate(self._nodes)
        }
        n = len(self._nodes)
        self._geometry()

        # Router-level counters, summed across the fabric (the object
        # core only ever exposes them summed or per-run totals).
        self.flits_forwarded = 0
        self.flits_ejected = 0
        self.replications = 0
        self.replication_blocked_cycles = 0
        self.switch_conflicts = 0
        self.vc_alloc_failures = 0
        self.buffer_bypass_hits = 0
        self.speculative_switch_wins = 0

        self.pool = FlitPool()

        #: Lazily filled next-hop table: the local output per (router,
        #: destination) pair, ``_UNROUTED`` until first asked.
        self._route: list[int] = [_UNROUTED] * (n * n)

        #: cycle -> [(dst_router, dst global VC, flit)] link arrivals
        self._arrivals: dict[int, list[tuple[int, int, int]]] = {}
        #: router -> FIFO of packets awaiting the inject port; entries
        #: are created on first use and persist when drained (iteration
        #: order matches the object core's defaultdict).
        self._inject_queues: dict[int, deque[_Queued]] = {}
        #: Routers whose inject queue is currently non-empty.
        self._inject_ready: set[int] = set()
        #: (router, packet_id) -> (remaining flit rows, target global VC)
        self._inject_progress: dict[tuple[int, int], tuple[deque[int], int]] = {}
        #: Routers currently buffering at least one flit.
        self._active: set[int] = set()

    # -- static geometry ----------------------------------------------------

    def _geometry(self) -> None:
        """Precompute every per-router table the cycle loop indexes."""
        topology = self.topology
        vcs = self._vcs
        depth = self._depth
        #: per router: predecessor node ids, in object-core input order
        self._in_nodes: list[list[int]] = []
        #: per router: successor node ids, in object-core output order
        self._out_nodes: list[list[int]] = []
        #: local input index of the INJECT pseudo-port (last input)
        self._inject_local: list[int] = []
        #: local output index of the EJECT pseudo-port (last output)
        self._eject_local: list[int] = []
        for node in self._nodes:
            preds = [self._node_index[p] for p in topology.predecessors(node)]
            succs = [self._node_index[s] for s in topology.successors(node)]
            self._in_nodes.append(preds)
            self._out_nodes.append(succs)
            self._inject_local.append(len(preds))
            self._eject_local.append(len(succs))

        #: unit id of (router, local input); units are numbered router by
        #: router, port by port, INJECT last -- matching input dict order.
        self._unit_base: list[int] = []
        #: channel id of (router, local output); EJECT has no channel.
        self._chan_base: list[int] = []
        units = 0
        chans = 0
        for r in range(len(self._nodes)):
            self._unit_base.append(units)
            self._chan_base.append(chans)
            units += len(self._in_nodes[r]) + 1
            chans += len(self._out_nodes[r])

        #: local input index of node ``src`` at router ``dst``
        in_local: list[dict[int, int]] = [
            {src: i for i, src in enumerate(self._in_nodes[r])}
            for r in range(len(self._nodes))
        ]
        #: local output index of node ``dst`` at router ``src``
        self._out_local: list[dict[int, int]] = [
            {dst: o for o, dst in enumerate(self._out_nodes[r])}
            for r in range(len(self._nodes))
        ]

        #: per (router, local output): downstream unit id, and the link
        #: it crosses as (receiving router, receiving unit, cycles from
        #: switch traversal to arrival)
        self._down_unit: list[list[int]] = []
        self._link: list[list[tuple[int, int, int]]] = []
        for r, node in enumerate(self._nodes):
            down: list[int] = []
            links: list[tuple[int, int, int]] = []
            for dst in self._out_nodes[r]:
                unit = self._unit_base[dst] + in_local[dst][r]
                channel = topology.channel(node, self._nodes[dst])
                down.append(unit)
                links.append((dst, unit, channel.wire_delay + 1))
            self._down_unit.append(down)
            self._link.append(links)

        #: per (router, local input != inject): channel id at the upstream
        #: router for credit return / replication credit stealing
        self._up_chan: list[list[int]] = []
        for r in range(len(self._nodes)):
            ups: list[int] = []
            for src in self._in_nodes[r]:
                ups.append(self._chan_base[src] + self._out_local[src][r])
            self._up_chan.append(ups)

        #: per router: the static tables the switch sweep unpacks once
        self._switch_tables: list[
            tuple[int, int, int, int, list[int], list[int]]
        ] = [
            (
                self._unit_base[r], self._inject_local[r],
                self._eject_local[r], self._chan_base[r],
                self._down_unit[r], self._up_chan[r],
            )
            for r in range(len(self._nodes))
        ]

        #: arbitration rank of each local input: position in the
        #: str(port)-sorted order the object core's contender sort uses
        self._in_sort_rank: list[list[int]] = []
        #: replication tie-rank: (port == INJECT, str(port)) order
        self._repl_rank: list[list[int]] = []
        for r in range(len(self._nodes)):
            names = [str(self._nodes[p]) for p in self._in_nodes[r]] + [INJECT]
            order = sorted(range(len(names)), key=lambda i: names[i])
            rank = [0] * len(names)
            for position, i in enumerate(order):
                rank[i] = position
            self._in_sort_rank.append(rank)
            inject = self._inject_local[r]
            order = sorted(
                range(len(names)), key=lambda i: (i == inject, names[i])
            )
            rank = [0] * len(names)
            for position, i in enumerate(order):
                rank[i] = position
            self._repl_rank.append(rank)

        # Flat mutable state: one slot per global VC / credit channel.
        n = len(self._nodes)
        self._credit: list[int] = [depth] * (chans * vcs)
        #: Cycles a buffered body/tail flit sat blocked on downstream
        #: credit, per (channel, vc) -- mirrors Router.credit_stalls.
        self._credit_stall: list[int] = [0] * (chans * vcs)
        #: Flits placed on each wire, per channel id -- per-link
        #: utilization (mirrors Network._link_flits).
        self._link_flits: list[int] = [0] * chans
        #: Replication-blocked cycles per router (the scalar total stays
        #: authoritative for the summed noc.router counter).
        self._repl_blocked: list[int] = [0] * n
        self._vc_len: list[int] = [0] * (units * vcs)
        self._vc_head: list[int] = [0] * (units * vcs)
        self._vc_active: list[int] = [-1] * (units * vcs)
        self._vc_out_local: list[int] = [-1] * (units * vcs)
        self._vc_out_vc: list[int] = [-1] * (units * vcs)
        self._vc_max_occ: list[int] = [0] * (units * vcs)
        self._slots: list[int] = [0] * (units * vcs * depth)
        self._rr_in: list[int] = [0] * units
        self._rr_out: list[int] = [0] * (chans + n)
        #: rr slot of (router, local output); EJECT gets the tail slots
        self._rr_out_base: list[int] = [self._chan_base[r] + r for r in range(n)]
        #: flits buffered per router (drives the active-router set)
        self._router_occ: list[int] = [0] * n
        #: flits buffered per input unit (skips empty PCs in the sweeps)
        self._unit_len: list[int] = [0] * units
        #: buffered multicast heads per router (gates replication sweeps)
        self._router_mc: list[int] = [0] * n
        #: buffered multicast heads fabric-wide (skips the whole phase)
        self._mc_total = 0

    # -- client API ---------------------------------------------------------

    def install_checker(self, checker: Any) -> None:
        """Invariant checkers hook per-object router state; the SoA core
        has none. Run checked workloads on the object core instead."""
        raise SimulationError(
            "validation checkers are not supported on the array core; "
            "use core='object' for checked runs"
        )

    @property
    def checkers(self) -> tuple[Any, ...]:
        return ()

    def install_fault_controller(self, controller: Any) -> None:
        """Fault controllers mutate per-object VC state; unsupported here."""
        raise SimulationError(
            "fault injection is not supported on the array core; "
            "use core='object' for fault campaigns"
        )

    @property
    def fault_controller(self) -> None:
        return None

    def inject(self, packet: Packet, node: NodeId | None = None) -> None:
        """Queue *packet* for injection at *node* (default: its source)."""
        target = packet.source if node is None else node
        r = self._node_index.get(target)
        if r is None:
            raise SimulationError(f"injection node {target} not in topology")
        try:
            dests = tuple(self._node_index[d] for d in packet.destinations)
        except KeyError as exc:
            raise SimulationError(
                f"destination {exc.args[0]} not in topology"
            ) from None
        queue = self._inject_queues.get(r)
        if queue is None:
            queue = deque()
            self._inject_queues[r] = queue
        queue.append((packet, dests, packet.num_flits))
        self._inject_ready.add(r)
        self._accept(packet, target, len(queue))

    # -- cycle loop ---------------------------------------------------------

    def step(self) -> None:
        """Advance the network one clock cycle."""
        cycle = self.cycle
        self._inject_timed(cycle)
        self._deliver_arrivals(cycle)
        self._inject_phase(cycle)
        if self._active:
            order = sorted(self._active)
            self._replication_phase(cycle, order)
            self._switch_phase(cycle, order)
        self.cycle = cycle + 1
        self.stats.cycles = self.cycle

    # -- front-end hooks ----------------------------------------------------

    def _injecting(self) -> bool:
        return bool(self._inject_ready) or bool(self._inject_progress)

    def _idle_until(self, horizon: int) -> int:
        """With nothing buffered or waiting to inject, every cycle until
        the next arrival or timed injection is a no-op: jump there."""
        if self._active or self._inject_progress or self._inject_ready:
            return self.cycle
        target = horizon
        if self._arrivals:
            target = min(min(self._arrivals), target)
        if self._timed_injections:
            target = min(min(self._timed_injections), target)
        return target

    def _inject_backlog(
        self,
    ) -> tuple[dict[NodeId, list[int]], list[tuple[str, int]]]:
        queued = {
            self._nodes[r]: [entry[0].packet_id for entry in queue]
            for r, queue in self._inject_queues.items()
            if queue
        }
        partial = [(str(self._nodes[r]), pid) for r, pid in self._inject_progress]
        return queued, partial

    def _held_vcs(self) -> list[HeldVC]:
        vcs = self._vcs
        held: list[HeldVC] = []
        for r in sorted(range(len(self._nodes)), key=lambda r: str(self._nodes[r])):
            for p in range(self._inject_local[r] + 1):
                port = self._port(r, p)
                for vc in range(vcs):
                    gvc = (self._unit_base[r] + p) * vcs + vc
                    flits = self._vc_len[gvc]
                    if flits:
                        head = self._slots[gvc * self._depth + self._vc_head[gvc]]
                        pid = self.pool.packet[head].packet_id
                    elif self._vc_active[gvc] >= 0:
                        pid = self._vc_active[gvc]
                    else:
                        continue
                    held.append((self._nodes[r], port, vc, flits, pid, False))
        return held

    def _publish_fabric(self, registry: MetricsRegistry) -> None:
        """Emit the router, link and per-(router, port, vc) metrics
        bit-identically to the object core's ``Router.publish_metrics``."""
        prefix = "noc.router"
        registry.counter(f"{prefix}.flits_forwarded").inc(self.flits_forwarded)
        registry.counter(f"{prefix}.flits_ejected").inc(self.flits_ejected)
        registry.counter(f"{prefix}.replications").inc(self.replications)
        registry.counter(f"{prefix}.multicast_replica_blocked_cycles").inc(
            self.replication_blocked_cycles
        )
        registry.counter(f"{prefix}.switch_conflicts").inc(self.switch_conflicts)
        registry.counter(f"{prefix}.vc_alloc_failures").inc(
            self.vc_alloc_failures
        )
        registry.counter(f"{prefix}.buffer_bypass_hits").inc(
            self.buffer_bypass_hits
        )
        registry.counter(f"{prefix}.speculative_switch_wins").inc(
            self.speculative_switch_wins
        )
        occupancy = registry.gauge("noc.buffer.max_occupancy")
        occupancy.update_max(max(self._vc_max_occ, default=0))
        vcs = self._vcs
        nodes = self._nodes
        for r, node in enumerate(nodes):
            if self._repl_blocked[r]:
                registry.counter(
                    f"noc.router.replication_blocked.{node}"
                ).inc(self._repl_blocked[r])
            for p in range(self._inject_local[r] + 1):
                port = self._port(r, p)
                base = (self._unit_base[r] + p) * vcs
                for vc in range(vcs):
                    occ = self._vc_max_occ[base + vc]
                    if occ:
                        registry.gauge(
                            f"noc.vc.max_occupancy.{node}.{port}.vc{vc}"
                        ).update_max(occ)
            for out_local, dst in enumerate(self._out_nodes[r]):
                chan = self._chan_base[r] + out_local
                for vc in range(vcs):
                    stalls = self._credit_stall[chan * vcs + vc]
                    if stalls:
                        registry.counter(
                            "noc.vc.credit_stall_cycles."
                            f"{node}->{nodes[dst]}.vc{vc}"
                        ).inc(stalls)
                count = self._link_flits[chan]
                if count:
                    registry.counter(
                        f"noc.link.flits.{node}->{nodes[dst]}"
                    ).inc(count)

    def total_buffered_flits(self) -> int:
        return sum(self._router_occ)

    def total_replications(self) -> int:
        return self.replications

    def total_replication_blocked(self) -> int:
        return self.replication_blocked_cycles

    # -- internals ----------------------------------------------------------

    def _port(self, r: int, p: int) -> object:
        """The object core's name for local input *p* of router *r*."""
        if p == self._inject_local[r]:
            return INJECT
        return self._nodes[self._in_nodes[r][p]]

    def _push(self, r: int, gvc: int, flit: int) -> None:
        """Buffer a flit in a VC; head flits claim the VC."""
        length = self._vc_len[gvc]
        if length >= self._depth:
            raise SimulationError(
                f"VC overflow at router {self._nodes[r]} gvc {gvc}: "
                "credit flow control violated"
            )
        pid = self.pool.packet[flit].packet_id
        active = self._vc_active[gvc]
        if self.pool.is_head[flit]:
            if active >= 0 and active != pid:
                raise SimulationError(
                    f"head flit of packet {pid} entered VC held by "
                    f"packet {active}"
                )
            self._vc_active[gvc] = pid
        elif active != pid:
            raise SimulationError(
                "body flit entered a VC not allocated to its packet"
            )
        slot = gvc * self._depth + (self._vc_head[gvc] + length) % self._depth
        self._slots[slot] = flit
        self._vc_len[gvc] = length + 1
        if length + 1 > self._vc_max_occ[gvc]:
            self._vc_max_occ[gvc] = length + 1
        self._unit_len[gvc // self._vcs] += 1
        if self.pool.is_mc[flit]:
            self._router_mc[r] += 1
            self._mc_total += 1
        occ = self._router_occ[r] + 1
        self._router_occ[r] = occ
        if occ == 1:
            self._active.add(r)

    def _next_local(self, r: int, dest: int) -> int:
        """Local output toward *dest* from router *r* (lazy route table)."""
        key = r * len(self._nodes) + dest
        cached = self._route[key]
        if cached != _UNROUTED:
            return cached
        hop = self.routing.next_hop(
            self.topology, self._nodes[r], self._nodes[dest]
        )
        hop_index = self._node_index.get(hop)
        local = (
            self._out_local[r].get(hop_index, _INVALID_BASE - dest)
            if hop_index is not None
            else _INVALID_BASE - dest
        )
        self._route[key] = local
        return local

    def _output_groups(self, r: int, flit: int) -> list[tuple[int, tuple[int, ...]]]:
        """Group a head flit's destinations by required local output.

        Cached per (flit, router); invalidated when the flit moves or its
        destination set is narrowed by replication.
        """
        pool = self.pool
        if pool.group_node[flit] == r:
            return pool.groups[flit]
        eject = self._eject_local[r]
        grouped: dict[int, list[int]] = {}
        for dest in pool.destinations[flit]:
            port = eject if dest == r else self._next_local(r, dest)
            grouped.setdefault(port, []).append(dest)
        groups = [(port, tuple(dests)) for port, dests in grouped.items()]
        pool.groups[flit] = groups
        pool.group_node[flit] = r
        return groups

    # -- link traversal (arrival delivery) ----------------------------------

    def _deliver_arrivals(self, cycle: int) -> None:
        """Land this cycle's link arrivals in their VCs."""
        batch = self._arrivals.pop(cycle, None)
        if batch is None:
            return
        eligible_at = self.pool.eligible_at
        ready_at = cycle + self._hop_wait
        push = self._push
        sink = self._sink
        for r, gvc, flit in batch:
            eligible_at[flit] = ready_at
            push(r, gvc, flit)
            if sink.enabled:
                vcs = self._vcs
                p = gvc // vcs - self._unit_base[r]
                sink.instant(
                    "traverse", "noc.flit", cycle, tid=self._nodes[r],
                    args={
                        "packet": self.pool.packet[flit].packet_id,
                        "vc": gvc % vcs,
                        "from": str(self._nodes[self._in_nodes[r][p]]),
                        "hops": self.pool.hops[flit],
                    },
                )

    def _inject_phase(self, cycle: int) -> None:
        """Move at most one flit per router from its inject queue to a VC."""
        progress = self._inject_progress
        ready = self._inject_ready
        if not progress and not ready:
            return
        vcs = self._vcs
        pool = self.pool
        vc_len = self._vc_len
        vc_active = self._vc_active
        ready_at = cycle + self._hop_wait
        if progress:
            routers = set(ready)
            for r, _pid in progress:
                routers.add(r)
            order = sorted(routers)
        else:
            order = sorted(ready)
        injected = 0
        for r in order:
            if progress:
                # A partly injected wormhole at r takes the port first.
                progressed = False
                for key in [k for k in progress if k[0] == r]:
                    flits, gvc = progress[key]
                    if vc_len[gvc] < self._depth:
                        flit = flits.popleft()
                        pool.eligible_at[flit] = ready_at
                        self._push(r, gvc, flit)
                        injected += 1
                        progressed = True
                    if not flits:
                        del progress[key]
                    if progressed:
                        break
                if progressed:
                    continue
            queue = self._inject_queues.get(r)
            if not queue:
                continue
            base = (self._unit_base[r] + self._inject_local[r]) * vcs
            for free in range(base, base + vcs):
                if vc_active[free] < 0 and not vc_len[free]:
                    break
            else:
                continue
            packet, dests, nflits = queue.popleft()
            if not queue:
                ready.discard(r)
            head = pool.alloc(
                packet, True, nflits == 1, 0, dests, cycle, 0, ready_at
            )
            self._push(r, free, head)
            injected += 1
            if nflits > 1:
                rest: deque[int] = deque()
                for i in range(1, nflits):
                    rest.append(
                        pool.alloc(
                            packet, False, i == nflits - 1, i, (), cycle, 0, 0
                        )
                    )
                progress[(r, packet.packet_id)] = (rest, free)
        if injected:
            self.stats.flits_injected += injected
            if self._series is not None:
                self._series["noc.series.flits_injected"].record(
                    cycle, injected
                )

    # -- multicast replication ---------------------------------------------

    def _replication_phase(self, cycle: int, order: list[int]) -> None:
        """Split multicast heads that need several output ports."""
        if not self._mc_total:
            return
        for r in order:
            if self._router_mc[r]:
                self._replicate_router(r, cycle)

    def _replicate_router(self, r: int, cycle: int) -> None:
        vcs = self._vcs
        depth = self._depth
        pool = self.pool
        unit_base = self._unit_base[r]
        unit_len = self._unit_len
        base = unit_base * vcs
        for p in range(self._inject_local[r] + 1):
            if not unit_len[unit_base + p]:
                continue
            for vc in range(vcs):
                gvc = base + p * vcs + vc
                if not self._vc_len[gvc]:
                    continue
                flit = self._slots[gvc * depth + self._vc_head[gvc]]
                if not pool.is_mc[flit]:
                    continue
                if pool.eligible_at[flit] > cycle:
                    continue
                if not pool.is_head[flit] or not pool.is_tail[flit]:
                    raise ProtocolError(
                        "multicast packets must be single-flit in this domain"
                    )
                groups = self._output_groups(r, flit)
                if len(groups) <= 1:
                    continue
                self._split_multicast(r, p, gvc, flit, groups, cycle)

    def _split_multicast(
        self,
        r: int,
        p: int,
        gvc: int,
        flit: int,
        groups: list[tuple[int, tuple[int, ...]]],
        cycle: int,
    ) -> None:
        eject = self._eject_local[r]
        ordered = sorted(groups, key=lambda kv: kv[0] == eject)
        keep_dsts = ordered[0][1]
        borrowed: list[tuple[int, int, tuple[int, ...]]] = []
        taken: list[int] = []
        for _, destinations in ordered[1:]:
            slot = self._find_replication_vc(r, p, taken)
            if slot is None:
                self.replication_blocked_cycles += 1
                self._repl_blocked[r] += 1
                return  # block: retry whole split next cycle
            borrowed.append((slot[0], slot[1], destinations))
            taken.append(slot[1])
        pool = self.pool
        pool.narrow(flit, keep_dsts)
        if len(keep_dsts) <= 1:  # the kept group is no longer a multicast
            self._router_mc[r] -= 1
            self._mc_total -= 1
        packet = pool.packet[flit]
        for borrow_p, borrow_gvc, destinations in borrowed:
            replica = pool.alloc(
                packet, True, True, pool.index[flit], destinations,
                pool.injected_at[flit], pool.hops[flit], cycle + 1,
            )
            if borrow_p != self._inject_local[r]:
                chan = self._up_chan[r][borrow_p]
                key = chan * self._vcs + borrow_gvc % self._vcs
                if self._credit[key] <= 0:
                    raise SimulationError(
                        "replication chose a VC without upstream credit"
                    )
                self._credit[key] = self._credit[key] - 1
            self._push(r, borrow_gvc, replica)
            self.replications += 1

    def _find_replication_vc(
        self, r: int, exclude: int, taken: list[int]
    ) -> tuple[int, int] | None:
        """Free VC of a different PC; less-utilized PCs preferred."""
        vcs = self._vcs
        base = self._unit_base[r] * vcs
        inject = self._inject_local[r]
        repl_rank = self._repl_rank[r]

        def utilization(p: int) -> int:
            busy = 0
            for vc in range(vcs):
                gvc = base + p * vcs + vc
                if self._vc_active[gvc] >= 0 or self._vc_len[gvc]:
                    busy += 1
            return busy

        candidates = sorted(
            (p for p in range(inject + 1) if p != exclude),
            key=lambda p: (utilization(p), repl_rank[p]),
        )
        for p in candidates:
            for vc in range(vcs):
                gvc = base + p * vcs + vc
                if gvc in taken:
                    continue
                if self._vc_active[gvc] >= 0 or self._vc_len[gvc]:
                    continue
                if p != inject:
                    chan = self._up_chan[r][p]
                    if self._credit[chan * vcs + vc] <= 0:
                        continue
                return p, gvc
        return None

    # -- switch allocation --------------------------------------------------

    def _switch_phase(self, cycle: int, order: list[int]) -> None:
        """Arbitrate every crossbar in router order; commit the winners.

        One fused sweep per router, in the object core's router order:
        pick at most one ready VC per input PC (round-robin), resolve its
        route and downstream VC, arbitrate each contended output by
        stringified-port rank plus the output's round-robin pointer, pop
        and commit every winner, and only then hand the winners to
        :meth:`_handle_forward`. A pop at router ``d`` frees credit and
        VCs that routers ``> d`` see in the same sweep, exactly as in
        the object core. Unicast heads, bodies and tails run inline;
        multicast heads take :meth:`_multicast_candidate`.

        The object core's pop-from-empty, switch-without-credit and
        reserved-downstream-VC guards have no counterpart here because
        they cannot fire: a candidate comes only from a non-empty VC,
        each input PC yields at most one candidate and each output at
        most one winner, and a winner's output credit and downstream VC
        were checked in this same router turn, which no other commit
        touches.
        """
        vcs = self._vcs
        depth = self._depth
        n = len(self._nodes)
        pool = self.pool
        pool_packet = pool.packet
        is_head = pool.is_head
        is_tail = pool.is_tail
        is_mc = pool.is_mc
        dest0 = pool.dest0
        hops = pool.hops
        eligible_at = pool.eligible_at
        vc_len = self._vc_len
        vc_head = self._vc_head
        vc_active = self._vc_active
        vc_out_local = self._vc_out_local
        vc_out_vc = self._vc_out_vc
        slots = self._slots
        credit = self._credit
        credit_stall = self._credit_stall
        rr_in = self._rr_in
        rr_out = self._rr_out
        unit_len = self._unit_len
        router_occ = self._router_occ
        route = self._route
        single_cycle = self._single_cycle
        handle_forward = self._handle_forward
        forwarded = ejected = failures = bypass = speculative = conflicts = 0
        tables = self._switch_tables
        for r in order:
            unit_base, inject, eject, chan_base, down_unit, up_chan = tables[r]
            candidates: list[_Cand] = []
            for unit in range(unit_base, unit_base + inject + 1):
                if not unit_len[unit]:
                    continue
                p = unit - unit_base
                base = unit * vcs
                start = rr_in[unit]
                for offset in range(vcs):
                    gvc = base + (start + offset) % vcs
                    if not vc_len[gvc]:
                        continue
                    flit = slots[gvc * depth + vc_head[gvc]]
                    if eligible_at[flit] > cycle:
                        continue
                    if not is_head[flit]:
                        # Body/tail flit: follows the wormhole's route.
                        out_local = vc_out_local[gvc]
                        if out_local == eject:
                            out_vc = -1
                        else:
                            out_vc = vc_out_vc[gvc]
                            if out_local < 0 or out_vc < 0:
                                continue  # head has not been switched yet
                            key = (chan_base + out_local) * vcs + out_vc
                            if credit[key] <= 0:
                                credit_stall[key] += 1
                                continue
                        forward = (p, out_local, out_vc, flit, gvc)
                    elif is_mc[flit]:
                        mc = self._multicast_candidate(r, p, gvc, flit)
                        if mc is None:
                            continue
                        forward = mc
                    else:
                        dest = dest0[flit]
                        if dest == r:
                            forward = (p, eject, -1, flit, gvc)
                        else:
                            out_local = route[r * n + dest]
                            if out_local == _UNROUTED:
                                out_local = self._next_local(r, dest)
                            if out_local < 0:
                                self._raise_no_route(r, out_local)
                            # VC allocation: first free downstream VC
                            # with credit.
                            down_base = down_unit[out_local] * vcs
                            credit_base = (chan_base + out_local) * vcs
                            for out_vc in range(vcs):
                                if (
                                    vc_active[down_base + out_vc] < 0
                                    and not vc_len[down_base + out_vc]
                                    and credit[credit_base + out_vc] > 0
                                ):
                                    break
                            else:
                                failures += 1
                                continue
                            forward = (p, out_local, out_vc, flit, gvc)
                    rr_in[unit] = (start + offset + 1) % vcs
                    candidates.append(forward)
                    break
            if not candidates:
                continue
            if len(candidates) == 1:
                # One input PC competing: it wins its output unopposed, but
                # the output's round-robin pointer still advances.
                winners = candidates
                rr_out[self._rr_out_base[r] + candidates[0][1]] += 1
            else:
                by_out: dict[int, list[_Cand]] = {}
                for forward in candidates:
                    by_out.setdefault(forward[1], []).append(forward)
                winners = []
                rank = self._in_sort_rank[r]
                base_slot = self._rr_out_base[r]
                for out_local in sorted(by_out):
                    contenders = by_out[out_local]
                    slot = base_slot + out_local
                    if len(contenders) > 1:
                        conflicts += len(contenders) - 1
                        contenders.sort(key=lambda c: rank[c[0]])
                        winners.append(
                            contenders[rr_out[slot] % len(contenders)]
                        )
                    else:
                        winners.append(contenders[0])
                    rr_out[slot] += 1
            # Commit: switch traversal, VC pop, upstream credit return.
            for p, out_local, out_vc, flit, gvc in winners:
                length = vc_len[gvc]
                head_flit = is_head[flit]
                if single_cycle and eligible_at[flit] == cycle:
                    if length == 1:
                        bypass += 1
                    if head_flit and out_local != eject:
                        speculative += 1
                head = vc_head[gvc] + 1
                vc_head[gvc] = head if head < depth else 0
                vc_len[gvc] = length - 1
                tail = is_tail[flit]
                if tail:
                    vc_active[gvc] = -1
                    vc_out_local[gvc] = -1
                    vc_out_vc[gvc] = -1
                unit_len[unit_base + p] -= 1
                if is_mc[flit]:
                    self._router_mc[r] -= 1
                    self._mc_total -= 1
                if p != inject:
                    key = up_chan[p] * vcs + gvc % vcs
                    returned = credit[key] + 1
                    if returned > depth:
                        raise SimulationError(
                            f"credit overflow on channel into {self._nodes[r]}"
                        )
                    credit[key] = returned
                hops[flit] += 1
                if out_local == eject:
                    ejected += 1
                    if head_flit and not tail:
                        # Body flits of this wormhole must also eject here.
                        vc_out_local[gvc] = eject
                        vc_out_vc[gvc] = -1
                    continue
                forwarded += 1
                credit[(chan_base + out_local) * vcs + out_vc] -= 1
                if head_flit:
                    # Reserve the downstream VC for this wormhole.
                    if not tail:
                        vc_out_local[gvc] = out_local
                        vc_out_vc[gvc] = out_vc
                    vc_active[down_unit[out_local] * vcs + out_vc] = (
                        pool_packet[flit].packet_id
                    )
            occ = router_occ[r] - len(winners)
            router_occ[r] = occ
            if not occ:
                self._active.discard(r)
            for winner in winners:
                handle_forward(r, winner, cycle)
        self.flits_forwarded += forwarded
        self.flits_ejected += ejected
        self.vc_alloc_failures += failures
        self.buffer_bypass_hits += bypass
        self.speculative_switch_wins += speculative
        self.switch_conflicts += conflicts
        series = self._series
        if series is not None:
            if forwarded:
                series["noc.series.flits_forwarded"].record(cycle, forwarded)
            if ejected:
                series["noc.series.flits_ejected"].record(cycle, ejected)

    def _multicast_candidate(
        self, r: int, p: int, gvc: int, flit: int
    ) -> _Cand | None:
        """Switch candidate for a multicast head (the grouped-route path).

        A head whose destinations still need several outputs waits for
        replication; otherwise it allocates like a unicast head.
        """
        groups = self._output_groups(r, flit)
        if len(groups) > 1:
            return None  # must replicate first
        out_local = groups[0][0]
        eject = self._eject_local[r]
        if out_local == eject:
            return (p, eject, -1, flit, gvc)
        if out_local < 0:
            self._raise_no_route(r, out_local)
        vcs = self._vcs
        down_base = self._down_unit[r][out_local] * vcs
        credit_base = (self._chan_base[r] + out_local) * vcs
        for vc in range(vcs):
            if (
                self._vc_active[down_base + vc] < 0
                and not self._vc_len[down_base + vc]
                and self._credit[credit_base + vc] > 0
            ):
                return (p, out_local, vc, flit, gvc)
        self.vc_alloc_failures += 1
        return None

    def _raise_no_route(self, r: int, out_local: int) -> NoReturn:
        """Raise the object core's error for a route with no channel."""
        port = self.routing.next_hop(
            self.topology, self._nodes[r],
            self._nodes[_INVALID_BASE - out_local],
        )
        raise SimulationError(f"no downstream router on port {port}")

    def _handle_forward(self, r: int, forward: _Cand, cycle: int) -> None:
        """Send one committed winner on: eject it, or put it on its link."""
        _, out_local, out_vc, flit, _ = forward
        if out_local == self._eject_local[r]:
            pool = self.pool
            nodes = self._nodes
            dests = pool.destinations[flit]
            self._eject_flit(
                nodes[r], pool.packet[flit],
                [nodes[d] for d in dests] if dests else (nodes[r],),
                pool.injected_at[flit], pool.hops[flit], cycle,
            )
            pool.free(flit)
            return
        self._link_flits[self._chan_base[r] + out_local] += 1
        dst, unit, delay = self._link[r][out_local]
        entry = (dst, unit * self._vcs + out_vc, flit)
        batch = self._arrivals.get(cycle + delay)
        if batch is None:
            self._arrivals[cycle + delay] = [entry]
        else:
            batch.append(entry)
