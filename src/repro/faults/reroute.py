"""Degraded-mode routing around dead channels.

:class:`DegradedRouting` wraps a base route computer (XY / XYX / spike).
Per ``(current, destination)`` it first checks whether the *base* path from
``current`` is fully alive -- if so it takes the base hop, so a zero-fault
degraded router is hop-for-hop identical to the base and, on simplified
meshes, every surviving route stays Fig. 5(b)-legal. Only when the base
path crosses a dead channel does it fall back to a detour, and only to a
provably safe family: **U-shaped routes** that ascend the current column
toward the core row (``Y-``), cross horizontally in a surviving row, and
descend the destination column (``Y+``) -- the "fall back to the next
row" of the paper's fabric. Every U-route follows the Fig. 5(b) class
order ``Y- < X < Y+`` with coordinate-monotone numbers inside each class,
so its channel numbers strictly increase; and the *union* of XY base
routes and U-routes performs no ``Y+ -> X`` turn and never mixes ``X+``
with ``X-`` in one row run, which rules out every planar dependency
cycle. A destination with no alive base path and no alive U-route is
*unroutable* -- degradation truncates it away rather than risking an
unprovable detour. (Halo spikes are trees: a cut spike has no detour by
construction, and cross-spike traffic already funnels through the hub.)

The combination is loop-free: a node whose base path is alive follows the
base route to the destination (every suffix of an alive path is alive),
and each U-route hop continues into a node whose own base path or U-route
remainder is alive and strictly shorter, so any mixed walk terminates.

:func:`verify_degraded` is the proof-check hook: it re-runs the Dally &
Seitz argument restricted to the pairs actually routed -- the channel
dependency graph must stay acyclic, and on simplified meshes every path's
Fig. 5(b) channel enumeration must still strictly increase -- so the
existing XYX-legality invariant checker passes under degradation. It
walks the routes once, as per-destination route trees, and derives every
check from them.
"""

from __future__ import annotations

from repro.errors import RoutingError, ValidationError
from repro.noc.routing import (
    RouteComputer,
    RouteForest,
    find_cycle,
    is_deadlock_free,
    xyx_channel_number,
    xyx_path_channel_numbers,
)
from repro.noc.topology import (
    HUB,
    HaloTopology,
    MeshTopology,
    NodeId,
    Topology,
)


def reachable_nodes(
    topology: Topology, dead_channels: frozenset, root: NodeId
) -> frozenset:
    """Nodes reachable *from* root over surviving channels."""
    seen = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for succ in topology.successors(node):
            if (node, succ) in dead_channels or succ in seen:
                continue
            seen.add(succ)
            frontier.append(succ)
    return frozenset(seen)


def coreachable_nodes(
    topology: Topology, dead_channels: frozenset, root: NodeId
) -> frozenset:
    """Nodes that can still *reach* root over surviving channels."""
    seen = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop()
        for pred in topology.predecessors(node):
            if (pred, node) in dead_channels or pred in seen:
                continue
            seen.add(pred)
            frontier.append(pred)
    return frozenset(seen)


def alive_nodes(
    topology: Topology,
    dead_channels: frozenset,
    root: NodeId | None = None,
) -> frozenset:
    """Nodes still in two-way contact with *root* (default: core attach).

    A node outside this set can neither receive requests nor return data,
    so the cache treats it as dead regardless of its own health.
    """
    if root is None:
        root = topology.core_attach
    if root is None:
        raise RoutingError(f"{topology.name} has no core attach point")
    return reachable_nodes(topology, dead_channels, root) & coreachable_nodes(
        topology, dead_channels, root
    )


def fallback_destination(
    topology: Topology, alive: frozenset, node: NodeId
) -> NodeId | None:
    """Nearest live substitute for a dead/unreachable endpoint.

    Meshes fall back up the column toward the core row (the "next row" of
    the issue); halos fall back toward the hub along the spike, then to the
    same position on neighboring spikes. Returns ``None`` when nothing
    suitable survives.
    """
    if node in alive:
        return node
    candidates: list[NodeId] = []
    if isinstance(topology, HaloTopology) and node != HUB:
        _, spike, pos = node
        candidates.extend(
            ("spike", spike, p) for p in range(pos - 1, -1, -1)
        )
        for offset in range(1, topology.num_spikes):
            neighbor = (spike + offset) % topology.num_spikes
            candidates.append(("spike", neighbor, min(pos, topology.spike_length - 1)))
        candidates.append(HUB)
    elif isinstance(topology, MeshTopology):
        x, y = node
        candidates.extend((x, row) for row in range(y - 1, -1, -1))
        for offset in range(1, topology.cols):
            for col in ((x + offset) % topology.cols, (x - offset) % topology.cols):
                candidates.append((col, y))
    for candidate in candidates:
        if candidate in alive:
            return candidate
    return None


class DegradedRouting(RouteComputer):
    """Base routing with XYX-legal detours around dead channels."""

    def __init__(
        self,
        topology: Topology,
        base: RouteComputer,
        dead_channels,
    ) -> None:
        self.topology = topology
        self.base = base
        self.dead = frozenset(dead_channels)
        self.name = f"degraded-{base.name}"
        #: Times a hop deviated from the base route (detour hops taken).
        self.detour_hops = 0
        self._base_ok: dict[tuple[NodeId, NodeId], bool] = {}
        self._detour_next: dict[tuple[NodeId, NodeId], NodeId | None] = {}

    # -- base-route liveness ------------------------------------------------

    def base_path_alive(self, current: NodeId, destination: NodeId) -> bool:
        """Does the *base* route from here survive the dead channels?"""
        if current == destination:
            return True
        cached = self._base_ok.get((current, destination))
        if cached is not None:
            return cached
        nodes = [current]
        node = current
        ok = True
        limit = self.topology.num_nodes + 1
        while node != destination:
            try:
                nxt = self.base.next_hop(self.topology, node, destination)
            except RoutingError:
                nxt = None
            if (
                nxt is None
                or not self.topology.has_channel(node, nxt)
                or (node, nxt) in self.dead
            ):
                ok = False
                break
            known = self._base_ok.get((nxt, destination))
            if known is not None:
                # The base route is destination-based: from here on it is
                # the already-decided route of nxt.
                ok = known
                break
            nodes.append(nxt)
            node = nxt
            if len(nodes) > limit:
                ok = False
                break
        # Every suffix of an alive path is alive; every node collected on a
        # broken walk routes through the same broken hop.
        for n in nodes:
            self._base_ok[(n, destination)] = ok
        return ok

    def is_rerouted(self, source: NodeId, destination: NodeId) -> bool:
        """True when traffic for this pair leaves the base route."""
        return source != destination and not self.base_path_alive(
            source, destination
        )

    # -- U-shaped detours ---------------------------------------------------

    def _channel_alive(self, src: NodeId, dst: NodeId) -> bool:
        return self.topology.has_channel(src, dst) and (src, dst) not in self.dead

    def _find_u_path(self, current: NodeId, destination: NodeId):
        """First fully-alive U-route, trying rows nearest the base first.

        A U-route ascends the current column (``Y-``) to a pivot row
        ``r <= min(sy, dy)``, crosses horizontally at row *r* in a single
        direction, and descends the destination column (``Y+``). Candidate
        pivots are tried from ``min(sy, dy)`` down to row 0, so detours
        prefer the *next* row toward the core and fall back outward.
        Deterministic by construction. Returns ``None`` when no candidate
        survives (destination unroutable) or on non-mesh topologies,
        where base-or-nothing keeps routing provably deadlock-free.
        """
        if not isinstance(self.topology, MeshTopology):
            return None
        sx, sy = current
        dx, dy = destination
        step = 1 if dx > sx else -1
        for r in range(min(sy, dy), -1, -1):
            path = [current]
            ok = True
            for y in range(sy, r, -1):  # ascend own column
                ok = ok and self._channel_alive((sx, y), (sx, y - 1))
                path.append((sx, y - 1))
            x = sx
            while ok and x != dx:  # cross at the pivot row
                ok = self._channel_alive((x, r), (x + step, r))
                path.append((x + step, r))
                x += step
            for y in range(r, dy):  # descend the destination column
                ok = ok and self._channel_alive((dx, y), (dx, y + 1))
                path.append((dx, y + 1))
            if ok and path[-1] == destination:
                return path
        return None

    def _detour_hop(self, current: NodeId, destination: NodeId) -> NodeId | None:
        key = (current, destination)
        if key not in self._detour_next:
            path = self._find_u_path(current, destination)
            self._detour_next[key] = path[1] if path else None
        return self._detour_next[key]

    def next_hop(
        self, topology: Topology, current: NodeId, destination: NodeId
    ) -> NodeId | None:
        if current == destination:
            return None
        if self.base_path_alive(current, destination):
            return self.base.next_hop(topology, current, destination)
        nxt = self._detour_hop(current, destination)
        if nxt is None:
            raise RoutingError(
                f"{self.name}: {destination} unreachable from {current} "
                f"with {len(self.dead)} dead channel(s)"
            )
        self.detour_hops += 1
        return nxt

    def can_route(self, source: NodeId, destination: NodeId) -> bool:
        """True when a full route exists (does not count detour hops)."""
        if source == destination:
            return True
        saved = self.detour_hops
        try:
            self.path(self.topology, source, destination)
        except RoutingError:
            return False
        finally:
            self.detour_hops = saved
        return True


def verify_degraded(
    topology: Topology,
    routing: DegradedRouting,
    pairs=None,
) -> dict:
    """Proof-check a degraded routing function (raises on failure).

    Checks, over *pairs* (default: every ordered pair of alive nodes that
    the degraded function still routes -- unroutable pairs are the
    *declared* degradation, counted but not failed; explicitly supplied
    pairs are traffic endpoints the caller guarantees, so any unroutable
    one raises):

    1. every checked pair routes without stalls, loops, or dead channels;
    2. the channel dependency graph restricted to those routes is acyclic
       (Dally & Seitz deadlock freedom);
    3. on a simplified mesh, every path's Fig. 5(b) channel enumeration is
       strictly increasing -- the same property the online
       ``ChannelOrderChecker`` enforces flit by flit.

    All three read one :class:`~repro.noc.routing.RouteForest` walk, which
    decides each ``(node, destination)`` hop once. Check 3 runs per
    dependency edge: those edges are exactly the consecutive channel pairs
    of the routed paths, so every edge increasing is every path
    increasing. ``routing.detour_hops`` is left as it was found.

    Returns a report dict (``pairs_checked``, ``rerouted_pairs``,
    ``unroutable_pairs``, ``xyx_checked``).
    """
    from repro.noc.topology import SimplifiedMeshTopology

    strict = pairs is not None
    if pairs is None:
        live = sorted(alive_nodes(topology, routing.dead), key=str)
        pairs = [(s, d) for s in live for d in live if s != d]

    forest = RouteForest(topology, routing)
    routed = 0
    rerouted = 0
    unroutable = 0
    saved_detour_hops = routing.detour_hops
    try:
        for source, destination in pairs:
            reason = forest.walk(source, destination)
            if reason is None:
                routed += 1
                if routing.is_rerouted(source, destination):
                    rerouted += 1
            elif strict:
                raise ValidationError(
                    f"degraded routing cannot serve {source}->{destination}: "
                    f"{reason}"
                )
            else:
                unroutable += 1
    finally:
        routing.detour_hops = saved_detour_hops

    for node, nxt, destination in forest.hops():
        if (node, nxt) in routing.dead:
            raise ValidationError(
                f"degraded route {node}->{destination} crosses dead "
                f"channel {node}->{nxt}"
            )

    if not is_deadlock_free(topology, routing, forest=forest):
        cycle = find_cycle(forest.dependency_graph())
        raise ValidationError(
            f"degraded routing on {topology.name} creates a cyclic channel "
            f"dependency over {routed} pairs: deadlock possible "
            f"({' -> '.join(f'{a}->{b}' for a, b in cycle or ())})"
        )

    xyx_checked = isinstance(topology, SimplifiedMeshTopology)
    if xyx_checked:
        cols, rows = topology.cols, topology.rows
        for held, requested, destination in forest.dependencies():
            if xyx_channel_number(cols, rows, *requested) <= xyx_channel_number(
                cols, rows, *held
            ):
                path = forest.path(held[0], destination)
                numbers = xyx_path_channel_numbers(cols, rows, path)
                raise ValidationError(
                    f"degraded route {path} violates the Fig. 5(b) channel "
                    f"enumeration: {numbers} is not strictly increasing"
                )

    return {
        "pairs_checked": routed,
        "rerouted_pairs": rerouted,
        "unroutable_pairs": unroutable,
        "xyx_checked": xyx_checked,
    }


_ = HUB  # halo vocabulary used by fallback_destination
