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
proves them over destination x node next-hop tables
(:class:`~repro.noc.routing.RouteTables`): the base route is tabled once,
base-path liveness and routability are pointer-jumping passes over whole
tables, and every check is an array pass. A failing check replays the
route-tree walk (:class:`~repro.noc.routing.RouteForest`) to raise its
exact error.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.errors import RoutingError, ValidationError
from repro.noc.routing import (
    DependencyGraph,
    RouteComputer,
    RouteForest,
    RouteTables,
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
    SimplifiedMeshTopology,
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
        #: Channels that exist and survive: the ones a U-route may take.
        self._live = (
            frozenset((c.src, c.dst) for c in topology.channels()) - self.dead
        )

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

    def _find_u_path(self, current: NodeId, destination: NodeId):
        """First fully-alive U-route, trying rows nearest the base first.

        A U-route ascends the current column (``Y-``) to a pivot row
        ``r <= min(sy, dy)``, crosses horizontally at row *r* in a single
        direction, and descends the destination column (``Y+``). Candidate
        pivots are tried from ``min(sy, dy)`` down to row 0, so detours
        prefer the *next* row toward the core and fall back outward.
        The ascent and the descent only lengthen as the pivot falls, so
        the first dead channel on either ends the search.
        Deterministic by construction. Returns ``None`` when no candidate
        survives (destination unroutable) or on non-mesh topologies,
        where base-or-nothing keeps routing provably deadlock-free.
        """
        if not isinstance(self.topology, MeshTopology):
            return None
        live = self._live
        sx, sy = current
        dx, dy = destination
        step = 1 if dx > sx else -1
        top = min(sy, dy)
        if any(
            ((sx, y), (sx, y - 1)) not in live for y in range(sy, top, -1)
        ) or any(((dx, y), (dx, y + 1)) not in live for y in range(top, dy)):
            return None
        for r in range(top, -1, -1):
            if r < top and (
                ((sx, r + 1), (sx, r)) not in live
                or ((dx, r), (dx, r + 1)) not in live
            ):
                return None
            if all(((x, r), (x + step, r)) in live for x in range(sx, dx, step)):
                return (
                    [current]
                    + [(sx, y - 1) for y in range(sy, r, -1)]  # ascend
                    + [(x + step, r) for x in range(sx, dx, step)]  # cross
                    + [(dx, y + 1) for y in range(r, dy)]  # descend
                )
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

    def route_tables(self, tables: RouteTables) -> tuple[np.ndarray, np.ndarray]:
        """This routing's next-hop table and its base-liveness table.

        The base route computer is tabled once; pointer jumping over
        "the channel exists and is not dead" then gives
        :meth:`base_path_alive` for every entry at once. The degraded
        table is the base hop where the base path is alive and the
        memoized U-route detour (or the error sentinel) where it is
        not: what :meth:`next_hop` answers, without walking. A subclass
        that redefines :meth:`next_hop` is tabled one call per entry.
        """
        base = tables.table(self.base)
        channel = tables.hop_channels(base)
        live = channel >= 0
        live[live] = ~tables.channel_mask(self.dead)[channel[live]]
        alive, _ = tables.reach(base, live)
        if getattr(self.next_hop, "__func__", None) is not DegradedRouting.next_hop:
            return tables.table(self), alive
        hops = base.copy()
        nodes, index, destinations = tables.nodes, tables.index, tables.destinations
        for r, u in zip(*(~alive).nonzero()):
            nxt = self._detour_hop(nodes[u], nodes[destinations[r]])
            hops[r, u] = tables.error if nxt is None else index[nxt]
        return hops, alive

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

    All three are whole-table array passes over the destination x node
    next-hop tables of :meth:`DegradedRouting.route_tables`
    (:func:`_table_proof`). Check 3 runs per dependency edge: those edges
    are exactly the consecutive channel pairs of the routed paths, so
    every edge increasing is every path increasing. When any check
    fails, the route-tree proof (:class:`~repro.noc.routing.RouteForest`)
    is replayed to raise its exact :class:`ValidationError`; a passing
    proof is only ever computed from the tables. ``routing.detour_hops``
    is left as it was found.

    Returns a report dict (``pairs_checked``, ``rerouted_pairs``,
    ``unroutable_pairs``, ``xyx_checked``).
    """
    strict = pairs is not None
    if pairs is None:
        live = sorted(alive_nodes(topology, routing.dead), key=str)
        pairs = [(s, d) for s in live for d in live if s != d]
    else:
        pairs = list(pairs)

    saved_detour_hops = routing.detour_hops
    try:
        report, _ = _table_proof(topology, routing, pairs, strict)
        if report is None:
            _replay_route_trees(topology, routing, pairs, strict)
            raise ValidationError(
                f"unreachable: the route-tree replay of a failed table proof "
                f"on {topology.name} must raise"
            )
    finally:
        routing.detour_hops = saved_detour_hops
    return report


def _table_proof(
    topology: Topology,
    routing: DegradedRouting,
    pairs: list,
    strict: bool,
) -> tuple[dict | None, DependencyGraph | None]:
    """:func:`verify_degraded`'s checks as whole-table array passes.

    Returns the report, or ``None`` when any check fails, together with
    the channel dependency graph of the routed pairs (``None`` when a
    check before it failed). Tree membership marks the nodes on routed
    pairs' paths -- the trees a :class:`RouteForest` would grow -- by
    propagating from the sources.
    """
    sources, destinations = zip(*pairs) if pairs else ((), ())
    tables = RouteTables(topology, dict.fromkeys(destinations))
    lookup = tables.index.get
    src = np.fromiter(map(lookup, sources, repeat(-1)), dtype=np.intp)
    dst = np.fromiter(map(lookup, destinations, repeat(-1)), dtype=np.intp)
    if (src < 0).any() or (dst < 0).any():
        return None, None  # an endpoint outside the topology
    row = tables.row[dst]

    hops, alive = routing.route_tables(tables)
    channel = tables.hop_channels(hops)
    starts = np.zeros(hops.shape, dtype=bool)
    starts[row, src] = True
    routable, visited = tables.reach(hops, channel >= 0, starts)
    routed = routable[row, src]
    if strict and not routed.all():
        return None, None
    tree = visited & routable & ~tables.home
    if tables.channel_mask(routing.dead)[channel[tree]].any():
        return None, None

    edges = tables.dependency_edges(hops, tree)
    graph = tables.dependency_graph(edges)
    if find_cycle(graph) is not None:
        return None, graph

    xyx_checked = isinstance(topology, SimplifiedMeshTopology)
    if xyx_checked:
        cols, rows = topology.cols, topology.rows
        number = {
            k: xyx_channel_number(cols, rows, *tables.channels[k])
            for k in np.unique(edges).tolist()
        }
        if any(number[b] <= number[a] for a, b in edges.tolist()):
            return None, graph

    routed_count = int(routed.sum())
    return {
        "pairs_checked": routed_count,
        "rerouted_pairs": int((routed & ~alive[row, src]).sum()),
        "unroutable_pairs": len(pairs) - routed_count,
        "xyx_checked": xyx_checked,
    }, graph


def _replay_route_trees(
    topology: Topology,
    routing: DegradedRouting,
    pairs: list,
    strict: bool,
) -> None:
    """The route-tree proof, run to raise the first failing check's error."""
    forest = RouteForest(topology, routing)
    routed = 0
    for source, destination in pairs:
        reason = forest.walk(source, destination)
        if reason is None:
            routed += 1
        elif strict:
            raise ValidationError(
                f"degraded routing cannot serve {source}->{destination}: "
                f"{reason}"
            )

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

    if isinstance(topology, SimplifiedMeshTopology):
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


_ = HUB  # halo vocabulary used by fallback_destination
