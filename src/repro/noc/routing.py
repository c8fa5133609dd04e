"""Routing algorithms: XY, deadlock-free XYX (Fig. 5), and spike routing.

Route computers map ``(current node, destination node)`` to the next node;
the output port of a router is identified with the neighbor it reaches.
``None`` means the flit has arrived and must be ejected (the *Internal*
channel of Fig. 5(a)).

Coordinates follow :mod:`repro.noc.topology`: ``y`` grows downward, away
from the core row (y = 0), so ``Y+`` is the request direction down a bank
column and ``Y-`` is the reply direction back toward the core/memory row.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import RoutingError
from repro.noc.topology import HUB, HaloTopology, NodeId, Topology

if TYPE_CHECKING:
    # RouteTables imports NumPy where it runs: this module loads early at
    # start-up, and importing NumPy that early raises peak RSS.
    import numpy as np


class Direction(enum.Enum):
    """Physical-channel directions of a mesh router (plus local port)."""

    X_PLUS = "X+"
    X_MINUS = "X-"
    Y_PLUS = "Y+"
    Y_MINUS = "Y-"
    LOCAL = "internal"


def mesh_step(node: NodeId, direction: Direction) -> NodeId:
    """Neighbor of *node* in *direction* (mesh coordinates)."""
    x, y = node
    if direction is Direction.X_PLUS:
        return (x + 1, y)
    if direction is Direction.X_MINUS:
        return (x - 1, y)
    if direction is Direction.Y_PLUS:
        return (x, y + 1)
    if direction is Direction.Y_MINUS:
        return (x, y - 1)
    return node


class RouteComputer:
    """Base interface: pick the next node toward *destination*."""

    name = "route"

    def next_hop(
        self, topology: Topology, current: NodeId, destination: NodeId
    ) -> NodeId | None:
        raise NotImplementedError

    def path(
        self, topology: Topology, source: NodeId, destination: NodeId
    ) -> list[NodeId]:
        """Full node path ``[source, ..., destination]``.

        Raises :class:`RoutingError` if the algorithm selects a channel the
        topology does not provide, or fails to make progress.
        """
        path = [source]
        current = source
        limit = topology.num_nodes + 1
        while current != destination:
            nxt = self.next_hop(topology, current, destination)
            if nxt is None:
                raise RoutingError(
                    f"{self.name}: stalled at {current} before reaching {destination}"
                )
            if not topology.has_channel(current, nxt):
                raise RoutingError(
                    f"{self.name}: selected missing channel {current}->{nxt} "
                    f"in {topology.name}"
                )
            path.append(nxt)
            current = nxt
            if len(path) > limit:
                raise RoutingError(
                    f"{self.name}: path exceeds node count "
                    f"({source}->{destination}); routing loop"
                )
        return path

    def hops(self, topology: Topology, source: NodeId, destination: NodeId) -> int:
        """Number of channel traversals from source to destination."""
        return len(self.path(topology, source, destination)) - 1


class XYRouting(RouteComputer):
    """Dimension-ordered XY routing: resolve X fully, then Y."""

    name = "XY"

    def direction(self, current: NodeId, destination: NodeId) -> Direction:
        x, y = current
        dx, dy = destination
        if dx > x:
            return Direction.X_PLUS
        if dx < x:
            return Direction.X_MINUS
        if dy > y:
            return Direction.Y_PLUS
        if dy < y:
            return Direction.Y_MINUS
        return Direction.LOCAL

    def next_hop(
        self, topology: Topology, current: NodeId, destination: NodeId
    ) -> NodeId | None:
        direction = self.direction(current, destination)
        if direction is Direction.LOCAL:
            return None
        return mesh_step(current, direction)


class XYXRouting(RouteComputer):
    """The paper's deadlock-free XYX routing (Fig. 5(a)).

    Moving *away* from the core row (``Yoffset >= 0``) routes X first then
    Y+; moving back toward it routes Y- first, finishing with X along the
    destination row. On the simplified mesh this confines every horizontal
    hop to the first row for the cache's traffic patterns.
    """

    name = "XYX"

    def direction(self, current: NodeId, destination: NodeId) -> Direction:
        x_offset = destination[0] - current[0]
        y_offset = destination[1] - current[1]
        if y_offset >= 0:
            if x_offset > 0:
                return Direction.X_PLUS
            if x_offset < 0:
                return Direction.X_MINUS
            if y_offset == 0:
                return Direction.LOCAL
            return Direction.Y_PLUS
        return Direction.Y_MINUS

    def next_hop(
        self, topology: Topology, current: NodeId, destination: NodeId
    ) -> NodeId | None:
        direction = self.direction(current, destination)
        if direction is Direction.LOCAL:
            return None
        return mesh_step(current, direction)


class SpikeRouting(RouteComputer):
    """Routing on a halo: along the spike, through the hub across spikes."""

    name = "spike"

    def next_hop(
        self, topology: Topology, current: NodeId, destination: NodeId
    ) -> NodeId | None:
        if current == destination:
            return None
        if current == HUB:
            if destination == HUB:
                return None
            _, spike, _ = destination
            return ("spike", spike, 0)
        _, cur_spike, cur_pos = current
        if destination == HUB:
            return HUB if cur_pos == 0 else ("spike", cur_spike, cur_pos - 1)
        _, dst_spike, dst_pos = destination
        if dst_spike != cur_spike:
            # Cross-spike traffic funnels through the hub.
            return HUB if cur_pos == 0 else ("spike", cur_spike, cur_pos - 1)
        if dst_pos > cur_pos:
            return ("spike", cur_spike, cur_pos + 1)
        return ("spike", cur_spike, cur_pos - 1)


def routing_for(topology: Topology) -> RouteComputer:
    """Pick the natural route computer for *topology*.

    Full meshes use XY (Design A); simplified meshes require XYX (Designs
    B-D); halos use spike routing (Designs E-F).
    """
    from repro.noc.topology import MeshTopology, SimplifiedMeshTopology

    if isinstance(topology, HaloTopology):
        return SpikeRouting()
    if isinstance(topology, SimplifiedMeshTopology):
        return XYXRouting()
    if isinstance(topology, MeshTopology):
        return XYRouting()
    raise RoutingError(f"no default routing for topology {topology.name!r}")


def xyx_channel_number(cols: int, rows: int, src: NodeId, dst: NodeId) -> int:
    """Total channel enumeration proving XYX deadlock freedom (Fig. 5(b)).

    Every XYX path is either an X-phase followed by a Y+ phase, or a
    Y- phase followed by an X phase. Numbering the three channel classes in
    layers -- all Y- channels lowest, then X channels, then Y+ channels --
    with coordinate-monotone numbers inside each class makes every legal
    path follow strictly increasing channel numbers, so the channel
    dependency graph is acyclic and the routing is deadlock-free.
    """
    (sx, sy), (dx, dy) = src, dst
    if sx == dx:
        if dy == sy - 1:  # Y- channel
            return sx * (rows - 1) + (rows - 1 - sy)
        if dy == sy + 1:  # Y+ channel
            base = cols * (rows - 1) + 2 * rows * (cols - 1)
            return base + sx * (rows - 1) + sy
    elif sy == dy:
        if dx == sx + 1:  # X+ channel
            base = cols * (rows - 1)
            return base + sy * (cols - 1) + sx
        if dx == sx - 1:  # X- channel
            base = cols * (rows - 1) + rows * (cols - 1)
            return base + sy * (cols - 1) + (cols - 1 - sx)
    raise RoutingError(f"{src}->{dst} is not a mesh channel")


def xyx_path_channel_numbers(
    cols: int, rows: int, path: Iterable[NodeId]
) -> list[int]:
    """Fig. 5(b) enumeration number of each channel along a node path.

    A legal XYX path must yield a strictly increasing list -- the online
    form of the deadlock-freedom argument that the validation checkers
    enforce per switch traversal.
    """
    nodes = list(path)
    return [
        xyx_channel_number(cols, rows, src, dst)
        for src, dst in zip(nodes, nodes[1:])
    ]


#: A directed channel ``(src, dst)``: a vertex of the dependency graph.
ChannelKey = tuple[NodeId, NodeId]
#: Channel dependency graph: each channel maps to the channels a packet
#: holding it may request next (insertion-ordered, so walks over it and
#: the cycles it reports are deterministic).
DependencyGraph = dict[ChannelKey, dict[ChannelKey, None]]


class RouteForest:
    """Per-destination route trees of a destination-based route computer.

    Every route computer here picks ``next_hop`` from ``(current,
    destination)`` alone, so ``path(s, d)`` is ``s`` followed by
    ``path(next_hop(s, d), d)``: the routes toward one destination form a
    tree rooted at it. :meth:`walk` grows these trees and decides each
    ``(node, destination)`` hop at most once -- a walk stops at the first
    node already proven to reach the destination, or already known to
    fail. Routes, channel usage and the channel dependency graph all
    derive from the trees, so proving every pair costs O(nodes x
    destinations) hop decisions instead of O(pairs x path length).
    """

    def __init__(self, topology: Topology, routing: RouteComputer) -> None:
        self.topology = topology
        self.routing = routing
        #: ``trees[d][u]``: next hop from ``u`` toward ``d``, for every
        #: node a walk proved to reach ``d``.
        self.trees: dict[NodeId, dict[NodeId, NodeId]] = {}
        #: ``failures[d][u]``: why the route from ``u`` to ``d`` fails.
        self.failures: dict[NodeId, dict[NodeId, str]] = {}

    def walk(self, source: NodeId, destination: NodeId) -> str | None:
        """Prove that *source* routes to *destination*.

        Returns ``None`` on success, else why the route fails: a stall, a
        missing channel, or a loop (a node revisited within the walk).
        Every node of a failed walk shares the failure, because its own
        route continues along the same hops.
        """
        tree = self.trees.setdefault(destination, {})
        failed = self.failures.setdefault(destination, {})
        if source == destination or source in tree:
            return None
        if source in failed:
            return failed[source]
        topology, routing = self.topology, self.routing
        hops: dict[NodeId, NodeId] = {}
        node = source
        while True:
            try:
                nxt = routing.next_hop(topology, node, destination)
            except RoutingError as exc:
                reason = str(exc)
                break
            if nxt is None:
                reason = (
                    f"{routing.name}: stalled at {node} before reaching "
                    f"{destination}"
                )
                break
            if not topology.has_channel(node, nxt):
                reason = (
                    f"{routing.name}: selected missing channel {node}->{nxt} "
                    f"in {topology.name}"
                )
                break
            hops[node] = nxt
            if nxt == destination or nxt in tree:
                tree.update(hops)
                return None
            if nxt in failed:
                reason = failed[nxt]
                break
            if nxt in hops:
                reason = (
                    f"{routing.name}: revisits {nxt} "
                    f"({source}->{destination}); routing loop"
                )
                break
            node = nxt
        failed.update(dict.fromkeys(hops, reason))
        failed[node] = reason
        return reason

    def path(self, source: NodeId, destination: NodeId) -> list[NodeId]:
        """The route ``[source, ..., destination]`` read off the tree.

        Walks the pair first if needed; raises :class:`RoutingError` when
        it does not route.
        """
        reason = self.walk(source, destination)
        if reason is not None:
            raise RoutingError(reason)
        tree = self.trees.get(destination, {})
        path = [source]
        while path[-1] != destination:
            path.append(tree[path[-1]])
        return path

    def hops(self) -> Iterator[tuple[NodeId, NodeId, NodeId]]:
        """``(node, next_hop, destination)`` for every proven tree edge."""
        for destination, tree in self.trees.items():
            for node, nxt in tree.items():
                yield node, nxt, destination

    def dependencies(self) -> Iterator[tuple[ChannelKey, ChannelKey, NodeId]]:
        """``(held, requested, destination)`` for every proven turn.

        One per tree node whose next hop is not the destination: these
        are exactly the consecutive channel pairs of the routed paths.
        """
        for destination, tree in self.trees.items():
            for node, nxt in tree.items():
                if nxt != destination:
                    yield (node, nxt), (nxt, tree[nxt]), destination

    def dependency_graph(self) -> DependencyGraph:
        """The channel dependency graph of the routes walked so far."""
        graph: DependencyGraph = {
            (channel.src, channel.dst): {}
            for channel in self.topology.channels()
        }
        for held, requested, _ in self.dependencies():
            graph[held][requested] = None
        return graph


def route_forest(
    topology: Topology,
    routing: RouteComputer,
    pairs: Iterable[tuple[NodeId, NodeId]] | None = None,
) -> RouteForest:
    """Walk *pairs* (default: every ordered node pair) into a forest.

    Raises :class:`RoutingError` for the first pair that does not route,
    as :meth:`RouteComputer.path` would.
    """
    forest = RouteForest(topology, routing)
    if pairs is None:
        nodes = sorted(topology.nodes)
        pairs = ((s, d) for s in nodes for d in nodes if s != d)
    for source, destination in pairs:
        reason = forest.walk(source, destination)
        if reason is not None:
            raise RoutingError(reason)
    return forest


def find_cycle(graph: DependencyGraph) -> list[ChannelKey] | None:
    """A dependency cycle ``[a, b, ..., a]`` of *graph*, or ``None``.

    Iterative depth-first search, so large fabrics cannot hit the
    recursion limit; roots and successors are taken in mapping order, so
    the reported cycle is deterministic.
    """
    done: set[ChannelKey] = set()
    for root in graph:
        if root in done:
            continue
        stack = [(root, iter(graph[root]))]
        depth = {root: 0}
        while stack:
            channel, successors = stack[-1]
            for succ in successors:
                if succ in depth:
                    cycle = [entry[0] for entry in stack[depth[succ]:]]
                    return cycle + [succ]
                if succ not in done:
                    depth[succ] = len(stack)
                    stack.append((succ, iter(graph.get(succ, {}))))
                    break
            else:
                stack.pop()
                del depth[channel]
                done.add(channel)
    return None


class RouteTables:
    """Destination x node next-hop tables of destination-based routes.

    The same per-destination trees as :class:`RouteForest`, held as
    arrays instead of walked. Nodes are indexed once, in ``str`` order,
    and channels in ``topology.channels()`` order. A table has one row
    per destination in :attr:`destinations` and one column per node:
    ``table[r, u]`` is the index of the node a route computer picks from
    ``u`` toward row ``r``'s destination, :attr:`stall` where it returned
    ``None``, or :attr:`error` where it raised :class:`RoutingError` or
    named a node outside the topology. A destination's own column holds
    the destination. Every check below is a whole-table array pass, so
    proving all pairs of a fabric costs one ``next_hop`` call per (node,
    destination) plus ``ceil(log2 nodes)`` pointer-jumping rounds.
    """

    def __init__(
        self, topology: Topology, destinations: Iterable[NodeId]
    ) -> None:
        import numpy as np

        self.topology = topology
        self.nodes = sorted(topology.nodes, key=str)
        self.index = {node: i for i, node in enumerate(self.nodes)}
        n = len(self.nodes)
        self.stall = n
        self.error = n + 1
        self.channels: list[ChannelKey] = [
            (channel.src, channel.dst) for channel in topology.channels()
        ]
        #: ``channel_id[u, v]``: id of channel ``u -> v``, or -1 when there
        #: is none (as in both sentinel columns).
        self.channel_id = np.full((n, n + 2), -1, dtype=np.intp)
        for k, (src, dst) in enumerate(self.channels):
            self.channel_id[self.index[src], self.index[dst]] = k
        #: Node index of each row's destination (destinations outside the
        #: topology get no row).
        self.destinations = np.array(
            sorted(
                {self.index[d] for d in destinations if d in self.index}
            ),
            dtype=np.intp,
        )
        #: ``row[u]``: the row whose destination is node ``u``, else -1.
        self.row = np.full(n, -1, dtype=np.intp)
        self.row[self.destinations] = np.arange(len(self.destinations))
        #: ``home[r, u]``: node ``u`` is row ``r``'s destination.
        self.home = self.destinations[:, None] == np.arange(n)

    def table(self, routing: RouteComputer) -> np.ndarray:
        """*routing*'s table: one ``next_hop`` call per (destination, node)."""
        import numpy as np

        topology, nodes, index = self.topology, self.nodes, self.index
        stall, error = self.stall, self.error
        next_hop = routing.next_hop
        table = np.empty(self.home.shape, dtype=np.intp)
        for r, d in enumerate(self.destinations.tolist()):
            destination = nodes[d]
            row = []
            for u, node in enumerate(nodes):
                if u == d:
                    row.append(d)
                    continue
                try:
                    nxt = next_hop(topology, node, destination)
                except RoutingError:
                    row.append(error)
                    continue
                row.append(stall if nxt is None else index.get(nxt, error))
            table[r] = row
        return table

    def channel_mask(self, channels: Iterable[ChannelKey]) -> np.ndarray:
        """Per channel id: is the channel one of *channels*?"""
        import numpy as np

        members = frozenset(channels)
        return np.array([c in members for c in self.channels], dtype=bool)

    def hop_channels(self, table: np.ndarray) -> np.ndarray:
        """Channel id of every entry's hop; -1 where the hop is no channel."""
        import numpy as np

        return self.channel_id[np.arange(len(self.nodes)), table]

    def reach(
        self,
        table: np.ndarray,
        ok: np.ndarray,
        sources: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Which entries route home over ``ok`` entries, by pointer jumping.

        Entry ``(r, u)`` routes home when the walk along *table* from
        ``u`` reaches row ``r``'s destination through entries that are
        all ``ok`` (an ``ok`` entry must hop to a node). Every entry
        that is not ``ok`` is made its own successor, and so is each
        destination. Round ``k`` then leaves ``succ`` holding each
        entry's ``2**k``-th successor and ``good`` whether the first
        ``2**k`` entries of its walk are all ``ok``. A walk that gets
        home does so within ``nodes - 1`` hops and stays there, so after
        ``ceil(log2 nodes)`` rounds an entry routes home exactly when it
        is good and its successor is home; a walk that stalls or loops
        never is.

        *sources*, a mask of walk starts, comes back with every node those
        walks visit marked, by the same doubling (a walk's first
        ``2**(k+1)`` nodes are its first ``2**k`` and their ``2**k``-th
        successors). A walk that fails visits only nodes that fail too.
        """
        import numpy as np

        n = len(self.nodes)
        rows = np.arange(len(self.destinations))[:, None]
        good = ok | self.home
        succ = np.where(good, table, np.arange(n))
        visited = None if sources is None else sources.copy()
        for _ in range(max(1, (n - 1).bit_length())):
            if visited is not None:
                r, u = visited.nonzero()
                visited[r, succ[r, u]] = True
            good = good & good[rows, succ]
            succ = succ[rows, succ]
        return good & (succ == self.destinations[:, None]), visited

    def dependency_edges(
        self, table: np.ndarray, tree: np.ndarray
    ) -> np.ndarray:
        """``(held, requested)`` channel-id pairs of the routes in *tree*.

        *tree* marks the nodes whose hop some checked route takes (never
        a row's destination). A route holds ``u -> v`` while requesting
        ``v -> table[r, v]`` at every tree node ``u`` whose hop does not
        end the route: the turns :meth:`RouteForest.dependencies` yields.
        Each pair comes once, sorted.
        """
        import numpy as np

        r, u = tree.nonzero()
        v = table[r, u]
        turn = v != self.destinations[r]
        r, u, v = r[turn], u[turn], v[turn]
        count = len(self.channels)
        codes = np.unique(
            self.channel_id[u, v] * count + self.channel_id[v, table[r, v]]
        )
        return np.stack(np.divmod(codes, count), axis=1)

    def dependency_graph(self, edges: np.ndarray) -> DependencyGraph:
        """The insertion-ordered :data:`DependencyGraph` of *edges*."""
        channels = self.channels
        graph: DependencyGraph = {channel: {} for channel in channels}
        for held, requested in edges.tolist():
            graph[channels[held]][channels[requested]] = None
        return graph


def channel_dependency_graph(
    topology: Topology,
    routing: RouteComputer,
    pairs: Iterable[tuple[NodeId, NodeId]] | None = None,
) -> DependencyGraph:
    """Build the channel dependency graph induced by *routing*.

    Nodes are directed channels ``(src, dst)`` -- every channel of the
    topology; an edge from channel ``a`` to channel ``b`` exists when some
    routed path holds ``a`` while requesting ``b`` (i.e. uses them
    consecutively). Wormhole routing is deadlock-free iff this graph is
    acyclic (Dally & Seitz).
    """
    return route_forest(topology, routing, pairs).dependency_graph()


def is_deadlock_free(
    topology: Topology,
    routing: RouteComputer,
    pairs: Iterable[tuple[NodeId, NodeId]] | None = None,
    *,
    forest: RouteForest | None = None,
) -> bool:
    """True when *routing*'s channel dependency graph is acyclic.

    *forest* supplies routes already walked (then *pairs* is ignored), so
    a caller that proved routability need not walk the pairs again.
    """
    if forest is None:
        forest = route_forest(topology, routing, pairs)
    return find_cycle(forest.dependency_graph()) is None
