"""Unit and property tests for XY / XYX / spike routing (Fig. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.noc import (
    Direction,
    HaloTopology,
    MeshTopology,
    SimplifiedMeshTopology,
    XYRouting,
    XYXRouting,
    channel_dependency_graph,
    xyx_channel_number,
)
from repro.noc.routing import (
    RouteComputer,
    RouteForest,
    RouteTables,
    SpikeRouting,
    find_cycle,
    is_deadlock_free,
    route_forest,
    routing_for,
)
from repro.noc.topology import HUB, spike_node

coords = st.tuples(st.integers(0, 7), st.integers(0, 7))


class TestXYRouting:
    def test_x_resolved_first(self):
        routing = XYRouting()
        assert routing.direction((0, 0), (3, 3)) is Direction.X_PLUS
        assert routing.direction((3, 0), (3, 3)) is Direction.Y_PLUS

    def test_arrival_is_local(self):
        assert XYRouting().direction((2, 2), (2, 2)) is Direction.LOCAL

    def test_path_on_mesh(self):
        mesh = MeshTopology(4, 4)
        path = XYRouting().path(mesh, (0, 0), (2, 3))
        assert path == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3)]

    def test_hops(self):
        mesh = MeshTopology(4, 4)
        assert XYRouting().hops(mesh, (0, 0), (3, 3)) == 6
        assert XYRouting().hops(mesh, (1, 1), (1, 1)) == 0

    @given(src=coords, dst=coords)
    @settings(max_examples=80, deadline=None)
    def test_always_reaches_destination(self, src, dst):
        mesh = MeshTopology(8, 8)
        path = XYRouting().path(mesh, src, dst)
        assert path[0] == src and path[-1] == dst
        assert len(path) - 1 == abs(src[0] - dst[0]) + abs(src[1] - dst[1])


class TestXYXRouting:
    def test_requests_go_x_first(self):
        routing = XYXRouting()
        assert routing.direction((0, 0), (3, 3)) is Direction.X_PLUS

    def test_replies_go_y_first(self):
        # From a bank (row 3) back to the core row: Y- first.
        routing = XYXRouting()
        assert routing.direction((3, 3), (0, 0)) is Direction.Y_MINUS
        assert routing.direction((3, 0), (0, 0)) is Direction.X_MINUS

    def test_legal_on_simplified_mesh_for_cache_traffic(self):
        mesh = SimplifiedMeshTopology(8, 8)
        routing = XYXRouting()
        core = mesh.core_attach
        for node in sorted(mesh.nodes):
            if node == core:
                continue
            down = routing.path(mesh, core, node)
            up = routing.path(mesh, node, core)
            assert down[-1] == node and up[-1] == core

    def test_illegal_mid_mesh_horizontal_detected(self):
        mesh = SimplifiedMeshTopology(4, 4)
        # (0,2) -> (3,3): Yoff >= 0 selects X+ at row 2, which is removed.
        with pytest.raises(RoutingError, match="missing channel"):
            XYXRouting().path(mesh, (0, 2), (3, 3))

    @given(src=coords, dst=coords)
    @settings(max_examples=100, deadline=None)
    def test_channel_numbers_strictly_increase(self, src, dst):
        """The Fig.-5 enumeration: every XYX path climbs channel numbers,
        hence the routing is deadlock-free."""
        mesh = MeshTopology(8, 8)
        path = XYXRouting().path(mesh, src, dst)
        numbers = [
            xyx_channel_number(8, 8, path[i], path[i + 1])
            for i in range(len(path) - 1)
        ]
        assert all(a < b for a, b in zip(numbers, numbers[1:]))

    def test_channel_number_rejects_non_channel(self):
        with pytest.raises(RoutingError):
            xyx_channel_number(4, 4, (0, 0), (2, 2))

    def test_channel_numbers_unique(self):
        mesh = MeshTopology(4, 4)
        numbers = [
            xyx_channel_number(4, 4, c.src, c.dst) for c in mesh.channels()
        ]
        assert len(numbers) == len(set(numbers))


class TestSpikeRouting:
    def test_hub_to_spike(self):
        halo = HaloTopology(4, 4)
        path = SpikeRouting().path(halo, HUB, spike_node(2, 3))
        assert path == [HUB] + [spike_node(2, i) for i in range(4)]

    def test_spike_to_hub(self):
        halo = HaloTopology(4, 4)
        path = SpikeRouting().path(halo, spike_node(1, 2), HUB)
        assert path == [spike_node(1, 2), spike_node(1, 1), spike_node(1, 0), HUB]

    def test_cross_spike_via_hub(self):
        halo = HaloTopology(4, 4)
        path = SpikeRouting().path(halo, spike_node(0, 1), spike_node(3, 0))
        assert HUB in path

    def test_within_spike_down(self):
        halo = HaloTopology(4, 4)
        assert SpikeRouting().hops(halo, spike_node(0, 0), spike_node(0, 3)) == 3


class TestDeadlockFreedom:
    def test_xy_on_mesh(self):
        assert is_deadlock_free(MeshTopology(4, 4), XYRouting())

    def test_xyx_on_full_mesh(self):
        assert is_deadlock_free(MeshTopology(4, 4), XYXRouting())

    def test_xyx_on_simplified_mesh_cache_traffic(self):
        mesh = SimplifiedMeshTopology(5, 5)
        endpoints = (mesh.core_attach, mesh.memory_attach)
        pairs = []
        for node in sorted(mesh.nodes):
            for endpoint in endpoints:
                if node != endpoint:
                    pairs.append((endpoint, node))
                    pairs.append((node, endpoint))
        # plus in-column replacement traffic
        for x in range(5):
            for y in range(4):
                pairs.append(((x, y), (x, y + 1)))
                pairs.append(((x, y + 1), (x, y)))
        assert is_deadlock_free(mesh, XYXRouting(), pairs)

    def test_spike_routing_on_halo(self):
        assert is_deadlock_free(HaloTopology(4, 4), SpikeRouting())

    def test_cdg_has_edges(self):
        mesh = MeshTopology(3, 3)
        graph = channel_dependency_graph(mesh, XYRouting())
        assert len(graph) == mesh.num_channels
        assert sum(len(successors) for successors in graph.values()) > 0

    def test_clockwise_turn_cycle_deadlocks(self):
        mesh = MeshTopology(2, 2)
        assert not is_deadlock_free(mesh, _Clockwise())
        cycle = find_cycle(channel_dependency_graph(mesh, _Clockwise()))
        assert cycle is not None and cycle[0] == cycle[-1]
        assert len(cycle) == 5  # the four ring channels, closed


class _Clockwise(RouteComputer):
    """Always turn the same way round a 2x2 mesh: a turn cycle."""

    name = "clockwise"
    RING = [(0, 0), (1, 0), (1, 1), (0, 1)]

    def next_hop(self, topology, current, destination):
        if current == destination:
            return None
        return self.RING[(self.RING.index(current) + 1) % 4]


class _Scripted(RouteComputer):
    """Next hops read from a ``{(current, destination): next}`` table."""

    name = "scripted"

    def __init__(self, table):
        self.table = table

    def next_hop(self, topology, current, destination):
        if current == destination:
            return None
        return self.table.get((current, destination))


class _Counting(XYRouting):
    def __init__(self):
        self.calls = {}

    def next_hop(self, topology, current, destination):
        key = (current, destination)
        self.calls[key] = self.calls.get(key, 0) + 1
        return super().next_hop(topology, current, destination)


class TestRouteForest:
    def test_paths_match_hop_by_hop_walks(self):
        mesh = MeshTopology(4, 4)
        forest = route_forest(mesh, XYXRouting())
        nodes = sorted(mesh.nodes)
        for s in nodes:
            for d in nodes:
                assert forest.path(s, d) == XYXRouting().path(mesh, s, d)

    def test_each_hop_decided_once(self):
        mesh = MeshTopology(4, 4)
        routing = _Counting()
        route_forest(mesh, routing)
        assert max(routing.calls.values()) == 1
        # Every non-destination node of every tree, nothing more.
        assert len(routing.calls) == 16 * 15

    def test_dependencies_are_consecutive_channel_pairs(self):
        mesh = MeshTopology(3, 3)
        nodes = sorted(mesh.nodes)
        expected = set()
        for s in nodes:
            for d in nodes:
                path = XYRouting().path(mesh, s, d)
                expected.update(
                    ((a, b), (b, c)) for a, b, c in zip(path, path[1:], path[2:])
                )
        forest = route_forest(mesh, XYRouting())
        assert {(h, r) for h, r, _ in forest.dependencies()} == expected

    def test_stall_fails_every_walked_node(self):
        mesh = MeshTopology(3, 1)
        routing = _Scripted({((0, 0), (2, 0)): (1, 0)})
        forest = RouteForest(mesh, routing)
        assert "stalled at (1, 0)" in forest.walk((0, 0), (2, 0))
        assert forest.failures[(2, 0)].keys() == {(0, 0), (1, 0)}
        assert (0, 0) not in forest.trees[(2, 0)]

    def test_missing_channel_fails(self):
        mesh = MeshTopology(3, 1)
        routing = _Scripted({((0, 0), (2, 0)): (2, 0)})
        assert "missing channel" in RouteForest(mesh, routing).walk(
            (0, 0), (2, 0)
        )

    def test_loop_fails_like_path(self):
        mesh = MeshTopology(3, 1)
        table = {((0, 0), (2, 0)): (1, 0), ((1, 0), (2, 0)): (0, 0)}
        routing = _Scripted(table)
        assert "routing loop" in RouteForest(mesh, routing).walk((0, 0), (2, 0))
        with pytest.raises(RoutingError):
            routing.path(mesh, (0, 0), (2, 0))
        with pytest.raises(RoutingError, match="routing loop"):
            route_forest(mesh, routing, [((0, 0), (2, 0))])

    def test_later_walk_inherits_a_known_failure(self):
        mesh = MeshTopology(3, 1)
        table = {((0, 0), (2, 0)): (1, 0)}  # (1, 0) stalls
        forest = RouteForest(mesh, _Scripted(table))
        first = forest.walk((1, 0), (2, 0))
        assert forest.walk((0, 0), (2, 0)) == first

    def test_find_cycle_on_acyclic_and_cyclic_graphs(self):
        assert find_cycle({"a": {"b": None}, "b": {}}) is None
        graph = {"a": {"b": None}, "b": {"c": None}, "c": {"b": None}}
        assert find_cycle(graph) == ["b", "c", "b"]


class _Snake(RouteComputer):
    """Routes along one boustrophedon walk through every node of a mesh."""

    name = "snake"

    def __init__(self, cols, rows):
        self.order = [
            (x if y % 2 == 0 else cols - 1 - x, y)
            for y in range(rows)
            for x in range(cols)
        ]
        self.rank = {node: i for i, node in enumerate(self.order)}

    def next_hop(self, topology, current, destination):
        i, j = self.rank[current], self.rank[destination]
        if i == j:
            return None
        return self.order[i + 1 if j > i else i - 1]


class _Raising(XYRouting):
    def next_hop(self, topology, current, destination):
        if current == (0, 0):
            raise RoutingError("no route from the corner")
        return super().next_hop(topology, current, destination)


def _reach_all(tables, table):
    """Routability of every entry, and the nodes every source's walk visits."""
    sources = ~tables.home
    return tables.reach(table, tables.hop_channels(table) >= 0, sources)


class TestRouteTables:
    def test_table_encodes_hops_and_both_sentinels(self):
        mesh = MeshTopology(3, 1)
        tables = RouteTables(mesh, [(2, 0)])
        scripted = tables.table(_Scripted({((0, 0), (2, 0)): (1, 0)}))
        index = tables.index
        assert tables.nodes == [(0, 0), (1, 0), (2, 0)]
        assert scripted.tolist() == [[index[(1, 0)], tables.stall, index[(2, 0)]]]
        raising = tables.table(_Raising())
        assert raising.tolist() == [[tables.error, index[(2, 0)], index[(2, 0)]]]

    def test_reach_follows_routes_longer_than_half_the_nodes(self):
        # The snake's end-to-end route has 15 hops on 16 nodes: one
        # pointer-jumping round short (2**3 = 8 hops) cannot see it home.
        mesh = MeshTopology(4, 4)
        snake = _Snake(4, 4)
        assert len(snake.path(mesh, snake.order[0], snake.order[-1])) - 1 == 15
        tables = RouteTables(mesh, mesh.nodes)
        table = tables.table(snake)
        sources = np.zeros(table.shape, dtype=bool)
        row = tables.row[tables.index[snake.order[-1]]]
        sources[row, tables.index[snake.order[0]]] = True
        routable, visited = tables.reach(
            table, tables.hop_channels(table) >= 0, sources
        )
        assert routable.all()
        assert visited[row].all()
        assert not np.delete(visited, row, axis=0).any()

    def test_reach_fails_stalls_loops_and_missing_channels(self):
        mesh = MeshTopology(4, 1)
        goal = (3, 0)
        script = {
            ((0, 0), goal): (1, 0),  # into the loop below
            ((1, 0), goal): (2, 0),
            ((2, 0), goal): (1, 0),  # loops back
        }
        tables = RouteTables(mesh, [goal, (0, 0)])
        table = tables.table(_Scripted(script))
        routable, _ = tables.reach(table, tables.hop_channels(table) >= 0)
        row = tables.row[tables.index[goal]]
        assert routable[row].tolist() == [False, False, False, True]
        # Toward (0, 0) every hop stalls except the destination itself.
        other = tables.row[tables.index[(0, 0)]]
        assert routable[other].tolist() == [True, False, False, False]
        jump = tables.table(_Scripted({((0, 0), goal): goal}))
        routable, _ = tables.reach(jump, tables.hop_channels(jump) >= 0)
        assert not routable[row, tables.index[(0, 0)]]  # missing channel

    @pytest.mark.parametrize(
        "topology, routing",
        [
            (MeshTopology(4, 4), XYRouting()),
            (SimplifiedMeshTopology(4, 4), XYXRouting()),
            (HaloTopology(3, 3), SpikeRouting()),
        ],
    )
    def test_routes_and_dependencies_match_the_forest(self, topology, routing):
        tables = RouteTables(topology, topology.nodes)
        table = tables.table(routing)
        routable, visited = _reach_all(tables, table)
        forest = RouteForest(topology, routing)
        routed = []
        for d in tables.nodes:
            for s in tables.nodes:
                ok = forest.walk(s, d) is None
                assert routable[tables.row[tables.index[d]], tables.index[s]] == ok
                if ok:
                    routed.append((s, d))
        tree = visited & routable & ~tables.home
        graph = tables.dependency_graph(tables.dependency_edges(table, tree))
        forest_graph = route_forest(topology, routing, routed).dependency_graph()
        assert list(graph) == list(forest_graph)
        assert {k: set(v) for k, v in graph.items()} == {
            k: set(v) for k, v in forest_graph.items()
        }


class TestRoutingFor:
    def test_defaults(self):
        assert isinstance(routing_for(MeshTopology(4, 4)), XYRouting)
        assert isinstance(routing_for(SimplifiedMeshTopology(4, 4)), XYXRouting)
        assert isinstance(routing_for(HaloTopology(4, 4)), SpikeRouting)

    def test_unknown_topology_rejected(self):
        from repro.noc.topology import Topology

        with pytest.raises(RoutingError):
            routing_for(Topology())
