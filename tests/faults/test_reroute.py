"""Degraded routing: U-route detours, declared unroutability, proof checks."""

import pytest

from repro.errors import ValidationError
from repro.faults import (
    DegradedRouting,
    alive_nodes,
    fallback_destination,
    verify_degraded,
)
from repro.noc.routing import RouteComputer, XYRouting, routing_for
from repro.noc.topology import MeshTopology, SimplifiedMeshTopology


def _degraded(topology, cuts=()):
    """DegradedRouting with both directions of each cut pair dead."""
    dead = set()
    for src, dst in cuts:
        dead.add((src, dst))
        dead.add((dst, src))
    return DegradedRouting(topology, routing_for(topology), frozenset(dead))


class TestZeroFault:
    def test_paths_identical_to_base(self):
        topology = MeshTopology(3, 3)
        base = routing_for(topology)
        degraded = _degraded(topology)
        nodes = sorted(topology.nodes)
        for src in nodes:
            for dst in nodes:
                if src != dst:
                    assert degraded.path(topology, src, dst) == base.path(
                        topology, src, dst
                    )
        assert degraded.detour_hops == 0

    def test_verify_reports_nothing_degraded(self):
        topology = MeshTopology(3, 3)
        report = verify_degraded(topology, _degraded(topology))
        assert report["rerouted_pairs"] == 0
        assert report["unroutable_pairs"] == 0


class TestUDetours:
    def test_horizontal_cut_takes_u_route(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 2), (2, 2))])
        path = routing.path(topology, (1, 2), (3, 2))
        # Ascend to row 1, cross, descend: the U-route of the docstring.
        assert path == [(1, 2), (1, 1), (2, 1), (3, 1), (3, 2)]
        assert routing.detour_hops > 0
        assert routing.is_rerouted((1, 2), (3, 2))

    def test_verify_passes_with_reroutes(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 2), (2, 2))])
        report = verify_degraded(topology, routing)
        assert report["rerouted_pairs"] > 0
        assert report["unroutable_pairs"] == 0
        assert routing.detour_hops == 0  # verification walks don't count

    def test_vertical_cut_truncates_column_below(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 1), (1, 2))])
        # Below the cut the descent reuses the dead channel: unroutable.
        assert not routing.can_route((0, 0), (1, 2))
        assert not routing.can_route((0, 0), (1, 3))
        assert routing.can_route((0, 0), (1, 1))
        report = verify_degraded(topology, routing)
        assert report["unroutable_pairs"] > 0

    def test_strict_pairs_raise_on_unroutable(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 1), (1, 2))])
        with pytest.raises(ValidationError):
            verify_degraded(topology, routing, pairs=[((0, 0), (1, 3))])

    def test_can_route_leaves_detour_count_untouched(self):
        topology = MeshTopology(4, 4)
        routing = _degraded(topology, [((1, 2), (2, 2))])
        assert routing.can_route((1, 2), (3, 2))
        assert routing.detour_hops == 0


class TestSimplifiedMesh:
    def test_base_dead_is_unroutable(self):
        topology = SimplifiedMeshTopology(4, 4)
        routing = _degraded(topology, [((1, 1), (1, 2))])
        # On the simplified mesh the only XYX-legal descent is the base
        # path itself, so a cut column truncates: base-or-nothing.
        assert not routing.can_route((1, 0), (1, 2))
        assert routing.can_route((1, 0), (1, 1))

    def test_verify_checks_channel_enumeration(self):
        topology = SimplifiedMeshTopology(4, 4)
        report = verify_degraded(topology, _degraded(topology))
        assert report["xyx_checked"] is True
        assert report["pairs_checked"] > 0


class _Stub(DegradedRouting):
    """A degraded routing whose hops come from *hop* (a proof-check foil)."""

    def __init__(self, topology, hop, dead=()):
        super().__init__(topology, XYRouting(), frozenset(dead))
        self.hop = hop

    def next_hop(self, topology, current, destination):
        if current == destination:
            return None
        return self.hop(current, destination)


class _FullSimplifiedMesh(SimplifiedMeshTopology):
    """A simplified mesh that keeps every row's horizontal links, so a
    route can turn from Y+ into X (which Fig. 5(b) forbids)."""

    def _build_links(self):
        MeshTopology._build_links(self)


def _yx(current, destination):
    """Y first, then X: takes Y+ -> X turns on the way down."""
    (x, y), (dx, dy) = current, destination
    if y != dy:
        return (x, y + (1 if dy > y else -1))
    return (x + (1 if dx > x else -1), y)


class TestProofBranchesFail:
    def test_cyclic_dependency_graph_raises(self):
        topology = MeshTopology(2, 2)
        ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
        routing = _Stub(
            topology, lambda cur, dst: ring[(ring.index(cur) + 1) % 4]
        )
        with pytest.raises(ValidationError, match="cyclic channel dependency"):
            verify_degraded(topology, routing)

    def test_y_plus_to_x_turn_violates_fig5b(self):
        topology = _FullSimplifiedMesh(3, 3)
        routing = _Stub(topology, _yx)
        # YX is dimension-ordered, so its dependency graph is acyclic:
        # only the channel enumeration can catch the Y+ -> X turn.
        with pytest.raises(ValidationError, match="Fig. 5\\(b\\)"):
            verify_degraded(topology, routing, pairs=[((0, 0), (2, 2))])

    def test_route_through_dead_channel_raises(self):
        topology = MeshTopology(3, 3)
        dead = {((0, 1), (1, 1)), ((1, 1), (0, 1))}
        xy = XYRouting()
        routing = _Stub(
            topology, lambda cur, dst: xy.next_hop(topology, cur, dst), dead
        )
        with pytest.raises(ValidationError, match="crosses dead channel"):
            verify_degraded(topology, routing)

    def test_routing_loop_raises_for_guaranteed_pairs(self):
        topology = MeshTopology(3, 3)
        routing = _Stub(
            topology,
            lambda cur, dst: (1, 0) if cur == (0, 0) else (0, 0),
        )
        with pytest.raises(ValidationError, match="routing loop"):
            verify_degraded(topology, routing, pairs=[((0, 0), (2, 2))])
        # Without guaranteed pairs a loop is declared degradation.
        report = verify_degraded(topology, routing)
        assert report["unroutable_pairs"] > 0
        assert report["pairs_checked"] + report["unroutable_pairs"] == 9 * 8

    def test_table_failure_the_replay_cannot_confirm_raises(self, monkeypatch):
        from repro.faults import reroute

        monkeypatch.setattr(reroute, "_table_proof", lambda *args: (None, None))
        topology = MeshTopology(3, 3)
        with pytest.raises(ValidationError, match="unreachable"):
            verify_degraded(topology, _degraded(topology))


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


class TestRoutesLongerThanHalfTheNodes:
    """The snake's end-to-end routes take 15 hops on 16 nodes, so a proof
    whose pointer jumping stops one round short (8 hops) misreports them."""

    REPORT = {
        "pairs_checked": 16 * 15,
        "rerouted_pairs": 0,
        "unroutable_pairs": 0,
        "xyx_checked": False,
    }

    def test_long_base_routes_stay_alive(self):
        topology = MeshTopology(4, 4)
        routing = DegradedRouting(topology, _Snake(4, 4), ())
        assert verify_degraded(topology, routing) == self.REPORT

    def test_long_degraded_routes_route(self):
        topology = MeshTopology(4, 4)
        snake = _Snake(4, 4)
        routing = _Stub(
            topology, lambda cur, dst: snake.next_hop(topology, cur, dst)
        )
        assert verify_degraded(topology, routing) == self.REPORT
        pairs = [(snake.order[0], snake.order[-1])]
        assert verify_degraded(topology, routing, pairs=pairs)[
            "pairs_checked"
        ] == 1


class TestAliveAndFallback:
    def test_alive_excludes_cutoff_suffix(self):
        topology = SimplifiedMeshTopology(4, 4)
        dead = frozenset({((1, 1), (1, 2)), ((1, 2), (1, 1))})
        alive = alive_nodes(topology, dead)
        assert (1, 2) not in alive
        assert (1, 3) not in alive
        assert (1, 1) in alive

    def test_fallback_climbs_the_column(self):
        topology = SimplifiedMeshTopology(4, 4)
        dead = frozenset({((1, 1), (1, 2)), ((1, 2), (1, 1))})
        alive = alive_nodes(topology, dead)
        assert fallback_destination(topology, alive, (1, 2)) == (1, 1)
