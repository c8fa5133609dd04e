"""Differential oracle: the table proof of ``verify_degraded`` vs walks.

Two references. The first is the proof check as first written: every
pair is walked hop by hop with :meth:`RouteComputer.path`, walked again
to build the channel dependency graph, and every path's Fig. 5(b)
numbers are checked in full. The second is the route-tree proof over a
:class:`RouteForest`, whose ``ValidationError`` texts the table proof
must reproduce. ``verify_degraded`` must agree with them on the report,
on whether it raises and with which message, on the dependency edges
(both ``channel_dependency_graph``'s and the tables' own) and on
``routing.detour_hops``, over seeded link-fault plans on every topology
family in both the default and the strict ``pairs=`` mode. (When the
check raises, the first reference left ``detour_hops`` inflated by its
walks; ``verify_degraded`` restores it on every exit.)
"""

import pytest

from repro.errors import RoutingError, ValidationError
from repro.faults import DegradedRouting, FaultPlan, alive_nodes, verify_degraded
from repro.faults.reroute import _table_proof
from repro.noc.routing import (
    RouteForest,
    channel_dependency_graph,
    find_cycle,
    is_deadlock_free,
    routing_for,
    xyx_channel_number,
    xyx_path_channel_numbers,
)
from repro.noc.topology import (
    HaloTopology,
    MeshTopology,
    SimplifiedMeshTopology,
)


def reference_cdg(topology, routing, pairs):
    """Channel dependency edges from one full path walk per pair."""
    edges = set()
    for source, destination in pairs:
        path = routing.path(topology, source, destination)
        edges.update(
            ((a, b), (b, c)) for a, b, c in zip(path, path[1:], path[2:])
        )
    return edges


def reference_acyclic(channels, edges):
    """Kahn's algorithm: acyclic iff every channel can be peeled off."""
    indegree = dict.fromkeys(channels, 0)
    successors = {channel: [] for channel in channels}
    for held, requested in edges:
        successors[held].append(requested)
        indegree[requested] += 1
    ready = [channel for channel, degree in indegree.items() if degree == 0]
    peeled = 0
    while ready:
        channel = ready.pop()
        peeled += 1
        for succ in successors[channel]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return peeled == len(indegree)


def reference_verify(topology, routing, pairs=None):
    """Pair-by-pair proof check (the behaviour the route trees replace)."""
    strict = pairs is not None
    if pairs is None:
        live = sorted(alive_nodes(topology, routing.dead), key=str)
        pairs = [(s, d) for s in live for d in live if s != d]
    else:
        pairs = list(pairs)

    rerouted = 0
    unroutable = 0
    paths = []
    routed_pairs = []
    saved_detour_hops = routing.detour_hops
    for source, destination in pairs:
        try:
            path = routing.path(topology, source, destination)
        except RoutingError as exc:
            if strict:
                raise ValidationError(str(exc)) from exc
            unroutable += 1
            continue
        for a, b in zip(path, path[1:]):
            if (a, b) in routing.dead:
                raise ValidationError(f"dead channel {a}->{b}")
        paths.append(path)
        routed_pairs.append((source, destination))
        if routing.is_rerouted(source, destination):
            rerouted += 1

    channels = [(c.src, c.dst) for c in topology.channels()]
    edges = reference_cdg(topology, routing, routed_pairs)
    if not reference_acyclic(channels, edges):
        raise ValidationError("cyclic channel dependency")
    routing.detour_hops = saved_detour_hops

    xyx_checked = False
    if isinstance(topology, SimplifiedMeshTopology):
        xyx_checked = True
        for path in paths:
            numbers = xyx_path_channel_numbers(topology.cols, topology.rows, path)
            if any(b <= a for a, b in zip(numbers, numbers[1:])):
                raise ValidationError(f"Fig. 5(b) violated by {path}")

    report = {
        "pairs_checked": len(routed_pairs),
        "rerouted_pairs": rerouted,
        "unroutable_pairs": unroutable,
        "xyx_checked": xyx_checked,
    }
    return report, routed_pairs, edges


def forest_verify(topology, routing, pairs=None):
    """The route-tree proof: one :class:`RouteForest` walk, then checks."""
    strict = pairs is not None
    if pairs is None:
        live = sorted(alive_nodes(topology, routing.dead), key=str)
        pairs = [(s, d) for s in live for d in live if s != d]
    forest = RouteForest(topology, routing)
    routed = rerouted = unroutable = 0
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


def reference_u_path(routing, current, destination):
    """The U-route search as first written: every pivot built in full."""
    topology = routing.topology

    def alive(src, dst):
        return topology.has_channel(src, dst) and (src, dst) not in routing.dead

    sx, sy = current
    dx, dy = destination
    step = 1 if dx > sx else -1
    for r in range(min(sy, dy), -1, -1):
        path = [current]
        ok = True
        for y in range(sy, r, -1):
            ok = ok and alive((sx, y), (sx, y - 1))
            path.append((sx, y - 1))
        x = sx
        while ok and x != dx:
            ok = alive((x, r), (x + step, r))
            path.append((x + step, r))
            x += step
        for y in range(r, dy):
            ok = ok and alive((dx, y), (dx, y + 1))
            path.append((dx, y + 1))
        if ok and path[-1] == destination:
            return path
    return None


TOPOLOGIES = {
    "mesh": lambda: MeshTopology(5, 5),
    "simplified": lambda: SimplifiedMeshTopology(5, 5),
    "halo": lambda: HaloTopology(4, 4),
    # Longer routes than the 5x5 fabrics give.
    "mesh8": lambda: MeshTopology(8, 8),
    "simplified8": lambda: SimplifiedMeshTopology(8, 8),
}
#: ``(seed, link fault rate)`` of each sampled plan.
PLANS = [(seed, 0.15 + 0.05 * (seed % 3)) for seed in range(1, 7)]


def _routing(topology, seed, rate):
    plan = FaultPlan.sample(topology, link_rate=rate, seed=seed)
    return DegradedRouting(topology, routing_for(topology), plan.dead_channels())


def _outcome(check, topology, routing, pairs):
    try:
        return check(topology, routing, pairs)
    except ValidationError as exc:
        return "raised", str(exc)


def _pairs(topology, seed, rate, mode):
    """``None`` (default mode) or a strict pair list for *mode*."""
    if mode == "default":
        return None
    routing = _routing(topology, seed, rate)
    live = sorted(alive_nodes(topology, routing.dead), key=str)
    pairs = [(s, d) for s in live for d in live if s != d]
    if mode == "strict-routable":
        pairs = [(s, d) for s, d in pairs if routing.can_route(s, d)]
    return pairs


@pytest.mark.parametrize("family", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed, rate", PLANS)
@pytest.mark.parametrize("mode", ["default", "strict-alive", "strict-routable"])
def test_route_trees_agree_with_pair_by_pair_walks(family, seed, rate, mode):
    topology = TOPOLOGIES[family]()
    # Strict mode over every alive pair raises wherever degradation left
    # an alive pair unroutable; over the routable pairs it passes.
    pairs = _pairs(topology, seed, rate, mode)

    reference_routing = _routing(topology, seed, rate)
    reference_routing.detour_hops = 5
    expected = _outcome(reference_verify, topology, reference_routing, pairs)
    forest = _outcome(forest_verify, topology, _routing(topology, seed, rate), pairs)

    routing = _routing(topology, seed, rate)
    routing.detour_hops = 5
    actual = _outcome(verify_degraded, topology, routing, pairs)
    assert routing.detour_hops == 5
    assert actual == forest

    if expected[0] == "raised":
        assert actual[0] == "raised"
        return
    report, routed_pairs, edges = expected
    assert actual == report
    assert reference_routing.detour_hops == routing.detour_hops
    graph = channel_dependency_graph(topology, routing, routed_pairs)
    assert set(graph) == {(c.src, c.dst) for c in topology.channels()}
    assert {
        (held, requested)
        for held, successors in graph.items()
        for requested in successors
    } == edges

    # The tables' own dependency graph, not just the forest's.
    checked = pairs
    if checked is None:
        live = sorted(alive_nodes(topology, routing.dead), key=str)
        checked = [(s, d) for s in live for d in live if s != d]
    table_report, table_graph = _table_proof(
        topology, _routing(topology, seed, rate), checked, pairs is not None
    )
    assert table_report == report
    assert set(table_graph) == set(graph)
    assert {
        (held, requested)
        for held, successors in table_graph.items()
        for requested in successors
    } == edges


def _proof_branch_cases():
    """One foil per failing check (see ``test_reroute.TestProofBranchesFail``)."""
    from tests.faults.test_reroute import _FullSimplifiedMesh, _Stub, _yx

    ring_mesh = MeshTopology(2, 2)
    ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
    ring_routing = _Stub(
        ring_mesh, lambda cur, dst: ring[(ring.index(cur) + 1) % 4]
    )
    yx_mesh = _FullSimplifiedMesh(3, 3)
    dead_mesh = MeshTopology(3, 3)
    xy = routing_for(dead_mesh)
    dead_routing = _Stub(
        dead_mesh,
        lambda cur, dst: xy.next_hop(dead_mesh, cur, dst),
        {((0, 1), (1, 1)), ((1, 1), (0, 1))},
    )
    loop_mesh = MeshTopology(3, 3)
    loop_routing = _Stub(
        loop_mesh, lambda cur, dst: (1, 0) if cur == (0, 0) else (0, 0)
    )
    return {
        "cycle": (ring_mesh, ring_routing, None),
        "fig5b": (yx_mesh, _Stub(yx_mesh, _yx), [((0, 0), (2, 2))]),
        "dead": (dead_mesh, dead_routing, None),
        "loop": (loop_mesh, loop_routing, [((0, 0), (2, 2))]),
    }


@pytest.mark.parametrize("branch", ["cycle", "fig5b", "dead", "loop"])
def test_failed_checks_raise_the_route_tree_message(branch):
    topology, routing, pairs = _proof_branch_cases()[branch]
    expected = _outcome(forest_verify, topology, routing, pairs)
    assert expected[0] == "raised"
    assert _outcome(verify_degraded, topology, routing, pairs) == expected


@pytest.mark.parametrize("family", ["mesh", "mesh8"])
@pytest.mark.parametrize("seed, rate", PLANS)
def test_u_route_search_matches_the_full_pivot_scan(family, seed, rate):
    topology = TOPOLOGIES[family]()
    routing = _routing(topology, seed, rate)
    nodes = sorted(topology.nodes)
    for current in nodes:
        for destination in nodes:
            if current != destination:
                assert routing._find_u_path(
                    current, destination
                ) == reference_u_path(routing, current, destination)


def test_oracle_covers_degraded_and_raising_cases():
    """The seeded plans above really reroute, truncate and raise."""
    rerouted = unroutable = raised = strict_passed = 0
    for family in sorted(TOPOLOGIES):
        topology = TOPOLOGIES[family]()
        for seed, rate in PLANS:
            routing = _routing(topology, seed, rate)
            report, _, _ = reference_verify(topology, routing)
            rerouted += report["rerouted_pairs"]
            unroutable += report["unroutable_pairs"]
            for mode in ("strict-alive", "strict-routable"):
                outcome = _outcome(
                    reference_verify,
                    topology,
                    _routing(topology, seed, rate),
                    _pairs(topology, seed, rate, mode),
                )
                if outcome[0] == "raised":
                    raised += 1
                elif family == "mesh":
                    strict_passed += 1
    assert rerouted > 0
    assert unroutable > 0
    assert raised > 0
    assert strict_passed > 0
