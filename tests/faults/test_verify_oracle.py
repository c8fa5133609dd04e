"""Differential oracle: route-tree ``verify_degraded`` vs pair-by-pair walks.

The reference below is the proof check as first written: every pair is
walked hop by hop with :meth:`RouteComputer.path`, walked again to build
the channel dependency graph, and every path's Fig. 5(b) numbers are
checked in full. The route-tree version must agree with it on the
report, on whether it raises, on the dependency edges and on
``routing.detour_hops``, over seeded link-fault plans on every topology
family in both the default and the strict ``pairs=`` mode. (When the
check raises, the reference left ``detour_hops`` inflated by its walks;
the route-tree version restores it on every exit.)
"""

import pytest

from repro.errors import RoutingError, ValidationError
from repro.faults import DegradedRouting, FaultPlan, alive_nodes, verify_degraded
from repro.noc.routing import (
    channel_dependency_graph,
    routing_for,
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


TOPOLOGIES = {
    "mesh": lambda: MeshTopology(5, 5),
    "simplified": lambda: SimplifiedMeshTopology(5, 5),
    "halo": lambda: HaloTopology(4, 4),
}
#: ``(seed, link fault rate)`` of each sampled plan.
PLANS = [(seed, 0.15 + 0.05 * (seed % 3)) for seed in range(1, 7)]


def _routing(topology, seed, rate):
    plan = FaultPlan.sample(topology, link_rate=rate, seed=seed)
    return DegradedRouting(topology, routing_for(topology), plan.dead_channels())


def _outcome(check, topology, routing, pairs):
    try:
        return check(topology, routing, pairs)
    except ValidationError:
        return "raised"


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

    routing = _routing(topology, seed, rate)
    routing.detour_hops = 5
    actual = _outcome(verify_degraded, topology, routing, pairs)
    assert routing.detour_hops == 5

    if expected == "raised":
        assert actual == "raised"
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
                if outcome == "raised":
                    raised += 1
                elif family == "mesh":
                    strict_passed += 1
    assert rerouted > 0
    assert unroutable > 0
    assert raised > 0
    assert strict_passed > 0
