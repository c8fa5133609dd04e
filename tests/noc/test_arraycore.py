"""Equivalence and unit tests for the SoA array core (repro.noc.arraycore).

The array core's contract is *bit-equivalence* with the object-model
reference ``Network``: identical cycle counts, delivery records, and
telemetry counters for any legal workload. The sweeps here drive both
cores over designs x traffic x seeds and assert digest equality; the
unit tests pin the SoA plumbing (ring-buffer wraparound, pool growth,
credit accounting, replication slot borrowing) directly, and planted
states drive each flow-control guard of the cycle loop.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import random
import sys

import pytest

from repro.config import RouterConfig
from repro.errors import SimulationError
from repro.noc import (
    HaloTopology,
    MeshTopology,
    MessageType,
    Network,
    Packet,
    SimplifiedMeshTopology,
)
import repro.noc.arraycore as arraycore
import repro.noc.packet as packet_mod
from repro.noc.arraycore import ArrayNetwork, FlitPool
from repro.noc.network import make_network, normalize_core
from repro.validation.fuzzer import _core_digest


def _run_both(make_topology, packets, single_cycle=True, max_cycles=50_000):
    """Run the same workload on both cores; return their digests."""
    digests = {}
    for name, cls in (("object", Network), ("array", ArrayNetwork)):
        net = cls(
            make_topology(),
            router_config=RouterConfig(single_cycle=single_cycle),
        )
        for message, source, destinations, at_cycle in packets:
            net.schedule_injection(
                Packet(message, source, destinations), at_cycle=at_cycle
            )
        net.run_until_drained(max_cycles=max_cycles)
        digests[name] = _core_digest(net)
    return digests


def _unicast_stream(nodes, seed, count, spacing):
    rng = random.Random(seed)
    stream = []
    for i in range(count):
        source, destination = rng.sample(nodes, 2)
        message = rng.choice(
            (MessageType.READ_REQUEST, MessageType.REPLACEMENT)
        )
        stream.append((message, source, (destination,), i * spacing))
    return stream


def _streaming_net():
    """A 3x1 mesh sending one five-flit wormhole end to end."""
    net = ArrayNetwork(MeshTopology(3, 1))
    net.inject(Packet(MessageType.WRITEBACK, (0, 0), ((2, 0),)))
    return net


def _next_arrival(net, head):
    """Step until the next ``step()`` lands a head (or body) flit.

    Returns the arrival's ``(router, global VC, flit)`` so a test can
    plant state in the receiving VC just before the flit lands.
    """
    for _ in range(100):
        for r, gvc, flit in net._arrivals.get(net.cycle, ()):
            if bool(net.pool.is_head[flit]) == head:
                return r, gvc, flit
        net.step()
    raise AssertionError("no such arrival within 100 cycles")


class TestEquivalenceSweeps:
    @pytest.mark.parametrize("single_cycle", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mesh_unicast(self, seed, single_cycle):
        nodes = [(x, y) for x in range(5) for y in range(4)]
        packets = _unicast_stream(nodes, seed, count=30, spacing=2)
        digests = _run_both(
            lambda: MeshTopology(5, 4), packets, single_cycle=single_cycle
        )
        assert digests["object"] == digests["array"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_simplified_mesh_multicast(self, seed):
        rng = random.Random(seed)
        packets = []
        for i in range(20):
            x = rng.randrange(4)
            column = tuple((x, y) for y in range(4))
            packets.append(
                (MessageType.READ_REQUEST, (x, 0), column, i * 3)
            )
        digests = _run_both(lambda: SimplifiedMeshTopology(4, 4), packets)
        assert digests["object"] == digests["array"]

    @pytest.mark.parametrize("single_cycle", [True, False])
    def test_halo_mixed_traffic(self, single_cycle):
        topology = HaloTopology(4, 4)
        nodes = sorted(topology.nodes, key=str)
        rng = random.Random(9)
        packets = _unicast_stream(nodes, 9, count=15, spacing=4)
        spikes = [n for n in nodes if n[0] == "spike"]
        for i in range(8):
            destinations = tuple(rng.sample(spikes, 3))
            packets.append(
                (MessageType.MISS_NOTIFY, ("hub",), destinations, i * 5)
            )
        digests = _run_both(
            lambda: HaloTopology(4, 4), packets, single_cycle=single_cycle
        )
        assert digests["object"] == digests["array"]

    def test_protocol_paced_large_mesh(self):
        nodes = [(x, y) for x in range(8) for y in range(8)]
        packets = _unicast_stream(nodes, 5, count=25, spacing=40)
        digests = _run_both(lambda: MeshTopology(8, 8), packets)
        assert digests["object"] == digests["array"]


class TestProtocolAndLoadParity:
    def test_protocol_trace_identical(self):
        from repro.noc.protocol import FlitLevelCacheProtocol

        traces = {}
        for core in ("object", "array"):
            protocol = FlitLevelCacheProtocol(cols=8, rows=8, core=core)
            hit = protocol.run_hit(column=3, depth=4)
            miss = protocol.run_miss(column=5)
            traces[core] = (
                hit.issued,
                hit.data_at_core,
                hit.chain_done_at,
                sorted(hit.request_arrivals.items()),
                miss.data_at_core,
                miss.memory_requested_at,
            )
        assert traces["object"] == traces["array"]

    def test_load_point_identical(self):
        from repro.experiments.noc_load import run_load_point

        points = {
            core: run_load_point(
                0.02, mesh_size=4, cycles=120, seed=3, core=core
            )
            for core in ("object", "array")
        }
        assert points["object"] == points["array"]


class TestCoreSelector:
    def test_normalize_core(self):
        assert normalize_core(None) == "object"
        assert normalize_core("object") == "object"
        assert normalize_core("array") == "array"
        for retired in ("array-scalar", "simd"):
            with pytest.raises(SimulationError):
                normalize_core(retired)

    def test_make_network_object(self):
        net = make_network(MeshTopology(2, 2), core="object")
        assert isinstance(net, Network)

    def test_make_network_array(self):
        net = make_network(MeshTopology(2, 2), core="array")
        assert isinstance(net, ArrayNetwork)

    def test_cellspec_records_core(self):
        from repro.experiments.common import ExperimentConfig
        from repro.experiments.runner import spec_for

        spec = spec_for(
            "A", "multicast+fast_lru", "art",
            ExperimentConfig(measure=10, core="array"),
        )
        assert spec.core == "array"
        assert "array" in str(spec.key())


class TestSoAPlumbing:
    def test_flit_pool_growth_doubles(self):
        pool = FlitPool(capacity=2)
        rows = [
            pool.alloc(0, True, True, 0, (i,), 0, 0, 0) for i in range(5)
        ]
        assert rows == [0, 1, 2, 3, 4]
        assert pool.capacity >= 5
        assert pool.size == 5
        assert pool.destinations[4] == (4,)

    def test_flit_rows_recycle_on_eject(self):
        # A long, sparse run whose flits outnumber the initial pool many
        # times over: each row is freed when its flit ejects, so the pool
        # holds the flits live at once, not every flit the run injected.
        net = ArrayNetwork(SimplifiedMeshTopology(4, 4))
        for i in range(600):
            x = i % 4
            column = tuple((x, y) for y in range(4))
            net.schedule_injection(
                Packet(MessageType.WRITEBACK, (x, 0), ((x, 3),)),
                at_cycle=i * 8,
            )
            net.schedule_injection(
                Packet(MessageType.READ_REQUEST, (x, 0), column),
                at_cycle=i * 8 + 4,
            )
        net.run_until_drained(max_cycles=100_000)
        assert len(net.stats.deliveries) == 600 * 5
        assert net.stats.flits_injected >= 10 * FlitPool().capacity
        assert net.pool.in_use == 0
        assert net.pool.capacity < net.stats.flits_injected

    def test_ring_buffer_wraparound(self):
        # Force heavy reuse of one VC: a long single-source stream keeps
        # pushing/popping through the same ring slots.
        net = ArrayNetwork(MeshTopology(3, 1))
        for i in range(12):
            net.schedule_injection(
                Packet(
                    MessageType.REPLACEMENT, (0, 0), ((2, 0),)
                ),
                at_cycle=i,
            )
        net.run_until_drained(max_cycles=5_000)
        assert len(net.stats.deliveries) == 12

    def test_credit_overflow_raises(self):
        # The upstream channel already holds full credit when the switch
        # pops the flit it sent, so returning one more must overflow.
        net = _streaming_net()
        r, gvc, _ = _next_arrival(net, head=True)
        vcs = net._vcs
        p = gvc // vcs - net._unit_base[r]
        net._credit[net._up_chan[r][p] * vcs + gvc % vcs] = net._depth
        with pytest.raises(SimulationError, match="credit overflow"):
            net.step()

    def test_arrival_into_full_vc_overflows(self):
        net = _streaming_net()
        _, gvc, _ = _next_arrival(net, head=True)
        net._vc_len[gvc] = net._depth
        with pytest.raises(SimulationError, match="VC overflow"):
            net.step()

    def test_arriving_head_cannot_claim_a_held_vc(self):
        net = _streaming_net()
        _, gvc, _ = _next_arrival(net, head=True)
        net._vc_active[gvc] = 10**9
        with pytest.raises(SimulationError, match="entered VC held by"):
            net.step()

    def test_arriving_body_needs_its_packets_vc(self):
        net = _streaming_net()
        _, gvc, _ = _next_arrival(net, head=False)
        net._vc_active[gvc] = -1
        with pytest.raises(SimulationError, match="not allocated"):
            net.step()

    def test_checkers_and_faults_unsupported(self):
        net = ArrayNetwork(MeshTopology(2, 2))
        with pytest.raises(SimulationError):
            net.install_checker(object())
        with pytest.raises(SimulationError):
            net.install_fault_controller(object())
        assert net.checkers == ()
        assert net.fault_controller is None

    def test_replication_borrows_and_counts(self):
        # One spine-to-column multicast must replicate once per column
        # router below the source; counters match the object core's.
        results = {}
        for cls in (Network, ArrayNetwork):
            net = cls(SimplifiedMeshTopology(3, 4))
            column = tuple((1, y) for y in range(4))
            net.inject(
                Packet(MessageType.READ_REQUEST, (1, 0), column)
            )
            net.run_until_drained(max_cycles=5_000)
            results[cls.__name__] = (
                net.total_replications(),
                len(net.stats.deliveries),
            )
        assert results["Network"] == results["ArrayNetwork"]
        assert results["ArrayNetwork"][0] >= 1
        assert results["ArrayNetwork"][1] == 4

class TestScalarFallbackEquivalence:
    """The array core is pure Python: these sweeps run with ``numpy``
    blocked from import (a lazy ``import numpy`` anywhere in the cycle
    loop would raise) and still match the object core bit for bit."""

    @pytest.fixture(autouse=True)
    def _block_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)

    def test_without_numpy_scalar_fallback(self):
        tree = ast.parse(inspect.getsource(arraycore))
        imported = {
            alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        } | {
            node.module.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        }
        assert "numpy" not in imported
        net = ArrayNetwork(MeshTopology(2, 2))
        net.inject(Packet(MessageType.READ_REQUEST, (0, 0), ((1, 1),)))
        net.run_until_drained(max_cycles=100)
        assert len(net.stats.deliveries) == 1

    @pytest.mark.parametrize("single_cycle", [True, False])
    def test_mesh_unicast_fallback(self, single_cycle):
        nodes = [(x, y) for x in range(5) for y in range(4)]
        packets = _unicast_stream(nodes, 21, count=30, spacing=2)
        digests = _run_both(
            lambda: MeshTopology(5, 4), packets, single_cycle=single_cycle
        )
        assert digests["object"] == digests["array"]

    def test_simplified_multicast_fallback(self):
        rng = random.Random(23)
        packets = []
        for i in range(15):
            x = rng.randrange(4)
            column = tuple((x, y) for y in range(4))
            packets.append(
                (MessageType.READ_REQUEST, (x, 0), column, i * 3)
            )
        digests = _run_both(lambda: SimplifiedMeshTopology(4, 4), packets)
        assert digests["object"] == digests["array"]


class TestObservabilityEquivalence:
    """Windowed series and spatial congestion counters are part of the
    bit-equivalence contract: publishing each core into a fresh registry
    must produce byte-identical snapshots -- same per-link counters, same
    per-VC high-waters, same series windows -- not merely matching
    aggregate digests."""

    def _snapshots(self, make_topology, packets, window, single_cycle=True):
        from repro.telemetry import MetricsRegistry

        snapshots = {}
        for name, cls in (("object", Network), ("array", ArrayNetwork)):
            net = cls(
                make_topology(),
                router_config=RouterConfig(single_cycle=single_cycle),
                window=window,
            )
            for message, source, destinations, at_cycle in packets:
                net.schedule_injection(
                    Packet(message, source, destinations), at_cycle=at_cycle
                )
            net.run_until_drained(max_cycles=50_000)
            registry = MetricsRegistry()
            net.publish_metrics(registry)
            snapshots[name] = registry.snapshot()
        return snapshots

    @pytest.mark.parametrize("window", [8, 64])
    def test_mesh_windowed_snapshots_identical(self, window):
        nodes = [(x, y) for x in range(5) for y in range(4)]
        packets = _unicast_stream(nodes, 11, count=40, spacing=2)
        snaps = self._snapshots(
            lambda: MeshTopology(5, 4), packets, window=window
        )
        assert snaps["object"] == snaps["array"]
        series = {
            name: snap for name, snap in snaps["object"].items()
            if snap["type"] == "series"
        }
        assert series
        assert all(snap["window"] == window for snap in series.values())
        assert any(snap["windows"] for snap in series.values())
        assert any(
            name.startswith("noc.link.flits.") for name in snaps["object"]
        )

    def test_halo_multicast_snapshots_identical(self):
        topology = HaloTopology(4, 4)
        nodes = sorted(topology.nodes, key=str)
        rng = random.Random(13)
        packets = _unicast_stream(nodes, 13, count=12, spacing=4)
        spikes = [n for n in nodes if n[0] == "spike"]
        for i in range(6):
            destinations = tuple(rng.sample(spikes, 3))
            packets.append(
                (MessageType.MISS_NOTIFY, ("hub",), destinations, i * 5)
            )
        snaps = self._snapshots(
            lambda: HaloTopology(4, 4), packets, window=16
        )
        assert snaps["object"] == snaps["array"]
        assert "noc.hub.issue_queue_depth" in snaps["object"]


def _front_end_mesh():
    nodes = [(x, y) for x in range(4) for y in range(4)]
    return MeshTopology(4, 4), _unicast_stream(nodes, 31, count=40, spacing=1)


def _front_end_halo():
    topology = HaloTopology(4, 4)
    nodes = sorted(topology.nodes, key=str)
    rng = random.Random(37)
    packets = _unicast_stream(nodes, 37, count=20, spacing=2)
    spikes = [n for n in nodes if n[0] == "spike"]
    for i in range(10):
        packets.append(
            (MessageType.MISS_NOTIFY, ("hub",), tuple(rng.sample(spikes, 3)),
             i * 3)
        )
    return topology, packets


def _front_end_simplified():
    rng = random.Random(41)
    packets = []
    for i in range(24):
        x = rng.randrange(4)
        packets.append(
            (MessageType.READ_REQUEST, (x, 0),
             tuple((x, y) for y in range(4)), i * 2)
        )
        packets.append(
            (MessageType.WRITEBACK, (x, 0), ((x, rng.randrange(1, 4)),), i * 2)
        )
    return SimplifiedMeshTopology(4, 4), packets


class TestSharedFrontEnd:
    """Both cores inherit one ``FlitNetwork`` front end: the drain loop,
    its diagnostic, and the timed-injection and progress probes must
    read identically on either cycle, cycle by cycle. Packet ids appear
    in the texts, so each core's run restarts the id counter."""

    WORKLOADS = {
        "mesh": _front_end_mesh,
        "halo": _front_end_halo,
        "simplified": _front_end_simplified,
    }

    def _build(self, cls, workload, monkeypatch):
        monkeypatch.setattr(packet_mod, "_packet_ids", itertools.count())
        topology, packets = self.WORKLOADS[workload]()
        net = cls(topology)
        for message, source, destinations, at_cycle in packets:
            net.schedule_injection(
                Packet(message, source, destinations), at_cycle=at_cycle
            )
        return net

    @pytest.mark.parametrize("stop", [9, 25])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_drain_timeout_text_identical(self, workload, stop, monkeypatch):
        texts = {}
        for cls in (Network, ArrayNetwork):
            net = self._build(cls, workload, monkeypatch)
            with pytest.raises(SimulationError) as info:
                net.run_until_drained(max_cycles=stop)
            assert net.cycle == stop
            texts[cls.__name__] = str(info.value)
        assert texts["Network"] == texts["ArrayNetwork"]
        text = texts["Network"]
        assert f"did not drain within {stop} cycles" in text
        assert "routers holding traffic (0)" not in text
        assert " vc " in text
        assert "next timed injection at cycle" in text

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_progress_probes_agree_each_cycle(self, workload, monkeypatch):
        trails = {}
        for cls in (Network, ArrayNetwork):
            net = self._build(cls, workload, monkeypatch)
            trail = []
            while True:
                trail.append((
                    net.cycle,
                    net.next_timed_injection(),
                    net.next_wakeup(),
                    net.idle(),
                    net.pending_work(),
                    net.outstanding_deliveries(),
                    net.in_flight_flits(),
                ))
                if net.idle() and net.next_timed_injection() is None:
                    break
                net.step()
            trails[cls.__name__] = trail
        assert trails["Network"] == trails["ArrayNetwork"]
        assert any(row[6] for row in trails["Network"])  # flits on wires

    def test_schedule_into_the_past_raises_identically(self):
        errors = {}
        for cls in (Network, ArrayNetwork):
            net = cls(MeshTopology(2, 2))
            net.run(5)
            with pytest.raises(SimulationError) as info:
                net.schedule_injection(
                    Packet(MessageType.READ_REQUEST, (0, 0), ((1, 1),)),
                    at_cycle=3,
                )
            errors[cls.__name__] = str(info.value)
        assert errors["Network"] == errors["ArrayNetwork"]
        assert errors["Network"] == "cannot inject at 3; current cycle is 5"
