"""End-to-end recovery: reroute delivery, retransmit, truncation, timers."""

import pytest

from repro.cache.bank import bank_descriptors_for_column
from repro.core.designs import make_design
from repro.errors import ConfigurationError
from repro.faults import (
    BankFault,
    DegradedCacheGeometry,
    FaultPlan,
    LinkFault,
    RetryPolicy,
    TransientFaults,
    install_resilience,
    truncate_columns,
)
from repro.noc.network import Network
from repro.noc.packet import MessageType, Packet
from repro.noc.routing import RouteForest
from repro.noc.topology import MeshTopology
from repro.sim.kernel import DeadlineQueue
from repro.validation.invariants import (
    default_network_checkers,
    run_with_checkers,
)


def _checked_network(topology):
    network = Network(topology)
    for checker in default_network_checkers(topology):
        network.install_checker(checker)
    return network


class TestRetryPolicy:
    def test_backoff_growth_and_cap(self):
        policy = RetryPolicy(backoff_base=4, backoff_cap=32)
        assert [policy.backoff(k) for k in range(5)] == [4, 8, 16, 32, 32]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=0)


class TestLinkCutReroute:
    def test_all_delivered_around_the_cut(self):
        topology = MeshTopology(4, 4)
        plan = FaultPlan(
            links=(LinkFault((1, 2), (2, 2)), LinkFault((2, 2), (1, 2)))
        )
        network = _checked_network(topology)
        _, recovery = install_resilience(network, plan, seed=0)
        traffic = [((0, 2), (3, 2)), ((1, 2), (2, 2)), ((3, 2), (0, 2))]
        for i, (src, dst) in enumerate(traffic):
            network.schedule_injection(
                Packet(MessageType.READ_REQUEST, src, (dst,)), at_cycle=i
            )
        run_with_checkers(network, max_cycles=20_000)
        assert network.stats.packets_delivered == len(traffic)
        assert network.routing.detour_hops > 0
        assert recovery.outstanding_messages() == 0


class TestTransientRecovery:
    def test_drops_recovered_by_retransmit(self):
        topology = MeshTopology(3, 3)
        plan = FaultPlan(transients=TransientFaults(drop_rate=0.3))
        network = _checked_network(topology)
        injector, recovery = install_resilience(network, plan, seed=2)
        for i in range(6):
            network.schedule_injection(
                Packet(MessageType.READ_REQUEST, (0, 0), ((2, 2),)),
                at_cycle=4 * i,
            )
        run_with_checkers(network, max_cycles=60_000, stall_limit=1000)
        assert injector.stats.transient_drops > 0
        assert recovery.stats.retries > 0
        assert recovery.stats.recovered_messages > 0
        assert recovery.stats.recovery_latencies
        assert recovery.outstanding_messages() == 0

    def test_retry_budget_exhaustion_abandons(self):
        topology = MeshTopology(2, 2)
        plan = FaultPlan(transients=TransientFaults(drop_rate=0.95))
        network = _checked_network(topology)
        policy = RetryPolicy(
            timeout=32, backoff_base=1, backoff_cap=4, max_retries=2
        )
        _, recovery = install_resilience(
            network, plan, seed=1, policy=policy
        )
        network.schedule_injection(
            Packet(MessageType.READ_REQUEST, (0, 0), ((1, 1),)), at_cycle=0
        )
        run_with_checkers(network, max_cycles=20_000, stall_limit=1000)
        assert recovery.stats.abandoned_messages == 1
        assert recovery.outstanding_messages() == 0


class TestTruncateColumns:
    @staticmethod
    def _columns(cols, rows):
        return [
            bank_descriptors_for_column([64 * 1024] * rows)
            for _ in range(cols)
        ]

    def test_vertical_cut_truncates_to_live_prefix(self):
        topology = MeshTopology(3, 3, core_column=1, memory_column=1)
        plan = FaultPlan(
            links=(LinkFault((0, 1), (0, 2)), LinkFault((0, 2), (0, 1)))
        )
        live = truncate_columns(topology, self._columns(3, 3), plan)
        assert [len(column) for column in live] == [2, 3, 3]
        assert [d.position for d in live[0]] == [0, 1]

    def test_dead_bank_cuts_its_column(self):
        topology = MeshTopology(3, 3, core_column=1, memory_column=1)
        plan = FaultPlan(banks=(BankFault((2, 1)),))
        live = truncate_columns(topology, self._columns(3, 3), plan)
        assert [len(column) for column in live] == [3, 3, 1]

    def test_emptied_column_rejected(self):
        topology = MeshTopology(3, 3, core_column=1, memory_column=1)
        plan = FaultPlan(banks=(BankFault((0, 0)),))
        with pytest.raises(ConfigurationError):
            truncate_columns(topology, self._columns(3, 3), plan)


class TestVerifyRoutesWork:
    def test_design_a_decides_each_hop_once(self, monkeypatch):
        """The proof tables each (node, destination) hop once, walks none."""
        base = make_design("A")
        plan = FaultPlan.sample(base.topology, link_rate=1e-2, seed=1)
        geometry = DegradedCacheGeometry(
            base.topology, base.columns, plan, seed=1, verify=False
        )
        routing = geometry.routing

        def counted(calls, method):
            def wrapper(*args):
                key = args[-2:]  # (current, destination)
                calls[key] = calls.get(key, 0) + 1
                return method(*args)

            return wrapper

        base_calls, detour_calls, walks = {}, {}, []
        routing.base.next_hop = counted(base_calls, routing.base.next_hop)
        routing._find_u_path = counted(detour_calls, routing._find_u_path)
        walk = RouteForest.walk

        def counted_walk(forest, source, destination):
            walks.append((source, destination))
            return walk(forest, source, destination)

        monkeypatch.setattr(RouteForest, "walk", counted_walk)
        report = geometry.verify_routes()
        assert report["rerouted_pairs"] > 0
        assert base_calls and max(base_calls.values()) == 1
        assert detour_calls and max(detour_calls.values()) == 1
        nodes = base.topology.num_nodes
        assert len(base_calls) <= nodes * (nodes - 1)
        assert walks == []


class TestDeadlineQueue:
    def test_fifo_within_timestamp(self):
        queue = DeadlineQueue()
        queue.arm("a", 5)
        queue.arm("b", 5)
        queue.arm("c", 3)
        assert queue.peek() == 3
        assert queue.pop_due(5) == ["c", "a", "b"]
        assert len(queue) == 0

    def test_rearm_replaces_deadline(self):
        queue = DeadlineQueue()
        queue.arm("a", 5)
        queue.arm("a", 9)
        assert queue.peek() == 9
        assert queue.pop_due(5) == []
        assert queue.pop_due(9) == ["a"]

    def test_disarm_idempotent(self):
        queue = DeadlineQueue()
        queue.arm("a", 1)
        queue.disarm("a")
        queue.disarm("a")
        assert queue.peek() is None


class TestDrainDiagnostic:
    def test_snapshot_names_outstanding_packets(self):
        topology = MeshTopology(4, 4)
        network = Network(topology)
        network.schedule_injection(
            Packet(MessageType.WRITEBACK, (0, 0), ((3, 3),)), at_cycle=0
        )
        network.run(3)
        text = network.drain_diagnostic()
        assert "drain diagnostic" in text
        assert "undelivered" in text
