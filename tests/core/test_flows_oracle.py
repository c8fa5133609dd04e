"""Differential oracle: compiled transaction model vs a per-hop reference.

The production flows read per-column leg tables and grant uncontended
channels and banks inline. The reference below keeps the straightforward
per-hop formulation: every traversal resolves its nodes and route, every
hop and every bank calls ``acquire`` on a resource that prunes its past
intervals on every call, and the multicast chain is a sequence of
``traverse`` calls. Both must produce the same results, telemetry and
trace events, cell for cell.
"""

import itertools
from bisect import bisect_right

import pytest

from repro.cache.array import CacheArray
from repro.cmp import CMPCacheSystem
from repro.config import packet_flits
from repro.core.designs import DESIGN_NAMES
from repro.core.flows import (
    CONTROL,
    DATA,
    FIGURE8_SCHEMES,
    AccessTiming,
    TransactionEngine,
)
from repro.core.geometry import CacheGeometry
from repro.core.system import NetworkedCacheSystem
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import execute_cell, spec_for, trace_with_warmup
from repro.faults.models import FaultPlan
from repro.faults.recovery import DegradedCacheGeometry
from repro.sim.resource import Resource
from repro.telemetry import trace as _trace
from repro.workloads import TraceGenerator, profile_by_name

MEASURE = 300


class EagerResource(Resource):
    """Earliest-fit resource that prunes before every request."""

    __slots__ = ()

    def acquire(self, time, duration):
        if duration < 0:
            raise AssertionError("negative duration")
        start = time if time > 0 else 0
        if duration == 0:
            self.grants += 1
            return start
        clock = self.floor_clock
        if clock is not None and clock.time > 0:
            keep_from = bisect_right(self.ends, clock.time)
            del self.starts[:keep_from]
            del self.ends[:keep_from]
        starts, ends = self.starts, self.ends
        i = bisect_right(starts, start)
        if i and ends[i - 1] > start:
            start = ends[i - 1]
        while i < len(starts) and starts[i] - start < duration:
            start = ends[i]
            i += 1
        starts.insert(i, start)
        ends.insert(i, start + duration)
        self.horizon = max(self.horizon, start + duration)
        if start > time:
            self.queued_cycles += start - time
            self.waits += 1
        self.busy_cycles += duration
        self.grants += 1
        return start


class _PerHopRoutes:
    """Per-hop traversal: resolve the route, acquire every hop."""

    def __init__(self, *args, **kwargs):
        self._ref_plans = {}
        self._ref_plan_costs = {}
        self._ref_multicast_costs = {}
        super().__init__(*args, **kwargs)

    def channel_resource(self, src, dst):
        key = (src, dst)
        resource = self._channel_resources.get(key)
        if resource is None:
            self.topology.channel(src, dst)
            resource = EagerResource(f"ch{src}->{dst}", self.floor_clock)
            self._channel_resources[key] = resource
        return resource

    def bank_resource(self, column, position):
        key = (column, position)
        resource = self._bank_resources.get(key)
        if resource is None:
            resource = EagerResource(f"bank{key}", self.floor_clock)
            self._bank_resources[key] = resource
        return resource

    def _ref_plan(self, src, dst):
        plan = self._ref_plans.get((src, dst))
        if plan is None:
            plan = self._ref_plans[(src, dst)] = tuple(
                (
                    self.channel_resource(a, b),
                    self.hop_cost(a, b),
                    b,
                )
                for a, b in itertools.pairwise(
                    self.routing.path(self.topology, src, dst)
                )
            )
        return plan

    def _per_hop_traverse(self, src, dst, time, flits, record_waypoints=False):
        if src == dst:
            return time, {}
        plan = self._ref_plan(src, dst)
        head = time
        waypoints = {}
        for i, (resource, cost, node) in enumerate(plan):
            granted = resource.acquire(head, flits)
            self.traversal_queue_cycles += granted - head
            self.traversal_hop_cycles += cost
            head = granted + cost
            if record_waypoints and i < len(plan) - 1:
                waypoints[node] = head
        self.serialization_cycles += flits - 1
        return head + (flits - 1), waypoints

    def traverse(self, src, dst, time, flits, record_waypoints=False):
        return self._per_hop_traverse(src, dst, time, flits, record_waypoints)

    def _ref_uncontended_cost(self, src, dst, flits):
        if src == dst:
            return 0
        cost = self._ref_plan_costs.get((src, dst))
        if cost is None:
            cost = sum(c for _, c, _ in self._ref_plan(src, dst))
            self._ref_plan_costs[(src, dst)] = cost
        return cost + (flits - 1)

    def multicast_column(self, column, time, core=None):
        flits = packet_flits(carries_block=False)
        src = core if core is not None else self.core_node
        chain_cost = self._ref_multicast_costs.get((column, src))
        if chain_cost is None:
            chain_cost, node = 0, src
            for position in range(self.banks_per_column(column)):
                dst = self.bank_node(column, position)
                chain_cost += self._ref_uncontended_cost(node, dst, flits)
                node = dst
            self._ref_multicast_costs[(column, src)] = chain_cost
        arrivals = []
        head = time
        for position in range(self.banks_per_column(column)):
            dst = self.bank_node(column, position)
            head, _ = self.traverse(src, dst, head, flits)
            arrivals.append(head)
            src = dst
        self.multicast_blocked_cycles += head - time - chain_cost
        return arrivals

    def core_to_bank(self, column, position, time, flits, core=None):
        src = core if core is not None else self.core_node
        return self.traverse(src, self.bank_node(column, position), time, flits)[0]

    def bank_to_bank(self, column, src_pos, dst_pos, time, flits):
        return self.traverse(
            self.bank_node(column, src_pos),
            self.bank_node(column, dst_pos),
            time,
            flits,
        )[0]

    def bank_to_core(
        self, column, position, time, flits, record_waypoints=False, core=None
    ):
        dst = core if core is not None else self.core_node
        return self.traverse(
            self.bank_node(column, position), dst, time, flits, record_waypoints
        )

    def core_to_memory(self, time, flits, core=None):
        src = core if core is not None else self.core_node
        arrival, _ = self.traverse(src, self.memory_node, time, flits)
        return arrival + self.memory_pin_delay

    def memory_to_bank(self, column, position, time, flits):
        arrival, _ = self.traverse(
            self.memory_node,
            self.bank_node(column, position),
            time + self.memory_pin_delay,
            flits,
        )
        return arrival

    def bank_to_memory(self, column, position, time, flits):
        arrival, _ = self.traverse(
            self.bank_node(column, position), self.memory_node, time, flits
        )
        return arrival + self.memory_pin_delay


class PerHopGeometry(_PerHopRoutes, CacheGeometry):
    pass


class PerHopDegradedGeometry(_PerHopRoutes, DegradedCacheGeometry):
    """Reroute counting and transient retries around each per-hop traversal."""

    def traverse(self, src, dst, time, flits, record_waypoints=False):
        if src != dst and self.routing.is_rerouted(src, dst):
            self.fault_stats.rerouted_traversals += 1
        arrival, waypoints = self._per_hop_traverse(
            src, dst, time, flits, record_waypoints
        )
        if self._transient_rate <= 0.0 or src == dst:
            return arrival, waypoints
        first_arrival = arrival
        attempt = 0
        send_time = time
        policy = self.retry_policy
        while self._rng.random() < self._transient_rate:
            if attempt >= policy.max_retries:
                self.fault_stats.exhausted_retries += 1
                break
            send_time = send_time + policy.timeout + policy.backoff(attempt)
            arrival, waypoints = self._per_hop_traverse(
                src, dst, send_time, flits, record_waypoints
            )
            self.fault_stats.retries += 1
            attempt += 1
        if attempt:
            self.fault_stats.recovery_penalties.append(arrival - first_arrival)
        return arrival, waypoints


class PerHopEngine(TransactionEngine):
    """The Fig. 2/3 flows, resolving every bank and leg as they go."""

    def _ref_bank_latency(self, column, position, replace):
        timing = self.geometry.bank(column, position).timing
        return timing.tag_replace_latency if replace else timing.tag_latency

    def _ref_bank_acquire(self, column, position, time, replace, charge=True):
        latency = self._ref_bank_latency(column, position, replace)
        start = self.geometry.bank_resource(column, position).acquire(
            time, latency
        )
        if charge:
            self._spine_bank_cycles += latency
        return start + latency, latency

    def _unicast_access(self, column, outcome, t0, is_write):
        geometry = self.geometry
        banks = geometry.banks_per_column(column)
        hit_pos = outcome.bank if outcome.hit else None
        fast = self.scheme.is_fast
        bank_cycles = 0
        arrival = geometry.core_to_bank(column, 0, t0, CONTROL, core=self._core)
        position = 0
        tail_gap = 0
        while True:
            is_hit_bank = hit_pos is not None and position == hit_pos
            replace = fast and not is_hit_bank
            done, charged = self._ref_bank_acquire(
                column, position, arrival, replace
            )
            bank_cycles += charged
            if is_hit_bank or position == banks - 1:
                break
            if fast:
                tail = geometry.bank_to_bank(
                    column, position, position + 1, done, DATA
                )
                arrival = self._head(tail, DATA)
                tail_gap = DATA - 1
            else:
                arrival = geometry.bank_to_bank(
                    column, position, position + 1, done, CONTROL
                )
            position += 1
        if hit_pos is not None:
            timing = self._finish_hit(
                column, hit_pos, done, bank_cycles, is_write, multicast=False
            )
            if fast and hit_pos > 0:
                absorb, _ = self._ref_bank_acquire(
                    column, hit_pos, done + tail_gap, replace=True
                )
                timing.settled = max(timing.settled, absorb)
                timing.completion = max(timing.completion, absorb)
            return timing
        return self._finish_miss(
            column,
            outcome,
            miss_decided=done + tail_gap,
            miss_source_pos=banks - 1,
            bank_cycles=bank_cycles,
            is_write=is_write,
            chain_already_ran=fast,
            fast_chain_done=done + tail_gap,
        )

    def _multicast_access(self, column, outcome, t0, is_write):
        geometry = self.geometry
        banks = geometry.banks_per_column(column)
        hit_pos = outcome.bank if outcome.hit else None
        fast = self.scheme.is_fast
        arrivals = geometry.multicast_column(column, t0, core=self._core)
        done = []
        for position in range(banks):
            is_hit_bank = hit_pos is not None and position == hit_pos
            evicts_now = fast and position == 0 and not is_hit_bank
            finish, _ = self._ref_bank_acquire(
                column, position, arrivals[position], replace=evicts_now,
                charge=False,
            )
            done.append(finish)
        if self._sink.enabled:
            self._sink.complete(
                "multicast", "cache.txn", t0, max(done) - t0,
                tid=f"column-{column}",
                args={"banks": banks, "first_arrival": arrivals[0]},
            )
        if hit_pos is not None:
            hit_bank_latency = self._ref_bank_latency(column, hit_pos, False)
            self._spine_bank_cycles += hit_bank_latency
            timing = self._finish_hit(
                column, hit_pos, done[hit_pos], hit_bank_latency, is_write,
                multicast=True,
            )
            if fast and hit_pos > 0:
                chain_done = self._ref_fast_chain(column, done, stop=hit_pos)
                timing.settled = max(timing.settled, chain_done)
                timing.completion = max(timing.completion, chain_done)
            return timing
        miss_decided, _ = geometry.bank_to_core(
            column, banks - 1, max(done), CONTROL, core=self._core
        )
        fast_chain_done = None
        if fast:
            fast_chain_done = self._ref_fast_chain(column, done, stop=banks - 1)
        last_bank_latency = self._ref_bank_latency(column, banks - 1, False)
        self._spine_bank_cycles += last_bank_latency
        return self._finish_miss(
            column,
            outcome,
            miss_decided=miss_decided,
            miss_source_pos=None,
            bank_cycles=last_bank_latency,
            is_write=is_write,
            chain_already_ran=fast,
            fast_chain_done=fast_chain_done,
        )

    def _finish_hit(self, column, hit_pos, hit_done, bank_cycles, is_write,
                    multicast):
        geometry = self.geometry
        policy = self.scheme.policy.name
        reply_flits = CONTROL if is_write else DATA
        if policy == "promotion":
            data_at_core, _ = geometry.bank_to_core(
                column, hit_pos, hit_done, reply_flits, core=self._core
            )
            settled = hit_done
            completion = data_at_core
            if hit_pos > 0:
                up = geometry.bank_to_bank(
                    column, hit_pos, hit_pos - 1, hit_done, DATA
                )
                w_up, _ = self._ref_bank_acquire(
                    column, hit_pos - 1, up, replace=True
                )
                down = geometry.bank_to_bank(
                    column, hit_pos - 1, hit_pos, w_up, DATA
                )
                w_down, _ = self._ref_bank_acquire(
                    column, hit_pos, down, replace=True
                )
                settled = w_down
                notify, _ = geometry.bank_to_core(
                    column, hit_pos, w_down, CONTROL, core=self._core
                )
                completion = max(completion, notify)
            return AccessTiming(
                issued=0, data_at_core=data_at_core, completion=completion,
                hit=True, bank_position=hit_pos, bank_cycles=bank_cycles,
                settled=settled,
            )
        data_at_core, waypoints = geometry.bank_to_core(
            column, hit_pos, hit_done, reply_flits, record_waypoints=True,
            core=self._core,
        )
        settled = hit_done
        completion = data_at_core
        if hit_pos > 0:
            mru_node = geometry.bank_node(column, 0)
            mru_arrival = waypoints.get(
                mru_node, self._head(data_at_core, reply_flits)
            )
            mru_write, _ = self._ref_bank_acquire(
                column, 0, mru_arrival + (DATA - 1), replace=True
            )
            settled = mru_write
            completion = max(completion, mru_write)
            if policy == "lru":
                chain_done = self._ref_shift_chain(
                    column, start=mru_write, first=0, last=hit_pos
                )
                settled = chain_done
                notify, _ = geometry.bank_to_core(
                    column, hit_pos, chain_done, CONTROL, core=self._core
                )
                completion = max(completion, notify)
        return AccessTiming(
            issued=0, data_at_core=data_at_core, completion=completion,
            hit=True, bank_position=hit_pos, bank_cycles=bank_cycles,
            settled=settled,
        )

    def _finish_miss(self, column, outcome, miss_decided, miss_source_pos,
                     bank_cycles, is_write, chain_already_ran,
                     fast_chain_done=None):
        geometry = self.geometry
        banks = geometry.banks_per_column(column)
        if miss_source_pos is None:
            mem_request = geometry.core_to_memory(
                miss_decided, CONTROL, core=self._core
            )
        else:
            mem_request = geometry.bank_to_memory(
                column, miss_source_pos, miss_decided, CONTROL
            )
        _, data_ready = self.memory.read(mem_request)
        memory_cycles = data_ready - mem_request
        fill_tail = geometry.memory_to_bank(column, 0, data_ready, DATA)
        fill_write, _ = self._ref_bank_acquire(column, 0, fill_tail, replace=True)
        if self._sink.enabled:
            self._sink.complete(
                "memory", "cache.txn", mem_request, memory_cycles,
                tid=f"column-{column}",
            )
            self._sink.complete(
                "mru_fill", "cache.txn", self._head(fill_tail, DATA),
                fill_write - self._head(fill_tail, DATA),
                tid=f"column-{column}",
            )
        data_at_core, _ = geometry.bank_to_core(
            column, 0, self._head(fill_tail, DATA), DATA, core=self._core
        )
        settled = fill_write
        completion = max(data_at_core, fill_write)
        if chain_already_ran:
            chain_done = (
                fast_chain_done if fast_chain_done is not None else fill_write
            )
            chain_end = banks - 1
        else:
            miss_policy = getattr(self.scheme.policy, "miss_policy", "recursive")
            if miss_policy == "zero_copy":
                chain_end = 0
            elif miss_policy == "one_copy":
                chain_end = min(1, banks - 1)
            else:
                chain_end = banks - 1
            chain_done = self._ref_shift_chain(
                column, start=fill_write, first=0, last=chain_end
            )
        settled = max(settled, chain_done)
        completion = max(completion, chain_done)
        if outcome.writeback_required:
            victim_bank = (
                outcome.victim_bank
                if outcome.victim_bank is not None
                else banks - 1
            )
            wb_arrival = geometry.bank_to_memory(
                column, victim_bank, chain_done, DATA
            )
            self.memory.writeback(wb_arrival)
        notify, _ = geometry.bank_to_core(
            column, chain_end, chain_done, CONTROL, core=self._core
        )
        completion = max(completion, notify)
        return AccessTiming(
            issued=0, data_at_core=data_at_core, completion=completion,
            hit=False, bank_position=None, bank_cycles=bank_cycles,
            memory_cycles=memory_cycles, settled=settled,
        )

    def _ref_shift_chain(self, column, start, first, last):
        self._chain_depths.record(max(0, last - first))
        current = start
        for position in range(first, last):
            tail = self.geometry.bank_to_bank(
                column, position, position + 1, current, DATA
            )
            current, _ = self._ref_bank_acquire(
                column, position + 1, self._head(tail, DATA), replace=True
            )
        if last <= first:
            return current
        current += DATA - 1
        if self._sink.enabled:
            self._sink.complete(
                "chain", "cache.txn", start, current - start,
                tid=f"column-{column}", args={"links": last - first},
            )
        return current

    def _ref_fast_chain(self, column, done, stop):
        if stop <= 0:
            self._chain_depths.record(0)
            return done[0]
        self._chain_depths.record(stop)
        current = done[0]
        for position in range(1, stop + 1):
            tail = self.geometry.bank_to_bank(
                column, position - 1, position, current, DATA
            )
            ready = max(self._head(tail, DATA), done[position])
            current, _ = self._ref_bank_acquire(
                column, position, ready, replace=True
            )
        current += DATA - 1
        if self._sink.enabled:
            self._sink.complete(
                "fast_chain", "cache.txn", done[0], current - done[0],
                tid=f"column-{column}", args={"links": stop},
            )
        return current


# -- running both sides ---------------------------------------------------------


def _install(system, geometry):
    """Put *geometry* and a per-hop engine under *system* (fresh contents)."""
    system.geometry = geometry
    system.array = CacheArray(geometry.columns, system.scheme.policy, system.mapper)
    system.memory.channel.floor_clock = geometry.floor_clock
    system.engine = PerHopEngine(geometry, system.memory, system.scheme)


def _per_hop_system(spec):
    """The reference system for a cell spec (pristine or degraded)."""
    system = NetworkedCacheSystem(
        design=spec.design,
        scheme=spec.scheme,
        early_miss_detection=spec.early_miss_detection,
    )
    pristine = system.geometry
    if spec.has_faults:
        plan = FaultPlan.sample(
            pristine.topology,
            link_rate=spec.link_fault_rate,
            bank_rate=spec.bank_fault_rate,
            transient_rate=spec.transient_fault_rate,
            seed=spec.fault_seed,
        )
        geometry = PerHopDegradedGeometry(
            pristine.topology,
            pristine.columns,
            plan,
            seed=spec.fault_seed,
            router_config=pristine.router_config,
            spike_queue_entries=spec.spike_queue_entries,
        )
    else:
        geometry = PerHopGeometry(
            pristine.topology,
            pristine.columns,
            routing=pristine.routing,
            router_config=pristine.router_config,
            spike_queue_entries=spec.spike_queue_entries,
        )
    _install(system, geometry)
    return system


def _run_per_hop(spec):
    trace, warmup = trace_with_warmup(spec)
    system = _per_hop_system(spec)
    return system.run(
        trace, profile_by_name(spec.benchmark), warmup=warmup,
        hide_cycles=spec.hide_cycles,
    )


def _spec(design, scheme, benchmark, **overrides):
    config = ExperimentConfig(measure=MEASURE, seed=1)
    return spec_for(design, scheme, benchmark, config, **overrides)


def _assert_same(spec):
    compiled = execute_cell(spec)
    reference = _run_per_hop(spec)
    assert compiled == reference
    assert compiled.contents_digest == reference.contents_digest
    assert compiled.metrics == reference.metrics
    return compiled


@pytest.mark.parametrize("workload", ["art", "mcf"])
@pytest.mark.parametrize("scheme", FIGURE8_SCHEMES)
@pytest.mark.parametrize("design", DESIGN_NAMES)
def test_figure8_cells_match_per_hop_reference(design, scheme, workload):
    _assert_same(_spec(design, scheme, workload))


@pytest.mark.parametrize("scheme", ["unicast+lru", "multicast+fast_lru"])
def test_early_miss_detection_matches(scheme):
    result = _assert_same(_spec("A", scheme, "mcf", early_miss_detection=True))
    assert result.metrics["cache.partial_tags.early_misses"]["value"] > 0


@pytest.mark.parametrize("design", ["A", "F"])
def test_degraded_cell_with_transients_matches(design):
    spec = _spec(
        design, "multicast+fast_lru", "art",
        link_fault_rate=1e-2, transient_fault_rate=1e-2, fault_seed=7,
    )
    result = _assert_same(spec)
    assert result.metrics["faults.retries"]["value"] > 0


def _workloads(count):
    workloads = []
    for seed, name in enumerate(["twolf", "mcf", "art", "vpr"][:count], 1):
        profile = profile_by_name(name)
        trace, warmup = TraceGenerator(profile, seed=seed).generate_with_warmup(
            measure=150
        )
        workloads.append((profile, trace, warmup))
    return workloads


@pytest.mark.parametrize("scheme", ["unicast+lru", "multicast+fast_lru"])
def test_cmp_core_override_matches(scheme):
    compiled = CMPCacheSystem(design="A", scheme=scheme, num_cores=4)
    reference = CMPCacheSystem(design="A", scheme=scheme, num_cores=4)
    pristine = reference._system.geometry
    _install(
        reference._system,
        PerHopGeometry(
            pristine.topology, pristine.columns, routing=pristine.routing,
            router_config=pristine.router_config,
        ),
    )
    assert compiled.run(_workloads(4)) == reference.run(_workloads(4))
    compiled_system, reference_system = compiled._system, reference._system
    assert (
        compiled_system.array.contents_digest()
        == reference_system.array.contents_digest()
    )
    assert compiled_system._collect_metrics() == reference_system._collect_metrics()


def test_traced_cell_event_stream_is_byte_equal(tmp_path):
    spec = _spec("C", "multicast+fast_lru", "mcf")
    streams = []
    for name, run in (("compiled", execute_cell), ("reference", _run_per_hop)):
        path = tmp_path / f"{name}.jsonl"
        sink = _trace.open_sink(str(path))
        previous = _trace.set_sink(sink)
        try:
            run(spec)
        finally:
            _trace.set_sink(previous)
            sink.close()
        streams.append(path.read_bytes())
    assert streams[0] and streams[0] == streams[1]
