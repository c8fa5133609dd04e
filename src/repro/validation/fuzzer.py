"""Seeded fuzzer: random geometries, traffic, and traces under checkers.

``fuzz(n, seed)`` samples cases from seven families:

* **noc** -- a random mesh / simplified-mesh / halo geometry with random
  unicast and multicast packets at random injection cycles, driven to
  drain under the full network checker set (conservation, credit loop,
  XYX channel order, delivery completeness, stall watchdog);
* **cache** -- a random bank-set shape (associativity, bank grouping) and
  replacement policy fed a random access sequence in a deliberately tiny
  tag space (collisions are where eviction-chain bugs live) under the
  block-conservation and shadow-LRU checkers;
* **oracle** -- a random Table-3 design / scheme / benchmark cell at a
  small measure length through :func:`repro.validation.run_oracle`;
* **faults** -- a noc-family geometry and traffic with a seeded fault
  plan (link cuts, VC failures, transient flit loss) installed through
  :func:`repro.faults.install_resilience`, checking that degraded
  routing plus timeout/retransmit drains the run with every tracked
  message delivered or explicitly abandoned;
* **analysis** -- a randomized rule-violating source snippet (wall-clock
  read, unseeded RNG, mutable default, bare except, ...) that
  :func:`repro.analysis.analyze_source` must flag with the expected
  rule -- the lint engine fuzz-tests itself;
* **arraycore** -- a noc-family geometry and traffic (half the cases
  sampled at saturated / near-saturated injection rates around the
  knee) replayed with a random windowed-series sample size on the
  object core and the array core
  (:class:`repro.noc.arraycore.ArrayNetwork`), requiring normalized
  deliveries, stats, and the full published registry snapshots (series
  windows, per-link flit counts, per-VC occupancy, credit stalls) to be
  byte-identical across cores and order-independent under merge;
* **stream** -- a random multi-tenant open-loop mix (random rates,
  Zipf skews, catalogs, and arrival processes) served through
  :class:`repro.stream.service.StreamService` on a random design and
  admission policy, checking admission conservation
  (offered == admitted + rejected == completed + rejected after
  drain), object-core determinism under re-run, cross-core snapshot
  byte-equality, and merge order-independence of the SLO telemetry.

Every case is a plain dataclass whose ``repr`` round-trips, so a failing
case shrinks (greedy delta-debugging over its packets / accesses /
measure) and is emitted as a ready-to-paste pytest function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.errors import ValidationError
from repro.validation.invariants import (
    BlockConservationChecker,
    default_network_checkers,
    run_with_checkers,
)

#: Message names usable for fuzz traffic (mix of 1- and 5-flit packets).
_UNICAST_MESSAGES = ("read_request", "hit_data", "memory_fill", "writeback")
_CONTROL_MESSAGES = ("read_request", "miss_notify", "completion_notify")

_POLICY_CHOICES = (
    "lru",
    "fast_lru",
    "promotion:recursive",
    "promotion:zero_copy",
    "promotion:one_copy",
)

_ORACLE_DESIGNS = ("A", "B", "C", "D", "E", "F")
_ORACLE_SCHEMES = (
    "multicast+fast_lru",
    "multicast+promotion",
    "unicast+lru",
    "unicast+fast_lru",
)
_ORACLE_BENCHMARKS = ("art", "twolf", "mcf")


# -- case shapes (reprs must round-trip: they become emitted repros) ---------


@dataclass(frozen=True)
class PacketSpec:
    """One fuzz packet: message name, endpoints, and injection cycle."""

    message: str
    source: tuple
    destinations: tuple
    inject_cycle: int = 0


@dataclass(frozen=True)
class NocCase:
    """A random network geometry plus its traffic."""

    kind: str  # "mesh" | "simplified" | "halo"
    cols: int
    rows: int
    packets: tuple = ()


@dataclass(frozen=True)
class CacheCase:
    """A random bank-set shape plus its access sequence."""

    policy: str  # a _POLICY_CHOICES entry
    bank_of_way: tuple = (0,)
    accesses: tuple = ()  # of (tag, is_write)


@dataclass(frozen=True)
class OracleCase:
    """One differential-oracle cell."""

    design: str
    scheme: str
    benchmark: str
    measure: int
    seed: int
    sample: int = 2


@dataclass(frozen=True)
class AnalysisCase:
    """A generated source snippet that must trip one lint rule.

    Fuzzes the static-analysis engine itself: the snippet contains a
    known violation (wall-clock read, unseeded RNG, mutable default,
    bare except, ...) with randomized identifiers and literals, and the
    case fails if :func:`repro.analysis.analyze_source` does not report
    the expected rule.
    """

    rule: str
    module: str
    source: str


@dataclass(frozen=True)
class ArraycoreCase:
    """A random geometry + traffic replayed on both flit cores.

    The object core is the reference; the struct-of-arrays core must
    produce bit-identical cycle counts, per-delivery timings/hops, and
    full published registry snapshots (windowed series every
    ``window`` cycles when > 0, per-link counters, per-VC occupancy,
    credit stalls), and the merge of the two snapshots must not depend
    on merge order (the telemetry triangle's associativity leg).
    Packet ids are process-global counters, so the digest keys
    deliveries by injection order instead.
    """

    kind: str  # "mesh" | "simplified" | "halo"
    cols: int
    rows: int
    single_cycle: bool = True
    packets: tuple = ()
    window: int = 0


@dataclass(frozen=True)
class StreamCase:
    """A random open-loop tenant mix served under admission control.

    ``mix`` holds one ``(name, rate_per_kcycle, zipf_alpha,
    catalog_blocks, process)`` tuple per tenant -- primitives only, so
    the repr round-trips into an emitted pytest repro. The case runs on
    both simulation cores and fails on any conservation break,
    determinism break, or cross-core telemetry divergence.
    """

    design: str  # a Table-3 design key (mesh / simplified / halo)
    mix: tuple = ()
    cycles: int = 600
    policy: str = "drop-tail"
    queue_limit: int = 8
    max_outstanding: int = 4
    window: int = 32
    seed: int = 0


@dataclass(frozen=True)
class FaultsCase:
    """A random geometry + sampled fault plan + traffic under recovery.

    Exercises the whole resilience stack: sampled link/transient faults,
    degraded routing, injection filtering, timeout/retransmit -- all under
    the full network checker set. The run must drain with every tracked
    message either delivered or explicitly abandoned.
    """

    kind: str  # "mesh" | "simplified" | "halo"
    cols: int
    rows: int
    link_rate: float = 0.0
    vc_rate: float = 0.0
    transient_rate: float = 0.0
    fault_seed: int = 0
    at_cycle: int = 0
    packets: tuple = ()


# -- generation ---------------------------------------------------------------


def _build_topology(case: NocCase):
    from repro.noc.topology import (
        HaloTopology,
        MeshTopology,
        SimplifiedMeshTopology,
    )

    if case.kind == "mesh":
        return MeshTopology(case.cols, case.rows)
    if case.kind == "simplified":
        return SimplifiedMeshTopology(case.cols, case.rows)
    if case.kind == "halo":
        return HaloTopology(case.cols, case.rows)
    raise ValidationError(f"unknown noc case kind {case.kind!r}")


def _xyx_legal(src: tuple, dst: tuple) -> bool:
    """True when src->dst traffic respects the Fig. 5(b) enumeration on a
    simplified mesh (same column, or an endpoint on the row-0 spine)."""
    return src[0] == dst[0] or src[1] == 0 or dst[1] == 0


def _make_noc_case(rng: random.Random) -> NocCase:
    kind = rng.choice(("mesh", "simplified", "halo"))
    cols = rng.randint(2, 5)
    rows = rng.randint(2, 5)
    topology = _build_topology(NocCase(kind, cols, rows))
    nodes = sorted(topology.nodes, key=str)
    row0 = [n for n in nodes if not isinstance(n[0], str) and n[1] == 0]
    packets = []
    for _ in range(rng.randint(1, 10)):
        inject_cycle = rng.randint(0, 20)
        multicast = kind != "mesh" and rng.random() < 0.4
        if multicast:
            source = rng.choice(row0) if kind == "simplified" else rng.choice(nodes)
            width = rng.randint(2, min(6, len(nodes)))
            destinations = tuple(sorted(rng.sample(nodes, width), key=str))
            message = rng.choice(_CONTROL_MESSAGES)
        else:
            while True:
                source = rng.choice(nodes)
                destination = rng.choice(nodes)
                if kind != "simplified" or _xyx_legal(source, destination):
                    break
            destinations = (destination,)
            message = rng.choice(_UNICAST_MESSAGES)
        packets.append(PacketSpec(message, source, destinations, inject_cycle))
    return NocCase(kind, cols, rows, tuple(packets))


def _make_cache_case(rng: random.Random) -> CacheCase:
    associativity = rng.randint(2, 16)
    num_banks = rng.randint(1, associativity)
    bank_of_way = tuple(
        sorted(min(way * num_banks // associativity, num_banks - 1)
               for way in range(associativity))
    )
    policy = rng.choice(_POLICY_CHOICES)
    accesses = tuple(
        (rng.randint(0, 7), rng.random() < 0.25)
        for _ in range(rng.randint(4, 40))
    )
    return CacheCase(policy, bank_of_way, accesses)


def _make_oracle_case(rng: random.Random) -> OracleCase:
    return OracleCase(
        design=rng.choice(_ORACLE_DESIGNS),
        scheme=rng.choice(_ORACLE_SCHEMES),
        benchmark=rng.choice(_ORACLE_BENCHMARKS),
        measure=rng.choice((90, 120, 150, 180, 210, 240)),
        seed=rng.randint(1, 5),
        sample=2,
    )


#: Windowed-series sample sizes for arraycore cases (0 = series off).
_WINDOWS = (0, 2, 4, 8, 16, 32, 64, 128)


def _make_arraycore_case(rng: random.Random) -> ArraycoreCase:
    base = _make_noc_case(rng)
    single_cycle = rng.random() < 0.7
    if rng.random() < 0.5:
        # Sparse protocol-paced traffic: the original family.
        return ArraycoreCase(
            kind=base.kind,
            cols=base.cols,
            rows=base.rows,
            single_cycle=single_cycle,
            packets=base.packets,
            window=rng.choice(_WINDOWS),
        )
    # Saturated / near-saturated load point: a dense stream injected at
    # rates sampled around the saturation knee (one packet every 1-3
    # cycles), optionally hotspotted toward a single node so ejection
    # tree contention pushes a mesh past the knee even at rate 1.
    topology = _build_topology(NocCase(base.kind, base.cols, base.rows))
    nodes = sorted(topology.nodes, key=str)
    row0 = [n for n in nodes if not isinstance(n[0], str) and n[1] == 0]
    spacing = rng.choice((1, 1, 2, 3))
    hotspot = rng.choice((0.0, 0.35, 0.6)) if base.kind == "mesh" else 0.0
    hot = rng.choice(nodes)
    packets = []
    for i in range(rng.randint(30, 120)):
        multicast = base.kind != "mesh" and rng.random() < 0.3
        if multicast:
            source = (
                rng.choice(row0) if base.kind == "simplified"
                else rng.choice(nodes)
            )
            width = rng.randint(2, min(6, len(nodes)))
            destinations = tuple(sorted(rng.sample(nodes, width), key=str))
            message = rng.choice(_CONTROL_MESSAGES)
        else:
            while True:
                source = rng.choice(nodes)
                if hotspot and source != hot and rng.random() < hotspot:
                    destination = hot
                else:
                    destination = rng.choice(nodes)
                if source == destination:
                    continue
                if base.kind != "simplified" or _xyx_legal(source, destination):
                    break
            destinations = (destination,)
            message = rng.choice(_UNICAST_MESSAGES)
        packets.append(PacketSpec(message, source, destinations, i * spacing))
    return ArraycoreCase(
        kind=base.kind,
        cols=base.cols,
        rows=base.rows,
        single_cycle=single_cycle,
        packets=tuple(packets),
        window=rng.choice(_WINDOWS),
    )


def _make_faults_case(rng: random.Random) -> FaultsCase:
    base = _make_noc_case(rng)
    # Rates stay modest: per-flit-traversal transients compound over
    # hops x flits, and the point is recovery coverage, not exhaustion.
    link_rate = rng.choice((0.0, 0.08, 0.15, 0.25))
    vc_rate = rng.choice((0.0, 0.0, 0.1))
    transient_rate = rng.choice((0.0, 0.02, 0.05))
    if link_rate == vc_rate == transient_rate == 0.0:
        link_rate = 0.15
    return FaultsCase(
        kind=base.kind,
        cols=base.cols,
        rows=base.rows,
        link_rate=link_rate,
        vc_rate=vc_rate,
        transient_rate=transient_rate,
        fault_seed=rng.randint(0, 99),
        at_cycle=rng.choice((0, 0, rng.randint(1, 12))),
        packets=base.packets,
    )


#: Tenant names for generated stream mixes (order = tenant count).
_STREAM_TENANTS = ("alfa", "bravo", "chad")

#: One design per topology family keeps stream cases cheap but covers
#: the mesh, simplified-mesh, and halo service paths (C is the small
#: 16x4 design; F exercises the off-network halo memory leg).
_STREAM_DESIGNS = ("A", "C", "F")


def _make_stream_case(rng: random.Random) -> StreamCase:
    from repro.stream.arrivals import ARRIVAL_PROCESSES
    from repro.stream.service import ADMISSION_POLICIES

    mix = tuple(
        (
            _STREAM_TENANTS[i],
            float(rng.randint(10, 60)),
            rng.choice((0.6, 0.8, 0.9, 1.1)),
            rng.choice((64, 128, 256, 512)),
            rng.choice(ARRIVAL_PROCESSES),
        )
        for i in range(rng.randint(1, len(_STREAM_TENANTS)))
    )
    return StreamCase(
        design=rng.choice(_STREAM_DESIGNS),
        mix=mix,
        cycles=rng.choice((400, 600, 800, 1200)),
        policy=rng.choice(ADMISSION_POLICIES),
        queue_limit=rng.randint(4, 16),
        max_outstanding=rng.randint(2, 8),
        window=rng.choice((16, 32, 64)),
        seed=rng.randint(0, 99),
    )


#: Identifier pool for generated analysis snippets.
_ANALYSIS_NAMES = ("probe", "sweep", "drain", "refill", "collect", "replay")

#: (rule, module template, source template). Literal braces in source
#: templates are doubled for str.format; ``{n}`` is a random identifier,
#: ``{v}`` a random small integer.
_ANALYSIS_TEMPLATES = (
    ("det-wallclock", "repro.experiments.{n}",
     "import time\n\n\ndef {n}_stamp():\n    return time.time()\n"),
    ("det-wallclock", "repro.core.{n}",
     "from datetime import datetime\n\nSTARTED = datetime.now()\n"),
    ("tel-window-simtime", "repro.experiments.{n}",
     "import time\n\n\ndef {n}_sample(series):\n"
     "    series.record(int(time.monotonic()), {v})\n"),
    ("tel-window-simtime", "repro.perf.{n}",
     "from time import perf_counter\n\n\ndef {n}_push(registry):\n"
     "    registry.series('{n}', {v}).record(perf_counter())\n"),
    ("det-unseeded-random", "repro.workloads.{n}",
     "import random\n\n\ndef {n}_pick(items):\n"
     "    return random.choice(items[:{v}])\n"),
    ("det-unseeded-random", "repro.experiments.{n}",
     "import random\n\n_RNG = random.Random()\n"),
    ("det-id-order", "repro.noc.{n}",
     "def {n}_order(items):\n    return sorted(items, key=id)\n"),
    ("det-id-order", "repro.cache.{n}",
     "def {n}_seen(items):\n    return {{id(x) for x in items}}\n"),
    ("det-set-iter", "repro.sim.{n}",
     "def {n}_visit(handler):\n    for node in {{1, 2, {v}}}:\n"
     "        handler(node)\n"),
    ("det-set-iter", "repro.noc.{n}",
     "def {n}_fan(links):\n    return [hop for hop in set(links)]\n"),
    ("det-unseeded-random", "repro.noc.{n}",
     "import numpy\n\n\ndef {n}_jitter(n):\n"
     "    return numpy.random.standard_normal({v})\n"),
    ("det-unordered-reduce", "repro.noc.{n}",
     "def {n}_total(flits):\n"
     "    return sum({{f.latency for f in flits[:{v}]}})\n"),
    ("det-unordered-reduce", "repro.sim.{n}",
     "import math\n\n\ndef {n}_energy(extra):\n"
     "    return math.fsum({{0.5, 1.5, extra, {v}}})\n"),
    ("proc-spec-pickle", "repro.experiments.{n}",
     "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\n"
     "class {c}Spec:\n    tag: str\n    table: dict\n"),
    ("proc-worker-global-write", "repro.experiments.{n}",
     "from concurrent.futures import ProcessPoolExecutor\n\n_SEEN = {{}}\n"
     "\n\ndef {n}_work(item):\n    _SEEN[item] = True\n    return item\n"
     "\n\ndef {n}_run(items):\n    with ProcessPoolExecutor() as pool:\n"
     "        futures = [pool.submit({n}_work, x) for x in items]\n"
     "    return [f.result() for f in futures]\n"),
    ("proc-mutable-default", "repro.experiments.{n}",
     "def {n}_gather(x, acc=[]):\n    acc.append(x)\n    return acc\n"),
    ("proc-mutable-default", "repro.workloads.{n}",
     "def {n}_index(key, table={{}}):\n    return table.setdefault(key, {v})\n"),
    ("tel-registry-only", "repro.noc.{n}",
     "from repro.telemetry import Counter\n\n{n}_hits = Counter()\n"),
    ("tel-sink-only", "repro.experiments.{n}",
     "from repro.telemetry import JsonlTraceSink\n\n"
     "sink = JsonlTraceSink('{n}.jsonl')\n"),
    ("tel-wallclock-payload", "repro.telemetry.{n}",
     "import time\n\n\ndef {n}_stamp():\n    return time.time()\n"),
    ("tel-wallclock-payload", "repro.telemetry.{n}",
     "import os\n\n\ndef {n}_tag():\n    return os.getpid()\n"),
    ("exc-bare", "repro.experiments.{n}",
     "def {n}_guard(thunk):\n    try:\n        return thunk()\n"
     "    except:\n        return None\n"),
    ("exc-silent", "repro.experiments.{n}",
     "def {n}_try(thunk):\n    try:\n        thunk()\n"
     "    except Exception:\n        pass\n"),
    ("exc-broad-hotpath", "repro.sim.{n}",
     "def {n}_step(event, log):\n    try:\n        event()\n"
     "    except Exception as exc:\n        log(exc)\n"),
    ("exc-taxonomy", "repro.cache.{n}",
     "def {n}_check(x):\n    if x < 0:\n"
     "        raise RuntimeError('negative: %d' % x)\n    return x\n"),
    # Dataflow family: taint must survive an intermediate assignment ...
    ("df-taint-telemetry", "repro.noc.{n}",
     "import time\n\n\ndef {n}_publish(registry):\n"
     "    stamp = time.time()\n"
     "    registry.gauge('{n}.stamp').set(stamp)\n"),
    # ... a hop through a local helper into sim-state ...
    ("df-taint-state", "repro.sim.{n}",
     "import time\n\n\ndef {n}_now():\n    return time.monotonic()\n\n\n"
     "class {c}Clock:\n    def tick(self):\n        self.at = {n}_now()\n"),
    # ... and an id() flowing into a cache-key spec field.
    ("df-taint-spec", "repro.experiments.{n}",
     "from repro.experiments.runner import CellSpec\n\n\n"
     "def {n}_spec(design):\n"
     "    return CellSpec(design=design, scheme='lru',\n"
     "                    benchmark='art', seed=id(design))\n"),
    # One key pattern registered under two metric kinds.
    ("cat-key-collision", "repro.noc.{n}",
     "def {n}_publish(registry):\n"
     "    registry.counter('{n}.flow').inc({v})\n"
     "    registry.gauge('{n}.flow').set({v})\n"),
    # A reordered step() phase sequence in the array-core anchor module.
    ("contract-core-divergence", "repro.noc.arraycore",
     "class {c}Core:\n"
     "    def step(self):\n"
     "        self._deliver_arrivals(0)\n"
     "        self._inject_phase(0)\n"
     "        self._switch_phase(0)\n"
     "        self._replication_phase(0)\n\n"
     "    def _inject_phase(self, cycle):\n"
     "        pass\n"),
)


def _make_analysis_case(rng: random.Random) -> AnalysisCase:
    rule, module_template, source_template = rng.choice(_ANALYSIS_TEMPLATES)
    name = rng.choice(_ANALYSIS_NAMES)
    values = {"n": name, "v": rng.randint(2, 9), "c": name.capitalize()}
    return AnalysisCase(
        rule=rule,
        module=module_template.format(**values),
        source=source_template.format(**values),
    )


_FAMILY_MAKERS = {
    "noc": _make_noc_case,
    "cache": _make_cache_case,
    "oracle": _make_oracle_case,
    "faults": _make_faults_case,
    "analysis": _make_analysis_case,
    "arraycore": _make_arraycore_case,
    "stream": _make_stream_case,
}

DEFAULT_FAMILIES = (
    "noc", "cache", "faults", "analysis", "arraycore", "noc", "arraycore",
    "cache", "oracle", "arraycore", "arraycore", "stream",
)


def generate_case(family: str, rng: random.Random):
    """One random case of *family* ('noc' | 'cache' | 'oracle' | 'faults')."""
    try:
        maker = _FAMILY_MAKERS[family]
    except KeyError:
        raise ValidationError(
            f"unknown fuzz family {family!r}; known: {sorted(_FAMILY_MAKERS)}"
        ) from None
    return maker(rng)


# -- execution ----------------------------------------------------------------


def _run_noc_case(case: NocCase) -> None:
    from repro.noc.network import Network
    from repro.noc.packet import MessageType, Packet

    topology = _build_topology(case)
    network = Network(topology)
    for checker in default_network_checkers(topology):
        network.install_checker(checker)
    for spec in case.packets:
        packet = Packet(
            MessageType(spec.message), spec.source, tuple(spec.destinations)
        )
        network.schedule_injection(packet, at_cycle=spec.inject_cycle)
    run_with_checkers(network, max_cycles=20_000, stall_limit=300)


def _metrics_snapshot(network) -> dict:
    """The network's full published metrics, from a fresh registry."""
    from repro.telemetry.registry import MetricsRegistry

    registry = MetricsRegistry()
    network.publish_metrics(registry)
    return registry.snapshot()


def _core_digest(network) -> tuple:
    """Core-independent fingerprint of a drained network's observables.

    Packet/flit ids are process-global counters that differ between two
    runs, so deliveries are keyed by (created_at, source, first-seen
    order) instead of ``packet_id``. The last field is the full metrics
    snapshot as canonical JSON, windowed series included.
    """
    import json

    order: dict = {}
    rows = []
    for delivery in network.stats.deliveries:
        pid = delivery.packet.packet_id
        if pid not in order:
            order[pid] = (
                delivery.packet.created_at,
                str(delivery.packet.source),
                len(order),
            )
        rows.append(
            (
                order[pid],
                str(delivery.destination),
                delivery.injected_at,
                delivery.delivered_at,
                delivery.hops,
            )
        )
    rows.sort()
    stats = network.stats
    return (
        stats.cycles,
        stats.packets_injected,
        stats.flits_injected,
        stats.packets_delivered,
        tuple(rows),
        json.dumps(_metrics_snapshot(network), sort_keys=True),
    )


def _run_arraycore_case(case: ArraycoreCase) -> None:
    from repro.config import RouterConfig
    from repro.noc.arraycore import ArrayNetwork
    from repro.noc.network import Network
    from repro.noc.packet import MessageType, Packet

    def run(factory):
        topology = _build_topology(NocCase(case.kind, case.cols, case.rows))
        network = factory(
            topology,
            router_config=RouterConfig(single_cycle=bool(case.single_cycle)),
            window=case.window,
        )
        for spec in case.packets:
            packet = Packet(
                MessageType(spec.message), spec.source, tuple(spec.destinations)
            )
            network.schedule_injection(packet, at_cycle=spec.inject_cycle)
        network.run_until_drained(max_cycles=20_000)
        return network

    reference_net = run(Network)
    array_net = run(ArrayNetwork)
    reference = _core_digest(reference_net)
    digest = _core_digest(array_net)
    snapshots = [_metrics_snapshot(reference_net), _metrics_snapshot(array_net)]
    if digest != reference:
        fields_ = (
            "cycles", "packets_injected", "flits_injected",
            "packets_delivered", "deliveries", "metrics",
        )
        diffs = [
            name
            for name, obj, arr in zip(fields_, reference, digest)
            if obj != arr
        ]
        keys = _diverging_keys(*snapshots)
        raise ValidationError(
            f"array core diverged from object core on {', '.join(diffs)}"
            + (f" (metrics: {', '.join(keys[:8])})" if keys else "")
            + f": object={reference[:4]!r} array={digest[:4]!r}"
        )
    _require_order_free_merge(snapshots, "telemetry")


def _diverging_keys(first: dict, second: dict) -> list:
    """Metric names whose snapshots differ between two registries."""
    return sorted(
        key
        for key in set(first) | set(second)
        if first.get(key) != second.get(key)
    )


def _require_order_free_merge(snapshots: list, what: str) -> None:
    """Folding the per-core snapshots must not depend on merge order."""
    from repro.telemetry.registry import MetricsRegistry

    forward, reverse = MetricsRegistry(), MetricsRegistry()
    for snap in snapshots:
        forward.merge(snap)
    for snap in reversed(snapshots):
        reverse.merge(snap)
    if forward.snapshot() != reverse.snapshot():
        raise ValidationError(
            f"{what} merge is order-dependent: forward != reverse fold "
            "of the per-core snapshots"
        )


def _run_stream_case(case: StreamCase) -> None:
    import json

    from repro.stream.arrivals import TenantSpec, generate_arrivals
    from repro.stream.service import StreamService
    from repro.telemetry.registry import MetricsRegistry

    tenants = tuple(
        TenantSpec(
            name,
            rate_per_kcycle=rate,
            process=process,
            zipf_alpha=alpha,
            catalog_blocks=catalog,
        )
        for name, rate, alpha, catalog, process in case.mix
    )
    requests = generate_arrivals(tenants, case.cycles, case.seed)

    def run(core: str) -> dict:
        service = StreamService(
            case.design,
            core=core,
            window=case.window,
            policy=case.policy,
            queue_limit=case.queue_limit,
            max_outstanding=case.max_outstanding,
        )
        service.run(requests, case.cycles)
        rejected = sum(service.rejected.values())
        if service.offered != service.admitted + rejected:
            raise ValidationError(
                f"admission conservation broke on {core} core: "
                f"offered {service.offered} != admitted {service.admitted} "
                f"+ rejected {rejected}"
            )
        if service.admitted != service.completed:
            raise ValidationError(
                f"drain left work behind on {core} core: admitted "
                f"{service.admitted} != completed {service.completed}"
            )
        registry = MetricsRegistry()
        service.publish_metrics(registry)
        return registry.snapshot()

    snapshots = {core: run(core) for core in ("object", "array")}
    texts = {
        core: json.dumps(snap, sort_keys=True)
        for core, snap in snapshots.items()
    }
    if texts["object"] != texts["array"]:
        diffs = _diverging_keys(snapshots["object"], snapshots["array"])
        raise ValidationError(
            "stream telemetry diverged between cores on: "
            + ", ".join(diffs[:8])
        )
    if json.dumps(run("object"), sort_keys=True) != texts["object"]:
        raise ValidationError(
            "stream service is nondeterministic: object-core re-run "
            "produced a different snapshot"
        )
    _require_order_free_merge(
        [snapshots["object"], snapshots["array"]], "stream telemetry"
    )


def _make_policy(name: str):
    from repro.cache.replacement import PromotionPolicy, policy_by_name

    if name.startswith("promotion:"):
        return PromotionPolicy(miss_policy=name.split(":", 1)[1])
    return policy_by_name(name)


def _run_cache_case(case: CacheCase) -> None:
    from repro.cache.bankset import BankSetState

    policy = _make_policy(case.policy)
    state = BankSetState(list(case.bank_of_way))
    checker = BlockConservationChecker(
        shadow_lru=policy.name in ("lru", "fast_lru")
    )
    for tag, is_write in case.accesses:
        before = state.resident_tags()
        outcome = policy.access(state, tag, bool(is_write))
        checker.check(tag, before, state, outcome, key=case.bank_of_way)


def _run_faults_case(case: FaultsCase) -> None:
    from repro.faults import FaultPlan, install_resilience
    from repro.noc.network import Network
    from repro.noc.packet import MessageType, Packet

    topology = _build_topology(NocCase(case.kind, case.cols, case.rows))
    network = Network(topology)
    for checker in default_network_checkers(topology):
        network.install_checker(checker)
    plan = FaultPlan.sample(
        topology,
        link_rate=case.link_rate,
        vc_rate=case.vc_rate,
        transient_rate=case.transient_rate,
        seed=case.fault_seed,
        at_cycle=case.at_cycle,
    )
    _, recovery = install_resilience(network, plan, seed=case.fault_seed)
    for spec in case.packets:
        packet = Packet(
            MessageType(spec.message), spec.source, tuple(spec.destinations)
        )
        network.schedule_injection(packet, at_cycle=spec.inject_cycle)
    run_with_checkers(network, max_cycles=60_000, stall_limit=1000)
    if recovery.outstanding_messages():
        raise ValidationError(
            f"{recovery.outstanding_messages()} tracked message(s) neither "
            "delivered nor abandoned after drain"
        )


def _run_analysis_case(case: AnalysisCase) -> None:
    from repro.analysis import analyze_source

    findings = analyze_source(
        "<fuzz>", case.source, module=case.module
    )
    flagged = sorted({finding.rule for finding in findings})
    if case.rule not in flagged:
        raise ValidationError(
            f"analysis rule {case.rule!r} missed a violating snippet "
            f"(flagged: {flagged or 'nothing'}):\n{case.source}"
        )


def _run_oracle_case(case: OracleCase) -> None:
    from repro.validation.differential import run_oracle

    report = run_oracle(
        design=case.design,
        scheme=case.scheme,
        benchmark=case.benchmark,
        measure=case.measure,
        seed=case.seed,
        sample=case.sample,
    )
    if not report.ok:
        raise ValidationError(
            "differential oracle diverged:\n  " + "\n  ".join(report.divergences)
        )


def run_case(case) -> None:
    """Execute one fuzz case; raises on any invariant violation."""
    if isinstance(case, NocCase):
        _run_noc_case(case)
    elif isinstance(case, CacheCase):
        _run_cache_case(case)
    elif isinstance(case, OracleCase):
        _run_oracle_case(case)
    elif isinstance(case, FaultsCase):
        _run_faults_case(case)
    elif isinstance(case, ArraycoreCase):
        _run_arraycore_case(case)
    elif isinstance(case, StreamCase):
        _run_stream_case(case)
    elif isinstance(case, AnalysisCase):
        _run_analysis_case(case)
    else:
        raise ValidationError(f"not a fuzz case: {case!r}")


# -- shrinking ----------------------------------------------------------------


def shrink_list(items: list, still_fails) -> list:
    """Greedy delta debugging: drop chunks, then singles, while failing."""
    items = list(items)
    chunk = max(1, len(items) // 2)
    while chunk >= 1:
        i = 0
        while i < len(items):
            candidate = items[:i] + items[i + chunk:]
            if candidate and still_fails(candidate):
                items = candidate
            else:
                i += chunk
        chunk //= 2
    return items


def _fails(case) -> bool:
    try:
        run_case(case)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        raise
    except Exception:
        return True
    return False


def shrink_case(case):
    """Smallest still-failing variant of a known-failing *case*."""
    if isinstance(case, NocCase):
        packets = shrink_list(
            list(case.packets),
            lambda kept: _fails(replace(case, packets=tuple(kept))),
        )
        case = replace(case, packets=tuple(packets))
        shrunk_packets = []
        for i, packet in enumerate(case.packets):
            if len(packet.destinations) > 1:
                others = list(case.packets)

                def fails_with(dsts, i=i, others=others, packet=packet):
                    others[i] = replace(packet, destinations=tuple(dsts))
                    return _fails(replace(case, packets=tuple(others)))

                kept = shrink_list(list(packet.destinations), fails_with)
                packet = replace(packet, destinations=tuple(kept))
            shrunk_packets.append(packet)
        candidate = replace(case, packets=tuple(shrunk_packets))
        return candidate if _fails(candidate) else case
    if isinstance(case, CacheCase):
        accesses = shrink_list(
            list(case.accesses),
            lambda kept: _fails(replace(case, accesses=tuple(kept))),
        )
        return replace(case, accesses=tuple(accesses))
    if isinstance(case, OracleCase):
        for measure in (30, 60, 90, 120, 180):
            if measure >= case.measure:
                break
            candidate = replace(case, measure=measure)
            if _fails(candidate):
                return candidate
        return case
    if isinstance(case, ArraycoreCase):
        packets = shrink_list(
            list(case.packets),
            lambda kept: _fails(replace(case, packets=tuple(kept))),
        )
        return replace(case, packets=tuple(packets))
    if isinstance(case, StreamCase):
        mix = shrink_list(
            list(case.mix),
            lambda kept: _fails(replace(case, mix=tuple(kept))),
        )
        case = replace(case, mix=tuple(mix))
        for cycles in (100, 200, 400, 800):
            if cycles >= case.cycles:
                break
            candidate = replace(case, cycles=cycles)
            if _fails(candidate):
                return candidate
        return case
    if isinstance(case, FaultsCase):
        packets = shrink_list(
            list(case.packets),
            lambda kept: _fails(replace(case, packets=tuple(kept))),
        )
        case = replace(case, packets=tuple(packets))
        # Try switching whole fault classes off while the case still fails.
        for knob in ("transient_rate", "vc_rate", "link_rate"):
            if getattr(case, knob) == 0.0:
                continue
            candidate = replace(case, **{knob: 0.0})
            if _fails(candidate):
                case = candidate
        return case
    return case


# -- reporting ----------------------------------------------------------------


_CASE_IMPORTS = {
    NocCase: "NocCase, PacketSpec",
    CacheCase: "CacheCase",
    OracleCase: "OracleCase",
    FaultsCase: "FaultsCase, PacketSpec",
    AnalysisCase: "AnalysisCase",
    ArraycoreCase: "ArraycoreCase, PacketSpec",
    StreamCase: "StreamCase",
}


def case_to_pytest(case, error: str = "") -> str:
    """A standalone pytest module body reproducing *case*."""
    names = _CASE_IMPORTS[type(case)]
    lines = [f"from repro.validation.fuzzer import {names}, run_case", "", ""]
    lines.append("def test_fuzz_repro():")
    if error:
        lines.append(f"    # fails with: {error}")
    lines.append(f"    case = {case!r}")
    lines.append("    run_case(case)")
    return "\n".join(lines) + "\n"


@dataclass
class FuzzFailure:
    """One failing fuzz case, shrunk and rendered as a pytest repro."""

    index: int
    family: str
    case: object
    error_type: str
    error: str
    shrunk: object = None
    repro: str = ""

    def render(self) -> str:
        lines = [
            f"case #{self.index} ({self.family}): {self.error_type}: {self.error}",
            f"  original: {self.case!r}",
            f"  shrunk:   {self.shrunk!r}",
            "  repro (paste into tests/validation/):",
        ]
        lines += ["    " + line for line in self.repro.splitlines()]
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz` campaign."""

    cases_run: int
    seed: int
    families: tuple
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        verdict = "all passed" if self.ok else f"{len(self.failures)} FAILED"
        return (
            f"fuzz: {self.cases_run} cases (seed {self.seed}, families "
            f"{'/'.join(sorted(set(self.families)))}): {verdict}"
        )

    def render(self) -> str:
        lines = [self.summary_line()]
        for failure in self.failures:
            lines.append(failure.render())
        return "\n".join(lines)


def fuzz(
    n: int,
    seed: int = 1,
    families: tuple = DEFAULT_FAMILIES,
) -> FuzzReport:
    """Run *n* seeded fuzz cases; shrink and report every failure.

    Case *i* draws from ``families[i % len(families)]`` with its own
    deterministic RNG, so any single failing index reproduces in
    isolation regardless of what ran before it.
    """
    report = FuzzReport(cases_run=n, seed=seed, families=tuple(families))
    for i in range(n):
        family = families[i % len(families)]
        rng = random.Random(f"{seed}/{i}/{family}")
        case = generate_case(family, rng)
        try:
            run_case(case)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            raise
        except Exception as exc:
            shrunk = shrink_case(case)
            error = f"{exc}"
            report.failures.append(
                FuzzFailure(
                    index=i,
                    family=family,
                    case=case,
                    error_type=type(exc).__name__,
                    error=error,
                    shrunk=shrunk,
                    repro=case_to_pytest(shrunk, error=error.splitlines()[0]),
                )
            )
    return report
