"""Differential oracle: the same trace through two independent models.

One seeded trace is evaluated twice:

* the **engine path** -- :func:`repro.experiments.runner.run_cells` on the
  cell's spec, which exercises the memo, the persistent result cache, and
  the worker-pool fan-out exactly as figure drivers do;
* the **checked replay** -- a fresh :class:`NetworkedCacheSystem` walking
  the identical trace in-process with the content and transaction
  invariant checkers installed.

The two runs are diffed on hit/miss outcomes, final bank contents (the
contents digest), and aggregate counters; then a deterministic sample of
the replay's measured transactions is re-enacted leg by leg on the real
flit-level network over the same topology, comparing each delivered hop
count against the transaction-level geometry model's assumption
(``routing.hops(src, dst) + 1`` -- the ejection switch also counts a hop).
Divergence within the declared :class:`Tolerances` passes; anything else
is reported, making silent drift between the two models loud.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.arraycore import ArrayNetwork
from repro.noc.network import Network
from repro.noc.packet import MessageType, Packet
from repro.validation.invariants import (
    BlockConservationChecker,
    TransactionTimingChecker,
    default_network_checkers,
    run_with_checkers,
)


@dataclass(frozen=True)
class Tolerances:
    """Declared acceptable divergence between the two model paths."""

    #: Absolute difference allowed in measured hit counts.
    hit_count: int = 0
    #: Require bit-identical final cache contents digests.
    contents_exact: bool = True
    #: Allowed |delivered - predicted| hops per flit-level leg.
    hop_slack: int = 0


@dataclass
class LegResult:
    """One protocol leg re-enacted on the flit-level network."""

    transaction: int
    leg: str
    source: object
    destination: object
    predicted_hops: int
    delivered_hops: int

    @property
    def ok_within(self) -> bool:  # pragma: no cover - trivial alias
        return self.predicted_hops == self.delivered_hops


@dataclass
class OracleReport:
    """Everything :func:`run_oracle` observed, diffable and printable."""

    design: str
    scheme: str
    benchmark: str
    measure: int
    seed: int
    engine_source: str = "computed"
    accesses: int = 0
    engine_hits: int = 0
    replay_hits: int = 0
    engine_digest: str | None = None
    replay_digest: str | None = None
    conservation_checks: int = 0
    timing_checks: int = 0
    legs: list[LegResult] = field(default_factory=list)
    #: Flit legs replayed on *both* cores and compared cycle-for-cycle.
    array_legs: int = 0
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary_line(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        return (
            f"oracle {self.design}/{self.scheme}/{self.benchmark} "
            f"measure={self.measure} seed={self.seed}: {verdict} "
            f"({self.accesses} accesses, {self.conservation_checks} content "
            f"checks, {len(self.legs)} flit legs, "
            f"{self.array_legs} array-core cross-checks)"
        )

    def render(self) -> str:
        lines = [self.summary_line()]
        lines.append(
            f"  engine[{self.engine_source}] hits={self.engine_hits} "
            f"digest={self.engine_digest}"
        )
        lines.append(
            f"  replay[checked]  hits={self.replay_hits} "
            f"digest={self.replay_digest}"
        )
        for leg in self.legs:
            mark = "ok" if leg.delivered_hops == leg.predicted_hops else "!!"
            lines.append(
                f"  [{mark}] txn {leg.transaction} {leg.leg}: "
                f"{leg.source}->{leg.destination} predicted "
                f"{leg.predicted_hops} hops, delivered {leg.delivered_hops}"
            )
        for divergence in self.divergences:
            lines.append(f"  DIVERGENCE: {divergence}")
        return "\n".join(lines)


class _TransactionRecorder:
    """Transaction validator that just remembers what ran (for sampling)."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, bool, int | None]] = []

    def on_transaction(self, column, outcome, timing) -> None:
        self.rows.append((column, timing.hit, timing.bank_position))


def _sample_indices(count: int, sample: int) -> list[int]:
    """Evenly spread, deterministic, unique indices into ``range(count)``."""
    if count <= 0 or sample <= 0:
        return []
    if sample >= count:
        return list(range(count))
    step = (count - 1) / (sample - 1) if sample > 1 else 0
    return sorted({round(i * step) for i in range(sample)})


def _protocol_legs(system, column: int, hit: bool, bank_position):
    """The (name, source, destination(s)) legs of one cache transaction.

    Mirrors the Section 5 message flows the transaction-level model costs:
    the multicast scheme broadcasts the request down the column; unicast
    walks it bank to bank. Misses add the notify / memory round trip.
    """
    geometry = system.geometry
    nbanks = geometry.banks_per_column(column)
    core = geometry.core_node
    memory = geometry.memory_node
    bank = lambda p: geometry.bank_node(column, p)  # noqa: E731
    legs: list[tuple[str, MessageType, object, tuple]] = []
    if system.scheme.multicast:
        targets = tuple(dict.fromkeys(bank(p) for p in range(nbanks)))
        legs.append(("mc_request", MessageType.READ_REQUEST, core, targets))
    else:
        walk_end = bank_position if hit and bank_position is not None else nbanks - 1
        previous = core
        for position in range(walk_end + 1):
            legs.append(
                ("uc_request", MessageType.READ_REQUEST, previous, (bank(position),))
            )
            previous = bank(position)
    if hit and bank_position is not None:
        legs.append(("hit_data", MessageType.HIT_DATA, bank(bank_position), (core,)))
    else:
        legs.append(("miss_notify", MessageType.MISS_NOTIFY, bank(nbanks - 1), (core,)))
        legs.append(("memory_request", MessageType.MEMORY_REQUEST, core, (memory,)))
        legs.append(("memory_fill", MessageType.MEMORY_FILL, memory, (bank(0),)))
        legs.append(("fill_data", MessageType.HIT_DATA, bank(0), (core,)))
    return legs


def _replay_legs_on_network(system, sampled, report, hop_slack: int) -> None:
    """Re-enact each sampled transaction's legs on a checked flit network."""
    topology = system.geometry.topology
    routing = system.geometry.routing
    network = Network(topology)
    for checker in default_network_checkers(topology):
        network.install_checker(checker)
    for txn_index, (column, hit, bank_position) in sampled:
        for leg_name, message, source, destinations in _protocol_legs(
            system, column, hit, bank_position
        ):
            already = len(network.stats.deliveries)
            network.inject(Packet(message, source, destinations))
            run_with_checkers(network)
            for delivery in network.stats.deliveries[already:]:
                predicted = (
                    routing.hops(topology, source, delivery.destination) + 1
                )
                report.legs.append(
                    LegResult(
                        transaction=txn_index,
                        leg=leg_name,
                        source=source,
                        destination=delivery.destination,
                        predicted_hops=predicted,
                        delivered_hops=delivery.hops,
                    )
                )
                if abs(delivery.hops - predicted) > hop_slack:
                    report.divergences.append(
                        f"txn {txn_index} {leg_name} {source}->"
                        f"{delivery.destination}: flit level delivered "
                        f"{delivery.hops} hops, transaction model assumes "
                        f"{predicted}"
                    )


def _crosscheck_array_core(system, sampled, report) -> None:
    """Replay the sampled legs on both flit cores and diff cycle timings.

    Every delivery's (destination, injection cycle, delivery cycle, hop
    count) must match bit-for-bit between the object core and the
    struct-of-arrays core; packet ids are process-global counters and are
    deliberately not compared.
    """
    topology = system.geometry.topology
    observed: dict[str, list[tuple]] = {}
    for name, network in (
        ("object", Network(topology)),
        ("array", ArrayNetwork(topology)),
    ):
        rows: list[tuple] = []
        for txn_index, (column, hit, bank_position) in sampled:
            for leg_name, message, source, destinations in _protocol_legs(
                system, column, hit, bank_position
            ):
                already = len(network.stats.deliveries)
                network.inject(Packet(message, source, destinations))
                network.run_until_drained()
                for delivery in network.stats.deliveries[already:]:
                    rows.append(
                        (
                            txn_index,
                            leg_name,
                            str(source),
                            str(delivery.destination),
                            delivery.injected_at,
                            delivery.delivered_at,
                            delivery.hops,
                        )
                    )
        observed[name] = rows
    if observed["object"] != observed["array"]:
        mismatches = [
            (obj, arr)
            for obj, arr in zip(observed["object"], observed["array"])
            if obj != arr
        ]
        detail = (
            f"first mismatch {mismatches[0]}"
            if mismatches
            else f"row counts {len(observed['object'])} vs "
            f"{len(observed['array'])}"
        )
        report.divergences.append(
            f"array core diverged from object core on replayed flit legs "
            f"({detail})"
        )
    report.array_legs = len(observed["object"])


def run_oracle(
    design: str = "A",
    scheme: str = "multicast+fast_lru",
    benchmark: str = "art",
    measure: int = 240,
    seed: int = 1,
    sample: int = 4,
    tolerances: Tolerances | None = None,
    core: str = "object",
) -> OracleReport:
    """Differentially validate one cell; returns the full report.

    The engine path goes through :func:`run_cells` (so cached and pooled
    results are what gets validated -- exactly what figures consume), the
    replay path runs fresh under invariant checkers, and *sample* measured
    transactions are re-enacted at flit level.
    """
    from repro.core.system import NetworkedCacheSystem
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import (
        last_batch,
        run_cells,
        spec_for,
        trace_with_warmup,
    )
    from repro.workloads.profiles import profile_by_name

    tolerances = tolerances or Tolerances()
    config = ExperimentConfig(measure=measure, seed=seed, core=core)
    spec = spec_for(design, scheme, benchmark, config)
    report = OracleReport(
        design=spec.design,
        scheme=spec.scheme,
        benchmark=spec.benchmark,
        measure=measure,
        seed=seed,
    )

    # Engine path: through the memo / persistent cache / worker fan-out.
    engine_result = run_cells([spec])[0]
    batch = last_batch()
    if batch is not None and batch.cells:
        report.engine_source = batch.cells[-1].source
    report.engine_hits = engine_result.content.hits
    report.engine_digest = engine_result.contents_digest

    # Checked replay: identical trace, fresh system, invariants installed.
    trace, warmup = trace_with_warmup(spec)
    profile = profile_by_name(spec.benchmark)
    system = NetworkedCacheSystem(design=spec.design, scheme=spec.scheme)
    conservation = BlockConservationChecker(
        shadow_lru=system.scheme.policy.name in ("lru", "fast_lru")
    )
    timing_checker = TransactionTimingChecker()
    recorder = _TransactionRecorder()
    system.array.validator = conservation
    system.engine.validators.extend([timing_checker, recorder])
    replay_result = system.run(trace, profile, warmup=warmup)
    report.accesses = replay_result.accesses
    report.replay_hits = replay_result.content.hits
    report.replay_digest = replay_result.contents_digest
    report.conservation_checks = conservation.checked
    report.timing_checks = timing_checker.checked

    # Diff the two content-model outcomes.
    if abs(report.engine_hits - report.replay_hits) > tolerances.hit_count:
        report.divergences.append(
            f"hit counts diverge beyond tolerance {tolerances.hit_count}: "
            f"engine {report.engine_hits}, replay {report.replay_hits}"
        )
    if engine_result.content.misses != replay_result.content.misses and (
        abs(engine_result.content.misses - replay_result.content.misses)
        > tolerances.hit_count
    ):
        report.divergences.append(
            f"miss counts diverge: engine {engine_result.content.misses}, "
            f"replay {replay_result.content.misses}"
        )
    if tolerances.contents_exact and report.engine_digest != report.replay_digest:
        report.divergences.append(
            f"final bank contents diverge: engine digest "
            f"{report.engine_digest}, replay {report.replay_digest}"
        )
    if engine_result.accesses != replay_result.accesses:
        report.divergences.append(
            f"measured access counts diverge: engine "
            f"{engine_result.accesses}, replay {replay_result.accesses}"
        )

    # Flit-level re-enactment of a deterministic transaction sample.
    sampled = [
        (i, recorder.rows[i]) for i in _sample_indices(len(recorder.rows), sample)
    ]
    _replay_legs_on_network(system, sampled, report, tolerances.hop_slack)
    _crosscheck_array_core(system, sampled, report)
    return report
