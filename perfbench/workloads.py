"""The benchmark's three workloads, their cells and their output digests.

Imported by ``worker.py`` after ``src/`` is on ``sys.path``. Everything
here is a pure function of ``(workload, size, input seed)``, so the
reference digests in ``reference.json`` pin every simulated output.

* ``fig9-sweep`` -- the Fig. 9 reference sweep: 6 designs x
  ``multicast+fast_lru`` x {art, twolf, mcf} at ``--measure 3000``, cold,
  through ``run_cells`` with ``jobs=2`` (a user's first
  ``repro figure 9 --jobs 2``).
* ``fault-campaign`` -- the ``CampaignConfig`` defaults (designs A, C, F x
  rates {0, 1e-3, 1e-2}, art, 600 accesses, fault seed 7), serial, as
  ``repro faults`` runs it.
* ``serve-overload`` -- ``repro serve`` on design C, ``trio-mixed`` at
  ``--load 2.0``, drop-tail, 40 000 cycles, array core: past the
  saturation knee, so the flit core and admission do the work.

``size="smoke"`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

WORKLOADS = ("fig9-sweep", "fault-campaign", "serve-overload")
#: Distinct input variants per size; ``--seed n`` selects variant
#: ``1 + (n - 1) % VARIANTS[size]`` so every seed has a recorded reference.
VARIANTS = {"full": 16, "smoke": 2}
SIZES = tuple(VARIANTS)

#: Worker processes each workload fans its cells over (the user's default).
JOBS = {"fig9-sweep": 2, "fault-campaign": 1, "serve-overload": 1}

SCHEME = "multicast+fast_lru"
FIG9_BENCHMARKS = ("art", "twolf", "mcf")


def input_seed(seed: int, size: str) -> int:
    """The trace/arrival seed the benchmark's ``--seed`` selects."""
    return 1 + (seed - 1) % VARIANTS[size]


def fig9_specs(size: str, seed: int) -> list:
    from repro.core.designs import DESIGN_NAMES
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import spec_for

    config = ExperimentConfig(
        measure=3000 if size == "full" else 300,
        seed=seed,
        benchmarks=FIG9_BENCHMARKS,
    )
    return [
        spec_for(design, SCHEME, benchmark, config)
        for design in DESIGN_NAMES
        for benchmark in FIG9_BENCHMARKS
    ]


def campaign_config(size: str, seed: int):
    from repro.faults.campaign import CampaignConfig

    if size == "full":
        return CampaignConfig(seed=seed)
    # Design C's degraded geometry proves in well under a second.
    return CampaignConfig(designs=("C",), rates=(0.0, 1e-2), measure=200, seed=seed)


def campaign_specs(config) -> list:
    """The cells ``run_campaign(config)`` evaluates, in its order.

    The worker re-requests these after the campaign and requires every
    one to be an in-process memo hit, which proves they match.
    """
    from repro.experiments.runner import CellSpec

    return [
        CellSpec(
            design=design,
            scheme=scheme,
            benchmark=config.benchmark,
            measure=config.measure,
            seed=config.seed,
            link_fault_rate=rate,
            transient_fault_rate=rate,
            fault_seed=config.fault_seed,
            core=config.core,
        )
        for design in config.designs
        for scheme in config.schemes
        for rate in config.sweep_rates()
    ]


def pristine_specs(config) -> list:
    """Fault-free cells matching the campaign's zero-rate cells.

    They differ from those only in ``fault_seed``, so the engine computes
    them separately; the gate requires equal results.
    """
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import spec_for

    base = ExperimentConfig(measure=config.measure, seed=config.seed)
    return [
        spec_for(design, scheme, config.benchmark, base)
        for design in config.designs
        for scheme in config.schemes
    ]


def serve_spec(size: str, seed: int, *, core: str = "array", short: bool = False):
    from repro.stream import stream_spec_for

    if short:
        cycles = 4000 if size == "full" else 1500
    else:
        cycles = 40_000 if size == "full" else 4000
    return stream_spec_for(
        "C",
        "drop-tail",
        "trio-mixed",
        seed=seed,
        cycles=cycles,
        load=2.0,
        core=core,
        window=64,
    )


def cell_name(spec: Any) -> str:
    """Stable per-workload id of a cell (reference keys, trace cell ids)."""
    from repro.experiments.runner import CellSpec

    if isinstance(spec, CellSpec):
        if spec.fault_seed:
            return f"{spec.design}/{spec.benchmark}/rate={spec.link_fault_rate}"
        return f"{spec.design}/{spec.benchmark}"
    return f"{spec.design}/{spec.benchmark}/{spec.core}/{spec.cycles}"


def cell_digest(result: Any) -> str:
    """Digest of one cell's simulated outputs (host times excluded).

    Trace cells: contents digest, cycles, IPC, latency sums, content
    stats, memory traffic and the fault counters. Stream cells: the
    whole SLO summary, quantiles included.
    """
    if hasattr(result, "summary"):
        payload: dict[str, Any] = {
            "cycles": result.cycles,
            "summary": result.summary,
            "quantiles": result.quantiles,
        }
    else:
        metrics = result.metrics or {}
        payload = {
            "contents_digest": result.contents_digest,
            "accesses": result.accesses,
            "instructions": result.instructions,
            "cycles": result.cycles,
            "ipc": repr(result.ipc),
            "latency": dataclasses.asdict(result.latency),
            "content": dataclasses.asdict(result.content),
            "memory": [result.memory_reads, result.memory_writebacks],
            "faults": {
                key: entry.get("value")
                for key, entry in metrics.items()
                if key.startswith("faults.") and "value" in entry
            },
        }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def conserved(result: Any) -> bool:
    """Drain conservation: offered = admitted + rejected; admitted = completed."""
    return (
        result.offered == result.admitted + result.rejected
        and result.admitted == result.completed
    )


def counter(result: Any, key: str) -> int:
    entry = (result.metrics or {}).get(key)
    return int(entry["value"]) if entry else 0
