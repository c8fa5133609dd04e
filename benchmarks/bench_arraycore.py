"""Array-core benchmark: SoA wormhole core vs the object reference core.

Standalone (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_arraycore.py \
        [--packets N] [--cell NAME] [--json-out P]

Runs identical flit workloads through the object-model ``Network`` and
the struct-of-arrays ``ArrayNetwork`` (``repro.noc.arraycore``), checks
the two cores produce bit-identical observables -- cycle counts,
normalized delivery records, and every telemetry counter -- then reports
the per-cell speedup plus a per-phase wall-time attribution from
``repro.perf.profiler`` (arrivals / inject / replication / switch) for
both cores. ``--cell`` restricts the run to one cell, and ``--json-out`` writes the section to a standalone file
without touching the repo-level records -- together they form the CI
smoke that fails whenever a downsized saturated cell stops being
bit-identical. Without those flags, human-readable output goes to
``benchmarks/out/arraycore.txt`` and the machine-readable ``array_core``
section is merged into ``BENCH_runtime.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.config import RouterConfig
from repro.noc import MeshTopology, MessageType, Network, Packet
from repro.noc.arraycore import ArrayNetwork
from repro.noc.topology import SimplifiedMeshTopology
from repro.perf import profiler
from repro.validation.fuzzer import _core_digest

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


def _mesh_workload(packets: int, spacing: int) -> list:
    """Random unicast stream on a 16x16 mesh, one packet per *spacing*.

    ``spacing=2`` saturates the mesh (the SoA core's worst case: every
    cycle busy); ``spacing=130`` reproduces the cache-transaction pacing
    of :class:`repro.noc.protocol.FlitLevelCacheProtocol`, where long
    idle gaps between request/response legs dominate a cell and the
    array core's idle fast-forward pays off.
    """
    rng = random.Random(20070212)
    nodes = [(x, y) for x in range(16) for y in range(16)]
    specs = []
    for i in range(packets):
        source, destination = rng.sample(nodes, 2)
        specs.append(
            (MessageType.READ_REQUEST, source, (destination,), i * spacing)
        )
    return specs


def _multicast_workload(rounds: int, cols: int = 8, rows: int = 6) -> list:
    """Spine-to-column multicasts on a simplified mesh (Fig. 5(b) traffic).

    Every packet starts on the row-0 spine, so the workload respects the
    simplified mesh's legal-traffic enumeration while exercising the
    hybrid replication path on every column router.
    """
    specs = []
    for i in range(rounds):
        x = i % cols
        column = tuple((x, y) for y in range(rows))
        specs.append((MessageType.READ_REQUEST, (x, 0), column, i * 4))
    return specs


def _inject(network, specs: list) -> None:
    for message, source, destinations, at_cycle in specs:
        packet = Packet(message, source, destinations)
        network.schedule_injection(packet, at_cycle=at_cycle)


def _run(make_network, specs: list, core: str) -> tuple[float, tuple, dict]:
    """Time an unprofiled run, then re-run profiled for attribution.

    The timing run carries zero wrapper overhead, so the speedup table
    stays honest; the second run only feeds the per-phase breakdown.
    """
    network = make_network()
    _inject(network, specs)
    t0 = time.perf_counter()
    network.run_until_drained(max_cycles=200_000)
    elapsed = time.perf_counter() - t0
    digest = _core_digest(network)

    network = make_network()
    profile = profiler.attach(network, core=core)
    _inject(network, specs)
    network.run_until_drained(max_cycles=200_000)
    profiler.detach(network)
    phases = {
        phase: round(profile.seconds[phase], 4) for phase in profiler.PHASES
    }
    return elapsed, digest, phases


def _bench_cell(name: str, make_topology, specs: list) -> dict:
    config = RouterConfig(single_cycle=True)
    object_s, object_digest, object_phases = _run(
        lambda: Network(make_topology(), router_config=config),
        specs, core="object",
    )
    array_s, array_digest, array_phases = _run(
        lambda: ArrayNetwork(make_topology(), router_config=config),
        specs, core="array",
    )
    identical = object_digest == array_digest
    assert identical, f"{name}: array core diverged from object core"
    return {
        "cell": name,
        "packets": len(specs),
        "cycles": object_digest[0],
        "deliveries": object_digest[3],
        "object_s": round(object_s, 3),
        "array_s": round(array_s, 4),
        "speedup": round(object_s / array_s, 1),
        "bit_identical": identical,
        "phases": {"object": object_phases, "array": array_phases},
    }


def bench_array_core(packets: int, only_cell: str | None = None) -> dict:
    """The reference cells; returns the ``array_core`` payload section."""
    cells = [
        (
            "protocol_paced",
            lambda: MeshTopology(16, 16),
            _mesh_workload(max(packets // 4, 1), spacing=130),
        ),
        (
            "mesh16_saturated",
            lambda: MeshTopology(16, 16),
            _mesh_workload(packets, spacing=2),
        ),
        (
            "simplified_multicast",
            lambda: SimplifiedMeshTopology(8, 6),
            _multicast_workload(max(packets // 2, 1)),
        ),
    ]
    if only_cell is not None:
        names = [name for name, _, _ in cells]
        if only_cell not in names:
            raise SystemExit(
                f"unknown cell {only_cell!r}; choose from {names}"
            )
        cells = [entry for entry in cells if entry[0] == only_cell]
    results = [
        _bench_cell(name, make_topology, specs)
        for name, make_topology, specs in cells
    ]
    return {
        "packets": packets,
        "cells": results,
        #: Headline number: the transaction-paced cell is how the engine
        #: actually exercises the flit core (sparse protocol legs).
        "per_cell_speedup": results[0]["speedup"],
        "min_speedup": min(cell["speedup"] for cell in results),
        "bit_identical": all(cell["bit_identical"] for cell in results),
    }


def render(section: dict) -> str:
    lines = [
        "Array-core benchmark (object vs SoA wormhole core)",
        "==================================================",
        f"{'cell':<22}  {'packets':>7}  {'cycles':>7}  "
        f"{'object':>8}  {'array':>8}  {'speedup':>7}",
    ]
    for cell in section["cells"]:
        lines.append(
            f"{cell['cell']:<22}  {cell['packets']:>7}  {cell['cycles']:>7}  "
            f"{cell['object_s']:>7.3f}s  {cell['array_s']:>7.4f}s  "
            f"x{cell['speedup']:>6.1f}"
        )
    lines.append("")
    lines.append("per-phase wall-time attribution (profiled rerun, seconds):")
    for cell in section["cells"]:
        for core in ("object", "array"):
            phases = cell["phases"][core]
            breakdown = "  ".join(
                f"{phase}={phases[phase]:.4f}" for phase in profiler.PHASES
            )
            lines.append(f"  {cell['cell']:<22} {core:<6} {breakdown}")
    lines.append("")
    lines.append(
        f"bit-identical across cores: {section['bit_identical']}, "
        f"per-cell (protocol-paced) speedup x{section['per_cell_speedup']:.1f}, "
        f"min speedup x{section['min_speedup']:.1f}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=400,
                        help="unicast packets in the mesh cell (default 400)")
    parser.add_argument("--cell", default=None,
                        help="run only this cell (e.g. mesh16_saturated)")
    parser.add_argument("--json-out", default=None,
                        help="write the section to this file and leave "
                             "BENCH_runtime.json / out/ untouched (CI smoke)")
    args = parser.parse_args(argv)

    section = bench_array_core(args.packets, only_cell=args.cell)
    text = render(section)
    print(text)

    if args.json_out is not None:
        pathlib.Path(args.json_out).write_text(
            json.dumps(section, indent=2) + "\n", encoding="utf-8"
        )
        return 0 if section["bit_identical"] else 1

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "arraycore.txt").write_text(text + "\n", encoding="utf-8")

    bench_path = ROOT / "BENCH_runtime.json"
    payload = (
        json.loads(bench_path.read_text()) if bench_path.exists() else {}
    )
    payload["array_core"] = section
    bench_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return 0 if section["bit_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
