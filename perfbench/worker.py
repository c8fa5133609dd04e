#!/usr/bin/env python3
"""One benchmark step in a fresh interpreter; ``run.py`` spawns these.

    python3 perfbench/worker.py MODE --workload W --size S --seed N \\
        --launch T --work DIR [--replay DIR]

MODE is one of:

* ``setup``  -- set up (imports, inputs, objects) and exit;
* ``iter``   -- one untraced, timed run of the workload;
* ``traced`` -- one run under ``tracing.py``'s wrappers (serial);
* ``check``  -- the untimed correctness steps (serial run, warm-cache
  replay of ``--replay``, pristine and cross-core cells);
* ``record`` -- every cell digest of one input variant, for
  ``reference.json``.

``--seed`` is the input seed (``workloads.input_seed`` already applied)
and ``--launch`` the parent's ``time.monotonic()`` just before the spawn,
so ``setup_s`` counts interpreter start-up. The last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def registry_hash() -> str:
    """Digest of the program's deterministic metrics registry."""
    from repro import telemetry

    blob = json.dumps(
        telemetry.global_registry().snapshot(), sort_keys=True, default=repr
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.glob("*.pkl")) if path.is_dir() else 0


def cells_payload(specs: list, results: list) -> list:
    import workloads

    return [
        [workloads.cell_name(spec), result.wall_s, workloads.cell_digest(result)]
        + ([workloads.conserved(result)] if hasattr(result, "summary") else [])
        for spec, result in zip(specs, results)
    ]


#: ``run()`` makes the timed call; ``collect(raw)`` returns
#: ``(specs, results, simulated results)`` from its return value.
Prepared = tuple[Callable[[], Any], Callable[[Any], tuple[list, list, dict]]]


def prepare(
    workload: str, size: str, seed: int, cache_dir: Path, jobs: int
) -> Prepared:
    """Set a workload up: inputs and objects, everything but the timed call."""
    import workloads
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache
    from repro.experiments.common import geometric_mean

    if workload == "fig9-sweep":
        specs = workloads.fig9_specs(size, seed)
        cache = ResultCache(directory=cache_dir)

        def collect(results: list) -> tuple[list, list, dict]:
            ipc = geometric_mean([r.ipc for r in results])
            return specs, results, {"ipc_geomean": ipc, "availability": 1.0}

        return lambda: runner.run_cells(specs, jobs=jobs, cache=cache), collect

    if workload == "fault-campaign":
        from repro.faults import campaign

        config = workloads.campaign_config(size, seed)
        specs = workloads.campaign_specs(config)
        runner.configure(jobs=jobs, use_cache=True, cache_dir=str(cache_dir))

        def collect_campaign(result: Any) -> tuple[list, list, dict]:
            results = runner.run_cells(specs, jobs=1, cache=None)
            batch = runner.last_batch()
            if batch is None or batch.memo_hits != len(specs):
                raise RuntimeError("campaign_specs no longer match run_campaign")
            return specs, results, {
                "ipc_geomean": geometric_mean([r.ipc for r in results]),
                "availability": min(p.availability for p in result.points),
            }

        return lambda: campaign.run_campaign(config), collect_campaign

    spec = workloads.serve_spec(size, seed)
    cache = ResultCache(directory=cache_dir)

    def collect_serve(results: list) -> tuple[list, list, dict]:
        result = results[0]
        return [spec], results, {
            "availability": result.availability,
            "slo_p99_cycles": result.quantiles["p99"],
        }

    return lambda: runner.run_cells([spec], jobs=jobs, cache=cache), collect_serve


def work_count(workload: str, results: list) -> int:
    """Simulated L2 accesses completed: trace accesses, or served requests."""
    if workload == "serve-overload":
        return sum(r.completed for r in results)
    return sum(r.accesses for r in results)


def timed_run(args: argparse.Namespace, jobs: int) -> dict:
    """Set up, then run once; shared by ``iter`` and ``record``."""
    from repro.experiments import runner

    run, collect = prepare(
        args.workload, args.size, args.seed, args.work / "cache", jobs
    )
    setup_s = time.monotonic() - args.launch
    started = time.perf_counter()
    raw = run()
    wall_s = time.perf_counter() - started
    batch = runner.last_batch()
    registry = registry_hash()
    specs, results, sim = collect(raw)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work": work_count(args.workload, results),
        "cells": cells_payload(specs, results),
        "batch": batch.payload() if batch else None,
        "jobs": jobs,
        "registry": registry,
        "sim": sim,
    }


def mode_setup(args: argparse.Namespace) -> dict:
    import repro.cli  # noqa: F401 -- the user's import

    prepare(args.workload, args.size, args.seed, args.work / "cache", 1)
    return {"setup_s": time.monotonic() - args.launch}


def mode_iter(args: argparse.Namespace) -> dict:
    import repro.cli  # noqa: F401 -- the user's import
    import workloads

    out = timed_run(args, workloads.JOBS[args.workload])
    out["rss_mb"] = peak_rss_mb()
    return out


def check_cells(args: argparse.Namespace) -> tuple[dict, list]:
    """Untimed companion cells; returns (report, specs a replay re-reads)."""
    import workloads
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache

    out: dict[str, Any] = {"cells": []}
    if args.workload == "fig9-sweep":
        specs = workloads.fig9_specs(args.size, args.seed)
        started = time.perf_counter()
        serial = runner.run_cells(
            specs, jobs=1, cache=ResultCache(directory=args.work / "serial")
        )
        out["serial_wall_s"] = time.perf_counter() - started
        out["registry"] = registry_hash()
        out["cells"] += cells_payload(specs, serial)
        out["serial"] = serial
        return out, specs
    if args.workload == "fault-campaign":
        config = workloads.campaign_config(args.size, args.seed)
        pristine = workloads.pristine_specs(config)
        results = runner.run_cells(pristine, jobs=1, cache=None)
        out["cells"] += cells_payload(pristine, results)
        return out, workloads.campaign_specs(config)
    shorts = [
        workloads.serve_spec(args.size, args.seed, core=core, short=True)
        for core in ("object", "array")
    ]
    out["cells"] += cells_payload(shorts, runner.run_cells(shorts, jobs=1, cache=None))
    return out, [workloads.serve_spec(args.size, args.seed)]


def mode_check(args: argparse.Namespace) -> dict:
    import repro.cli  # noqa: F401
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache, code_fingerprint

    out, replay_specs = check_cells(args)
    serial = out.pop("serial", None)

    runner.reset_memo()
    cache = ResultCache(directory=args.replay)
    get = cache.get
    get_s = 0.0

    def timed_get(key: tuple) -> Any:
        nonlocal get_s
        started = time.perf_counter()
        try:
            return get(key)
        finally:
            get_s += time.perf_counter() - started

    cache.get = timed_get  # type: ignore[method-assign]
    replayed = runner.run_cells(replay_specs, jobs=1, cache=cache)
    batch = runner.last_batch()
    out["replay"] = cells_payload(replay_specs, replayed)
    out["replay_hits"] = batch.cache_hits if batch else 0
    out["get_s"] = get_s
    if serial is not None:
        out["serial_equals_replay"] = serial == replayed

    def version(module: str) -> str | None:
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    out["host"] = {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "code_fingerprint": code_fingerprint(),
    }
    return out


def mode_traced(args: argparse.Namespace) -> dict:
    import tracing

    recorder = tracing.Recorder()
    with recorder.span("startup.import"):
        with recorder.span("startup.networkx_import"):
            import networkx  # noqa: F401
        import repro.cli  # noqa: F401
    import workloads
    from repro import telemetry
    from repro.experiments.cache import code_fingerprint

    with recorder.span("startup.fingerprint"):
        code_fingerprint()
    tracing.install(recorder, workloads.cell_name)
    run, collect = prepare(
        args.workload, args.size, args.seed, args.work / "cache", 1
    )
    started = time.perf_counter()
    raw = run()
    wall_s = time.perf_counter() - started
    registry = registry_hash()
    snapshot_keys = len(telemetry.global_registry().snapshot())
    specs, results, sim = collect(raw)

    total, counts = recorder.total, recorder.counts
    accesses = counts["core.accesses"]
    steps = counts["noc.steps"]

    def summed(key: str) -> int:
        return sum(workloads.counter(r, key) for r in results)

    layers = {
        "startup.import_s": total("startup.import"),
        "startup.networkx_import_s": total("startup.networkx_import"),
        "startup.fingerprint_s": total("startup.fingerprint"),
        "workloads.tracegen_s": total("workloads.generate_with_warmup"),
        "workloads.trace_accesses": counts["workloads.trace_accesses"],
        "cache.put_s": total("cache.put"),
        "cache.bytes_written": dir_bytes(args.work / "cache"),
        "core.build_s": total("core.build"),
        "core.run_s": total("core.run"),
        "core.accesses": accesses,
        "core.host_us_per_access": (
            total("core.run") / accesses * 1e6 if accesses else 0.0
        ),
        "faults.geometry_build_s": total("faults.geometry_build"),
        "faults.verify_s": total("faults.verify_degraded"),
        "faults.cdg_s": total("faults.is_deadlock_free"),
        "faults.route_paths": counts["faults.route_paths"],
        "faults.retries": summed("faults.retries"),
        "faults.rerouted_packets": summed("faults.rerouted_packets"),
        "stream.arrivals_s": total("stream.generate_arrivals"),
        "stream.requests_offered": counts["stream.requests_offered"],
        "stream.run_s": total("stream.run"),
        "stream.publish_s": total("stream.publish_metrics"),
        "stream.self_s": total("stream.run") - total("noc.step"),
        "noc.step_s": total("noc.step"),
        "noc.steps": steps,
        "noc.host_us_per_cycle": total("noc.step") / steps * 1e6 if steps else 0.0,
        "noc.flits_delivered": summed("noc.router.flits_ejected"),
        "telemetry.merge_s": total("telemetry.merge_run"),
        "telemetry.snapshot_keys": snapshot_keys,
        "telemetry.result_bytes": statistics.median(
            len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in results
        ),
    }
    self_times = recorder.self_times()
    stem = args.work / "traced"
    Path(f"{stem}.trace.json").write_text(
        json.dumps(recorder.chrome_trace()), encoding="utf-8"
    )
    Path(f"{stem}.selftime.txt").write_text(
        tracing.self_time_table(self_times) + "\n", encoding="utf-8"
    )
    return {
        "wall_s": wall_s,
        "cells": cells_payload(specs, results),
        "registry": registry,
        "sim": sim,
        "layers": layers,
        "self_times": self_times,
        "spans": len(recorder.spans),
    }


def mode_record(args: argparse.Namespace) -> dict:
    """Digests of every cell any mode produces, for one input variant."""
    import repro.cli  # noqa: F401

    run = timed_run(args, 1)
    check, _ = check_cells(args)
    return {name: digest for name, _, digest, *_ in run["cells"] + check["cells"]}


MODES = {
    "setup": mode_setup,
    "iter": mode_iter,
    "check": mode_check,
    "traced": mode_traced,
    "record": mode_record,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, default=None)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--replay", type=Path, default=None)
    args = parser.parse_args()
    if args.launch is None:
        args.launch = time.monotonic()
    args.work.mkdir(parents=True, exist_ok=True)
    print(json.dumps(MODES[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
