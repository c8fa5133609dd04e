#!/usr/bin/env python3
"""The repository benchmark: host speed of the cache-network simulators.

    python3 perfbench/run.py --workload fig9-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``fig9-sweep``,
``fault-campaign`` and ``serve-overload``. Every run step is a fresh
interpreter (``worker.py``) so set-up time includes start-up and imports.

``--trace 0`` repeats untraced runs of the workload for ``--seconds``
seconds and reports the end-to-end metrics as medians over the repeats,
host times scaled to the reference host (see ``calibrate``).
``--trace 1`` makes one untraced run, one traced run and reports the
per-layer metrics, the tracing overhead, a Chrome trace (Perfetto) and a
self-time table under ``.perfbench/out/``.

Both modes check correctness: every cell's simulated-output digest must
equal ``reference.json``; the serial run, the ``jobs=2`` run and the
warm-cache replay must agree; the fault campaign's zero-rate cells must
equal the pristine cells; the service must conserve requests and its
object and array cores must agree; and the program's deterministic
metrics registry must read the same with and without tracing. Each cell
and each cross-check is one operation; a mismatch is a failed one, and
the exit code is then 1. The last stdout line is the JSON result.

``--record`` regenerates ``reference.json`` from the current tree.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: A child step that takes longer than this is killed (the run fails).
CHILD_TIMEOUT_S = 170
#: ``setup_s`` is the median of at least this many fresh launches.
MIN_SETUP_SAMPLES = 5
#: Seconds ``calibrate()`` takes on the reference host; end-to-end times
#: are reported as if measured there.
CALIBRATION_REF_S = 0.40


class StepError(RuntimeError):
    pass


def calibrate(steps: int = 400_000) -> float:
    """Seconds a fixed pure-Python event loop takes right now.

    A shared host's speed drifts by 20-30% over minutes as neighbours come
    and go, and no repeat count inside one run averages that out. Each
    timed step is therefore bracketed by this loop, and its times are
    scaled by ``CALIBRATION_REF_S`` over the mean of the two loop times.
    The loop works the interpreter the way the simulators do: a heap of
    events, dict lookups and list updates.
    """
    rng = random.Random(12345)
    busy = [0] * 64
    links = [{j: (i * 7 + j) % 64 for j in range(4)} for i in range(64)]
    events = [(rng.randrange(100), i, i % 64) for i in range(256)]
    heapq.heapify(events)
    started = time.perf_counter()
    for n in range(steps):
        at, seq, where = heapq.heappop(events)
        start = max(at, busy[where])
        busy[where] = start + 3
        hop = links[where][seq & 3]
        heapq.heappush(events, (start + 1 + (seq * 31 + n) % 17, seq + 256, hop))
    return time.perf_counter() - started


def step(mode: str, workload: str, size: str, seed: int, work: Path, *extra: str) -> Any:
    """Run one ``worker.py`` step and return its JSON result."""
    command = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", workload, "--size", size, "--seed", str(seed),
        "--work", str(work), *extra,
        "--launch", repr(time.monotonic()),  # stamped as late as possible
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise StepError(f"{mode} step of {workload} timed out") from None
    if proc.returncode != 0:
        raise StepError(f"{mode} step of {workload} failed:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


class Gate:
    """Counts operations attempted and failed; remembers why."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def cells(self, cells: list, where: str) -> dict[str, str]:
        """Each cell is an operation: digest == reference (and conserved)."""
        digests = {}
        for name, _, digest, *conserved in cells:
            expected = self.reference.get(name)
            self.check(
                digest == expected and all(conserved),
                f"{where} {name}: digest {digest} != reference {expected}"
                if digest != expected
                else f"{where} {name}: requests not conserved",
            )
            digests[name] = digest
        return digests

    def workload_checks(self, workload: str, check: dict, runs: list[dict]) -> None:
        """Cross-checks beyond the per-cell reference digests."""
        self.cells(check["cells"], "check")
        replayed = self.cells(check["replay"], "replay")
        self.check(
            check["replay_hits"] == len(check["replay"]),
            f"replay: {check['replay_hits']} of {len(check['replay'])} cells "
            "came from the warm cache",
        )
        produced = {name: digest for name, _, digest, *_ in runs[-1]["cells"]}
        self.check(
            replayed == produced, "replay digests differ from the timed run's"
        )
        if workload == "fig9-sweep":
            self.check(
                check["serial_equals_replay"],
                "serial results differ from the jobs=2 results replayed",
            )
        elif workload == "fault-campaign":
            for name, _, digest, *_ in check["cells"]:
                zero = produced.get(f"{name}/rate=0.0")
                self.check(
                    digest == zero,
                    f"pristine {name} differs from its zero-rate campaign cell",
                )
        else:
            digests = [digest for _, _, digest, *_ in check["cells"]]
            self.check(
                len(set(digests)) == 1,
                "object and array cores serve the short cell differently",
            )
        hashes = {run["registry"] for run in runs}
        if "registry" in check:
            hashes.add(check["registry"])
        self.check(
            len(hashes) == 1,
            f"metrics registry differs between runs: {sorted(hashes)}",
        )


def load_reference(path: Path, size: str, workload: str, seed: int) -> dict[str, str]:
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get(size, {}).get(workload, {}).get(str(seed), {})


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cell_walls(runs: list[dict]) -> dict[str, list[float]]:
    """Each cell's host seconds, one per run."""
    walls: dict[str, list[float]] = {}
    for run in runs:
        for name, wall, *_ in run["cells"]:
            walls.setdefault(name, []).append(wall)
    return walls


def scaled(run: dict, factor: float) -> dict:
    """*run* with its host times multiplied by *factor*."""
    cells = [[name, wall * factor, *rest] for name, wall, *rest in run["cells"]]
    return dict(run, wall_s=run["wall_s"] * factor, cells=cells)


def end_to_end(runs: list[dict], setups: list[float]) -> dict[str, float]:
    walls = cell_walls(runs)
    return {
        "setup_s": median(setups),
        "sim_accesses_per_s": median([run["work"] / run["wall_s"] for run in runs]),
        "cell_s_p50": median([w for samples in walls.values() for w in samples]),
        # The slowest cell by its median: a max over single runs would
        # mostly measure which run met the host's slowest moment.
        "cell_s_max": max(median(samples) for samples in walls.values()),
        "peak_rss_mb": median([run["rss_mb"] for run in runs]),
    }


def engine_layer(batch: dict, jobs: int) -> dict[str, float]:
    """Engine fan-out numbers from the program's own ``BatchReport``."""
    work = sum(cell["wall_s"] or 0.0 for cell in batch["cells"])
    wall = batch["wall_s"]
    return {
        "engine.batch_s": wall,
        "engine.cell_work_s": work,
        "engine.cells_computed": batch["computed"],
        "engine.overhead_s": wall - work / jobs,
        "engine.parallel_efficiency": work / (wall * jobs),
    }


def traced_report(workload: str, run_step: Any, gate: Gate, work: Path) -> dict:
    """One untraced run, the check, one traced run: per-layer metrics."""
    untraced = run_step("iter", "iter0")
    check = run_step("check", "check", "--replay", str(work / "iter0" / "cache"))
    traced = run_step("traced", "traced")
    gate.cells(untraced["cells"], "untraced")
    gate.cells(traced["cells"], "traced")
    gate.workload_checks(workload, check, [untraced, traced])
    # fig9-sweep is traced serially, so its untraced twin is the check's
    # serial run; the others trace their usual jobs=1 run.
    untraced_wall = check.get("serial_wall_s", untraced["wall_s"])
    sim = traced["sim"]
    layers = dict(traced["layers"])
    layers.update(engine_layer(untraced["batch"], untraced["jobs"]))
    layers.update({
        "cache.get_s": check["get_s"],
        "sim.ipc_geomean": sim.get("ipc_geomean", 0.0),
        "sim.availability": sim["availability"],
        "sim.slo_p99_cycles": sim.get("slo_p99_cycles", 0.0),
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
        "trace.spans": traced["spans"],
    })
    return {"metrics": layers, "self_times": traced["self_times"],
            "traced_wall_s": traced["wall_s"], "untraced_wall_s": untraced_wall,
            "host": check["host"]}


def timed_report(
    workload: str, run_step: Any, gate: Gate, work: Path, seconds: float
) -> dict:
    """Untraced runs for *seconds*, then the check: end-to-end metrics."""
    runs: list[dict] = []
    loops = [calibrate()]
    started = time.monotonic()
    while not runs or time.monotonic() - started < seconds:
        runs.append(run_step("iter", f"iter{len(runs)}"))
        loops.append(calibrate())
        gate.cells(runs[-1]["cells"], f"run {len(runs)}")
    setups = [run["setup_s"] for run in runs]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_step("setup", "setup")["setup_s"])
        loops.append(calibrate())
    last = work / f"iter{len(runs) - 1}" / "cache"
    check = run_step("check", "check", "--replay", str(last))
    gate.workload_checks(workload, check, runs)
    factors = [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(loops, loops[1:])]
    return {
        "metrics": end_to_end(
            [scaled(run, k) for run, k in zip(runs, factors)],
            [setup * k for setup, k in zip(setups, factors)],
        ),
        "host_metrics": end_to_end(runs, setups),
        "calibration_s": loops,
        "run_wall_s": [run["wall_s"] for run in runs],
        "cell_wall_s": cell_walls(runs),
        "setup_samples_s": setups,
        "cell_samples": sum(len(run["cells"]) for run in runs),
        "sim": runs[-1]["sim"],
        "host": check["host"],
    }


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    seed = workloads.input_seed(args.seed, args.size)
    gate = Gate(load_reference(args.reference, args.size, workload, seed))
    work = OUT / "work" / f"{workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)

    def run_step(mode: str, name: str, *extra: str) -> Any:
        return step(mode, workload, args.size, seed, work / name, *extra)

    report: dict[str, Any] = {"workload": workload, "seed": args.seed,
                              "input_seed": seed, "size": args.size}
    try:
        if args.trace:
            report.update(traced_report(workload, run_step, gate, work))
            stem = OUT / "out" / f"{workload}-seed{args.seed}"
            stem.parent.mkdir(parents=True, exist_ok=True)
            report["files"] = []
            for suffix in (".trace.json", ".selftime.txt"):
                target = f"{stem}{suffix}"
                shutil.copyfile(work / "traced" / f"traced{suffix}", target)
                report["files"].append(os.path.relpath(target, ROOT))
        else:
            report.update(timed_report(workload, run_step, gate, work, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["host"]["git_commit"] = git_commit()
    report["attempted"] = gate.attempted
    report["failures"] = gate.failures
    return report


def render(report: dict, units: dict[str, str]) -> str:
    lines = [
        f"== {report['workload']} (seed {report['seed']}, input variant "
        f"{report['input_seed']}, size {report['size']})",
        "host: " + json.dumps(report["host"], sort_keys=True),
    ]
    if "run_wall_s" in report:
        lines.append(
            f"samples: {len(report['run_wall_s'])} runs, "
            f"{report['cell_samples']} cells, "
            f"{len(report['setup_samples_s'])} set-ups"
        )
    for name, value in report["metrics"].items():
        lines.append(f"  {name:<32} {value:>16.6g} {units.get(name, '')}")
    if "sim" in report:
        # Simulated results (held exactly by the gate); on the service,
        # the throughput also goes by its serving name.
        sim = report["sim"]
        extra = {"sim_ipc_geomean": (sim.get("ipc_geomean"), "IPC"),
                 "sim_availability": (sim.get("availability"), "ratio"),
                 "sim_slo_p99_cycles": (sim.get("slo_p99_cycles"), "cycles")}
        if report["workload"] == "serve-overload":
            extra["served_per_s"] = (
                report["metrics"]["sim_accesses_per_s"], "requests/s"
            )
        for name, (value, unit) in extra.items():
            if value is not None:
                lines.append(f"  {name:<32} {value:>16.6g} {unit}")
    if "host_metrics" in report:
        lines.append(
            f"as measured here (calibration loop {median(report['calibration_s']):.3f}"
            f" s, {CALIBRATION_REF_S:.3f} s on the reference host):"
        )
        for name, value in report["host_metrics"].items():
            lines.append(f"  {name:<32} {value:>16.6g} {units.get(name, '')}")
    if "self_times" in report:
        import tracing

        lines.append(tracing.self_time_table(report["self_times"]))
        lines.append("files: " + " ".join(report["files"]))
    for failure in report["failures"]:
        lines.append(f"FAILED: {failure}")
    lines.append(f"operations: {report['attempted']} attempted, "
                 f"{len(report['failures'])} failed")
    return "\n".join(lines)


def record(args: argparse.Namespace, names: list[str]) -> None:
    """Rewrite this size's entries of ``reference.json`` for *names*."""
    path = args.reference
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in names:
        variants = {}
        for seed in range(1, workloads.VARIANTS[args.size] + 1):
            work = OUT / "work" / f"record-{workload}-{seed}-{os.getpid()}"
            try:
                variants[str(seed)] = step("record", workload, args.size, seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"recorded {args.size} {workload} variant {seed}", file=sys.stderr)
        table.setdefault(args.size, {})[workload] = variants
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    parser.add_argument("--record", action="store_true",
                        help="regenerate the reference digests and exit")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        record(args, names)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}

    reports = []
    for workload in names:
        try:
            report = run_workload(args, workload)
        except StepError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        print(render(report, units))
        reports.append(report)
        results = OUT / "out" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")

    prefix = len(reports) > 1
    metrics = {
        (f"{report['workload']}.{name}" if prefix else name): {
            "value": report["metrics"][name], "unit": unit,
        }
        for report in reports
        for name, unit in units.items()
    }
    failed = sum(len(report["failures"]) for report in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
