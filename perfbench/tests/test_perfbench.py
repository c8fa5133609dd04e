"""The benchmark's own tests: smoke sizes, a failing gate, a bare checkout.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--size", "smoke", "--seconds", "1",
                 "--seed", "2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    table = proc.stdout.splitlines()
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]]
            and line.split()[-1] == metric["unit"]
            for line in table
        ), metric["name"]


def test_tampered_reference_digest_is_a_failed_operation(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    cells = reference["smoke"]["fig9-sweep"]["1"]
    cells["D/mcf"] = "0" * len(cells["D/mcf"])
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference), encoding="utf-8")

    proc = bench("--workload", "fig9-sweep", "--size", "smoke", "--seconds", "0",
                 "--trace", "0", "--reference", str(tampered))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    # One jobs=2 run (--seconds 0), the serial run and the replay.
    assert result["failed"] == 3
    assert "FAILED: run 1 D/mcf" in proc.stdout


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "serve-overload", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    recorder = tracing.Recorder()
    with recorder.span("engine.run_cells"):
        with recorder.span("core.run", cell="A/art"):
            with recorder.span("noc.step"):
                pass
    spans = {name: (start, end, parent, cell)
             for _, name, start, end, parent, cell in recorder.spans}
    assert spans["noc.step"][2] == 1 and spans["noc.step"][3] == "A/art"
    self_times = recorder.self_times()
    for name, (start, end, _, _) in spans.items():
        assert self_times[name] <= end - start
    assert sum(self_times.values()) == pytest.approx(
        spans["engine.run_cells"][1] - spans["engine.run_cells"][0]
    )
