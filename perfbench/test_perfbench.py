"""Self-test of the benchmark on tiny configs; it has no timing gates.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# a handful of requests per run, so every workload path runs in seconds
TINY = {
    "fig7_top": {"loads": [40], "repetitions": 1},
    "cold_cli_trace": {"loads": [8], "repetitions": 1},
}


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        run.PER_LAYER
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_reported_with_its_unit(name, trace, monkeypatch,
                                                capsys):
    workload = run.WORKLOADS[name]
    tiny = dataclasses.replace(workload, axes={**workload.axes, **TINY[name]})
    monkeypatch.setitem(run.WORKLOADS, name, tiny)
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "end_to_end" if trace == 0 else "per_layer"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines)
    assert "csv sha256" in text and "fail_ratio" in text
    if trace == 1:
        assert "--parallel 1" in text


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7_top",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
