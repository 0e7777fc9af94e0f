"""Smoke test: every workload once at a tiny size, passing every output check.

Run from the repository root with: python -m pytest perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"synth-semantic": 150, "synth-structural": 150, "limit-sparse": 200}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_checks_traced_and_untraced(name, tmp_path):
    spec = dict(workloads.WORKLOADS[name], n=TINY[name])
    res = workloads.run_loop(spec, 3, 0.0, True, tmp_path)
    assert res["failed"] == 0 and res["correct"], res["operations"]
    assert [op["traced"] for op in res["operations"]] == [False, True]
    assert [op["input"] for op in res["operations"]] == [0, 0]
    assert len(res["digests"][0]) == 1  # both operations produced identical output
    layers = res["layers"]
    assert layers["community.detect_calls"] >= 1
    if spec["kind"] == "synth":
        assert layers["gateway.chat_calls"] == 4 * workloads.ITERATIONS
        assert layers["gateway.repair_asks"] == 0
        assert 0 < layers["synthesis.accept_ratio"] < 1
        assert layers["perception.report_chars"] > 0
    else:
        assert layers["limiter.repair_s"] > 0 and layers["limiter.property_tensor_s"] > 0
        assert layers["analysis.principal_iterations"] >= 1


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_benchmark_metric(trace, kind, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "limit-sparse",
                        dict(workloads.WORKLOADS["limit-sparse"], n=TINY["limit-sparse"]))
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "limit-sparse", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "limit-sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
