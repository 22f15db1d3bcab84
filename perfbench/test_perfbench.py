"""Smoke-size self-test of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench``.
Every workload runs at a tiny size; the tests check that each completes
without a failed request, that a run reports exactly the metrics
``BENCHMARK.json`` declares, that a wrong answer reaches
``failed_ratio``, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import workloads  # noqa: E402  (needs the program on sys.path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = 0.02
SECONDS = 0.5


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_completes_at_tiny_size(name: str) -> None:
    record = run.run(name, seed=3, seconds=SECONDS, trace=False, scale=SCALE)
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["failures"]
    line = run.result_line(record)
    assert line["correct"] is True
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_metric(name: str) -> None:
    record = run.run(name, seed=4, seconds=SECONDS, trace=True, scale=SCALE)
    assert record["failed"] == 0, record["failures"]
    line = run.result_line(record)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared("per_layer")
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["trace.traced_ops"] >= 1
    assert metrics["trace.untraced_ops_per_s"] > 0
    if name == "clean-incomplete":
        # Traced blocks run both planners, with and without adaptivity.
        assert metrics["cleaning.greedy_ms"] > 0
        assert metrics["cleaning.dp_ms"] > 0
        assert metrics["cleaning.adaptive_rounds"] > 0


def test_benchmark_json_names_the_workloads() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert BENCHMARK["paths"] == ["perfbench"]


def test_wrong_answer_shows_in_failed_ratio(monkeypatch: pytest.MonkeyPatch) -> None:
    honest_setup = workloads.ServeComplete.setup

    def setup_with_wrong_answers(self: workloads.ServeComplete, index: int) -> float:
        elapsed = honest_setup(self, index)
        honest_query = self.service.query

        def wrong_query(sid: str, spec: workloads.QuerySpec) -> object:
            result = honest_query(sid, spec)
            result.payload["quality"] += 1e-6
            return result

        # Only the served instance lies; the gate's oracle is another one.
        self.service.query = wrong_query
        return elapsed

    monkeypatch.setattr(workloads.ServeComplete, "setup", setup_with_wrong_answers)
    record = run.run("serve-complete", seed=3, seconds=SECONDS, trace=False, scale=SCALE)
    assert record["failed"] > 0
    assert record["metrics"]["failed_ratio"]["value"] > 0
    assert run.result_line(record)["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path) -> None:
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-complete",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
