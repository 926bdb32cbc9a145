"""Tiny-scale self-test of the serving benchmark.

Runs every workload at a few blocks per episode through the benchmark's
own command entry point and checks that each metric ``BENCHMARK.json``
names is emitted with its unit, then plants a shard kill mid-run and
checks that the output checks catch it.  Run with
``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(w: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(w, horizon=4 * w.block, utility_episodes=1)


@pytest.fixture
def tiny(monkeypatch):
    # The CPU and BLAS pinning would outlive the test in this process.
    monkeypatch.setattr(run, "_pin", lambda: None)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "MIN_CALLS", 1)
    monkeypatch.setattr(workloads, "MIN_PUBLISHES", 1)
    monkeypatch.setattr(
        workloads, "WORKLOADS", {n: _tiny(w) for n, w in workloads.WORKLOADS.items()}
    )


def _run(capsys, *argv) -> tuple[int, dict]:
    code = run.main(list(argv))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(tiny, capsys, name, trace):
    code, result = _run(
        capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)
    )
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_planted_shard_kill_fails_the_output_checks(tiny, capsys, monkeypatch):
    def kill_mid_run(front, block_index):
        if block_index == 1:
            front.kill_shard(0)

    measure = workloads.run_workload
    monkeypatch.setattr(
        workloads,
        "run_workload",
        lambda *args, **kwargs: measure(*args, fault=kill_mid_run, **kwargs),
    )
    code, result = _run(
        capsys, "--workload", "refresh-bound", "--seed", "3", "--seconds", "0", "--trace", "0"
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1

    clean = measure(workloads.WORKLOADS["refresh-bound"], 3, 0.0, False)
    faulty = measure(workloads.WORKLOADS["refresh-bound"], 3, 0.0, False, fault=kill_mid_run)
    assert clean["failed_frac"] == 0.0
    assert faulty["failed_frac"] > 0.0
    assert "all_points_ingested" in faulty["failed_checks"]
