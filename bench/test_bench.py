"""Tests of the benchmark itself: seeding, metric names, tracing and checks."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_declared_workloads_are_the_runnable_ones():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fingerprint_follows_the_seed(workload):
    workloads.ensure_latsize()
    first = workloads.fingerprint(workload, 7)
    assert workloads.fingerprint(workload, 7) == first
    assert workloads.fingerprint(workload, 8) != first


def _run(trace: int, workload: str) -> list[dict]:
    """The JSON lines a short run prints; the result is the last."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


@pytest.mark.parametrize(
    "trace, workload, section",
    [(0, "curves_cli", "end_to_end"), (1, "random_peel", "per_layer")],
)
def test_printed_metrics_are_the_declared_ones(trace, workload, section):
    lines = _run(trace, workload)
    result = lines[-1]
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    # run.py refuses a zero end-to-end metric and lists zero per-layer ones.
    zero = sorted(k for k, v in result["metrics"].items() if v["value"] == 0)
    listed = [line["zero_metrics"] for line in lines if "zero_metrics" in line]
    assert listed == ([zero] if zero else [])
    if trace == 0:
        assert zero == []


def test_traced_run_restores_every_binding():
    workloads.ensure_latsize()
    import latsize.cli  # noqa: F401

    def bindings():
        return {(m.__name__, k): v for m in tracing._modules() for k, v in vars(m).items() if callable(v)}

    before = bindings()
    res = workloads.run_phase("random_peel", 5, "traced", limit=1)
    assert bindings() == before
    layers = res["layers"]
    assert layers["interior.interior_hull.calls"] >= 1
    assert layers["size.lattice_size_sigma.self_s"] > 0
    assert layers["cli.run_command.self_s"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_checks(workload):
    limit = workloads.timed_items(workload, 0.05)
    res = workloads.run_phase(workload, 5, "timed", seconds=60, limit=limit)
    assert res["n"] == limit and "incomplete" not in res
    assert res["attempted"] >= 1
    assert res["failures"] == []
    assert {op: len(v) for op, v in res["scaled_ns"].items()} == {
        op: len(v) for op, v in res["timings_ns"].items()
    }


def test_timed_run_past_its_cap_is_incomplete():
    res = workloads.run_phase("census_sheared", 5, "timed", seconds=1e-9, limit=10)
    assert res["incomplete"] and res["n"] < 10


def test_speed_gauge_scales_each_batch_by_the_references_around_it():
    gauge = workloads.SpeedGauge()
    ref = workloads.REF_NS
    gauge.refs = [ref, 3 * ref, ref]
    gauge.batches = [[("op", 1000), ("op", 2000)], [("op", 3000)]]
    assert gauge.scaled(["op"]) == {"op": [500.0, 1000.0, 1500.0]}
