"""Self-tests of the benchmark: tiny workloads, span arithmetic, unpatching.

Run with ``python3 -m pytest -q bench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import run, tracing, workloads  # noqa: E402
from qubitkit import sim  # noqa: E402
from qubitkit.algorithms import bb84  # noqa: E402

TINY = [
    workloads.BernsteinVazirani(bits=4),
    workloads.QrandHistogram(qubits=4, shots=2000),
    workloads.Bb84Heatmap(lengths=[16, 64], densities=[0, 0.5, 1.0], repeats=2),
]


@pytest.fixture(scope="module")
def ctx():
    return run.Context()


def _run_tiny(workload, ctx, seed):
    tally = run.Tally()
    results = [tally.op(workload, ctx, workload.inputs(seed, i), run._wall_s) for i in range(2)]
    return tally, [checked for _, checked in results]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_workload_passes_its_checks_with_equal_digests(workload, ctx):
    tally, first = _run_tiny(workload, ctx, seed=5)
    assert (tally.attempted, tally.failed) == (2, 0)
    assert all(checked.work > 0 for checked in first)
    _, second = _run_tiny(workload, ctx, seed=5)
    assert [workloads.digest(c) for c in first] == [workloads.digest(c) for c in second]


def test_checks_catch_wrong_outputs(ctx):
    bv, qrand, heatmap = TINY
    key, shot_seed = bv.inputs(1, 0)
    wrong = bv.run(ctx, ("0" * len(key), shot_seed))
    assert bv.check((key, shot_seed), wrong).problems
    skewed = qrand.run(ctx, 3)
    skewed.counts.counts = {"0000": qrand.shots}
    assert qrand.check(3, skewed).problems

    cells = [cell for cell in heatmap.inputs(1, 0) if cell[1] == 0][:1]
    (trace,) = heatmap.run(ctx, cells)
    assert not heatmap.check(cells, [trace]).problems
    flipped = list(trace.receiver_bits)
    flipped[trace.sifted_positions[0]] ^= 1
    for broken in (
        dataclasses.replace(trace, receiver_bits=tuple(flipped)),
        dataclasses.replace(trace, verdict=bb84.ABORTED),
    ):
        assert heatmap.check(cells, [broken]).problems


def test_self_time_subtracts_the_interval_children_cover():
    spans = [
        (2, 1, "child-a", 1.0, 3.0, 0),
        (3, 1, "child-b", 2.0, 4.0, 0),  # overlaps child-a by 1.0
        (5, 4, "grandchild", 5.5, 5.7, 0),
        (4, 1, "child-c", 5.0, 6.0, 0),
        (1, 0, "root", 0.0, 10.0, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[4] == pytest.approx(0.8)
    assert selfs[2] == selfs[3] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(0.2)


def test_traced_run_records_layers_and_removes_every_wrapper(ctx):
    bv, _, heatmap = TINY
    originals = (sim.apply_gate, bb84.apply_gate, bb84.sample_measurement, bb84.run_exchange)
    descriptors = list(ctx.descriptors.values())
    tracer = tracing.Tracer()
    with tracing.patched(tracer, tracing.layer_targets(descriptors)):
        assert bb84.apply_gate is sim.apply_gate is not originals[0]
        bv.run(ctx, bv.inputs(1, 0))
        heatmap.run(ctx, heatmap.inputs(1, 0))
    names = {span[2] for span in tracer.take()}
    assert {"framework.run_algorithm", "framework.build", "sim.run", "sim.apply_gate.CNOT"} <= names
    assert {"bb84.intercept", "bb84.measure_in_axis", "sim.sample_measurement"} <= names
    assert tracing.leftover_wrappers(descriptors) == []
    assert (sim.apply_gate, bb84.apply_gate, bb84.sample_measurement, bb84.run_exchange) == originals


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bv-20", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
