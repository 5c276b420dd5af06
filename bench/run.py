"""qubitkit benchmark: the paper's three demonstrations as timed workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload bv-20 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each op starts after the previous
one returns. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops (see ``tracing.py``) and reports the
per-layer metrics. A readable report comes first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Failed output checks count into ``failed``
and never stop the run. All times are wall times from ``time.perf_counter``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DIGEST_SEED = 0  # the untimed warm-up op runs on this seed's inputs
MIN_OPS = 3
SETUP_REPEATS = 9

# Fresh interpreter to ready: import qubitkit and build both registries.
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, {src!r}); "
    "from qubitkit.backends import default_registry; "
    "from qubitkit.algorithms import default_algorithms; "
    "default_registry(); default_algorithms()"
)

END_TO_END = {
    "op_p50_s": "s",
    "work_per_s": "1/s",
    "peak_mem_mb": "MB",
    "setup_s": "s",
}


class Context:
    """The registries every op runs against, built once per process."""

    def __init__(self):
        from qubitkit.algorithms import default_algorithms
        from qubitkit.backends import default_registry

        self.backends = default_registry()
        algorithms = default_algorithms()
        self.descriptors = {name: algorithms.get(name) for name, _ in algorithms.list_algorithms()}


def _wall_s(run):
    """Wall seconds of one call of ``run``, and its output."""
    start = time.perf_counter()
    output = run()
    return time.perf_counter() - start, output


def _peak_bytes(run):
    """Peak bytes allocated while ``run`` runs, above the level before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        output = run()
        return tracemalloc.get_traced_memory()[1] - base, output
    finally:
        tracemalloc.stop()


class Tally:
    """Counts ops attempted and failed; a failure is reported, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, workload, ctx, inputs, measure):
        """(measured value, Checked), or (None, None) if the op raised."""
        self.attempted += 1
        try:
            value, output = measure(lambda: workload.run(ctx, inputs))
            checked = workload.check(inputs, output)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, None
        if checked.problems:
            self.failed += 1
            print(f"{workload.name}: check failed: {'; '.join(checked.problems)}", file=sys.stderr)
        return value, checked


def timed_pass(workload, ctx, tally, seed, seconds):
    """Closed loop for ``seconds`` (at least MIN_OPS ops).

    Returns the ops' wall times, the work they did and the next op index.
    """
    times, work = [], 0.0
    index = 0
    deadline = time.perf_counter() + seconds
    while index < MIN_OPS or time.perf_counter() < deadline:
        elapsed, checked = tally.op(workload, ctx, workload.inputs(seed, index), _wall_s)
        index += 1
        if checked is not None:
            times.append(elapsed)
            work += checked.work
    return times, work, index


def traced_pass(workload, ctx, tally, seed, seconds):
    """Closed loop for ``seconds`` that traces every second op.

    Untraced and traced ops alternate, so drift in the host's speed hits
    both alike. Returns the untraced and the traced ops' wall times, the
    LayerProfile of the traced ops and the spans of the first one.
    """
    from bench import tracing

    descriptors = list(ctx.descriptors.values())
    targets = tracing.layer_targets(descriptors)
    tracer, profile, kept = tracing.Tracer(), tracing.LayerProfile(), []
    times = ([], [])
    index = 0
    deadline = time.perf_counter() + seconds
    while index < 2 * MIN_OPS or time.perf_counter() < deadline:
        traced = index % 2
        with tracing.patched(tracer, targets) if traced else nullcontext():
            elapsed, checked = tally.op(workload, ctx, workload.inputs(seed, index), _wall_s)
        spans = tracer.take()
        index += 1
        if checked is not None:
            times[traced].append(elapsed)
            if traced:
                kept = kept or spans
                profile.add_op(spans, checked.stats)
    leftover = tracing.leftover_wrappers(descriptors)
    if leftover:
        raise RuntimeError(f"traced run left wrappers behind: {leftover}")
    return times[0], times[1], profile, kept


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters getting ready."""
    command = [sys.executable, "-c", SETUP_SNIPPET.format(src=str(SRC))]
    subprocess.run(command, cwd=ROOT, check=True, timeout=120)  # warm-up
    return [
        _wall_s(lambda: subprocess.run(command, cwd=ROOT, check=True, timeout=120))[0]
        for _ in range(SETUP_REPEATS)
    ]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _digest_line(workload, checked) -> str:
    from bench.workloads import digest

    if checked is None:
        return "  digest        unavailable (warm-up op failed)"
    value = digest(checked)
    recorded = json.loads(DIGESTS.read_text()).get(workload.name) if DIGESTS.exists() else None
    verdict = (
        "matches bench/digests.json"
        if value == recorded
        else f"differs from bench/digests.json ({recorded}): outputs or seed stream changed"
    )
    return f"  digest        {value} at seed {DIGEST_SEED} ({verdict})"


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    from bench import machine, tracing

    setup_times = None if trace else measure_setup()
    ctx = Context()
    tally = Tally()
    _, warm = tally.op(workload, ctx, workload.inputs(DIGEST_SEED, 0), _wall_s)
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}")
    print(_digest_line(workload, warm))

    if not trace:
        times, work, index = timed_pass(workload, ctx, tally, seed, seconds)
        peak, _ = tally.op(workload, ctx, workload.inputs(seed, index), _peak_bytes)
        if not times or peak is None:
            raise RuntimeError("no op completed")
        metrics = {
            "op_p50_s": statistics.median(times),
            "work_per_s": work / sum(times),
            "peak_mem_mb": peak / 1e6,
            "setup_s": statistics.median(setup_times),
        }
        q1, q3 = _quartiles(times)
        print(f"  op_p50_s      {metrics['op_p50_s']:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(times)} ops)")
        print(f"  work_per_s    {metrics['work_per_s']:.4g} {workload.work_unit}/s")
        print(f"  peak_mem_mb   {metrics['peak_mem_mb']:.2f} MB  (tracemalloc, one op)")
        print(f"  failed_frac   {tally.failed / tally.attempted:.4g}  ({tally.failed} of {tally.attempted} ops)")
        print(f"  setup_s       {metrics['setup_s']:.4f} s  (median of {len(setup_times)} fresh interpreters)")
        print(f"  machine       {json.dumps(machine.record(bandwidth=False))}")
        units = END_TO_END
    else:
        times, traced_times, profile, kept = traced_pass(workload, ctx, tally, seed, seconds)
        if not times or not traced_times:
            raise RuntimeError("no op completed")
        metrics = profile.metrics(tracing.overhead_frac(times, traced_times))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}.csv"
        tracing.write_spans(spans_path, kept)
        record = machine.record(bandwidth=True)
        for name, value in metrics.items():
            print(f"  {name:<36} {value:.6g}")
        print(f"  traced ops {profile.ops}, untraced ops {len(times)}; spans of one op in {spans_path.relative_to(ROOT)}")
        print(f"  machine       {json.dumps(record)}")
        print(
            "  note          gbps_computed counts 2*16*2^n bytes per gate call; a 21-qubit "
            f"state is {16 * 2**21 / 2**20:.0f} MiB and fits in the {record['llc_mib']} MiB LLC, "
            "so it is not a ratio to the DRAM copy rate above"
        )
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}

    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qubitkit" / "__init__.py").is_file():
        print(f"bench: no qubitkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import qubitkit
    from bench.workloads import WORKLOADS

    if not Path(qubitkit.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported qubitkit from {qubitkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
