"""Outside-in tracing of qubitkit's layers for the traced benchmark run.

The program is not instrumented. :func:`patched` replaces the public
functions of each layer (module attributes, class methods and the
algorithm descriptors' ``build`` / ``interpret``) with wrappers that record
one span per call, and puts the originals back on exit, so the untimed and
untraced passes always run unpatched code. A function that other qubitkit
modules imported by name (``bb84`` imports ``apply_gate``, ``evolve`` and
``sample_measurement`` from ``sim``) is replaced under that name as well.

A span is ``(id, parent_id, name, start, end, note)``; ``parent_id`` 0 is
the root. Spans stay in memory; :class:`LayerProfile` folds one op's spans
into per-layer totals, and the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

# Marks a wrapper so a test can prove none is left behind.
WRAPPER_MARK = "_bench_span"

GATE_KINDS = ("H", "X", "CNOT")

# Spans that make up BB84's prepare step when called by run_exchange itself:
# the four ``backend.evolve(encode_qubit(value, axis))`` preparations.
_PREPARE = ("bb84.encode_qubit", "backends.evolve")

# (name, unit, better) of every per-layer metric, in report order. Times
# named ``*_s`` are seconds per op; ``*.calls`` are calls per op.
PER_LAYER = [
    *(
        entry
        for kind in GATE_KINDS
        for entry in (
            (f"sim.apply_gate.{kind}.call_ms", "ms", "lower"),
            (f"sim.apply_gate.{kind}.calls", "count", "lower"),
            (f"sim.apply_gate.{kind}.gbps_computed", "GB/s", "higher"),
        )
    ),
    ("sim.evolve.self_s", "s", "lower"),
    ("sim.run.sample_s", "s", "lower"),
    ("sim.sample_measurement.calls", "count", "lower"),
    ("sim.sample_measurement.call_us", "us", "lower"),
    ("framework.run_algorithm.self_s", "s", "lower"),
    ("framework.build_s", "s", "lower"),
    ("framework.interpret_s", "s", "lower"),
    ("backends.execute.self_s", "s", "lower"),
    ("bb84.run_exchange.self_s", "s", "lower"),
    ("bb84.prepare_s", "s", "lower"),
    ("backends.evolve.calls", "count", "lower"),
    ("bb84.intercept.calls", "count", "lower"),
    ("bb84.intercept.self_us", "us", "lower"),
    ("bb84.measure_in_axis.calls", "count", "lower"),
    ("bb84.measure_in_axis.self_us", "us", "lower"),
    ("bb84.sift_s", "s", "lower"),
    ("bb84.verify_s", "s", "lower"),
    ("bb84.transmitted", "count", "higher"),
    ("bb84.intercepted", "count", "lower"),
    ("bb84.sifted_frac", "ratio", "higher"),
    ("bb84.qber_sifted", "ratio", "lower"),
    ("bb84.abort_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Tracer:
    """Collects spans from the wrappers it makes; single-threaded."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1

    def wrap(self, fn, label):
        """Wrapper recording a span per call.

        ``label`` is a span name, or a callable taking the call's arguments
        and returning ``(name, note)``.
        """
        tracer, spans, stack = self, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, note = label(*args, **kwargs) if callable(label) else (label, 0)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, note))

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def take(self) -> list[tuple]:
        """Spans recorded since the last call, ordered by end time."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span_id, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def _qubitkit_modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "qubitkit"]


def _apply_gate_label(state, gate, *args, **kwargs):
    return f"sim.apply_gate.{gate.kind}", state.num_qubits


def layer_targets(descriptors) -> list[tuple[object, str, object]]:
    """(owner, attribute, label) for every traced boundary."""
    from qubitkit import backends, framework, sim
    from qubitkit.algorithms import bb84

    targets = [
        (sim, "apply_gate", _apply_gate_label),
        (sim, "evolve", "sim.evolve"),
        (sim, "run", "sim.run"),
        (sim, "sample_measurement", "sim.sample_measurement"),
        (backends.BackendRegistry, "execute", "backends.execute"),
        (backends.LocalStatevectorBackend, "evolve", "backends.evolve"),
        (framework, "run_algorithm", "framework.run_algorithm"),
    ]
    for name in ("run_exchange", "encode_qubit", "intercept", "measure_in_axis", "sift", "verify"):
        targets.append((bb84, name, f"bb84.{name}"))
    for descriptor in descriptors:
        targets.append((descriptor, "build", "framework.build"))
        targets.append((descriptor, "interpret", "framework.interpret"))
    return targets


@contextmanager
def patched(tracer: Tracer, targets):
    """Install wrappers for ``targets``; always restore the originals."""
    undo = []
    try:
        for owner, attr, label in targets:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(original, label)
            holders = [owner]
            if isinstance(owner, types.ModuleType):
                holders += [
                    m
                    for m in _qubitkit_modules()
                    if m is not owner and vars(m).get(attr) is original
                ]
            for holder in holders:
                undo.append((holder, attr, vars(holder)[attr]))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


def leftover_wrappers(descriptors) -> list[str]:
    """Names of traced boundaries still holding a wrapper (should be none)."""
    holders = [*_qubitkit_modules(), *descriptors]
    holders += [v for m in _qubitkit_modules() for v in vars(m).values() if isinstance(v, type)]
    return [
        f"{getattr(h, '__name__', type(h).__name__)}.{attr}"
        for h in holders
        for attr, value in list(vars(h).items())
        if hasattr(value, WRAPPER_MARK)
    ]


class LayerProfile:
    """Per-layer totals over the traced ops."""

    def __init__(self):
        self.ops = 0
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_total: Counter = Counter()
        self.gate_bytes: Counter = Counter()
        self.prepare = 0.0
        self.outputs: Counter = Counter()

    def add_op(self, spans, output_stats) -> None:
        selfs = self_times(spans)
        names = {span[0]: span[2] for span in spans}
        for span_id, parent, name, start, end, note in spans:
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_total[name] += selfs[span_id]
            if name.startswith("sim.apply_gate."):
                # One read and one write of 2^n complex128 amplitudes.
                self.gate_bytes[name] += 2 * 16 << note
            if name in _PREPARE and names.get(parent) == "bb84.run_exchange":
                self.prepare += duration
        self.outputs.update(output_stats)
        self.ops += 1

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        ops = max(self.ops, 1)

        def per_call(name, scale):
            return self.total[name] / self.calls[name] * scale if self.calls[name] else 0.0

        def self_per_call(name, scale):
            return self.self_total[name] / self.calls[name] * scale if self.calls[name] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for kind in GATE_KINDS:
            name = f"sim.apply_gate.{kind}"
            out[f"{name}.call_ms"] = per_call(name, 1e3)
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.gbps_computed"] = ratio(self.gate_bytes[name], self.total[name]) / 1e9
        stats = self.outputs
        out.update(
            {
                "sim.evolve.self_s": self.self_total["sim.evolve"] / ops,
                "sim.run.sample_s": self.self_total["sim.run"] / ops,
                "sim.sample_measurement.calls": self.calls["sim.sample_measurement"] / ops,
                "sim.sample_measurement.call_us": per_call("sim.sample_measurement", 1e6),
                "framework.run_algorithm.self_s": self.self_total["framework.run_algorithm"] / ops,
                "framework.build_s": self.total["framework.build"] / ops,
                "framework.interpret_s": self.total["framework.interpret"] / ops,
                "backends.execute.self_s": self.self_total["backends.execute"] / ops,
                "bb84.run_exchange.self_s": self.self_total["bb84.run_exchange"] / ops,
                "bb84.prepare_s": self.prepare / ops,
                "backends.evolve.calls": self.calls["backends.evolve"] / ops,
                "bb84.intercept.calls": self.calls["bb84.intercept"] / ops,
                "bb84.intercept.self_us": self_per_call("bb84.intercept", 1e6),
                "bb84.measure_in_axis.calls": self.calls["bb84.measure_in_axis"] / ops,
                "bb84.measure_in_axis.self_us": self_per_call("bb84.measure_in_axis", 1e6),
                "bb84.sift_s": self.total["bb84.sift"] / ops,
                "bb84.verify_s": self.total["bb84.verify"] / ops,
                "bb84.transmitted": stats["transmitted"] / ops,
                "bb84.intercepted": stats["intercepted"] / ops,
                "bb84.sifted_frac": ratio(stats["sifted"], stats["transmitted"]),
                "bb84.qber_sifted": ratio(stats["sifted_errors"], stats["sifted"]),
                "bb84.abort_frac": ratio(stats["aborted"], stats["exchanges"]),
                "trace.overhead_frac": overhead_frac,
            }
        )
        return out


def overhead_frac(untraced_times, traced_times) -> float:
    """Traced median op time minus untraced, over untraced.

    The two sets of ops should be interleaved in time, so that a drift in
    the host's speed moves both medians alike.
    """
    base = statistics.median(untraced_times)
    return (statistics.median(traced_times) - base) / base


def write_spans(path, spans) -> None:
    """One CSV line per span: id, parent id, name, start and end in seconds."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("id,parent,name,start_s,end_s,note\n")
        for span in sorted(spans):
            out.write("%d,%d,%s,%.9f,%.9f,%s\n" % span)
