"""The benchmark's workloads: seeded inputs, one op, and its output check.

Ops within a workload do identical work; only the seeded inputs differ.
Inputs come from ``(seed, index)`` alone, so the program receives nothing
but the generated inputs. Every op goes through qubitkit's public
functions, looked up on their modules at call time so the traced run can
wrap them.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from qubitkit import framework
from qubitkit.algorithms import bb84
from qubitkit.backends import LOCAL_BACKEND_NAME
from qubitkit.sim import derive_seed

# Significance level of the statistical output checks. A full set of
# benchmark runs makes a few thousand ops, so a correct program fails one of
# them by chance with probability about 1e-3.
ALPHA = 1e-6


@dataclass
class Checked:
    """What the check of one op found."""

    problems: list[str]
    work: float  # units of work the op did, for work_per_s
    digest: bytes  # canonical text of the outputs, hashed into the digest
    stats: Counter = field(default_factory=Counter)


def _op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _seed63(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def chi2_sf(statistic: float, dof: int) -> float:
    """Chi-square upper tail, Wilson-Hilferty normal approximation."""
    scale = 2.0 / (9.0 * dof)
    z = ((statistic / dof) ** (1.0 / 3.0) - (1.0 - scale)) / math.sqrt(scale)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


class BernsteinVazirani:
    """``run_algorithm("bernstein-vazirani", key, shots=1)``, half the key bits set."""

    work_unit = "amplitude updates"

    def __init__(self, bits: int):
        self.bits = bits
        self.name = f"bv-{bits}"

    def inputs(self, seed: int, index: int):
        rng = _op_rng(seed, index)
        key = np.zeros(self.bits, dtype=np.int64)
        key[rng.choice(self.bits, self.bits // 2, replace=False)] = 1
        return "".join(map(str, key)), _seed63(rng)

    def run(self, ctx, inputs):
        key, shot_seed = inputs
        return framework.run_algorithm(
            ctx.descriptors["bernstein-vazirani"],
            {"key": key},
            ctx.backends,
            LOCAL_BACKEND_NAME,
            shots=1,
            seed=shot_seed,
        )

    def check(self, inputs, result) -> Checked:
        key, _ = inputs
        outcomes = dict(result.counts)
        problems = []
        if sum(outcomes.values()) != 1 or len(outcomes) != 1:
            problems.append(f"expected one shot, got {outcomes}")
        elif next(iter(outcomes))[1:] != key:
            problems.append(f"recovered {next(iter(outcomes))[1:]}, key {key}")
        # 1 X, H on all n+1 qubits then on the n inputs, one CNOT per set bit.
        gates = 1 + (2 * self.bits + 1) + key.count("1")
        return Checked(problems, gates * 2.0 ** (self.bits + 1), f"{key} {outcomes}".encode())


class QrandHistogram:
    """``run_algorithm("qrand", n, shots)``: the histogram mode."""

    work_unit = "shots"

    def __init__(self, qubits: int, shots: int):
        self.qubits = qubits
        self.shots = shots
        self.name = "qrand-hist"

    def inputs(self, seed: int, index: int):
        return _seed63(_op_rng(seed, index))

    def run(self, ctx, shot_seed):
        return framework.run_algorithm(
            ctx.descriptors["qrand"],
            {"n": self.qubits},
            ctx.backends,
            LOCAL_BACKEND_NAME,
            shots=self.shots,
            seed=shot_seed,
        )

    def check(self, shot_seed, result) -> Checked:
        n, shots = self.qubits, self.shots
        counts = dict(result.counts)
        problems = []
        if result.counts.shots != shots or sum(counts.values()) != shots:
            problems.append(f"counts sum to {sum(counts.values())}, shots {shots}")
        bins = np.zeros(1 << n)
        for outcome, count in counts.items():
            if len(outcome) != n or set(outcome) - {"0", "1"}:
                problems.append(f"outcome {outcome!r} is not an {n}-bit string")
                break
            bins[int(outcome, 2)] = count
        # Every outcome, then the leading bits alone: the fine test misses a
        # smooth bias of under a percent that the coarse one catches.
        for size in () if problems else (bins.size, min(bins.size, 64)):
            observed = bins.reshape(size, -1).sum(axis=1)
            expected = shots / size
            statistic = float(np.sum((observed - expected) ** 2) / expected)
            p_value = chi2_sf(statistic, size - 1)
            if p_value < ALPHA:
                problems.append(f"uniformity chi-square over {size} bins: p={p_value:.3g}")
        if not result.text.strip():
            problems.append("empty interpretation")
        digest = repr(sorted(counts.items())).encode()
        return Checked(problems, float(shots), digest)


class Bb84Heatmap:
    """The eavesdropper sweep: ``run_exchange(m, d, compare_mode="full")`` cells."""

    work_unit = "transmitted qubits"

    def __init__(self, lengths, densities, repeats: int):
        self.lengths = tuple(lengths)
        self.densities = tuple(densities)
        self.repeats = repeats
        self.name = "bb84-heatmap"

    def inputs(self, seed: int, index: int):
        op_seed = _seed63(_op_rng(seed, index))
        return [
            (m, d, derive_seed(op_seed, i, j, r))
            for i, m in enumerate(self.lengths)
            for j, d in enumerate(self.densities)
            for r in range(self.repeats)
        ]

    def run(self, ctx, cells):
        return [
            bb84.run_exchange(
                m, d, ctx.backends, LOCAL_BACKEND_NAME, seed=cell_seed, compare_mode="full"
            )
            for m, d, cell_seed in cells
        ]

    def check(self, cells, traces) -> Checked:
        problems = []
        stats = Counter()
        lines = []
        observed = expected = variance = 0.0
        for (m, d, _), trace in zip(cells, traces, strict=True):
            sifted = trace.sifted_positions
            errors = sum(trace.sender_bits[p] != trace.receiver_bits[p] for p in sifted)
            aborted = trace.verdict == bb84.ABORTED
            if trace.transmitted_count != m or len(trace.receiver_bits) != m:
                problems.append(f"m={m}: transmitted {trace.transmitted_count}")
            if trace.verdict not in (bb84.SECURE, bb84.ABORTED, bb84.KEY_TOO_SHORT):
                problems.append(f"m={m} d={d}: verdict {trace.verdict!r}")
            # Full comparison publishes every sifted bit: abort iff one differs.
            if sifted and aborted != (errors > 0):
                problems.append(f"m={m} d={d}: verdict {trace.verdict} with {errors} errors")
            if d == 0 and (aborted or errors):
                problems.append(f"m={m} d=0: aborted={aborted}, {errors} sifted errors")
            p = 1.0 - (1.0 - d / 8.0) ** m  # closed form, full comparison
            if p * (1.0 - p) > 1e-12:  # skip cells whose outcome is certain
                observed += aborted
                expected += p
                variance += p * (1.0 - p)
            stats.update(
                transmitted=m,
                intercepted=sum(a is not None for a in trace.eve_actions),
                sifted=len(sifted),
                sifted_errors=errors,
                exchanges=1,
                aborted=aborted,
            )
            eve = "".join(f"{a.axis.value}{a.bit}" if a else "-" for a in trace.eve_actions)
            lines.append(
                " ".join(
                    [
                        f"{m} {d}",
                        "".join(map(str, trace.sender_bits)),
                        "".join(a.value for a in trace.sender_axes),
                        eve,
                        "".join(a.value for a in trace.receiver_axes),
                        "".join(map(str, trace.receiver_bits)),
                        trace.verdict,
                    ]
                )
            )
        if variance > 0:
            p_value = math.erfc(abs(observed - expected) / math.sqrt(2.0 * variance))
            if p_value < ALPHA:
                problems.append(
                    f"pooled aborts {observed:.0f} vs expected {expected:.1f}: p={p_value:.3g}"
                )
        return Checked(problems, float(stats["transmitted"]), "\n".join(lines).encode(), stats)


# Full-size workloads, by name. See BENCHMARK.json for why each was chosen.
WORKLOADS = {
    w.name: w
    for w in (
        BernsteinVazirani(bits=20),
        QrandHistogram(qubits=16, shots=1_000_000),
        Bb84Heatmap(lengths=[16 << k for k in range(9)], densities=[0, 0.25, 0.5, 1.0], repeats=2),
    )
}


def digest(checked: Checked) -> str:
    return hashlib.sha256(checked.digest).hexdigest()[:16]
