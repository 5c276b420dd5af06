"""Golden seeded outputs: equal inputs and an equal seed give identical results.

Each case hashes a seeded output into a SHA-256 digest that was recorded
once and must never drift. A change that alters any seed stream, sampling
arithmetic or amplitude rounding fails here; such a change has to say so
and re-record the digests deliberately.
"""

import hashlib

import numpy as np
import pytest

from qubitkit.algorithms import qrand
from qubitkit.algorithms.bb84 import run_exchange, run_protocol
from qubitkit.algorithms.bernstein_vazirani import bv_circuit
from qubitkit.algorithms.qrand import qrand_circuit
from qubitkit.sim import Circuit, Gate, evolve, run


def sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def counts_digest(counts) -> str:
    return sha256((counts.shots, sorted(counts.items())))


def fixed_random_circuit(n: int, count: int, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    circuit = Circuit(n)
    for _ in range(count):
        kind = ("H", "X", "CNOT")[int(rng.integers(3))]
        if kind == "CNOT":
            control, target = rng.choice(n, size=2, replace=False)
            circuit.append(Gate("CNOT", (int(control), int(target))))
        else:
            circuit.append(Gate(kind, (int(rng.integers(n)),)))
    return circuit


def test_qrand_histogram_counts():
    counts = run(qrand_circuit(12), shots=100_000, seed=20_917)
    assert counts_digest(counts) == (
        "212ccda5ad208dd3f24ac2ffcd7cc4981978ad174ec155606233db47a3209621"
    )


def test_qrand_histogram_text():
    counts = run(qrand_circuit(12), shots=100_000, seed=20_917)
    text = qrand._interpret({"n": 12}, counts)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8ccc40fa5e1d07e981fa587ca832989a4a92164dc2a0ff40e4547aeb0ce2e201"
    )


def test_bernstein_vazirani_20_bit_counts():
    key = "10110011100011110100"
    counts = run(bv_circuit(key), shots=32, seed=2_209)
    assert {outcome[1:] for outcome in counts} == {key}
    assert counts_digest(counts) == (
        "805487a076533fea4050a46449405c4798233ae74e65ada03b8c6f8b05881985"
    )


def test_random_six_qubit_circuit_counts():
    circuit = fixed_random_circuit(6, 40, seed=12_698)
    counts = run(circuit, shots=10_000, seed=4_099)
    assert counts_digest(counts) == (
        "edb2bbae5d12bfe81b62d4e893f96227ba81512f09bc31f5c543ab7e749b93d0"
    )


def test_random_eighteen_qubit_circuit_amplitudes_and_counts():
    # Above the simulator's 16-qubit slice size: the run of low-qubit gates
    # goes slice by slice, and 12 of the 80 gates touch qubit 16 or 17.
    circuit = fixed_random_circuit(18, 80, seed=1_704)
    amplitudes = evolve(circuit).amplitudes.tobytes()
    assert hashlib.sha256(amplitudes).hexdigest() == (
        "42a757cc6cdc9f72f0b8e21841607e704e30fbbe6fc7aa6548c736542d1fe41d"
    )
    counts = run(circuit, shots=10_000, seed=1_232)
    assert counts_digest(counts) == (
        "db15f13797fe8d690f1ae7439c124ab903fff6ab345450630c3daa98210d7c2f"
    )


def test_bb84_full_compare_exchange_trace():
    # Eavesdropper draw order: all m interception decisions, then the axes
    # of the k hit qubits, then their k collapses.
    trace = run_exchange(256, 0.5, seed=84, compare_mode="full")
    assert sha256(trace) == (
        "414e7ac4df7943a39e4ea8c5e54316923af5598d8e55b61bdb52652ffc505306"
    )


def test_bb84_full_compare_exchange_trace_without_eavesdropper():
    # No interception: only the sender's and receiver's streams reach the
    # trace, so this pins them apart from the eavesdropper's.
    trace = run_exchange(256, 0.0, seed=84, compare_mode="full")
    assert sha256(trace) == (
        "4bb5888f9fdf8434faaa9e637ad0c22c816e46e438627133c2d1c76fd32be5d1"
    )


def test_bb84_protocol_trace_without_eavesdropper():
    trace = run_protocol((1, 0, 1, 1), 0.0, seed=31)
    assert trace.verdict == "secure"
    assert sha256(trace) == (
        "cb14edcac88ec4ba6c986ba85747131303095bb105c0da0eef39bb11d6969631"
    )


def test_bb84_protocol_retry_trace():
    # Two short rounds before a secure one: pins generator continuity
    # across retry rounds, which a single exchange does not reach.
    trace = run_protocol((1,), 0.5, seed=31)
    assert (trace.attempts, trace.verdict) == (3, "secure")
    assert sha256(trace) == (
        "a3760cfb1b120e05d7de13da13d504871370288cc2983cc0a7ec2f95629b7b67"
    )


# Edge sizes: m = 1, 2 and 3 over seeds 0-7 reach an empty sift for each m,
# density 0 an empty set of hit rows, and m = 3 a batch with more rows than
# outcomes. The m = 256 goldens above reach none of these.
EDGE_EXCHANGE_DIGESTS = {
    (1, 0.0, "half"): "615864d99fa09b3e35fbf3946a6ffd5e398bb175523cadd9d4e333134dc79082",
    (1, 0.0, "full"): "bd2dafa71bb8f9835a0f920f8259b9d3194e18338f78e41953478dfd0766be5b",
    (1, 1.0, "half"): "7cd15f161d03783a4dee62069fa5000747b8375b7eaf4ab7a5d7269685972445",
    (1, 1.0, "full"): "5734256050252564d6878213161a3f67be4bfa02b18cf4f4461e612838f3536f",
    (2, 0.0, "half"): "0c2fea898bd47b1740e9252d94f316a5f124e0dff51555f05e11c16c11325259",
    (2, 0.0, "full"): "91c5da75231581762d6f4a5ebdd1aaaf70b64d6edaf99e09345bca9eab6b9f04",
    (2, 1.0, "half"): "3b82e12743aa55fe2b5d194ef8ea78da7a6e9c9c8991fbb992759a4d5ee120c3",
    (2, 1.0, "full"): "d781ce2928a4781d849c65c4713d28989b1fa96bbd84204c93f0575d25165ea3",
    (3, 0.0, "half"): "1be2f128b0b7b7953c9c2355fbd7ad3f8389e77fd36b9da836d547d2a574d0cb",
    (3, 0.0, "full"): "a6015b16b662d93dde4cc611074264bca25163837d4a128a84cdbe8c2138cf05",
    (3, 1.0, "half"): "19addd337f70e8c9e5ec3b33235571896a64add8b291f1565666b798f74699bb",
    (3, 1.0, "full"): "7887f49483c7e6f6d1d46dd37d00ed6b81246f61cb6d6c9c99a334f257d50b4d",
}


@pytest.mark.parametrize("compare_mode", ["half", "full"])
@pytest.mark.parametrize("density", [0.0, 1.0])
@pytest.mark.parametrize("transmitted", [1, 2, 3])
def test_bb84_edge_size_exchange_traces(transmitted, density, compare_mode):
    traces = [
        run_exchange(transmitted, density, seed=seed, compare_mode=compare_mode)
        for seed in range(8)
    ]
    assert sha256(traces) == EDGE_EXCHANGE_DIGESTS[transmitted, density, compare_mode]


def test_bb84_protocol_traces_under_full_interception():
    traces = [run_protocol((1, 0, 1, 1), 1.0, seed=seed) for seed in range(8)]
    assert [trace.verdict for trace in traces].count("secure") == 1
    assert sha256(traces) == (
        "67df9910520b6558e3ee36f07b0404c04d04d3b78265039c740824edd4d1470a"
    )
