"""Golden seeded outputs: equal inputs and an equal seed give identical results.

Each case hashes a seeded output into a SHA-256 digest that was recorded
once and must never drift. A change that alters any seed stream, sampling
arithmetic or amplitude rounding fails here; such a change has to say so
and re-record the digests deliberately.
"""

import hashlib

import numpy as np

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
