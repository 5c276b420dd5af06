import math

import numpy as np
import pytest

from qubitkit.algorithms.bernstein_vazirani import (
    bv_circuit,
    classical_oracle,
    classical_solve,
    descriptor,
    recovered_key,
)
from qubitkit.backends import LOCAL_BACKEND_NAME, default_registry
from qubitkit.errors import ValidationError
from qubitkit.framework import run_algorithm
from qubitkit.sim import Circuit, evolve

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def all_keys(n):
    return [format(v, f"0{n}b") for v in range(2**n)]


def test_classical_oracle_values():
    assert classical_oracle("101", "100") == 1
    assert classical_oracle("101", "111") == 0  # 1+0+1 mod 2
    for x in all_keys(3):
        assert classical_oracle("000", x) == 0


def test_classical_oracle_length_mismatch():
    with pytest.raises(ValueError):
        classical_oracle("101", "10")


@pytest.mark.parametrize(
    "key, x",
    [("11", "13"), ("1", "a"), ("101", "10"), ("10", ""), ("10", 10), ("10", None), ("10", b"10")],
)
def test_classical_oracle_rejects_a_bad_candidate(key, x):
    # "13" used to score as 0 and "a" to raise int()'s own ValueError.
    with pytest.raises(ValidationError, match="'x'"):
        classical_oracle(key, x)


def test_classical_solve_uses_n_queries():
    # queries is what classical_solve reports; calls is what the oracle saw.
    for key in ("110", "0", "1011001"):
        calls = []

        def oracle(x):
            calls.append(x)
            return classical_oracle(key, x)

        n = len(key)
        result = classical_solve(oracle, n)
        assert result.key == key
        assert len(calls) == n
        assert sorted(calls) == sorted(format(1 << i, f"0{n}b") for i in range(n))
        assert result.queries == len(calls)


def test_classical_solve_recovers_random_length_10_keys():
    rng = np.random.default_rng(3)
    for _ in range(20):
        key = "".join(str(b) for b in rng.integers(0, 2, size=10))
        result = classical_solve(lambda x: classical_oracle(key, x), 10)
        assert result.key == key


def test_circuit_gate_layout():
    # X on the ancilla, H on all, one CNOT per set bit, H on inputs.
    circuit = bv_circuit("011")
    kinds = [g.kind for g in circuit.gates]
    assert circuit.num_qubits == 4
    assert kinds == ["X"] + ["H"] * 4 + ["CNOT"] * 2 + ["H"] * 3
    assert circuit.gates[0].targets == (3,)
    # No trailing H on the ancilla.
    assert all(g.targets[0] != 3 for g in circuit.gates[7:])


def test_cnot_count_matches_popcount():
    assert sum(g.kind == "CNOT" for g in bv_circuit("00000").gates) == 0
    assert sum(g.kind == "CNOT" for g in bv_circuit("011").gates) == 2
    minimal = bv_circuit("1")
    assert minimal.num_qubits == 2
    assert sum(g.kind == "CNOT" for g in minimal.gates) == 1


def test_invalid_key_rejected():
    for bad in ("", "012", "ab"):
        with pytest.raises(ValidationError, match="key"):
            bv_circuit(bad)


@pytest.mark.parametrize("bad", [101, ["1", "0"], b"10", None])
def test_non_string_key_rejected(bad):
    # 101 used to raise a raw TypeError and ["1", "0"] built a 3-qubit circuit.
    with pytest.raises(ValidationError, match="key"):
        bv_circuit(bad)
    with pytest.raises(ValidationError, match="key"):
        classical_oracle(bad, "10")


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_classical_solve_rejects_bad_count(n):
    # n=0 used to return an empty key after zero queries.
    with pytest.raises(ValidationError, match="'n'"):
        classical_solve(lambda x: 0, n)


def _project_out_ancilla(amplitudes: np.ndarray, n: int) -> np.ndarray:
    # Ancilla (qubit n) stays exactly |->; contracting against it leaves
    # the input-register amplitudes.
    minus = np.array([_SQRT_HALF, -_SQRT_HALF])
    half = 1 << n
    return amplitudes[:half] * minus[0] + amplitudes[half:] * minus[1]


def state_after_oracle(key: str) -> np.ndarray:
    """Input-register amplitudes right after the oracle block, which is
    ``bv_circuit`` without its last H per input qubit.

    Index x (with key character i at bit n-1-i, i.e. index int(x_string, 2))
    should carry (-1)^(key.x) / sqrt(2^n).
    """
    prefix = Circuit(len(key) + 1, bv_circuit(key).gates[: -len(key)])
    return _project_out_ancilla(evolve(prefix).amplitudes, len(key))


def input_register_state(key: str) -> np.ndarray:
    """Input-register amplitudes right before measurement (basis state |key>)."""
    return _project_out_ancilla(evolve(bv_circuit(key)).amplitudes, len(key))


def test_phase_oracle_matches_classical_sign_pattern():
    # After the oracle block, input amplitude x must carry (-1)^(key.x)/sqrt(2^n).
    for n in range(1, 7):
        scale = 1 / math.sqrt(2**n)
        for key in all_keys(n):
            amps = state_after_oracle(key)
            key_int = int(key, 2)
            expected = np.array(
                [
                    scale * (-1) ** bin(key_int & x).count("1")
                    for x in range(2**n)
                ]
            )
            assert np.allclose(amps, expected, atol=1e-12), key


def test_pre_measurement_state_is_the_key_basis_state():
    for key in ("1", "011", "10110"):
        amps = input_register_state(key)
        expected = np.zeros(2 ** len(key))
        expected[int(key, 2)] = 1.0
        assert np.allclose(amps, expected, atol=1e-12)


def recovered(key, backends, seed) -> str:
    """The key a one-shot ``run_algorithm`` of Bernstein-Vazirani recovers."""
    run = run_algorithm(descriptor(), {"key": key}, backends, LOCAL_BACKEND_NAME, seed=seed)
    (outcome,) = run.counts
    return recovered_key(outcome)


def test_recovery_examples():
    backends = default_registry()
    assert recovered("011", backends, seed=0) == "011"
    assert recovered("0000000000", backends, seed=1) == "0000000000"


def test_recovery_of_random_keys_any_seed():
    backends = default_registry()
    rng = np.random.default_rng(19)
    for trial in range(60):
        n = int(rng.integers(1, 11))
        key = "".join(str(b) for b in rng.integers(0, 2, size=n))
        assert recovered(key, backends, seed=trial) == key


def test_run_is_the_descriptor_run_outcome():
    backends = default_registry()
    for seed in (0, 5, 2**64 - 1):
        run = run_algorithm(
            descriptor(), {"key": "1101"}, backends, LOCAL_BACKEND_NAME, seed=seed
        )
        (outcome,) = run.counts
        assert run.text == f"recovered key: {recovered_key(outcome)}"
        assert recovered("1101", backends, seed=seed) == recovered_key(outcome)


def test_histogram_text_tallies_keys_not_the_ancilla_coin():
    backends = default_registry()
    run = run_algorithm(descriptor(), {"key": "000"}, backends, LOCAL_BACKEND_NAME, 3, 1)
    assert len(run.counts) == 2  # the ancilla's fair coin splits the outcomes
    assert run.text == "recovered key: 000 (all 3 shots agree)"


@pytest.mark.parametrize("seed", [-1, 2**64, True, 2.5])
def test_run_rejects_bad_seed(seed):
    with pytest.raises(ValidationError, match="seed"):
        recovered("101", default_registry(), seed=seed)


def test_single_quantum_query_beats_n_classical_queries():
    key = "101101"
    classical = classical_solve(lambda x: classical_oracle(key, x), len(key))
    oracle_blocks = 1  # bv_circuit embeds the oracle exactly once
    assert classical.queries == len(key)
    assert oracle_blocks < classical.queries


def test_recovered_key_strips_ancilla():
    assert recovered_key("0101") == "101"
