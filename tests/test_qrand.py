import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chi_square import chi_square_p_value
from qubitkit.algorithms import qrand
from qubitkit.algorithms.qrand import qrand_circuit
from qubitkit.backends import LOCAL_BACKEND_NAME, default_registry
from qubitkit.errors import UnknownBackendError, ValidationError
from qubitkit.framework import run_algorithm
from qubitkit.sim import Counts, evolve, run


def test_circuit_structure_n1():
    circuit = qrand_circuit(1)
    assert [g.kind for g in circuit.gates] == ["H"]


def test_n3_amplitudes_are_uniform():
    state = evolve(qrand_circuit(3))
    assert np.allclose(state.amplitudes, np.full(8, 1 / math.sqrt(8)), atol=1e-15)


def test_n_zero_rejected():
    with pytest.raises(ValidationError, match="'n'"):
        qrand_circuit(0)
    with pytest.raises(ValidationError, match="'n'"):
        qrand_circuit(25)


@pytest.mark.parametrize("n", [2.5, True, "3", None])
def test_non_integer_n_rejected(n):
    # 2.5 used to pass the range check and die inside range().
    with pytest.raises(ValidationError, match="'n'"):
        qrand_circuit(n)


def test_pre_measurement_amplitudes_real_uniform_up_to_n10():
    for n in range(1, 11):
        amps = evolve(qrand_circuit(n)).amplitudes
        expected = 2 ** (-n / 2)
        assert np.allclose(amps.real, expected, atol=1e-12)
        assert np.allclose(amps.imag, 0.0, atol=1e-12)


def test_uniformity_chi_square():
    for n in (1, 2, 3, 4):
        shots = 100 * 2**n
        counts = run(qrand_circuit(n), shots=shots, seed=40 + n)
        law = {format(v, f"0{n}b"): 2**-n for v in range(2**n)}
        p = chi_square_p_value([(list(Counter(counts).elements()), law)])
        assert p > 0.001, f"n={n}: p={p}"


def drawn_value(n, backends, seed, backend_name=LOCAL_BACKEND_NAME) -> int:
    """The integer a one-shot ``run_algorithm`` of qrand draws."""
    run = run_algorithm(qrand.descriptor(), {"n": n}, backends, backend_name, seed=seed)
    (outcome,) = run.counts
    return int(outcome, 2)


def test_values_stay_in_range():
    backends = default_registry()
    values = [drawn_value(4, backends, seed=s) for s in range(64)]
    assert all(0 <= v <= 15 for v in values)


def test_single_qubit_mean_over_fresh_seeds():
    backends = default_registry()
    trials = 1_000
    total = sum(drawn_value(1, backends, seed=s) for s in range(trials))
    assert abs(total / trials - 0.5) < 4 * math.sqrt(0.25 / trials)  # 4 sigma


def test_fixed_seed_reproduces_value():
    backends = default_registry()
    assert drawn_value(6, backends, seed=77) == drawn_value(6, backends, seed=77)


def test_backend_errors_propagate():
    with pytest.raises(UnknownBackendError):
        drawn_value(3, default_registry(), backend_name="missing", seed=1)


def test_value_is_the_descriptor_run_outcome():
    # A one-shot run's text reports the value its single outcome reads as.
    backends = default_registry()
    for seed in (0, 1, 77, 2**64 - 1):
        run = run_algorithm(
            qrand.descriptor(), {"n": 6}, backends, LOCAL_BACKEND_NAME, seed=seed
        )
        (outcome,) = run.counts
        assert run.text == f"random value: {int(outcome, 2)} (range 0..63)"
        assert drawn_value(6, backends, seed=seed) == int(outcome, 2)


@pytest.mark.parametrize("seed", [-1, 2**64, True, 2.5])
def test_value_rejects_bad_seed(seed):
    with pytest.raises(ValidationError, match="seed"):
        drawn_value(3, default_registry(), seed=seed)


# ---------------------------------------------------------------------------
# The histogram text. The reference is the line-by-line interpret that the
# byte-array one replaced; both must give the same text.


def reference_interpret(params, counts):
    n = params["n"]
    top = 2**n - 1
    if counts.shots == 1:
        (outcome,) = counts
        return f"random value: {int(outcome, 2)} (range 0..{top})"
    width = len(str(top))
    lines = [f"outcome distribution over {counts.shots} shots (range 0..{top}):"]
    lines += [
        "  %*d (%s): %d" % (width, int(outcome, 2), outcome, count)
        for outcome, count in sorted(counts.items())
    ]
    return "\n".join(lines)


def counts_of(indices, tallies, n):
    return Counts.from_arrays(np.array(indices), np.array(tallies), n, sum(tallies))


@st.composite
def sparse_counts(draw):
    """n, and Counts over some of its outcomes, as run returns them."""
    n = draw(st.integers(1, 20))
    tallies = draw(
        st.dictionaries(st.integers(0, 2**n - 1), st.integers(1, 10**9), min_size=1, max_size=40)
    )
    indices = sorted(tallies)
    return n, counts_of(indices, [tallies[i] for i in indices], n)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(sparse_counts())
@example((1, counts_of([1], [1], 1)))  # one shot
@example((1, counts_of([0, 1], [9, 1], 1)))
@example((20, counts_of([0, 2**20 - 1], [1, 10**9], 20)))
# Outcome 1 has no mass, and a sparse 20-qubit one.
@example((2, counts_of([0, 2, 3], [5, 1, 4], 2)))
@example((20, counts_of([3, 2**19, 2**20 - 1], [7, 1, 10**9], 20)))
def test_interpret_equals_the_line_by_line_text(case):
    n, counts = case
    assert qrand._interpret({"n": n}, counts) == reference_interpret({"n": n}, counts)


def test_interpret_memory_is_a_few_texts():
    # The line-by-line interpret peaked at 9.8 MB, 4.8 times its text.
    counts = run(qrand_circuit(16), shots=1 << 20, seed=3)
    assert len(counts) == 2**16
    text = qrand._interpret({"n": 16}, counts)  # the first call pays numpy's lazy allocations
    tracemalloc.start()
    try:
        qrand._interpret({"n": 16}, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)
