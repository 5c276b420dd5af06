import math
import sys
import threading
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qubitkit import sim
from qubitkit.algorithms import qrand
from qubitkit.algorithms.bernstein_vazirani import bv_circuit
from qubitkit.algorithms.qrand import qrand_circuit
from qubitkit.errors import CapacityError, ValidationError
from qubitkit.sim import (
    Circuit,
    Counts,
    Gate,
    Statevector,
    apply_gate,
    derive_seed,
    evolve,
    make_rng,
    new_zero_state,
    run,
    sample_measurement,
)

# ---------------------------------------------------------------------------
# Independent oracle: explicit 2^n x 2^n matrices built by kron / permutation.
# Only tests use these; the simulator itself works on reshaped views.

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def single_qubit_matrix(u, qubit, n):
    m = np.eye(1, dtype=complex)
    for k in range(n - 1, -1, -1):  # index = qubit n-1 .. qubit 0
        m = np.kron(m, u if k == qubit else np.eye(2, dtype=complex))
    return m


def cnot_matrix(control, target, n):
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        row = col ^ (1 << target) if (col >> control) & 1 else col
        m[row, col] = 1.0
    return m


def gate_matrix(gate, n):
    if gate.kind == "H":
        return single_qubit_matrix(_H, gate.targets[0], n)
    if gate.kind == "X":
        return single_qubit_matrix(_X, gate.targets[0], n)
    return cnot_matrix(gate.targets[0], gate.targets[1], n)


def random_gates(rng, n, count):
    gates = []
    for _ in range(count):
        kind = rng.choice(["H", "X", "CNOT"]) if n > 1 else rng.choice(["H", "X"])
        if kind == "CNOT":
            control, target = rng.choice(n, size=2, replace=False)
            gates.append(Gate("CNOT", (int(control), int(target))))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),)))
    return gates


def random_state(rng, n, dtype=complex):
    amps = rng.normal(size=2**n)
    if dtype is complex:
        amps = amps + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return Statevector(n, amps)


# ---------------------------------------------------------------------------
# Independent reference for the kernels: one full pass per gate over plain
# reshaped views, with no blocking, no threads and no column loops. The
# simulator does the same float operations per amplitude, so its results
# must be np.array_equal to these.

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _pairs(amps: np.ndarray, qubit: int) -> np.ndarray:
    """View with axis 1 the qubit's bit: [:, 0] and [:, 1] are the two halves."""
    return amps.reshape(-1, 2, 1 << qubit)


def _hadamard(amps: np.ndarray, out: np.ndarray, qubit: int) -> None:
    a, b = _pairs(amps, qubit), _pairs(out, qubit)
    np.add(a[:, 0], a[:, 1], out=b[:, 0])
    np.subtract(a[:, 0], a[:, 1], out=b[:, 1])
    out *= _INV_SQRT2


def _pauli_x(amps: np.ndarray, out: np.ndarray, qubit: int) -> None:
    a, b = _pairs(amps, qubit), _pairs(out, qubit)
    b[:, 0] = a[:, 1]
    b[:, 1] = a[:, 0]


def _cnot(amps: np.ndarray, out: np.ndarray, control: int, target: int) -> None:
    # One axis per qubit after any batch axis, qubit 0 last; move control and
    # target to the front.
    n = amps.shape[-1].bit_length() - 1
    shape = amps.shape[:-1] + (2,) * n
    axes = (-1 - control, -1 - target)
    a = np.moveaxis(amps.reshape(shape), axes, (0, 1))
    b = np.moveaxis(out.reshape(shape), axes, (0, 1))
    b[0] = a[0]
    b[1, 0] = a[1, 1]
    b[1, 1] = a[1, 0]


REFERENCE_KERNELS = {"H": _hadamard, "X": _pauli_x, "CNOT": _cnot}


def reference_chain(amps, gates):
    """``amps`` (one register or a batch) after the gates, by the reference kernels."""
    for gate in gates:
        out = np.empty_like(amps)
        REFERENCE_KERNELS[gate.kind](amps, out, *gate.targets)
        amps = out
    return amps


# ---------------------------------------------------------------------------
# State preparation


def test_zero_state_one_qubit():
    assert np.array_equal(new_zero_state(1).amplitudes, [1, 0])


def test_zero_state_two_qubits():
    state = new_zero_state(2)
    assert np.array_equal(state.amplitudes, [1, 0, 0, 0])
    assert state.amplitudes.dtype == np.float64


def test_zero_state_over_cap():
    with pytest.raises(CapacityError):
        new_zero_state(25)
    with pytest.raises(CapacityError):
        new_zero_state(0)


# ---------------------------------------------------------------------------
# Gate application


def test_hadamard_on_zero_gives_uniform_amplitudes():
    state = apply_gate(new_zero_state(1), Gate("H", (0,)))
    inv = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, [inv, inv], atol=1e-15)


def test_x_flips_zero_to_one():
    state = apply_gate(new_zero_state(1), Gate("X", (0,)))
    assert np.array_equal(state.amplitudes, [0, 1])


def test_cnot_truth_table():
    # qubit0=1, qubit1=0 is index 1; CNOT(0->1) must flip qubit1 -> index 3
    state = apply_gate(new_zero_state(2), Gate("X", (0,)))
    state = apply_gate(state, Gate("CNOT", (0, 1)))
    assert np.array_equal(state.amplitudes, [0, 0, 0, 1])


def test_gate_rejects_bad_targets():
    with pytest.raises(IndexError):
        apply_gate(new_zero_state(1), Gate("H", (1,)))
    with pytest.raises(ValueError):
        Gate("CNOT", (0, 0))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))


@pytest.mark.parametrize(
    "kind, targets",
    [
        ("H", (1.5,)),
        ("H", (True,)),
        ("X", ("0",)),
        ("X", (np.float64(0),)),
        ("CNOT", (0, True)),
        ("H", 0),
        ("H", [0]),
        ("CNOT", [0, 1]),
        ("X", None),
    ],
)
def test_gate_rejects_non_integer_targets(kind, targets):
    # A bare 0 or None used to raise TypeError; lists were accepted, and
    # made a Gate that could not be hashed.
    with pytest.raises(ValidationError, match="targets"):
        Gate(kind, targets)


@pytest.mark.parametrize(
    "make, param",
    [
        (lambda: Circuit(2, gates=[("H", 0)]), "gates"),
        (lambda: Circuit(2, gates=[Gate("H", (0,)), "X"]), "gates"),
        (lambda: Circuit(2).append(("H", 0)), "gates"),
        (lambda: Circuit(2, gates=None), "gates"),
        (lambda: Gate(np.array(["H"]), (0,)), "kind"),
        (lambda: run(None, 1, 1), "circuit"),
        (lambda: evolve(None), "circuit"),
        (lambda: evolve(Gate("H", (0,))), "circuit"),
    ],
    ids=[
        "tuple-in-gates",
        "str-in-gates",
        "append-a-tuple",
        "gates-none",
        "kind-array",
        "run-none",
        "evolve-none",
        "evolve-a-gate",
    ],
)
def test_circuits_hold_only_gates_and_the_simulator_takes_only_circuits(make, param):
    # Each used to raise an AttributeError or a TypeError, or, for the
    # array kind, to build a Gate that no kernel could look up.
    with pytest.raises(ValidationError) as excinfo:
        make()
    assert excinfo.value.param == param


def test_gate_accepts_numpy_integer_targets():
    state = apply_gate(new_zero_state(2), Gate("X", (np.int64(1),)))
    assert np.array_equal(state.amplitudes, [0, 0, 1, 0])


@pytest.mark.parametrize(
    "amplitudes, gate",
    [
        (np.array([1.0, 0.0]), Gate("X", (2,))),  # numpy could not reshape 2 into 8
        (np.array([1, 0, 0, 0, 0, 0, 0, 0]), Gate("H", (0,))),  # a ufunc casting error
        (np.zeros((1, 4, 8)), Gate("H", (0,))),  # 3-D: was accepted
    ],
    ids=["wrong-length", "int", "3-d"],
)
def test_malformed_amplitudes_raise_a_validation_error(amplitudes, gate):
    with pytest.raises(ValidationError, match="amplitudes"):
        apply_gate(Statevector(3, amplitudes), gate)
    with pytest.raises(ValidationError, match="amplitudes"):
        sample_measurement(Statevector(3, amplitudes), make_rng(0))


def _amplitudes_laid_out(layout: str) -> np.ndarray:
    """Three qubits' amplitudes, random, in one of three memory layouts."""
    rng = np.random.default_rng(5)
    if layout == "c-order":
        return rng.normal(size=8)
    if layout == "fortran-batch":
        return np.asfortranarray(rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)))
    strided = np.empty(16)[::2]  # every other float64 of a 16-float buffer
    strided[:] = rng.normal(size=8)
    return strided


@pytest.mark.parametrize("layout", ["c-order", "fortran-batch", "strided"])
def test_apply_gate_writes_a_fresh_array_with_one_slice_kernel(layout, monkeypatch):
    # Up to 2^16 amplitudes, apply_gate reads its input, in whatever memory
    # order, and writes the gate's image into a new C-order array with one
    # out-of-place kernel call: no copy first, and no in-place kernel. Lowest
    # targets 1 and 2 give pair views that end in 2 or 4 elements.
    amps = _amplitudes_laid_out(layout)
    memory = amps if amps.base is None else amps.base
    calls = {"slice": 0, "pair": 0}
    for name, kernels in (("slice", sim._SLICE_KERNELS), ("pair", sim._PAIR_KERNELS)):
        for kind, kernel in kernels.items():

            def spy(*args, kernel=kernel, name=name):
                calls[name] += 1
                kernel(*args)

            monkeypatch.setitem(kernels, kind, spy)
    gates = [Gate("H", (q,)) for q in range(3)] + [Gate("X", (1,))]
    gates += [Gate("CNOT", (0, 2)), Gate("CNOT", (2, 1)), Gate("CNOT", (1, 2))]
    for gate in gates:
        before = memory.tobytes()
        calls.update(slice=0, pair=0)
        out = apply_gate(Statevector(3, amps), gate).amplitudes
        assert calls == {"slice": 1, "pair": 0}
        assert out.flags.c_contiguous and not np.shares_memory(out, memory)
        assert (out.shape, out.dtype) == (amps.shape, amps.dtype)
        assert memory.tobytes() == before
        expected = reference_chain(np.ascontiguousarray(amps), [gate])
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("num_qubits", [2.5, True, "2", None, 0, -1])
def test_circuit_rejects_bad_qubit_counts(num_qubits):
    # Circuit(2.5) used to be accepted. ValidationError is a ValueError, so
    # Circuit(0) still raises what it raised before.
    with pytest.raises(ValidationError, match="num_qubits"):
        Circuit(num_qubits)


def test_circuit_accepts_numpy_qubit_count():
    assert evolve(Circuit(np.int64(2)).x(1)).amplitudes.tolist() == [0, 0, 1, 0]


def test_num_qubits_is_stored_as_a_python_int():
    two = np.int64(2)
    counts = Counts.from_arrays(np.array([1]), np.array([1]), np.int64(1), 1)
    stored = [
        Circuit(two).num_qubits,
        evolve(Circuit(two)).num_qubits,
        run(Circuit(two), 1, 0).num_qubits,
        new_zero_state(two).num_qubits,
        counts.num_qubits,
    ]
    assert [type(n) for n in stored] == [int] * 5
    assert dict(counts) == {"1": 1}


def test_apply_gate_stores_num_qubits_as_a_python_int():
    state = apply_gate(Statevector(np.int64(1), np.array([1.0, 0.0])), Gate("H", (0,)))
    assert type(state.num_qubits) is int


def test_circuit_rejects_out_of_range_gate():
    with pytest.raises(IndexError):
        Circuit(2).cnot(0, 2)


def test_negative_targets_raise_index_error():
    with pytest.raises(IndexError):
        Circuit(2).h(-1)
    with pytest.raises(IndexError):
        apply_gate(new_zero_state(2), Gate("CNOT", (0, -1)))


@pytest.mark.parametrize("n", [3, 17])
@pytest.mark.parametrize(
    "make",
    [lambda n: Gate("H", (-1,)), lambda n: Gate("H", (n + 3,)), lambda n: None, lambda n: "H"],
    ids=["negative", "past-the-register", "none", "str"],
)
def test_evolve_checks_gates_appended_to_the_list(n, make):
    # Circuit.gates is a public list, so an append to it skips
    # Circuit.append's check. evolve and run must raise what Circuit.append
    # would, on either side of the 16-qubit block: above it, H(-1) used to
    # run on qubit n - 2, and H(n + 3) and None failed inside numpy.
    bad = make(n)
    with pytest.raises((IndexError, ValidationError)) as expected:
        Circuit(n).append(bad)
    circuit = Circuit(n).h(0)
    circuit.gates.append(bad)
    for call in (lambda: evolve(circuit), lambda: run(circuit, 1, 0)):
        with pytest.raises(expected.type) as excinfo:
            call()
        assert str(excinfo.value) == str(expected.value)
        assert getattr(excinfo.value, "param", "gates") == "gates"


def test_norm_conserved_over_random_sequences():
    rng = np.random.default_rng(11)
    for n in range(1, 5):
        for _ in range(20):
            state = new_zero_state(n)
            batch = Statevector(n, np.tile(state.amplitudes, (4, 1)))
            for gate in random_gates(rng, n, 30):
                state = apply_gate(state, gate)
                batch = apply_gate(batch, gate)
            assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12
            row_norms = np.sum(np.abs(batch.amplitudes) ** 2, axis=-1)
            assert np.allclose(row_norms, np.ones(4), rtol=0, atol=1e-12)


def test_gates_are_involutions():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for _ in range(10):
            state = random_state(rng, n)
            for gate in random_gates(rng, n, 1):
                back = apply_gate(apply_gate(state, gate), gate)
                assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_agrees_with_brute_force_matrices():
    rng = np.random.default_rng(23)
    for n in range(1, 5):
        for _ in range(15):
            gates = random_gates(rng, n, 12)
            state = new_zero_state(n)
            expected = np.zeros(2**n, dtype=complex)
            expected[0] = 1.0
            for gate in gates:
                state = apply_gate(state, gate)
                expected = gate_matrix(gate, n) @ expected
            assert np.allclose(state.amplitudes, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Differential tests: random circuits and states against the dense oracle.
# derandomize keeps tier-1 deterministic; max_examples keeps it fast.

DIFFERENTIAL = settings(max_examples=200, derandomize=True, database=None, deadline=None)


@st.composite
def gates_on(draw, n):
    kinds = ["H", "X", "CNOT"] if n > 1 else ["H", "X"]
    kind = draw(st.sampled_from(kinds))
    arity = 2 if kind == "CNOT" else 1
    qubits = st.integers(0, n - 1)
    targets = draw(st.lists(qubits, min_size=arity, max_size=arity, unique=True))
    return Gate(kind, tuple(targets))


@st.composite
def circuits(draw, max_qubits=6):
    n = draw(st.integers(1, max_qubits))
    return Circuit(n, gates=draw(st.lists(gates_on(n), max_size=30)))


@DIFFERENTIAL
@given(circuits())
def test_evolve_matches_dense_oracle(circuit):
    n = circuit.num_qubits
    expected = np.zeros(2**n, dtype=complex)
    expected[0] = 1.0
    for gate in circuit.gates:
        expected = gate_matrix(gate, n) @ expected
    state = evolve(circuit)
    assert state.amplitudes.dtype == np.float64
    assert np.allclose(state.amplitudes, expected, rtol=0, atol=1e-12)


@DIFFERENTIAL
@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), gates_on(n))),
    st.sampled_from([complex, float]),
    st.integers(0, 2**32 - 1),
)
def test_apply_gate_matches_dense_oracle(n_and_gate, dtype, seed):
    n, gate = n_and_gate
    state = random_state(np.random.default_rng(seed), n, dtype)
    before = state.amplitudes.copy()
    result = apply_gate(state, gate)
    assert np.array_equal(state.amplitudes, before)  # the input is untouched
    assert not np.shares_memory(result.amplitudes, state.amplitudes)
    assert result.amplitudes.dtype == state.amplitudes.dtype
    expected = gate_matrix(gate, n) @ before
    assert np.allclose(result.amplitudes, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Cache-blocked evolve: bit-identical to the per-gate apply_gate chain. A block
# of 1-3 qubits makes these small circuits cross slice edges; a block of 5 or 6
# qubits makes a low run rotate a gate on slice bit 0 or 1 up to bit B - 4;
# three workers get uneven shares of the slices.


def per_gate_chain(circuit, state=None):
    """Amplitudes of ``state`` (default |0...0>) after one apply_gate per gate."""
    if state is None:
        state = new_zero_state(circuit.num_qubits)
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state.amplitudes


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block_qubits", [1, 2, 3, 5, 6])
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(circuits(max_qubits=8))
def test_blocked_evolve_equals_per_gate_chain(block_qubits, workers, circuit):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_BLOCK_QUBITS", block_qubits)
        patch.setattr(sim, "_cpu_count", lambda: workers)
        blocked = evolve(circuit).amplitudes
    assert np.array_equal(blocked, per_gate_chain(circuit))


def test_blocked_evolve_at_eighteen_qubits_equals_per_gate_chain():
    circuit = Circuit(18, gates=random_gates(np.random.default_rng(1_618), 18, 60))
    high = [max(gate.targets) >= sim._BLOCK_QUBITS for gate in circuit.gates]
    assert 0 < sum(high) < len(high)
    assert np.array_equal(evolve(circuit).amplitudes, per_gate_chain(circuit))


def test_blocked_evolve_with_more_workers_than_cpus_and_fast_switching(monkeypatch):
    # Eight threads update disjoint slices of one shared buffer in place; an
    # overlap or a lost write would change amplitudes.
    circuit = Circuit(10, gates=random_gates(np.random.default_rng(2_718), 10, 100))
    expected = per_gate_chain(circuit)
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 5)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        blocked = evolve(circuit).amplitudes
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(blocked, expected)


def test_kernel_error_in_a_worker_thread_reaches_the_caller(monkeypatch):
    # The low run's H kernel: H(0) on two qubits with a 1-qubit block. The
    # leading H(1) marks the second slice live, so the low run has two
    # slices to share and a worker thread takes one.
    caller, hadamard = threading.current_thread(), sim._SLICE_KERNELS["H"]

    def fails_off_the_calling_thread(src, dst, targets):
        if threading.current_thread() is not caller:
            raise RuntimeError("kernel failed in a worker")
        hadamard(src, dst, targets)

    monkeypatch.setitem(sim._SLICE_KERNELS, "H", fails_off_the_calling_thread)
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 1)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="kernel failed in a worker"):
        evolve(Circuit(2).h(1).h(0))


def test_kernel_error_in_a_piece_of_a_shared_gate_reaches_the_caller(monkeypatch):
    # Three qubits exceed a 2^1-amplitude block, so apply_gate cuts the H into
    # pieces and hands the second piece to a started thread.
    caller, hadamard = threading.current_thread(), sim._PAIR_KERNELS["H"]
    started = []

    def fails_off_the_calling_thread(view):
        if threading.current_thread() is not caller:
            started.append(threading.current_thread())
            raise RuntimeError("kernel failed in a worker")
        hadamard(view)

    monkeypatch.setitem(sim._PAIR_KERNELS, "H", fails_off_the_calling_thread)
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 1)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    with pytest.raises(RuntimeError, match="kernel failed in a worker"):
        apply_gate(new_zero_state(3), Gate("H", (0,)))
    assert len(started) == 1
    assert not any(thread.is_alive() for thread in started)


def test_no_thread_keeps_an_evolved_state_once_it_is_dropped(monkeypatch):
    # Six qubits under a 2-qubit block: the high gates, the low run and the
    # CNOT with a high control are each shared over two threads.
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 2)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    circuit = Circuit(6).h(5).h(4).h(3).h(0).cnot(1, 0).cnot(4, 1)
    kept = weakref.ref(evolve(circuit).amplitudes)
    assert kept() is None


# Low runs under a 6-qubit block, which lifts a gate on slice bit 0 or 1 to
# bit 2 first, and the steps each slice goes through (sim._low_run_steps).
# Each circuit starts with H(6), a full pass, so both slices hold amplitudes
# and neither skips the run.
ROTATING_RUNS = {
    # Three steps: the result ends in the scratch slice and is copied back.
    "ends-in-scratch": (
        Circuit(7).h(6).h(0),
        [("_rotate", 2), ("_hadamard_into", (2,)), ("_rotate", 4)],
    ),
    # Offset 2 after the last gate, restored by a rotation; four steps.
    "nonzero-final-offset": (
        Circuit(7).h(6).h(0).h(3),
        [("_rotate", 2), ("_hadamard_into", (2,)), ("_hadamard_into", (5,)), ("_rotate", 4)],
    ),
    # The control, on bit 5, wraps round to bit 1, below the target on bit 2.
    "cnot-wraps": (
        Circuit(7).h(6).h(5).cnot(5, 0),
        [("_hadamard_into", (5,)), ("_rotate", 2), ("_cnot_into", (1, 2)), ("_rotate", 4)],
    ),
}


@pytest.mark.parametrize("case", list(ROTATING_RUNS))
def test_low_run_rotates_each_slice_and_restores_it(case, monkeypatch):
    circuit, expected = ROTATING_RUNS[case]
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 6)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 1)
    low = [gate for gate in circuit.gates if max(gate.targets) < 6]
    steps = sim._low_run_steps(low)
    assert [(step.__name__, arg) for step, arg in steps] == expected
    rotate, shifts = sim._rotate, []

    def spy(src, dst, k):
        shifts.append(k)
        rotate(src, dst, k)

    monkeypatch.setattr(sim, "_rotate", spy)
    evolved = evolve(circuit).amplitudes
    assert shifts == [arg for name, arg in expected if name == "_rotate"] * 2  # two slices
    assert np.array_equal(evolved, reference_chain(new_zero_state(7).amplitudes, circuit.gates))


def test_low_run_skips_the_slices_that_hold_only_plus_zero(monkeypatch):
    # 18 qubits are 4 slices. The first low run (H on qubits 0-15) sees
    # X(17)|0...0>, one nonzero slice; the second sees four. Without the skip
    # every slice would take both runs' 16 Hadamards: 128 calls.
    hadamard, calls = sim._SLICE_KERNELS["H"], []

    def spy(src, dst, targets):
        calls.append(targets)
        hadamard(src, dst, targets)

    monkeypatch.setitem(sim._SLICE_KERNELS, "H", spy)
    circuit = bv_circuit("10110011100011101")
    evolved = evolve(circuit).amplitudes
    assert len(calls) == 16 + 4 * 16
    expected = reference_chain(new_zero_state(18).amplitudes, circuit.gates)
    assert evolved.tobytes() == expected.tobytes()


def test_low_run_skips_a_slice_only_when_its_bits_are_all_zero(monkeypatch):
    # Four 2^6-amplitude slices: all -0.0, all +0.0, +0.0 but for its last
    # amplitude, and random. H maps a pair of -0.0 to (-0.0, +0.0), so a check
    # by value would leave -0.0 where the gates write +0.0; one that read
    # only the first amplitude would skip the third slice. np.array_equal
    # cannot tell the signed zeros apart, so the bytes are compared.
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 6)
    amps = np.zeros(256)
    amps[:64] = -0.0
    amps[127] = 1.0
    amps[192:] = np.random.default_rng(3).normal(size=64)
    gates = [Gate("H", (0,)), Gate("CNOT", (5, 1)), Gate("H", (3,))]
    expected = reference_chain(amps, gates)
    assert np.signbit(expected[:64]).any() and not np.signbit(expected[:64]).all()
    sim._apply_low_run(amps, gates, np.ones(len(amps) >> sim._BLOCK_QUBITS, bool))
    assert amps.tobytes() == expected.tobytes()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    circuits(max_qubits=8),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([complex, float]),
    st.integers(0, 2**32 - 1),
)
# CNOT(1, 0) inside a low run: a 2-qubit block, so all three gates are blocked.
@example(Circuit(3).h(1).cnot(1, 0).h(0), 2, 2, 2, float, 0)
@example(ROTATING_RUNS["ends-in-scratch"][0], 6, 2, 1, float, 0)
@example(ROTATING_RUNS["nonzero-final-offset"][0], 6, 2, 1, float, 0)
@example(ROTATING_RUNS["cnot-wraps"][0], 6, 2, 1, float, 0)
# Four slices: three of +0.0 in the first low run and two in the second,
# where each worker's share holds one of them and one slice whose first
# amplitude is +0.0 but whose second is not.
@example(Circuit(8).x(0).h(7).h(1), 6, 2, 1, float, 0)
def test_evolve_and_apply_gate_equal_the_reference_kernels(
    circuit, block_qubits, workers, rows, dtype, seed
):
    # A block of 1-3 qubits sends most gates down the shared, cut path; one
    # of 5 or 6 qubits makes low runs rotate their slices.
    n = circuit.num_qubits
    rng = np.random.default_rng(seed)
    batch = Statevector(n, np.stack([random_state(rng, n, dtype).amplitudes for _ in range(rows)]))
    before = batch.amplitudes.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_BLOCK_QUBITS", block_qubits)
        patch.setattr(sim, "_cpu_count", lambda: workers)
        evolved = evolve(circuit).amplitudes
        batch_out = per_gate_chain(circuit, batch)
    assert np.array_equal(batch.amplitudes, before)  # apply_gate stays pure
    assert np.array_equal(evolved, reference_chain(new_zero_state(n).amplitudes, circuit.gates))
    assert np.array_equal(batch_out, reference_chain(before, circuit.gates))


def test_twenty_qubit_circuit_equals_the_reference_kernels():
    # The real block size and CPU count: low runs, cut full passes and both.
    circuit = Circuit(20, gates=random_gates(np.random.default_rng(4_669), 20, 40))
    expected = reference_chain(new_zero_state(20).amplitudes, circuit.gates)
    assert np.array_equal(evolve(circuit).amplitudes, expected)
    assert np.array_equal(per_gate_chain(circuit), expected)


def test_sixteen_qubits_are_one_low_run_on_the_calling_thread(monkeypatch):
    # A 16-qubit state is exactly one slice, so evolve applies all its gates
    # through the slice kernels, and with one live slice no thread starts.
    caller, threads = threading.current_thread(), set()
    for kind, kernel in sim._SLICE_KERNELS.items():

        def spy(src, dst, targets, kernel=kernel):
            threads.add(threading.current_thread())
            kernel(src, dst, targets)

        monkeypatch.setitem(sim._SLICE_KERNELS, kind, spy)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    circuit = Circuit(16, gates=random_gates(np.random.default_rng(16), 16, 40))
    expected = reference_chain(new_zero_state(16).amplitudes, circuit.gates)
    assert evolve(circuit).amplitudes.tobytes() == expected.tobytes()
    assert threads == {caller}


# ---------------------------------------------------------------------------
# The live mask: evolve runs a gate on a qubit at or above the block size only
# over the slice pairs that hold a live slice. An X on the top qubit first
# moves the one live slice far from slice 0, so the gates after it meet a
# partly live state.

# Six qubits under a 2-qubit block are 16 slices; slice bit j is qubit j + 2.
PARTLY_LIVE = (
    Circuit(6)
    .x(5)  # pairs slice 0 with 8: one X call; live {8}
    .h(2)  # pairs (8, 9): one H call; live {8, 9}
    .cnot(3, 4)  # no live slice has the control's bit set: no call
    .cnot(0, 3)  # a low control, a high target: two pairs; live {8-11}
    .cnot(3, 0)  # a high control, a low target: an X in slices 10 and 11
    .h(4)  # four pairs, each with one live slice
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(1, min(6, n - 1)), st.lists(gates_on(n), max_size=20)
        )
    ),
    st.integers(1, 3),
)
@example((6, 2, PARTLY_LIVE.gates[1:]), 1)
@example((6, 2, PARTLY_LIVE.gates[1:]), 3)
def test_evolve_over_live_slices_equals_the_reference_kernels(case, workers):
    n, block_qubits, gates = case
    circuit = Circuit(n, gates=[Gate("X", (n - 1,)), *gates])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_BLOCK_QUBITS", block_qubits)
        patch.setattr(sim, "_cpu_count", lambda: workers)
        evolved = evolve(circuit).amplitudes
    expected = reference_chain(new_zero_state(n).amplitudes, circuit.gates)
    assert evolved.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, rows", [(1, 5), (2, 3), (2, 7), (3, 3)])
def test_apply_gate_cuts_a_batch_into_slices_of_whole_rows(n, rows, monkeypatch):
    # 2^3-amplitude slices: rows of 2 or 4 amplitudes leave a shorter last
    # slice (10 = 8 + 2, 12 = 8 + 4, 28 = 3 * 8 + 4); rows of 8 are a slice each.
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 3)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    batch = np.random.default_rng(n * rows).normal(size=(rows, 2**n))
    gates = [Gate("H", (q,)) for q in range(n)] + [Gate("X", (n - 1,))]
    gates += [Gate("CNOT", (c, t)) for c in range(n) for t in range(n) if c != t]
    for gate in gates:
        expected = reference_chain(batch, [gate])
        assert apply_gate(Statevector(n, batch), gate).amplitudes.tobytes() == expected.tobytes()


def test_evolve_runs_high_gates_over_the_live_slice_pairs_only(monkeypatch):
    calls = Counter()

    def spy(kind):
        kernel = sim._PAIR_KERNELS[kind]

        def counted(view):
            calls[kind] += 1
            kernel(view)

        return counted

    for kind in sim.GATE_KINDS:
        monkeypatch.setitem(sim._PAIR_KERNELS, kind, spy(kind))
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 2)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    evolved = evolve(PARTLY_LIVE).amplitudes
    # A full pass of each gate would make 8 + 8 + 4 + 8 + 8 + 8 calls.
    assert calls == Counter({"X": 1 + 2, "H": 1 + 4, "CNOT": 2})
    expected = reference_chain(new_zero_state(6).amplitudes, PARTLY_LIVE.gates)
    assert evolved.tobytes() == expected.tobytes()


def test_an_x_on_a_high_qubit_moves_the_only_live_slice(monkeypatch):
    # Six qubits under a 2-qubit block are 16 slices. X(4) moves the one live
    # slice from 0 to 4, X(5) from 4 to 12, and CNOT(5, 3), whose control bit
    # slice 12 has set, from 12 to 14. Each low H after them visits that
    # slice alone, and each high gate runs one pair, by its lower slice.
    share, visited = sim._share, []

    def spy(task, mask):
        visited.append(np.flatnonzero(mask).tolist())
        share(task, mask)

    monkeypatch.setattr(sim, "_share", spy)
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 2)
    monkeypatch.setattr(sim, "_cpu_count", lambda: 2)
    circuit = Circuit(6).x(4).h(0).x(5).h(1).cnot(5, 3).h(0)
    evolved = evolve(circuit).amplitudes
    assert visited == [[0], [4], [4], [12], [12], [14]]
    expected = reference_chain(new_zero_state(6).amplitudes, circuit.gates)
    assert evolved.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Independent oracle above the block size: an {H, X, CNOT} circuit takes
# |0...0> to a stabilizer state, whose n generators a tableau tracks, after
# Aaronson and Gottesman's CHP (quant-ph/0406196). With no measurement the
# destabilizer half of their tableau is never read, so it is left out. Only
# tests use this; it predicts properties of a state, it simulates nothing.


class StabilizerTableau:
    """Generators (-1)^r[i] P_i of the state's stabilizer group.

    Row i of ``x`` and ``z`` holds P_i's bits, column j for qubit j: X for
    x alone, Z for z alone, Y for both.
    """

    def __init__(self, n):
        self.x = np.zeros((n, n), dtype=bool)
        self.z = np.eye(n, dtype=bool)  # |0...0> is stabilized by each Z_j
        self.r = np.zeros(n, dtype=bool)

    def apply(self, gate):
        x, z, r = self.x, self.z, self.r
        if gate.kind == "H":
            (a,) = gate.targets
            r ^= x[:, a] & z[:, a]
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
        elif gate.kind == "X":
            (a,) = gate.targets
            r ^= z[:, a]  # X anticommutes with Z and Y
        else:
            a, b = gate.targets
            r ^= x[:, a] & z[:, b] & ~(x[:, b] ^ z[:, a])
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]

    def support_rank(self):
        """GF(2) rank of the X bits; the state's support has 2^rank entries."""
        basis = []
        for row in self.x:
            mask = int(row @ (1 << np.arange(len(row))))
            for b in basis:
                mask = min(mask, mask ^ b)
            if mask:
                basis.append(mask)
        return len(basis)


def assert_stabilized(psi, tableau):
    """P·psi = psi for every signed generator P of the tableau.

    Y = iXZ, so P = (-1)^r i^(number of Ys) X^x Z^z. On index bit masks,
    Z^z multiplies amplitude k by (-1)^|k & z| and X^x moves amplitude k to
    k ^ x. A generator of a real state holds an even number of Ys.
    """
    index = np.arange(len(psi))
    for x, z, r in zip(tableau.x, tableau.z, tableau.r):
        ys = np.count_nonzero(x & z)
        assert ys % 2 == 0
        parity_signs = np.ones(1)
        for z_j in z:  # qubit j is bit j of the index
            parity_signs = np.concatenate([parity_signs, -parity_signs if z_j else parity_signs])
        sign = -1 if r ^ (ys // 2 % 2) else 1
        image = (sign * parity_signs * psi)[index ^ int(x @ (1 << np.arange(len(x))))]
        assert np.max(np.abs(image - psi)) <= 1e-12


@settings(max_examples=2, derandomize=True, database=None, deadline=None)
@given(st.integers(17, 20), st.integers(0, 2**32 - 1))
@example(20, 1_732)
def test_evolve_reaches_the_stabilizer_state_the_tableau_predicts(n, seed):
    # The real block size and CPU count: low runs and cut full passes both run.
    circuit = Circuit(n, gates=random_gates(np.random.default_rng(seed), n, 60))
    high = [max(gate.targets) >= sim._BLOCK_QUBITS for gate in circuit.gates]
    assert 0 < sum(high) < len(high)
    tableau = StabilizerTableau(n)
    for gate in circuit.gates:
        tableau.apply(gate)
    psi = evolve(circuit).amplitudes
    assert_stabilized(psi, tableau)
    rank = tableau.support_rank()
    magnitudes = np.abs(psi)
    support = np.flatnonzero(magnitudes > 1e-12)
    assert len(support) == 2**rank
    assert np.allclose(magnitudes[support], 2 ** (-rank / 2), rtol=0, atol=1e-12)
    counts = run(circuit, 1_000, seed)
    assert set(int(outcome, 2) for outcome in counts) <= set(support.tolist())


@st.composite
def batches(draw):
    """(n, gate, k, seed): a gate on n qubits and a k-row batch to apply it to."""
    n = draw(st.integers(1, 5))
    rows, seed = draw(st.integers(1, 8)), draw(st.integers(0, 2**32 - 1))
    return n, draw(gates_on(n)), rows, seed


@DIFFERENTIAL
@given(batches(), st.sampled_from([complex, float]))
def test_apply_gate_on_a_batch_equals_row_by_row(case, dtype):
    n, gate, k, seed = case
    rng = np.random.default_rng(seed)
    rows = [random_state(rng, n, dtype).amplitudes for _ in range(k)]
    result = apply_gate(Statevector(n, np.stack(rows)), gate)
    assert result.amplitudes.shape == (k, 2**n)
    expected = np.stack([apply_gate(Statevector(n, r), gate).amplitudes for r in rows])
    assert np.array_equal(result.amplitudes, expected)
    column_major = Statevector(n, np.asfortranarray(np.stack(rows)))
    assert np.array_equal(apply_gate(column_major, gate).amplitudes, expected)


# ---------------------------------------------------------------------------
# Measurement sampling


def test_basis_state_measures_deterministically():
    one = apply_gate(new_zero_state(1), Gate("X", (0,)))
    rng = make_rng(3)
    assert all(sample_measurement(one, rng) == 1 for _ in range(50))


def test_hadamard_sampling_is_balanced():
    plus = apply_gate(new_zero_state(1), Gate("H", (0,)))
    rng = make_rng(81)
    n = 100_000
    zeros = sum(sample_measurement(plus, rng) == 0 for _ in range(n))
    assert abs(zeros / n - 0.5) < 0.01
    _, p = stats.chisquare([zeros, n - zeros])
    assert p > 0.001


def test_bell_state_yields_only_correlated_outcomes():
    state = apply_gate(new_zero_state(2), Gate("H", (0,)))
    state = apply_gate(state, Gate("CNOT", (0, 1)))
    rng = make_rng(5)
    outcomes = {sample_measurement(state, rng) for _ in range(500)}
    assert outcomes == {0b00, 0b11}


def test_batch_sampling_equals_single_register_draws():
    rng = np.random.default_rng(29)
    # The last case is the width of a BB84 batch at its largest heatmap length.
    for n, k in ((1, 80), (2, 80), (4, 80), (1, 4096)):
        for dtype in (float, complex):
            rows = np.stack([random_state(rng, n, dtype).amplitudes for _ in range(k)])
            batch = sample_measurement(Statevector(n, rows), make_rng(61 + n))
            single_rng = make_rng(61 + n)
            singles = [sample_measurement(Statevector(n, r), single_rng) for r in rows]
            assert all(type(index) is int for index in singles)
            assert batch.tolist() == singles


def cumsum_draws(rows, seed):
    """Reference draws: per row, ``np.cumsum`` of ``|a|^2`` and one uniform,
    in row order; the outcome counts the sums, all but the last, at or below
    the target."""
    uniforms = make_rng(seed).random(len(rows))
    draws = []
    for row, u in zip(rows, uniforms):
        cum = np.cumsum(np.abs(row) ** 2)
        draws.append(int(np.count_nonzero(cum[:-1] <= u * cum[-1])))
    return draws


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_narrow_batch_running_sums_equal_per_row_cumsum_draws(n, dtype, monkeypatch):
    # A batch of more rows than outcomes sums one column at a time and any
    # other batch calls np.cumsum: 2^n - 1, 2^n and 2^n + 1 rows straddle
    # the switch. Zeros are scattered over the rows, one row holds only its
    # last outcome (starting the column loop at 0 moves its draw to outcome
    # 0 for a uniform below 1/2) and one row is all zeros (its draw clamps
    # to the last outcome).
    rng = np.random.default_rng(83 + n)
    width = 1 << n
    cumsum = np.cumsum
    for k in (width - 1, width, width + 1):
        rows = np.stack([random_state(rng, n, dtype).amplitudes for _ in range(k)])
        rows[rng.random(rows.shape) < 0.3] = 0
        rows[0] = 0
        rows[0, -1] = 1
        if k > 1:
            rows[-1] = 0
        expected = cumsum_draws(rows, seed=k)
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(np, "cumsum", lambda *a, **kw: calls.append(a) or cumsum(*a, **kw))
            draws = sample_measurement(Statevector(n, rows), make_rng(k))
        assert draws.tolist() == expected
        assert len(calls) == (0 if k > width else 1)


# ---------------------------------------------------------------------------
# Circuit runs


def test_run_empty_circuit():
    counts = run(Circuit(1), shots=100, seed=0)
    assert counts.counts == {"0": 100}


def test_run_x_circuit():
    counts = run(Circuit(1).x(0), shots=50, seed=0)
    assert counts.counts == {"1": 50}


def test_run_h_circuit_binomial_bounds():
    counts = run(Circuit(1).h(0), shots=10_000, seed=42)
    assert set(counts) == {"0", "1"}
    assert 4700 <= counts["0"] <= 5300
    assert 4700 <= counts["1"] <= 5300


def test_run_is_deterministic():
    circuit = Circuit(3).h(0).cnot(0, 2).x(1)
    a = run(circuit, shots=1000, seed=99)
    b = run(circuit, shots=1000, seed=99)
    assert a == b
    assert a.counts == b.counts


def test_run_rejects_zero_shots():
    with pytest.raises(ValueError):
        run(Circuit(1), shots=0, seed=1)


@pytest.mark.parametrize("shots", [0, -3, True, 2.0, "10", None])
def test_run_rejects_bad_shots(shots):
    with pytest.raises(ValidationError, match="shots"):
        run(Circuit(1), shots=shots, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0, "7", None])
def test_run_rejects_bad_seed(seed):
    with pytest.raises(ValidationError, match="seed"):
        run(Circuit(1), shots=1, seed=seed)


@pytest.mark.parametrize(
    "value, lo, hi", [(True, 0, 1), (2, 0, 1), (-1, 0, None), (0, 1, None), (1.0, 0, None), ("1", 0, 1)]
)
def test_check_int_rejects_what_is_not_an_integer_in_range(value, lo, hi):
    with pytest.raises(ValidationError) as excinfo:
        sim.check_int("count", value, lo, hi)
    assert excinfo.value.param == "count"


def test_check_int_returns_python_ints():
    for value in (3, np.int64(3), np.uint8(3)):
        checked = sim.check_int("count", value, 0, 3)
        assert type(checked) is int and checked == 3
    assert sim.check_int("count", 2**70, 1) == 2**70


@pytest.mark.parametrize(
    "value, dtype, length",
    [(5, None, None), ([[1], [1, 0]], None, None), ([[1, 0]], None, None),
     ([1, 0], bool, None), ([True], bool, 2), ("10", None, None)],
)
def test_check_row_rejects_scalars_ragged_nests_and_wrong_rows(value, dtype, length):
    with pytest.raises(ValidationError) as excinfo:
        sim.check_row("row", value, dtype, length)
    assert excinfo.value.param == "row"


def test_check_row_returns_the_row_as_an_array():
    flags = np.array([True, False])
    assert sim.check_row("row", flags, bool, 2) is flags
    assert sim.check_row("row", [1, 0]).tolist() == [1, 0]
    assert sim.check_row("row", []).shape == (0,)


def test_run_accepts_every_derived_seed():
    # derive_seed returns values up to 2^64 - 1; all of them are valid seeds.
    for seed in (0, 2**64 - 1, derive_seed(3, 1, 4), np.uint64(2**64 - 1)):
        assert run(Circuit(1).h(0), shots=4, seed=seed).shots == 4


def test_sampling_matches_born_rule_on_random_circuits():
    rng = np.random.default_rng(17)
    shots = 100_000
    for trial in range(4):
        gates = random_gates(rng, 3, 10)
        circuit = Circuit(3, gates=list(gates))
        counts = run(circuit, shots=shots, seed=1000 + trial)
        probs = np.abs(evolve(circuit).amplitudes) ** 2
        observed, expected = [], []
        for index, p in enumerate(probs):
            key = format(index, "03b")
            if p < 1e-12:
                assert key not in counts
            else:
                observed.append(counts.get(key, 0))
                expected.append(p * shots)
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.001


def test_counts_store_shots_as_a_python_int():
    assert type(run(Circuit(1), np.int32(3), 0).shots) is int
    assert type(Counts({"0": 2}, np.int64(2)).shots) is int


def test_counts_must_sum_to_shots():
    with pytest.raises(ValueError):
        Counts({"0": 3}, shots=4)


@pytest.mark.parametrize("tallies", [{"0": -1, "1": 2}, {"0": 0.5, "1": 0.5}])
def test_counts_from_a_dict_rejects_the_tallies_from_arrays_rejects(tallies):
    # Both used to build a Counts of one shot; from_arrays refuses a tally
    # below 1 and a non-integer tally.
    with pytest.raises(ValueError, match="tallies"):
        Counts(tallies, 1)
    with pytest.raises(ValueError, match="tallies"):
        from_arrays([0, 1], list(tallies.values()), 1, 1)


def test_counts_views_are_the_dicts():
    counts = Counts({"10": 2, "01": 1}, shots=3)
    for view in ("keys", "items", "values"):
        mine, theirs = getattr(counts, view)(), getattr(counts.counts, view)()
        assert type(mine) is type(theirs) and list(mine) == list(theirs)


def from_arrays(indices, tallies, num_qubits, shots):
    return Counts.from_arrays(np.array(indices), np.array(tallies), num_qubits, shots)


@pytest.mark.parametrize(
    "indices, tallies, num_qubits, shots",
    [
        pytest.param([[0], [1]], [[1], [1]], 2, 2, id="not-1-D"),
        pytest.param([0, 1], [2], 2, 2, id="unequal-lengths"),
        pytest.param([], [], 2, 0, id="empty"),
        pytest.param([0.0, 1.0], [1, 1], 2, 2, id="float-indices"),
        pytest.param([0, 1], [1.0, 1.0], 2, 2, id="float-tallies"),
        pytest.param([1, 1], [1, 1], 2, 2, id="repeated-index"),
        pytest.param([2, 1], [1, 1], 2, 2, id="decreasing-indices"),
        pytest.param([-1, 1], [1, 1], 2, 2, id="index-below-0"),
        pytest.param([1, 4], [1, 1], 2, 2, id="index-at-2^n"),
        pytest.param([0, 1], [0, 2], 2, 2, id="tally-below-1"),
        pytest.param([0, 1], [1, 1], 2, 3, id="sum-is-not-shots"),
        pytest.param([0], [1], sim.QUBIT_CAP + 1, 1, id="num-qubits-above-cap"),
    ],
)
def test_counts_from_bad_arrays_raise(indices, tallies, num_qubits, shots):
    with pytest.raises(ValueError):
        from_arrays(indices, tallies, num_qubits, shots)


def test_counts_from_arrays_and_from_a_dict_are_equal():
    arrays = from_arrays([0, 2, 7], [4, 1, 2], 3, 7)
    labels = Counts({"111": 2, "000": 4, "010": 1}, 7)
    assert arrays == labels and labels == arrays
    assert labels.arrays is None
    assert arrays != Counts({"111": 2, "000": 4, "011": 1}, 7)
    assert arrays != from_arrays([0, 2, 7], [4, 1, 3], 3, 8)
    assert arrays != dict(arrays)


def test_run_counts_build_no_labels_for_len_or_a_histogram(monkeypatch):
    def spy(*args):
        raise AssertionError("labels were built")

    counts = run(qrand_circuit(10), shots=20_000, seed=8)
    monkeypatch.setattr(sim, "_bitstrings", spy)
    assert len(counts) == len(counts.arrays[0]) == 2**10
    assert qrand._interpret({"n": 10}, counts).count("\n") == 2**10
    assert "counts" not in vars(counts)


def test_assigned_counts_are_what_mapping_access_reads():
    counts = run(qrand_circuit(4), shots=100, seed=2)
    counts.counts = {"0000": 100}
    assert dict(counts) == {"0000": 100} and list(counts.items()) == [("0000", 100)]
    assert (len(counts), counts["0000"], "0001" in counts) == (1, 100, False)


# ---------------------------------------------------------------------------
# The histogram sampler: run looks each shot up in a guide table when the
# state has no more outcomes than the shots and _CHUNK, and otherwise draws,
# sorts and tallies _CHUNK uniforms at a time. The reference searches every
# uniform of one unsorted draw and counts with np.unique.

KEY_19 = "1011001110001111010"  # bv_circuit(KEY_19) has 20 qubits


def evolved_once(circuit):
    """A stand-in for ``sim.evolve`` that evolves ``circuit`` once, then
    returns a fresh copy per call: ``run`` overwrites the state it gets."""
    state = evolve(circuit)
    return lambda _: Statevector(state.num_qubits, state.amplitudes.copy())


def reference_counts(circuit, shots, seed):
    cum = np.cumsum(np.abs(sim.evolve(circuit).amplitudes) ** 2)
    uniforms = make_rng(seed).random(shots)
    indices = np.searchsorted(cum[:-1], uniforms * cum[-1], side="right")
    values, tallies = np.unique(indices, return_counts=True)
    n = circuit.num_qubits
    return {format(int(v), f"0{n}b"): int(c) for v, c in zip(values, tallies)}


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(circuits(), st.integers(1, 7), st.integers(1, 200), st.integers(0, 2**64 - 1))
@example(qrand_circuit(3), 7, 1, 0)  # one shot
@example(qrand_circuit(3), 7, 5, 0)  # below one chunk, fewer shots than outcomes
@example(qrand_circuit(3), 7, 200, 0)  # not a multiple of the chunk
@example(qrand_circuit(6), 5, 200, 0)  # a multiple of the chunk
# Guide table: no more outcomes than the shots and the chunk.
@example(qrand_circuit(2), 4, 200, 0)
@example(qrand_circuit(2), 7, 9, 1)
@example(Circuit(3).x(0), 8, 50, 2)  # one outcome; the last index has no mass
@example(Circuit(3).h(0).h(1), 8, 200, 3)  # the upper half has no mass
@example(bv_circuit("1"), 7, 60, 4)  # outcomes 1 and 3 only
# Per-shot search with outcomes of no mass, the last index included.
@example(Circuit(3).x(0), 7, 50, 2)
@example(bv_circuit("101"), 7, 60, 4)  # 16 outcomes, two with mass
def test_chunked_run_equals_one_unsorted_draw(circuit, chunk, shots, seed):
    calls = Counter()

    def spy(name):
        search = getattr(sim, name)

        def counted(*args):
            calls[name] += 1
            return search(*args)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_CHUNK", chunk)
        for name in ("_search", "_guide"):
            patch.setattr(sim, name, spy(name))
        counts = run(circuit, shots, seed)
    assert counts.counts == reference_counts(circuit, shots, seed)
    # One guide table per run when a chunk can hold every outcome, else one
    # search per chunk.
    dense = 2**circuit.num_qubits <= min(shots, chunk)
    chunks = -(-shots // chunk)
    assert calls == Counter({"_guide": 1} if dense else {"_search": chunks})


class FixedUniforms:
    """A stand-in for ``sim.make_rng``'s generator that draws ``uniforms`` in
    order."""

    def __init__(self, uniforms):
        self.uniforms = uniforms
        self.drawn = 0

    def random(self, out):
        out[:] = self.uniforms[self.drawn : self.drawn + len(out)]
        self.drawn += len(out)
        return out


def test_guide_table_counts_what_the_shot_search_finds(monkeypatch):
    # Random uniforms never land on a cell bound j/8 or an edge; these do, on
    # edges that zero-mass outcomes share, and the last outcomes have no mass.
    # 1.0, outside random()'s range, stands in for a target that rounds onto
    # the total mass, which both clamp to the last outcome.
    cum = np.cumsum([0.25, 0.0, 0.25, 0.5, 0.0, 0.0, 0.0, 0.0])
    bounds = np.arange(8) / 8
    uniforms = np.concatenate((bounds, [0.25, 0.5, 0.6, 1 - 2**-53, 1.0]))
    per_shot = np.bincount(sim._search(cum, uniforms), minlength=len(cum))
    assert per_shot.tolist() == [2, 0, 3, 7, 0, 0, 0, 1]
    monkeypatch.setattr(sim, "make_rng", lambda seed: FixedUniforms(uniforms))
    monkeypatch.setattr(sim, "_SAMPLE_BLOCK", 3)
    sampled = cum.copy()
    assert sim._sample_dense(sampled, len(uniforms), 0).tolist() == per_shot.tolist()
    assert sampled.tobytes() == cum.tobytes()  # the +inf sentinel is gone


@pytest.mark.parametrize(
    "circuit", [qrand_circuit(10), Circuit(10).h(0).h(3).cnot(3, 7).x(9)], ids=["qrand", "sparse"]
)
@pytest.mark.parametrize(
    "block, shots",
    [
        (None, 2**10),  # as many shots as outcomes, in one block
        (None, 2 * 2**15 + 3),  # not a multiple of the block
        (64, 2**10),  # 16 blocks
        (64, 1_000),  # 16 blocks, the last one short
    ],
)
def test_guide_table_run_equals_one_unsorted_draw(circuit, block, shots, monkeypatch):
    if block is not None:
        monkeypatch.setattr(sim, "_SAMPLE_BLOCK", block)
    assert run(circuit, shots, 77).counts == reference_counts(circuit, shots, 77)


def test_guide_table_falls_back_to_a_binary_search(monkeypatch):
    # Outcomes 0-13 hold 1e-6 each, so all their edges lie in guide cell 0 of
    # 16: a shot there whose target passes the first of them lies past its
    # cell's entry, and a binary search places it.
    probabilities = np.full(16, 1e-6)
    probabilities[14:] = (1 - probabilities[:14].sum()) / 2
    state = Statevector(4, np.sqrt(probabilities))
    monkeypatch.setattr(sim, "evolve", lambda _: Statevector(4, state.amplitudes.copy()))
    expected = reference_counts(Circuit(4), 4_000, 5)
    searched = []
    search = np.searchsorted

    def spy(a, v, side="left", sorter=None):
        searched.append(len(v))
        return search(a, v, side=side, sorter=sorter)

    monkeypatch.setattr(np, "searchsorted", spy)
    assert run(Circuit(4), 4_000, 5).counts == expected
    # One search builds the guide table's 16 cells; the rest place late shots.
    assert searched[0] == 16 and sum(searched[1:]) > 0


def late_state(n):
    """A 2^n-outcome state on which nearly every guide-table shot is late.

    Outcome 0 holds a thousandth of a cell's mass and the outcomes after it
    one cell's mass each, the last taking the rest: the running sum passes
    each cell's lower bound just above it, so a shot in cell c lies past the
    cell's entry c unless it is in the cell's lowest thousandth.
    """
    probabilities = np.full(2**n, 2.0**-n)
    probabilities[0] = 1e-3 * 2.0**-n
    probabilities[-1] = 1 - probabilities[:-1].sum()
    return Statevector(n, np.sqrt(probabilities))


def test_guide_table_places_blocks_of_late_shots(monkeypatch):
    state = late_state(12)
    monkeypatch.setattr(sim, "evolve", lambda _: Statevector(12, state.amplitudes.copy()))
    searched = []
    search = np.searchsorted

    def spy(a, v, side="left", sorter=None):
        searched.append(len(v))
        return search(a, v, side=side, sorter=sorter)

    with monkeypatch.context() as patch:
        patch.setattr(np, "searchsorted", spy)
        counts = run(Circuit(12), 1 << 16, 9)
    assert sum(searched[1:]) > 0.99 * (1 << 16)
    assert counts.counts == reference_counts(Circuit(12), 1 << 16, 9)
    # Late shots are placed block by block, so their buffers are one block's
    # whatever the number of shots.
    run(Circuit(12), 1, 3)  # the first run pays numpy's lazy allocations
    one = peak_bytes(lambda: run(Circuit(12), 1 << 16, 3))
    sixteen = peak_bytes(lambda: run(Circuit(12), 16 << 16, 3))
    assert sixteen <= 1.1 * one


@pytest.mark.parametrize("shift", [0, 16])
def test_running_sum_equals_one_unblocked_cumsum(shift, monkeypatch):
    # Eight 2^3-amplitude blocks: one of random amplitudes, two of +0.0, one of
    # -0.0 (whose squares are +0.0, though its bits are not zero), one of +0.0,
    # one random, two of +0.0. Shifted by 16, the first two blocks are +0.0.
    monkeypatch.setattr(sim, "_BLOCK_QUBITS", 3)
    rng = np.random.default_rng(11)
    amps = np.zeros(64)
    amps[:8] = rng.normal(size=8)
    amps[24:32] = -0.0
    amps[40:48] = rng.normal(size=8)
    amps = np.roll(amps / np.linalg.norm(amps), shift)
    expected = np.cumsum(np.square(amps))
    assert sim._running_sum(amps.copy()).tobytes() == expected.tobytes()
    monkeypatch.setattr(sim, "evolve", lambda _: Statevector(6, amps.copy()))
    for shots in (5, 1_000):
        assert run(Circuit(6), shots, 3).counts == reference_counts(Circuit(6), shots, 3)


def test_run_across_a_real_chunk_edge_equals_one_unsorted_draw(monkeypatch):
    circuit = bv_circuit(KEY_19)
    monkeypatch.setattr(sim, "evolve", evolved_once(circuit))
    shots = sim._CHUNK + 3
    assert run(circuit, shots, 20_917).counts == reference_counts(circuit, shots, 20_917)


@pytest.mark.parametrize("n", [1, 16, 20])
def test_counts_keys_are_ascending_n_bit_strings(n):
    counts = run(qrand_circuit(n), shots=20_000, seed=n)
    assert "counts" not in vars(counts)  # the labels are built below, on first read
    keys = list(counts)
    assert keys == sorted(keys)
    assert all(type(key) is str and len(key) == n and not set(key) - {"0", "1"} for key in keys)
    assert all(type(count) is int for count in counts.values())


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workers", [1, 4])
def test_run_memory_does_not_grow_with_shots(workers, monkeypatch):
    # 2^16 shots reach all 4096 outcomes, so only the number of blocks differs,
    # and the number of CPUs changes neither peak.
    monkeypatch.setattr(sim, "_cpu_count", lambda: workers)
    circuit = qrand_circuit(12)
    run(circuit, 1, 3)  # the first run pays numpy's lazy allocations
    one = peak_bytes(lambda: run(circuit, 1 << 16, 3))
    sixteen = peak_bytes(lambda: run(circuit, 16 << 16, 3))
    assert sixteen <= 1.1 * one


def test_qrand_hist_run_memory():
    # 10^6 shots of 2^16 outcomes: the running sum, its guide table, the
    # running sum at each guide entry, the counts by cell and the tally
    # (0.5 MB each), and one block of 2^15 uniforms with their cells and
    # those cells' running sums (0.25 MB each); no labels, which are built
    # on first read.
    circuit = qrand_circuit(16)
    run(circuit, 1, 3)  # the first run pays numpy's lazy allocations
    assert peak_bytes(lambda: run(circuit, 10**6, 3)) < 6e6


def test_evolve_memory_is_the_state_and_one_slice_per_worker():
    # Each worker's low runs alternate between the state's slice and one
    # scratch slice; no kernel or rotation holds a temporary of its own.
    circuit = bv_circuit(KEY_19)
    evolve(circuit)  # the first run pays numpy's lazy allocations
    slice_bytes = (1 << sim._BLOCK_QUBITS) * 8
    workers = min(sim._cpu_count(), 1 << circuit.num_qubits - sim._BLOCK_QUBITS)
    bound = (1 << circuit.num_qubits) * 8 + workers * (slice_bytes + 16_384)
    assert peak_bytes(lambda: evolve(circuit)) <= bound


def test_run_memory_has_no_tally_the_size_of_the_state():
    # Evolving holds one state buffer; sampling must not add a second.
    circuit = bv_circuit(KEY_19)
    state_bytes = (1 << circuit.num_qubits) * 8
    assert peak_bytes(lambda: run(circuit, 1, 5)) < 1.2 * state_bytes


def test_run_at_the_qubit_cap_holds_one_state():
    # evolve updates the zero state in place, and run squares and sums it in
    # place: the largest register peaks at one state, not two.
    state_bytes = (1 << sim.QUBIT_CAP) * 8
    assert peak_bytes(lambda: run(qrand_circuit(sim.QUBIT_CAP), 1, 24)) <= 1.1 * state_bytes


def test_sampling_memory_is_about_one_state(monkeypatch):
    # With evolve done beforehand, run holds one array of the state's size:
    # the fresh copy, which it turns into the running sum of probabilities.
    # A tally of that size, even one made sparse at once, would be a second.
    circuit = bv_circuit(KEY_19)
    monkeypatch.setattr(sim, "evolve", evolved_once(circuit))
    run(circuit, 1, 5)  # the first run pays numpy's lazy allocations
    state_bytes = (1 << circuit.num_qubits) * 8
    assert peak_bytes(lambda: run(circuit, 1, 5)) < 1.5 * state_bytes
