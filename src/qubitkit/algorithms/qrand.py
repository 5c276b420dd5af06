"""Quantum random number generation: n Hadamards, measure, read an integer.

The pre-measurement state is the uniform superposition, so the measured
bitstring is a uniform draw from [0, 2^n - 1].
"""

from __future__ import annotations

from ..backends import BackendRegistry, LOCAL_BACKEND_NAME
from ..errors import ValidationError
from ..framework import AlgorithmDescriptor, ParamSpec, Params
from ..sim import QUBIT_CAP, Circuit, Counts, check_count


def qrand_circuit(n: int) -> Circuit:
    """H on each of n qubits, then measure all."""
    check_count("n", n)
    if not 1 <= n <= QUBIT_CAP:
        raise ValidationError("n", f"must be within 1..{QUBIT_CAP}, got {n}")
    circuit = Circuit(n)
    for q in range(n):
        circuit.h(q)
    return circuit.measure_all()


def qrand_value(
    n: int,
    backends: BackendRegistry,
    backend_name: str = LOCAL_BACKEND_NAME,
    seed: int | None = None,
) -> int:
    """One uniform draw from [0, 2^n - 1]."""
    result = backends.execute(backend_name, qrand_circuit(n), shots=1, seed=seed)
    (outcome,) = result.counts
    return int(outcome, 2)


def _interpret(params: Params, counts: Counts) -> str:
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


def descriptor() -> AlgorithmDescriptor:
    return AlgorithmDescriptor(
        name="qrand",
        description="uniform random integer from measuring n qubits in superposition",
        param_specs=[
            ParamSpec(
                "n",
                "natural_number",
                description="number of qubits; the result lies in [0, 2^n - 1]",
                min_value=1,
                max_value=QUBIT_CAP,
            )
        ],
        build=lambda params: qrand_circuit(params["n"]),
        interpret=_interpret,
        explain=(
            "Each qubit is put into an equal superposition and measured, so every "
            "bit is an unbiased coin flip; the bits read as one binary number. "
            "Single runs report that number, repeated runs report the histogram."
        ),
    )
