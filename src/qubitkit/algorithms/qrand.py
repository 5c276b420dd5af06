"""Quantum random number generation: n Hadamards, measure, read an integer.

The pre-measurement state is the uniform superposition, so every measured
bit is an unbiased coin flip and the measured bitstring, read as one binary
number, is a uniform draw from [0, 2^n - 1]. A single run reports that
number; repeated runs report the histogram of outcomes.
"""

from __future__ import annotations

import numpy as np

from ..framework import AlgorithmDescriptor, ParamSpec, Params
from ..sim import QUBIT_CAP, Circuit, Counts, outcome_bits

N = ParamSpec(
    "n",
    "natural_number",
    description="number of qubits; the result lies in [0, 2^n - 1]",
    max_value=QUBIT_CAP,
)


def qrand_circuit(n: int) -> Circuit:
    """H on each of n qubits; running it measures every qubit."""
    N.check(n)
    circuit = Circuit(n)
    for q in range(n):
        circuit.h(q)
    return circuit


def _interpret(params: Params, counts: Counts) -> str:
    n = params["n"]
    top = 2**n - 1
    if counts.shots == 1:
        (outcome,) = counts
        return f"random value: {int(outcome, 2)} (range 0..{top})"
    header = f"outcome distribution over {counts.shots} shots (range 0..{top}):"
    # Each text-sized copy is freed once the next one is made. replace drops
    # the one pad byte value at memchr speed.
    text = _histogram(header, counts, n).tobytes().replace(_PAD, b"")
    return text.decode("ascii")


# Fills the count fields left of each count's leading digit; never in the text.
_PAD = b"\0"


def _histogram(header: str, counts: Counts, n: int) -> np.ndarray:
    """ASCII bytes of ``header``, then per outcome in order a line
    ``"\\n  <index> (<label>): <count>"`` with the index right-aligned to
    the width of 2^n − 1, and ``_PAD`` bytes left of each count to pad it to
    the widest.

    Every line is one row of a ``(outcomes, row)`` array after the header.
    """
    index, tallies = counts.arrays
    k = len(index)
    fields = [3, len(str(2**n - 1)), 2, n, 3, len(str(tallies.max()))]
    buffer = np.empty(len(header) + k * sum(fields), np.uint8)
    buffer[: len(header)] = _ascii(header)
    rows = buffer[len(header) :].reshape(k, -1)
    lead, number, opening, label, closing, tally = np.split(
        rows, np.cumsum(fields[:-1]), axis=1
    )
    lead[:] = _ascii("\n  ")
    _decimal(number, index, ord(" "))
    opening[:] = _ascii(" (")
    np.add(outcome_bits(index, n), ord("0"), out=label)
    closing[:] = _ascii("): ")
    _decimal(tally, tallies, _PAD[0])
    return buffer


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), np.uint8)


def _decimal(out: np.ndarray, values: np.ndarray, fill: int) -> None:
    """Write ``values`` (>= 0) in decimal, right-aligned, into the ``(k, w)``
    byte view ``out``; positions left of each leading digit get ``fill``.

    The digits are worked out in the narrowest unsigned dtype that holds
    the largest value, whose divisions cost less than int64's.
    """
    values = values.astype(np.min_scalar_type(values.max()))
    out[:, -1] = values % 10 + ord("0")
    rest = values // 10
    for column in range(out.shape[1] - 2, -1, -1):
        out[:, column] = np.where(rest > 0, rest % 10 + ord("0"), fill)
        rest //= 10


def descriptor() -> AlgorithmDescriptor:
    return AlgorithmDescriptor(
        name="qrand",
        description="uniform random integer from measuring n qubits in superposition",
        param_specs=[N],
        build=lambda params: qrand_circuit(params["n"]),
        interpret=_interpret,
    )
