"""Bernstein-Vazirani key recovery.

The hidden key s defines the parity function f(x) = s.x mod 2. Classically
recovering s costs one oracle query per bit; quantumly a single query
suffices: a phase oracle built from one CNOT per set key bit flips the sign
of each amplitude by (-1)^(s.x), and Hadamards turn that phase pattern back
into the basis state |s>. The measured input register is therefore the key
itself, with certainty, so a single run already gives the answer.

Qubit layout: key character i (leftmost is position 0) rides on input qubit
n-1-i, the phase ancilla is qubit n. Under the package bit-ordering this
makes the measured input register print byte-identical to the key as typed;
the ancilla is the first printed character and is never part of the result.

:func:`bv_circuit` checks its key with :data:`KEY`, the descriptor's spec,
which caps it at ``QUBIT_CAP - 1`` bits for the ancilla. The classical
oracle builds no circuit and has no cap.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Callable

from ..errors import ValidationError
from ..framework import AlgorithmDescriptor, ParamSpec, Params
from ..sim import QUBIT_CAP, Circuit, Counts, check_int, check_type

KEY = ParamSpec(
    "key", "bitstring", description="hidden key the oracle encodes", max_len=QUBIT_CAP - 1
)
_ORACLE_KEY = ParamSpec("key", "bitstring")
_CANDIDATE = ParamSpec("x", "bitstring")


def classical_oracle(key: str, x: str) -> int:
    """f(x) = sum_i key_i * x_i mod 2."""
    _ORACLE_KEY.check(key)
    _CANDIDATE.check(x)
    if len(x) != len(key):
        raise ValidationError("x", f"candidate length {len(x)} != key length {len(key)}")
    return sum(int(k) & int(c) for k, c in zip(key, x)) % 2


@dataclass(frozen=True)
class BvSolveResult:
    key: str
    queries: int


def classical_solve(oracle: Callable[[str], int], n: int) -> BvSolveResult:
    """Recover the key with exactly n queries, one unit vector per bit.

    The oracle must answer each query with the integer 0 or 1 (not a bool),
    else a ValidationError names ``oracle``.
    """
    if not callable(oracle):
        raise ValidationError("oracle", f"expected a callable, got {oracle!r}")
    check_int("n", n, 1)
    bits = []
    for i in range(n):
        probe = "0" * i + "1" + "0" * (n - 1 - i)
        bits.append(str(check_int("oracle", oracle(probe), 0, 1)))
    return BvSolveResult("".join(bits), queries=n)


def bv_circuit(key: str) -> Circuit:
    """Full recovery circuit: X on the ancilla, H everywhere, one CNOT per
    set key bit (the oracle), then H on the inputs; running it measures
    every qubit.

    Contains exactly popcount(key) CNOTs. The ancilla gets no trailing H;
    its measured bit is noise and interpretation drops it.
    """
    KEY.check(key)
    n = len(key)
    circuit = Circuit(n + 1)
    circuit.x(n)
    for q in range(n + 1):
        circuit.h(q)
    for i, bit in enumerate(key):
        if bit == "1":
            circuit.cnot(n - 1 - i, n)
    for q in range(n):
        circuit.h(q)
    return circuit


def recovered_key(outcome: str) -> str:
    """Drop the ancilla bit (printed first) from a measured outcome."""
    return check_type("outcome", outcome, str)[1:]


def _interpret(params: Params, counts: Counts) -> str:
    # The ancilla's bit is a fair coin, so shots are tallied by recovered key.
    keys = collections.Counter()
    for outcome, count in counts.items():
        keys[recovered_key(outcome)] += count
    key = max(keys.items(), key=lambda item: (item[1], item[0]))[0]
    suffix = "" if counts.shots == 1 else f" (all {counts.shots} shots agree)" if len(
        keys
    ) == 1 else f" (most frequent of {len(keys)} keys)"
    return f"recovered key: {key}{suffix}"


def descriptor() -> AlgorithmDescriptor:
    return AlgorithmDescriptor(
        name="bernstein-vazirani",
        description="recover a hidden bitstring with a single oracle query",
        param_specs=[KEY],
        build=lambda params: bv_circuit(params["key"]),
        interpret=_interpret,
    )
