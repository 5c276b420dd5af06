"""Execution backends: enumerate them, pick one, run circuits on it.

Only local simulator backends ship here (guest-only model); the registry
surface is the seam where remote backends would plug in. A backend object
provides:

* ``info`` — a :class:`BackendInfo`
* ``run(circuit, shots, seed)`` — sample counts

``LocalStatevectorBackend.evolve`` is not part of that protocol and nothing
in the library calls it. It stays only as a boundary the benchmark's traced
pass wraps, until the trace targets move off it (ROADMAP item 1).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from . import sim
from .errors import CapacityError, UnknownBackendError

LOCAL_BACKEND_NAME = "local_statevector"


@dataclass(frozen=True)
class BackendInfo:
    name: str
    description: str
    max_qubits: int


class LocalStatevectorBackend:
    """Embedded dense statevector simulator."""

    info = BackendInfo(
        name=LOCAL_BACKEND_NAME,
        description="embedded dense statevector simulator (H, X, CNOT)",
        max_qubits=sim.QUBIT_CAP,
    )

    def run(self, circuit: sim.Circuit, shots: int, seed: int) -> sim.Counts:
        return sim.run(circuit, shots, seed)

    def evolve(self, circuit: sim.Circuit) -> sim.Statevector:
        return sim.evolve(circuit)


@dataclass
class ExecutionResult:
    """Counts plus the seed that replays the run exactly."""

    counts: sim.Counts
    seed: int


def fresh_seed() -> int:
    """Entropy-derived seed; always recorded so any run is replayable."""
    return secrets.randbits(63)


class BackendRegistry:
    """Named backends, listed in registration order."""

    def __init__(self):
        self._backends: dict[str, object] = {}

    def register(self, backend) -> None:
        name = backend.info.name
        if name in self._backends:
            raise ValueError(f"backend name {name!r} already registered")
        self._backends[name] = backend

    def list_backends(self) -> list[BackendInfo]:
        return [b.info for b in self._backends.values()]

    def get(self, name: str):
        try:
            return self._backends[name]
        except KeyError:
            known = ", ".join(self._backends) or "none"
            raise UnknownBackendError(
                f"no backend named {name!r} (available: {known})"
            ) from None

    def execute(
        self,
        backend_name: str,
        circuit: sim.Circuit,
        shots: int,
        seed: int | None = None,
    ) -> ExecutionResult:
        """Run a circuit; a missing seed is drawn from entropy and recorded."""
        backend = self.get(backend_name)
        if circuit.num_qubits > backend.info.max_qubits:
            raise CapacityError(
                f"circuit needs {circuit.num_qubits} qubits, backend "
                f"{backend_name!r} caps at {backend.info.max_qubits}"
            )
        effective_seed = fresh_seed() if seed is None else seed
        counts = backend.run(circuit, shots, effective_seed)
        return ExecutionResult(counts, effective_seed)


def default_registry() -> BackendRegistry:
    registry = BackendRegistry()
    registry.register(LocalStatevectorBackend())
    return registry
