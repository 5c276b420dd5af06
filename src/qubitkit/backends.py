"""Execution backends: register them, pick one, run circuits on it.

Only local simulator backends ship here (guest-only model); the registry
surface is the seam where remote backends would plug in. A backend object
provides:

* ``info`` — a :class:`BackendInfo`
* ``run(circuit, shots, seed)`` — the ``sim.Counts`` that ``sim.run``
  builds, with its ``arrays`` (qrand's histogram reads them)

:meth:`BackendRegistry.execute` runs a circuit on the caller's seed and
returns its ``sim.Counts``; ``framework.run_algorithm`` resolves that seed.

``LocalStatevectorBackend.evolve`` is not part of that protocol and nothing
in the library calls it. It stays only as a boundary the benchmark's traced
pass wraps, until the trace targets move off it (ROADMAP item 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import sim
from .errors import CapacityError, UnknownBackendError, ValidationError

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


class BackendRegistry:
    """Named backends, looked up by name."""

    def __init__(self):
        self._backends: dict[str, object] = {}

    def register(self, backend) -> None:
        """Add a backend under its ``info.name``; one without a
        :class:`BackendInfo` ``info`` named by a ``str`` and a callable
        ``run`` raises a ValidationError naming ``backend``."""
        info = getattr(backend, "info", None)
        if not (
            isinstance(info, BackendInfo)
            and isinstance(info.name, str)
            and callable(getattr(backend, "run", None))
        ):
            raise ValidationError(
                "backend", f"expected a str-named BackendInfo and a run method, got {backend!r}"
            )
        name = info.name
        if name in self._backends:
            raise ValidationError("name", f"backend {name!r} already registered")
        self._backends[name] = backend

    def get(self, name: str):
        try:
            return self._backends[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            known = ", ".join(self._backends) or "none"
            raise UnknownBackendError(
                f"no backend named {name!r} (available: {known})"
            ) from None

    def execute(
        self,
        backend_name: str,
        circuit: sim.Circuit,
        shots: int,
        seed: int,
    ) -> sim.Counts:
        """Run a circuit on the named backend with the caller's seed."""
        sim.check_type("circuit", circuit, sim.Circuit)
        backend = self.get(backend_name)
        if circuit.num_qubits > backend.info.max_qubits:
            raise CapacityError(
                f"circuit needs {circuit.num_qubits} qubits, backend "
                f"{backend_name!r} caps at {backend.info.max_qubits}"
            )
        return backend.run(circuit, shots, seed)


def default_registry() -> BackendRegistry:
    registry = BackendRegistry()
    registry.register(LocalStatevectorBackend())
    return registry
