import pytest

from qubitkit import sim
from qubitkit.algorithms import bb84, default_algorithms
from qubitkit.backends import (
    BackendInfo,
    LOCAL_BACKEND_NAME,
    LocalStatevectorBackend,
    default_registry,
)
from qubitkit.errors import CapacityError, UnknownBackendError, ValidationError
from qubitkit.framework import parse_params, run_algorithm
from qubitkit.sim import Circuit


class StubBackend:
    def __init__(self, name="stub"):
        self.info = BackendInfo(name, "test stub", 2)

    def run(self, circuit, shots, seed):
        raise NotImplementedError


def test_a_registered_backend_joins_the_local_one():
    registry = default_registry()
    stub = StubBackend()
    registry.register(stub)
    assert registry.get("stub") is stub
    assert registry.get(LOCAL_BACKEND_NAME).info.name == LOCAL_BACKEND_NAME


def test_duplicate_registration_rejected():
    # Both registries used to raise a bare ValueError, not a qubitkit error.
    with pytest.raises(ValidationError) as excinfo:
        default_registry().register(LocalStatevectorBackend())
    assert excinfo.value.param == "name"
    with pytest.raises(ValidationError) as excinfo:
        default_algorithms().register(bb84.descriptor())
    assert excinfo.value.param == "name"


def test_execute_is_deterministic_given_seed():
    registry = default_registry()
    circuit = Circuit(1).h(0)
    a = registry.execute(LOCAL_BACKEND_NAME, circuit, 100, seed=7)
    b = registry.execute(LOCAL_BACKEND_NAME, circuit, 100, seed=7)
    assert a == b


def test_unknown_backend():
    with pytest.raises(UnknownBackendError):
        default_registry().execute("nope", Circuit(1), 1, seed=0)


def test_unhashable_backend_name_is_unknown():
    # Each used to raise TypeError: unhashable type: 'list'.
    registry = default_registry()
    with pytest.raises(UnknownBackendError):
        registry.get(["x"])
    with pytest.raises(UnknownBackendError):
        registry.execute(["x"], Circuit(1), 1, seed=0)
    with pytest.raises(UnknownBackendError):
        bb84.run_exchange(4, 0.5, registry, backend_name=["x"], seed=0)


def test_circuit_over_backend_capacity():
    registry = default_registry()
    with pytest.raises(CapacityError):
        registry.execute(LOCAL_BACKEND_NAME, Circuit(30), 1, seed=0)


def test_execute_requires_a_seed():
    circuit = Circuit(1).h(0)
    with pytest.raises(ValidationError, match="seed"):
        default_registry().execute(LOCAL_BACKEND_NAME, circuit, 10, seed=None)


class RunOnlyBackend:
    """The whole backend protocol: ``info`` and ``run``."""

    info = BackendInfo("run-only", "sim.run with nothing else", sim.QUBIT_CAP)

    def run(self, circuit, shots, seed):
        return sim.run(circuit, shots, seed)


@pytest.mark.parametrize(
    "name, raw, shots",
    [("qrand", ["5"], 1), ("qrand", ["5"], 300), ("bernstein-vazirani", ["1011"], 4)],
)
def test_a_backend_needs_only_info_and_run(name, raw, shots):
    registry = default_registry()
    registry.register(RunOnlyBackend())
    descriptor = default_algorithms().get(name)
    params = parse_params(descriptor, raw)
    for seed in (0, 41):
        runs = [
            run_algorithm(descriptor, params, registry, backend, shots, seed)
            for backend in ("run-only", LOCAL_BACKEND_NAME)
        ]
        assert runs[0].text == runs[1].text and runs[0].counts == runs[1].counts
