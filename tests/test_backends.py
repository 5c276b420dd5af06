import pytest

from qubitkit.backends import (
    BackendInfo,
    LOCAL_BACKEND_NAME,
    LocalStatevectorBackend,
    default_registry,
)
from qubitkit.errors import CapacityError, UnknownBackendError
from qubitkit.sim import Circuit


class StubBackend:
    def __init__(self, name="stub"):
        self.info = BackendInfo(name, "test stub", 2)

    def run(self, circuit, shots, seed):
        raise NotImplementedError

    def evolve(self, circuit):
        raise NotImplementedError


def test_default_registry_lists_local_backend():
    names = [info.name for info in default_registry().list_backends()]
    assert LOCAL_BACKEND_NAME in names


def test_listing_keeps_registration_order():
    registry = default_registry()
    registry.register(StubBackend())
    names = [info.name for info in registry.list_backends()]
    assert names == [LOCAL_BACKEND_NAME, "stub"]
    assert names == [info.name for info in registry.list_backends()]


def test_duplicate_registration_rejected():
    registry = default_registry()
    with pytest.raises(ValueError):
        registry.register(LocalStatevectorBackend())


def test_execute_is_deterministic_given_seed():
    registry = default_registry()
    circuit = Circuit(1).h(0).measure_all()
    a = registry.execute(LOCAL_BACKEND_NAME, circuit, 100, seed=7)
    b = registry.execute(LOCAL_BACKEND_NAME, circuit, 100, seed=7)
    assert a.counts == b.counts
    assert a.seed == b.seed == 7


def test_unknown_backend():
    with pytest.raises(UnknownBackendError):
        default_registry().execute("nope", Circuit(1).measure_all(), 1)


def test_circuit_over_backend_capacity():
    registry = default_registry()
    with pytest.raises(CapacityError):
        registry.execute(LOCAL_BACKEND_NAME, Circuit(30).measure_all(), 1, seed=0)


def test_default_seed_is_recorded_and_replayable():
    registry = default_registry()
    circuit = Circuit(2).h(0).h(1).measure_all()
    first = registry.execute(LOCAL_BACKEND_NAME, circuit, 200)
    replay = registry.execute(LOCAL_BACKEND_NAME, circuit, 200, seed=first.seed)
    assert replay.counts == first.counts
