"""Shipped algorithms and the factory for the default registry."""

from ..framework import AlgorithmRegistry
from . import bb84, bernstein_vazirani, qrand


def default_algorithms() -> AlgorithmRegistry:
    registry = AlgorithmRegistry()
    registry.register(qrand.descriptor())
    registry.register(bernstein_vazirani.descriptor())
    registry.register(bb84.descriptor())
    return registry
