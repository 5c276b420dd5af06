"""Algorithm registry: string-parameter validation, circuit construction,
result interpretation.

Every algorithm is described by an :class:`AlgorithmDescriptor`. Parameters
arrive as one raw string per :class:`ParamSpec`, in declaration order, and
are validated in that order. Registering a new algorithm never requires
touching this module, the backends, or the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .backends import BackendRegistry, fresh_seed
from .errors import ValidationError
from .sim import Circuit, Counts, check_count, check_seed

PARAM_KINDS = ("natural_number", "bitstring", "probability", "text")

Params = Mapping[str, object]


@dataclass(frozen=True)
class ParamSpec:
    """One user-entered parameter: how to parse and validate it."""

    name: str
    kind: str
    description: str = ""
    min_value: int | None = None
    max_value: int | None = None
    min_len: int | None = None
    max_len: int | None = None

    def __post_init__(self):
        if self.kind not in PARAM_KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        if (
            self.min_value is not None
            and self.max_value is not None
            and self.min_value > self.max_value
        ):
            raise ValueError(f"{self.name}: min_value > max_value")
        if (
            self.min_len is not None
            and self.max_len is not None
            and self.min_len > self.max_len
        ):
            raise ValueError(f"{self.name}: min_len > max_len")

    def parse(self, raw: str):
        if self.kind == "natural_number":
            return self._parse_natural(raw)
        if self.kind == "bitstring":
            return self._parse_bitstring(raw)
        if self.kind == "probability":
            return self._parse_probability(raw)
        return self._parse_text(raw)

    def format(self, value) -> str:
        if self.kind == "probability":
            return repr(float(value))
        return str(value)

    def _parse_natural(self, raw: str) -> int:
        text = raw.strip()
        if not (text.isascii() and text.isdigit()):
            raise ValidationError(self.name, f"expected a natural number, got {raw!r}")
        value = int(text)
        low = 1 if self.min_value is None else self.min_value
        if value < low:
            raise ValidationError(self.name, f"must be >= {low}, got {value}")
        if self.max_value is not None and value > self.max_value:
            raise ValidationError(
                self.name, f"must be <= {self.max_value}, got {value}"
            )
        return value

    def _parse_bitstring(self, raw: str) -> str:
        text = raw.strip()
        if not text or set(text) - {"0", "1"}:
            raise ValidationError(
                self.name, f"expected a bitstring over {{0,1}}, got {raw!r}"
            )
        self._check_length(len(text))
        return text

    def _parse_probability(self, raw: str) -> float:
        try:
            value = float(raw.strip())
        except ValueError:
            raise ValidationError(
                self.name, f"expected a probability, got {raw!r}"
            ) from None
        if not math.isfinite(value) or not 0.0 <= value <= 1.0:
            raise ValidationError(
                self.name, f"probability must be within [0, 1], got {raw.strip()}"
            )
        return value

    def _parse_text(self, raw: str) -> str:
        self._check_length(len(raw))
        return raw

    def _check_length(self, length: int) -> None:
        if self.min_len is not None and length < self.min_len:
            raise ValidationError(
                self.name, f"length must be >= {self.min_len}, got {length}"
            )
        if self.max_len is not None and length > self.max_len:
            raise ValidationError(
                self.name, f"length must be <= {self.max_len}, got {length}"
            )


@dataclass
class AlgorithmDescriptor:
    """Name, parameters, circuit builder and result interpreter.

    ``build`` maps validated params to a measured circuit; ``interpret``
    turns raw counts into the human-readable result (it always receives
    counts, single-shot included, so the histogram mode reuses it);
    ``explain`` is static text describing how to read that result.

    Algorithms that do not fit the one-circuit mold (BB84 drives many
    single-qubit states itself) set ``runner``; it receives
    (params, backends, backend_name, shots, seed) and returns
    (text, counts), and ``build`` degenerates to a null circuit.
    """

    name: str
    description: str
    param_specs: list[ParamSpec]
    build: Callable[[Params], Circuit]
    interpret: Callable[[Params, Counts], str]
    explain: str = ""
    runner: Callable | None = field(default=None, repr=False)


@dataclass
class AlgorithmRun:
    """Outcome of one run_algorithm call: the interpreted text, the counts
    it was read from, and the effective seed. Rerunning with the same
    params, backend, shots and this seed gives identical text and counts.
    """

    text: str
    counts: Counts
    seed: int


def parse_params(descriptor: AlgorithmDescriptor, raw: Sequence[str]) -> dict:
    """Validate one raw string per ParamSpec, in order."""
    if len(raw) != len(descriptor.param_specs):
        expected = ", ".join(s.name for s in descriptor.param_specs) or "none"
        raise ValidationError(
            descriptor.name,
            f"takes {len(descriptor.param_specs)} parameter(s) ({expected}), "
            f"got {len(raw)}",
        )
    return {
        spec.name: spec.parse(value)
        for spec, value in zip(descriptor.param_specs, raw)
    }


def format_params(descriptor: AlgorithmDescriptor, params: Params) -> list[str]:
    """Inverse of parse_params on valid values (round-trips exactly)."""
    return [spec.format(params[spec.name]) for spec in descriptor.param_specs]


class AlgorithmRegistry:
    """Named algorithm descriptors, listed in registration order."""

    def __init__(self):
        self._algorithms: dict[str, AlgorithmDescriptor] = {}

    def register(self, descriptor: AlgorithmDescriptor) -> None:
        if descriptor.name in self._algorithms:
            raise ValueError(f"algorithm name {descriptor.name!r} already registered")
        self._algorithms[descriptor.name] = descriptor

    def list_algorithms(self) -> list[tuple[str, str]]:
        return [(d.name, d.description) for d in self._algorithms.values()]

    def get(self, name: str) -> AlgorithmDescriptor:
        try:
            return self._algorithms[name]
        except KeyError:
            known = ", ".join(self._algorithms) or "none"
            raise ValueError(
                f"no algorithm named {name!r} (available: {known})"
            ) from None


def run_algorithm(
    descriptor: AlgorithmDescriptor,
    params: Params,
    backends: BackendRegistry,
    backend_name: str,
    shots: int = 1,
    seed: int | None = None,
) -> AlgorithmRun:
    """Build, execute and interpret; shots=1 is the run-once mode.

    Shots and the seed are validated here, before any descriptor's
    ``build`` or ``runner`` sees them.
    """
    check_count("shots", shots)
    effective_seed = fresh_seed() if seed is None else check_seed(seed)
    if descriptor.runner is not None:
        text, counts = descriptor.runner(
            params, backends, backend_name, shots, effective_seed
        )
    else:
        circuit = descriptor.build(params)
        counts = backends.execute(backend_name, circuit, shots, effective_seed).counts
        text = descriptor.interpret(params, counts)
    return AlgorithmRun(text, counts, effective_seed)
