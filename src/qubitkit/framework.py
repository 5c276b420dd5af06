"""Algorithm registry: parameter validation, circuit construction,
result interpretation.

Every algorithm is described by an :class:`AlgorithmDescriptor`. Each of
its parameters is a :class:`ParamSpec`, whose ``check`` is the one rule a
value obeys: ``parse`` reads a raw string's syntax, then checks, and
:func:`run_algorithm` and the algorithm's entry points check typed values
with the same spec. Registering a new algorithm never requires touching
this module or the backends.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from numbers import Real

from .backends import BackendRegistry
from .errors import ValidationError
from .sim import Circuit, Counts, check_int, check_type, resolve_seed

PARAM_KINDS = ("natural_number", "bitstring", "probability", "text")

Params = Mapping[str, object]


@dataclass(frozen=True)
class ParamSpec:
    """One user-entered parameter: the rule it obeys and how to parse it.

    :meth:`check` is the rule: a natural number is an integer >= 1 and at
    most ``max_value``; a bitstring (of 0s and 1s) or a text (that UTF-8
    encodes) is a non-empty string at most ``max_len`` long; a probability
    is a real number within [0, 1]. :meth:`parse` reads one raw string's
    syntax, then checks.
    """

    name: str
    kind: str
    description: str = ""
    max_value: int | None = None
    max_len: int | None = None

    def __post_init__(self):
        if self.kind not in PARAM_KINDS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")

    def check(self, value):
        """Return ``value`` if it obeys the rule, else raise a ValidationError
        naming the parameter."""
        name = self.name
        if self.kind == "natural_number":
            check_int(name, value, 1, self.max_value)
        elif self.kind == "probability":
            if not isinstance(value, Real) or isinstance(value, bool) or not 0 <= value <= 1:
                raise ValidationError(name, f"must be a number within [0, 1], got {value!r}")
        else:
            if not isinstance(value, str) or not value:
                raise ValidationError(name, f"must be a non-empty string, got {value!r}")
            if self.kind == "bitstring" and set(value) - {"0", "1"}:
                raise ValidationError(name, f"expected a bitstring over {{0,1}}, got {value!r}")
            if self.kind == "text":
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate
                    raise ValidationError(name, f"must be UTF-8 text, got {value!r}") from None
            if self.max_len is not None and len(value) > self.max_len:
                raise ValidationError(name, f"length must be <= {self.max_len}, got {len(value)}")
        return value

    def parse(self, raw: str):
        """The checked value of one raw string: a text verbatim; any other
        kind stripped, a natural number as ASCII digits and a probability as
        ``float`` reads ASCII text without underscores."""
        check_type(self.name, raw, str)
        if self.kind == "text":
            return self.check(raw)
        text = raw.strip()
        if self.kind == "bitstring":
            return self.check(text)
        read = int if self.kind == "natural_number" else float
        try:
            # int() and float() would also read non-ASCII digits and
            # underscores, and int() a sign.
            if not text.isascii() or "_" in text or (read is int and not text.isdigit()):
                raise ValueError
            value = read(text)
        except ValueError:
            kind = self.kind.replace("_", " ")
            raise ValidationError(self.name, f"expected a {kind}, got {raw!r}") from None
        return self.check(value)


@dataclass
class AlgorithmDescriptor:
    """Name, parameters, circuit builder and result interpreter.

    ``build`` maps validated params to a circuit, every qubit of which is
    measured after its last gate; ``interpret`` turns raw counts into the
    human-readable result (it always receives counts, single-shot included,
    so the histogram mode reuses it).

    Algorithms that do not fit the one-circuit mold (BB84 drives many
    single-qubit states itself and runs on no backend) set ``runner``; it
    receives (params, shots, seed), checked as :func:`run_algorithm` says,
    and returns (text, counts), and ``build`` degenerates to a null circuit.
    """

    name: str
    description: str
    param_specs: list[ParamSpec]
    build: Callable[[Params], Circuit]
    interpret: Callable[[Params, Counts], str]
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
    """Parse one raw string per ParamSpec, in order."""
    check_type("descriptor", descriptor, AlgorithmDescriptor)
    # A str or bytes is a Sequence too, but of characters, not of raw strings.
    if (
        not isinstance(raw, Sequence)
        or isinstance(raw, (str, bytes))
        or len(raw) != len(descriptor.param_specs)
    ):
        raise _params_error(descriptor, raw)
    return {
        spec.name: spec.parse(value)
        for spec, value in zip(descriptor.param_specs, raw)
    }


def _params_error(descriptor: AlgorithmDescriptor, got) -> ValidationError:
    expected = ", ".join(s.name for s in descriptor.param_specs) or "none"
    return ValidationError(descriptor.name, f"takes the parameters ({expected}), got {got!r}")


class AlgorithmRegistry:
    """Named algorithm descriptors, listed in registration order."""

    def __init__(self):
        self._algorithms: dict[str, AlgorithmDescriptor] = {}

    def register(self, descriptor: AlgorithmDescriptor) -> None:
        if check_type("descriptor", descriptor, AlgorithmDescriptor).name in self._algorithms:
            raise ValidationError("name", f"algorithm {descriptor.name!r} already registered")
        self._algorithms[descriptor.name] = descriptor

    def list_algorithms(self) -> list[tuple[str, str]]:
        return [(d.name, d.description) for d in self._algorithms.values()]

    def get(self, name: str) -> AlgorithmDescriptor:
        try:
            return self._algorithms[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            known = ", ".join(self._algorithms) or "none"
            raise ValidationError(
                "algorithm", f"no algorithm named {name!r} (available: {known})"
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

    This is where a circuit run's seed is resolved: params (one value per
    spec, each passing its ``check``), shots, the backend registry, the
    backend name (looked up in it) and the seed are validated, and a missing
    seed is drawn, before any descriptor's ``build`` or ``runner`` sees
    them. The returned seed replays the run. A ``descriptor`` that is not an
    :class:`AlgorithmDescriptor` raises a ValidationError naming it.
    """
    names = {s.name for s in check_type("descriptor", descriptor, AlgorithmDescriptor).param_specs}
    if not isinstance(params, Mapping) or set(params) - names:
        raise _params_error(descriptor, params)
    for spec in descriptor.param_specs:
        if spec.name not in params:
            raise ValidationError(spec.name, "missing")
        spec.check(params[spec.name])
    check_int("shots", shots, 1)
    check_type("backends", backends, BackendRegistry).get(backend_name)
    effective_seed = resolve_seed(seed)
    if descriptor.runner is not None:
        text, counts = descriptor.runner(params, shots, effective_seed)
    else:
        circuit = descriptor.build(params)
        counts = backends.execute(backend_name, circuit, shots, effective_seed)
        text = descriptor.interpret(params, counts)
    return AlgorithmRun(text, counts, effective_seed)
