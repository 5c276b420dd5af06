import dataclasses
import inspect
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitkit.algorithms
import qubitkit.backends
from qubitkit import framework, otp, sim
from qubitkit.algorithms import bb84, bernstein_vazirani, default_algorithms, qrand
from qubitkit.algorithms.bernstein_vazirani import bv_circuit, classical_oracle
from qubitkit.algorithms.qrand import qrand_circuit
from qubitkit.backends import (
    LOCAL_BACKEND_NAME,
    BackendInfo,
    LocalStatevectorBackend,
    default_registry,
)
from qubitkit.errors import QubitkitError, UnknownBackendError, ValidationError
from qubitkit.framework import (
    AlgorithmDescriptor,
    AlgorithmRegistry,
    ParamSpec,
    parse_params,
    run_algorithm,
)
from qubitkit.sim import QUBIT_CAP, Circuit, Gate


DEFAULT_RAW = {"qrand": ["3"], "bernstein-vazirani": ["101"], "bb84": ["hi", "0.5"]}
DEFAULT_PARAMS = {
    "qrand": {"n": 3},
    "bernstein-vazirani": {"key": "101"},
    "bb84": {"message": "hi", "density": 0.5},
}


def dummy_descriptor():
    return AlgorithmDescriptor(
        name="coin",
        description="single Hadamard coin flip",
        param_specs=[ParamSpec("flips", "natural_number", max_value=8)],
        build=lambda params: Circuit(params["flips"]).h(0),
        interpret=lambda params, counts: f"coin says {max(counts, key=counts.get)}",
    )


def test_shipped_registry_has_exactly_three_algorithms():
    names = {name for name, _ in default_algorithms().list_algorithms()}
    assert names == {"qrand", "bernstein-vazirani", "bb84"}


def test_registering_a_fourth_algorithm():
    registry = default_algorithms()
    registry.register(dummy_descriptor())
    assert len(registry.list_algorithms()) == 4


def test_duplicate_algorithm_rejected():
    registry = default_algorithms()
    with pytest.raises(ValueError):
        registry.register(default_algorithms().get("qrand"))


def test_unknown_algorithm_lookup():
    # A list used to raise TypeError: unhashable type: 'list'.
    for name in ("grover", ["grover"]):
        with pytest.raises(ValidationError, match="no algorithm named") as excinfo:
            default_algorithms().get(name)
        assert excinfo.value.param == "algorithm"


def test_parse_qrand_n():
    descriptor = default_algorithms().get("qrand")
    assert parse_params(descriptor, ["8"]) == {"n": 8}


@pytest.mark.parametrize("raw", ["²", "٣"])
def test_parse_natural_rejects_non_ascii_digits(raw):
    # str.isdigit() accepts both; int() fails on the first, reads 3 from the second.
    spec = default_algorithms().get("qrand").param_specs[0]
    with pytest.raises(ValidationError, match="natural number") as excinfo:
        spec.parse(raw)
    assert excinfo.value.param == "n"


def test_parse_natural_strips_surrounding_spaces():
    assert default_algorithms().get("qrand").param_specs[0].parse(" 3 ") == 3


def test_parse_rejects_non_bitstring_key():
    descriptor = default_algorithms().get("bernstein-vazirani")
    with pytest.raises(ValidationError, match="key"):
        parse_params(descriptor, ["01a"])


def test_parse_rejects_out_of_range_density():
    descriptor = default_algorithms().get("bb84")
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        parse_params(descriptor, ["hello", "1.5"])


# (algorithm, parameter, a bad raw string, a bad typed value). Each bad
# value goes in alone; the other parameters keep their default.
BAD_PARAMS = [
    ("qrand", "n", "0", 0),
    ("qrand", "n", str(QUBIT_CAP + 1), QUBIT_CAP + 1),
    ("bernstein-vazirani", "key", "", ""),
    ("bernstein-vazirani", "key", "1" * QUBIT_CAP, "1" * QUBIT_CAP),
    ("bb84", "message", "", ""),
    ("bb84", "density", "1.5", 1.5),
    ("qrand", "n", "-1", -1),
    ("qrand", "n", "2.5", 2.5),
    ("qrand", "n", "", True),
    ("qrand", "n", "1" * 5000, "3"),  # int() refuses over 4300 digits
    ("qrand", "n", "+3", None),
    ("bernstein-vazirani", "key", "012", "012"),
    ("bernstein-vazirani", "key", " ", 101),
    ("bernstein-vazirani", "key", "1 0", b"10"),
    ("bb84", "message", "", None),
    ("bb84", "message", "", 5),
    ("bb84", "density", "-0.1", -0.1),
    ("bb84", "density", "nan", math.nan),
    ("bb84", "density", "inf", math.inf),
    ("bb84", "density", "half", "0.5"),
    ("bb84", "density", "", True),
    ("bb84", "message", "\ud800", "\ud800"),  # a lone surrogate has no UTF-8
]

# The library entry point that takes each typed value, where there is one.
ENTRY_POINTS = {
    "n": qrand_circuit,
    "key": bv_circuit,
    "density": lambda density: bb84.run_exchange(4, density, seed=1),
}


@pytest.mark.parametrize(
    "name, param, raw, value",
    [
        # Ids read algorithm-raw<case index>-parameter.
        pytest.param(*case, id=f"{case[0]}-raw{i}-{case[1]}")
        for i, case in enumerate(BAD_PARAMS)
    ],
)
def test_every_shipped_parameter_rejects_its_bounds(name, param, raw, value):
    descriptor = default_algorithms().get(name)
    position = [spec.name for spec in descriptor.param_specs].index(param)
    raws = list(DEFAULT_RAW[name])
    raws[position] = raw
    with pytest.raises(ValidationError) as excinfo:
        parse_params(descriptor, raws)
    assert excinfo.value.param == param
    params = {**DEFAULT_PARAMS[name], param: value}
    with pytest.raises(ValidationError) as excinfo:
        run_algorithm(descriptor, params, default_registry(), LOCAL_BACKEND_NAME, 1, 1)
    assert excinfo.value.param == param
    if param in ENTRY_POINTS:
        with pytest.raises(ValidationError) as excinfo:
            ENTRY_POINTS[param](value)
        assert excinfo.value.param == param


def test_descriptors_and_entry_points_share_one_spec_per_parameter():
    registry = default_algorithms()
    specs = {
        spec.name: spec for name in DEFAULT_RAW for spec in registry.get(name).param_specs
    }
    assert specs["n"] is qrand.N
    assert specs["key"] is bernstein_vazirani.KEY
    assert specs["message"] is bb84.MESSAGE and specs["density"] is bb84.DENSITY


@pytest.mark.parametrize(
    "name, params, param",
    [
        ("qrand", {}, "n"),
        ("qrand", {"n": 3, "m": 1}, "qrand"),
        ("qrand", None, "qrand"),
        ("qrand", [("n", 3)], "qrand"),
        ("bb84", {"message": "hi"}, "density"),
        ("bb84", {"message": 5, "density": 0.5}, "message"),
    ],
)
def test_run_algorithm_rejects_missing_extra_and_mistyped_params(name, params, param):
    # {} used to raise KeyError and a message of 5 an AttributeError.
    descriptor = default_algorithms().get(name)
    with pytest.raises(ValidationError) as excinfo:
        run_algorithm(descriptor, params, default_registry(), LOCAL_BACKEND_NAME, 1, 1)
    assert excinfo.value.param == param


@pytest.mark.parametrize(
    "raw, param",
    [([None], "n"), ([5], "n"), ([b"3"], "n"), (None, "qrand"), (3, "qrand"), ("7", "qrand")],
)
def test_parse_params_rejects_what_is_not_strings(raw, param):
    # [None] and [5] used to raise AttributeError, None and 3 a TypeError.
    # "7" used to be read one character at a time, as ["7"].
    with pytest.raises(ValidationError) as excinfo:
        parse_params(default_algorithms().get("qrand"), raw)
    assert excinfo.value.param == param


def test_run_algorithm_looks_up_the_backend_before_building():
    built = []
    descriptor = dummy_descriptor()
    descriptor.build = lambda params: built.append(params) or Circuit(1)
    with pytest.raises(UnknownBackendError):
        run_algorithm(descriptor, {"flips": 1}, default_registry(), "nope", 1, 1)
    assert built == []


class _ListNamedBackend:
    info = BackendInfo(["x"], "an unhashable name", 2)

    def run(self, circuit, shots, seed):
        raise NotImplementedError


# A batch of three qubits, each |0>.
_BATCH = sim.Statevector(1, np.tile([1.0, 0.0], (3, 1)))

# Calls that used to leak an error from outside qubitkit (BB84 with no
# registry used to build a default one), and the parameter each must name.
HELPER_LEAKS = {
    "run_algorithm-qrand-backends": (
        lambda: run_algorithm(qrand.descriptor(), {"n": 3}, None, LOCAL_BACKEND_NAME), "backends"
    ),
    "run_algorithm-bb84-backends": (
        lambda: run_algorithm(bb84.descriptor(), DEFAULT_PARAMS["bb84"], None, LOCAL_BACKEND_NAME),
        "backends",
    ),
    "execute-circuit": (
        lambda: default_registry().execute(LOCAL_BACKEND_NAME, None, 1, 0), "circuit"
    ),
    "new_zero_state-float": (lambda: sim.new_zero_state(2.5), "num_qubits"),
    "new_zero_state-None": (lambda: sim.new_zero_state(None), "num_qubits"),
    "apply_gate-gate": (lambda: sim.apply_gate(sim.new_zero_state(1), None), "gate"),
    "apply_gate-state": (lambda: sim.apply_gate(None, Gate("H", (0,))), "state"),
    "sample_measurement-state": (lambda: sim.sample_measurement(None, sim.make_rng(0)), "state"),
    "text_to_bits-int": (lambda: otp.text_to_bits(5), "text"),
    "text_to_bits-surrogate": (lambda: otp.text_to_bits("\ud800"), "text"),
    "encrypt-key": (lambda: otp.encrypt((1,), None), "key"),
    "encrypt-message": (lambda: otp.encrypt(None, (1,)), "message"),
    "bits_to_text-None": (lambda: otp.bits_to_text(None), "bits"),
    "bits_to_text-not-utf8": (lambda: otp.bits_to_text((1,) * 8), "bits"),
    "sift-None": (lambda: bb84.sift(None, None), "sender_axes"),
    "verify-None": (lambda: bb84.verify(None, None), "sender_sifted_bits"),
    "verify-ragged": (lambda: bb84.verify([[1], [1, 0]], [1, 0]), "sender_sifted_bits"),
    "verify-compare_mode-array": (
        lambda: bb84.verify([1], [1], compare_mode=np.array(["half", "full"])), "compare_mode"
    ),
    "encode_qubit-value-2": (lambda: bb84.encode_qubit(2, bb84.Axis.X), "value"),
    "encode_qubit-value-str": (lambda: bb84.encode_qubit("1", bb84.Axis.X), "value"),
    "encode_qubit-value-bool": (lambda: bb84.encode_qubit(True, bb84.Axis.Z), "value"),
    "encode_qubit-axis-str": (lambda: bb84.encode_qubit(1, "X"), "axis"),
    "encode_state-value": (lambda: bb84.encode_state(-1, bb84.Axis.Z), "value"),
    "encode_state-axis": (lambda: bb84.encode_state(0, None), "axis"),
    "verdict_probabilities-float-m": (lambda: bb84.verdict_probabilities(2.0, 0.5), "m"),
    "verdict_probabilities-density-None": (lambda: bb84.verdict_probabilities(4, None), "density"),
    "verdict_probabilities-compare_mode": (
        lambda: bb84.verdict_probabilities(4, 0.5, "both"), "compare_mode"
    ),
    "render_trace-None": (lambda: bb84.render_trace(None), "trace"),
    "intercept-states": (lambda: bb84.intercept(None, 0.5, sim.make_rng(0)), "states"),
    "intercept-rng": (lambda: bb84.intercept(_BATCH, 0.5, None), "rng"),
    "measure_in_axis-states": (
        lambda: bb84.measure_in_axis(None, np.zeros(1, bool), sim.make_rng(0)), "states"
    ),
    "measure_in_axis-x_rows-short": (
        lambda: bb84.measure_in_axis(_BATCH, np.zeros(1, bool), sim.make_rng(0)), "x_rows"
    ),
    "sample_measurement-rng": (
        lambda: sim.sample_measurement(sim.new_zero_state(1), None), "rng"
    ),
    "make_rng-negative": (lambda: sim.make_rng(-1), "seed"),
    "derive_seed-negative": (lambda: sim.derive_seed(-1), "master"),
    "derive_seed-None": (lambda: sim.derive_seed(None), "master"),
    "derive_seed-negative-part": (lambda: sim.derive_seed(0, -1), "parts"),
    "Counts-None": (lambda: sim.Counts(None, 1), "counts"),
    "Counts-int-label": (lambda: sim.Counts({5: 1}, 1), "counts"),
    "Counts-empty-label": (lambda: sim.Counts({"": 1}, 1), "counts"),
    "Counts-shots-array": (lambda: sim.Counts({"0": 1}, np.array([0, 1])), "shots"),
    # np.array([1, True]) is an integer array, so the bool used to count as 1.
    "Counts-bool-tally": (lambda: sim.Counts({"0": 1, "1": True}, 2), "counts"),
    "Counts.from_arrays-lists": (lambda: sim.Counts.from_arrays([0], [1], 1, 1), "tallies"),
    "Counts.from_arrays-indices-list": (
        lambda: sim.Counts.from_arrays([0], np.array([1]), 1, 1), "indices"
    ),
    "BackendRegistry.register-None": (lambda: default_registry().register(None), "backend"),
    "BackendRegistry.register-list-name": (
        lambda: default_registry().register(_ListNamedBackend()), "backend"
    ),
    "run_exchange-backends": (lambda: bb84.run_exchange(4, 0.5, 5, seed=0), "backends"),
    "parse_params-descriptor": (lambda: parse_params(None, []), "descriptor"),
    "run_algorithm-descriptor": (
        lambda: run_algorithm(None, {}, default_registry(), LOCAL_BACKEND_NAME), "descriptor"
    ),
    "AlgorithmRegistry.register-None": (
        lambda: AlgorithmRegistry().register(None), "descriptor"
    ),
    "classical_solve-oracle": (
        lambda: bernstein_vazirani.classical_solve(None, 3), "oracle"
    ),
    # The oracle's answers used to be joined into the key as they came.
    "classical_solve-answer-str": (
        lambda: bernstein_vazirani.classical_solve(lambda x: "a", 2), "oracle"
    ),
    "classical_solve-answer-7": (
        lambda: bernstein_vazirani.classical_solve(lambda x: 7, 2), "oracle"
    ),
    "classical_solve-answer-bool": (
        lambda: bernstein_vazirani.classical_solve(lambda x: True, 2), "oracle"
    ),
    "recovered_key-None": (lambda: bernstein_vazirani.recovered_key(None), "outcome"),
    "outcome_bits-None": (lambda: sim.outcome_bits(None, 3), "indices"),
    "outcome_bits-width": (lambda: sim.outcome_bits(np.array([1]), None), "width"),
    "Counts.from_arrays-num_qubits": (
        lambda: sim.Counts.from_arrays(np.array([0]), np.array([1]), None, 1), "num_qubits"
    ),
}


@pytest.mark.parametrize("case", list(HELPER_LEAKS))
def test_helpers_raise_a_validation_error_naming_the_parameter(case):
    call, param = HELPER_LEAKS[case]
    with pytest.raises(ValidationError) as excinfo:
        call()
    assert excinfo.value.param == param


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.floats(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
    st.sampled_from(
        [np.int64(2), np.uint8(1), np.float64(0.5), np.float64("nan"), np.bool_(True)]
    ),
    st.sampled_from(
        [np.array([0, 1]), np.array([[1]]), np.array([]), np.array(["a"]), np.array([0.5, 0.2])]
    ),
)
_PARAMS = st.one_of(
    _JUNK,
    st.dictionaries(st.sampled_from(["n", "key", "message", "density", "x"]), _JUNK, max_size=3),
)
_RAW = st.one_of(_JUNK, st.lists(_JUNK, max_size=2))


def _qubit_call(method, *qubits):
    """``method(*qubits)`` for a Circuit qubit method: an integer qubit out
    of range raises the documented IndexError, and nothing else may leak."""
    try:
        method(*qubits)
    except IndexError:
        pass


def _junk_calls(a, b, params, raw) -> list:
    """One call per public entry point and junk-fed parameter.

    Each call passes ``a``, ``b``, ``params`` or ``raw`` to the parameters
    it feeds and valid values to the rest, so the junk reaches the check
    of the parameter it feeds. Apart from the calls made once per shipped
    descriptor, no two calls feed the same parameter.
    """
    backends = default_registry()
    zero = sim.new_zero_state(1)
    hadamard = Gate("H", (0,))
    flags = np.zeros(len(_BATCH.amplitudes), bool)
    calls = [
        lambda: qrand_circuit(a),
        lambda: bv_circuit(a),
        lambda: classical_oracle(a, b),
        lambda: bernstein_vazirani.classical_solve(a, 3),
        lambda: bernstein_vazirani.classical_solve(lambda x: 0, a),
        lambda: bernstein_vazirani.recovered_key(a),
        lambda: bb84.intercept(a, 0.5, sim.make_rng(0)),
        lambda: bb84.intercept(_BATCH, a, sim.make_rng(0)),
        lambda: bb84.intercept(_BATCH, 0.5, a),
        lambda: bb84.measure_in_axis(a, flags, sim.make_rng(0)),
        lambda: bb84.measure_in_axis(_BATCH, a, sim.make_rng(0)),
        lambda: bb84.measure_in_axis(_BATCH, flags, a),
        lambda: bb84.sift(a, b),
        lambda: bb84.verify(a, b),
        lambda: bb84.verify([1, 0], [1, 0], compare_mode=a),
        lambda: bb84.encode_qubit(a, bb84.Axis.X),
        lambda: bb84.encode_qubit(1, a),
        lambda: bb84.encode_state(a, b),
        lambda: bb84.verdict_probabilities(a, b),
        lambda: bb84.verdict_probabilities(4, 0.5, a),
        lambda: bb84.render_trace(a),
        lambda: bb84.run_exchange(a, b, seed=0),
        lambda: bb84.run_exchange(4, 0.5, a, seed=0),
        lambda: bb84.run_exchange(4, 0.5, backends, a, seed=0),
        lambda: bb84.run_exchange(4, 0.5, seed=a),
        lambda: bb84.run_exchange(4, 0.5, seed=0, compare_mode=a),
        lambda: bb84.run_protocol(a, b, seed=0),
        lambda: bb84.run_protocol([1], 0.5, seed=a),
        lambda: sim.make_rng(a),
        lambda: sim.check_type("value", a, Gate),
        lambda: sim.resolve_seed(a),
        lambda: sim.derive_seed(a),
        lambda: sim.derive_seed(0, a),
        lambda: sim.check_int("n", a, 0),
        lambda: sim.check_row("row", a),
        lambda: sim.outcome_bits(a, 3),
        lambda: sim.outcome_bits(np.array([1]), a),
        lambda: sim.new_zero_state(a),
        lambda: sim.apply_gate(a, hadamard),
        lambda: sim.apply_gate(zero, a),
        lambda: sim.evolve(a),
        lambda: sim.sample_measurement(a, sim.make_rng(0)),
        lambda: sim.sample_measurement(zero, a),
        lambda: sim.run(a, 1, 0),
        lambda: sim.run(Circuit(1), a, b),
        lambda: Gate(a, (0,)),
        lambda: Gate("H", a),
        lambda: Circuit(a),
        lambda: Circuit(2, gates=a),
        lambda: Circuit(2).append(a),
        lambda: _qubit_call(Circuit(2).h, a),
        lambda: _qubit_call(Circuit(2).x, a),
        lambda: _qubit_call(Circuit(2).cnot, a, b),
        lambda: sim.Counts(a, b),
        lambda: sim.Counts.from_arrays(a, b, 1, 1),
        lambda: sim.Counts.from_arrays(np.array([0]), np.array([1]), a, b),
        lambda: otp.check_bits("bits", a),
        lambda: otp.text_to_bits(a),
        lambda: otp.bits_to_text(a),
        lambda: otp.encrypt(a, b),
        lambda: backends.register(a),
        lambda: backends.get(a),
        lambda: backends.execute(a, Circuit(1), 1, 0),
        lambda: backends.execute(LOCAL_BACKEND_NAME, a, 1, 0),
        lambda: backends.execute(LOCAL_BACKEND_NAME, Circuit(1), a, b),
        lambda: LocalStatevectorBackend().run(a, 1, 0),
        lambda: LocalStatevectorBackend().run(Circuit(1), a, b),
        lambda: AlgorithmRegistry().register(a),
        lambda: default_algorithms().get(a),
        lambda: parse_params(a, []),
        lambda: run_algorithm(a, {}, backends, LOCAL_BACKEND_NAME),
    ]
    for name, good in DEFAULT_PARAMS.items():
        d = default_algorithms().get(name)
        calls += [
            lambda d=d: parse_params(d, raw),
            lambda d=d: run_algorithm(d, params, backends, LOCAL_BACKEND_NAME),
            lambda d=d, good=good: run_algorithm(d, good, a, LOCAL_BACKEND_NAME),
            lambda d=d, good=good: run_algorithm(d, good, backends, a),
            lambda d=d, good=good: run_algorithm(d, good, backends, LOCAL_BACKEND_NAME, a, b),
        ]
    return calls


def _feed(calls) -> None:
    """Make every call; each must return or raise a QubitkitError."""
    for call in calls:
        try:
            call()
        except QubitkitError:
            pass


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_JUNK, _JUNK, _PARAMS, _RAW)
def test_public_entry_points_return_or_raise_qubitkit_errors(a, b, params, raw):
    _feed(_junk_calls(a, b, params, raw))


# Public callables, and single parameters, that no junk call feeds. A
# callable without parameters (default_registry, default_algorithms, each
# descriptor(), list_algorithms, Counts.keys/items/values) has nothing to
# feed, and a dataclass without __post_init__ is a plain record.
_UNFED = {
    "ParamSpec": "a tool for algorithm authors, whose mistakes are ValueErrors by design",
    "LocalStatevectorBackend.evolve": "no caller in the library, only the benchmark's trace",
    **dict.fromkeys(
        [
            "check_int(param)", "check_int(lo)", "check_int(hi)",
            "check_row(param)", "check_row(dtype)", "check_row(length)",
            "check_type(param)", "check_type(cls)",
            "check_bits(param)",
        ],
        "set by the calling code, not by a user",
    ),
}


def _public_parameters():
    """(label, code, parameter) for each parameter of each public function,
    public method and input-checking constructor of the qubitkit modules."""
    modules = (sim, framework, qubitkit.backends, otp, qubitkit.algorithms, qrand,
               bernstein_vazirani, bb84)
    callables = {}
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                callables[obj.__name__] = obj, 0
            elif inspect.isclass(obj) and name not in _UNFED:
                members = vars(obj)
                if "__init__" in members and not (
                    dataclasses.is_dataclass(obj) and "__post_init__" not in members
                ):
                    callables[name] = obj.__init__, 1
                for attr, member in members.items():
                    function = getattr(member, "__func__", member)  # a classmethod's
                    if not attr.startswith("_") and inspect.isfunction(function):
                        callables[f"{name}.{attr}"] = function, 1
    for label, (function, skip) in callables.items():
        for parameter in list(inspect.signature(function).parameters)[skip:]:
            if label not in _UNFED and f"{label}({parameter})" not in _UNFED:
                yield f"{label}({parameter})", function.__code__, parameter


def _fed_parameters() -> set:
    """(code, parameter) for each parameter that received a junk marker from
    a call made directly in this file, recorded with ``sys.setprofile``."""
    markers = [object() for _ in range(4)]
    calls = _junk_calls(*markers)
    here = _junk_calls.__code__.co_filename
    fed = set()

    def is_junk(value):
        values = value if isinstance(value, tuple) else (value,)  # *args arrive as a tuple
        return any(v is m for v in values for m in markers)

    def profile(frame, event, arg):
        if event == "call" and frame.f_back and frame.f_back.f_code.co_filename == here:
            arguments = frame.f_locals.items()
            fed.update((frame.f_code, name) for name, value in arguments if is_junk(value))

    sys.setprofile(profile)
    try:
        _feed(calls)
    finally:
        sys.setprofile(None)
    return fed


def test_junk_calls_feed_every_parameter_of_every_public_entry_point():
    fed = _fed_parameters()
    unfed = [label for label, code, name in _public_parameters() if (code, name) not in fed]
    assert not unfed, f"no junk call feeds {unfed}"


@pytest.mark.parametrize("raw", ["٠.٥", "１", "0.2_5", "1_0e-1"])
def test_parse_probability_rejects_non_ascii_digits_and_underscores(raw):
    # float() reads these as 0.5, 1.0, 0.25 and 1.0.
    spec = default_algorithms().get("bb84").param_specs[1]
    with pytest.raises(ValidationError, match="expected a probability") as excinfo:
        spec.parse(raw)
    assert excinfo.value.param == "density"


@pytest.mark.parametrize("raw, value", [(" 0.5 ", 0.5), ("1e-1", 0.1), ("1", 1.0), ("0", 0.0)])
def test_parse_probability_reads_ascii_decimals(raw, value):
    assert default_algorithms().get("bb84").param_specs[1].parse(raw) == value


def test_parse_rejects_wrong_arity():
    descriptor = default_algorithms().get("qrand")
    with pytest.raises(ValidationError):
        parse_params(descriptor, [])


def test_parse_format_round_trip():
    # Each raw string parses to its typed value, and that value's str()
    # parses back to it.
    registry = default_algorithms()
    cases = {
        "qrand": (["12"], {"n": 12}),
        "bernstein-vazirani": (["100101"], {"key": "100101"}),
        "bb84": (["hello world", "0.35"], {"message": "hello world", "density": 0.35}),
    }
    for name, (raw, typed) in cases.items():
        descriptor = registry.get(name)
        assert parse_params(descriptor, raw) == typed
        assert parse_params(descriptor, [str(v) for v in typed.values()]) == typed


def test_run_once_is_deterministic_end_to_end():
    registry = default_algorithms()
    backends = default_registry()
    descriptor = registry.get("qrand")
    params = parse_params(descriptor, ["5"])
    runs = [
        run_algorithm(descriptor, params, backends, LOCAL_BACKEND_NAME, 1, seed=123)
        for _ in range(2)
    ]
    assert runs[0].text == runs[1].text
    assert runs[0].counts == runs[1].counts


def test_multi_shot_returns_counts_alongside_text():
    registry = default_algorithms()
    descriptor = registry.get("qrand")
    result = run_algorithm(
        descriptor,
        parse_params(descriptor, ["2"]),
        default_registry(),
        LOCAL_BACKEND_NAME,
        shots=1000,
        seed=7,
    )
    assert result.counts.shots == 1000
    assert set(result.counts) == {"00", "01", "10", "11"}
    assert result.text


def test_extension_needs_no_framework_changes():
    # A new algorithm goes through registration and run_algorithm untouched.
    registry = AlgorithmRegistry()
    registry.register(dummy_descriptor())
    descriptor = registry.get("coin")
    params = parse_params(descriptor, ["2"])
    result = run_algorithm(
        descriptor, params, default_registry(), LOCAL_BACKEND_NAME, 5, seed=9
    )
    assert result.text.startswith("coin says")
    assert result.counts.shots == 5


@pytest.mark.parametrize(
    "name, raw, shots",
    [
        ("qrand", ["3"], 50),
        ("bernstein-vazirani", ["101"], 1),
        ("bb84", ["hi", "0.5"], 3),
    ],
)
def test_returned_seed_replays_the_run(name, raw, shots):
    descriptor = default_algorithms().get(name)
    params = parse_params(descriptor, raw)
    backends = default_registry()
    first = run_algorithm(descriptor, params, backends, LOCAL_BACKEND_NAME, shots)
    again = run_algorithm(
        descriptor, params, backends, LOCAL_BACKEND_NAME, shots, seed=first.seed
    )
    assert again.seed == first.seed
    assert again.text == first.text
    assert again.counts == first.counts


@pytest.mark.parametrize("name", ["qrand", "bernstein-vazirani", "bb84"])
@pytest.mark.parametrize("shots", [0, -2, True, 2.5])
def test_run_algorithm_rejects_bad_shots_for_every_descriptor(name, shots):
    # BB84's runner used to report "verdicts over 0 runs" at shots=0, run
    # once at shots=True and fail inside Counts at shots=-2.
    descriptor = default_algorithms().get(name)
    params = parse_params(descriptor, DEFAULT_RAW[name])
    with pytest.raises(ValidationError, match="shots"):
        run_algorithm(
            descriptor, params, default_registry(), LOCAL_BACKEND_NAME, shots, seed=1
        )


@pytest.mark.parametrize("name", ["qrand", "bernstein-vazirani", "bb84"])
@pytest.mark.parametrize("seed", [-1, 2**64, True])
def test_run_algorithm_rejects_bad_seed_for_every_descriptor(name, seed):
    descriptor = default_algorithms().get(name)
    params = parse_params(descriptor, DEFAULT_RAW[name])
    with pytest.raises(ValidationError, match="seed"):
        run_algorithm(
            descriptor, params, default_registry(), LOCAL_BACKEND_NAME, 1, seed=seed
        )


def test_a_run_reports_its_seed_as_an_int():
    # A numpy seed used to come back as the numpy scalar it was given.
    run = run_algorithm(
        qrand.descriptor(), {"n": 2}, default_registry(), LOCAL_BACKEND_NAME, seed=np.int64(7)
    )
    assert type(run.seed) is int and run.seed == 7
    trace = bb84.run_exchange(4, 0.5, seed=np.uint64(3))
    assert type(trace.seed) is int and trace.seed == 3
    assert trace == bb84.run_exchange(4, 0.5, seed=3)
